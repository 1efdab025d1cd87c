//! The daemon side: a protocol client, the `serve_mix` closed loop, and
//! the protocol probes (ping, and a cache hit on a persistent and on a
//! fresh connection).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use od_serve::{Server, ServerConfig};
use od_stats::seeds::splitmix64;
use od_stats::SeedSequence;

use crate::stats::median;
use crate::trace::{Tracer, NONE};
use od_sim::TrialResult;

use crate::workload::{Check, Checker, Digest, Moments, Workload, SERVE_MIX_N, SERVE_MIX_REPLICAS};

/// Daemon workers and client connections (the machine has 2 cores).
pub const WORKERS: usize = 2;
/// Client connections of the closed loop.
pub const CONNECTIONS: usize = 2;
/// Distinct specs in the warmed hot set.
pub const HOT_SET: usize = 16;
/// Every `MISS_EVERY`-th request of a connection is a never-seen spec;
/// the others (80%) replay the hot set.
pub const MISS_EVERY: u64 = 5;
/// Daemon start-ups (each warming the hot set) whose median is `setup_s`.
pub const SETUPS: usize = 3;

/// A blocking protocol client on one persistent connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let writer = TcpStream::connect(addr)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    /// Sends `SUBMIT` with the text in one write and reads the response
    /// up to its `DONE` or `ERR` line.
    pub fn submit(&mut self, text: &str) -> io::Result<String> {
        let mut frame = format!("SUBMIT {}\n", text.len()).into_bytes();
        frame.extend_from_slice(text.as_bytes());
        self.writer.write_all(&frame)?;
        let mut response = String::new();
        loop {
            let start = response.len();
            if self.reader.read_line(&mut response)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "daemon closed the connection mid-response",
                ));
            }
            let line = &response[start..];
            if line == "DONE\n" || line.starts_with("ERR") {
                return Ok(response);
            }
        }
    }

    /// Sends a one-line command and reads its one-line reply.
    pub fn command(&mut self, command: &str) -> io::Result<String> {
        self.writer.write_all(format!("{command}\n").as_bytes())?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        Ok(line)
    }
}

/// A parsed `SUBMIT` response: per-cell trials from the `ROW` lines.
#[derive(Debug, Default)]
pub struct Response {
    /// (steps, converged, estimate) per row, cell by cell.
    pub cells: Vec<Vec<(u64, bool, f64)>>,
    /// Whether it ended with `DONE`.
    pub done: bool,
}

/// Parses the `ROW` lines of a response (CSV header order; the
/// benchmark's scenario names and labels contain no commas).
pub fn parse_response(response: &str) -> Result<Response, String> {
    let mut out = Response {
        done: response.ends_with("DONE\n"),
        ..Response::default()
    };
    for line in response.lines() {
        let Some(row) = line.strip_prefix("ROW ") else {
            continue;
        };
        let fields: Vec<&str> = row.split(',').collect();
        let (Some(cell), Some(steps), Some(converged), Some(estimate)) =
            (fields.get(1), fields.get(5), fields.get(6), fields.get(8))
        else {
            return Err(format!("short ROW line '{line}'"));
        };
        let cell: usize = cell.parse().map_err(|_| format!("bad cell in '{line}'"))?;
        while out.cells.len() <= cell {
            out.cells.push(Vec::new());
        }
        out.cells[cell].push((
            steps
                .parse()
                .map_err(|_| format!("bad steps in '{line}'"))?,
            *converged == "true",
            estimate
                .parse()
                .map_err(|_| format!("bad estimate in '{line}'"))?,
        ));
    }
    Ok(out)
}

/// The trials of a well-formed response (ends with `DONE`, 2 cells of
/// [`SERVE_MIX_REPLICAS`] trials), folded into `digest`.
fn response_trials(response: &str, digest: &mut Digest) -> Result<Vec<Vec<TrialResult>>, String> {
    let parsed = parse_response(response)?;
    if !parsed.done {
        return Err("response did not end with DONE".into());
    }
    if parsed.cells.len() != 2 || parsed.cells.iter().any(|c| c.len() != SERVE_MIX_REPLICAS) {
        return Err(format!("expected 2 cells of {SERVE_MIX_REPLICAS} trials"));
    }
    Ok(parsed
        .cells
        .iter()
        .map(|cell| {
            cell.iter()
                .map(|&(steps, converged, estimate)| {
                    digest.add(steps, estimate);
                    TrialResult {
                        steps,
                        converged,
                        potential: 0.0,
                        estimate,
                        winner: None,
                        mutations: 0,
                    }
                })
                .collect()
        })
        .collect())
}

/// The hot-set spec seeds and the miss spec seed generator of a run.
pub struct Mix {
    /// Hot-set texts.
    pub hot: Vec<String>,
    seeds: SeedSequence,
}

impl Mix {
    /// The mix for workload seed `seed`.
    pub fn new(seed: u64) -> Mix {
        let hot_seeds = SeedSequence::new(seed).child(1);
        Mix {
            hot: (0..HOT_SET as u64)
                .map(|i| Workload::ServeMix.text(hot_seeds.seed(i)))
                .collect(),
            seeds: SeedSequence::new(seed).child(2),
        }
    }

    /// The `i`-th never-seen spec of connection `conn`.
    pub fn miss(&self, conn: usize, i: u64) -> String {
        Workload::ServeMix.text(self.seeds.child(conn as u64).seed(i))
    }
}

/// Starts a daemon and submits every hot spec once, split across the
/// connections; returns the daemon, the responses, and the seconds it
/// took.
fn start_and_warm(mix: &Mix) -> io::Result<(Server, Vec<String>, f64)> {
    let t = Instant::now();
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        checkpoint_dir: None,
    })?;
    let addr = server.addr();
    let mut responses = vec![String::new(); mix.hot.len()];
    std::thread::scope(|s| -> io::Result<()> {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || -> io::Result<Vec<(usize, String)>> {
                    let mut client = Client::connect(addr)?;
                    (c..mix.hot.len())
                        .step_by(CONNECTIONS)
                        .map(|i| Ok((i, client.submit(&mix.hot[i])?)))
                        .collect()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("warm-up client panicked")? {
                responses[i] = r;
            }
        }
        Ok(())
    })?;
    Ok((server, responses, t.elapsed().as_secs_f64()))
}

/// One connection's closed-loop record.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// Hit latencies, seconds.
    pub hits: Vec<f64>,
    /// Miss latencies, seconds.
    pub misses: Vec<f64>,
    /// Steps reported by miss responses (computed by the daemon).
    pub miss_steps: u64,
    /// The trials of each miss response, per cell.
    pub miss_trials: Vec<Vec<Vec<TrialResult>>>,
    /// Misses submitted.
    pub miss_count: u64,
    /// Failed requests and checks, described.
    pub failures: Vec<String>,
    /// Requests sent.
    pub requests: u64,
    /// Digest of the first miss response.
    pub first_miss: Option<Digest>,
}

/// The result of a `serve_mix` run.
#[derive(Debug, Default)]
pub struct ServeRun {
    /// Each start-up's seconds (daemon start plus hot-set warm-up).
    pub setups: Vec<f64>,
    /// Merged connection logs.
    pub log: ConnLog,
    /// The closed loop's wall time, seconds.
    pub phase: f64,
    /// `STATS` after the loop: (cells_run, cache_hits).
    pub stats: (u64, u64),
    /// Digest of the hot set's responses.
    pub hot_digest: Digest,
    /// Checks attempted.
    pub checks: u64,
}

fn stat_field(stats: &str, key: &str) -> Option<u64> {
    stats
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Runs `serve_mix`: [`SETUPS`] daemon start-ups (the last one stays),
/// then a closed loop of [`CONNECTIONS`] persistent connections for
/// `seconds`, then the `STATS` check.
pub fn run_serve_mix(seed: u64, seconds: f64, tracer: &Tracer) -> io::Result<ServeRun> {
    let mix = Mix::new(seed);
    let mut out = ServeRun::default();
    let mut first: Option<Vec<String>> = None;
    let mut server = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let (s, responses, secs) = start_and_warm(&mix)?;
        out.setups.push(secs);
        out.checks += 1;
        match &first {
            None => first = Some(responses),
            Some(first) if *first != responses => out
                .log
                .failures
                .push("hot-set responses differ between daemon start-ups".into()),
            Some(_) => {}
        }
        server = Some(s);
    }
    let hot = first.expect("SETUPS > 0");
    let server = server.expect("SETUPS > 0");
    let mut checker = Checker::new(Check::Converged);
    let moments = Moments::of(&od_sim::pm_one(SERVE_MIX_N));
    let check = |checker: &mut Checker, cells: &[Vec<TrialResult>]| {
        for (i, trials) in cells.iter().enumerate() {
            checker.cell(i, &moments, trials);
        }
    };
    for response in &hot {
        out.checks += 1;
        match response_trials(response, &mut out.hot_digest) {
            Ok(cells) => check(&mut checker, &cells),
            Err(e) => out.log.failures.push(format!("hot-set response: {e}")),
        }
    }

    let addr = server.addr();
    let phase = tracer.open("serve.phase", NONE, 0);
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(seconds);
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (mix, hot) = (&mix, &hot);
                s.spawn(move || connection_loop(c, addr, mix, hot, deadline, tracer, phase))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    out.phase = t.elapsed().as_secs_f64();
    tracer.close(phase);
    for log in logs {
        for cells in &log.miss_trials {
            check(&mut checker, cells);
        }
        out.log.hits.extend(log.hits);
        out.log.misses.extend(log.misses);
        out.log.miss_steps += log.miss_steps;
        out.log.miss_count += log.miss_count;
        out.log.failures.extend(log.failures);
        out.log.requests += log.requests;
        out.log.first_miss = out.log.first_miss.or(log.first_miss);
    }

    let stats = Client::connect(addr)?.command("STATS")?;
    out.stats = (
        stat_field(&stats, "cells_run").unwrap_or(0),
        stat_field(&stats, "cache_hits").unwrap_or(0),
    );
    out.checks += 1;
    let distinct = 2 * (HOT_SET as u64 + out.log.miss_count);
    if out.stats.0 != distinct {
        out.log.failures.push(format!(
            "STATS cells_run={} but {distinct} distinct cells were submitted",
            out.stats.0
        ));
    }
    checker.finish();
    out.checks += checker.attempted;
    out.log.failures.extend(checker.failures);
    drop(server);
    Ok(out)
}

fn connection_loop(
    conn: usize,
    addr: SocketAddr,
    mix: &Mix,
    hot: &[String],
    deadline: Instant,
    tracer: &Tracer,
    phase: usize,
) -> ConnLog {
    let mut log = ConnLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.failures.push(format!("connect: {e}"));
            return log;
        }
    };
    let mut rng = mix.seeds.child(99).seed(conn as u64);
    while Instant::now() < deadline {
        let request = ((conn as u64) << 32) | log.requests;
        log.requests += 1;
        // A fixed pattern, not a coin flip, so every run has the same
        // share of misses.
        let (text, expected) = if log.requests % MISS_EVERY != 0 {
            rng = splitmix64(rng);
            let i = (rng % hot.len() as u64) as usize;
            (mix.hot[i].clone(), Some(&hot[i]))
        } else {
            log.miss_count += 1;
            (mix.miss(conn, log.miss_count - 1), None)
        };
        let span = tracer.open("serve.request", phase, request);
        let t = Instant::now();
        let response = client.submit(&text);
        let secs = t.elapsed().as_secs_f64();
        tracer.close(span);
        let response = match response {
            Ok(r) => r,
            Err(e) => {
                log.failures.push(format!("request {request}: {e}"));
                return log;
            }
        };
        match expected {
            Some(first) => {
                log.hits.push(secs);
                if response != *first {
                    log.failures.push(format!(
                        "request {request}: hit replay differs from first response"
                    ));
                }
            }
            None => {
                log.misses.push(secs);
                let mut digest = Digest::default();
                match response_trials(&response, &mut digest) {
                    Ok(cells) => {
                        log.miss_steps += cells.iter().flatten().map(|t| t.steps).sum::<u64>();
                        log.miss_trials.push(cells);
                    }
                    Err(e) => log.failures.push(format!("request {request}: {e}")),
                }
                log.first_miss = log.first_miss.or(Some(digest));
            }
        }
    }
    log
}

/// Protocol probes on a daemon of their own: median `PING` round trip
/// (µs), and median cache hit of `text` (ms) on a persistent and on a
/// fresh connection.
pub fn protocol_probes(text: &str, tracer: &Tracer) -> io::Result<(f64, f64, f64)> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        checkpoint_dir: None,
    })?;
    let addr = server.addr();
    let mut client = Client::connect(addr)?;
    let time = |name: &'static str, f: &mut dyn FnMut() -> io::Result<()>| -> io::Result<f64> {
        let mut secs = Vec::new();
        for i in 0..40 {
            let t = Instant::now();
            tracer.time(name, NONE, i, &mut *f)?;
            secs.push(t.elapsed().as_secs_f64());
        }
        Ok(median(&secs))
    };
    let ping = time("serve.ping", &mut || client.command("PING").map(drop))?;
    client.submit(text)?;
    let persistent = time("serve.hit_persistent", &mut || {
        client.submit(text).map(drop)
    })?;
    let fresh = time("serve.hit_fresh_conn", &mut || {
        Client::connect(addr)?.submit(text).map(drop)
    })?;
    drop(client);
    drop(server);
    Ok((ping * 1e6, persistent * 1e3, fresh * 1e3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_parse_into_cells() {
        let r = "OK cells=2 distinct_graphs=1 crn=true\n\
                 ROW s,0,eps=0.01,0,1,10,true,0.1,0.25,,0\n\
                 ROW s,0,eps=0.01,1,2,12,true,0.1,-0.5,,0\n\
                 CELL 0 engine=x\n\
                 ROW s,1,eps=0.0001,0,1,20,false,0.1,1e-3,,0\n\
                 DONE\n";
        let p = parse_response(r).unwrap();
        assert!(p.done);
        assert_eq!(p.cells.len(), 2);
        assert_eq!(p.cells[0][1], (12, true, -0.5));
        assert_eq!(p.cells[1][0], (20, false, 1e-3));
        assert!(!parse_response("ERR x\n").unwrap().done);
    }

    #[test]
    fn stats_fields_are_read_by_key() {
        let s = "STATS cells_run=7 cache_hits=12 cache_entries=7 steps=99\n";
        assert_eq!(stat_field(s, "cells_run"), Some(7));
        assert_eq!(stat_field(s, "cache_hits"), Some(12));
        assert_eq!(stat_field(s, "nope"), None);
    }
}
