//! The repository's benchmark: `.scn` text to rows and to served bytes.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <churn_converge|serve_mix|sweep_crn|large_n> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload's inputs are generated from `--seed`. With `--trace 0`
//! the run prints the end-to-end metrics; with `--trace 1` it records
//! spans around the benchmark's own calls into each layer, runs the
//! calibration probes, and prints the per-layer metrics. The last line
//! of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for what each metric means.

mod metrics;
mod probes;
mod request;
mod serve;
mod stats;
mod sys;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use od_graph::ChurnModel;
use od_serve::MemoCache;
use od_sim::{SweepPlan, SweepSpec};
use od_stats::SeedSequence;

use crate::metrics::{END_TO_END, LAYERS};
use crate::request::{request, Request};
use crate::stats::{median, Latency};
use crate::trace::{per_request_sums, Span, Tracer, NONE};
use crate::workload::{Check, Checker, Digest, Workload, LARGE_N_STEPS};

/// Set-up-only passes before the measured requests of a batch workload;
/// `setup_s` is the median over these and the measured requests' set-up.
const SETUP_PASSES: usize = 3;

/// Cache replays after each computed request of a batch workload, so
/// the hit samples spread over the whole run.
const REPLAYS_PER_REQUEST: usize = 100;

/// Unmeasured replays before the measured ones of each request.
const REPLAY_WARMUP: usize = 20;

/// Replays a batch run tops up to, round robin over its computed
/// requests: enough samples for a p99 with 10 beyond it.
const MIN_REPLAYS: usize = 1000;

/// Churn epochs the commit probe replays.
const CHURN_PROBE_EPOCHS: u64 = 8;

/// Swaps per epoch of the commit probe on workloads without churn (the
/// `churn_converge` rate).
const PROBE_SWAPS: usize = 512;

/// Dependent loads the latency probe times.
const CHASE_LOADS: u64 = 1 << 23;

/// Request ids of the traced run's probe passes start here, clear of the
/// measured requests.
const PROBE_REQUESTS: u64 = 1 << 40;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(flag, value);
    }
    let get = |k: &str| map.get(k).ok_or(format!("missing {k}"));
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::from_name(workload).ok_or(format!("unknown workload '{workload}'"))?,
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds: get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds takes a positive number")?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Default)]
struct Run {
    setups: Vec<f64>,
    /// Requests computed in process: a batch workload's, or the
    /// in-process pass of a traced `serve_mix` run.
    misses: Vec<Request>,
    miss_walls: Vec<f64>,
    hit_walls: Vec<f64>,
    /// Samples behind `wall_s`: computed requests (batch) or every
    /// request (serve).
    walls: Vec<f64>,
    /// Steps per second of each computed request (batch) or of the
    /// whole closed loop (serve).
    rates: Vec<f64>,
    /// Requests per second of the workload's clients.
    req_per_s: f64,
    /// Share of cache lookups that hit.
    hit_ratio: f64,
    attempted: u64,
    failures: Vec<String>,
    digest: Option<Digest>,
    notes: Vec<String>,
}

impl Run {
    fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failures.push(e);
        }
    }

    /// Adds a finished checker's operations and failures.
    fn absorb(&mut self, mut checker: Checker) {
        checker.finish();
        self.attempted += checker.attempted;
        self.failures.extend(checker.failures);
    }
}

fn check_of(w: Workload) -> Check {
    match w {
        Workload::LargeN => Check::Horizon {
            steps: LARGE_N_STEPS,
            alpha: 0.5,
        },
        _ => Check::Converged,
    }
}

/// Replays `text` from the memo cache and checks that it is a
/// byte-identical hit of `rows`; returns its (hit, miss) lookups. A
/// replay computes nothing, so its checker never sees a cell.
fn replay(
    run: &mut Run,
    cache: &MemoCache,
    tracer: &Tracer,
    id: u64,
    text: &str,
    rows: &str,
) -> Result<(u64, u64), String> {
    let hit = request(
        text,
        cache,
        Some(&mut Checker::new(Check::Converged)),
        tracer,
        id,
    )?;
    run.check(if hit.hit && hit.rows == rows {
        Ok(())
    } else {
        Err(format!(
            "request {id}: replay is not a byte-identical cache hit"
        ))
    });
    run.hit_walls.push(hit.wall);
    Ok(hit.lookups)
}

/// A batch workload: set-up passes, then requests with fresh seeds until
/// the next would overrun `seconds`, each followed by cache replays.
fn run_batch(w: Workload, seed: u64, seconds: f64, tracer: &Tracer) -> Result<Run, String> {
    let mut checker = Checker::new(check_of(w));
    let seeds = SeedSequence::new(seed);
    let cache = MemoCache::new(None).map_err(|e| e.to_string())?;
    let mut run = Run::default();
    let mut id = 0u64;
    for _ in 0..SETUP_PASSES {
        id += 1;
        let pass = request(&w.text(seeds.seed(0)), &cache, None, tracer, id)?;
        run.setups.push(pass.setup);
    }
    let untraced = Tracer::new(false);
    let (mut hits, mut misses) = (0, 0);
    let mut computed = Vec::new();
    let t = Instant::now();
    for round in 0.. {
        id += 1;
        let text = w.text(seeds.seed(round));
        let miss = request(&text, &cache, Some(&mut checker), tracer, id)?;
        run.setups.push(miss.setup);
        run.miss_walls.push(miss.wall);
        run.rates.push(miss.steps as f64 / (miss.wall - miss.setup));
        run.digest.get_or_insert(miss.digest);
        (hits, misses) = (hits + miss.lookups.0, misses + miss.lookups.1);
        // Unmeasured replays first: the computed request left the caches
        // and the allocator cold for the hit path.
        for _ in 0..REPLAY_WARMUP {
            request(
                &text,
                &cache,
                Some(&mut Checker::new(Check::Converged)),
                &untraced,
                0,
            )?;
        }
        for _ in 0..REPLAYS_PER_REQUEST {
            id += 1;
            let (h, m) = replay(&mut run, &cache, tracer, id, &text, &miss.rows)?;
            (hits, misses) = (hits + h, misses + m);
        }
        let wall = miss.wall;
        computed.push((text, miss.rows.clone()));
        run.misses.push(miss);
        if t.elapsed().as_secs_f64() + wall > seconds {
            break;
        }
    }
    for i in run.hit_walls.len()..MIN_REPLAYS {
        id += 1;
        let (text, rows) = &computed[i % computed.len()];
        let (h, m) = replay(&mut run, &cache, tracer, id, text, rows)?;
        (hits, misses) = (hits + h, misses + m);
    }
    run.absorb(checker);
    run.hit_ratio = hits as f64 / (hits + misses) as f64;
    run.walls = run.miss_walls.clone();
    // One client submitting scenarios back to back; the replays are a
    // separate measurement of the cache-hit path.
    run.req_per_s = 1.0 / median(&run.walls);
    run.notes.push(format!(
        "{} computed requests (wall s: {}), {} replays of them from the memo cache",
        run.miss_walls.len(),
        run.miss_walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
        run.hit_walls.len()
    ));
    Ok(run)
}

/// `serve_mix`: the daemon's closed loop. In the traced run the same
/// miss specs are also computed in process, outside the daemon, so the
/// layer spans cover them.
fn run_serve(seed: u64, seconds: f64, tracer: &Tracer) -> Result<Run, String> {
    let s = serve::run_serve_mix(seed, seconds, tracer).map_err(|e| e.to_string())?;
    let mut run = Run {
        setups: s.setups,
        walls: [&s.log.hits[..], &s.log.misses[..]].concat(),
        hit_walls: s.log.hits,
        miss_walls: s.log.misses,
        rates: vec![s.log.miss_steps as f64 / s.phase],
        req_per_s: s.log.requests as f64 / s.phase,
        // The daemon's lookups, from STATS: cache_hits against cells_run.
        hit_ratio: s.stats.1 as f64 / (s.stats.1 + s.stats.0) as f64,
        attempted: s.checks + s.log.requests,
        failures: s.log.failures,
        digest: Some(s.hot_digest),
        ..Run::default()
    };
    run.notes.push(format!(
        "{} requests on {} connections in {:.3} s; STATS cells_run={} cache_hits={}; \
         first miss digest {:016x}",
        s.log.requests,
        serve::CONNECTIONS,
        s.phase,
        s.stats.0,
        s.stats.1,
        s.log.first_miss.unwrap_or_default().0
    ));
    Ok(run)
}

/// The in-process pass of the traced `serve_mix` run: the first misses
/// of connection 0, computed and then replayed once each.
fn serve_layer_pass(seed: u64, tracer: &Tracer, run: &mut Run) -> Result<(), String> {
    let mix = serve::Mix::new(seed);
    let cache = MemoCache::new(None).map_err(|e| e.to_string())?;
    let mut checker = Checker::new(Check::Converged);
    for i in 0..24u64 {
        let text = mix.miss(0, i);
        let id = PROBE_REQUESTS + 2 * i;
        let miss = request(&text, &cache, Some(&mut checker), tracer, id)?;
        let hit = request(&text, &cache, Some(&mut checker), tracer, id + 1)?;
        run.check(if hit.hit && hit.rows == miss.rows {
            Ok(())
        } else {
            Err("in-process replay is not a byte-identical cache hit".into())
        });
        run.misses.push(miss);
    }
    run.absorb(checker);
    Ok(())
}

type Metrics = Vec<(&'static str, f64)>;

/// Hit and miss latencies of a run, in ms.
fn latencies(run: &Run) -> (Latency, Latency) {
    let ms = |xs: &[f64]| xs.iter().map(|x| x * 1e3).collect::<Vec<_>>();
    (
        Latency::of(&ms(&run.hit_walls)),
        Latency::of(&ms(&run.miss_walls)),
    )
}

fn end_to_end(run: &Run) -> Metrics {
    let (_, miss) = latencies(run);
    vec![
        ("setup_s", median(&run.setups)),
        ("wall_s", median(&run.walls)),
        ("steps_per_s", median(&run.rates)),
        ("peak_rss_mb", sys::peak_rss_mb()),
        ("req_per_s", run.req_per_s),
        ("miss_p50_ms", miss.p50),
        ("miss_p99_ms", miss.tail),
    ]
}

fn latency_notes(run: &Run) -> Vec<String> {
    let (hit, miss) = latencies(run);
    [("hit", hit), ("miss", miss)]
        .into_iter()
        .map(|(kind, l)| {
            format!(
                "{kind}_p99_ms reports p{} of n={} (the highest percentile with at least {} \
                 samples beyond it; the median below 20 samples)",
                l.tail_pct,
                l.n,
                stats::MIN_BEYOND
            )
        })
        .collect()
}

/// The workload's plan and first graph, for the single-layer probes.
fn probe_inputs(w: Workload, seed: u64) -> Result<(od_graph::Graph, SweepPlan), String> {
    let sweep = SweepSpec::parse(&w.text(seed)).map_err(|e| e.to_string())?;
    let plan = SweepPlan::new(&sweep).map_err(|e| e.to_string())?;
    let graph = plan.build_graph(0).map_err(|e| e.to_string())?;
    Ok((graph, plan))
}

fn per_layer(
    w: Workload,
    seed: u64,
    run: &Run,
    tracer: &Tracer,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let measured = tracer.spans();
    let measured_wall: f64 = measured
        .iter()
        .filter(|s| s.parent == NONE && (s.name == "request" || s.name == "serve.phase"))
        .map(|s| s.duration() as f64 * 1e-9)
        .sum();
    let overhead = span_cost_s() * measured.len() as f64 / measured_wall;
    let sums = |name| per_request_sums(&measured, "request", name);
    let each = |name: &str| -> Vec<f64> {
        measured
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64 * 1e-9)
            .collect()
    };
    let assemble_plus_run: Vec<f64> = sums("sim.assemble")
        .iter()
        .zip(sums("sim.run"))
        .map(|(a, r)| a + r)
        .collect();
    let trials: u64 = run.misses.iter().map(|m| m.trials).sum();
    let converged: u64 = run.misses.iter().map(|m| m.converged).sum();
    let steps: u64 = run.misses.iter().map(|m| m.steps).sum();
    let run_s: f64 = run.misses.iter().map(|m| m.run).sum();
    let run_cpu: f64 = run.misses.iter().map(|m| m.run_cpu).sum();
    let rows_bytes: Vec<f64> = run.misses.iter().map(|m| m.rows.len() as f64).collect();

    let probe = tracer.open("probe", NONE, PROBE_REQUESTS - 1);
    let (graph, plan) = probe_inputs(w, seed)?;
    let cell = &plan.cells[0].spec;
    let kernel = cell.model.kernel_spec().map_err(|e| e.to_string())?;
    let xi0 = cell.init.values(graph.n());
    let step_ns = tracer.time("core.step", probe, 0, || {
        probes::step_ns(&graph, kernel, &xi0, seed, 0.5)
    });
    let (churn_model, churn_seed) = match &cell.churn {
        Some(c) => (c.model.build().map_err(|e| e.to_string())?, c.seed),
        None => (ChurnModel::edge_swap(PROBE_SWAPS), seed),
    };
    let (commits, patched, rebuilt) = probes::churn_commits(
        &graph,
        &churn_model,
        churn_seed,
        CHURN_PROBE_EPOCHS,
        tracer,
        probe,
    );
    drop(graph);
    let probe_text = Workload::ServeMix.text(SeedSequence::new(seed).seed(u64::MAX));
    let (ping_us, hit_persistent_ms, hit_fresh_ms) =
        serve::protocol_probes(&probe_text, tracer).map_err(|e| e.to_string())?;
    let probe_bytes = probes::probe_bytes(sys::llc_bytes());
    let copy_gbps = tracer.time("machine.copy", probe, 0, || probes::copy_gbps(probe_bytes));
    let chase_words = probes::chase_words(probe_bytes);
    let chase_ns = tracer.time("machine.chase", probe, 0, || {
        probes::chase_ns(chase_words, CHASE_LOADS)
    });
    tracer.close(probe);
    notes.push(format!(
        "copy probe: two arrays of {} MiB each; chase probe: one array of {} MiB, {} dependent loads; LLC {}",
        probe_bytes >> 20,
        (chase_words * 8) >> 20,
        CHASE_LOADS,
        sys::llc_bytes().map_or("unknown".into(), |b| format!("{} MiB", b >> 20))
    ));
    notes.push(format!(
        "churn probe: {CHURN_PROBE_EPOCHS} epochs of {} from seed {churn_seed}",
        if cell.churn.is_some() {
            "the workload's own churn".to_string()
        } else {
            format!("edge_swap swaps={PROBE_SWAPS} (the workload has no churn)")
        }
    ));

    let e2e = end_to_end(run);
    let get = |name| {
        e2e.iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |m| m.1)
    };
    let (hit, _) = latencies(run);
    Ok(vec![
        ("hit_p50_ms", hit.p50),
        ("hit_p99_ms", hit.tail),
        ("spec.parse_us", median(&sums("spec.parse")) * 1e6),
        ("sweep.plan_us", median(&sums("sweep.plan")) * 1e6),
        ("graph.build_s", median(&sums("graph.build"))),
        ("sim.assemble_s", median(&sums("sim.assemble"))),
        ("sim.run_s", median(&sums("sim.run"))),
        ("sim.cpu_util", run_cpu / run_s),
        ("sim.steps", steps as f64),
        ("sim.trials", trials as f64),
        ("sim.converged", converged as f64),
        ("core.step_ns", step_ns),
        ("core.bytes_per_step", probes::bytes_per_step(kernel)),
        ("core.step_over_chase", step_ns / chase_ns),
        (
            "sim.driver_share",
            1.0 - steps as f64 * step_ns * 1e-9 / run_cpu,
        ),
        ("graph.churn_commit_us", median(&commits) * 1e6),
        ("graph.patched", patched as f64),
        ("graph.rebuilt", rebuilt as f64),
        ("rows.format_us", median(&sums("rows.format")) * 1e6),
        ("rows.bytes", median(&rows_bytes)),
        ("cache.get_us", median(&each("cache.get")) * 1e6),
        ("cache.insert_us", median(&each("cache.insert")) * 1e6),
        ("cache.hit_ratio", run.hit_ratio),
        ("serve.ping_us", ping_us),
        ("serve.hit_persistent_ms", hit_persistent_ms),
        ("serve.hit_fresh_conn_ms", hit_fresh_ms),
        ("serve.miss_compute_ms", median(&assemble_plus_run) * 1e3),
        ("machine.copy_gbps", copy_gbps),
        ("machine.chase_ns", chase_ns),
        ("trace.overhead_frac", overhead),
        (
            "trace.self_sum_frac",
            trace::self_sum_frac(&measured, "request"),
        ),
        ("e2e.setup_s", get("setup_s")),
        ("e2e.wall_s", get("wall_s")),
        ("e2e.miss_p50_ms", get("miss_p50_ms")),
    ])
}

/// Seconds one open/close span pair costs, measured on a scratch tracer.
fn span_cost_s() -> f64 {
    let scratch = Tracer::new(true);
    let n = 100_000;
    let t = Instant::now();
    for i in 0..n {
        let id = scratch.open("x", NONE, i);
        scratch.close(id);
    }
    t.elapsed().as_secs_f64() / n as f64
}

fn self_time_table(spans: &[Span]) -> String {
    let mut out = String::from("self time by span (s):\n");
    for (name, secs) in trace::self_time_by_name(spans) {
        let _ = writeln!(out, "  {name:<24} {secs:.6}");
    }
    out
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    let tracer = Tracer::new(args.trace);
    let mut report = String::new();
    for (k, v) in sys::provenance() {
        let _ = writeln!(report, "provenance {k}: {v}");
    }
    let _ = writeln!(
        report,
        "workload {} seed {} seconds {} trace {} ({} by BENCHMARK.json)",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if Workload::GATED.contains(&w) {
            "gated"
        } else {
            "not gated"
        }
    );
    let outcome = match w {
        Workload::ServeMix => run_serve(args.seed, args.seconds, &tracer).and_then(|mut run| {
            if args.trace {
                serve_layer_pass(args.seed, &tracer, &mut run)?;
            }
            Ok(run)
        }),
        _ => run_batch(w, args.seed, args.seconds, &tracer),
    };
    let mut run = match outcome {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", w.name());
            std::process::exit(1);
        }
    };
    let mut notes = std::mem::take(&mut run.notes);
    notes.extend(latency_notes(&run));
    let metrics = if args.trace {
        match per_layer(w, args.seed, &run, &tracer, &mut notes) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: traced probes failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        end_to_end(&run)
    };
    let units: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        .collect();
    for (name, value) in &metrics {
        let about = match END_TO_END.iter().find(|m| m.name == *name) {
            Some(m) => format!("{:?} is better; bound {}", m.better, m.bound),
            None => LAYERS
                .iter()
                .find(|m| m.name == *name)
                .map_or(String::new(), |m| {
                    format!("{:?} is better; moves {}", m.better, m.moves)
                }),
        };
        let _ = writeln!(
            report,
            "metric {name:<24} {value:>16.6} {:<6} ({about})",
            units[name]
        );
    }
    let failed = run.failures.len() as u64;
    let attempted = run.attempted.max(1);
    let _ = writeln!(
        report,
        "failed_frac {} ({failed} of {attempted} operations)",
        failed as f64 / attempted as f64
    );
    for f in run.failures.iter().take(10) {
        let _ = writeln!(report, "failure: {f}");
    }
    let _ = writeln!(
        report,
        "digest {:016x} (per-trial steps and estimate bits of the first computed request)",
        run.digest.unwrap_or_default().0
    );
    for n in &notes {
        let _ = writeln!(report, "note: {n}");
    }
    let spans = tracer.spans();
    if args.trace {
        report.push_str(&self_time_table(&spans));
    }
    print!("{report}");
    write_outputs(&args, &report, &spans);

    let correct = failed == 0 && metrics.iter().all(|(_, v)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                units[name]
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Writes the report and the spans under `perfbench/out/`; a write
/// failure is reported, not fatal.
fn write_outputs(args: &Args, report: &str, spans: &[Span]) {
    let dir = std::path::Path::new("perfbench/out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let result = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.txt")), report))
        .and_then(|()| {
            if spans.is_empty() {
                return Ok(());
            }
            let mut file = std::io::BufWriter::new(std::fs::File::create(
                dir.join(format!("{stem}.spans.tsv")),
            )?);
            trace::write_spans(&mut file, spans)?;
            std::io::Write::flush(&mut file)
        });
    if let Err(e) = result {
        eprintln!("perfbench: could not write {}: {e}", dir.display());
    }
}
