//! One request in process: `.scn` text to formatted rows, through the
//! same public calls the daemon's `SUBMIT` path makes — parse, plan,
//! memo-cache lookup, graph build, assembly, run, cache insert, rows.
//! A request whose cells are all cached is a hit and computes nothing.

use std::sync::Arc;
use std::time::Instant;

use od_serve::{MemoCache, StoredCell};
use od_sim::{cell_rows, Simulation, SweepPlan, SweepSpec};

use crate::sys::process_cpu_s;
use crate::trace::{SpanId, Tracer, NONE};
use crate::workload::{Checker, Digest, Moments};

/// What one request did and cost.
#[derive(Debug, Default)]
pub struct Request {
    /// Whether every cell came from the cache.
    pub hit: bool,
    /// Text to the last row formatted, seconds.
    pub wall: f64,
    /// Parse, plan, graph build and assembly, seconds.
    pub setup: f64,
    /// `Simulation::run`, seconds.
    pub run: f64,
    /// Process CPU seconds during `Simulation::run`.
    pub run_cpu: f64,
    /// Cells computed.
    pub computed: usize,
    /// Trials computed.
    pub trials: u64,
    /// Converged trials among `trials`.
    pub converged: u64,
    /// Summed steps of the computed trials.
    pub steps: u64,
    /// Cache lookups that hit / missed.
    pub lookups: (u64, u64),
    /// The formatted rows (CSV lines as the daemon streams them).
    pub rows: String,
    /// Digest of every cell's trials, cell order.
    pub digest: Digest,
}

/// Runs one request against `cache`, handing every computed cell to
/// `checker` once the clock has stopped. Without a checker it stops
/// after assembly and touches no cache: a set-up-only pass.
pub fn request(
    text: &str,
    cache: &MemoCache,
    checker: Option<&mut Checker>,
    tracer: &Tracer,
    req: u64,
) -> Result<Request, String> {
    let t0 = Instant::now();
    let root = tracer.open(
        if checker.is_some() {
            "request"
        } else {
            "setup"
        },
        NONE,
        req,
    );
    let out = request_inner(text, cache, checker, tracer, root, req, t0);
    tracer.close(root);
    out
}

fn request_inner(
    text: &str,
    cache: &MemoCache,
    checker: Option<&mut Checker>,
    tracer: &Tracer,
    root: SpanId,
    req: u64,
    t0: Instant,
) -> Result<Request, String> {
    let run = checker.is_some();
    let mut out = Request::default();
    let sweep = tracer
        .time("spec.parse", root, req, || SweepSpec::parse(text))
        .map_err(|e| e.to_string())?;
    let (plan, keys) = tracer
        .time("sweep.plan", root, req, || {
            SweepPlan::new(&sweep).map(|plan| {
                let keys: Vec<String> = plan.cells.iter().map(|c| c.spec.canonical_key()).collect();
                (plan, keys)
            })
        })
        .map_err(|e| e.to_string())?;
    out.setup = t0.elapsed().as_secs_f64();
    let mut graphs = vec![None; plan.graph_specs.len()];
    let mut stored: Vec<Arc<StoredCell>> = Vec::with_capacity(plan.cells.len());
    // (cell, index into `stored`, n) of each computed cell, checked once
    // the request's clock has stopped.
    let mut to_check = Vec::new();
    for (i, cell) in plan.cells.iter().enumerate() {
        if run {
            if let Some(hit) = tracer.time("cache.get", root, req, || cache.get(&keys[i])) {
                out.lookups.0 += 1;
                stored.push(hit);
                continue;
            }
            out.lookups.1 += 1;
        }
        let t = Instant::now();
        let g = plan.graph_index(i);
        let graph = match &graphs[g] {
            Some(graph) => graph,
            None => {
                let built = tracer
                    .time("graph.build", root, req, || plan.build_graph(g))
                    .map_err(|e| e.to_string())?;
                graphs[g].insert(built)
            }
        };
        let sim = tracer
            .time("sim.assemble", root, req, || {
                Simulation::from_spec_with_graph(&cell.spec, graph.clone())
            })
            .map_err(|e| e.to_string())?;
        out.setup += t.elapsed().as_secs_f64();
        if !run {
            continue;
        }
        let (t, cpu) = (Instant::now(), process_cpu_s());
        let report = tracer
            .time("sim.run", root, req, || sim.run())
            .map_err(|e| e.to_string())?;
        out.run += t.elapsed().as_secs_f64();
        out.run_cpu += process_cpu_s() - cpu;
        to_check.push((i, stored.len(), sim.graph().n()));
        out.computed += 1;
        out.trials += report.trials.len() as u64;
        out.converged += report.trials.iter().filter(|t| t.converged).count() as u64;
        out.steps += report.trials.iter().map(|t| t.steps).sum::<u64>();
        let cell_result = StoredCell {
            engine: report.engine.to_string(),
            trials: report.trials,
        };
        stored.push(tracer.time("cache.insert", root, req, || {
            cache.insert(&keys[i], cell_result)
        }));
    }
    let Some(checker) = checker else {
        out.wall = t0.elapsed().as_secs_f64();
        return Ok(out);
    };
    let scenario = sweep.base.name.as_deref().unwrap_or("-");
    out.rows = tracer.time("rows.format", root, req, || {
        let mut rows = String::new();
        for (cell, result) in plan.cells.iter().zip(&stored) {
            for row in cell_rows(
                scenario,
                cell.index,
                &cell.label,
                cell.spec.seed,
                &result.trials,
            ) {
                rows.push_str(&row.csv_line());
                rows.push('\n');
            }
        }
        rows
    });
    out.wall = t0.elapsed().as_secs_f64();
    out.hit = out.computed == 0;
    for (i, slot, n) in to_check {
        let moments = Moments::of(&plan.cells[i].spec.init.values(n));
        checker.cell(i, &moments, &stored[slot].trials);
    }
    for result in &stored {
        for t in &result.trials {
            out.digest.add(t.steps, t.estimate);
        }
    }
    Ok(out)
}
