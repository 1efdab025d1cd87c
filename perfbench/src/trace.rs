//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span is (name, start, end, parent, request id). Spans are kept in
//! memory and written out once, when the run ends. A span's self time is
//! its duration minus the part of its interval that its children cover;
//! children running concurrently on other threads are counted once.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;
use std::time::Instant;

/// Span id; `NONE` marks a root (and every id of a disabled tracer).
pub type SpanId = usize;

/// The parent of a root span.
pub const NONE: SpanId = usize::MAX;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `sim.run`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns (equal to `start` while the span is open).
    pub end: u64,
    /// Parent span id, or [`NONE`].
    pub parent: SpanId,
    /// The request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Span recorder. A disabled tracer records nothing and hands out
/// [`NONE`] ids, so call sites need no branches.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let start = self.now();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
        spans.len() - 1
    }

    /// Closes span `id` (a no-op for [`NONE`]).
    pub fn close(&self, id: SpanId) {
        if id == NONE {
            return;
        }
        let end = self.now();
        self.lock()[id].end = end;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NONE {
            let parent = &spans[span.parent];
            let (s, e) = (span.start.max(parent.start), span.end.min(parent.end));
            if s < e {
                children[span.parent].push((s, e));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| span.duration() - union_length(kids))
        .collect()
}

/// Total length covered by a set of intervals.
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(s, e) in intervals.iter() {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time summed per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
    }
    out
}

/// Per request: the summed duration (seconds) of the spans named `name`
/// inside requests rooted at a span named `root`, for the requests that
/// have any.
pub fn per_request_sums(spans: &[Span], root: &str, name: &str) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
    let roots: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == root && s.parent == NONE)
        .map(|s| s.request)
        .collect();
    for span in spans.iter().filter(|s| s.name == name) {
        if roots.contains(&span.request) {
            *sums.entry(span.request).or_insert(0.0) += span.duration() as f64 * 1e-9;
        }
    }
    sums.into_values().collect()
}

/// Summed self time of every span below a root named `root`, as a
/// share of those roots' summed durations: how much of the requests'
/// wall time the layer spans explain.
pub fn self_sum_frac(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let root_of = |mut i: SpanId| {
        while spans[i].parent != NONE {
            i = spans[i].parent;
        }
        i
    };
    let (mut layers, mut wall) = (0u64, 0u64);
    for (i, span) in spans.iter().enumerate() {
        if span.parent == NONE {
            if span.name == root {
                wall += span.duration();
            }
        } else if spans[root_of(i)].name == root {
            layers += own[i];
        }
    }
    layers as f64 / wall as f64
}

/// Writes spans as tab-separated lines: id, name, start_ns, end_ns,
/// parent (`-` for roots), request, self_ns.
pub fn write_spans(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
    for (id, (span, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = if span.parent == NONE {
            "-".to_string()
        } else {
            span.parent.to_string()
        };
        writeln!(
            out,
            "{id}\t{}\t{}\t{}\t{parent}\t{}\t{own}",
            span.name, span.start, span.end, span.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 100, NONE),
            span("a", 10, 40, 0),
            span("b", 50, 90, 0),
            span("b.inner", 60, 70, 2),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads under one parent, overlapping in time.
        let spans = vec![
            span("phase", 0, 100, NONE),
            span("conn", 10, 60, 0),
            span("conn", 40, 80, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", 10, 50, NONE),
            span("early", 0, 20, 0),
            span("late", 45, 70, 0),
            span("outside", 60, 80, 0),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
    }

    #[test]
    fn sums_and_names_aggregate_per_request() {
        let mut spans = vec![
            span("request", 0, 100, NONE),
            span("sim.run", 0, 30, 0),
            span("sim.run", 30, 50, 0),
            span("request", 100, 150, NONE),
            span("sim.run", 100, 140, 3),
            span("probe", 200, 210, NONE),
            span("sim.run", 200, 205, 5),
        ];
        spans[3].request = 1;
        spans[4].request = 1;
        spans[5].request = 2;
        spans[6].request = 2;
        let sums = per_request_sums(&spans, "request", "sim.run");
        assert_eq!(sums.len(), 2);
        assert!((sums[0] - 50e-9).abs() < 1e-15 && (sums[1] - 40e-9).abs() < 1e-15);
        let by_name = self_time_by_name(&spans);
        assert!((by_name["request"] - 60e-9).abs() < 1e-15);
    }

    #[test]
    fn self_sum_share_excludes_root_gaps_and_other_trees() {
        let spans = vec![
            span("request", 0, 100, NONE),
            span("a", 0, 60, 0),
            span("a.inner", 10, 20, 1),
            span("b", 70, 90, 0),
            span("probe", 100, 200, NONE),
            span("c", 100, 200, 4),
        ];
        // 60 + 20 of the request's 100 ns are inside layer spans.
        assert!((self_sum_frac(&spans, "request") - 0.8).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("x", NONE, 0);
        assert_eq!(id, NONE);
        assert_eq!(tracer.time("y", id, 0, || 7), 7);
        tracer.close(id);
        assert!(tracer.spans().is_empty());
    }
}
