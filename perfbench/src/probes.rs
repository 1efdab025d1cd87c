//! Calibration and single-layer probes for the traced run: the machine's
//! copy bandwidth and load latency, the bare step kernel, and churn
//! commits.

use std::hint::black_box;
use std::time::Instant;

use od_core::{KernelSpec, ReplicaBatch};
use od_graph::{ChurnModel, DynamicGraph, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Probe arrays are at least this many times the last-level cache, so
/// neither probe is served from cache.
pub const LLC_MULTIPLE: u64 = 4;

/// LLC size assumed when sysfs does not report one.
const FALLBACK_LLC: u64 = 32 << 20;

/// Bytes each probe array must reach.
pub fn probe_bytes(llc: Option<u64>) -> u64 {
    LLC_MULTIPLE * llc.unwrap_or(FALLBACK_LLC)
}

/// Streaming copy between two arrays of `bytes` each: GB/s counting the
/// bytes read plus the bytes written, median of 5 copies after a warm-up
/// copy that faults every page in.
pub fn copy_gbps(bytes: u64) -> f64 {
    let words = (bytes / 8) as usize;
    let src: Vec<u64> = (0..words as u64).collect();
    let mut dst = vec![0u64; words];
    dst.copy_from_slice(&src);
    let mut secs = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
        secs.push(t.elapsed().as_secs_f64());
    }
    2.0 * (words * 8) as f64 / median(&secs) / 1e9
}

/// Dependent-load latency in ns: a chase through a full-period
/// linear-congruential permutation of `words` (a power of two) slots,
/// so each load's address depends on the previous load and the stride
/// pattern is not one a prefetcher follows.
pub fn chase_ns(words: usize, loads: u64) -> f64 {
    assert!(
        words.is_power_of_two(),
        "the LCG needs a power-of-two modulus"
    );
    let mask = words as u64 - 1;
    let next: Vec<u64> = (0..words as u64).map(|i| lcg_next(i, mask)).collect();
    let mut at = 0u64;
    for _ in 0..loads / 8 {
        at = next[at as usize];
    }
    let t = Instant::now();
    for _ in 0..loads {
        at = next[at as usize];
    }
    black_box(at);
    t.elapsed().as_nanos() as f64 / loads as f64
}

/// The chase's successor of slot `i` modulo `mask + 1` (a power of two):
/// a = 1 (mod 4) and c odd give the LCG a full period.
fn lcg_next(i: u64, mask: u64) -> u64 {
    i.wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407)
        & mask
}

/// Words of a chase array of at least `bytes`.
pub fn chase_words(bytes: u64) -> usize {
    ((bytes / 8) as usize).next_power_of_two()
}

/// `ReplicaBatch::step_many` on one replica: ns per step, over at least
/// `min_secs` after a warm-up of one step per node.
pub fn step_ns(graph: &Graph, spec: KernelSpec, xi0: &[f64], seed: u64, min_secs: f64) -> f64 {
    let mut batch = ReplicaBatch::new(graph, spec, xi0, &[seed])
        .expect("the workload's spec already assembled on this graph");
    batch.step_many(graph.n() as u64);
    let chunk = 1u64 << 18;
    let (t, mut steps) = (Instant::now(), 0u64);
    while steps == 0 || t.elapsed().as_secs_f64() < min_secs {
        batch.step_many(chunk);
        steps += chunk;
    }
    black_box(batch.values());
    t.elapsed().as_nanos() as f64 / steps as f64
}

/// Bytes one step must touch at least: CSR row bounds, sampled neighbour
/// ids and values, and the updated value read and written. Node model:
/// `2*8 + k*(4+8) + 8 + 8`; edge model: tail and head ids, both values,
/// the write.
pub fn bytes_per_step(spec: KernelSpec) -> f64 {
    match spec {
        KernelSpec::Node(params) => (32 + 12 * params.k()) as f64,
        KernelSpec::Edge(_) => 32.0,
    }
}

/// Replays `epochs` churn epochs (`ChurnModel::apply` plus
/// `DynamicGraph::commit`, one `graph.churn_commit` span each) from
/// `seed`; returns the per-epoch times in seconds and the
/// (patched, rebuilt) commit counts.
pub fn churn_commits(
    graph: &Graph,
    model: &ChurnModel,
    seed: u64,
    epochs: u64,
    tracer: &Tracer,
    parent: SpanId,
) -> (Vec<f64>, u64, u64) {
    let mut dynamic = DynamicGraph::new(graph.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut secs = Vec::new();
    for epoch in 0..epochs {
        let t = Instant::now();
        tracer.time("graph.churn_commit", parent, 0, || {
            model
                .apply(&mut dynamic, epoch, &mut rng)
                .expect("the churn model applies to the workload's graph");
            dynamic.commit();
        });
        secs.push(t.elapsed().as_secs_f64());
    }
    (secs, dynamic.patches(), dynamic.rebuilds())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_visits_every_slot() {
        let words = 1 << 12;
        let mask = words as u64 - 1;
        let mut seen = vec![false; words];
        let mut at = 0u64;
        for _ in 0..words {
            assert!(!seen[at as usize]);
            seen[at as usize] = true;
            at = lcg_next(at, mask);
        }
        assert_eq!(at, 0);
    }

    #[test]
    fn probe_arrays_exceed_the_cache() {
        assert_eq!(probe_bytes(Some(105 << 20)), 420 << 20);
        assert!(chase_words(420 << 20) * 8 >= 420 << 20);
    }
}
