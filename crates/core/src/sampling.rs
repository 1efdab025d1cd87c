//! Neighbour sampling shared by the scalar [`NodeModel`] and the batched
//! [`StepKernel`] / [`ReplicaBatch`] paths.
//!
//! The batch-equivalence suite proves the fast path bit-identical to the
//! scalar one under seeded replay. That guarantee holds because both paths
//! draw from the RNG through *this* function — same regime dispatch, same
//! draw count, same order — so the two can never diverge silently.
//!
//! [`NodeModel`]: crate::NodeModel
//! [`StepKernel`]: crate::StepKernel
//! [`ReplicaBatch`]: crate::ReplicaBatch

use od_graph::NodeId;
use rand::{Rng, RngCore};

/// Samples `k` distinct elements of `neighbors` uniformly without
/// replacement into `sample` (cleared first). `perm` is scratch for the
/// dense regime; both buffers only grow up to `max(k, d)`, so steady-state
/// calls are allocation-free once the buffers have warmed up.
///
/// Regimes (chosen by `k` against the degree `d`, in this order):
/// * `k == d` — copy the whole list, no randomness;
/// * `k == 1` — a single uniform index draw;
/// * `3k <= d` — rejection sampling, expected `O(k)` draws;
/// * otherwise — partial Fisher–Yates over an index permutation,
///   exactly `k` draws.
///
/// # Panics
///
/// Debug-asserts `k <= d`; callers validate `k <= d_min` at construction.
#[inline]
pub(crate) fn sample_k_neighbors<R: RngCore + ?Sized>(
    neighbors: &[NodeId],
    k: usize,
    sample: &mut Vec<NodeId>,
    perm: &mut Vec<u32>,
    rng: &mut R,
) {
    sample.clear();
    push_k_neighbors(neighbors, k, sample, perm, rng);
}

/// [`sample_k_neighbors`] without the clear: appends the `k` sampled
/// neighbours behind whatever `sample` already holds, with the same regime
/// dispatch and the same RNG draws (the rejection regime's duplicate check
/// only looks at the appended tail). The schedule pass of the kernels
/// lays a whole block's samples out back to back this way.
#[inline]
pub(crate) fn push_k_neighbors<R: RngCore + ?Sized>(
    neighbors: &[NodeId],
    k: usize,
    sample: &mut Vec<NodeId>,
    perm: &mut Vec<u32>,
    rng: &mut R,
) {
    let d = neighbors.len();
    let start = sample.len();
    debug_assert!(k <= d);
    if k == d {
        sample.extend_from_slice(neighbors);
    } else if k == 1 {
        sample.push(neighbors[rng.gen_range(0..d)]);
    } else if 3 * k <= d {
        // Sparse case: rejection sampling; expected O(k) candidate
        // draws, duplicate check linear in k (k is small here).
        while sample.len() - start < k {
            let candidate = neighbors[rng.gen_range(0..d)];
            if !sample[start..].contains(&candidate) {
                sample.push(candidate);
            }
        }
    } else {
        // Dense case: partial Fisher-Yates over an index permutation.
        perm.clear();
        perm.extend(0..d as u32);
        for i in 0..k {
            let j = rng.gen_range(i..d);
            perm.swap(i, j);
            sample.push(neighbors[perm[i] as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn draws_are_identical_through_dyn_and_concrete_rngs() {
        // The scalar path calls this through `&mut dyn RngCore`, the kernel
        // through a concrete `StdRng`; the streams must coincide.
        let neighbors: Vec<NodeId> = (0..12).collect();
        for k in [1usize, 2, 4, 8, 12] {
            let mut concrete = StdRng::seed_from_u64(99);
            let mut boxed = StdRng::seed_from_u64(99);
            let dynamic: &mut dyn RngCore = &mut boxed;
            let (mut s1, mut p1) = (Vec::new(), Vec::new());
            let (mut s2, mut p2) = (Vec::new(), Vec::new());
            for _ in 0..50 {
                sample_k_neighbors(&neighbors, k, &mut s1, &mut p1, &mut concrete);
                sample_k_neighbors(&neighbors, k, &mut s2, &mut p2, dynamic);
                assert_eq!(s1, s2, "k={k}");
            }
        }
    }

    #[test]
    fn samples_are_distinct_and_valid() {
        let neighbors: Vec<NodeId> = (0..20).map(|i| i * 3).collect();
        let mut rng = StdRng::seed_from_u64(4);
        let (mut sample, mut perm) = (Vec::new(), Vec::new());
        for k in [1usize, 3, 6, 15, 20] {
            for _ in 0..40 {
                sample_k_neighbors(&neighbors, k, &mut sample, &mut perm, &mut rng);
                assert_eq!(sample.len(), k);
                let mut sorted = sample.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), k, "duplicates at k={k}");
                assert!(sorted.iter().all(|v| neighbors.contains(v)));
            }
        }
    }
}
