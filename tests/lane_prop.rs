//! Property suite for the lane tier's storage layout (`tier lane`):
//! across random instances from **all 17** `od-graph` generator families,
//!
//! * the lane-major ↔ replica-major transpositions are a bijection pair
//!   (`to_replica_major ∘ to_lane_major = id` and vice versa), with the
//!   documented index mapping `lane[u*R + r] = replica[r*n + u]`;
//! * [`LaneReplicaBatch`] round-trips through that layout: its strided
//!   `replica_values` gather agrees with transposing the raw lane-major
//!   storage, before and after stepping;
//! * constant initial values stay constant across lanes at `t = 0` (the
//!   broadcast fill is the transposition of `R` stacked copies).
//!
//! The graph-instance strategy mirrors `tests/dynamic_prop.rs` so every
//! generator family is exercised.

use opinion_dynamics::core::{to_lane_major, to_replica_major, LaneReplicaBatch, NodeModelParams};
use opinion_dynamics::graph::{generators, Graph};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of graph families covered; kept in sync with [`build_graph`].
const FAMILIES: usize = 17;

/// Builds an instance of family `family` (same mapping as
/// `tests/dynamic_prop.rs`). Every returned graph is connected, `n >= 2`.
fn build_graph(family: usize, size: usize, graph_seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(graph_seed);
    match family {
        0 => generators::cycle(size).unwrap(),
        1 => generators::path(size).unwrap(),
        2 => generators::complete(size).unwrap(),
        3 => generators::star(size).unwrap(),
        4 => generators::complete_bipartite(size / 2, size / 2 + 1).unwrap(),
        5 => generators::grid2d(size / 2, 3, false).unwrap(),
        6 => generators::torus(3 + size % 3, 3 + size / 8).unwrap(),
        7 => generators::hypercube(2 + size % 4).unwrap(),
        8 => generators::binary_tree(2 + size % 3).unwrap(),
        9 => generators::petersen(),
        10 => generators::barbell(3 + size / 4).unwrap(),
        11 => generators::lollipop(3 + size / 4, 1 + size / 3).unwrap(),
        12 => generators::gnp_connected(size, 0.5, &mut rng).unwrap(),
        13 => {
            let m = (size + 3).min(size * (size - 1) / 2);
            generators::gnm_connected(size, m, &mut rng).unwrap()
        }
        14 => {
            let n = size + size % 2; // n*d even
            generators::random_regular(n.max(6), 4, &mut rng).unwrap()
        }
        15 => generators::watts_strogatz(size.max(6), 2, 0.2, &mut rng).unwrap(),
        16 => generators::barabasi_albert(size, 2, &mut rng).unwrap(),
        _ => unreachable!("family index out of range"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(102))]

    /// The two transpositions invert each other and realise the
    /// documented index mapping, for every generator family's size.
    #[test]
    fn transposition_is_a_bijection(
        family in 0usize..FAMILIES,
        size in 6usize..28,
        lanes in 1usize..7,
        graph_seed in 0u64..u64::MAX,
        fill_seed in 0u64..u64::MAX,
    ) {
        let graph = build_graph(family, size, graph_seed);
        let n = graph.n();
        let mut rng = StdRng::seed_from_u64(fill_seed);
        let replica_major: Vec<f64> =
            (0..n * lanes).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let lane_major = to_lane_major(&replica_major, n, lanes);
        for r in 0..lanes {
            for u in 0..n {
                prop_assert_eq!(
                    lane_major[u * lanes + r].to_bits(),
                    replica_major[r * n + u].to_bits(),
                    "index map broke at (u={}, r={})", u, r
                );
            }
        }
        prop_assert_eq!(&to_replica_major(&lane_major, n, lanes), &replica_major);
        prop_assert_eq!(
            to_lane_major(&to_replica_major(&lane_major, n, lanes), n, lanes),
            lane_major
        );
    }

    /// `LaneReplicaBatch` keeps its raw storage and its strided gather in
    /// agreement through construction and stepping, on every family.
    #[test]
    fn lane_batch_storage_matches_gather(
        family in 0usize..FAMILIES,
        size in 6usize..24,
        lanes in 1usize..5,
        graph_seed in 0u64..u64::MAX,
        seed in 0u64..u64::MAX,
    ) {
        let graph = build_graph(family, size, graph_seed);
        let n = graph.n();
        let xi0: Vec<f64> = (0..n).map(|u| u as f64 / n as f64).collect();
        let params = NodeModelParams::new(0.5, 1).unwrap();
        let seeds: Vec<u64> = (0..lanes as u64).map(|j| seed ^ j).collect();
        let mut batch = LaneReplicaBatch::new(&graph, params, &xi0, &seeds).unwrap();
        // t = 0: every lane is the broadcast initial state.
        for r in 0..lanes {
            prop_assert_eq!(&batch.replica_values(r), &xi0);
        }
        batch.step_many(5 * n as u64);
        let gathered = to_replica_major(batch.values(), n, lanes);
        for r in 0..lanes {
            prop_assert_eq!(
                &batch.replica_values(r)[..],
                &gathered[r * n..(r + 1) * n],
                "strided gather diverged from the transposed storage (lane {})", r
            );
        }
    }
}
