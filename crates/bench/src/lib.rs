//! Shared fixtures for the Criterion benchmarks.
//!
//! Bench groups map to the experiment IDs of `run_experiments --list`
//! (README.md, § Experiments; targets in § Benchmarks):
//!
//! | bench target        | experiments covered            |
//! |---------------------|--------------------------------|
//! | `bench_step`        | L41, PB1, PD1, EQUIV (step kernels) |
//! | `bench_batch`       | batched `StepKernel`/`ReplicaBatch` at n up to 10^6 |
//! | `bench_convergence` | T22-CONV, T22-K, T24-CONV, PB2, CMP-VOTER |
//! | `bench_converge`    | batched convergence engine (`run_until_converged` with retirement) vs sequential scalar runs, n up to 10^6, R up to 64 |
//! | `bench_variance`    | T22-VAR, T24-VAR, P58, CE2 (per-trial workload) |
//! | `bench_qchain`      | L57 (closed form, balance, power iteration) |
//! | `bench_duality`     | FIG1, FIG4, DUAL (record + reversed replay) |
//! | `bench_spectral`    | spectral substrate behind all convergence predictions |
//! | `bench_runtime`     | RUNTIME (message-passing overhead) |
//! | `bench_baselines`   | CMP-BASE (baseline step kernels) |

use od_graph::{generators, Graph};

/// Standard benchmark graph set: one representative per family used in the
/// experiments.
pub fn bench_graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("cycle64", generators::cycle(64).unwrap()),
        ("torus8x8", generators::torus(8, 8).unwrap()),
        ("hypercube6", generators::hypercube(6).unwrap()),
        ("complete64", generators::complete(64).unwrap()),
    ]
}

/// Balanced ±1 initial values.
pub fn pm_one(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect()
}
