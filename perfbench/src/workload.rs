//! The workloads: their `.scn` text, generated from a seed, and the
//! checks their outputs must pass. `BENCHMARK.json` gates
//! [`Workload::GATED`]; the other two run the same way on request but
//! did not hold a bound from run to run on a shared host (see the
//! README).
//!
//! Every graph here is regular (hypercube, torus; edge swaps keep
//! degrees), so the stationary distribution is uniform and the paper's
//! martingale (Berenbrink et al., arXiv:2211.17125) is the plain average
//! for both processes: `E[F] = avg xi(0)`.

use std::collections::BTreeMap;

use od_sim::TrialResult;

use crate::stats::mean_and_se;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// NodeModel k=2 on the 14-cube, a 3-cell eps sweep under common
    /// random numbers: node kernel plus streaming-converge driver.
    SweepCrn,
    /// NodeModel k=1, fixed horizon, on a 2048x2048 torus (larger than
    /// the last-level cache): a latency-bound kernel on one thread.
    LargeN,
    /// EdgeModel with edge-swap churn on a 128x128 torus: the dynamic
    /// driver and `DynamicGraph` commits.
    ChurnConverge,
    /// The daemon under a closed loop of 2 connections, 80% cache hits.
    ServeMix,
}

/// Standard errors a cell mean of `F` may sit from the initial average.
pub const F_MEAN_Z: f64 = 5.0;

/// Failure probability allowed to the Azuma bound on the drift of the
/// average over a fixed horizon.
pub const AZUMA_DELTA: f64 = 1e-9;

/// Nodes of the `serve_mix` graph (`hypercube dim=10`).
pub const SERVE_MIX_N: usize = 1 << 10;

/// Replicas of each `serve_mix` cell.
pub const SERVE_MIX_REPLICAS: usize = 8;

/// Steps per replica of `large_n`.
pub const LARGE_N_STEPS: u64 = 1_000_000;

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::SweepCrn,
        Workload::LargeN,
        Workload::ChurnConverge,
        Workload::ServeMix,
    ];

    /// The workloads `BENCHMARK.json` lists, in its order.
    pub const GATED: [Workload; 2] = [Workload::ChurnConverge, Workload::ServeMix];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCrn => "sweep_crn",
            Workload::LargeN => "large_n",
            Workload::ChurnConverge => "churn_converge",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's `.scn` text for request seed `seed`. For
    /// `serve_mix` this is one of the small 2-cell sweeps it submits.
    pub fn text(self, seed: u64) -> String {
        match self {
            Workload::SweepCrn => format!(
                "scenario sweep_crn\n\
                 model node alpha=0.5 k=2 lazy=false\n\
                 graph hypercube dim=14\n\
                 init pm_one\n\
                 replicas 4\n\
                 seed {seed}\n\
                 stop converge eps=0.0001 rule=exact potential=pi budget=200000000\n\
                 sweep eps = 0.0001,0.000001,0.00000001\n"
            ),
            Workload::LargeN => format!(
                "scenario large_n\n\
                 model node alpha=0.5 k=1 lazy=false\n\
                 graph torus rows=2048 cols=2048\n\
                 init pm_one\n\
                 replicas 4\n\
                 seed {seed}\n\
                 stop steps count={LARGE_N_STEPS}\n"
            ),
            Workload::ChurnConverge => format!(
                "scenario churn_converge\n\
                 model edge alpha=0.5 lazy=false\n\
                 graph torus rows=128 cols=128\n\
                 init pm_one\n\
                 churn edge_swap swaps=512 epoch=16384 seed={}\n\
                 replicas 64\n\
                 seed {seed}\n\
                 stop converge eps=0.000001 rule=block potential=pi budget=1048576000\n",
                seed ^ 0x5EED_C4A7
            ),
            Workload::ServeMix => format!(
                "scenario serve_mix\n\
                 model node alpha=0.5 k=2 lazy=false\n\
                 graph hypercube dim=10\n\
                 init pm_one\n\
                 replicas {SERVE_MIX_REPLICAS}\n\
                 seed {seed}\n\
                 stop converge eps=0.0001 rule=exact potential=pi budget=100000000\n\
                 sweep eps = 0.01,0.0001\n"
            ),
        }
    }
}

/// What a cell's trials must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Check {
    /// Every trial converged with `F` inside the initial range, and the
    /// mean `F` of each cell, pooled over the run's requests, is within
    /// [`F_MEAN_Z`] standard errors of the initial average.
    Converged,
    /// Fixed horizon of `steps`: each trial's average stays within the
    /// Azuma bound of the initial one and its potential fell.
    Horizon {
        /// The horizon.
        steps: u64,
        /// The model's self-weight.
        alpha: f64,
    },
}

/// Initial average and potential (uniform stationary weights) and range.
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    /// `avg xi(0)`.
    pub mean: f64,
    /// `phi(xi(0))`.
    pub phi: f64,
    /// Smallest initial value.
    pub lo: f64,
    /// Largest initial value.
    pub hi: f64,
    /// Number of nodes.
    pub n: usize,
}

impl Moments {
    /// The moments of `xi0`.
    pub fn of(xi0: &[f64]) -> Moments {
        let n = xi0.len() as f64;
        let mean = xi0.iter().sum::<f64>() / n;
        Moments {
            mean,
            phi: xi0.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n,
            lo: xi0.iter().copied().fold(f64::INFINITY, f64::min),
            hi: xi0.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xi0.len(),
        }
    }
}

/// Azuma-Hoeffding radius for the average after `steps` steps: each step
/// moves the sum by at most `(1 - alpha) * range`, so the average moves
/// by at most `c = (1 - alpha) * range / n`, and
/// `P(|M(T) - M(0)| >= c * sqrt(2 T ln(2 / delta))) <= delta`.
pub fn azuma_radius(steps: u64, alpha: f64, range: f64, n: usize) -> f64 {
    let c = (1.0 - alpha) * range / n as f64;
    c * (2.0 * steps as f64 * (2.0 / AZUMA_DELTA).ln()).sqrt()
}

/// Output checks of one run. Every trial is one checked operation; so
/// is each cell's pooled mean, checked by [`Checker::finish`] — pooling
/// over the run's requests keeps the normal approximation behind
/// [`F_MEAN_Z`] sound where one request has only a few trials.
#[derive(Debug)]
pub struct Checker {
    check: Check,
    /// Per cell index: the initial average and the pooled estimates.
    pooled: BTreeMap<usize, (f64, Vec<f64>)>,
    /// Checked operations.
    pub attempted: u64,
    /// Failed operations, described.
    pub failures: Vec<String>,
}

impl Checker {
    /// A checker for `check`.
    pub fn new(check: Check) -> Checker {
        Checker {
            check,
            pooled: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        }
    }

    /// Checks the trials of cell `cell` started from `m`.
    pub fn cell(&mut self, cell: usize, m: &Moments, trials: &[TrialResult]) {
        for (i, t) in trials.iter().enumerate() {
            self.attempted += 1;
            let verdict = match self.check {
                Check::Converged if !t.converged => Err("did not converge".to_string()),
                Check::Converged if !(m.lo..=m.hi).contains(&t.estimate) => Err(format!(
                    "F = {} is outside the initial range [{}, {}]",
                    t.estimate, m.lo, m.hi
                )),
                Check::Converged => Ok(()),
                Check::Horizon { steps, alpha } => {
                    let radius = azuma_radius(steps, alpha, m.hi - m.lo, m.n);
                    if t.steps != steps || (t.estimate - m.mean).abs() > radius {
                        Err(format!(
                            "M(T) = {} after {} steps, outside M(0) = {} +- {radius}",
                            t.estimate, t.steps, m.mean
                        ))
                    } else if t.potential.partial_cmp(&m.phi) != Some(std::cmp::Ordering::Less) {
                        Err(format!(
                            "phi(T) = {} is not below phi(0) = {}",
                            t.potential, m.phi
                        ))
                    } else {
                        Ok(())
                    }
                }
            };
            if let Err(e) = verdict {
                self.failures.push(format!("cell {cell} trial {i}: {e}"));
            }
        }
        if matches!(self.check, Check::Converged) {
            let entry = self.pooled.entry(cell).or_insert((m.mean, Vec::new()));
            entry.1.extend(trials.iter().map(|t| t.estimate));
        }
    }

    /// Checks each cell's pooled mean of `F` against the initial average.
    pub fn finish(&mut self) {
        for (cell, (m0, estimates)) in std::mem::take(&mut self.pooled) {
            self.attempted += 1;
            let (mean, se) = mean_and_se(&estimates);
            if (mean - m0).abs() > F_MEAN_Z * se.max(1e-12) {
                self.failures.push(format!(
                    "cell {cell}: mean F = {mean} over {} trials is more than {F_MEAN_Z} \
                     standard errors ({se}) from avg xi(0) = {m0}",
                    estimates.len()
                ));
            }
        }
    }
}

/// FNV-1a over each trial's (steps, estimate bits), little-endian.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds in one trial.
    pub fn add(&mut self, steps: u64, estimate: f64) {
        for byte in steps
            .to_le_bytes()
            .into_iter()
            .chain(estimate.to_bits().to_le_bytes())
        {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_sim::SweepSpec;

    fn trial(steps: u64, estimate: f64, potential: f64) -> TrialResult {
        TrialResult {
            steps,
            converged: true,
            potential,
            estimate,
            winner: None,
            mutations: 0,
        }
    }

    #[test]
    fn benchmark_json_lists_the_gated_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let workloads = json
            .split_once("\"workloads\"")
            .and_then(|(_, rest)| rest.split_once("\"end_to_end\""))
            .expect("a workloads section")
            .0;
        let listed: Vec<&str> = workloads
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|entry| entry.split_once('"').map(|(name, _)| name))
            .collect();
        assert_eq!(listed, Workload::GATED.map(Workload::name));
    }

    #[test]
    fn every_workload_text_parses() {
        for w in Workload::ALL {
            let sweep = SweepSpec::parse(&w.text(42)).expect("workload text parses");
            sweep.validate().expect("workload text is valid");
            if w == Workload::ServeMix {
                let plan = od_sim::SweepPlan::new(&sweep).expect("plan");
                assert_eq!(plan.build_graph(0).expect("graph").n(), SERVE_MIX_N);
                assert_eq!(sweep.base.replicas, SERVE_MIX_REPLICAS);
            }
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
    }

    fn run_checks(check: Check, xi0: &[f64], cells: &[Vec<TrialResult>]) -> Checker {
        let mut checker = Checker::new(check);
        for trials in cells {
            checker.cell(0, &Moments::of(xi0), trials);
        }
        checker.finish();
        checker
    }

    #[test]
    fn converged_check_pools_the_mean_over_requests() {
        let xi0 = [1.0, -1.0];
        let ok: Vec<_> = [0.01, -0.01, 0.02, -0.02]
            .iter()
            .map(|&e| trial(10, e, 0.0))
            .collect();
        let c = run_checks(Check::Converged, &xi0, &[ok.clone(), ok.clone()]);
        assert_eq!((c.attempted, c.failures.len()), (9, 0));
        let biased: Vec<_> = [0.5, 0.51, 0.49, 0.5]
            .iter()
            .map(|&e| trial(10, e, 0.0))
            .collect();
        let c = run_checks(Check::Converged, &xi0, &[biased.clone(), biased]);
        assert_eq!((c.attempted, c.failures.len()), (9, 1));
        let mut bad = ok.clone();
        bad[1].converged = false;
        bad[2].estimate = 1.5;
        let c = run_checks(Check::Converged, &xi0, &[bad]);
        assert_eq!((c.attempted, c.failures.len()), (5, 2));
    }

    #[test]
    fn horizon_check_bounds_drift_and_requires_decay() {
        let xi0: Vec<f64> = (0..1000)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let check = Check::Horizon {
            steps: 100,
            alpha: 0.5,
        };
        let r = azuma_radius(100, 0.5, 2.0, 1000);
        let fails = |t: TrialResult| run_checks(check, &xi0, &[vec![t]]).failures.len();
        assert_eq!(fails(trial(100, 0.9 * r, 0.5)), 0);
        assert_eq!(fails(trial(100, 1.1 * r, 0.5)), 1);
        assert_eq!(fails(trial(100, 0.0, 1.0)), 1);
        assert_eq!(fails(trial(99, 0.0, 0.5)), 1);
    }

    #[test]
    fn digest_depends_on_steps_and_bits() {
        let mut a = Digest::default();
        a.add(5, 0.25);
        let mut b = Digest::default();
        b.add(5, 0.25);
        assert_eq!(a.0, b.0);
        b.add(0, 0.0);
        assert_ne!(a.0, b.0);
        let mut c = Digest::default();
        c.add(5, -0.25);
        assert_ne!(a.0, c.0);
    }
}
