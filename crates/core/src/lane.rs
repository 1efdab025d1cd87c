//! The **lane-major SIMD kernel tier** (`tier lane`) for the NodeModel.
//!
//! The exact batched engines ([`crate::ReplicaBatch`],
//! [`crate::DynamicReplicaBatch`]) store replicas **replica-major**
//! (`values[r*n + u]`) and advance them one after another, each from its
//! own sequential `StdRng` — the layout and RNG that make bit-exact
//! replay possible, and also the two scalar bottlenecks of the hot loop:
//! every step is one isolated random access into an `n`-sized vector, and
//! every draw is a loop-carried 256-bit state update.
//!
//! This module restructures the NodeModel (Definition 2.1) for
//! auto-vectorisation:
//!
//! * **Lane-major values** — `values[u*lanes + j]` puts the `R` replicas
//!   of node `u` adjacent in memory, so one CSR row fetch feeds all `R`
//!   lanes of the neighbour mean with contiguous loads, and the per-step
//!   update is a short dense loop over `lanes` that the compiler turns
//!   into vector arithmetic (`unsafe_code` is forbidden workspace-wide —
//!   all SIMD here is auto-vectorised safe Rust).
//! * **Counter-based lane RNG** — [`LaneRngs`] keeps one SplitMix64
//!   counter key per lane ([`CounterRng`]); a row of `R` draws is the
//!   pure expression `mix64(key_j + ctr·γ)` with no loop-carried
//!   dependency across lanes.
//! * **Shared step schedule** — the node `u` each step updates is drawn
//!   once from a dedicated schedule stream and shared by every lane; the
//!   per-lane randomness (neighbour choices, lazy coins) stays
//!   independent.
//!
//! There is no EdgeModel lane kernel: its gather is two scattered rows
//! per step rather than one dense lane row, and it measured slower than
//! the exact edge kernel at every size benched (README § Kernel tiers),
//! so the scenario dispatcher runs edge specs on the exact engines
//! whatever their `tier`.
//!
//! # Fast, not bit-equal
//!
//! Sharing the schedule is what buys the speed-up, and it is exactly
//! what the tier gives up: each lane's **marginal** law is the process
//! law of Definition 2.1 — the shared node is drawn uniformly, and
//! conditional on it every lane samples its own neighbours and coins
//! independently, so (node, neighbours) has the model's joint
//! distribution lane by lane — but lanes are **correlated with each
//! other** (they visit the same nodes in the same order). Per-replica
//! statistics (stopping times, `F` estimates) are therefore drawn from
//! the correct distribution, while cross-replica covariances are not,
//! and nothing here is bit-comparable with the exact tier. In the
//! extreme, a non-lazy NodeModel with `k = d` on a regular graph has no
//! per-lane randomness at all — the update is a deterministic function
//! of the shared node — so every lane is the *same* trajectory and the
//! batch carries one effective replica (use the exact tier when that
//! cell's replica dispersion matters). The
//! statistical-equivalence suite (`tests/lane_equivalence.rs`) pins
//! matched moments of stopping times and `F` estimates against the
//! bit-exact path over the 5-graph × model matrix; the exact tier's
//! bit-identical gates are untouched by this module.
//!
//! # One frozen-lane loop
//!
//! [`LaneReplicaBatch`] and [`DynamicLaneReplicaBatch`] are thin owners
//! of one private lane core (values, schedule, lane RNGs, scratch, time)
//! around the topology they step over. A fixed graph is the
//! time-invariant case of the churned iteration, so both convergence
//! runs are the same loop, scheduled by the exact driver's `Budget`
//! over its `Topology`: check every lane, step one block, then the
//! topology hook — nothing on a static graph, one churn epoch under
//! churn, with `φ` evaluated on the post-churn graph.
//!
//! Converged lanes are **frozen, not retired**: their report (stopping
//! time, `φ`, `F` estimate) is recorded at the first boundary crossing,
//! but the lane keeps stepping with the rest of the row (lane-major rows
//! interleave replicas, so retirement would require a transposition).
//! Total convergence work is `R · max_r T_r` rather than the exact
//! engine's compacted `Σ_r T_r` — the tier trades that for a much
//! smaller constant per step.

use crate::driver::{Budget, Topology};
use crate::dynamic::Environment;
use crate::engine::{validate_epsilon, ConvergenceReport};
use crate::error::CoreError;
use crate::kernel::{validate_values, KernelSpec};
use crate::params::{Laziness, NodeModelParams};
use crate::sampling::sample_k_neighbors;
use od_graph::{ChurnModel, DynamicGraph, Graph, NodeId};
use rand::rngs::CounterRng;
use rand::RngCore;
use std::ops::Range;

/// Salt folded with the replica seeds into the shared schedule key, so
/// the schedule stream never collides with a lane stream derived from
/// the same seeds.
const SCHEDULE_SALT: u64 = 0x5EED_0D15_7AC7_1CA1;

/// Multiply-shift of 64 random bits onto `[0, span)` — the same mapping
/// `rand`'s integer `gen_range` uses, inlined here so the lane loops stay
/// free of trait indirection.
#[inline]
fn mul_shift(x: u64, span: usize) -> usize {
    (((x as u128) * (span as u128)) >> 64) as usize
}

/// The lazy coin on a raw draw: `gen_bool(0.5)` is `gen_range(0..2) < 1`,
/// i.e. the top bit clear.
#[inline]
fn coin_skip(x: u64) -> bool {
    x < (1u64 << 63)
}

/// Structure-of-arrays counter RNG: one [`CounterRng`] key per lane and a
/// **shared** counter, so a row of `lanes` draws is a dependency-free
/// (vectorisable) map over the key vector.
#[derive(Debug, Clone)]
pub struct LaneRngs {
    keys: Vec<u64>,
    ctr: u64,
}

impl LaneRngs {
    /// One decorrelated stream per seed (lane `j` uses
    /// `CounterRng::derive_key(seeds[j], 0)`).
    pub fn new(seeds: &[u64]) -> LaneRngs {
        LaneRngs {
            keys: seeds
                .iter()
                .map(|&s| CounterRng::derive_key(s, 0))
                .collect(),
            ctr: 0,
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.keys.len()
    }

    /// Fills `out[j]` with the next draw of lane `j` and advances the
    /// shared counter once. `out.len()` must equal [`LaneRngs::lanes`].
    #[inline]
    pub fn next_row(&mut self, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.keys.len());
        let ctr = self.ctr;
        for (o, &key) in out.iter_mut().zip(&self.keys) {
            *o = CounterRng::at(key, ctr);
        }
        self.ctr = self.ctr.wrapping_add(1);
    }

    /// A fresh sequential substream for lane `lane` at the current
    /// counter — used by the variable-draw general-`k` sampling fallback,
    /// where one step consumes an unpredictable number of values.
    #[inline]
    fn step_substream(&self, lane: usize) -> CounterRng {
        CounterRng::from_key(CounterRng::derive_key(self.keys[lane], self.ctr))
    }

    /// Advances the shared counter without drawing (closes the substream
    /// window opened by [`LaneRngs::step_substream`]).
    #[inline]
    fn advance(&mut self) {
        self.ctr = self.ctr.wrapping_add(1);
    }
}

/// Transposes a replica-major `R × n` buffer (replica `r` at
/// `buf[r*n..(r+1)*n]`) into the lane-major layout (`out[u*lanes + r]`).
///
/// # Panics
///
/// Panics if `replica_major.len() != n * lanes`.
pub fn to_lane_major(replica_major: &[f64], n: usize, lanes: usize) -> Vec<f64> {
    assert_eq!(replica_major.len(), n * lanes, "buffer is not R x n");
    let mut out = vec![0.0; n * lanes];
    for r in 0..lanes {
        for u in 0..n {
            out[u * lanes + r] = replica_major[r * n + u];
        }
    }
    out
}

/// Inverse of [`to_lane_major`]: lane-major back to replica-major. The
/// two transpositions are a bijection pair (`to_replica_major ∘
/// to_lane_major = id`, property-gated in `tests/lane_prop.rs`).
///
/// # Panics
///
/// Panics if `lane_major.len() != n * lanes`.
pub fn to_replica_major(lane_major: &[f64], n: usize, lanes: usize) -> Vec<f64> {
    assert_eq!(lane_major.len(), n * lanes, "buffer is not n x R");
    let mut out = vec![0.0; n * lanes];
    for u in 0..n {
        for r in 0..lanes {
            out[r * n + u] = lane_major[u * lanes + r];
        }
    }
    out
}

/// Reusable per-batch scratch: raw draw rows, lazy-coin rows, the
/// full-row mean accumulator and the general-`k` sampling buffers.
#[derive(Debug, Clone)]
struct LaneScratch {
    raw: Vec<u64>,
    coins: Vec<u64>,
    acc: Vec<f64>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
}

impl LaneScratch {
    fn new(params: NodeModelParams, graph: &Graph, lanes: usize) -> LaneScratch {
        let (sample, perm) = KernelSpec::Node(params).scratch(graph);
        LaneScratch {
            raw: vec![0; lanes],
            coins: vec![0; lanes],
            acc: vec![0.0; lanes],
            sample,
            perm,
        }
    }
}

/// The lane-major inner loop: advances all `lanes` replicas by `steps`
/// shared-schedule steps. The three arms mirror [`sample_k_neighbors`]'s
/// regimes: `k = d` needs no neighbour draws at all (full-row mean — the
/// purest SIMD path), `k = 1` is one draw per lane, and `1 < k < d`
/// falls back to the exact sampler on a per-lane counter substream.
///
/// Common widths are dispatched to the monomorphised
/// [`lane_steps_fixed`] loop (lane rows become `[f64; L]` arrays, the
/// accumulator lives in registers and every inner lane loop unrolls into
/// straight-line SIMD); other widths take the dynamic-width loop. Both
/// paths draw the same streams in the same order and add in the same
/// order, so they are bit-identical (unit-gated below).
#[allow(clippy::too_many_arguments)] // one hot loop, mirrors run_steps
fn run_lane_steps(
    graph: &Graph,
    params: NodeModelParams,
    lanes: usize,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    match lanes {
        2 => lane_steps_fixed::<2>(graph, params, values, schedule, rngs, scratch, steps),
        4 => lane_steps_fixed::<4>(graph, params, values, schedule, rngs, scratch, steps),
        8 => lane_steps_fixed::<8>(graph, params, values, schedule, rngs, scratch, steps),
        16 => lane_steps_fixed::<16>(graph, params, values, schedule, rngs, scratch, steps),
        32 => lane_steps_fixed::<32>(graph, params, values, schedule, rngs, scratch, steps),
        _ => lane_steps_dyn(graph, params, lanes, values, schedule, rngs, scratch, steps),
    }
}

/// Monomorphised hot loop for the common lane widths — this is where the
/// lane tier's step throughput comes from. With `L` a compile-time
/// constant the per-node lane row is a `[f64; L]`, so the full-row-mean
/// accumulator and the blend are branch-free unrolled vector code with no
/// bounds checks inside the lane loops.
#[allow(clippy::needless_range_loop)]
// j indexes two arrays in lockstep
// Invariant-backed: every chunk is exactly L long by construction.
#[allow(clippy::unwrap_used)]
fn lane_steps_fixed<const L: usize>(
    graph: &Graph,
    params: NodeModelParams,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    let n = graph.n();
    let alpha = params.alpha();
    let blend = 1.0 - alpha;
    let k = params.k();
    let lazy = params.laziness() == Laziness::Lazy;
    for _ in 0..steps {
        let u = mul_shift(schedule.next_u64(), n);
        let row = graph.neighbors(u as NodeId);
        let d = row.len();
        let base = u * L;
        let mut coins = [0u64; L];
        if lazy {
            rngs.next_row(&mut coins);
        }
        if k == d {
            let mut acc = [0.0f64; L];
            for &v in row {
                let vrow: &[f64; L] = (&values[v as usize * L..v as usize * L + L])
                    .try_into()
                    .unwrap();
                for j in 0..L {
                    acc[j] += vrow[j];
                }
            }
            let inv_d = 1.0 / d as f64;
            let target: &mut [f64; L] = (&mut values[base..base + L]).try_into().unwrap();
            for j in 0..L {
                let old = target[j];
                let new = alpha * old + blend * (acc[j] * inv_d);
                target[j] = if lazy && coin_skip(coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else if k == 1 {
            let mut raw = [0u64; L];
            rngs.next_row(&mut raw);
            // Gather first into a register row so the L loads
            // issue independently, then blend in one pass.
            let mut picked = [0.0f64; L];
            for j in 0..L {
                let v = row[mul_shift(raw[j], d)] as usize;
                picked[j] = values[v * L + j];
            }
            let target: &mut [f64; L] = (&mut values[base..base + L]).try_into().unwrap();
            for j in 0..L {
                let old = target[j];
                let new = alpha * old + blend * picked[j];
                target[j] = if lazy && coin_skip(coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else {
            // General k: exact sampler per lane on a substream
            // (identical to the dynamic-width loop — nothing to
            // vectorise across lanes here).
            for j in 0..L {
                if lazy && coin_skip(coins[j]) {
                    continue;
                }
                let mut sub = rngs.step_substream(j);
                sample_k_neighbors(row, k, &mut scratch.sample, &mut scratch.perm, &mut sub);
                let mean = scratch
                    .sample
                    .iter()
                    .map(|&v| values[v as usize * L + j])
                    .sum::<f64>()
                    / scratch.sample.len() as f64;
                values[base + j] = alpha * values[base + j] + blend * mean;
            }
            rngs.advance();
        }
    }
}

/// Dynamic-width fallback for lane counts without a monomorphised loop.
#[allow(clippy::too_many_arguments)] // one hot loop, mirrors run_steps
fn lane_steps_dyn(
    graph: &Graph,
    params: NodeModelParams,
    lanes: usize,
    values: &mut [f64],
    schedule: &mut CounterRng,
    rngs: &mut LaneRngs,
    scratch: &mut LaneScratch,
    steps: u64,
) {
    let n = graph.n();
    let alpha = params.alpha();
    let blend = 1.0 - alpha;
    let k = params.k();
    let lazy = params.laziness() == Laziness::Lazy;
    for _ in 0..steps {
        let u = mul_shift(schedule.next_u64(), n);
        let row = graph.neighbors(u as NodeId);
        let d = row.len();
        let base = u * lanes;
        if lazy {
            rngs.next_row(&mut scratch.coins);
        }
        if k == d {
            // Full-row mean: every neighbour contributes one
            // contiguous lane row — no per-lane randomness.
            scratch.acc.fill(0.0);
            for &v in row {
                let vrow = v as usize * lanes;
                for j in 0..lanes {
                    scratch.acc[j] += values[vrow + j];
                }
            }
            let inv_d = 1.0 / d as f64;
            for j in 0..lanes {
                let old = values[base + j];
                let new = alpha * old + blend * (scratch.acc[j] * inv_d);
                values[base + j] = if lazy && coin_skip(scratch.coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else if k == 1 {
            rngs.next_row(&mut scratch.raw);
            for j in 0..lanes {
                let v = row[mul_shift(scratch.raw[j], d)] as usize;
                let old = values[base + j];
                let new = alpha * old + blend * values[v * lanes + j];
                values[base + j] = if lazy && coin_skip(scratch.coins[j]) {
                    old
                } else {
                    new
                };
            }
        } else {
            // General k: exact sampler per lane on a substream.
            for j in 0..lanes {
                if lazy && coin_skip(scratch.coins[j]) {
                    continue;
                }
                let mut sub = rngs.step_substream(j);
                sample_k_neighbors(row, k, &mut scratch.sample, &mut scratch.perm, &mut sub);
                let mean = scratch
                    .sample
                    .iter()
                    .map(|&v| values[v as usize * lanes + j])
                    .sum::<f64>()
                    / scratch.sample.len() as f64;
                values[base + j] = alpha * values[base + j] + blend * mean;
            }
            rngs.advance();
        }
    }
}

/// One lane-major sweep computing the `(φ, M)` (Eq. 3 potential and
/// π-weighted mean) of lanes `span` in `O(n·span.len())` with contiguous
/// lane-row loads; `mu` and `phi` hold one entry per lane of `span`.
/// Each lane's sums run in node order whatever the span, so a lane's
/// `(φ, M)` are the same bits alone or in the full sweep.
fn lane_potential_pi(
    graph: &Graph,
    lanes: usize,
    span: Range<usize>,
    values: &[f64],
    mu: &mut [f64],
    phi: &mut [f64],
) {
    let two_m = graph.directed_edge_count() as f64;
    let row = |u: usize| &values[u * lanes + span.start..u * lanes + span.end];
    mu.fill(0.0);
    for u in 0..graph.n() {
        let w = graph.degree(u as NodeId) as f64;
        for (m, &v) in mu.iter_mut().zip(row(u)) {
            *m += w * v;
        }
    }
    for m in mu.iter_mut() {
        *m /= two_m;
    }
    phi.fill(0.0);
    for u in 0..graph.n() {
        let w = graph.degree(u as NodeId) as f64 / two_m;
        for ((p, &m), &v) in phi.iter_mut().zip(&*mu).zip(row(u)) {
            let c = v - m;
            *p += w * c * c;
        }
    }
    for p in phi.iter_mut() {
        *p = p.max(0.0);
    }
}

/// Builds the shared schedule stream from the replica seeds: every lane
/// (and nothing else) contributes, so the schedule is a deterministic
/// function of the seed set.
fn schedule_stream(seeds: &[u64]) -> CounterRng {
    CounterRng::from_key(
        seeds
            .iter()
            .fold(SCHEDULE_SALT, |acc, &s| CounterRng::derive_key(acc, s)),
    )
}

/// The state both lane batches share, apart from the topology they step
/// over: lane-major values, the schedule and lane streams, scratch,
/// time, and each lane's mutation count at its last recorded report.
#[derive(Debug, Clone)]
struct LaneCore {
    params: NodeModelParams,
    n: usize,
    lanes: usize,
    /// Lane-major `n × lanes` storage: node `u`, lane `j` at
    /// `values[u*lanes + j]`.
    values: Vec<f64>,
    schedule: CounterRng,
    rngs: LaneRngs,
    scratch: LaneScratch,
    time: u64,
    /// Per lane: the topology's mutation count at the boundary where the
    /// lane last recorded its report (0 on a static graph).
    mutations: Vec<u64>,
}

impl LaneCore {
    /// `seeds.len()` lanes on `graph`, all starting from `xi0`.
    fn new(
        graph: &Graph,
        params: NodeModelParams,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<LaneCore, CoreError> {
        if graph.is_weighted() {
            return Err(CoreError::WeightedUnsupported { tier: "lane" });
        }
        validate_values(graph, xi0)?;
        KernelSpec::Node(params).validate(graph)?;
        let n = xi0.len();
        let lanes = seeds.len();
        let mut values = vec![0.0; n * lanes];
        for (u, &x) in xi0.iter().enumerate() {
            values[u * lanes..(u + 1) * lanes].fill(x);
        }
        Ok(LaneCore {
            params,
            n,
            lanes,
            values,
            schedule: schedule_stream(seeds),
            rngs: LaneRngs::new(seeds),
            scratch: LaneScratch::new(params, graph, lanes),
            time: 0,
            mutations: vec![0; lanes],
        })
    }

    /// Advances every lane by `steps` shared-schedule steps on `graph`.
    fn step(&mut self, graph: &Graph, steps: u64) {
        run_lane_steps(
            graph,
            self.params,
            self.lanes,
            &mut self.values,
            &mut self.schedule,
            &mut self.rngs,
            &mut self.scratch,
            steps,
        );
        self.time += steps;
    }

    /// The topology hook after a block: nothing on a static graph, one
    /// churn epoch of the shared environment otherwise.
    fn churn(&self, topology: &mut Topology<'_>) -> Result<u64, CoreError> {
        match topology {
            Topology::Static(_) => Ok(0),
            Topology::Churned(env) => Ok(env.advance(Some(KernelSpec::Node(self.params)))?.0),
        }
    }

    /// The one frozen-lane loop: check every live lane at the current
    /// boundary (recording its report and the topology's mutation
    /// count, freezing it once `φ ≤ ε`), stop when every lane is frozen
    /// or the budget is spent, else step one block and run the topology
    /// hook, so the next check sees the post-churn graph.
    fn converge(
        &mut self,
        topology: &mut Topology<'_>,
        budget: Budget,
        epsilon: f64,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        validate_epsilon(epsilon)?;
        let lanes = self.lanes;
        let mut reports = vec![ConvergenceReport::default(); lanes];
        if lanes == 0 {
            return Ok(reports);
        }
        let mut mu = vec![0.0; lanes];
        let mut phi = vec![0.0; lanes];
        let mut frozen = vec![false; lanes];
        let mut live = lanes;
        let (mut t_call, mut rounds) = (0u64, 0u64);
        loop {
            let graph = topology.graph();
            lane_potential_pi(graph, lanes, 0..lanes, &self.values, &mut mu, &mut phi);
            let mutations = match topology {
                Topology::Static(_) => 0,
                Topology::Churned(env) => env.mutations,
            };
            for j in 0..lanes {
                if frozen[j] {
                    continue;
                }
                let converged = phi[j] <= epsilon;
                reports[j] = ConvergenceReport {
                    steps: t_call,
                    converged,
                    potential: phi[j],
                    weighted_average: mu[j],
                };
                self.mutations[j] = mutations;
                if converged {
                    frozen[j] = true;
                    live -= 1;
                }
            }
            if live == 0 || t_call >= budget.max_steps || rounds == budget.max_epochs {
                break;
            }
            let block = budget.check_every.min(budget.max_steps - t_call);
            self.step(topology.graph(), block);
            self.churn(topology)?;
            t_call += block;
            rounds += 1;
        }
        Ok(reports)
    }

    /// Lane `r`'s value vector, gathered out of the lane-major storage.
    fn replica_values(&self, r: usize) -> Vec<f64> {
        assert!(r < self.lanes, "lane {r} out of range");
        (0..self.n)
            .map(|u| self.values[u * self.lanes + r])
            .collect()
    }

    /// `Avg(t)` of lane `r`.
    fn replica_average(&self, r: usize) -> f64 {
        assert!(r < self.lanes, "lane {r} out of range");
        (0..self.n)
            .map(|u| self.values[u * self.lanes + r])
            .sum::<f64>()
            / self.n as f64
    }

    /// `(φ, M)` of lane `r` on `graph`: the shared sweep over that lane.
    fn replica_potential(&self, graph: &Graph, r: usize) -> (f64, f64) {
        assert!(r < self.lanes, "lane {r} out of range");
        let (mut mu, mut phi) = ([0.0], [0.0]);
        lane_potential_pi(graph, self.lanes, r..r + 1, &self.values, &mut mu, &mut phi);
        (phi[0], mu[0])
    }
}

/// [`crate::ReplicaBatch`]'s lane-major sibling: `R` replicas of one
/// NodeModel process advanced in lockstep under a shared step schedule.
/// See the module docs for the layout, the RNG and the statistical
/// contract.
///
/// # Example
///
/// ```
/// use od_core::{LaneReplicaBatch, NodeModelParams};
/// use od_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::complete(16)?;
/// let xi0: Vec<f64> = (0..16).map(f64::from).collect();
/// let params = NodeModelParams::new(0.5, 1)?;
/// let mut batch = LaneReplicaBatch::new(&g, params, &xi0, &[1, 2, 3, 4])?;
/// batch.step_many(10_000);
/// let fs: Vec<f64> = (0..batch.lanes()).map(|r| batch.replica_average(r)).collect();
/// assert!(fs.iter().all(|f| (0.0..=15.0).contains(f)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LaneReplicaBatch<'g> {
    graph: &'g Graph,
    core: LaneCore,
}

impl<'g> LaneReplicaBatch<'g> {
    /// Creates `seeds.len()` lanes of the scenario, all starting from
    /// `xi0`, lane `j` drawing its private randomness from `seeds[j]`.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`], plus
    /// [`CoreError::WeightedUnsupported`] for weighted graphs: the lane
    /// tier's shared step schedule has no weighted aggregation path, so
    /// the scenario dispatcher falls weighted specs back to the exact
    /// engine.
    pub fn new(
        graph: &'g Graph,
        params: NodeModelParams,
        xi0: &[f64],
        seeds: &[u64],
    ) -> Result<Self, CoreError> {
        let core = LaneCore::new(graph, params, xi0, seeds)?;
        Ok(LaneReplicaBatch { graph, core })
    }

    /// The underlying graph (shared by every lane).
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The model spec (always [`KernelSpec::Node`]).
    pub fn spec(&self) -> KernelSpec {
        KernelSpec::Node(self.core.params)
    }

    /// Number of lanes (replicas) `R`.
    pub fn lanes(&self) -> usize {
        self.core.lanes
    }

    /// Nodes per lane.
    pub fn n(&self) -> usize {
        self.core.n
    }

    /// Shared steps taken so far (every lane sees every step).
    pub fn time(&self) -> u64 {
        self.core.time
    }

    /// The raw lane-major `n × lanes` storage (see [`to_replica_major`]).
    pub fn values(&self) -> &[f64] {
        &self.core.values
    }

    /// Lane `r`'s value vector, gathered out of the lane-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `r >= lanes()`.
    pub fn replica_values(&self, r: usize) -> Vec<f64> {
        self.core.replica_values(r)
    }

    /// Advances every lane by `steps` shared-schedule steps.
    pub fn step_many(&mut self, steps: u64) {
        self.core.step(self.graph, steps);
    }

    /// Drives every lane to ε-convergence (`φ ≤ ε`, checked every
    /// `check_every` steps; 0 = one check per `n` steps) or to
    /// `max_steps`, returning one report per lane in lane order.
    ///
    /// The block-boundary stopping rule only (the lane tier has no
    /// tracked per-step rule), with the π potential. Converged lanes are
    /// frozen, not retired: the report captures the first boundary at
    /// which the lane crossed ε, but its values keep evolving with the
    /// row (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] for a negative or non-finite ε.
    pub fn run_until_converged(
        &mut self,
        epsilon: f64,
        max_steps: u64,
        check_every: u64,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        let check_every = if check_every == 0 {
            self.core.n as u64
        } else {
            check_every
        };
        let budget = Budget::steps(check_every, max_steps);
        self.core
            .converge(&mut Topology::Static(self.graph), budget, epsilon)
    }

    /// `Avg(t)` of lane `r`. O(n).
    pub fn replica_average(&self, r: usize) -> f64 {
        self.core.replica_average(r)
    }

    /// `M(t) = Σ π_u ξ_u(t)` of lane `r`. O(n).
    pub fn replica_weighted_average(&self, r: usize) -> f64 {
        self.core.replica_potential(self.graph, r).1
    }

    /// The potential `φ(ξ(t))` (Eq. 3) of lane `r`. O(n).
    pub fn replica_potential_pi(&self, r: usize) -> f64 {
        self.core.replica_potential(self.graph, r).0
    }
}

/// [`crate::DynamicReplicaBatch`]'s lane-major sibling: the NodeModel lane
/// kernel over an evolving topology, all lanes sharing one churn
/// trajectory (the same dedicated churn RNG and epoch cadence as the
/// exact dynamic engines, so the topology sequence for a given
/// `churn_seed` is identical across tiers).
#[derive(Debug, Clone)]
pub struct DynamicLaneReplicaBatch {
    env: Environment,
    core: LaneCore,
}

impl DynamicLaneReplicaBatch {
    /// Creates `seeds.len()` lanes on a shared evolving topology.
    ///
    /// # Errors
    ///
    /// The same as [`crate::DynamicReplicaBatch::new`].
    pub fn new(
        graph: DynamicGraph,
        params: NodeModelParams,
        xi0: &[f64],
        seeds: &[u64],
        churn: ChurnModel,
        churn_seed: u64,
    ) -> Result<Self, CoreError> {
        let env = Environment::new(graph, churn, churn_seed);
        let core = LaneCore::new(env.graph(), params, xi0, seeds)?;
        Ok(DynamicLaneReplicaBatch { env, core })
    }

    /// The committed CSR shared by every lane.
    pub fn graph(&self) -> &Graph {
        self.env.graph()
    }

    /// The underlying dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.env.graph
    }

    /// The model spec (always [`KernelSpec::Node`]).
    pub fn spec(&self) -> KernelSpec {
        KernelSpec::Node(self.core.params)
    }

    /// Number of lanes (replicas) `R`.
    pub fn lanes(&self) -> usize {
        self.core.lanes
    }

    /// Nodes per lane.
    pub fn n(&self) -> usize {
        self.core.n
    }

    /// Shared steps taken so far.
    pub fn time(&self) -> u64 {
        self.core.time
    }

    /// Epoch boundaries crossed so far.
    pub fn epoch(&self) -> u64 {
        self.env.epoch
    }

    /// Total elementary topology mutations applied so far.
    pub fn mutations(&self) -> u64 {
        self.env.mutations
    }

    /// Elementary topology mutations the shared environment had applied
    /// when lane `r` froze its report in the last
    /// [`DynamicLaneReplicaBatch::run_until_converged`] (the same
    /// per-trial count as [`crate::DynamicReplicaBatch::replica_mutations`]);
    /// 0 before the first call.
    ///
    /// # Panics
    ///
    /// Panics if `r >= lanes()`.
    pub fn replica_mutations(&self, r: usize) -> u64 {
        self.core.mutations[r]
    }

    /// Lane `r`'s value vector, gathered out of the lane-major storage.
    ///
    /// # Panics
    ///
    /// Panics if `r >= lanes()`.
    pub fn replica_values(&self, r: usize) -> Vec<f64> {
        self.core.replica_values(r)
    }

    /// Advances every lane by `steps` steps on the frozen topology, then
    /// applies **one** churn epoch shared by all lanes. Returns the
    /// number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// See [`crate::DynamicStepKernel::step_epoch`].
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.core.step(self.env.graph(), steps);
        self.core.churn(&mut Topology::Churned(&mut self.env))
    }

    /// Drives every lane to ε-convergence or to `max_epochs` epochs of
    /// `steps_per_epoch` steps, churning the shared topology at every
    /// epoch boundary; `φ` is evaluated on the **post-churn** topology,
    /// the same epoch-boundary rule as
    /// [`crate::DynamicReplicaBatch::run_until_converged`]. Converged
    /// lanes freeze their report and keep stepping (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] for a bad threshold; otherwise the
    /// same errors as [`DynamicLaneReplicaBatch::step_epoch`].
    pub fn run_until_converged(
        &mut self,
        steps_per_epoch: u64,
        max_epochs: u64,
        epsilon: f64,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        let budget = Budget::epochs(steps_per_epoch, max_epochs);
        self.core
            .converge(&mut Topology::Churned(&mut self.env), budget, epsilon)
    }

    /// `Avg(t)` of lane `r`. O(n).
    pub fn replica_average(&self, r: usize) -> f64 {
        self.core.replica_average(r)
    }

    /// `M(t) = Σ π_u ξ_u(t)` of lane `r` on the current topology. O(n).
    pub fn replica_weighted_average(&self, r: usize) -> f64 {
        self.core.replica_potential(self.env.graph(), r).1
    }

    /// The potential `φ(ξ(t))` (Eq. 3) of lane `r` on the current
    /// topology. O(n).
    pub fn replica_potential_pi(&self, r: usize) -> f64 {
        self.core.replica_potential(self.env.graph(), r).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use od_graph::generators;

    fn node_spec(alpha: f64, k: usize) -> NodeModelParams {
        NodeModelParams::new(alpha, k).unwrap()
    }

    #[test]
    fn transposition_round_trips() {
        let (n, lanes) = (5, 3);
        let replica_major: Vec<f64> = (0..n * lanes).map(|i| i as f64).collect();
        let lane_major = to_lane_major(&replica_major, n, lanes);
        // Spot-check the layout: replica r=1's node u=2 lands at u*lanes + r.
        assert_eq!(lane_major[2 * lanes + 1], replica_major[n + 2]);
        assert_eq!(to_replica_major(&lane_major, n, lanes), replica_major);
        assert_eq!(
            to_lane_major(&to_replica_major(&lane_major, n, lanes), n, lanes),
            lane_major
        );
    }

    #[test]
    fn lane_rngs_rows_are_counter_streams() {
        let seeds = [7u64, 8, 9];
        let mut rngs = LaneRngs::new(&seeds);
        let mut row0 = [0u64; 3];
        let mut row1 = [0u64; 3];
        rngs.next_row(&mut row0);
        rngs.next_row(&mut row1);
        for (j, &s) in seeds.iter().enumerate() {
            let key = CounterRng::derive_key(s, 0);
            assert_eq!(row0[j], CounterRng::at(key, 0));
            assert_eq!(row1[j], CounterRng::at(key, 1));
        }
        // Rows are lane-wise distinct (independent keys).
        assert_ne!(row0[0], row0[1]);
    }

    #[test]
    fn fixed_width_loop_matches_dynamic_width_loop() {
        // The monomorphised hot loop must be bit-identical to the
        // dynamic-width fallback: same draws, same order, same float
        // association. Run both directly on identical state (L = 8 is a
        // dispatched width; `lane_steps_dyn` is called explicitly).
        let g = generators::torus(6, 6).unwrap();
        let n = g.n();
        let lanes = 8usize;
        let seeds: Vec<u64> = (100..100 + lanes as u64).collect();
        let xi0: Vec<f64> = (0..n).map(|u| (u as f64).sin()).collect();
        for spec in [
            node_spec(0.5, 1),
            node_spec(0.5, 4), // k = d on the torus: full-row arm
            node_spec(0.3, 2), // general-k substream arm
            node_spec(0.5, 1).with_laziness(Laziness::Lazy),
        ] {
            let mut fixed = vec![0.0; n * lanes];
            for u in 0..n {
                fixed[u * lanes..(u + 1) * lanes].fill(xi0[u]);
            }
            let mut dynamic = fixed.clone();
            let mut sched_f = schedule_stream(&seeds);
            let mut sched_d = schedule_stream(&seeds);
            let mut rngs_f = LaneRngs::new(&seeds);
            let mut rngs_d = LaneRngs::new(&seeds);
            let mut scratch_f = LaneScratch::new(spec, &g, lanes);
            let mut scratch_d = LaneScratch::new(spec, &g, lanes);
            run_lane_steps(
                &g,
                spec,
                lanes,
                &mut fixed,
                &mut sched_f,
                &mut rngs_f,
                &mut scratch_f,
                5_000,
            );
            lane_steps_dyn(
                &g,
                spec,
                lanes,
                &mut dynamic,
                &mut sched_d,
                &mut rngs_d,
                &mut scratch_d,
                5_000,
            );
            assert_eq!(fixed, dynamic, "{spec:?}: paths diverged");
        }
    }

    #[test]
    fn lanes_preserve_the_conserved_mean() {
        // The NodeModel conserves the pi-weighted mean in expectation;
        // more sharply, every lane must keep all values inside the
        // initial hull and drive phi down.
        let g = generators::torus(8, 8).unwrap();
        let xi0: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        for spec in [node_spec(0.5, 1), node_spec(0.5, 4), node_spec(0.3, 2)] {
            let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3, 4, 5]).unwrap();
            let phi0: Vec<f64> = (0..5).map(|r| batch.replica_potential_pi(r)).collect();
            batch.step_many(20_000);
            for r in 0..5 {
                let vals = batch.replica_values(r);
                assert!(vals.iter().all(|v| (-1.0..=1.0).contains(v)), "{spec:?}");
                assert!(
                    batch.replica_potential_pi(r) < phi0[r] * 1e-2,
                    "{spec:?}: lane {r} did not contract"
                );
            }
        }
    }

    #[test]
    fn lazy_lanes_still_converge_and_differ() {
        let g = generators::complete(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = node_spec(0.5, 1).with_laziness(Laziness::Lazy);
        let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[10, 20]).unwrap();
        batch.step_many(30_000);
        let a = batch.replica_values(0);
        let b = batch.replica_values(1);
        assert_ne!(a, b, "independent lanes collapsed to one trajectory");
        for vals in [a, b] {
            let spread = vals.iter().cloned().fold(f64::MIN, f64::max)
                - vals.iter().cloned().fold(f64::MAX, f64::min);
            assert!(spread < 1e-3, "lazy lane failed to contract: {spread}");
        }
    }

    #[test]
    fn converge_freezes_reports_at_first_crossing() {
        let g = generators::complete(16).unwrap();
        let xi0: Vec<f64> = (0..16).map(f64::from).collect();
        let spec = node_spec(0.5, 15); // complete graph: k = d, full-row arm
        let mut batch = LaneReplicaBatch::new(&g, spec, &xi0, &[1, 2, 3]).unwrap();
        let reports = batch.run_until_converged(1e-9, 1_000_000, 64).unwrap();
        for report in &reports {
            assert!(report.converged);
            assert!(report.potential <= 1e-9);
            assert_eq!(report.steps % 64, 0, "block-granular stopping");
            // The F estimate lands inside the initial hull.
            assert!((0.0..=15.0).contains(&report.weighted_average));
        }
        // Already-converged lanes retire with zero steps on re-entry.
        let again = batch.run_until_converged(1.0, 1_000, 64).unwrap();
        assert!(again.iter().all(|r| r.converged && r.steps == 0));
    }

    #[test]
    fn converge_budget_exhaustion_reports_unconverged() {
        let g = generators::cycle(32).unwrap();
        let xi0: Vec<f64> = (0..32).map(f64::from).collect();
        let mut batch = LaneReplicaBatch::new(&g, node_spec(0.5, 1), &xi0, &[4, 5]).unwrap();
        let reports = batch.run_until_converged(1e-300, 96, 32).unwrap();
        for report in &reports {
            assert!(!report.converged);
            assert_eq!(report.steps, 96);
            assert!(report.potential > 1e-300);
        }
        assert!(batch.run_until_converged(f64::NAN, 10, 0).is_err());
    }

    #[test]
    fn dynamic_lanes_step_and_churn_together() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(|i| (i % 5) as f64).collect();
        let mut batch = DynamicLaneReplicaBatch::new(
            DynamicGraph::new(g),
            node_spec(0.5, 1),
            &xi0,
            &[3, 4, 5],
            ChurnModel::edge_swap(2),
            11,
        )
        .unwrap();
        for _ in 0..20 {
            batch.step_epoch(36).unwrap();
        }
        assert_eq!(batch.time(), 20 * 36);
        assert_eq!(batch.epoch(), 20);
        assert!(batch.mutations() > 0);
        batch.graph().check_invariants().unwrap();
        for r in 0..3 {
            let vals = batch.replica_values(r);
            assert!(vals.iter().all(|v| (0.0..=4.0).contains(v)));
        }
    }

    #[test]
    fn dynamic_lane_converge_mirrors_epoch_rule() {
        let g = generators::complete(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let mut batch = DynamicLaneReplicaBatch::new(
            DynamicGraph::new(g),
            node_spec(0.5, 2),
            &xi0,
            &[1, 2, 3, 4],
            ChurnModel::rewire(1, 2),
            7,
        )
        .unwrap();
        let reports = batch.run_until_converged(48, 100_000, 1e-8).unwrap();
        for report in &reports {
            assert!(report.converged);
            assert_eq!(report.steps % 48, 0, "epoch-granular stopping");
            assert!(report.potential <= 1e-8);
        }
    }

    #[test]
    fn construction_validation_matches_exact_tier() {
        let path = generators::path(6).unwrap();
        let xi0 = vec![0.0; 6];
        // k > d_min rejected.
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 3), &xi0, &[1]),
            Err(CoreError::InvalidSampleSize { .. })
        ));
        // Length mismatch rejected.
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 1), &[0.0; 4], &[1]),
            Err(CoreError::LengthMismatch { .. })
        ));
        // Non-finite initial values rejected.
        let mut bad = xi0.clone();
        bad[3] = f64::NAN;
        assert!(matches!(
            LaneReplicaBatch::new(&path, node_spec(0.5, 1), &bad, &[1]),
            Err(CoreError::NonFiniteValue { index: 3 })
        ));
        // Zero lanes is valid and degenerate.
        let mut empty = LaneReplicaBatch::new(&path, node_spec(0.5, 1), &xi0, &[]).unwrap();
        empty.step_many(10);
        assert!(empty.run_until_converged(1e-9, 10, 0).unwrap().is_empty());
    }
}
