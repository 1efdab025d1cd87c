//! Batched, allocation-free step kernels over the CSR graph.
//!
//! The scalar [`OpinionProcess`] implementations maintain an
//! [`OpinionState`] with incremental aggregates — ideal for the
//! convergence-driven experiments (O(1) potential checks) but wasted work
//! on fixed-step Monte-Carlo sweeps, where only the final values matter.
//! [`StepKernel`] strips a run down to its hot loop: raw `f64` values
//! indexed by `u32` node ids, reusable scratch buffers, and a
//! [`StepKernel::step_many`] entry point that hoists the model dispatch,
//! RNG indirection and bounds work out of the inner loop. Aggregates
//! (average, potential `φ`) are computed on demand in O(n).
//!
//! The kernel path is proven **bit-identical** to the scalar path under
//! seeded replay: both draw neighbours through
//! [`crate::sampling::sample_k_neighbors`] and apply updates with the same
//! floating-point expression, so `step_many(s)` from seed `σ` reproduces
//! `s` calls of `OpinionProcess::step` from seed `σ` exactly (see
//! `tests/batch_equivalence.rs` and the kernel property suite).
//!
//! [`VoterKernel`] is the analogous fast path for the discrete voter
//! model; [`crate::ReplicaBatch`] runs many independent replicas of either
//! kernel in a structure-of-arrays layout sharing one CSR instance.
//!
//! [`OpinionProcess`]: crate::OpinionProcess
//! [`OpinionState`]: crate::OpinionState

use crate::engine::PotentialKind;
use crate::error::CoreError;
use crate::params::{EdgeModelParams, Laziness, NodeModelParams};
use crate::sampling::{push_k_neighbors, sample_k_neighbors};
use crate::state::REFRESH_INTERVAL;
use od_graph::{DirectedEdge, Graph, NodeId};
use rand::{Rng, RngCore};

/// Which averaging process a kernel advances, with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KernelSpec {
    /// The NodeModel (Definition 2.1): uniform node, `k` sampled
    /// neighbours.
    Node(NodeModelParams),
    /// The EdgeModel (Definition 2.3): uniform directed edge.
    Edge(EdgeModelParams),
}

impl KernelSpec {
    /// Validates the spec against a graph (connectivity is checked by the
    /// kernel constructors; this checks the spec-specific constraints).
    /// The dynamic kernels re-run this after degree-changing churn.
    pub(crate) fn validate(&self, graph: &Graph) -> Result<(), CoreError> {
        if let KernelSpec::Node(params) = self {
            let d_min = graph.min_degree();
            if params.k() > d_min {
                return Err(CoreError::InvalidSampleSize {
                    k: params.k(),
                    d_min,
                });
            }
        }
        Ok(())
    }

    /// Scratch capacity needed so that stepping never reallocates: `k`
    /// sample slots for each of a schedule pass's [`SCHEDULE`] selections,
    /// plus a `d_max` permutation for the dense regime.
    pub(crate) fn scratch(&self, graph: &Graph) -> (Vec<NodeId>, Vec<u32>) {
        match self {
            KernelSpec::Node(params) => (
                Vec::with_capacity(SCHEDULE * params.k()),
                if params.k() > 1 {
                    Vec::with_capacity(graph.max_degree())
                } else {
                    Vec::new()
                },
            ),
            KernelSpec::Edge(_) => (Vec::new(), Vec::new()),
        }
    }
}

/// Validates an initial value vector against a graph.
pub(crate) fn validate_values(graph: &Graph, values: &[f64]) -> Result<(), CoreError> {
    if graph.is_directed() {
        // The asynchronous gossip processes need symmetric interactions
        // (their martingale/potential theory lives on reversible chains);
        // directed influence is the synchronous tier's job.
        return Err(CoreError::DirectedUnsupported);
    }
    if !graph.is_connected() || graph.n() < 2 {
        return Err(CoreError::Disconnected);
    }
    if values.len() != graph.n() {
        return Err(CoreError::LengthMismatch {
            values: values.len(),
            nodes: graph.n(),
        });
    }
    if let Some(index) = values.iter().position(|v| !v.is_finite()) {
        return Err(CoreError::NonFiniteValue { index });
    }
    Ok(())
}

/// Validates an initial opinion vector against a graph: the voter step
/// samples a uniform neighbour, so the graph must be connected with at
/// least two nodes.
pub(crate) fn validate_opinions(graph: &Graph, opinions: &[u32]) -> Result<(), CoreError> {
    if !graph.is_connected() || graph.n() < 2 {
        return Err(CoreError::Disconnected);
    }
    if opinions.len() != graph.n() {
        return Err(CoreError::LengthMismatch {
            values: opinions.len(),
            nodes: graph.n(),
        });
    }
    Ok(())
}

/// Weighted NodeModel aggregation over an already-drawn sample:
/// `Σ w·ξ_v / Σ w`, or `None` when every sampled weight is zero (the
/// update leaves the value unchanged — a zero-weight neighbourhood has no
/// opinion to offer).
///
/// At unit weights this is bit-identical to the unweighted mean: the
/// numerator accumulates `0.0 + 1.0·ξ_1 + 1.0·ξ_2 + …` — the same adds in
/// the same order as `sample.iter().sum()` because `1.0·x` is `x` bitwise
/// — and the denominator accumulates unit weights to exactly
/// `sample.len() as f64` (integer-valued f64 sums are exact below 2⁵³).
#[inline]
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
fn weighted_sample_mean(
    graph: &Graph,
    u: NodeId,
    sample: &[NodeId],
    values: &[f64],
) -> Option<f64> {
    let row = graph.neighbors(u);
    let weights = graph
        .row_weights(u)
        .expect("weighted loop requires weight rows");
    let mut num = 0.0;
    let mut den = 0.0;
    for &v in sample {
        let slot = row
            .binary_search(&v)
            .expect("sampled node is a neighbour of u");
        let w = weights[slot];
        num += w * values[v as usize];
        den += w;
    }
    // od-lint: allow(F1) — exact sentinel: the sum is 0.0 only when every sampled weight is literally 0.0
    if den == 0.0 {
        None
    } else {
        Some(num / den)
    }
}

/// Weighted EdgeModel pull target for CSR slot `slot` (tail `t`, head
/// `h`): `ŵ·ξ_h + (1−ŵ)·ξ_t` with pull strength `ŵ = w_slot /
/// max_row_weight(t) ∈ [0, 1]`, so the heaviest incident edge pulls fully
/// and lighter edges pull proportionally. The `ŵ == 1.0` arm returns the
/// head value *exactly* — unit-weight graphs always take it, reproducing
/// the unweighted expression bit-for-bit with no `±0.0` blend artifacts.
/// Returns `None` for a zero-weight slot (the value stays unchanged).
#[inline]
fn weighted_pull_target(
    graph: &Graph,
    weights: &[f64],
    slot: usize,
    tail: NodeId,
    head: NodeId,
    values: &[f64],
) -> Option<f64> {
    // Row maxes are strictly positive for any row that owns a slot:
    // all-zero rows are rejected at graph construction.
    let scaled = weights[slot] / graph.row_weight_max(tail);
    // od-lint: allow(F1) — exact sentinel: w/row_max is exactly 1.0 for the heaviest slot; keeps unit-weight graphs bit-identical
    if scaled == 1.0 {
        Some(values[head as usize])
    // od-lint: allow(F1) — exact sentinel: a zero-weight slot divides to exactly 0.0
    } else if scaled == 0.0 {
        None
    } else {
        Some(scaled * values[head as usize] + (1.0 - scaled) * values[tail as usize])
    }
}

/// Selections drawn per schedule pass of [`run_steps`]: enough to keep
/// many independent value loads in flight during the apply pass, few
/// enough that the schedule buffer stays in L1.
const SCHEDULE: usize = 64;

/// The schedule pass of [`run_steps`]: draws selections with `draw` until
/// `buf` holds [`SCHEDULE`] of them or the `left` step budget runs out,
/// spending one budget unit (and, when `lazy`, one coin flip first) per
/// step exactly as the per-step loop did. Returns the number drawn.
#[inline(always)]
fn schedule<S, R: RngCore + ?Sized>(
    buf: &mut [S; SCHEDULE],
    left: &mut u64,
    lazy: bool,
    rng: &mut R,
    mut draw: impl FnMut(&mut R) -> S,
) -> usize {
    let mut len = 0;
    while len < SCHEDULE && *left > 0 {
        *left -= 1;
        if lazy && rng.gen_bool(0.5) {
            continue;
        }
        buf[len] = draw(rng);
        len += 1;
    }
    len
}

/// Advances `steps` steps of `spec` over `values`, drawing all randomness
/// from `rng`. The model dispatch and parameter reads are hoisted out of
/// the loop; `sample`/`perm` are caller-owned scratch so the loop performs
/// zero heap allocation once the buffers are at capacity.
///
/// This is the one untracked inner loop shared by [`StepKernel`],
/// [`crate::ReplicaBatch`] and the dynamic batches; its per-step
/// arithmetic mirrors the scalar `NodeModel`/`EdgeModel` implementations
/// expression-for-expression.
///
/// **Schedule first.** No RNG draw ever reads `values` (the selection
/// sequence χ(t) is exogenous — the coupling behind Prop. 5.1), so each
/// round first *schedules* up to [`SCHEDULE`] selections — the node and
/// its `k` samples, or the directed edge — making the same RNG calls in
/// the same order as a per-step loop, and then *applies* them in order.
/// The apply pass knows every address up front, so its value loads
/// overlap instead of waiting behind the RNG and CSR reads; values and
/// RNG state are bit-identical to the per-step loop by construction.
///
/// Weighted graphs take dedicated apply bodies (gated once, outside the
/// step loop, on [`Graph::is_weighted`]) built from
/// [`weighted_sample_mean`] / [`weighted_pull_target`]; unit-weight
/// weighted graphs reproduce the unweighted expressions bit-for-bit, and
/// unweighted graphs never touch the weighted code at all.
pub(crate) fn run_steps<R: RngCore + ?Sized>(
    graph: &Graph,
    spec: KernelSpec,
    values: &mut [f64],
    sample: &mut Vec<NodeId>,
    perm: &mut Vec<u32>,
    steps: u64,
    rng: &mut R,
) {
    let mut left = steps;
    match spec {
        KernelSpec::Node(params) => {
            let n = graph.n();
            let alpha = params.alpha();
            let k = params.k();
            let lazy = params.laziness() == Laziness::Lazy;
            let weighted = graph.is_weighted();
            let mut nodes = [0 as NodeId; SCHEDULE];
            while left > 0 {
                // Node `nodes[i]`'s k samples are `sample[i*k..(i+1)*k]`.
                sample.clear();
                let len = schedule(&mut nodes, &mut left, lazy, rng, |rng| {
                    let u = rng.gen_range(0..n) as NodeId;
                    push_k_neighbors(graph.neighbors(u), k, sample, perm, rng);
                    u
                });
                let picks = nodes[..len].iter().zip(sample.chunks_exact(k));
                if weighted {
                    for (&u, drawn) in picks {
                        if let Some(mean) = weighted_sample_mean(graph, u, drawn, values) {
                            let u = u as usize;
                            values[u] = alpha * values[u] + (1.0 - alpha) * mean;
                        }
                    }
                } else {
                    for (&u, drawn) in picks {
                        let u = u as usize;
                        let mean = drawn.iter().map(|&v| values[v as usize]).sum::<f64>()
                            / drawn.len() as f64;
                        values[u] = alpha * values[u] + (1.0 - alpha) * mean;
                    }
                }
            }
        }
        KernelSpec::Edge(params) => {
            let two_m = graph.directed_edge_count();
            let alpha = params.alpha();
            let lazy = params.laziness() == Laziness::Lazy;
            let unset = DirectedEdge { tail: 0, head: 0 };
            if let Some(weights) = graph.weight_slice() {
                let mut picks = [(0usize, unset); SCHEDULE];
                while left > 0 {
                    let len = schedule(&mut picks, &mut left, lazy, rng, |rng| {
                        let slot = rng.gen_range(0..two_m);
                        (slot, graph.directed_edge(slot))
                    });
                    for &(slot, edge) in &picks[..len] {
                        if let Some(target) =
                            weighted_pull_target(graph, weights, slot, edge.tail, edge.head, values)
                        {
                            values[edge.tail as usize] =
                                alpha * values[edge.tail as usize] + (1.0 - alpha) * target;
                        }
                    }
                }
            } else {
                let mut edges = [unset; SCHEDULE];
                while left > 0 {
                    let len = schedule(&mut edges, &mut left, lazy, rng, |rng| {
                        graph.directed_edge(rng.gen_range(0..two_m))
                    });
                    for edge in &edges[..len] {
                        values[edge.tail as usize] = alpha * values[edge.tail as usize]
                            + (1.0 - alpha) * values[edge.head as usize];
                    }
                }
            }
        }
    }
}

/// Plain average of a value slice, `(1/n) Σ ξ_u`.
pub(crate) fn slice_average(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Degree-weighted average `Σ (d_u/2m) ξ_u` (the NodeModel martingale);
/// on weighted graphs the strength-weighted average `Σ (s_u/W) ξ_u` with
/// `s_u` the row weight sum and `W = Σ s_u`. For unweighted and
/// unit-weight graphs both normalizers are exactly the integer degree
/// counts, so this is bit-identical to the historical expression.
pub(crate) fn slice_weighted_average(graph: &Graph, values: &[f64]) -> f64 {
    let total = graph.total_weight();
    values
        .iter()
        .enumerate()
        .map(|(u, &x)| graph.row_weight_sum(u as NodeId) * x)
        .sum::<f64>()
        / total
}

/// The paper's potential `φ(ξ) = ⟨ξ,ξ⟩_π − ⟨1,ξ⟩_π²` (Eq. 3), computed in
/// two passes with the weighted mean as gauge (same cancellation-avoidance
/// strategy as [`crate::OpinionState`]).
///
/// Like [`crate::OpinionState::potential_pi`], the result is clamped at 0:
/// the scalar and batched convergence paths share the contract that `φ` is
/// never reported negative, so an ε-convergence flag cannot flip on a
/// rounding artifact (pinned by the potential proptest in
/// `tests/kernel_prop.rs`).
pub(crate) fn slice_potential_pi(graph: &Graph, values: &[f64]) -> f64 {
    slice_potential_and_mean(graph, values).0
}

/// [`slice_potential_pi`] fused with its first pass: returns `(φ, M)`
/// where `M` is the weighted mean used as gauge, so block-boundary checks
/// get the `F` estimate for free. The on-demand, one-row evaluation that
/// reads the weights off the graph; the block runners' grouped sweep over
/// cached weights ([`slice_potentials_and_means`]) is bit-identical to it.
pub(crate) fn slice_potential_and_mean(graph: &Graph, values: &[f64]) -> (f64, f64) {
    let total = graph.total_weight();
    let mu = slice_weighted_average(graph, values);
    let phi = values
        .iter()
        .enumerate()
        .map(|(u, &x)| {
            let c = x - mu;
            graph.row_weight_sum(u as NodeId) / total * c * c
        })
        .sum::<f64>()
        .max(0.0);
    (phi, mu)
}

/// The π weights of one committed degree (or strength) sequence, cached
/// for the block-boundary `(φ, M)` sweeps: node `u`'s row weight sum
/// `s_u` and its stationary mass `s_u / W_tot`, plus `W_tot` itself — the
/// exact values [`slice_potential_and_mean`] derives per node. Whoever
/// owns the topology computes them once per degree sequence: static
/// batches and windows once per run (their exact-mode trackers read the
/// same `π`), dynamic batches again only after a commit that changed
/// degrees (`Shifted` or `Rebuilt`; edge swaps keep them).
#[derive(Debug, Clone, Default)]
pub(crate) struct PiWeights {
    total: f64,
    strength: Vec<f64>,
    pi: Vec<f64>,
}

impl PiWeights {
    /// The weights of `graph`'s current rows.
    pub(crate) fn new(graph: &Graph) -> Self {
        let mut weights = PiWeights::default();
        weights.refresh(graph);
        weights
    }

    /// The stationary distribution `π_u = s_u / W_tot` — bit-identical to
    /// [`Graph::stationary_distribution`].
    pub(crate) fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Recomputes the weights for `graph`'s current rows, reusing the
    /// buffers.
    pub(crate) fn refresh(&mut self, graph: &Graph) {
        let total = graph.total_weight();
        let strength = (0..graph.n()).map(|u| graph.row_weight_sum(u as NodeId));
        self.strength.clear();
        self.strength.extend(strength);
        self.pi.clear();
        self.pi.extend(self.strength.iter().map(|s| s / total));
        self.total = total;
    }
}

/// Replicas per grouped boundary evaluation
/// ([`slice_potentials_and_means`]): enough independent add chains to
/// hide the float-add latency, few enough rows to stay in cache together.
pub(crate) const PHI_GROUP: usize = 4;

/// `(φ, M)` of `W` value rows in a single sweep over the nodes, for the
/// block-boundary check of `W` replicas at once.
///
/// A one-row evaluation is a chain of dependent float adds, so it runs
/// at the add latency; `W` rows give `W` independent chains per node.
/// Each row keeps its own accumulators, summed in node order from the
/// same `-0.0` start as `Iterator::sum`, and every term is the
/// [`slice_potential_and_mean`] expression (`s_u · ξ_u` for `M`,
/// `(s_u / W_tot) · c · c` for `φ`) with its weights read from the cache,
/// so each result is bit-identical to evaluating its row alone.
pub(crate) fn slice_potentials_and_means<const W: usize>(
    weights: &PiWeights,
    rows: [&[f64]; W],
) -> [(f64, f64); W] {
    let n = weights.strength.len();
    let rows = rows.map(|row| &row[..n]);
    let mut sums = [-0.0f64; W];
    for (u, s) in weights.strength.iter().enumerate() {
        for (sum, row) in sums.iter_mut().zip(&rows) {
            *sum += s * row[u];
        }
    }
    let mus = sums.map(|sum| sum / weights.total);
    let mut phis = [-0.0f64; W];
    for (u, w) in weights.pi.iter().enumerate() {
        for ((phi, row), mu) in phis.iter_mut().zip(&rows).zip(&mus) {
            let c = row[u] - mu;
            *phi += w * c * c;
        }
    }
    std::array::from_fn(|r| (phis[r].max(0.0), mus[r]))
}

/// Uniform-weight sibling of [`slice_potential_and_mean`]: returns
/// `(φ̄_V, Avg)` where `φ̄_V(ξ) = Σ(ξ_u − Avg)²` is the Prop. D.1
/// potential, clamped at 0 like every potential evaluation in the crate.
pub(crate) fn slice_potential_uniform_and_mean(values: &[f64]) -> (f64, f64) {
    let mu = slice_average(values);
    let phi = values
        .iter()
        .map(|&x| {
            let c = x - mu;
            c * c
        })
        .sum::<f64>()
        .max(0.0);
    (phi, mu)
}

/// Incrementally maintained potential for the tracked convergence path,
/// mirroring [`crate::OpinionState`]'s arithmetic **expression for
/// expression**: the same construction-time gauge (the π-weighted mean of
/// the values at tracking start — also for the uniform arm, exactly as
/// `OpinionState` centers all four running sums at one gauge), the same
/// `set_value` update formulas, the same [`REFRESH_INTERVAL`] drift
/// refresh, and the same clamp at 0.
///
/// The tracker is weight-generic ([`PotentialKind`]): the π arm mirrors
/// `OpinionState::potential_pi`, the uniform arm mirrors
/// `OpinionState::potential_uniform` (Prop. D.1's `φ̄_V`). Because every
/// float operation matches, a kernel run driven by the tracked stopping
/// rule ([`crate::StopRule::Exact`]) stops at **exactly** the step a
/// scalar [`run_until_converged`] run (or `potential_uniform` loop) from
/// the same state and seed would — the property the convergence
/// equivalence gates in `tests/batch_equivalence.rs` pin.
///
/// [`run_until_converged`]: crate::run_until_converged
#[derive(Debug, Clone, Copy)]
pub(crate) struct PotentialTracker {
    kind: PotentialKind,
    /// `n` as f64, the cross-term normaliser of the uniform arm.
    n: f64,
    /// Centering offset: the π-weighted mean at tracking start (fixed,
    /// like `OpinionState`'s construction-time gauge — both arms).
    gauge: f64,
    /// π arm: Σ π_u (ξ_u − gauge). Uniform arm: Σ (ξ_u − gauge).
    weighted_sum_c: f64,
    /// π arm: Σ π_u (ξ_u − gauge)². Uniform arm: Σ (ξ_u − gauge)².
    weighted_sq_sum_c: f64,
    updates_since_refresh: u64,
}

impl PotentialTracker {
    /// Starts tracking `values` (mirrors `OpinionState::new` +
    /// `refresh_sums`). `pi` is always the stationary distribution — the
    /// uniform arm still uses it for the gauge, exactly as `OpinionState`
    /// centers its plain sums at the π-weighted mean.
    pub(crate) fn new(pi: &[f64], values: &[f64], kind: PotentialKind) -> Self {
        let gauge = pi.iter().zip(values).map(|(w, v)| w * v).sum();
        let mut tracker = PotentialTracker {
            kind,
            n: values.len() as f64,
            gauge,
            weighted_sum_c: 0.0,
            weighted_sq_sum_c: 0.0,
            updates_since_refresh: 0,
        };
        tracker.refresh(pi, values);
        tracker
    }

    /// Recomputes the running sums from scratch (mirrors
    /// `OpinionState::refresh_sums`; the gauge stays fixed).
    fn refresh(&mut self, pi: &[f64], values: &[f64]) {
        self.weighted_sum_c = 0.0;
        self.weighted_sq_sum_c = 0.0;
        match self.kind {
            PotentialKind::Pi => {
                for (v, w) in values.iter().zip(pi) {
                    let c = v - self.gauge;
                    self.weighted_sum_c += w * c;
                    self.weighted_sq_sum_c += w * c * c;
                }
            }
            PotentialKind::Uniform => {
                for v in values {
                    let c = v - self.gauge;
                    self.weighted_sum_c += c;
                    self.weighted_sq_sum_c += c * c;
                }
            }
        }
        self.updates_since_refresh = 0;
    }

    /// Records `ξ_u: old → new` with weight `w = π_u` in O(1) (mirrors
    /// `OpinionState::set_value`; the uniform arm mirrors the plain sums,
    /// which ignore `w`). The caller refreshes via
    /// [`PotentialTracker::maybe_refresh`] after the value write.
    #[inline]
    fn record(&mut self, w: f64, old: f64, new: f64) {
        let old_c = old - self.gauge;
        let new_c = new - self.gauge;
        match self.kind {
            PotentialKind::Pi => {
                self.weighted_sum_c += w * (new_c - old_c);
                self.weighted_sq_sum_c += w * (new_c * new_c - old_c * old_c);
            }
            PotentialKind::Uniform => {
                self.weighted_sum_c += new_c - old_c;
                self.weighted_sq_sum_c += new_c * new_c - old_c * old_c;
            }
        }
        self.updates_since_refresh += 1;
    }

    /// Refreshes the sums when the drift interval elapsed (mirrors the
    /// refresh embedded in `OpinionState::set_value`).
    #[inline]
    fn maybe_refresh(&mut self, pi: &[f64], values: &[f64]) {
        if self.updates_since_refresh >= REFRESH_INTERVAL {
            self.refresh(pi, values);
        }
    }

    /// The tracked potential, clamped at 0: `φ` (mirrors
    /// `OpinionState::potential_pi`) or `φ̄_V` (mirrors
    /// `OpinionState::potential_uniform`), by construction kind.
    #[inline]
    pub(crate) fn potential_pi(&self) -> f64 {
        match self.kind {
            PotentialKind::Pi => {
                (self.weighted_sq_sum_c - self.weighted_sum_c * self.weighted_sum_c).max(0.0)
            }
            PotentialKind::Uniform => (self.weighted_sq_sum_c
                - self.weighted_sum_c * self.weighted_sum_c / self.n)
                .max(0.0),
        }
    }

    /// The `F` estimate carried through reports: `M(t) = Σ π_u ξ_u(t)`
    /// on the π arm (mirrors `OpinionState::weighted_average`, so an
    /// exact-mode `F` estimate is bit-identical to the scalar
    /// `estimate_convergence_value` path), `Avg(t)` on the uniform arm
    /// (mirrors `OpinionState::average` — the EdgeModel's `F` estimate,
    /// Prop. D.1(i)).
    #[inline]
    pub(crate) fn weighted_average(&self) -> f64 {
        match self.kind {
            PotentialKind::Pi => self.weighted_sum_c + self.gauge,
            PotentialKind::Uniform => self.weighted_sum_c / self.n + self.gauge,
        }
    }

    /// The raw running state, for window checkpointing
    /// ([`crate::ConvergeWindow`]). The incremental sums must be restored
    /// bit-for-bit: a tracker rebuilt from the current values via
    /// [`PotentialTracker::new`] would pick a fresh gauge and drop the
    /// accumulated drift, so its stopping decisions would not reproduce
    /// the uninterrupted run.
    pub(crate) fn state(&self) -> TrackerState {
        TrackerState {
            gauge: self.gauge,
            weighted_sum_c: self.weighted_sum_c,
            weighted_sq_sum_c: self.weighted_sq_sum_c,
            updates_since_refresh: self.updates_since_refresh,
        }
    }

    /// Rebuilds a tracker from a captured [`TrackerState`]. `n` is the
    /// replica's node count (the uniform arm's cross-term normaliser).
    // od-lint: allow(D3) — defines PotentialTracker::from_state (checkpoint restore of a scalar tracker), not an RNG constructor
    pub(crate) fn from_state(kind: PotentialKind, n: usize, state: TrackerState) -> Self {
        PotentialTracker {
            kind,
            n: n as f64,
            gauge: state.gauge,
            weighted_sum_c: state.weighted_sum_c,
            weighted_sq_sum_c: state.weighted_sq_sum_c,
            updates_since_refresh: state.updates_since_refresh,
        }
    }
}

/// The serialisable portion of a [`PotentialTracker`] (everything except
/// `kind` and `n`, which the restoring window re-derives from its own
/// configuration).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TrackerState {
    pub(crate) gauge: f64,
    pub(crate) weighted_sum_c: f64,
    pub(crate) weighted_sq_sum_c: f64,
    pub(crate) updates_since_refresh: u64,
}

/// Advances up to `max_steps` steps of `spec` over `values` with the
/// tracked O(1) per-step convergence check, stopping at the first step `T`
/// (counted from this call) with `φ(ξ(T)) ≤ ε`. Returns `(steps taken,
/// converged)`.
///
/// The loop structure mirrors the scalar engine exactly: the potential is
/// checked *before* each step (so an already-converged state takes zero
/// steps), lazy skips consume their coin flip and count against the
/// budget, and the update arithmetic is the same expression as
/// [`run_steps`]. `tracker` persists across calls, so chaining block-sized
/// calls is indistinguishable from one long call.
#[allow(clippy::too_many_arguments)] // mirrors run_steps + tracking state
pub(crate) fn run_steps_tracked_until<R: RngCore + ?Sized>(
    graph: &Graph,
    spec: KernelSpec,
    pi: &[f64],
    values: &mut [f64],
    tracker: &mut PotentialTracker,
    sample: &mut Vec<NodeId>,
    perm: &mut Vec<u32>,
    max_steps: u64,
    epsilon: f64,
    rng: &mut R,
) -> (u64, bool) {
    let mut taken = 0u64;
    match spec {
        KernelSpec::Node(params) => {
            let n = graph.n();
            let alpha = params.alpha();
            let k = params.k();
            let lazy = params.laziness() == Laziness::Lazy;
            let weighted = graph.is_weighted();
            loop {
                if tracker.potential_pi() <= epsilon {
                    return (taken, true);
                }
                if taken == max_steps {
                    return (taken, false);
                }
                taken += 1;
                if lazy && rng.gen_bool(0.5) {
                    continue;
                }
                let u = rng.gen_range(0..n);
                sample_k_neighbors(graph.neighbors(u as NodeId), k, sample, perm, rng);
                let mean = if weighted {
                    match weighted_sample_mean(graph, u as NodeId, sample, values) {
                        Some(mean) => mean,
                        // Zero sampled weight: the value stays put and the
                        // tracker has nothing to record.
                        None => continue,
                    }
                } else {
                    sample.iter().map(|&v| values[v as usize]).sum::<f64>() / sample.len() as f64
                };
                let old = values[u];
                let new = alpha * old + (1.0 - alpha) * mean;
                values[u] = new;
                tracker.record(pi[u], old, new);
                tracker.maybe_refresh(pi, values);
            }
        }
        KernelSpec::Edge(params) => {
            let two_m = graph.directed_edge_count();
            let alpha = params.alpha();
            let lazy = params.laziness() == Laziness::Lazy;
            let weights = graph.weight_slice();
            loop {
                if tracker.potential_pi() <= epsilon {
                    return (taken, true);
                }
                if taken == max_steps {
                    return (taken, false);
                }
                taken += 1;
                if lazy && rng.gen_bool(0.5) {
                    continue;
                }
                let slot = rng.gen_range(0..two_m);
                let edge = graph.directed_edge(slot);
                let tail = edge.tail as usize;
                let old = values[tail];
                let target = match weights {
                    Some(weights) => {
                        match weighted_pull_target(
                            graph, weights, slot, edge.tail, edge.head, values,
                        ) {
                            Some(target) => target,
                            // Zero-weight slot: no pull, nothing to record.
                            None => continue,
                        }
                    }
                    None => values[edge.head as usize],
                };
                let new = alpha * old + (1.0 - alpha) * target;
                values[tail] = new;
                tracker.record(pi[tail], old, new);
                tracker.maybe_refresh(pi, values);
            }
        }
    }
}

/// [`run_voter_steps_tracked`] with the consensus stopping rule folded in:
/// advances up to `max_steps` voter steps, stopping at the first step with
/// `discord == 0` (checked *before* each step, mirroring
/// [`crate::VoterModel::run_to_consensus`]). Returns `(steps taken,
/// consensus)`. The RNG draw sequence for the steps actually taken is
/// identical to the scalar model's.
pub(crate) fn run_voter_steps_tracked_until<R: RngCore + ?Sized>(
    graph: &Graph,
    opinions: &mut [u32],
    discord: &mut u64,
    max_steps: u64,
    rng: &mut R,
) -> (u64, bool) {
    let mut taken = 0u64;
    loop {
        if *discord == 0 {
            return (taken, true);
        }
        if taken == max_steps {
            return (taken, false);
        }
        taken += 1;
        voter_step_tracked(graph, opinions, discord, rng);
    }
}

/// Outcome of stepping one slot through one block of the retirement
/// driver ([`crate::driver`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BlockOutcome {
    /// Steps actually taken within the block (less than the block length
    /// only when a tracked slot met its threshold mid-block).
    pub steps: u64,
    /// `φ` after the last step taken (the discord count for voter rows;
    /// `NaN` until the block is checked).
    pub potential: f64,
    /// `M(t) = Σ π_u ξ_u(t)` after the last step taken — the `F` estimate
    /// when converged. Tracker-based under the tracked rule (bit-identical
    /// to `OpinionState::weighted_average`), the fused first pass of the
    /// `φ` evaluation at a block boundary, `NaN` until checked.
    pub weighted_average: f64,
    /// Whether the slot met its stopping condition within the block.
    pub converged: bool,
}

impl BlockOutcome {
    /// A block of `steps` untracked steps, not yet checked.
    pub(crate) fn stepped(steps: u64) -> BlockOutcome {
        BlockOutcome {
            steps,
            potential: f64::NAN,
            weighted_average: f64::NAN,
            converged: false,
        }
    }
}

/// The block-boundary evaluation of a group of replicas whose rows are
/// consecutive in `values`: fills each outcome's potential, weighted
/// average and convergence flag. π potentials of up to [`PHI_GROUP`]
/// rows share one sweep ([`slice_potentials_and_means`]).
pub(crate) fn boundary_check(
    weights: &PiWeights,
    epsilon: f64,
    kind: PotentialKind,
    n: usize,
    values: &[f64],
    outcomes: &mut [BlockOutcome],
) {
    fn record(outcome: &mut BlockOutcome, (potential, weighted_average): (f64, f64), eps: f64) {
        outcome.potential = potential;
        outcome.weighted_average = weighted_average;
        outcome.converged = potential <= eps;
    }
    fn grouped<const W: usize>(
        weights: &PiWeights,
        eps: f64,
        n: usize,
        values: &[f64],
        outcomes: &mut [BlockOutcome],
    ) {
        let rows = std::array::from_fn(|r| &values[r * n..(r + 1) * n]);
        for (outcome, pm) in outcomes
            .iter_mut()
            .zip(slice_potentials_and_means::<W>(weights, rows))
        {
            record(outcome, pm, eps);
        }
    }
    debug_assert!(outcomes.len() <= PHI_GROUP);
    match (kind, outcomes.len()) {
        (PotentialKind::Uniform, _) => {
            for (r, outcome) in outcomes.iter_mut().enumerate() {
                let row = &values[r * n..(r + 1) * n];
                record(outcome, slice_potential_uniform_and_mean(row), epsilon);
            }
        }
        (PotentialKind::Pi, 1) => grouped::<1>(weights, epsilon, n, values, outcomes),
        (PotentialKind::Pi, 2) => grouped::<2>(weights, epsilon, n, values, outcomes),
        (PotentialKind::Pi, 3) => grouped::<3>(weights, epsilon, n, values, outcomes),
        (PotentialKind::Pi, _) => grouped::<PHI_GROUP>(weights, epsilon, n, values, outcomes),
    }
}

/// Swaps rows `a` and `b` of a row-major `R × n` buffer (the compaction
/// primitive of the retirement driver).
pub(crate) fn swap_rows<T>(buf: &mut [T], n: usize, a: usize, b: usize) {
    if a == b {
        return;
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (left, right) = buf.split_at_mut(hi * n);
    left[lo * n..(lo + 1) * n].swap_with_slice(&mut right[..n]);
}

/// Allocation-free step kernel for the averaging processes.
///
/// Holds raw values plus reusable scratch; all aggregates are on-demand.
/// Construction validates exactly like the scalar processes, so any
/// `(graph, ξ(0), spec)` accepted here is also accepted by
/// `NodeModel::new` / `EdgeModel::new` and vice versa.
///
/// # Example
///
/// ```
/// use od_core::{KernelSpec, NodeModelParams, StepKernel};
/// use od_graph::generators;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::torus(16, 16)?;
/// let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2)?);
/// let mut kernel = StepKernel::new(&g, (0..256).map(f64::from).collect(), spec)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// kernel.step_many(100_000, &mut rng);
/// assert_eq!(kernel.time(), 100_000);
/// assert!(kernel.potential_pi() < kernel.discrepancy().powi(2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StepKernel<'g> {
    graph: &'g Graph,
    spec: KernelSpec,
    values: Vec<f64>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
    time: u64,
}

impl<'g> StepKernel<'g> {
    /// Creates a kernel on a connected graph.
    ///
    /// # Errors
    ///
    /// The same as the scalar constructors: [`CoreError::Disconnected`],
    /// [`CoreError::InvalidSampleSize`], [`CoreError::LengthMismatch`],
    /// [`CoreError::NonFiniteValue`].
    pub fn new(
        graph: &'g Graph,
        initial_values: Vec<f64>,
        spec: KernelSpec,
    ) -> Result<Self, CoreError> {
        validate_values(graph, &initial_values)?;
        spec.validate(graph)?;
        let (sample, perm) = spec.scratch(graph);
        Ok(StepKernel {
            graph,
            spec,
            values: initial_values,
            sample,
            perm,
            time: 0,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }

    /// The current value vector `ξ(t)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the kernel, returning the value vector.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances one step (equivalent to `step_many(1, rng)`).
    pub fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.step_many(1, rng);
    }

    /// Advances `steps` steps with all per-step dispatch hoisted out of
    /// the loop. Performs no heap allocation.
    pub fn step_many<R: RngCore + ?Sized>(&mut self, steps: u64, rng: &mut R) {
        run_steps(
            self.graph,
            self.spec,
            &mut self.values,
            &mut self.sample,
            &mut self.perm,
            steps,
            rng,
        );
        self.time += steps;
    }

    /// `Avg(t) = (1/n) Σ ξ_u(t)`. O(n).
    pub fn average(&self) -> f64 {
        slice_average(&self.values)
    }

    /// `M(t) = Σ π_u ξ_u(t)` with `π_u = d_u/2m`. O(n).
    pub fn weighted_average(&self) -> f64 {
        slice_weighted_average(self.graph, &self.values)
    }

    /// The potential `φ(ξ(t))` of Eq. 3, computed on demand. O(n).
    pub fn potential_pi(&self) -> f64 {
        slice_potential_pi(self.graph, &self.values)
    }

    /// Discrepancy `K = max ξ − min ξ`. O(n).
    pub fn discrepancy(&self) -> f64 {
        od_linalg::vector::discrepancy(&self.values)
    }
}

/// Allocation-free step kernel for the discrete voter model.
///
/// Mirrors [`crate::VoterModel::step`] draw-for-draw (uniform node, then a
/// uniform neighbour), without the per-step opinion-count bookkeeping:
/// consensus is checked on demand in O(n), which is the right trade for
/// fixed-step batched sweeps.
#[derive(Debug, Clone)]
pub struct VoterKernel<'g> {
    graph: &'g Graph,
    opinions: Vec<u32>,
    time: u64,
}

impl<'g> VoterKernel<'g> {
    /// Creates a voter kernel on a connected graph.
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] or [`CoreError::LengthMismatch`].
    pub fn new(graph: &'g Graph, opinions: Vec<u32>) -> Result<Self, CoreError> {
        validate_opinions(graph, &opinions)?;
        Ok(VoterKernel {
            graph,
            opinions,
            time: 0,
        })
    }

    /// Current opinions.
    pub fn opinions(&self) -> &[u32] {
        &self.opinions
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Advances `steps` voter steps.
    pub fn step_many<R: RngCore + ?Sized>(&mut self, steps: u64, rng: &mut R) {
        run_voter_steps(self.graph, &mut self.opinions, steps, rng);
        self.time += steps;
    }

    /// Whether all nodes share one opinion. O(n).
    pub fn is_consensus(&self) -> bool {
        self.opinions.windows(2).all(|w| w[0] == w[1])
    }
}

/// The voter inner loop shared by [`VoterKernel`] and
/// [`crate::VoterBatch`]: uniform node adopts a uniform neighbour's
/// opinion, consuming exactly two RNG draws per step like the scalar
/// [`crate::VoterModel::step`].
pub(crate) fn run_voter_steps<R: RngCore + ?Sized>(
    graph: &Graph,
    opinions: &mut [u32],
    steps: u64,
    rng: &mut R,
) {
    let n = graph.n();
    for _ in 0..steps {
        let u = rng.gen_range(0..n);
        let neighbors = graph.neighbors(u as NodeId);
        let v = neighbors[rng.gen_range(0..neighbors.len())];
        opinions[u] = opinions[v as usize];
    }
}

/// One tracked voter step: uniform node adopts a uniform neighbour's
/// opinion (two RNG draws, identical to [`run_voter_steps`] and the
/// scalar `VoterModel::step`), adjusting the discordant-edge count with
/// one O(d_u) neighbourhood scan when the opinion actually flips. The
/// single home of the discord-maintenance invariant shared by
/// [`run_voter_steps_tracked`] and [`run_voter_steps_tracked_until`].
#[inline]
// Invariant-backed: the `expect` messages state why each cannot fire.
#[allow(clippy::expect_used)]
fn voter_step_tracked<R: RngCore + ?Sized>(
    graph: &Graph,
    opinions: &mut [u32],
    discord: &mut u64,
    rng: &mut R,
) {
    let u = rng.gen_range(0..graph.n());
    let neighbors = graph.neighbors(u as NodeId);
    let v = neighbors[rng.gen_range(0..neighbors.len())];
    let new = opinions[v as usize];
    let old = opinions[u];
    if old != new {
        let mut delta = 0i64;
        for &w in neighbors {
            let other = opinions[w as usize];
            delta += i64::from(new != other) - i64::from(old != other);
        }
        *discord = discord
            .checked_add_signed(delta)
            .expect("discordant-edge count went negative");
        opinions[u] = new;
    }
}

/// Number of undirected edges whose endpoints currently disagree. On a
/// connected graph this is zero exactly at consensus — the invariant
/// behind [`crate::VoterBatch`]'s O(1) consensus check.
pub(crate) fn count_discordant_edges(graph: &Graph, opinions: &[u32]) -> u64 {
    graph
        .edges()
        .filter(|&(u, v)| opinions[u as usize] != opinions[v as usize])
        .count() as u64
}

/// [`run_voter_steps`] plus incremental maintenance of the discordant-edge
/// count: when `u`'s opinion actually flips, the count is adjusted by one
/// O(d_u) scan of `u`'s neighbourhood, replacing the O(n) full-vector
/// consensus checks of the batched sweeps. The RNG draw sequence is
/// **identical** to [`run_voter_steps`] (two draws per step), so tracked
/// and untracked trajectories coincide bit for bit.
pub(crate) fn run_voter_steps_tracked<R: RngCore + ?Sized>(
    graph: &Graph,
    opinions: &mut [u32],
    discord: &mut u64,
    steps: u64,
    rng: &mut R,
) {
    for _ in 0..steps {
        voter_step_tracked(graph, opinions, discord, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Averaging, AveragingDriver, Budget, Driver, Stop, Topology};
    use crate::{EdgeModel, NodeModel, OpinionProcess, VoterModel};
    use od_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_bits_identical(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "diverged at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn construction_validation_matches_scalar() {
        let g = generators::cycle(5).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        assert!(matches!(
            StepKernel::new(&g, vec![0.0; 5], spec),
            Err(CoreError::InvalidSampleSize { d_min: 2, .. })
        ));
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        assert!(matches!(
            StepKernel::new(&disconnected, vec![0.0; 4], spec),
            Err(CoreError::Disconnected)
        ));
        let g = generators::cycle(4).unwrap();
        assert!(matches!(
            StepKernel::new(&g, vec![0.0; 3], spec),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            StepKernel::new(&g, vec![0.0, f64::NAN, 0.0, 0.0], spec),
            Err(CoreError::NonFiniteValue { index: 1 })
        ));
    }

    /// The per-step loop `run_steps` replaced: one selection drawn and
    /// applied per step. The schedule-first loop must reproduce its values
    /// and its RNG state bit for bit.
    fn run_steps_per_step(
        graph: &Graph,
        spec: KernelSpec,
        values: &mut [f64],
        steps: u64,
        rng: &mut StdRng,
    ) {
        let (mut sample, mut perm) = spec.scratch(graph);
        match spec {
            KernelSpec::Node(params) => {
                let alpha = params.alpha();
                for _ in 0..steps {
                    if params.laziness() == Laziness::Lazy && rng.gen_bool(0.5) {
                        continue;
                    }
                    let u = rng.gen_range(0..graph.n());
                    let row = graph.neighbors(u as NodeId);
                    sample_k_neighbors(row, params.k(), &mut sample, &mut perm, rng);
                    let mean = if graph.is_weighted() {
                        match weighted_sample_mean(graph, u as NodeId, &sample, values) {
                            Some(mean) => mean,
                            None => continue,
                        }
                    } else {
                        sample.iter().map(|&v| values[v as usize]).sum::<f64>()
                            / sample.len() as f64
                    };
                    values[u] = alpha * values[u] + (1.0 - alpha) * mean;
                }
            }
            KernelSpec::Edge(params) => {
                let alpha = params.alpha();
                for _ in 0..steps {
                    if params.laziness() == Laziness::Lazy && rng.gen_bool(0.5) {
                        continue;
                    }
                    let slot = rng.gen_range(0..graph.directed_edge_count());
                    let edge = graph.directed_edge(slot);
                    let target = match graph.weight_slice() {
                        Some(weights) => match weighted_pull_target(
                            graph, weights, slot, edge.tail, edge.head, values,
                        ) {
                            Some(target) => target,
                            None => continue,
                        },
                        None => values[edge.head as usize],
                    };
                    let tail = edge.tail as usize;
                    values[tail] = alpha * values[tail] + (1.0 - alpha) * target;
                }
            }
        }
    }

    /// A wheel (hub of degree 12, rim of degree 3) with three chords:
    /// `d_min = 3`, so k = 2 hits the dense sampler on the rim and the
    /// rejection sampler on the hub, and k = d_min adds the copy regime.
    /// Returned plain, with unit weights, and with non-unit weights
    /// (some zero, so the no-update arms run too).
    fn sampler_regime_graphs() -> [Graph; 3] {
        let mut edges: Vec<(NodeId, NodeId)> = (1..=12).map(|v| (0, v)).collect();
        edges.extend((1..=12).map(|v| (v, v % 12 + 1)));
        edges.extend([(1, 5), (2, 8), (3, 10)]);
        let plain = Graph::from_edges(13, &edges).unwrap();
        let mut unit = plain.clone();
        unit.attach_weights(&vec![1.0; plain.m()]).unwrap();
        let mut weighted = plain.clone();
        let weights: Vec<f64> = (0..plain.m())
            .map(|e| {
                if e % 5 == 2 {
                    0.0
                } else {
                    0.25 + (e % 4) as f64 * 0.5
                }
            })
            .collect();
        weighted.attach_weights(&weights).unwrap();
        [plain, unit, weighted]
    }

    #[test]
    fn schedule_first_steps_match_per_step_reference() {
        let graphs = sampler_regime_graphs();
        let d_min = graphs[0].min_degree();
        assert_eq!(d_min, 3);
        let xi0: Vec<f64> = (0..13).map(|i| (f64::from(i) * 0.7).sin() * 2.0).collect();
        let mut specs = Vec::new();
        for laziness in [Laziness::Active, Laziness::Lazy] {
            for k in [1, 2, d_min] {
                let params = NodeModelParams::new(0.3, k).unwrap();
                specs.push(KernelSpec::Node(params.with_laziness(laziness)));
            }
            let params = EdgeModelParams::new(0.3).unwrap();
            specs.push(KernelSpec::Edge(params.with_laziness(laziness)));
        }
        for graph in &graphs {
            for &spec in &specs {
                for steps in [0u64, 1, 63, 64, 65, 197] {
                    let seed = 1_000 + steps;
                    let mut expected = xi0.clone();
                    let mut reference_rng = StdRng::seed_from_u64(seed);
                    run_steps_per_step(graph, spec, &mut expected, steps, &mut reference_rng);
                    let mut values = xi0.clone();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let (mut sample, mut perm) = spec.scratch(graph);
                    run_steps(
                        graph,
                        spec,
                        &mut values,
                        &mut sample,
                        &mut perm,
                        steps,
                        &mut rng,
                    );
                    assert_bits_identical(&expected, &values);
                    assert_eq!(
                        reference_rng.state(),
                        rng.state(),
                        "{spec:?} steps {steps} weighted {}",
                        graph.is_weighted()
                    );
                }
            }
        }
    }

    #[test]
    fn grouped_boundary_potentials_match_one_row_evaluation() {
        use rand::Rng;
        let plain = generators::torus(6, 7).unwrap();
        let mut weighted = plain.clone();
        let weights: Vec<f64> = (0..plain.m())
            .map(|e| 0.5 + (e % 7) as f64 * 0.375)
            .collect();
        weighted.attach_weights(&weights).unwrap();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let eps = 0.3;
        for graph in [&plain, &weighted] {
            let n = graph.n();
            let mut check = Averaging {
                spec,
                epsilon: eps,
                potential: PotentialKind::Pi,
                weights: PiWeights::new(graph),
            };
            // Every group remainder: 1..=9 live replicas, inline and on
            // two workers (whose ranges split the groups differently).
            for live in 1..=9usize {
                let mut rng = StdRng::seed_from_u64(live as u64);
                let values: Vec<f64> = (0..live * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for threads in [1, 2] {
                    // The zero-step entry round alone: a zero step budget.
                    let seeds: Vec<u64> = (0..live as u64).collect();
                    let mut driver: AveragingDriver =
                        Driver::batch(&values[..n], &seeds, Vec::new(), Default::default());
                    driver.rows.copy_from_slice(&values);
                    let (stop, budget) = (Stop::Boundary, Budget::steps(1, 0));
                    let topology = &mut Topology::Static(graph);
                    driver
                        .run(&mut check, topology, stop, budget, threads, &mut 0)
                        .unwrap();
                    for (r, outcome) in driver.reports.iter().enumerate() {
                        let row = &values[r * n..(r + 1) * n];
                        let (phi, mu) = slice_potential_and_mean(graph, row);
                        assert_eq!(
                            outcome.potential.to_bits(),
                            phi.to_bits(),
                            "live {live} r {r}"
                        );
                        assert_eq!(outcome.weighted_average.to_bits(), mu.to_bits());
                        assert_eq!(outcome.converged, phi <= eps);
                    }
                }
            }
        }
    }

    #[test]
    fn node_kernel_matches_scalar_bitwise() {
        let g = generators::torus(5, 5).unwrap();
        let xi0: Vec<f64> = (0..25).map(|i| (i as f64).sin() * 3.0).collect();
        for k in [1usize, 2, 4] {
            let params = NodeModelParams::new(0.35, k).unwrap();
            let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
            let mut rng = StdRng::seed_from_u64(101);
            for _ in 0..3_000 {
                scalar.step(&mut rng);
            }
            let mut kernel = StepKernel::new(&g, xi0.clone(), KernelSpec::Node(params)).unwrap();
            let mut rng = StdRng::seed_from_u64(101);
            kernel.step_many(3_000, &mut rng);
            assert_bits_identical(scalar.state().values(), kernel.values());
            assert_eq!(kernel.time(), 3_000);
        }
    }

    #[test]
    fn lazy_node_kernel_matches_scalar_bitwise() {
        let g = generators::hypercube(4).unwrap();
        let xi0: Vec<f64> = (0..16).map(f64::from).collect();
        let params = NodeModelParams::new(0.25, 2)
            .unwrap()
            .with_laziness(Laziness::Lazy);
        let mut scalar = NodeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..2_000 {
            scalar.step(&mut rng);
        }
        let mut kernel = StepKernel::new(&g, xi0, KernelSpec::Node(params)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        kernel.step_many(2_000, &mut rng);
        assert_bits_identical(scalar.state().values(), kernel.values());
    }

    #[test]
    fn edge_kernel_matches_scalar_bitwise() {
        let g = generators::star(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(|i| f64::from(i) * 0.7 - 2.0).collect();
        let params = EdgeModelParams::new(0.6).unwrap();
        let mut scalar = EdgeModel::new(&g, xi0.clone(), params).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..4_000 {
            scalar.step(&mut rng);
        }
        let mut kernel = StepKernel::new(&g, xi0, KernelSpec::Edge(params)).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        kernel.step_many(4_000, &mut rng);
        assert_bits_identical(scalar.state().values(), kernel.values());
    }

    #[test]
    fn voter_kernel_matches_scalar() {
        let g = generators::petersen();
        let ops0: Vec<u32> = (0..10).collect();
        let mut scalar = VoterModel::new(&g, ops0.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..2_500 {
            scalar.step(&mut rng);
        }
        let mut kernel = VoterKernel::new(&g, ops0).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        kernel.step_many(2_500, &mut rng);
        assert_eq!(scalar.opinions(), kernel.opinions());
        assert_eq!(scalar.is_consensus(), kernel.is_consensus());
    }

    #[test]
    fn on_demand_aggregates_match_opinion_state() {
        let g = generators::star(8).unwrap();
        let xi0: Vec<f64> = (0..8).map(|i| f64::from(i * i) * 0.3 - 2.0).collect();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        kernel.step_many(500, &mut rng);
        let state = crate::OpinionState::new(&g, kernel.values().to_vec()).unwrap();
        assert!((kernel.average() - state.average()).abs() < 1e-12);
        assert!((kernel.weighted_average() - state.weighted_average()).abs() < 1e-12);
        assert!((kernel.potential_pi() - state.potential_pi()).abs() < 1e-12);
        assert_eq!(kernel.discrepancy(), state.discrepancy());
    }

    #[test]
    fn step_many_is_allocation_stable() {
        // Zero per-step allocation: the scratch buffers must keep their
        // backing storage across arbitrarily many steps (pointer-stable
        // after the first call warms them up).
        let g = generators::complete(32).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 20).unwrap());
        let mut kernel = StepKernel::new(&g, vec![0.5; 32], spec).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        kernel.step_many(10, &mut rng);
        let sample_ptr = kernel.sample.as_ptr();
        let perm_ptr = kernel.perm.as_ptr();
        let values_ptr = kernel.values.as_ptr();
        kernel.step_many(50_000, &mut rng);
        assert_eq!(kernel.sample.as_ptr(), sample_ptr);
        assert_eq!(kernel.perm.as_ptr(), perm_ptr);
        assert_eq!(kernel.values.as_ptr(), values_ptr);
    }

    #[test]
    fn step_equals_step_many_one() {
        let g = generators::cycle(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let mut a = StepKernel::new(&g, xi0.clone(), spec).unwrap();
        let mut b = StepKernel::new(&g, xi0, spec).unwrap();
        let mut rng_a = StdRng::seed_from_u64(2);
        let mut rng_b = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            a.step(&mut rng_a);
        }
        b.step_many(100, &mut rng_b);
        assert_bits_identical(a.values(), b.values());
    }

    #[test]
    fn voter_consensus_detection() {
        let g = generators::cycle(4).unwrap();
        let kernel = VoterKernel::new(&g, vec![3; 4]).unwrap();
        assert!(kernel.is_consensus());
        let kernel = VoterKernel::new(&g, vec![3, 3, 3, 1]).unwrap();
        assert!(!kernel.is_consensus());
        assert!(VoterKernel::new(&g, vec![0; 3]).is_err());
    }
}
