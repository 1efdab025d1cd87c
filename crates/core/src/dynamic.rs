//! Step kernels over *evolving* topologies.
//!
//! The static kernels ([`StepKernel`], [`VoterKernel`],
//! [`crate::ReplicaBatch`]) borrow one immutable CSR instance for their
//! whole run. The dynamic kernels here own a
//! [`DynamicGraph`](od_graph::DynamicGraph) instead and advance in
//! **epochs**: a block of process steps on the frozen committed CSR, then
//! one application of a [`ChurnModel`] at the epoch boundary, a commit,
//! and (when churn can change degrees) a revalidation of the kernel's
//! sampling preconditions.
//!
//! Two RNG streams keep everything reproducible:
//!
//! * the *step* RNG (caller-supplied, per replica in the batched case)
//!   drives neighbour sampling exactly as in the static kernels;
//! * a dedicated *churn* RNG, seeded at construction, drives topology
//!   evolution.
//!
//! Because the streams never interleave, a run with churn rate 0
//! (`ChurnModel::is_static`) consumes the step RNG identically to the
//! static kernels and is therefore **bit-identical** to them — the
//! equivalence suite (`tests/batch_equivalence.rs`) gates this on the
//! full scenario matrix. And because churn draws only from its own RNG,
//! the topology trajectory of a [`DynamicReplicaBatch`] is independent of
//! how many replicas share it, preserving the Monte-Carlo runner's
//! schedule-independence guarantee.
//!
//! [`StepKernel`]: crate::StepKernel
//! [`VoterKernel`]: crate::VoterKernel

use crate::driver::{
    Averaging, AveragingDriver, Budget, Driver, Stop, Topology, Voter, VoterDriver,
};
use crate::engine::{resolve_threads, validate_epsilon, ConvergenceReport};
use crate::error::CoreError;
use crate::kernel::{
    count_discordant_edges, run_steps, run_voter_steps, slice_average, slice_potential_pi,
    slice_weighted_average, validate_opinions, validate_values, KernelSpec, PiWeights,
};
use crate::voter::VoterReport;
use od_graph::{ChurnModel, CommitOutcome, DynamicGraph, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The evolving topology a dynamic kernel or batch owns: the dynamic
/// graph, the churn model with its dedicated RNG, and the epoch and
/// mutation counters.
#[derive(Debug, Clone)]
pub(crate) struct Environment {
    pub(crate) graph: DynamicGraph,
    pub(crate) churn: ChurnModel,
    rng: StdRng,
    /// Epoch boundaries crossed so far.
    pub(crate) epoch: u64,
    /// Total elementary topology mutations applied so far.
    pub(crate) mutations: u64,
}

impl Environment {
    /// Commits `graph`'s pending mutations and seeds the churn RNG with
    /// `churn_seed`.
    pub(crate) fn new(mut graph: DynamicGraph, churn: ChurnModel, churn_seed: u64) -> Self {
        graph.commit();
        Environment {
            graph,
            churn,
            rng: StdRng::seed_from_u64(churn_seed),
            epoch: 0,
            mutations: 0,
        }
    }

    /// The committed CSR.
    pub(crate) fn graph(&self) -> &Graph {
        self.graph.graph()
    }

    /// One epoch boundary: applies one epoch of churn, commits the delta
    /// into the CSR, and re-checks the sampling preconditions the kernels
    /// rely on — `spec` is `Some` for the averaging kernels (k ≤ d_min
    /// plus a non-empty edge set for the EdgeModel) and `None` for the
    /// voter path (every node needs at least one neighbour). The counters
    /// advance only when the epoch succeeds.
    ///
    /// Degree-preserving churn (edge swaps) skips the O(n) revalidation —
    /// the preconditions held before, so they still hold. Returns the
    /// number of elementary mutations and the commit's route (which tells
    /// callers caching per-degree data whether the degree sequence moved).
    pub(crate) fn advance(
        &mut self,
        spec: Option<KernelSpec>,
    ) -> Result<(u64, CommitOutcome), CoreError> {
        let mut outcome = CommitOutcome::Unchanged;
        let mut applied = 0;
        if !self.churn.is_static() {
            applied = self
                .churn
                .apply(&mut self.graph, self.epoch, &mut self.rng)
                .map_err(CoreError::ChurnFailed)? as u64;
            outcome = self.graph.commit();
            if !self.churn.preserves_degrees() {
                match spec {
                    Some(spec) => {
                        spec.validate(self.graph())?;
                        if self.graph.m() == 0 {
                            return Err(CoreError::Disconnected);
                        }
                    }
                    None if self.graph().min_degree() == 0 => {
                        return Err(CoreError::InvalidSampleSize { k: 1, d_min: 0 });
                    }
                    None => {}
                }
            }
        }
        self.epoch += 1;
        self.mutations += applied;
        Ok((applied, outcome))
    }
}

/// [`StepKernel`](crate::StepKernel) over an evolving topology.
///
/// # Example
///
/// ```
/// use od_core::{DynamicStepKernel, KernelSpec, NodeModelParams};
/// use od_graph::{generators, ChurnModel, DynamicGraph};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let graph = DynamicGraph::new(generators::torus(16, 16)?);
/// let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2)?);
/// let xi0: Vec<f64> = (0..256).map(f64::from).collect();
/// // 8 degree-preserving edge swaps between epochs of 256 steps.
/// let mut kernel =
///     DynamicStepKernel::new(graph, xi0, spec, ChurnModel::edge_swap(8), 42)?;
/// let mut rng = StdRng::seed_from_u64(7);
/// for _ in 0..50 {
///     kernel.step_epoch(256, &mut rng)?;
/// }
/// assert_eq!(kernel.time(), 50 * 256);
/// assert_eq!(kernel.epoch(), 50);
/// assert!(kernel.mutations() > 0);
/// kernel.graph().check_invariants()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicStepKernel {
    env: Environment,
    spec: KernelSpec,
    values: Vec<f64>,
    sample: Vec<NodeId>,
    perm: Vec<u32>,
    time: u64,
}

impl DynamicStepKernel {
    /// Creates a dynamic kernel on the given topology. Pending mutations
    /// on `graph` are committed first; validation then mirrors
    /// [`crate::StepKernel::new`] on the committed CSR. `churn_seed`
    /// seeds the dedicated churn RNG.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`].
    pub fn new(
        graph: DynamicGraph,
        initial_values: Vec<f64>,
        spec: KernelSpec,
        churn: ChurnModel,
        churn_seed: u64,
    ) -> Result<Self, CoreError> {
        let env = Environment::new(graph, churn, churn_seed);
        validate_values(env.graph(), &initial_values)?;
        spec.validate(env.graph())?;
        let (sample, perm) = spec.scratch(env.graph());
        Ok(DynamicStepKernel {
            env,
            spec,
            values: initial_values,
            sample,
            perm,
            time: 0,
        })
    }

    /// The committed CSR the kernel is currently stepping over.
    pub fn graph(&self) -> &Graph {
        self.env.graph()
    }

    /// The underlying dynamic graph (rebuild/patch counters, logical
    /// view).
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.env.graph
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        self.spec
    }

    /// The churn model evolving the topology.
    pub fn churn(&self) -> &ChurnModel {
        &self.env.churn
    }

    /// The current value vector `ξ(t)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Epoch boundaries crossed so far.
    pub fn epoch(&self) -> u64 {
        self.env.epoch
    }

    /// Total elementary topology mutations applied so far.
    pub fn mutations(&self) -> u64 {
        self.env.mutations
    }

    /// Advances one epoch: `steps` process steps on the frozen topology,
    /// then one churn application + commit at the boundary. Returns the
    /// number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChurnFailed`] if the churn model errors;
    /// [`CoreError::InvalidSampleSize`] / [`CoreError::Disconnected`] if
    /// degree-changing churn broke the kernel's sampling preconditions
    /// (the values are left at the epoch boundary, so the caller can
    /// inspect them).
    pub fn step_epoch<R: RngCore + ?Sized>(
        &mut self,
        steps: u64,
        rng: &mut R,
    ) -> Result<u64, CoreError> {
        run_steps(
            self.env.graph(),
            self.spec,
            &mut self.values,
            &mut self.sample,
            &mut self.perm,
            steps,
            rng,
        );
        self.time += steps;
        Ok(self.env.advance(Some(self.spec))?.0)
    }

    /// Runs `epochs` epochs of `steps_per_epoch` steps each.
    ///
    /// # Errors
    ///
    /// See [`DynamicStepKernel::step_epoch`].
    pub fn step_epochs<R: RngCore + ?Sized>(
        &mut self,
        epochs: u64,
        steps_per_epoch: u64,
        rng: &mut R,
    ) -> Result<(), CoreError> {
        for _ in 0..epochs {
            self.step_epoch(steps_per_epoch, rng)?;
        }
        Ok(())
    }

    /// `Avg(t) = (1/n) Σ ξ_u(t)`. O(n).
    pub fn average(&self) -> f64 {
        slice_average(&self.values)
    }

    /// `M(t) = Σ π_u ξ_u(t)` with `π_u = d_u/2m` on the **current**
    /// topology. O(n). Note that under degree-changing churn the weights
    /// move with the graph, so `M` is only a martingale within an epoch.
    pub fn weighted_average(&self) -> f64 {
        slice_weighted_average(self.env.graph(), &self.values)
    }

    /// The potential `φ(ξ(t))` (Eq. 3) on the current topology. O(n).
    pub fn potential_pi(&self) -> f64 {
        slice_potential_pi(self.env.graph(), &self.values)
    }

    /// Discrepancy `K = max ξ − min ξ`. O(n).
    pub fn discrepancy(&self) -> f64 {
        od_linalg::vector::discrepancy(&self.values)
    }
}

/// [`VoterKernel`](crate::VoterKernel) over an evolving topology.
#[derive(Debug, Clone)]
pub struct DynamicVoterKernel {
    env: Environment,
    opinions: Vec<u32>,
    time: u64,
}

impl DynamicVoterKernel {
    /// Creates a dynamic voter kernel (validation mirrors
    /// [`crate::VoterKernel::new`] on the committed CSR).
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] or [`CoreError::LengthMismatch`].
    pub fn new(
        graph: DynamicGraph,
        opinions: Vec<u32>,
        churn: ChurnModel,
        churn_seed: u64,
    ) -> Result<Self, CoreError> {
        let env = Environment::new(graph, churn, churn_seed);
        validate_opinions(env.graph(), &opinions)?;
        Ok(DynamicVoterKernel {
            env,
            opinions,
            time: 0,
        })
    }

    /// The committed CSR the kernel is currently stepping over.
    pub fn graph(&self) -> &Graph {
        self.env.graph()
    }

    /// The underlying dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.env.graph
    }

    /// Current opinions.
    pub fn opinions(&self) -> &[u32] {
        &self.opinions
    }

    /// Steps taken so far.
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Epoch boundaries crossed so far.
    pub fn epoch(&self) -> u64 {
        self.env.epoch
    }

    /// Total elementary topology mutations applied so far.
    pub fn mutations(&self) -> u64 {
        self.env.mutations
    }

    /// Advances one epoch of `steps` voter steps, then churns. Returns
    /// the number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// [`CoreError::ChurnFailed`] if the churn model errors;
    /// [`CoreError::InvalidSampleSize`] if churn isolated a node (the
    /// voter step samples a uniform neighbour, so every node needs
    /// degree ≥ 1).
    pub fn step_epoch<R: RngCore + ?Sized>(
        &mut self,
        steps: u64,
        rng: &mut R,
    ) -> Result<u64, CoreError> {
        run_voter_steps(self.env.graph(), &mut self.opinions, steps, rng);
        self.time += steps;
        Ok(self.env.advance(None)?.0)
    }

    /// Whether all nodes share one opinion. O(n).
    pub fn is_consensus(&self) -> bool {
        self.opinions.windows(2).all(|w| w[0] == w[1])
    }
}

/// [`ReplicaBatch`](crate::ReplicaBatch) over an evolving topology: `R`
/// independent replicas of the averaging process share **one** evolving
/// environment.
///
/// All replicas see the same topology trajectory (churn draws from one
/// dedicated RNG, once per epoch, regardless of `R`), while each replica
/// keeps its own value vector and step RNG. A replica's trajectory is
/// therefore a function of `(churn_seed, its own seed)` only — identical
/// whether it runs alone or with many others, which is what lets
/// `monte_carlo_batched` sweeps over dynamic graphs stay independent of
/// batch size.
#[derive(Debug, Clone)]
pub struct DynamicReplicaBatch {
    env: Environment,
    /// The spec plus the π weights of the committed topology, refreshed
    /// whenever a commit changes the degree sequence.
    kind: Averaging,
    /// Replica-major `R × n` values, step RNGs and loop state; per
    /// replica (original order), `mutations` at the boundary where it
    /// last retired from `run_until_converged`.
    driver: AveragingDriver,
    time: u64,
}

impl DynamicReplicaBatch {
    /// Creates `seeds.len()` replicas on a shared evolving topology, all
    /// starting from `xi0`, replica `r` seeded with `seeds[r]`.
    ///
    /// # Errors
    ///
    /// The same as [`crate::StepKernel::new`].
    pub fn new(
        graph: DynamicGraph,
        spec: KernelSpec,
        xi0: &[f64],
        seeds: &[u64],
        churn: ChurnModel,
        churn_seed: u64,
    ) -> Result<Self, CoreError> {
        let env = Environment::new(graph, churn, churn_seed);
        validate_values(env.graph(), xi0)?;
        spec.validate(env.graph())?;
        // Rows before π weights: the reverse order left the allocator's
        // heap fragmented across requests (1.5–3.5 MB more peak RSS on the
        // `churn_converge` benchmark, 2-vCPU Xeon VM).
        let driver = Driver::batch(xi0, seeds, Vec::new(), ConvergenceReport::default());
        Ok(DynamicReplicaBatch {
            kind: Averaging::new(spec, PiWeights::new(env.graph())),
            env,
            driver,
            time: 0,
        })
    }

    /// The committed CSR shared by every replica.
    pub fn graph(&self) -> &Graph {
        self.env.graph()
    }

    /// The underlying dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.env.graph
    }

    /// The model spec.
    pub fn spec(&self) -> KernelSpec {
        self.kind.spec
    }

    /// Number of replicas `R`.
    pub fn replicas(&self) -> usize {
        self.driver.replicas()
    }

    /// Nodes per replica.
    pub fn n(&self) -> usize {
        self.driver.n
    }

    /// Steps taken so far (common to all replicas).
    pub fn time(&self) -> u64 {
        self.time
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
    /// when replica `r` retired from the last
    /// [`DynamicReplicaBatch::run_until_converged`] — the per-trial count
    /// (see there); 0 before the first call.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_mutations(&self, r: usize) -> u64 {
        self.driver.mutations[r]
    }

    /// Replica `r`'s value vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_values(&self, r: usize) -> &[f64] {
        self.driver.row(r)
    }

    /// Advances every replica by `steps` steps on the frozen topology,
    /// then applies **one** churn epoch shared by all replicas. Returns
    /// the number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// See [`DynamicStepKernel::step_epoch`].
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.driver.step_all(&self.kind, self.env.graph(), steps);
        self.time += steps;
        let replicas = self.driver.replicas();
        self.driver.churn(&mut self.kind, &mut self.env, replicas)
    }

    /// Drives every replica to ε-convergence or to `max_epochs` epochs of
    /// `steps_per_epoch` steps each, churning the shared topology at every
    /// epoch boundary. Returns one [`ConvergenceReport`] per replica in
    /// original replica order (`steps` counts process steps, so converged
    /// replicas report multiples of `steps_per_epoch`).
    ///
    /// The dynamic sibling of [`crate::ReplicaBatch::run_until_converged`]:
    /// live replicas are stepped in parallel on the frozen topology
    /// (`threads` scoped workers, 0 = available parallelism), then the
    /// epoch's churn is applied and committed, and `φ` is evaluated on the
    /// **post-churn** topology — the same block-granular stopping rule the
    /// DYN-CHURN sweep has always used. Converged replicas retire early
    /// and the SoA buffer is compacted; because churn draws from its own
    /// dedicated RNG once per epoch regardless of how many replicas are
    /// live, every replica's trajectory and stopping time is a function of
    /// `(churn_seed, its own seed)` only — independent of thread count,
    /// retirement order and batch size.
    ///
    /// Each replica also records the environment's cumulative mutation
    /// count ([`DynamicReplicaBatch::mutations`]) at its own retirement
    /// boundary — the epoch it converged at, or the last boundary of the
    /// budget — readable afterwards through
    /// [`DynamicReplicaBatch::replica_mutations`]. Like the stopping time
    /// it depends only on `(churn_seed, its own seed)`, whereas
    /// `mutations()` counts how long the whole batch kept churning, so it
    /// grows with the slowest replica sharing the batch.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidEpsilon`] for a negative or non-finite
    /// threshold; otherwise the same errors as
    /// [`DynamicStepKernel::step_epoch`] (the values are left at the
    /// failing epoch boundary).
    pub fn run_until_converged(
        &mut self,
        steps_per_epoch: u64,
        max_epochs: u64,
        epsilon: f64,
        threads: usize,
    ) -> Result<Vec<ConvergenceReport>, CoreError> {
        validate_epsilon(epsilon)?;
        self.kind.epsilon = epsilon;
        let topology = &mut Topology::Churned(&mut self.env);
        let budget = Budget::epochs(steps_per_epoch, max_epochs);
        let threads = resolve_threads(threads);
        let kind = &mut self.kind;
        self.driver.run(
            kind,
            topology,
            Stop::Boundary,
            budget,
            threads,
            &mut self.time,
        )?;
        Ok(self.driver.reports.clone())
    }

    /// `Avg(t)` of replica `r`. O(n).
    pub fn replica_average(&self, r: usize) -> f64 {
        slice_average(self.replica_values(r))
    }

    /// `M(t) = Σ π_u ξ_u(t)` of replica `r` on the current topology.
    /// O(n).
    pub fn replica_weighted_average(&self, r: usize) -> f64 {
        slice_weighted_average(self.env.graph(), self.replica_values(r))
    }

    /// The potential `φ(ξ(t))` (Eq. 3) of replica `r` on the current
    /// topology. O(n).
    pub fn replica_potential_pi(&self, r: usize) -> f64 {
        slice_potential_pi(self.env.graph(), self.replica_values(r))
    }
}

/// One replica's outcome from
/// [`DynamicVoterBatch::run_to_consensus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DynamicVoterReport {
    /// Steps the replica ran before retiring (epoch-granular: consensus
    /// is detected at epoch boundaries, so this is a multiple of
    /// `steps_per_epoch`).
    pub steps: u64,
    /// The unanimous opinion, if consensus was reached within the budget.
    pub winner: Option<u32>,
    /// Elementary topology mutations the shared environment had applied
    /// by the time this replica retired.
    pub mutations: u64,
}

/// [`VoterBatch`](crate::VoterBatch) over an evolving topology: `R`
/// independent voter replicas share **one** evolving environment
/// (the voter sibling of [`DynamicReplicaBatch`]).
///
/// Each replica keeps its own opinion row, its own step RNG and an
/// incrementally maintained discordant-edge count; churn draws from one
/// dedicated RNG once per epoch regardless of `R`, so every replica's
/// trajectory is a function of `(churn_seed, its own seed)` only —
/// independent of batch size, retirement order and thread count, exactly
/// like the averaging batches.
///
/// The discord counter makes the per-epoch consensus check O(1) per
/// replica instead of the former O(n) opinion scan; it is **recomputed
/// at churn boundaries** (one O(m) sweep per live replica, only after an
/// epoch whose churn actually mutated the topology or failed), because
/// moving edges invalidates the incremental count.
#[derive(Debug, Clone)]
pub struct DynamicVoterBatch {
    env: Environment,
    /// Replica-major `R × n` opinions, step RNGs, per-replica
    /// discordant-edge counts on the committed topology, and loop state.
    driver: VoterDriver,
    time: u64,
}

impl DynamicVoterBatch {
    /// Creates `seeds.len()` voter replicas on a shared evolving
    /// topology, all starting from `opinions0`, replica `r` seeded with
    /// `seeds[r]`. Validation mirrors [`crate::VoterBatch::new`] on the
    /// committed CSR.
    ///
    /// # Errors
    ///
    /// [`CoreError::Disconnected`] or [`CoreError::LengthMismatch`].
    pub fn new(
        graph: DynamicGraph,
        opinions0: &[u32],
        seeds: &[u64],
        churn: ChurnModel,
        churn_seed: u64,
    ) -> Result<Self, CoreError> {
        let env = Environment::new(graph, churn, churn_seed);
        validate_opinions(env.graph(), opinions0)?;
        // All replicas start identical: one O(m) scan seeds every
        // incremental counter.
        let discords = vec![count_discordant_edges(env.graph(), opinions0); seeds.len()];
        let report0 = VoterReport {
            steps: 0,
            winner: None,
        };
        Ok(DynamicVoterBatch {
            env,
            driver: Driver::batch(opinions0, seeds, discords, report0),
            time: 0,
        })
    }

    /// The committed CSR shared by every replica.
    pub fn graph(&self) -> &Graph {
        self.env.graph()
    }

    /// The underlying dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.env.graph
    }

    /// Number of replicas `R`.
    pub fn replicas(&self) -> usize {
        self.driver.replicas()
    }

    /// Nodes per replica.
    pub fn n(&self) -> usize {
        self.driver.n
    }

    /// Steps taken so far (retired replicas stopped at their own
    /// [`DynamicVoterReport::steps`]).
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Epoch boundaries crossed so far.
    pub fn epoch(&self) -> u64 {
        self.env.epoch
    }

    /// Total elementary topology mutations applied so far.
    pub fn mutations(&self) -> u64 {
        self.env.mutations
    }

    /// Replica `r`'s opinion vector.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_opinions(&self, r: usize) -> &[u32] {
        self.driver.row(r)
    }

    /// Whether replica `r`'s opinions are unanimous. The O(1) discord
    /// count screens out the common case; zero discord only implies
    /// consensus on a *connected* topology, and degree-changing churn
    /// guarantees no more than `d_min >= 1`, so a zero count falls back
    /// to the O(n) scan the per-trial loop has always used.
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_is_consensus(&self, r: usize) -> bool {
        self.replica_discordant_edges(r) == 0
            && self.replica_opinions(r).windows(2).all(|w| w[0] == w[1])
    }

    /// Number of edges whose endpoints disagree in replica `r`, on the
    /// current committed topology. O(1).
    ///
    /// # Panics
    ///
    /// Panics if `r >= replicas()`.
    pub fn replica_discordant_edges(&self, r: usize) -> u64 {
        assert!(r < self.replicas(), "replica {r} out of range");
        self.driver.extra[r]
    }

    /// Advances every replica by `steps` voter steps on the frozen
    /// topology, then applies **one** churn epoch shared by all replicas
    /// (recomputing the discord counters when churn mutated the
    /// topology). Returns the number of elementary mutations this epoch.
    ///
    /// # Errors
    ///
    /// See [`DynamicVoterKernel::step_epoch`].
    pub fn step_epoch(&mut self, steps: u64) -> Result<u64, CoreError> {
        self.driver.step_all(&Voter, self.env.graph(), steps);
        self.time += steps;
        let replicas = self.driver.replicas();
        self.driver.churn(&mut Voter, &mut self.env, replicas)
    }

    /// Drives every replica to consensus or to `max_epochs` epochs of
    /// `steps_per_epoch` steps each, churning the shared topology at
    /// every epoch boundary. Returns one [`DynamicVoterReport`] per
    /// replica in original replica order.
    ///
    /// Consensus is checked at epoch boundaries (before the first epoch
    /// and after each churn), so stopping times are **epoch-granular and
    /// bit-identical to the per-trial [`DynamicVoterKernel`] loop** the
    /// scenario dispatcher used before this driver existed: live
    /// replicas step the *full* epoch (consensus is absorbing — the
    /// draws a scalar loop would burn past consensus touch nothing),
    /// across `threads` scoped workers (0 = available parallelism), and
    /// converged replicas retire early with the SoA buffer compacted.
    /// Each retired replica records the mutation count of the shared
    /// environment at its own retirement boundary, exactly as a solo
    /// kernel run would.
    ///
    /// # Errors
    ///
    /// The same as [`DynamicVoterKernel::step_epoch`] (the opinions are
    /// left at the failing epoch boundary).
    pub fn run_to_consensus(
        &mut self,
        steps_per_epoch: u64,
        max_epochs: u64,
        threads: usize,
    ) -> Result<Vec<DynamicVoterReport>, CoreError> {
        let topology = &mut Topology::Churned(&mut self.env);
        let budget = Budget::epochs(steps_per_epoch, max_epochs);
        let threads = resolve_threads(threads);
        self.driver.run(
            &mut Voter,
            topology,
            Stop::Boundary,
            budget,
            threads,
            &mut self.time,
        )?;
        let reports = self.driver.reports.iter().zip(&self.driver.mutations);
        Ok(reports
            .map(|(report, &mutations)| DynamicVoterReport {
                steps: report.steps,
                winner: report.winner,
                mutations,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EdgeModelParams, NodeModelParams, ReplicaBatch, StepKernel, VoterKernel};
    use od_graph::generators;

    fn assert_bits_identical(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "diverged at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn static_churn_is_bit_identical_to_static_kernel() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(|i| f64::from(i) * 0.3 - 5.0).collect();
        for spec in [
            KernelSpec::Node(NodeModelParams::new(0.4, 2).unwrap()),
            KernelSpec::Edge(EdgeModelParams::new(0.6).unwrap()),
        ] {
            let mut kernel = StepKernel::new(&g, xi0.clone(), spec).unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            kernel.step_many(4_000, &mut rng);

            let mut dynamic = DynamicStepKernel::new(
                DynamicGraph::new(g.clone()),
                xi0.clone(),
                spec,
                ChurnModel::Static,
                999, // churn seed is irrelevant at rate 0
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(11);
            dynamic.step_epochs(8, 500, &mut rng).unwrap();
            assert_bits_identical(kernel.values(), dynamic.values());
            assert_eq!(dynamic.time(), 4_000);
            assert_eq!(dynamic.epoch(), 8);
            assert_eq!(dynamic.mutations(), 0);
        }
    }

    #[test]
    fn swap_churn_changes_topology_but_keeps_degrees() {
        let g = generators::torus(8, 8).unwrap();
        let degrees = g.degree_sequence();
        let xi0: Vec<f64> = (0..64).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let mut kernel =
            DynamicStepKernel::new(DynamicGraph::new(g), xi0, spec, ChurnModel::edge_swap(4), 3)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        kernel.step_epochs(30, 64, &mut rng).unwrap();
        assert!(kernel.mutations() > 0);
        assert_eq!(kernel.graph().degree_sequence(), degrees);
        kernel.graph().check_invariants().unwrap();
        // Degree-preserving commits stay on the patch path.
        assert_eq!(kernel.dynamic_graph().rebuilds(), 0);
        assert!(kernel.dynamic_graph().patches() > 0);
        assert!(kernel.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn rewire_churn_below_node_floor_errors() {
        // NodeModel k=2 on a cycle (d_min = 2): rewiring with floor 1 can
        // drop a node to degree 1, which must surface as a validation
        // error, not a panic in the sampler.
        let g = generators::cycle(12).unwrap();
        let xi0: Vec<f64> = (0..12).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let mut kernel =
            DynamicStepKernel::new(DynamicGraph::new(g), xi0, spec, ChurnModel::rewire(6, 1), 5)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut saw_error = false;
        for _ in 0..50 {
            match kernel.step_epoch(12, &mut rng) {
                Ok(_) => {}
                Err(CoreError::InvalidSampleSize { k: 2, d_min }) => {
                    assert!(d_min < 2);
                    saw_error = true;
                    break;
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(saw_error, "floor-1 rewiring never dropped below k=2");
    }

    #[test]
    fn rewire_with_adequate_floor_keeps_running() {
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let mut kernel =
            DynamicStepKernel::new(DynamicGraph::new(g), xi0, spec, ChurnModel::rewire(3, 2), 5)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        kernel.step_epochs(40, 36, &mut rng).unwrap();
        assert!(kernel.mutations() > 0);
        assert!(kernel.graph().min_degree() >= 2);
        kernel.graph().check_invariants().unwrap();
    }

    #[test]
    fn dynamic_voter_static_matches_kernel() {
        let g = generators::hypercube(4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 3).collect();
        let mut kernel = VoterKernel::new(&g, ops0.clone()).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        kernel.step_many(2_000, &mut rng);

        let mut dynamic =
            DynamicVoterKernel::new(DynamicGraph::new(g.clone()), ops0, ChurnModel::Static, 1)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..4 {
            dynamic.step_epoch(500, &mut rng).unwrap();
        }
        assert_eq!(kernel.opinions(), dynamic.opinions());
        assert_eq!(kernel.is_consensus(), dynamic.is_consensus());
    }

    #[test]
    fn dynamic_voter_survives_temporal_replay() {
        let a: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 1) % 8)).collect();
        let b: Vec<(u32, u32)> = (0..8).map(|i| (i, (i + 3) % 8)).collect();
        let churn = ChurnModel::temporal_replay(vec![a.clone(), b]).unwrap();
        let graph = DynamicGraph::from_edges(8, &a).unwrap();
        let mut voter = DynamicVoterKernel::new(graph, (0..8).collect(), churn, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            voter.step_epoch(32, &mut rng).unwrap();
            voter.graph().check_invariants().unwrap();
        }
        assert_eq!(voter.time(), 640);
        assert_eq!(voter.mutations(), 20 * 8);
    }

    #[test]
    fn replica_trajectories_independent_of_batch_size() {
        // The churn stream is shared but replica-count independent: the
        // seed-7 replica sees the same evolving topology (and therefore
        // the same trajectory) alone or with 3 batch-mates.
        let g = generators::torus(5, 5).unwrap();
        let xi0: Vec<f64> = (0..25).map(|i| f64::from(i) - 12.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.3, 2).unwrap());
        let churn = ChurnModel::edge_swap(2);
        let churn_seed = 77;

        let mut solo = DynamicReplicaBatch::new(
            DynamicGraph::new(g.clone()),
            spec,
            &xi0,
            &[7],
            churn.clone(),
            churn_seed,
        )
        .unwrap();
        let mut wide = DynamicReplicaBatch::new(
            DynamicGraph::new(g),
            spec,
            &xi0,
            &[7, 8, 9, 10],
            churn,
            churn_seed,
        )
        .unwrap();
        for _ in 0..12 {
            solo.step_epoch(100).unwrap();
            wide.step_epoch(100).unwrap();
        }
        assert_bits_identical(solo.replica_values(0), wide.replica_values(0));
        assert_eq!(solo.mutations(), wide.mutations());
    }

    #[test]
    fn static_replica_batch_matches_static_path() {
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let seeds = [1u64, 2, 3];
        let mut fixed = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        for _ in 0..6 {
            fixed.step_many(200);
        }
        let mut dynamic = DynamicReplicaBatch::new(
            DynamicGraph::new(g.clone()),
            spec,
            &xi0,
            &seeds,
            ChurnModel::edge_swap(0), // rate 0 spelled differently
            123,
        )
        .unwrap();
        for _ in 0..6 {
            dynamic.step_epoch(200).unwrap();
        }
        for r in 0..seeds.len() {
            assert_bits_identical(fixed.replica_values(r), dynamic.replica_values(r));
            assert_eq!(
                fixed.replica_potential_pi(r),
                dynamic.replica_potential_pi(r)
            );
        }
        assert_eq!(dynamic.dynamic_graph().rebuilds(), 0);
        assert_eq!(dynamic.dynamic_graph().patches(), 0);
    }

    #[test]
    fn dynamic_converge_matches_hand_rolled_epoch_loop() {
        // The engine must reproduce the exact stopping rule the DYN-CHURN
        // sweep used before it: potential checked on the post-churn
        // topology at every epoch boundary, time recorded as the boundary
        // step count.
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) - 7.5).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [21u64, 22, 23, 24];
        let eps = 1e-10;
        let (steps_per_epoch, max_epochs) = (16u64, 600u64);
        let make = || {
            DynamicReplicaBatch::new(
                DynamicGraph::new(g.clone()),
                spec,
                &xi0,
                &seeds,
                ChurnModel::edge_swap(2),
                77,
            )
            .unwrap()
        };

        // Hand-rolled reference: step every replica every epoch, record
        // the first boundary at which each satisfies the threshold.
        let mut reference = make();
        let mut done: Vec<Option<u64>> = vec![None; seeds.len()];
        while reference.epoch() < max_epochs && done.iter().any(Option::is_none) {
            reference.step_epoch(steps_per_epoch).unwrap();
            for (r, slot) in done.iter_mut().enumerate() {
                if slot.is_none() && reference.replica_potential_pi(r) <= eps {
                    *slot = Some(reference.time());
                }
            }
        }

        for threads in [1usize, 4] {
            let mut engine = make();
            let reports = engine
                .run_until_converged(steps_per_epoch, max_epochs, eps, threads)
                .unwrap();
            for (r, report) in reports.iter().enumerate() {
                assert_eq!(
                    done[r],
                    report.converged.then_some(report.steps),
                    "replica {r} stopping time (threads={threads})"
                );
            }
            assert!(reports.iter().all(|r| r.converged), "scenario converges");
        }
    }

    #[test]
    fn boundary_weights_follow_degree_changing_commits() {
        // Rewires move degrees (`Shifted` commits). The boundary (φ, M)
        // read through the cached π weights must stay bit-identical to
        // the on-demand evaluation on the post-churn topology; stale
        // weights would change M and φ.
        let g = generators::torus(6, 6).unwrap();
        let xi0: Vec<f64> = (0..36).map(|i| (f64::from(i) * 0.9).cos()).collect();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let seeds = [3u64, 4, 5, 6, 7];
        let mut batch = DynamicReplicaBatch::new(
            DynamicGraph::new(g),
            spec,
            &xi0,
            &seeds,
            ChurnModel::rewire(4, 2),
            31,
        )
        .unwrap();
        let assert_boundary_matches =
            |batch: &DynamicReplicaBatch, reports: &[ConvergenceReport]| {
                for (r, report) in reports.iter().enumerate() {
                    let (phi, mu) = crate::kernel::slice_potential_and_mean(
                        batch.graph(),
                        batch.replica_values(r),
                    );
                    assert_eq!(report.potential.to_bits(), phi.to_bits(), "replica {r}");
                    assert_eq!(
                        report.weighted_average.to_bits(),
                        mu.to_bits(),
                        "replica {r}"
                    );
                }
            };
        // Degrees moved by `step_epoch`; a zero-epoch run is one boundary
        // evaluation of the committed topology (ε = 0 retires nobody).
        batch.step_epoch(40).unwrap();
        assert_eq!(batch.dynamic_graph().shifted_patches(), 1);
        let reports = batch.run_until_converged(0, 0, 0.0, 1).unwrap();
        assert_boundary_matches(&batch, &reports);
        // Degrees moved by the converge loop's own epochs.
        let reports = batch.run_until_converged(40, 5, 0.0, 2).unwrap();
        assert_eq!(batch.dynamic_graph().shifted_patches(), 6);
        assert_boundary_matches(&batch, &reports);
    }

    #[test]
    fn dynamic_converge_independent_of_batch_size() {
        let g = generators::torus(4, 4).unwrap();
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i) * 0.4 - 3.0).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 2).unwrap());
        let seeds = [5u64, 6, 7, 8];
        let run = |seed_set: &[u64]| {
            let mut batch = DynamicReplicaBatch::new(
                DynamicGraph::new(g.clone()),
                spec,
                &xi0,
                seed_set,
                ChurnModel::edge_swap(3),
                13,
            )
            .unwrap();
            batch.run_until_converged(16, 500, 1e-9, 1).unwrap()
        };
        let wide = run(&seeds);
        for (r, &seed) in seeds.iter().enumerate() {
            let solo = run(&[seed]);
            assert_eq!(solo[0], wide[r], "replica {r} depends on batch size");
        }
    }

    #[test]
    fn dynamic_converge_rate0_equals_static_engine() {
        let g = generators::complete(10).unwrap();
        let xi0: Vec<f64> = (0..10).map(f64::from).collect();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        let seeds = [1u64, 2, 3];
        let (eps, steps_per_epoch) = (1e-9, 25u64);
        let mut fixed = ReplicaBatch::new(&g, spec, &xi0, &seeds).unwrap();
        let static_reports = fixed
            .run_until_converged(
                crate::ConvergeConfig::new(eps, 500 * steps_per_epoch)
                    .with_check_every(steps_per_epoch),
            )
            .unwrap();
        let mut dynamic = DynamicReplicaBatch::new(
            DynamicGraph::new(g.clone()),
            spec,
            &xi0,
            &seeds,
            ChurnModel::Static,
            99,
        )
        .unwrap();
        let dynamic_reports = dynamic
            .run_until_converged(steps_per_epoch, 500, eps, 2)
            .unwrap();
        assert_eq!(static_reports, dynamic_reports);
        for r in 0..seeds.len() {
            assert_bits_identical(fixed.replica_values(r), dynamic.replica_values(r));
        }
    }

    #[test]
    fn dynamic_converge_rejects_bad_epsilon() {
        let g = generators::cycle(6).unwrap();
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        let mut batch = DynamicReplicaBatch::new(
            DynamicGraph::new(g),
            spec,
            &[0.0; 6],
            &[1],
            ChurnModel::Static,
            0,
        )
        .unwrap();
        assert!(matches!(
            batch.run_until_converged(10, 10, f64::NAN, 1),
            Err(CoreError::InvalidEpsilon { .. })
        ));
    }

    /// The per-trial reference the scenario dispatcher used before
    /// `DynamicVoterBatch`: epoch loop on a solo `DynamicVoterKernel`,
    /// consensus checked (O(n) scan) at epoch boundaries.
    fn per_trial_voter_reference(
        g: &Graph,
        ops0: &[u32],
        seed: u64,
        churn: &ChurnModel,
        churn_seed: u64,
        steps_per_epoch: u64,
        max_epochs: u64,
    ) -> DynamicVoterReport {
        let mut kernel = DynamicVoterKernel::new(
            DynamicGraph::new(g.clone()),
            ops0.to_vec(),
            churn.clone(),
            churn_seed,
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        while kernel.epoch() < max_epochs && !kernel.is_consensus() {
            kernel.step_epoch(steps_per_epoch, &mut rng).unwrap();
        }
        let consensus = kernel.is_consensus();
        DynamicVoterReport {
            steps: kernel.time(),
            winner: consensus.then(|| kernel.opinions()[0]),
            mutations: kernel.mutations(),
        }
    }

    #[test]
    fn dynamic_voter_batch_matches_per_trial_loop() {
        // The batched driver must pin consensus times (and winners and
        // per-replica mutation counts) bit-identical to the per-trial
        // kernel loop, for every thread count.
        let g = generators::torus(4, 4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 4).collect();
        let seeds = [31u64, 32, 33, 34, 35];
        let (steps_per_epoch, max_epochs) = (8u64, 40_000u64);
        for churn in [
            ChurnModel::Static,
            ChurnModel::edge_swap(2),
            ChurnModel::rewire(1, 1),
        ] {
            let expected: Vec<DynamicVoterReport> = seeds
                .iter()
                .map(|&s| {
                    per_trial_voter_reference(&g, &ops0, s, &churn, 55, steps_per_epoch, max_epochs)
                })
                .collect();
            for threads in [1usize, 3] {
                let mut batch = DynamicVoterBatch::new(
                    DynamicGraph::new(g.clone()),
                    &ops0,
                    &seeds,
                    churn.clone(),
                    55,
                )
                .unwrap();
                let reports = batch
                    .run_to_consensus(steps_per_epoch, max_epochs, threads)
                    .unwrap();
                assert_eq!(reports, expected, "churn {churn:?}, threads {threads}");
                assert!(reports.iter().all(|r| r.winner.is_some()));
            }
        }
    }

    #[test]
    fn dynamic_voter_batch_consensus_independent_of_batch_size() {
        let g = generators::hypercube(3).unwrap();
        let ops0: Vec<u32> = (0..8).collect();
        let seeds = [3u64, 4, 5, 6];
        let run = |seed_set: &[u64]| {
            let mut batch = DynamicVoterBatch::new(
                DynamicGraph::new(g.clone()),
                &ops0,
                seed_set,
                ChurnModel::edge_swap(1),
                9,
            )
            .unwrap();
            batch.run_to_consensus(16, 50_000, 1).unwrap()
        };
        let wide = run(&seeds);
        for (r, &seed) in seeds.iter().enumerate() {
            let solo = run(&[seed]);
            assert_eq!(solo[0], wide[r], "replica {r} depends on batch size");
        }
    }

    #[test]
    fn dynamic_voter_batch_step_epoch_matches_per_trial_kernel() {
        // Fixed-horizon stepping: opinions after E epochs must equal the
        // per-trial kernel's, and the incremental discord counts must
        // match a brute-force recount after every churn boundary.
        let g = generators::torus(5, 5).unwrap();
        let ops0: Vec<u32> = (0..25).map(|i| i % 3).collect();
        let seeds = [11u64, 12, 13];
        let churn = ChurnModel::rewire(2, 1);
        let mut batch = DynamicVoterBatch::new(
            DynamicGraph::new(g.clone()),
            &ops0,
            &seeds,
            churn.clone(),
            21,
        )
        .unwrap();
        let mut kernels: Vec<(DynamicVoterKernel, StdRng)> = seeds
            .iter()
            .map(|&s| {
                (
                    DynamicVoterKernel::new(
                        DynamicGraph::new(g.clone()),
                        ops0.clone(),
                        churn.clone(),
                        21,
                    )
                    .unwrap(),
                    StdRng::seed_from_u64(s),
                )
            })
            .collect();
        for _ in 0..12 {
            batch.step_epoch(25).unwrap();
            for (r, (kernel, rng)) in kernels.iter_mut().enumerate() {
                kernel.step_epoch(25, rng).unwrap();
                assert_eq!(kernel.opinions(), batch.replica_opinions(r));
                assert_eq!(kernel.is_consensus(), batch.replica_is_consensus(r));
                let brute = batch
                    .graph()
                    .edges()
                    .filter(|&(u, v)| {
                        batch.replica_opinions(r)[u as usize]
                            != batch.replica_opinions(r)[v as usize]
                    })
                    .count() as u64;
                assert_eq!(batch.replica_discordant_edges(r), brute, "replica {r}");
            }
        }
        assert_eq!(batch.time(), 12 * 25);
        assert!(batch.mutations() > 0);
    }

    #[test]
    fn dynamic_voter_batch_entry_and_empty_cases() {
        let g = generators::cycle(6).unwrap();
        // Already at consensus: zero steps, zero mutations, winner
        // reported — the per-trial loop's entry check.
        let mut batch = DynamicVoterBatch::new(
            DynamicGraph::new(g.clone()),
            &[7; 6],
            &[1, 2],
            ChurnModel::edge_swap(1),
            3,
        )
        .unwrap();
        let reports = batch.run_to_consensus(8, 1_000, 1).unwrap();
        for report in &reports {
            assert_eq!(
                *report,
                DynamicVoterReport {
                    steps: 0,
                    winner: Some(7),
                    mutations: 0
                }
            );
        }
        assert_eq!(batch.mutations(), 0, "no epoch ran, no churn applied");
        // Empty batch.
        let mut empty = DynamicVoterBatch::new(
            DynamicGraph::new(g.clone()),
            &[0, 1, 0, 1, 0, 1],
            &[],
            ChurnModel::Static,
            0,
        )
        .unwrap();
        assert!(empty.run_to_consensus(8, 10, 1).unwrap().is_empty());
        // Validation mirrors the static VoterBatch.
        assert!(matches!(
            DynamicVoterBatch::new(DynamicGraph::new(g), &[0; 4], &[1], ChurnModel::Static, 0),
            Err(CoreError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn construction_validation_matches_static() {
        let g = generators::cycle(5).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 3).unwrap());
        assert!(matches!(
            DynamicStepKernel::new(
                DynamicGraph::new(g.clone()),
                vec![0.0; 5],
                spec,
                ChurnModel::Static,
                0
            ),
            Err(CoreError::InvalidSampleSize { d_min: 2, .. })
        ));
        let spec = KernelSpec::Edge(EdgeModelParams::new(0.5).unwrap());
        assert!(matches!(
            DynamicStepKernel::new(
                DynamicGraph::new(g.clone()),
                vec![0.0; 3],
                spec,
                ChurnModel::Static,
                0
            ),
            Err(CoreError::LengthMismatch { .. })
        ));
        assert!(matches!(
            DynamicVoterKernel::new(DynamicGraph::new(g), vec![0; 4], ChurnModel::Static, 0),
            Err(CoreError::LengthMismatch { .. })
        ));
        let disconnected = od_graph::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            DynamicVoterKernel::new(
                DynamicGraph::new(disconnected),
                vec![0; 4],
                ChurnModel::Static,
                0
            ),
            Err(CoreError::Disconnected)
        ));
    }

    /// Every replica's discord count equals a recount on the committed
    /// topology — the contract `replica_discordant_edges` documents.
    fn assert_discords_current(batch: &DynamicVoterBatch, context: &str) {
        for r in 0..batch.replicas() {
            let recount = count_discordant_edges(batch.graph(), batch.replica_opinions(r));
            assert_eq!(
                batch.replica_discordant_edges(r),
                recount,
                "{context}: replica {r}"
            );
        }
    }

    #[test]
    fn voter_discords_follow_a_commit_whose_revalidation_failed() {
        // Rewiring with no degree floor eventually isolates a node: the
        // epoch's commit lands, then revalidation rejects it. The counts
        // must describe the committed (post-churn) topology all the same.
        let g = generators::cycle(12).unwrap();
        let ops0: Vec<u32> = (0..12).collect();
        let seeds = [1u64, 2, 3, 4];
        let isolated =
            |err: &CoreError| matches!(err, CoreError::InvalidSampleSize { k: 1, d_min: 0 });
        for churn_seed in 0..20u64 {
            let fresh = || {
                DynamicVoterBatch::new(
                    DynamicGraph::new(g.clone()),
                    &ops0,
                    &seeds,
                    ChurnModel::rewire(6, 0),
                    churn_seed,
                )
                .unwrap()
            };
            let mut stepped = fresh();
            let err = (0..1_000)
                .find_map(|_| stepped.step_epoch(12).err())
                .expect("rewiring without a floor isolates a node");
            assert!(isolated(&err), "churn seed {churn_seed}: {err:?}");
            assert_discords_current(&stepped, &format!("step_epoch, churn seed {churn_seed}"));

            let mut driven = fresh();
            let err = driven.run_to_consensus(12, 1_000, 2).unwrap_err();
            assert!(isolated(&err), "churn seed {churn_seed}: {err:?}");
            assert_discords_current(
                &driven,
                &format!("run_to_consensus, churn seed {churn_seed}"),
            );
        }
    }

    #[test]
    fn churn_error_mid_run_leaves_each_replica_as_its_solo_run() {
        // Rewiring without a degree floor fails mid-run, after some
        // replicas retired and while others are still live. Canonical
        // order must be restored on that path: replica r holds exactly
        // what a one-replica batch of seeds[r] holds after the same call
        // (which, for an early retiree, returns Ok before the failure).
        let seeds: Vec<u64> = (1..=6).collect();
        let g = generators::cycle(16).unwrap();
        let spec = KernelSpec::Node(NodeModelParams::new(0.5, 1).unwrap());
        let xi0: Vec<f64> = (0..16).map(|i| f64::from(i % 3)).collect();
        let averaging = |seeds: &[u64]| {
            DynamicReplicaBatch::new(
                DynamicGraph::new(g.clone()),
                spec,
                &xi0,
                seeds,
                ChurnModel::rewire(2, 0),
                2,
            )
            .unwrap()
        };
        for threads in [1usize, 2] {
            let mut wide = averaging(&seeds);
            assert!(wide.run_until_converged(16, 1_000, 0.1, threads).is_err());
            let mut retired = 0;
            for (r, &seed) in seeds.iter().enumerate() {
                let mut solo = averaging(&[seed]);
                retired += usize::from(solo.run_until_converged(16, 1_000, 0.1, 1).is_ok());
                assert_bits_identical(wide.replica_values(r), solo.replica_values(0));
            }
            assert!(0 < retired && retired < seeds.len(), "{retired} retired");
        }

        let g = generators::torus(4, 4).unwrap();
        let ops0: Vec<u32> = (0..16).map(|i| i % 2).collect();
        let voter = |seeds: &[u64]| {
            DynamicVoterBatch::new(
                DynamicGraph::new(g.clone()),
                &ops0,
                seeds,
                ChurnModel::rewire(2, 0),
                0,
            )
            .unwrap()
        };
        for threads in [1usize, 2] {
            let mut wide = voter(&seeds);
            assert!(wide.run_to_consensus(16, 1_000, threads).is_err());
            let mut retired = 0;
            for (r, &seed) in seeds.iter().enumerate() {
                let mut solo = voter(&[seed]);
                retired += usize::from(solo.run_to_consensus(16, 1_000, 1).is_ok());
                assert_eq!(
                    wide.replica_opinions(r),
                    solo.replica_opinions(0),
                    "replica {r}"
                );
            }
            assert!(0 < retired && retired < seeds.len(), "{retired} retired");
        }
    }
}
