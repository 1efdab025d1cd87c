//! [`Simulation`]: validates a [`ScenarioSpec`], picks the optimal engine
//! and runs it, returning one unified [`SimulationReport`].
//!
//! # Dispatch table
//!
//! Every exact-tier shape runs on one retirement driver (`od-core`'s
//! batches and window share it): a row kind, a topology and a stop.
//!
//! | scenario shape | row kind × topology × stop | entry point | engine label |
//! |---|---|---|---|
//! | averaging, R = 1, `output trace` | scalar process + `trace_potential` | — | `scalar-recorded` |
//! | averaging, `stop steps` | averaging × static × horizon | `ReplicaBatch::step_many` per seed chunk | `replica-batch` |
//! | averaging, `stop converge` | averaging × static × tracked/boundary | `run_converge_streaming` (one window) | `streaming-converge` |
//! | averaging, churn, `stop steps` | averaging × churned × horizon | `DynamicReplicaBatch::step_epoch` per seed chunk | `dynamic-replica-batch` |
//! | averaging, churn, `stop converge` | averaging × churned × boundary | `DynamicReplicaBatch::run_until_converged` | `dynamic-converge` |
//! | voter, `stop steps` | voter × static × horizon | `VoterBatch::step_many` | `voter-batch` |
//! | voter, `stop consensus` | voter × static × tracked | `VoterBatch::run_to_consensus` | `voter-consensus` |
//! | voter, churn | voter × churned × horizon/boundary | `DynamicVoterBatch::step_epoch` / `run_to_consensus` | `dynamic-voter` |
//! | node model, `tier lane`, static | lane-major SIMD batch × static × horizon/frozen-lane boundary | `LaneReplicaBatch` | `lane-batch` / `lane-converge` |
//! | node model, `tier lane`, churn | lane-major SIMD batch × churned × horizon/frozen-lane boundary | `DynamicLaneReplicaBatch` | `dynamic-lane-batch` / `dynamic-lane-converge` |
//! | `degroot` / `fj` / `weighted_median` | deterministic synchronous rounds (the only engine for weighted *directed* graphs) | `SyncKernel` | `sync-rounds` |
//!
//! Weighted graphs (`weights uniform ...` or a 3-column `graph file=`)
//! run the exact batched engines or the sync kernels; a `tier lane`
//! spec on a weighted graph falls back to the exact engines, like an
//! edge-model `tier lane` spec (the lane tier has a NodeModel kernel
//! only).
//!
//! Trial `i` always runs from `SeedSequence::new(spec.seed).seed(i)`, and
//! every **exact-tier** engine keeps per-trial results a function of that
//! seed alone — so a scenario's statistics are **bit-identical** to the
//! direct engine call it replaces, independent of batch size, window
//! capacity and thread count (gated in `tests/batch_equivalence.rs`).
//!
//! The **lane tier** (`tier lane` on a node-model spec) instead runs
//! *all* replicas as one lane-major SIMD batch: the `batch` and
//! `threads` knobs are documented no-ops there (chunking would defeat
//! the lane-major layout), and per-replica results are drawn from the
//! correct marginal law but are **not** bit-comparable with the exact
//! tier. See `od_core::LaneReplicaBatch`.

use crate::runner::monte_carlo_batched_threads;
use crate::spec::{ModelSpec, OutputSpec, ScenarioSpec, SimError, StopRuleSpec, StopSpec};
use od_core::{
    run_converge_streaming, trace_potential, ConvergeConfig, ConvergeWindow, ConvergenceReport,
    CoreError, DynamicLaneReplicaBatch, DynamicReplicaBatch, DynamicVoterBatch, EdgeModel,
    KernelSpec, LaneReplicaBatch, NodeModel, OpinionProcess, ReplicaBatch, StopRule, VoterBatch,
    WindowCheckpoint,
};
use od_graph::{ChurnModel, DynamicGraph, Graph};
use od_stats::{SeedSequence, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// The engine a scenario dispatches to (see the module-level table). The
/// exact-tier variants label driver shapes; their `Display` strings are
/// the names sweep tables, `CELL` lines and `.cell` files carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Scalar recorded run: one replica, incremental aggregates, a
    /// potential trace.
    ScalarRecorded,
    /// Averaging, static topology, fixed horizon.
    StaticSteps,
    /// Averaging, static topology, convergence through the streaming
    /// window (`od_core::run_converge_streaming`).
    StaticConverge,
    /// Averaging, churned topology, fixed horizon.
    DynamicSteps,
    /// Averaging, churned topology, epoch-boundary convergence.
    DynamicConverge,
    /// Voter, static topology, fixed horizon.
    VoterSteps,
    /// Voter, static topology, per-step consensus checks with early
    /// retirement.
    VoterConsensus,
    /// Voter, churned topology: a fixed horizon or epoch-boundary
    /// consensus, bit-identical to a per-trial `DynamicVoterKernel` loop.
    DynamicVoter,
    /// `LaneReplicaBatch::step_many`: the lane-major SIMD tier, all
    /// replicas in one batch (`tier lane`, node model).
    LaneSteps,
    /// `LaneReplicaBatch::run_until_converged` (block-boundary rule,
    /// frozen — not retired — lanes).
    LaneConverge,
    /// `DynamicLaneReplicaBatch::step_epoch`: the lane kernel over one
    /// shared churn trajectory.
    DynamicLaneSteps,
    /// `DynamicLaneReplicaBatch::run_until_converged` (epoch-boundary
    /// rule, frozen lanes).
    DynamicLaneConverge,
    /// `od_core::SyncKernel`: deterministic synchronous rounds for the
    /// `degroot` / `fj` / `weighted_median` models — the only engine
    /// that runs weighted *directed* graphs.
    SyncRounds,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Engine::ScalarRecorded => "scalar-recorded",
            Engine::StaticSteps => "replica-batch",
            Engine::StaticConverge => "streaming-converge",
            Engine::DynamicSteps => "dynamic-replica-batch",
            Engine::DynamicConverge => "dynamic-converge",
            Engine::VoterSteps => "voter-batch",
            Engine::VoterConsensus => "voter-consensus",
            Engine::DynamicVoter => "dynamic-voter",
            Engine::LaneSteps => "lane-batch",
            Engine::LaneConverge => "lane-converge",
            Engine::DynamicLaneSteps => "dynamic-lane-batch",
            Engine::DynamicLaneConverge => "dynamic-lane-converge",
            Engine::SyncRounds => "sync-rounds",
        };
        write!(f, "{name}")
    }
}

/// One trial's outcome, engine-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialResult {
    /// Steps the trial took (its stopping time, or the fixed horizon).
    pub steps: u64,
    /// Whether the stopping condition was met: ε-convergence for
    /// averaging converge runs, consensus for voter runs (fixed-horizon
    /// voter trials report whether the *end state* happens to be at
    /// consensus). Always `false` for fixed-horizon averaging runs, which
    /// have no threshold.
    pub converged: bool,
    /// The stopped potential (`φ` or `φ̄_V` per the spec); `NaN` for
    /// voter trials.
    pub potential: f64,
    /// The `F` estimate: `M(T)` under the π potential, `Avg(T)` under
    /// the uniform potential; `NaN` for voter trials.
    pub estimate: f64,
    /// The winning opinion (voter trials at consensus).
    pub winner: Option<u32>,
    /// Elementary topology mutations the trial's environment saw (churn
    /// scenarios; 0 on static graphs).
    pub mutations: u64,
}

impl TrialResult {
    /// A fixed-horizon averaging trial (no threshold, never converged).
    fn averaging(steps: u64, potential: f64, estimate: f64, mutations: u64) -> TrialResult {
        TrialResult {
            steps,
            converged: false,
            potential,
            estimate,
            winner: None,
            mutations,
        }
    }

    /// A voter trial: converged exactly when it has a winner.
    fn voter(steps: u64, winner: Option<u32>, mutations: u64) -> TrialResult {
        TrialResult {
            steps,
            converged: winner.is_some(),
            potential: f64::NAN,
            estimate: f64::NAN,
            winner,
            mutations,
        }
    }

    fn from_convergence(report: &ConvergenceReport, mutations: u64) -> TrialResult {
        TrialResult {
            steps: report.steps,
            converged: report.converged,
            potential: report.potential,
            estimate: report.weighted_average,
            winner: None,
            mutations,
        }
    }
}

/// The unified result of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationReport {
    /// The engine the scenario dispatched to.
    pub engine: Engine,
    /// Per-trial results, in trial (seed) order.
    pub trials: Vec<TrialResult>,
    /// `(t, φ(ξ(t)))` samples for `output trace` scenarios.
    pub trace: Option<Vec<(u64, f64)>>,
}

impl SimulationReport {
    /// Number of trials that met their stopping condition.
    pub fn converged_count(&self) -> usize {
        self.trials.iter().filter(|t| t.converged).count()
    }

    /// Summary of per-trial stopping times (steps).
    ///
    /// # Panics
    ///
    /// Panics on an empty report.
    pub fn steps_summary(&self) -> Summary {
        Summary::of(
            &self
                .trials
                .iter()
                .map(|t| t.steps as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Summary of the `F` estimates over **converged** trials (`None` if
    /// no trial converged or the model has no estimate).
    pub fn estimate_summary(&self) -> Option<Summary> {
        let estimates: Vec<f64> = self
            .trials
            .iter()
            .filter(|t| t.converged && !t.estimate.is_nan())
            .map(|t| t.estimate)
            .collect();
        (!estimates.is_empty()).then(|| Summary::of(&estimates))
    }

    /// Maximum mutation count any trial's environment saw (the shared
    /// churn trajectory of the longest-lived chunk).
    pub fn max_mutations(&self) -> u64 {
        self.trials.iter().map(|t| t.mutations).max().unwrap_or(0)
    }
}

/// A validated, runnable scenario: the spec plus its resolved graph and
/// initial state. Build one with [`Simulation::from_spec`], optionally
/// override the graph or initial state (for programmatic inputs the text
/// format cannot express, e.g. an eigenvector initial condition), then
/// [`Simulation::run`].
#[derive(Debug, Clone)]
pub struct Simulation {
    spec: ScenarioSpec,
    graph: Graph,
    xi0: Vec<f64>,
    opinions0: Vec<u32>,
    /// The built churn model for dynamic scenarios — resolved once at
    /// assembly so file-backed models
    /// ([`crate::spec::ChurnModelSpec::Replay`]) do their IO (and
    /// surface their errors) at `from_spec`, not mid-run.
    churn_model: Option<ChurnModel>,
}

impl Simulation {
    /// Validates `spec`, builds its graph and initial state, and checks
    /// the model against the graph exactly as the engines would.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] for semantic violations, [`SimError::Graph`]
    /// from the generator, [`SimError::Core`] if the model rejects the
    /// graph (`k > d_min`, disconnected, …).
    pub fn from_spec(spec: &ScenarioSpec) -> Result<Simulation, SimError> {
        spec.validate()?;
        // `realize` also performs the edge-list IO of `graph file=`
        // specs, so a bad path or malformed file is a `from_spec` error.
        let graph = spec.graph.realize()?;
        Simulation::assemble(spec.clone(), graph)
    }

    /// Like [`Simulation::from_spec`], but runs on the given graph
    /// instance instead of building `spec.graph` — for callers that share
    /// one instance with a direct-engine comparison or a spectral
    /// predictor (the spec's `graph` field is then purely descriptive).
    ///
    /// # Errors
    ///
    /// The same as [`Simulation::from_spec`].
    pub fn from_spec_with_graph(spec: &ScenarioSpec, graph: Graph) -> Result<Simulation, SimError> {
        spec.validate()?;
        Simulation::assemble(spec.clone(), graph)
    }

    /// Replaces the graph (e.g. an instance shared with a direct-engine
    /// comparison), re-resolving the initial state for the new size.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] if the model rejects the new graph.
    pub fn with_graph(self, graph: Graph) -> Result<Simulation, SimError> {
        Simulation::assemble(self.spec, graph)
    }

    /// Overrides the averaging initial values (inputs the declarative
    /// init distributions cannot express, e.g. a worst-case eigenvector).
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] on a voter scenario or length mismatch.
    pub fn with_initial_values(mut self, xi0: Vec<f64>) -> Result<Simulation, SimError> {
        if !self.spec.model.is_averaging() {
            return Err(SimError::Invalid(
                "voter scenarios take opinions, not values".into(),
            ));
        }
        if xi0.len() != self.graph.n() {
            return Err(SimError::Invalid(format!(
                "{} initial values for {} nodes",
                xi0.len(),
                self.graph.n()
            )));
        }
        self.xi0 = xi0;
        Ok(self)
    }

    /// Overrides the voter initial opinions.
    ///
    /// # Errors
    ///
    /// [`SimError::Invalid`] on an averaging scenario or length mismatch.
    pub fn with_opinions(mut self, opinions0: Vec<u32>) -> Result<Simulation, SimError> {
        if self.spec.model.is_averaging() {
            return Err(SimError::Invalid(
                "averaging scenarios take values, not opinions".into(),
            ));
        }
        if opinions0.len() != self.graph.n() {
            return Err(SimError::Invalid(format!(
                "{} initial opinions for {} nodes",
                opinions0.len(),
                self.graph.n()
            )));
        }
        self.opinions0 = opinions0;
        Ok(self)
    }

    fn assemble(spec: ScenarioSpec, mut graph: Graph) -> Result<Simulation, SimError> {
        // Generated topologies become weighted here, after the graph is
        // realized (`weights uniform` draws one weight per edge from its
        // dedicated seed, so every replica sees the same instance).
        spec.weights.apply(&mut graph)?;
        // Graph-dependent gates that validate() cannot see: a file graph
        // reveals its weight/direction shape only after the IO.
        if graph.is_directed() && !spec.model.is_sync() {
            return Err(SimError::Invalid(
                "directed graphs run the synchronous models only (degroot, fj, weighted_median)"
                    .into(),
            ));
        }
        if graph.is_weighted() {
            if !spec.model.is_averaging() {
                return Err(SimError::Invalid(
                    "the voter model runs on unweighted graphs".into(),
                ));
            }
            if spec.churn.is_some() {
                return Err(SimError::Invalid(
                    "churned graphs are unweighted (the dynamic engines reject weights)".into(),
                ));
            }
            if matches!(spec.output, OutputSpec::Trace { .. }) {
                return Err(SimError::Invalid(
                    "trace output records the scalar path, which is unweighted".into(),
                ));
            }
        }
        let n = graph.n();
        if let crate::spec::InitSpec::Indicator { node } = spec.init {
            // Graph-dependent init check: a typo'd node id would
            // otherwise silently yield an all-zero initial state.
            if node >= n {
                return Err(SimError::Invalid(format!(
                    "indicator node {node} out of range for an {n}-node graph"
                )));
            }
        }
        let (xi0, opinions0) = if spec.model.is_averaging() {
            let values = match &spec.init {
                // File-backed init does its IO here, so a bad path or
                // malformed file is a `from_spec` error.
                crate::spec::InitSpec::File { path } => {
                    let values = crate::spec::load_init_file(path)?;
                    if values.len() != n {
                        return Err(SimError::Invalid(format!(
                            "init file '{path}' has {} values for an {n}-node graph",
                            values.len()
                        )));
                    }
                    values
                }
                init => init.values(n),
            };
            (values, Vec::new())
        } else {
            (Vec::new(), spec.init.opinions(n))
        };
        let churn_model = match &spec.churn {
            Some(churn) => Some(churn.model.build()?),
            None => None,
        };
        let sim = Simulation {
            spec,
            graph,
            xi0,
            opinions0,
            churn_model,
        };
        // Validate the (graph, init, model) triple once, through the same
        // constructors the engines use, so dispatch cannot fail later.
        match sim.spec.model {
            ModelSpec::Voter => {
                VoterBatch::new(&sim.graph, &sim.opinions0, &[])?;
            }
            model if model.is_sync() => {
                od_core::SyncKernel::new(
                    &sim.graph,
                    sim.xi0.clone(),
                    model.sync_model().expect("is_sync implies a sync model"),
                )?;
            }
            _ => {
                ReplicaBatch::new(&sim.graph, sim.spec.model.kernel_spec()?, &sim.xi0, &[])?;
            }
        }
        Ok(sim)
    }

    /// The spec this simulation was built from.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.spec
    }

    /// The resolved graph instance.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The engine this scenario dispatches to — a pure function of the
    /// spec shape (see the module docs).
    pub fn engine(&self) -> Engine {
        // The synchronous-rounds models have exactly one engine.
        if self.spec.model.is_sync() {
            return Engine::SyncRounds;
        }
        // Validation already restricts lane specs to averaging models
        // without traces, with block/pi stopping. The lane tier has a
        // NodeModel kernel only, so edge-model lane specs run on the
        // exact engines (an edge lane kernel benched below the exact
        // tier: its gather is two scattered rows per step, not one
        // dense lane row). Weighted graphs fall back too: the lane
        // kernel rejects per-edge weights, the exact batched kernels
        // aggregate them.
        let lane = self.spec.tier == crate::spec::TierSpec::Lane
            && matches!(self.spec.model, ModelSpec::Node { .. })
            && !self.graph.is_weighted();
        match (&self.spec.model, &self.spec.churn, &self.spec.stop) {
            (ModelSpec::Voter, None, StopSpec::Consensus { .. }) => Engine::VoterConsensus,
            (ModelSpec::Voter, None, _) => Engine::VoterSteps,
            (ModelSpec::Voter, Some(_), _) => Engine::DynamicVoter,
            _ if matches!(self.spec.output, OutputSpec::Trace { .. }) => Engine::ScalarRecorded,
            (_, None, StopSpec::Converge { .. }) if lane => Engine::LaneConverge,
            (_, None, StopSpec::Converge { .. }) => Engine::StaticConverge,
            (_, None, _) if lane => Engine::LaneSteps,
            (_, None, _) => Engine::StaticSteps,
            (_, Some(_), StopSpec::Converge { .. }) if lane => Engine::DynamicLaneConverge,
            (_, Some(_), StopSpec::Converge { .. }) => Engine::DynamicConverge,
            (_, Some(_), _) if lane => Engine::DynamicLaneSteps,
            (_, Some(_), _) => Engine::DynamicSteps,
        }
    }

    /// Runs the scenario on its dispatched engine.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] if an engine rejects the scenario mid-run (e.g.
    /// degree-changing churn broke the sampling preconditions).
    pub fn run(&self) -> Result<SimulationReport, SimError> {
        let engine = self.engine();
        let trials = match engine {
            Engine::ScalarRecorded => return self.run_scalar_recorded(),
            Engine::StaticSteps
            | Engine::StaticConverge
            | Engine::DynamicSteps
            | Engine::DynamicConverge
            | Engine::VoterSteps
            | Engine::VoterConsensus
            | Engine::DynamicVoter => self.run_exact(engine)?,
            Engine::SyncRounds => self.run_sync_rounds()?,
            Engine::LaneSteps
            | Engine::LaneConverge
            | Engine::DynamicLaneSteps
            | Engine::DynamicLaneConverge => self.run_lane()?,
        };
        Ok(SimulationReport {
            engine,
            trials,
            trace: None,
        })
    }

    fn seeds(&self) -> SeedSequence {
        SeedSequence::new(self.spec.seed)
    }

    fn trial_seeds(&self) -> Vec<u64> {
        let seq = self.seeds();
        (0..self.spec.replicas as u64)
            .map(|i| seq.seed(i))
            .collect()
    }

    fn kernel_spec(&self) -> KernelSpec {
        self.spec
            .model
            .kernel_spec()
            .expect("assemble validated the model")
    }

    /// The stop's step horizon (the fixed horizon or the budget) and
    /// whether it is fixed (no stopping rule).
    fn horizon(&self) -> (u64, bool) {
        match self.spec.stop {
            StopSpec::Steps { steps } => (steps, true),
            StopSpec::Converge { budget, .. } | StopSpec::Consensus { budget } => (budget, false),
            StopSpec::FixedPoint { .. } => unreachable!("fixed_point stops run the sync engine"),
        }
    }

    fn churn_parts(&self) -> (ChurnModel, u64, u64) {
        let churn = self
            .spec
            .churn
            .as_ref()
            .expect("dynamic engine requires churn");
        let model = self
            .churn_model
            .clone()
            .expect("assemble built the churn model");
        (model, churn.steps_per_epoch, churn.seed)
    }

    fn run_scalar_recorded(&self) -> Result<SimulationReport, SimError> {
        let StopSpec::Steps { steps } = self.spec.stop else {
            unreachable!("validate pins trace output to a fixed horizon");
        };
        let OutputSpec::Trace { every } = self.spec.output else {
            unreachable!("scalar-recorded dispatch requires trace output");
        };
        let mut rng = StdRng::seed_from_u64(self.seeds().seed(0));
        let (trace, potential, estimate) = match self.kernel_spec() {
            KernelSpec::Node(params) => {
                let mut process = NodeModel::new(&self.graph, self.xi0.clone(), params)?;
                let trace = trace_potential(&mut process, &mut rng, steps, every);
                let state = process.state();
                (trace, state.potential_pi(), state.weighted_average())
            }
            KernelSpec::Edge(params) => {
                let mut process = EdgeModel::new(&self.graph, self.xi0.clone(), params)?;
                let trace = trace_potential(&mut process, &mut rng, steps, every);
                let state = process.state();
                (trace, state.potential_pi(), state.weighted_average())
            }
        };
        Ok(SimulationReport {
            engine: Engine::ScalarRecorded,
            trials: vec![TrialResult::averaging(steps, potential, estimate, 0)],
            trace: Some(trace),
        })
    }

    fn converge_config(&self) -> ConvergeConfig {
        let StopSpec::Converge {
            epsilon,
            rule,
            potential,
            budget,
        } = self.spec.stop
        else {
            unreachable!("converge dispatch requires a converge stop")
        };
        ConvergeConfig::new(epsilon, budget)
            .with_stop(match rule {
                StopRuleSpec::Exact => StopRule::Exact,
                StopRuleSpec::Block => StopRule::Block,
            })
            .with_potential(potential.kind())
            .with_check_every(self.spec.check_every)
            .with_threads(self.spec.threads)
    }

    /// The checkpointable streaming window behind this scenario's run —
    /// `Some` exactly when the scenario dispatches to
    /// [`Engine::StaticConverge`] (static averaging, `stop converge`,
    /// exact tier), `None` for every other engine. Driving the window to
    /// completion and assembling with
    /// [`Simulation::report_from_window`] reproduces
    /// [`Simulation::run`]'s report bit for bit; between block rounds
    /// the window can be checkpointed (`od_core::WindowCheckpoint`) and
    /// resumed via [`Simulation::converge_window_resumed`].
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] if the engine rejects the scenario.
    pub fn converge_window(&self) -> Result<Option<ConvergeWindow<'_>>, SimError> {
        if self.engine() != Engine::StaticConverge {
            return Ok(None);
        }
        Ok(Some(ConvergeWindow::new(
            &self.graph,
            self.kernel_spec(),
            &self.xi0,
            &self.trial_seeds(),
            self.spec.resolved_batch(),
            self.converge_config(),
        )?))
    }

    /// Like [`Simulation::converge_window`], but resumed from a
    /// checkpoint captured from the *same* scenario.
    ///
    /// # Errors
    ///
    /// [`SimError::Core`] wrapping `CoreError::Checkpoint` when the
    /// checkpoint does not belong to this scenario.
    pub fn converge_window_resumed(
        &self,
        checkpoint: &WindowCheckpoint,
    ) -> Result<Option<ConvergeWindow<'_>>, SimError> {
        if self.engine() != Engine::StaticConverge {
            return Ok(None);
        }
        Ok(Some(ConvergeWindow::restore(
            &self.graph,
            self.kernel_spec(),
            &self.xi0,
            &self.trial_seeds(),
            self.spec.resolved_batch(),
            self.converge_config(),
            checkpoint,
        )?))
    }

    /// Assembles a finished window's reports into the
    /// [`SimulationReport`] that [`Simulation::run`] would have
    /// returned for this scenario.
    pub fn report_from_window(&self, reports: &[ConvergenceReport]) -> SimulationReport {
        SimulationReport {
            engine: Engine::StaticConverge,
            trials: reports
                .iter()
                .map(|r| TrialResult::from_convergence(r, 0))
                .collect(),
            trace: None,
        }
    }

    /// Every exact-tier shape: static convergence streams all seeds
    /// through one checkpointable window (capacity `batch`, `threads`
    /// workers); every other shape runs one batch per seed chunk on the
    /// runner's threads ([`Simulation::run_chunk`]). A chunk-level error
    /// fans out to the chunk's trials and fails the run.
    fn run_exact(&self, engine: Engine) -> Result<Vec<TrialResult>, SimError> {
        if engine == Engine::StaticConverge {
            let reports = run_converge_streaming(
                &self.graph,
                self.kernel_spec(),
                &self.xi0,
                &self.trial_seeds(),
                self.spec.resolved_batch(),
                self.converge_config(),
            )?;
            return Ok(self.report_from_window(&reports).trials);
        }
        let trials: Vec<Result<TrialResult, CoreError>> = monte_carlo_batched_threads(
            self.spec.replicas,
            self.seeds(),
            self.spec.resolved_batch(),
            self.spec.threads,
            |_, chunk| match self.run_chunk(chunk) {
                Ok(results) => results.into_iter().map(Ok).collect(),
                Err(e) => chunk.iter().map(|_| Err(e.clone())).collect(),
            },
        );
        trials
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(SimError::Core)
    }

    /// One seed chunk on the batch of its row kind (averaging or voter)
    /// and topology (static or churned), driven to its stop: a fixed
    /// horizon (`step_many`, or whole `step_epoch`s), or early retirement
    /// at convergence or consensus. Inner threads are pinned to 1: the
    /// runner already parallelises across chunks. Every churned chunk
    /// replays the same topology trajectory from the scenario's churn
    /// seed, so trial results are independent of the chunking.
    fn run_chunk(&self, seeds: &[u64]) -> Result<Vec<TrialResult>, CoreError> {
        let (horizon, fixed) = self.horizon();
        let churn = self.spec.churn.is_some().then(|| {
            let (model, epoch, churn_seed) = self.churn_parts();
            (
                DynamicGraph::new(self.graph.clone()),
                model,
                epoch,
                churn_seed,
            )
        });
        let trials = 0..seeds.len();
        Ok(match (self.spec.model.is_averaging(), churn) {
            (true, None) => {
                let mut batch =
                    ReplicaBatch::new(&self.graph, self.kernel_spec(), &self.xi0, seeds)?;
                batch.step_many(horizon);
                trials
                    .map(|r| {
                        let (phi, m) = (
                            batch.replica_potential_pi(r),
                            batch.replica_weighted_average(r),
                        );
                        TrialResult::averaging(horizon, phi, m, 0)
                    })
                    .collect()
            }
            (true, Some((graph, model, epoch, churn_seed))) => {
                let spec = self.kernel_spec();
                let mut batch =
                    DynamicReplicaBatch::new(graph, spec, &self.xi0, seeds, model, churn_seed)?;
                if fixed {
                    for _ in 0..horizon / epoch {
                        batch.step_epoch(epoch)?;
                    }
                    trials
                        .map(|r| {
                            let (phi, m) = (
                                batch.replica_potential_pi(r),
                                batch.replica_weighted_average(r),
                            );
                            TrialResult::averaging(horizon, phi, m, batch.mutations())
                        })
                        .collect()
                } else {
                    let StopSpec::Converge { epsilon, .. } = self.spec.stop else {
                        unreachable!("averaging trials stop at a horizon or at convergence")
                    };
                    let reports = batch.run_until_converged(epoch, horizon / epoch, epsilon, 1)?;
                    trials
                        .map(|r| {
                            TrialResult::from_convergence(&reports[r], batch.replica_mutations(r))
                        })
                        .collect()
                }
            }
            (false, None) => {
                let mut batch = VoterBatch::new(&self.graph, &self.opinions0, seeds)?;
                if fixed {
                    batch.step_many(horizon);
                    trials
                        .map(|r| {
                            let consensus = batch.replica_is_consensus(r);
                            TrialResult::voter(
                                horizon,
                                consensus.then(|| batch.replica_opinions(r)[0]),
                                0,
                            )
                        })
                        .collect()
                } else {
                    let reports = batch.run_to_consensus(horizon, self.spec.check_every, 1);
                    reports
                        .iter()
                        .map(|r| TrialResult::voter(r.steps, r.winner, 0))
                        .collect()
                }
            }
            (false, Some((graph, model, epoch, churn_seed))) => {
                let mut batch =
                    DynamicVoterBatch::new(graph, &self.opinions0, seeds, model, churn_seed)?;
                if fixed {
                    for _ in 0..horizon / epoch {
                        batch.step_epoch(epoch)?;
                    }
                    trials
                        .map(|r| {
                            let consensus = batch.replica_is_consensus(r);
                            let winner = consensus.then(|| batch.replica_opinions(r)[0]);
                            TrialResult::voter(horizon, winner, batch.mutations())
                        })
                        .collect()
                } else {
                    let reports = batch.run_to_consensus(epoch, horizon / epoch, 1)?;
                    reports
                        .iter()
                        .map(|r| TrialResult::voter(r.steps, r.winner, r.mutations))
                        .collect()
                }
            }
        })
    }

    /// The synchronous models (degroot, fj, weighted_median) are
    /// deterministic, so this engine runs exactly one trial (validate
    /// pins `replicas 1`). `potential` reports the final round's largest
    /// single-node movement — the quantity the `fixed_point` stop
    /// thresholds — and `estimate` the arithmetic mean of the final
    /// values.
    fn run_sync_rounds(&self) -> Result<Vec<TrialResult>, SimError> {
        let model = self
            .spec
            .model
            .sync_model()
            .expect("sync-rounds dispatch requires a sync model");
        let mut kernel = od_core::SyncKernel::new(&self.graph, self.xi0.clone(), model)
            .map_err(SimError::Core)?;
        let (rounds, converged, last_delta) = match self.spec.stop {
            StopSpec::Steps { steps } => {
                let mut last_delta = 0.0;
                for _ in 0..steps {
                    last_delta = kernel.round();
                }
                (kernel.rounds(), false, last_delta)
            }
            StopSpec::FixedPoint { epsilon, budget } => {
                let mut last_delta = f64::NAN;
                let mut converged = false;
                while kernel.rounds() < budget {
                    last_delta = kernel.round();
                    if last_delta <= epsilon {
                        converged = true;
                        break;
                    }
                }
                (kernel.rounds(), converged, last_delta)
            }
            StopSpec::Consensus { .. } | StopSpec::Converge { .. } => {
                unreachable!("validate pins sync models to steps/fixed_point stops")
            }
        };
        let n = self.graph.n() as f64;
        let estimate = kernel.values().iter().sum::<f64>() / n;
        Ok(vec![TrialResult {
            converged,
            ..TrialResult::averaging(rounds, last_delta, estimate, 0)
        }])
    }

    /// The lane tier runs all replicas as one lane-major batch, so the
    /// `batch`/`threads` chunking knobs do not apply; lane `j` draws its
    /// private randomness from trial seed `j`, and the shared step
    /// schedule is a deterministic function of the whole seed set. The
    /// batch follows the topology (static or churned) and is driven to
    /// its stop: a fixed horizon (`step_many`, or whole `step_epoch`s) or
    /// the frozen-lane convergence loop. validate() pinned rule=block and
    /// potential=pi for lane specs, and engine() sends only node specs.
    fn run_lane(&self) -> Result<Vec<TrialResult>, SimError> {
        let KernelSpec::Node(params) = self.kernel_spec() else {
            unreachable!("engine() dispatches only node specs to the lane tier")
        };
        let seeds = self.trial_seeds();
        let (horizon, fixed) = self.horizon();
        let epsilon = match self.spec.stop {
            StopSpec::Converge { epsilon, .. } => epsilon,
            _ => f64::NAN,
        };
        let lanes = 0..seeds.len();
        Ok(match self.spec.churn {
            None => {
                let mut batch = LaneReplicaBatch::new(&self.graph, params, &self.xi0, &seeds)?;
                if fixed {
                    batch.step_many(horizon);
                    lanes
                        .map(|r| {
                            let (phi, m) = (
                                batch.replica_potential_pi(r),
                                batch.replica_weighted_average(r),
                            );
                            TrialResult::averaging(horizon, phi, m, 0)
                        })
                        .collect()
                } else {
                    let reports =
                        batch.run_until_converged(epsilon, horizon, self.spec.check_every)?;
                    lanes
                        .map(|r| TrialResult::from_convergence(&reports[r], 0))
                        .collect()
                }
            }
            Some(_) => {
                let (model, epoch, churn_seed) = self.churn_parts();
                let graph = DynamicGraph::new(self.graph.clone());
                let mut batch = DynamicLaneReplicaBatch::new(
                    graph, params, &self.xi0, &seeds, model, churn_seed,
                )?;
                if fixed {
                    for _ in 0..horizon / epoch {
                        batch.step_epoch(epoch)?;
                    }
                    lanes
                        .map(|r| {
                            let (phi, m) = (
                                batch.replica_potential_pi(r),
                                batch.replica_weighted_average(r),
                            );
                            TrialResult::averaging(horizon, phi, m, batch.mutations())
                        })
                        .collect()
                } else {
                    let reports = batch.run_until_converged(epoch, horizon / epoch, epsilon)?;
                    lanes
                        .map(|r| {
                            TrialResult::from_convergence(&reports[r], batch.replica_mutations(r))
                        })
                        .collect()
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnModelSpec, ChurnSpec, GraphSpec, InitSpec, PotentialSpec};

    fn converge_spec() -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(
            ModelSpec::Node {
                alpha: 0.5,
                k: 2,
                lazy: false,
            },
            GraphSpec::Complete { n: 12 },
            0,
        );
        spec.replicas = 5;
        spec.seed = 99;
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Exact,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        spec
    }

    #[test]
    fn dispatch_table() {
        let mut spec = converge_spec();
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::StaticConverge
        );
        spec.stop = StopSpec::Steps { steps: 100 };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::StaticSteps
        );
        spec.replicas = 1;
        spec.output = OutputSpec::Trace { every: 10 };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::ScalarRecorded
        );
        spec.output = OutputSpec::Reports;
        spec.replicas = 5;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 10,
            seed: 3,
        });
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::DynamicSteps
        );
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000,
        };
        assert_eq!(
            Simulation::from_spec(&spec).unwrap().engine(),
            Engine::DynamicConverge
        );
        let mut voter = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 100);
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::VoterSteps
        );
        voter.stop = StopSpec::Consensus { budget: 100_000 };
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::VoterConsensus
        );
        voter.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 1 },
            steps_per_epoch: 10,
            seed: 1,
        });
        assert_eq!(
            Simulation::from_spec(&voter).unwrap().engine(),
            Engine::DynamicVoter
        );
    }

    #[test]
    fn static_converge_matches_direct_engine() {
        // The scenario path must be the direct ReplicaBatch call, bit for
        // bit, per seed.
        let spec = converge_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::StaticConverge);
        assert_eq!(report.converged_count(), 5);

        let mut direct =
            ReplicaBatch::new(sim.graph(), sim.kernel_spec(), &sim.xi0, &sim.trial_seeds())
                .unwrap();
        let reports = direct.run_until_converged(sim.converge_config()).unwrap();
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.potential.to_bits(), reference.potential.to_bits());
            assert_eq!(
                trial.estimate.to_bits(),
                reference.weighted_average.to_bits()
            );
        }
        // Capacity and thread overrides never change results.
        for (batch, threads) in [(1usize, 1usize), (2, 3), (64, 2)] {
            let mut spec = converge_spec();
            spec.batch = batch;
            spec.threads = threads;
            let again = Simulation::from_spec(&spec).unwrap().run().unwrap();
            assert_eq!(again.trials, report.trials, "batch={batch}");
        }
    }

    #[test]
    fn voter_consensus_matches_direct_engine() {
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 0);
        spec.replicas = 6;
        spec.seed = 5;
        spec.init = InitSpec::Opinions { levels: 4 };
        spec.stop = StopSpec::Consensus { budget: 200_000 };
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::VoterConsensus);
        assert_eq!(report.converged_count(), 6);

        let mut direct = VoterBatch::new(sim.graph(), &sim.opinions0, &sim.trial_seeds()).unwrap();
        let reports = direct.run_to_consensus(200_000, 0, 1);
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.winner, reference.winner);
        }
    }

    #[test]
    fn dynamic_converge_matches_direct_engine() {
        let mut spec = converge_spec();
        spec.graph = GraphSpec::Torus { rows: 4, cols: 4 };
        spec.replicas = 4;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 16,
            seed: 77,
        });
        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 16 * 2_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::DynamicConverge);
        assert!(report.converged_count() > 0);
        assert!(report.max_mutations() > 0);

        let mut direct = DynamicReplicaBatch::new(
            DynamicGraph::new(sim.graph().clone()),
            sim.kernel_spec(),
            &sim.xi0,
            &sim.trial_seeds(),
            ChurnModel::edge_swap(2),
            77,
        )
        .unwrap();
        let reports = direct.run_until_converged(16, 2_000, 1e-9, 1).unwrap();
        for (trial, reference) in report.trials.iter().zip(&reports) {
            assert_eq!(trial.steps, reference.steps);
            assert_eq!(trial.converged, reference.converged);
        }
        // Chunking never changes dynamic results either (shared churn
        // stream per scenario), per-trial `mutations` included: each
        // trial records the count at its own retirement boundary.
        let mut solo = spec.clone();
        solo.batch = 1;
        let again = Simulation::from_spec(&solo).unwrap().run().unwrap();
        assert_eq!(again.trials, report.trials);
    }

    #[test]
    fn scalar_recorded_run_produces_a_trace() {
        let mut spec = ScenarioSpec::new(
            ModelSpec::Edge {
                alpha: 0.5,
                lazy: false,
            },
            GraphSpec::Cycle { n: 16 },
            2_000,
        );
        spec.output = OutputSpec::Trace { every: 500 };
        spec.seed = 11;
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.engine, Engine::ScalarRecorded);
        let trace = report.trace.as_ref().unwrap();
        assert_eq!(trace.len(), 1 + 4);
        assert_eq!(trace[0].0, 0);
        assert!(trace.last().unwrap().1 <= trace[0].1);
        assert_eq!(report.trials.len(), 1);
    }

    #[test]
    fn overrides_validate() {
        let spec = converge_spec();
        let sim = Simulation::from_spec(&spec).unwrap();
        assert!(sim.clone().with_initial_values(vec![1.0; 3]).is_err());
        assert!(sim.clone().with_opinions(vec![0; 12]).is_err());
        let replaced = sim
            .clone()
            .with_graph(od_graph::generators::complete(6).unwrap())
            .unwrap();
        assert_eq!(replaced.graph().n(), 6);
        // k > d_min is rejected at graph replacement, like the engines.
        assert!(sim
            .with_graph(od_graph::generators::path(6).unwrap())
            .is_err());
        // Zero replicas rejected before any engine runs.
        let mut bad = converge_spec();
        bad.replicas = 0;
        assert!(matches!(
            Simulation::from_spec(&bad),
            Err(SimError::Invalid(_))
        ));
        // An out-of-range indicator node is a proper error, not a silent
        // all-zero (= instantly "converged") initial state.
        let mut bad = converge_spec();
        bad.init = InitSpec::Indicator { node: 99 };
        assert!(matches!(
            Simulation::from_spec(&bad),
            Err(SimError::Invalid(_))
        ));
        bad.init = InitSpec::Indicator { node: 3 };
        assert!(Simulation::from_spec(&bad).is_ok());
    }

    #[test]
    fn dynamic_voter_runs_to_consensus() {
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 8 }, 0);
        spec.replicas = 3;
        spec.seed = 21;
        spec.init = InitSpec::Distinct;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 1 },
            steps_per_epoch: 8,
            seed: 5,
        });
        spec.stop = StopSpec::Consensus { budget: 8 * 50_000 };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.engine, Engine::DynamicVoter);
        assert_eq!(report.converged_count(), 3);
        for trial in &report.trials {
            assert!(trial.winner.is_some());
            assert_eq!(trial.steps % 8, 0, "epoch-granular consensus time");
        }
    }

    #[test]
    fn lane_tier_dispatch_and_fallback() {
        // `tier lane` selects the lane engines for the node model, static
        // and churned, under both stops.
        let mut spec = converge_spec();
        spec.tier = crate::spec::TierSpec::Lane;
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::LaneConverge);
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::LaneConverge);
        assert_eq!(report.converged_count(), 5);
        for trial in &report.trials {
            assert!(trial.potential <= 1e-8);
            // The F estimate stays in the initial hull.
            assert!((-1.0..=1.0).contains(&trial.estimate));
        }

        spec.stop = StopSpec::Steps { steps: 5_000 };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::LaneSteps);
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::LaneSteps);
        assert_eq!(report.trials.len(), 5);
        assert!(report.trials.iter().all(|t| t.estimate.is_finite()));

        spec.graph = GraphSpec::Torus { rows: 4, cols: 4 };
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 16,
            seed: 77,
        });
        spec.stop = StopSpec::Steps { steps: 16 * 50 };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::DynamicLaneSteps);
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::DynamicLaneSteps);
        assert!(report.max_mutations() > 0);

        spec.stop = StopSpec::Converge {
            epsilon: 1e-9,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 16 * 5_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::DynamicLaneConverge);
        let report = sim.run().unwrap();
        assert_eq!(report.engine, Engine::DynamicLaneConverge);
        assert_eq!(report.converged_count(), 5);
        for trial in &report.trials {
            assert_eq!(trial.steps % 16, 0, "epoch-granular stopping");
        }

        // The lane tier has no edge kernel: an edge spec under
        // `tier lane` runs the exact engine the same spec picks under
        // `tier exact`, trial for trial bit-identical.
        let converge = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 16 * 5_000,
        };
        let churn = ChurnSpec {
            model: ChurnModelSpec::EdgeSwap { swaps: 2 },
            steps_per_epoch: 16,
            seed: 77,
        };
        for (churn, stop, engine) in [
            (None, StopSpec::Steps { steps: 800 }, Engine::StaticSteps),
            (None, converge, Engine::StaticConverge),
            (
                Some(churn.clone()),
                StopSpec::Steps { steps: 800 },
                Engine::DynamicSteps,
            ),
            (Some(churn), converge, Engine::DynamicConverge),
        ] {
            let mut edge = converge_spec();
            edge.model = ModelSpec::Edge {
                alpha: 0.5,
                lazy: false,
            };
            edge.graph = GraphSpec::Torus { rows: 4, cols: 4 };
            edge.churn = churn;
            edge.stop = stop;
            let exact = Simulation::from_spec(&edge).unwrap();
            edge.tier = crate::spec::TierSpec::Lane;
            let lane = Simulation::from_spec(&edge).unwrap();
            assert_eq!(lane.engine(), engine);
            assert_eq!(exact.engine(), engine);
            let (lane, exact) = (lane.run().unwrap(), exact.run().unwrap());
            assert_eq!(lane.engine, engine);
            assert_eq!(lane.trials.len(), exact.trials.len());
            for (a, b) in lane.trials.iter().zip(&exact.trials) {
                assert_eq!(a.steps, b.steps, "{engine}");
                assert_eq!(a.converged, b.converged, "{engine}");
                assert_eq!(a.potential.to_bits(), b.potential.to_bits(), "{engine}");
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{engine}");
                assert_eq!(a.mutations, b.mutations, "{engine}");
            }
        }
    }

    #[test]
    fn dynamic_voter_batch_pins_per_trial_loop() {
        // The batched dispatch must reproduce the retired per-trial
        // `DynamicVoterKernel` loop bit-for-bit, for every batch size and
        // thread count, in both stop modes.
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Cycle { n: 10 }, 0);
        spec.replicas = 6;
        spec.seed = 77;
        spec.init = InitSpec::Distinct;
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::Rewire {
                rewires: 1,
                min_degree: 1,
            },
            steps_per_epoch: 16,
            seed: 13,
        });
        for stop in [
            StopSpec::Consensus {
                budget: 16 * 20_000,
            },
            StopSpec::Steps { steps: 16 * 25 },
        ] {
            spec.stop = stop;
            let sim = Simulation::from_spec(&spec).unwrap();
            // Per-trial reference: the exact loop `run_dynamic_voter` ran
            // before `DynamicVoterBatch` existed.
            let (churn, spe, churn_seed) = sim.churn_parts();
            let budget = match spec.stop {
                StopSpec::Consensus { budget } => budget,
                StopSpec::Steps { steps } => steps,
                StopSpec::Converge { .. } | StopSpec::FixedPoint { .. } => unreachable!(),
            };
            let stop_at_consensus = matches!(spec.stop, StopSpec::Consensus { .. });
            let max_epochs = budget / spe;
            let reference: Vec<TrialResult> = (0..spec.replicas as u64)
                .map(|i| {
                    let mut kernel = od_core::DynamicVoterKernel::new(
                        DynamicGraph::new(sim.graph().clone()),
                        sim.opinions0.clone(),
                        churn.clone(),
                        churn_seed,
                    )
                    .unwrap();
                    let mut rng = StdRng::seed_from_u64(sim.seeds().seed(i));
                    while kernel.epoch() < max_epochs
                        && !(stop_at_consensus && kernel.is_consensus())
                    {
                        kernel.step_epoch(spe, &mut rng).unwrap();
                    }
                    let consensus = kernel.is_consensus();
                    TrialResult {
                        steps: kernel.time(),
                        converged: consensus,
                        potential: f64::NAN,
                        estimate: f64::NAN,
                        winner: consensus.then(|| kernel.opinions()[0]),
                        mutations: kernel.mutations(),
                    }
                })
                .collect();
            for (batch, threads) in [(0usize, 1usize), (2, 1), (1, 3), (4, 2)] {
                let mut run_spec = spec.clone();
                run_spec.batch = batch;
                run_spec.threads = threads;
                let report = Simulation::from_spec(&run_spec).unwrap().run().unwrap();
                assert_eq!(report.engine, Engine::DynamicVoter);
                assert_eq!(report.trials.len(), reference.len());
                for (got, want) in report.trials.iter().zip(&reference) {
                    assert_eq!(got.steps, want.steps, "batch {batch}, threads {threads}");
                    assert_eq!(got.converged, want.converged);
                    assert_eq!(got.winner, want.winner);
                    assert_eq!(got.mutations, want.mutations);
                }
            }
        }
    }

    /// Field-by-field equality with floats compared by their bits (`NaN`
    /// potentials of voter trials included).
    fn assert_trials_bit_identical(got: &[TrialResult], want: &[TrialResult], context: &str) {
        assert_eq!(got.len(), want.len(), "{context}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.steps, w.steps, "{context}: trial {i} steps");
            assert_eq!(g.converged, w.converged, "{context}: trial {i} converged");
            assert_eq!(
                g.potential.to_bits(),
                w.potential.to_bits(),
                "{context}: trial {i} potential"
            );
            assert_eq!(
                g.estimate.to_bits(),
                w.estimate.to_bits(),
                "{context}: trial {i} estimate"
            );
            assert_eq!(g.winner, w.winner, "{context}: trial {i} winner");
            assert_eq!(g.mutations, w.mutations, "{context}: trial {i} mutations");
        }
    }

    /// Runs `spec` under several chunk sizes and thread counts, checking
    /// the engine label and every trial against `want`.
    fn assert_runs_match(spec: &ScenarioSpec, engine: Engine, want: &[TrialResult]) {
        for (batch, threads) in [(0usize, 1usize), (2, 1), (3, 2), (1, 3)] {
            let mut run_spec = spec.clone();
            run_spec.batch = batch;
            run_spec.threads = threads;
            let report = Simulation::from_spec(&run_spec).unwrap().run().unwrap();
            assert_eq!(report.engine, engine);
            assert_trials_bit_identical(
                &report.trials,
                want,
                &format!("{engine} batch {batch} threads {threads}"),
            );
        }
    }

    #[test]
    fn fixed_horizon_arms_match_direct_engines() {
        // StaticSteps: one `ReplicaBatch::step_many` over every seed.
        let mut spec = converge_spec();
        spec.graph = GraphSpec::Torus { rows: 4, cols: 5 };
        spec.replicas = 7;
        spec.stop = StopSpec::Steps { steps: 3_000 };
        let sim = Simulation::from_spec(&spec).unwrap();
        let mut batch =
            ReplicaBatch::new(sim.graph(), sim.kernel_spec(), &sim.xi0, &sim.trial_seeds())
                .unwrap();
        batch.step_many(3_000);
        let want: Vec<TrialResult> = (0..spec.replicas)
            .map(|r| TrialResult {
                steps: 3_000,
                converged: false,
                potential: batch.replica_potential_pi(r),
                estimate: batch.replica_weighted_average(r),
                winner: None,
                mutations: 0,
            })
            .collect();
        assert_runs_match(&spec, Engine::StaticSteps, &want);

        // DynamicSteps: whole epochs of `DynamicReplicaBatch::step_epoch`
        // under degree-changing churn (the π weights move with the graph).
        spec.churn = Some(ChurnSpec {
            model: ChurnModelSpec::Rewire {
                rewires: 2,
                min_degree: 2,
            },
            steps_per_epoch: 20,
            seed: 31,
        });
        spec.stop = StopSpec::Steps { steps: 20 * 40 };
        let sim = Simulation::from_spec(&spec).unwrap();
        let (churn, spe, churn_seed) = sim.churn_parts();
        let mut batch = DynamicReplicaBatch::new(
            DynamicGraph::new(sim.graph().clone()),
            sim.kernel_spec(),
            &sim.xi0,
            &sim.trial_seeds(),
            churn,
            churn_seed,
        )
        .unwrap();
        for _ in 0..40 {
            batch.step_epoch(spe).unwrap();
        }
        assert!(batch.mutations() > 0);
        let want: Vec<TrialResult> = (0..spec.replicas)
            .map(|r| TrialResult {
                steps: 20 * 40,
                converged: false,
                potential: batch.replica_potential_pi(r),
                estimate: batch.replica_weighted_average(r),
                winner: None,
                mutations: batch.mutations(),
            })
            .collect();
        assert_runs_match(&spec, Engine::DynamicSteps, &want);

        // VoterSteps: `VoterBatch::step_many`; a short horizon leaves some
        // trials at consensus and some not.
        let mut spec = ScenarioSpec::new(ModelSpec::Voter, GraphSpec::Complete { n: 6 }, 30);
        spec.replicas = 9;
        spec.seed = 17;
        spec.init = InitSpec::Opinions { levels: 2 };
        let sim = Simulation::from_spec(&spec).unwrap();
        let mut batch = VoterBatch::new(sim.graph(), &sim.opinions0, &sim.trial_seeds()).unwrap();
        batch.step_many(30);
        let want: Vec<TrialResult> = (0..spec.replicas)
            .map(|r| {
                let consensus = batch.replica_is_consensus(r);
                TrialResult {
                    steps: 30,
                    converged: consensus,
                    potential: f64::NAN,
                    estimate: f64::NAN,
                    winner: consensus.then(|| batch.replica_opinions(r)[0]),
                    mutations: 0,
                }
            })
            .collect();
        assert!(want.iter().any(|t| t.converged) && want.iter().any(|t| !t.converged));
        assert_runs_match(&spec, Engine::VoterSteps, &want);
    }

    fn sync_spec(model: ModelSpec) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new(model, GraphSpec::Cycle { n: 9 }, 0);
        spec.init = InitSpec::Linear { lo: 0.0, hi: 8.0 };
        spec.stop = StopSpec::FixedPoint {
            epsilon: 1e-12,
            budget: 200_000,
        };
        spec
    }

    #[test]
    fn sync_models_dispatch_to_sync_rounds() {
        for model in [
            ModelSpec::DeGroot { lazy: 0.5 },
            ModelSpec::Fj { alpha: 0.25 },
            ModelSpec::WeightedMedian,
        ] {
            let sim = Simulation::from_spec(&sync_spec(model)).unwrap();
            assert_eq!(sim.engine(), Engine::SyncRounds);
        }
    }

    #[test]
    fn sync_rounds_runs_to_fixed_point() {
        // Lazy DeGroot on a regular graph converges to the plain mean of
        // the start values; the single deterministic trial reports it.
        let report = Simulation::from_spec(&sync_spec(ModelSpec::DeGroot { lazy: 0.5 }))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.engine, Engine::SyncRounds);
        let [trial] = report.trials.as_slice() else {
            panic!("sync engine runs exactly one trial");
        };
        assert!(trial.converged);
        assert!(trial.potential <= 1e-12);
        assert!((trial.estimate - 4.0).abs() < 1e-8);
        assert_eq!(trial.winner, None);

        // A steps stop runs exactly that many rounds, never "converged".
        let mut spec = sync_spec(ModelSpec::DeGroot { lazy: 0.5 });
        spec.stop = StopSpec::Steps { steps: 17 };
        let report = Simulation::from_spec(&spec).unwrap().run().unwrap();
        assert_eq!(report.trials[0].steps, 17);
        assert!(!report.trials[0].converged);
    }

    #[test]
    fn sync_rounds_matches_direct_kernel() {
        let spec = sync_spec(ModelSpec::Fj { alpha: 0.25 });
        let sim = Simulation::from_spec(&spec).unwrap();
        let report = sim.run().unwrap();
        let mut kernel = od_core::SyncKernel::new(
            sim.graph(),
            sim.xi0.clone(),
            od_core::SyncModel::FriedkinJohnsen { alpha: 0.25 },
        )
        .unwrap();
        let (rounds, converged) = kernel.run(200_000, 1e-12).unwrap();
        assert_eq!(report.trials[0].steps, rounds);
        assert_eq!(report.trials[0].converged, converged);
        let mean = kernel.values().iter().sum::<f64>() / 9.0;
        assert_eq!(report.trials[0].estimate.to_bits(), mean.to_bits());
    }

    #[test]
    fn weighted_graphs_run_the_exact_engines() {
        // `weights uniform` flows through assemble into the graph…
        let mut spec = converge_spec();
        spec.weights = crate::spec::WeightSpec::Uniform {
            lo: 0.5,
            hi: 2.0,
            seed: 3,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert!(sim.graph().is_weighted());
        // …and a `tier lane` spelling falls back to the exact engines:
        // the lane kernel has no weighted aggregation path.
        spec.tier = crate::spec::TierSpec::Lane;
        spec.stop = StopSpec::Converge {
            epsilon: 1e-8,
            rule: StopRuleSpec::Block,
            potential: PotentialSpec::Pi,
            budget: 1_000_000,
        };
        let sim = Simulation::from_spec(&spec).unwrap();
        assert_eq!(sim.engine(), Engine::StaticConverge);
        let report = sim.run().unwrap();
        assert_eq!(report.converged_count(), 5);
    }
}
