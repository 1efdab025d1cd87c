//! The one retirement driver behind every exact-tier engine.
//!
//! [`crate::ReplicaBatch`], [`crate::VoterBatch`],
//! [`crate::DynamicReplicaBatch`], [`crate::DynamicVoterBatch`] and
//! [`crate::ConvergeWindow`] all run the same iteration — pick a node or
//! edge, read neighbours, update one entry — over a replica-major
//! structure-of-arrays buffer, and all drive it with one loop. A
//! [`Driver`] holds that loop's state; one [`Driver::round`] admits
//! pending trials (windows only), steps the live prefix through one
//! partition helper, runs the topology hook (nothing on a static graph,
//! one churn epoch plus the row kind's refresh otherwise), checks,
//! records, and retires and compacts through one per-slot swap.
//! [`Driver::run`] loops rounds and restores canonical slot order on
//! exit, on the error path too.
//!
//! Two row kinds plug in through [`RowKind`]: [`Averaging`] (`f64` rows,
//! optional [`PotentialTracker`]s, [`ConvergenceReport`]s) and [`Voter`]
//! (`u32` rows, discord counts, a winner). Three stop rules:
//! [`Stop::Tracked`] (per step, static topology only), [`Stop::Boundary`]
//! (at the end of each block: fused with the step pass on a static graph,
//! after the hook on the post-churn graph otherwise), and none — the
//! fixed horizon of [`Driver::step_all`].
//!
//! Every slot draws only from its own RNG and touches only its own row,
//! and the churn hook runs once per round whatever the live count, so a
//! trial's trajectory, stopping time and report are independent of the
//! thread count, the retirement order and how many trials share the
//! driver — bit for bit.

use crate::dynamic::Environment;
use crate::engine::{ConvergenceReport, PotentialKind};
use crate::error::CoreError;
use crate::kernel::{
    boundary_check, count_discordant_edges, run_steps, run_steps_tracked_until,
    run_voter_steps_tracked, run_voter_steps_tracked_until, swap_rows, BlockOutcome, KernelSpec,
    PiWeights, PotentialTracker, PHI_GROUP,
};
use crate::voter::VoterReport;
use od_graph::{CommitOutcome, Graph, NodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-worker sampling scratch (`sample`, `perm`), kept across rounds so
/// stepping never allocates once the buffers have warmed up.
type Scratch = (Vec<NodeId>, Vec<u32>);

/// The result of one churn epoch: its mutation count and commit route.
type Churned = Result<(u64, CommitOutcome), CoreError>;

/// How a round detects that a slot is done (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Per step, through the row kind's incremental state.
    Tracked,
    /// At the end of each block.
    Boundary,
}

/// A run's block schedule and budgets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    /// Block length after the zero-step entry round.
    pub(crate) check_every: u64,
    /// Per-slot step budget.
    pub(crate) max_steps: u64,
    /// Churn epochs per [`Driver::run`].
    pub(crate) max_epochs: u64,
}

impl Budget {
    /// A static topology: blocks of `check_every` steps, capped by each
    /// slot's remaining `max_steps`.
    pub(crate) fn steps(check_every: u64, max_steps: u64) -> Budget {
        Budget {
            check_every,
            max_steps,
            max_epochs: u64::MAX,
        }
    }

    /// A churned topology: one block of `steps_per_epoch` steps per
    /// epoch, `max_epochs` epochs.
    pub(crate) fn epochs(steps_per_epoch: u64, max_epochs: u64) -> Budget {
        Budget {
            check_every: steps_per_epoch,
            max_steps: u64::MAX,
            max_epochs,
        }
    }
}

/// The topology a driver steps over.
pub(crate) enum Topology<'a> {
    /// One immutable CSR for the whole run.
    Static(&'a Graph),
    /// A shared evolving environment, churned once per round.
    Churned(&'a mut Environment),
}

impl Topology<'_> {
    pub(crate) fn graph(&self) -> &Graph {
        match self {
            Topology::Static(graph) => graph,
            Topology::Churned(env) => env.graph(),
        }
    }
}

/// What the driver needs to know about one row kind: how to step a slot,
/// how to check a group of slots at a block boundary, what to report and
/// how to follow a churned topology.
pub(crate) trait RowKind: Sync {
    /// One row entry.
    type Elem: Copy + Send + Sync;
    /// Per-slot state stored beside each row (may be empty).
    type Extra: Send + Sync;
    /// Per-trial report.
    type Report: Copy;

    /// Fresh sampling scratch for one worker.
    fn scratch(&self, _graph: &Graph) -> Scratch {
        (Vec::new(), Vec::new())
    }

    /// Steps one slot through `block` steps; `tracked` stops it at the
    /// first step meeting the threshold.
    #[allow(clippy::too_many_arguments)] // one slot's complete state
    fn step(
        &self,
        graph: &Graph,
        tracked: bool,
        row: &mut [Self::Elem],
        rng: &mut StdRng,
        extra: Option<&mut Self::Extra>,
        block: u64,
        scratch: &mut Scratch,
    ) -> BlockOutcome;

    /// The boundary check of up to [`PHI_GROUP`] consecutive slots: fills
    /// each outcome's potential, estimate and convergence flag.
    fn evaluate(
        &self,
        n: usize,
        rows: &[Self::Elem],
        extra: &[Self::Extra],
        outcomes: &mut [BlockOutcome],
    );

    /// The report of a slot that has run `steps` steps in total.
    fn report(outcome: &BlockOutcome, steps: u64, row: &[Self::Elem]) -> Self::Report;

    /// The spec churn must keep valid (`None`: every node needs a
    /// neighbour).
    fn spec(&self) -> Option<KernelSpec>;

    /// Brings cached topology data and the given slots' state in line
    /// with the committed graph after a churn epoch.
    fn refresh(
        &mut self,
        graph: &Graph,
        churned: &Churned,
        rows: &[Self::Elem],
        extra: &mut [Self::Extra],
    );
}

/// Averaging rows: `f64` values, a [`PotentialTracker`] per slot under
/// [`Stop::Tracked`] (none otherwise), [`ConvergenceReport`]s.
#[derive(Debug, Clone)]
pub(crate) struct Averaging {
    pub(crate) spec: KernelSpec,
    /// The threshold of the current run.
    pub(crate) epsilon: f64,
    /// The potential the current run thresholds.
    pub(crate) potential: PotentialKind,
    /// π weights of the committed topology: the trackers' `π` and the
    /// boundary sweep's weights (empty until an owner computes them).
    pub(crate) weights: PiWeights,
}

impl Averaging {
    /// Rows of `spec` over a topology with π weights `weights`; the
    /// threshold and potential are set per run.
    pub(crate) fn new(spec: KernelSpec, weights: PiWeights) -> Averaging {
        Averaging {
            spec,
            epsilon: f64::NAN,
            potential: PotentialKind::Pi,
            weights,
        }
    }
}

impl RowKind for Averaging {
    type Elem = f64;
    type Extra = PotentialTracker;
    type Report = ConvergenceReport;

    fn scratch(&self, graph: &Graph) -> Scratch {
        self.spec.scratch(graph)
    }

    fn step(
        &self,
        graph: &Graph,
        tracked: bool,
        row: &mut [f64],
        rng: &mut StdRng,
        tracker: Option<&mut PotentialTracker>,
        block: u64,
        (sample, perm): &mut Scratch,
    ) -> BlockOutcome {
        match tracker.filter(|_| tracked) {
            Some(tracker) => {
                let (steps, converged) = run_steps_tracked_until(
                    graph,
                    self.spec,
                    self.weights.pi(),
                    row,
                    tracker,
                    sample,
                    perm,
                    block,
                    self.epsilon,
                    rng,
                );
                BlockOutcome {
                    steps,
                    potential: tracker.potential_pi(),
                    weighted_average: tracker.weighted_average(),
                    converged,
                }
            }
            None => {
                run_steps(graph, self.spec, row, sample, perm, block, rng);
                BlockOutcome::stepped(block)
            }
        }
    }

    fn evaluate(
        &self,
        n: usize,
        rows: &[f64],
        _: &[PotentialTracker],
        outcomes: &mut [BlockOutcome],
    ) {
        boundary_check(
            &self.weights,
            self.epsilon,
            self.potential,
            n,
            rows,
            outcomes,
        );
    }

    fn report(outcome: &BlockOutcome, steps: u64, _: &[f64]) -> ConvergenceReport {
        ConvergenceReport {
            steps,
            converged: outcome.converged,
            potential: outcome.potential,
            weighted_average: outcome.weighted_average,
        }
    }

    fn spec(&self) -> Option<KernelSpec> {
        Some(self.spec)
    }

    /// Edge swaps (`Patched`) keep the degree sequence and with it the
    /// cached π weights; `Shifted`/`Rebuilt` commits move it, and a
    /// failed epoch may already have committed.
    fn refresh(&mut self, graph: &Graph, churned: &Churned, _: &[f64], _: &mut [PotentialTracker]) {
        if !matches!(
            churned,
            Ok((_, CommitOutcome::Unchanged | CommitOutcome::Patched))
        ) {
            self.weights.refresh(graph);
        }
    }
}

/// Voter rows: `u32` opinions, an incremental discordant-edge count per
/// slot, a winner.
pub(crate) struct Voter;

impl RowKind for Voter {
    type Elem = u32;
    type Extra = u64;
    type Report = VoterReport;

    fn step(
        &self,
        graph: &Graph,
        tracked: bool,
        row: &mut [u32],
        rng: &mut StdRng,
        discord: Option<&mut u64>,
        block: u64,
        _: &mut Scratch,
    ) -> BlockOutcome {
        let Some(discord) = discord else {
            unreachable!("every voter slot carries a discord count")
        };
        if tracked {
            let (steps, converged) = run_voter_steps_tracked_until(graph, row, discord, block, rng);
            BlockOutcome {
                steps,
                potential: *discord as f64,
                weighted_average: f64::NAN,
                converged,
            }
        } else {
            // The full block even past consensus: voter steps are no-ops
            // there, and epoch-granular stopping must replay the per-trial
            // loop's RNG stream, which keeps drawing.
            run_voter_steps_tracked(graph, row, discord, block, rng);
            BlockOutcome::stepped(block)
        }
    }

    /// The O(1) discord screen plus an O(n) unanimity scan when it hits
    /// zero: zero discord implies consensus only on a connected topology,
    /// and degree-changing churn guarantees no more than `d_min >= 1`.
    fn evaluate(&self, n: usize, rows: &[u32], discords: &[u64], outcomes: &mut [BlockOutcome]) {
        for ((outcome, row), &discord) in
            outcomes.iter_mut().zip(rows.chunks_exact(n)).zip(discords)
        {
            outcome.potential = discord as f64;
            outcome.converged = discord == 0 && row.windows(2).all(|w| w[0] == w[1]);
        }
    }

    fn report(outcome: &BlockOutcome, steps: u64, row: &[u32]) -> VoterReport {
        VoterReport {
            steps,
            winner: outcome.converged.then(|| row[0]),
        }
    }

    fn spec(&self) -> Option<KernelSpec> {
        None
    }

    /// Moving edges invalidates the incremental counts: one O(m) recount
    /// per slot after an epoch that mutated the topology, and after a
    /// failed one, whose commit may already have landed.
    fn refresh(&mut self, graph: &Graph, churned: &Churned, rows: &[u32], discords: &mut [u64]) {
        if matches!(churned, Ok((0, _))) {
            return;
        }
        for (discord, row) in discords.iter_mut().zip(rows.chunks_exact(graph.n())) {
            *discord = count_discordant_edges(graph, row);
        }
    }
}

/// What one [`Driver::pass`] does to each slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// Step the block, untracked.
    Step,
    /// Step under the per-step stopping rule.
    StepTracked,
    /// Step, then check each group while its rows are still in cache.
    StepEvaluate,
    /// Check only (the post-churn boundary).
    Evaluate,
}

/// A contiguous range of slots: their rows, RNGs, per-slot state,
/// outcomes and block lengths.
struct Slots<'a, T, X> {
    rows: &'a mut [T],
    rngs: &'a mut [StdRng],
    extra: &'a mut [X],
    outcomes: &'a mut [BlockOutcome],
    blocks: &'a [u64],
}

impl<T, X> Slots<'_, T, X> {
    /// Splits off the first `count` slots.
    fn split(self, n: usize, count: usize) -> (Self, Self) {
        let (rows, rows_rest) = self.rows.split_at_mut(count * n);
        let (rngs, rngs_rest) = self.rngs.split_at_mut(count);
        let (extra, extra_rest) = self.extra.split_at_mut(count.min(self.extra.len()));
        let (outcomes, outcomes_rest) = self.outcomes.split_at_mut(count);
        let (blocks, blocks_rest) = self.blocks.split_at(count);
        (
            Slots {
                rows,
                rngs,
                extra,
                outcomes,
                blocks,
            },
            Slots {
                rows: rows_rest,
                rngs: rngs_rest,
                extra: extra_rest,
                outcomes: outcomes_rest,
                blocks: blocks_rest,
            },
        )
    }

    /// One worker's share of a pass: its slots in groups of
    /// [`PHI_GROUP`], each group stepped and then (when the pass checks)
    /// evaluated in one grouped sweep.
    fn work<K: RowKind<Elem = T, Extra = X>>(
        self,
        kind: &K,
        graph: &Graph,
        n: usize,
        pass: Pass,
        scratch: &mut Scratch,
    ) {
        for (g, group) in self.outcomes.chunks_mut(PHI_GROUP).enumerate() {
            let first = g * PHI_GROUP;
            let span = first..first + group.len();
            if pass != Pass::Evaluate {
                for (slot, outcome) in span.clone().zip(group.iter_mut()) {
                    *outcome = kind.step(
                        graph,
                        pass == Pass::StepTracked,
                        &mut self.rows[slot * n..(slot + 1) * n],
                        &mut self.rngs[slot],
                        self.extra.get_mut(slot),
                        self.blocks[slot],
                        scratch,
                    );
                }
            }
            if matches!(pass, Pass::StepEvaluate | Pass::Evaluate) {
                let rows = &self.rows[span.start * n..span.end * n];
                kind.evaluate(n, rows, self.extra.get(span).unwrap_or(&[]), group);
            }
        }
    }
}

/// The loop state of one exact-tier run (see the module docs). `T` is the
/// row entry, `X` the per-slot state, `R` the per-trial report.
#[derive(Debug, Clone)]
pub(crate) struct Driver<T, X, R> {
    /// Nodes per row.
    pub(crate) n: usize,
    /// Replica-major `slots × n` storage; slot `s` occupies
    /// `rows[s*n .. (s+1)*n]`.
    pub(crate) rows: Vec<T>,
    pub(crate) rngs: Vec<StdRng>,
    /// Per-slot state: trackers (exact averaging) or discord counts.
    pub(crate) extra: Vec<X>,
    /// One sampling scratch per worker used so far.
    scratch: Vec<Scratch>,
    /// Which trial each slot is running.
    pub(crate) slot_trial: Vec<usize>,
    /// Steps each slot's trial has taken so far.
    pub(crate) taken: Vec<u64>,
    /// Next block length per live slot (0 = entry check only).
    pub(crate) blocks: Vec<u64>,
    outcomes: Vec<BlockOutcome>,
    /// Admission cursor: the next pending trial.
    pub(crate) next: usize,
    /// Number of live slots (the prefix being stepped).
    pub(crate) live: usize,
    /// Rounds run by the current [`Driver::run`]; past the entry round,
    /// each one is a churn epoch.
    rounds: u64,
    /// Per-trial reports (provisional until the trial retires).
    pub(crate) reports: Vec<R>,
    /// Per trial: the environment's mutation count when it was last
    /// recorded (0 on a static topology).
    pub(crate) mutations: Vec<u64>,
}

/// The averaging driver.
pub(crate) type AveragingDriver = Driver<f64, PotentialTracker, ConvergenceReport>;
/// The voter driver.
pub(crate) type VoterDriver = Driver<u32, u64, VoterReport>;

impl<T: Copy + Send + Sync, X: Send + Sync, R: Copy> Driver<T, X, R> {
    /// A batch: one slot per seed, every slot live, all starting from
    /// `row0` with per-slot state `extra`.
    pub(crate) fn batch(row0: &[T], seeds: &[u64], extra: Vec<X>, report0: R) -> Self {
        let r = seeds.len();
        Driver {
            rows: row0.repeat(r),
            rngs: seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect(),
            extra,
            slot_trial: (0..r).collect(),
            next: r,
            live: r,
            ..Driver::window(row0.len(), r, r, Vec::new(), report0)
        }
    }

    /// A window of `capacity` empty slots over `total` pending trials;
    /// `rows` is its `capacity × n` storage, which admission fills.
    pub(crate) fn window(
        n: usize,
        capacity: usize,
        total: usize,
        rows: Vec<T>,
        report0: R,
    ) -> Self {
        Driver {
            n,
            rows,
            rngs: Vec::with_capacity(capacity),
            extra: Vec::new(),
            scratch: Vec::new(),
            slot_trial: vec![0; capacity],
            taken: vec![0; capacity],
            blocks: vec![0; capacity],
            outcomes: vec![BlockOutcome::default(); capacity],
            next: 0,
            live: 0,
            rounds: 0,
            reports: vec![report0; total],
            mutations: vec![0; total],
        }
    }

    /// Number of slots holding an RNG (a batch's replica count).
    pub(crate) fn replicas(&self) -> usize {
        self.rngs.len()
    }

    /// Slot `slot`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= replicas()`.
    pub(crate) fn row(&self, slot: usize) -> &[T] {
        assert!(slot < self.replicas(), "replica {slot} out of range");
        &self.rows[slot * self.n..(slot + 1) * self.n]
    }

    /// Admits pending trials into the free suffix. `init(trial, row)`
    /// fills the slot's row and returns its RNG and per-slot state; each
    /// admitted slot starts with a zero-length entry block.
    pub(crate) fn admit(&mut self, mut init: impl FnMut(usize, &mut [T]) -> (StdRng, Option<X>)) {
        fn put<V>(vec: &mut Vec<V>, slot: usize, value: V) {
            if slot < vec.len() {
                vec[slot] = value;
            } else {
                vec.push(value);
            }
        }
        while self.live < self.slot_trial.len() && self.next < self.reports.len() {
            let slot = self.live;
            let (rng, extra) = init(
                self.next,
                &mut self.rows[slot * self.n..(slot + 1) * self.n],
            );
            put(&mut self.rngs, slot, rng);
            if let Some(extra) = extra {
                put(&mut self.extra, slot, extra);
            }
            self.slot_trial[slot] = self.next;
            self.taken[slot] = 0;
            self.blocks[slot] = 0;
            self.live += 1;
            self.next += 1;
        }
    }

    /// The one partition helper: applies `pass` to the first `count`
    /// slots. They are split into contiguous per-worker ranges and run
    /// under `std::thread::scope`, each worker with its own sampling
    /// scratch; with one worker everything runs on the calling thread.
    /// Results are independent of the partition, bit for bit.
    fn pass<K: RowKind<Elem = T, Extra = X>>(
        &mut self,
        kind: &K,
        graph: &Graph,
        count: usize,
        pass: Pass,
        threads: usize,
    ) {
        let workers = threads.clamp(1, count.max(1));
        while self.scratch.len() < workers {
            self.scratch.push(kind.scratch(graph));
        }
        let n = self.n;
        let all = Slots {
            rows: &mut self.rows,
            rngs: &mut self.rngs,
            extra: &mut self.extra,
            outcomes: &mut self.outcomes,
            blocks: &self.blocks,
        };
        let (mut rest, _) = all.split(n, count);
        if workers == 1 {
            rest.work(kind, graph, n, pass, &mut self.scratch[0]);
            return;
        }
        let (base, extra) = (count / workers, count % workers);
        std::thread::scope(|scope| {
            for (w, scratch) in self.scratch[..workers].iter_mut().enumerate() {
                let (chunk, tail) = rest.split(n, base + usize::from(w < extra));
                rest = tail;
                scope.spawn(move || {
                    // Step from a worker-local copy: the pool's buffer
                    // headers share cache lines between workers.
                    let mut local = std::mem::take(scratch);
                    chunk.work(kind, graph, n, pass, &mut local);
                    *scratch = local;
                });
            }
        });
    }

    /// The topology hook under churn: one epoch of the shared
    /// environment, then the row kind's refresh of the first `count`
    /// slots — on the error path too, since a failed epoch may already
    /// have committed. Returns the epoch's mutation count.
    pub(crate) fn churn<K: RowKind<Elem = T, Extra = X>>(
        &mut self,
        kind: &mut K,
        env: &mut Environment,
        count: usize,
    ) -> Result<u64, CoreError> {
        let churned = env.advance(kind.spec());
        let extra = count.min(self.extra.len());
        let (rows, extra) = (&self.rows[..count * self.n], &mut self.extra[..extra]);
        kind.refresh(env.graph(), &churned, rows, extra);
        churned.map(|(applied, _)| applied)
    }

    /// A fixed horizon, the driver without a stop rule: steps every slot
    /// through `steps` steps on the calling thread; nothing is checked or
    /// retired. Dynamic callers follow it with [`Driver::churn`].
    pub(crate) fn step_all<K: RowKind<Elem = T, Extra = X>>(
        &mut self,
        kind: &K,
        graph: &Graph,
        steps: u64,
    ) {
        let count = self.replicas();
        self.blocks.fill(steps);
        self.pass(kind, graph, count, Pass::Step, 1);
    }

    /// One round over the live prefix (admission aside, see
    /// [`Driver::admit`]): step, hook, check, record, retire and compact,
    /// then schedule the survivors' next blocks. On a hook error the
    /// round records nothing.
    pub(crate) fn round<K: RowKind<Elem = T, Extra = X, Report = R>>(
        &mut self,
        kind: &mut K,
        topology: &mut Topology<'_>,
        stop: Stop,
        budget: Budget,
        threads: usize,
    ) -> Result<(), CoreError> {
        let live = self.live;
        let pass = match (stop, &topology) {
            (Stop::Tracked, _) => Pass::StepTracked,
            (Stop::Boundary, Topology::Static(_)) => Pass::StepEvaluate,
            (Stop::Boundary, Topology::Churned(_)) => Pass::Step,
        };
        self.pass(kind, topology.graph(), live, pass, threads);
        let mutations = match topology {
            Topology::Static(_) => 0,
            Topology::Churned(env) => {
                // The entry round checks the initial state: no epoch yet.
                if self.rounds > 0 {
                    self.churn(kind, env, live)?;
                }
                self.pass(kind, env.graph(), live, Pass::Evaluate, threads);
                env.mutations
            }
        };
        let epochs_spent = self.rounds >= budget.max_epochs;
        for slot in 0..live {
            let outcome = &mut self.outcomes[slot];
            self.taken[slot] += outcome.steps;
            let trial = self.slot_trial[slot];
            let row = &self.rows[slot * self.n..(slot + 1) * self.n];
            self.reports[trial] = K::report(outcome, self.taken[slot], row);
            self.mutations[trial] = mutations;
            // Budget-exhausted slots retire alongside converged ones; the
            // report above has already recorded the honest
            // `converged: false`.
            if epochs_spent || self.taken[slot] >= budget.max_steps {
                outcome.converged = true;
            }
        }
        // Stable retirement: survivors keep their relative order.
        let mut write = 0;
        for slot in 0..live {
            if !self.outcomes[slot].converged {
                self.swap_slots(write, slot);
                write += 1;
            }
        }
        self.live = write;
        for slot in 0..write {
            self.blocks[slot] = budget.check_every.min(budget.max_steps - self.taken[slot]);
        }
        self.rounds += 1;
        Ok(())
    }

    /// Runs a batch to completion: every slot live from a zero-step entry
    /// round, rounds until all retired, then the rows back in canonical
    /// order — on the error path too. `time` advances by each round's
    /// block, i.e. by the longest-lived slot's block time.
    pub(crate) fn run<K: RowKind<Elem = T, Extra = X, Report = R>>(
        &mut self,
        kind: &mut K,
        topology: &mut Topology<'_>,
        stop: Stop,
        budget: Budget,
        threads: usize,
        time: &mut u64,
    ) -> Result<(), CoreError> {
        self.taken.fill(0);
        self.blocks.fill(0);
        self.live = self.replicas();
        self.rounds = 0;
        let mut result = Ok(());
        while self.live > 0 && result.is_ok() {
            *time += self.blocks[0];
            result = self.round(kind, topology, stop, budget, threads);
        }
        // Each swap sends one trial home for good: O(R) swaps.
        for slot in 0..self.slot_trial.len() {
            while self.slot_trial[slot] != slot {
                self.swap_slots(slot, self.slot_trial[slot]);
            }
        }
        result
    }

    /// Swaps everything slots `a` and `b` hold: row, RNG, per-slot state,
    /// trial, steps taken and outcome.
    fn swap_slots(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        swap_rows(&mut self.rows, self.n, a, b);
        self.rngs.swap(a, b);
        if !self.extra.is_empty() {
            self.extra.swap(a, b);
        }
        self.slot_trial.swap(a, b);
        self.taken.swap(a, b);
        self.outcomes.swap(a, b);
    }
}
