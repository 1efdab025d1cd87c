//! Experiment harness for the reproduction of *Distributed Averaging in
//! Opinion Dynamics* (PODC 2023).
//!
//! The paper is a theory paper: its "evaluation" is a set of theorems,
//! lemmas and two worked figures. Each gets a quantitative experiment here
//! (see [`registry`] for the index and README.md, § Experiments, for how
//! to run them and where their tables land). Run them with:
//!
//! ```text
//! cargo run --release -p od-experiments --bin run-experiments -- --all
//! cargo run --release -p od-experiments --bin run-experiments -- P58 L57
//! ```
//!
//! Every experiment is a pure function from an [`ExperimentContext`]
//! (quickness + master seed) to a list of result [`Table`]s, so the
//! integration tests can assert on the numbers the binary prints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runner;

use od_stats::{SeedSequence, Table};

/// Shared experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentContext {
    /// Reduced trial counts / sizes for CI and tests.
    pub quick: bool,
    /// Master seed; every experiment derives child sequences from it.
    pub seeds: SeedSequence,
}

impl ExperimentContext {
    /// Standard context (full trial counts, fixed master seed).
    pub fn full() -> Self {
        ExperimentContext {
            quick: false,
            seeds: SeedSequence::new(0x0D_5EED),
        }
    }

    /// Quick context for CI.
    pub fn quick() -> Self {
        ExperimentContext {
            quick: true,
            seeds: SeedSequence::new(0x0D_5EED),
        }
    }

    /// Picks a trial count depending on quickness.
    pub fn trials(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// A named experiment.
pub struct Experiment {
    /// Short id used on the command line (e.g. `"P58"`).
    pub id: &'static str,
    /// One-line description.
    pub description: &'static str,
    /// The experiment body.
    pub run: fn(&ExperimentContext) -> Vec<Table>,
}

/// The registry of all experiments, in the order `run_experiments --list`
/// prints them (README.md, § Experiments).
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "FIG1",
            description: "Figure 1: duality worked example (k=1, alpha=1/2)",
            run: experiments::duality::fig1,
        },
        Experiment {
            id: "FIG4",
            description: "Figure 4: duality worked example (k=2, alpha=1/2)",
            run: experiments::duality::fig4,
        },
        Experiment {
            id: "DUAL",
            description: "Lemma 5.2: exact duality on random runs",
            run: experiments::duality::random_duality,
        },
        Experiment {
            id: "T22-CONV",
            description: "Thm 2.2(1): NodeModel convergence time vs n/(1-lambda2)",
            run: experiments::convergence::node_convergence,
        },
        Experiment {
            id: "T22-K",
            description: "Thm 2.2(1): weak k-dependence of convergence time",
            run: experiments::convergence::k_dependence,
        },
        Experiment {
            id: "T24-CONV",
            description: "Thm 2.4(1): EdgeModel convergence time vs m/lambda2(L)",
            run: experiments::convergence::edge_convergence,
        },
        Experiment {
            id: "PB2",
            description: "Prop B.2: worst-case initial state (second eigenvector)",
            run: experiments::convergence::lower_bound,
        },
        Experiment {
            id: "T22-VAR",
            description: "Thm 2.2(2): Var(F) structure/k independence",
            run: experiments::variance::structure_independence,
        },
        Experiment {
            id: "T24-VAR",
            description: "Thm 2.4(2): EdgeModel variance = NodeModel k=1 on regular graphs",
            run: experiments::variance::edge_variance,
        },
        Experiment {
            id: "P58",
            description: "Prop 5.8: empirical Var(F) vs exact Q-chain prediction",
            run: experiments::variance::exact_prediction,
        },
        Experiment {
            id: "CE2",
            description: "Cor E.2: time-dependent variance bounds",
            run: experiments::variance::time_variance,
        },
        Experiment {
            id: "L41",
            description: "Lemma 4.1: martingale conservation of M(t) and Avg(t)",
            run: experiments::martingale::conservation,
        },
        Experiment {
            id: "L57",
            description: "Lemma 5.7: Q-chain stationary distribution closed form",
            run: experiments::stationary::closed_form_validation,
        },
        Experiment {
            id: "PB1",
            description: "Prop B.1: NodeModel one-step potential contraction",
            run: experiments::potential::node_drop,
        },
        Experiment {
            id: "PD1",
            description: "Prop D.1: EdgeModel one-step potential contraction",
            run: experiments::potential::edge_drop,
        },
        Experiment {
            id: "CMP-BASE",
            description: "Price of simplicity vs gossip/push-sum/DeGroot/diffusion",
            run: experiments::comparison::baselines,
        },
        Experiment {
            id: "CMP-VOTER",
            description: "NodeModel vs voter-model consensus time",
            run: experiments::comparison::voter,
        },
        Experiment {
            id: "EQUIV",
            description: "NodeModel(k=1) and EdgeModel coincide on regular graphs",
            run: experiments::comparison::equivalence,
        },
        Experiment {
            id: "IRREG",
            description: "Irregular graphs: E[F] weights and exploratory variance",
            run: experiments::comparison::irregular,
        },
        Experiment {
            id: "RUNTIME",
            description: "Message-passing runtime conformance and cost",
            run: experiments::duality::runtime_conformance,
        },
        Experiment {
            id: "HIGHER",
            description: "Section 6 extension: E[F^M] via M correlated walks",
            run: experiments::higher_moments::moments,
        },
        Experiment {
            id: "DYN-CHURN",
            description: "Dynamic graphs: NodeModel convergence vs edge-swap churn rate",
            run: experiments::dynamic::churn_convergence,
        },
    ]
}

/// Looks up an experiment by (case-insensitive) id.
pub fn find(id: &str) -> Option<Experiment> {
    registry()
        .into_iter()
        .find(|e| e.id.eq_ignore_ascii_case(id))
}
