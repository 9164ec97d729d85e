//! The five arrangement algorithms of the paper.
//!
//! | Algorithm | Function | Guarantee |
//! |---|---|---|
//! | Greedy-GEACC | [`greedy()`] | `1/(1 + max c_u)` |
//! | MinCostFlow-GEACC | [`mincostflow()`] | `1/max c_u` |
//! | Prune-GEACC | [`prune()`] | exact |
//! | Exhaustive | [`exhaustive`] | exact, no pruning |
//! | Random-V / Random-U | [`random_v`] / [`random_u`] | none (baselines) |
//!
//! The free functions above are the classic paper-facing entry points;
//! each one builds a [`CandidateGraph`][crate::engine::CandidateGraph]
//! and runs the corresponding `*_on` engine function
//! ([`greedy_on`], [`mincostflow_on`], [`prune_on`]) to completion.
//! [`Algorithm`] is the one table that knows every algorithm: its
//! display name, stage key, order and CLI/wire spellings. Dynamic
//! dispatch — picking an algorithm at runtime, budgets, fallbacks,
//! per-solver timing — lives in [`crate::engine`]
//! ([`solve_on`][crate::engine::solve_on] /
//! [`solve_instance`][crate::engine::solve_instance]).

pub mod bounds;
pub mod dp;
pub mod greedy;
pub mod mincostflow;
pub mod prune;
pub mod random;

pub use bounds::{optimality_gap, relaxation_upper_bound, trivial_upper_bound, GapReport};
pub use dp::{dp_state_space, exact_dp, DpTooLarge};
pub use greedy::{greedy, greedy_on, greedy_with, GreedyConfig, Streams};
pub use mincostflow::{
    mincostflow, mincostflow_on, mincostflow_with, McfConfig, McfResult, RelaxationInfo, SspHeap,
};
pub use prune::{
    exhaustive, prune, prune_on, prune_with, BudgetedPrune, PruneConfig, PruneResult, SearchStats,
};
pub use random::{random_u, random_v};

/// Which algorithm to run: the key [`engine::solve_on`][crate::engine::solve_on]
/// dispatches on, for every caller that picks one at runtime (CLI,
/// server, pipeline, benchmark).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Greedy-GEACC.
    Greedy,
    /// MinCostFlow-GEACC (full Δ sweep).
    MinCostFlow,
    /// Prune-GEACC (exact; small instances only).
    Prune,
    /// Exhaustive search without pruning (exact; tiny instances only).
    Exhaustive,
    /// Capacity-vector DP (exact; extension — exponential in `|V|` only,
    /// immune to the similarity-concentration blowup of branch-and-bound).
    ExactDp,
    /// Random-V baseline with the given seed.
    RandomV { seed: u64 },
    /// Random-U baseline with the given seed.
    RandomU { seed: u64 },
    /// ALNS-GEACC (extension): adaptive large-neighborhood search with
    /// the given seed — destroy/repair anytime refinement, see
    /// [`crate::alns`].
    Alns { seed: u64 },
}

impl Algorithm {
    /// Every algorithm once, in the order [`EngineStats`][crate::engine::EngineStats]
    /// snapshots report them (seeded variants carry seed 0).
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Greedy,
        Algorithm::MinCostFlow,
        Algorithm::Prune,
        Algorithm::Exhaustive,
        Algorithm::ExactDp,
        Algorithm::RandomV { seed: 0 },
        Algorithm::RandomU { seed: 0 },
        Algorithm::Alns { seed: 0 },
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Greedy => "Greedy-GEACC",
            Algorithm::MinCostFlow => "MinCostFlow-GEACC",
            Algorithm::Prune => "Prune-GEACC",
            Algorithm::Exhaustive => "Exhaustive",
            Algorithm::ExactDp => "Exact-DP",
            Algorithm::RandomV { .. } => "Random-V",
            Algorithm::RandomU { .. } => "Random-U",
            Algorithm::Alns { .. } => "ALNS-GEACC",
        }
    }

    /// The stage key used by fault plans, pipeline reporting and
    /// engine statistics; also the algorithm's CLI spelling.
    pub fn stage(&self) -> &'static str {
        match self {
            Algorithm::Greedy => "greedy",
            Algorithm::MinCostFlow => "mincostflow",
            Algorithm::Prune => "prune",
            Algorithm::Exhaustive => "exhaustive",
            Algorithm::ExactDp => "exact-dp",
            Algorithm::RandomV { .. } => "random-v",
            Algorithm::RandomU { .. } => "random-u",
            Algorithm::Alns { .. } => "alns",
        }
    }

    /// Parse an algorithm name, threading `seed` into the seeded
    /// variants. Accepts the stage keys (the CLI spellings) and the
    /// server wire spellings `exactdp`, `random_v` and `random_u`.
    pub fn parse(name: &str, seed: u64) -> Result<Algorithm, UnknownAlgorithm> {
        let stage = match name {
            "exactdp" => "exact-dp",
            "random_v" => "random-v",
            "random_u" => "random-u",
            other => other,
        };
        let algorithm = Self::ALL
            .into_iter()
            .find(|a| a.stage() == stage)
            .ok_or_else(|| UnknownAlgorithm {
                requested: name.to_string(),
            })?;
        Ok(match algorithm {
            Algorithm::RandomV { .. } => Algorithm::RandomV { seed },
            Algorithm::RandomU { .. } => Algorithm::RandomU { seed },
            Algorithm::Alns { .. } => Algorithm::Alns { seed },
            other => other,
        })
    }
}

/// An algorithm name [`Algorithm::parse`] does not know. Displays the
/// same message the CLI has always printed for `--algorithm` typos.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithm {
    /// The name as the caller gave it.
    pub requested: String,
}

impl std::fmt::Display for UnknownAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown algorithm {:?} (greedy, mincostflow, prune, exhaustive, exact-dp, random-v, random-u, alns)",
            self.requested
        )
    }
}

impl std::error::Error for UnknownAlgorithm {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_paper_names() {
        assert_eq!(Algorithm::Greedy.name(), "Greedy-GEACC");
        assert_eq!(Algorithm::RandomV { seed: 0 }.name(), "Random-V");
    }

    #[test]
    fn every_algorithm_has_one_name_stage_and_spelling() {
        for (algo, name, stage) in [
            (Algorithm::Greedy, "Greedy-GEACC", "greedy"),
            (Algorithm::MinCostFlow, "MinCostFlow-GEACC", "mincostflow"),
            (Algorithm::Prune, "Prune-GEACC", "prune"),
            (Algorithm::Exhaustive, "Exhaustive", "exhaustive"),
            (Algorithm::ExactDp, "Exact-DP", "exact-dp"),
            (Algorithm::RandomV { seed: 3 }, "Random-V", "random-v"),
            (Algorithm::RandomU { seed: 3 }, "Random-U", "random-u"),
            (Algorithm::Alns { seed: 3 }, "ALNS-GEACC", "alns"),
        ] {
            assert_eq!(algo.name(), name);
            assert_eq!(algo.stage(), stage);
            assert_eq!(Algorithm::parse(stage, 3), Ok(algo));
        }
        let stages: std::collections::BTreeSet<_> =
            Algorithm::ALL.iter().map(Algorithm::stage).collect();
        assert_eq!(stages.len(), Algorithm::ALL.len());
        assert!(Algorithm::parse("annealing", 0).is_err());
    }

    #[test]
    fn parse_accepts_both_spelling_families() {
        let parse = Algorithm::parse;
        assert_eq!(parse("greedy", 0), Ok(Algorithm::Greedy));
        assert_eq!(parse("exact-dp", 0), Ok(Algorithm::ExactDp));
        assert_eq!(parse("exactdp", 0), Ok(Algorithm::ExactDp));
        assert_eq!(parse("random-v", 5), Ok(Algorithm::RandomV { seed: 5 }));
        assert_eq!(parse("random_v", 5), Ok(Algorithm::RandomV { seed: 5 }));
        assert_eq!(parse("random_u", 9), Ok(Algorithm::RandomU { seed: 9 }));
        assert_eq!(parse("alns", 7), Ok(Algorithm::Alns { seed: 7 }));
        let err = parse("magic", 0).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown algorithm \"magic\" (greedy, mincostflow, prune, exhaustive, exact-dp, random-v, random-u, alns)"
        );
    }
}
