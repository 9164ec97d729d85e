//! The engine's one dispatch path: [`solve_on`] runs any [`Algorithm`]
//! over a prebuilt [`CandidateGraph`] under a [`BudgetMeter`].
//!
//! Callers — the pipeline, the CLI, the bench harness, the server —
//! dispatch uniformly instead of choosing between plain and budgeted
//! free functions. The meter *is* the budget: pass
//! [`BudgetMeter::unlimited`] for a classic run-to-completion solve
//! (bit-identical to the historical meterless entry points), or a real
//! budget for an anytime solve. Cancellation travels inside the meter
//! ([`BudgetMeter::with_cancel`]), so dispatch needs no separate token
//! argument.
//!
//! Status mapping is uniform and honest: a completed exact solver
//! (Prune-GEACC, Exhaustive, Exact-DP) reports [`SolveStatus::Optimal`],
//! a completed heuristic [`Provenance::Completed`], and any budget stop
//! [`Provenance::Incumbent`] with the reason. Exact-DP is
//! all-or-nothing — an oversized instance panics (with the same message
//! the legacy dispatcher used), which the pipeline's `catch_unwind`
//! turns into a degradation; dispatchers that want a clean error
//! pre-check with [`dp_state_space`][crate::algorithms::dp::dp_state_space].

use crate::algorithms::{
    exact_dp, greedy_on, mincostflow_on, prune_on, random_u, random_v, Algorithm, McfConfig,
    PruneConfig, SearchStats,
};
use crate::alns::{alns_on, AlnsConfig};
use crate::engine::stats::EngineStats;
use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::parallel::Threads;
use crate::runtime::budget::{BudgetMeter, StopReason};
use crate::runtime::outcome::{Outcome, Provenance, SolveStatus};
use crate::Instance;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Per-dispatch knobs shared by every solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveParams {
    /// Worker budget for solvers with parallel paths (the exact search,
    /// and graph construction in [`solve_instance`]). Results are
    /// bit-identical at every setting.
    pub threads: Threads,
    /// Seed of [`refine_on`]'s ALNS run. [`solve_on`] ignores it and
    /// uses the seed carried in [`Algorithm::RandomV`],
    /// [`RandomU`][Algorithm::RandomU] or [`Alns`][Algorithm::Alns].
    pub seed: u64,
    /// MinCostFlow-GEACC knobs (Δ-sweep early stop, SSP heap choice);
    /// ignored by every other solver. The default is the paper's
    /// Algorithm 1 with the fast radix-heap frontier.
    pub mcf: McfConfig,
    /// ALNS-GEACC's iteration cap (see [`AlnsConfig`]); ignored by
    /// every other solver.
    pub alns: AlnsConfig,
}

impl Default for SolveParams {
    fn default() -> Self {
        SolveParams {
            threads: Threads::single(),
            seed: 0,
            mcf: McfConfig::default(),
            alns: AlnsConfig::default(),
        }
    }
}

/// Assemble an [`Outcome`] from a solver's raw pieces with the uniform
/// status mapping.
fn outcome(
    arrangement: Arrangement,
    stopped: Option<StopReason>,
    exact: bool,
    meter: &BudgetMeter,
    search: Option<SearchStats>,
) -> Outcome {
    let status = match stopped {
        None if exact => SolveStatus::Optimal,
        None => SolveStatus::Feasible(Provenance::Completed),
        Some(reason) => SolveStatus::Feasible(Provenance::Incumbent(reason)),
    };
    Outcome {
        arrangement,
        status,
        nodes: meter.nodes(),
        elapsed: meter.elapsed(),
        search,
        alns: None,
    }
}

/// Prune-GEACC's branch-and-bound under `config` (Exhaustive is the
/// same search with pruning and seeding off).
fn exact_search(graph: &CandidateGraph, config: PruneConfig, meter: &BudgetMeter) -> Outcome {
    let budgeted = prune_on(graph, config, Some(meter));
    outcome(
        budgeted.result.arrangement,
        budgeted.stopped,
        true,
        meter,
        Some(budgeted.result.stats),
    )
}

/// The engine's single dispatch point: run `algorithm` over a prebuilt
/// graph under `meter`, recording the cost in [`EngineStats`]. Always
/// returns a feasible arrangement (empty in the worst case); the
/// outcome's status says whether it is optimal, complete, a
/// budget-stopped incumbent, or [`SolveStatus::Failed`] (MinCostFlow's
/// structured rejection of a pathological instance, which the pipeline
/// degrades past).
pub fn solve_on(
    graph: &CandidateGraph,
    algorithm: Algorithm,
    params: &SolveParams,
    meter: &BudgetMeter,
) -> Outcome {
    let start = Instant::now();
    let solved = match algorithm {
        Algorithm::Greedy => {
            let (arrangement, stopped) = greedy_on(graph, Some(meter));
            outcome(arrangement, stopped, false, meter, None)
        }
        Algorithm::MinCostFlow => match mincostflow_on(graph, params.mcf, Some(meter)) {
            Ok((result, stopped)) => outcome(result.arrangement, stopped, false, meter, None),
            // A structured rejection: an empty (trivially feasible)
            // arrangement, which the pipeline degrades past.
            Err(err) => {
                let empty = Arrangement::empty_for(graph.instance());
                Outcome {
                    status: SolveStatus::Failed(err),
                    ..outcome(empty, None, false, meter, None)
                }
            }
        },
        Algorithm::Prune => exact_search(
            graph,
            PruneConfig {
                threads: params.threads,
                ..PruneConfig::default()
            },
            meter,
        ),
        Algorithm::Exhaustive => exact_search(
            graph,
            PruneConfig {
                enable_pruning: false,
                greedy_seed: false,
                threads: params.threads,
            },
            meter,
        ),
        Algorithm::ExactDp => {
            let arrangement = exact_dp(graph.instance())
                .expect("instance too large for the DP; use prune or an approximation");
            outcome(arrangement, meter.stop_reason(), true, meter, None)
        }
        Algorithm::RandomV { seed } => {
            let arrangement = random_v(graph.instance(), &mut StdRng::seed_from_u64(seed));
            outcome(arrangement, meter.stop_reason(), false, meter, None)
        }
        Algorithm::RandomU { seed } => {
            let arrangement = random_u(graph.instance(), &mut StdRng::seed_from_u64(seed));
            outcome(arrangement, meter.stop_reason(), false, meter, None)
        }
        Algorithm::Alns { seed } => {
            let params = SolveParams { seed, ..*params };
            let (arrangement, stopped, stats) = alns_on(graph, &params, meter, None);
            Outcome {
                alns: Some(stats),
                ..outcome(arrangement, stopped, false, meter, None)
            }
        }
    };
    EngineStats::record(algorithm, start.elapsed());
    solved
}

/// Warm-started ALNS refinement: run ALNS-GEACC with `params.seed`
/// from `warm` instead of a fresh greedy seed, recording the dispatch
/// in [`EngineStats`] like any other engine call. This is how
/// [`SolverPipeline`][crate::runtime::SolverPipeline] turns a
/// budget-stopped exact incumbent into a better one, and how
/// `geacc improve` improves a given arrangement. An empty `warm` is
/// seeded from Greedy-GEACC, as a cold run is.
pub fn refine_on(
    graph: &CandidateGraph,
    params: &SolveParams,
    meter: &BudgetMeter,
    warm: &Arrangement,
) -> Outcome {
    let algorithm = Algorithm::Alns { seed: params.seed };
    let start = Instant::now();
    let (arrangement, stopped, stats) = alns_on(graph, params, meter, Some(warm));
    EngineStats::record(algorithm, start.elapsed());
    Outcome {
        alns: Some(stats),
        ..outcome(arrangement, stopped, false, meter, None)
    }
}

/// Convenience for callers without a prebuilt graph: build the
/// candidate graph (with `params.threads` workers) and dispatch.
pub fn solve_instance(
    inst: &Instance,
    algorithm: Algorithm,
    params: &SolveParams,
    meter: &BudgetMeter,
) -> Outcome {
    let graph = CandidateGraph::build(inst, params.threads);
    solve_on(&graph, algorithm, params, meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy;

    #[test]
    fn every_solver_is_feasible_on_the_toy_instance() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams::default();
        for algo in Algorithm::ALL {
            let meter = BudgetMeter::unlimited();
            let out = solve_on(&graph, algo, &params, &meter);
            assert!(
                out.arrangement.validate(&inst).is_empty(),
                "{} infeasible",
                algo.name()
            );
            assert!(out.status.is_complete(), "{}", algo.name());
            let exact = matches!(
                algo,
                Algorithm::Prune | Algorithm::Exhaustive | Algorithm::ExactDp
            );
            assert_eq!(
                out.status == SolveStatus::Optimal,
                exact,
                "{} status/exactness mismatch",
                algo.name()
            );
        }
    }

    #[test]
    fn exact_solvers_report_optimal_and_search_stats_where_expected() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams::default();
        let meter = BudgetMeter::unlimited();
        let pruned = solve_on(&graph, Algorithm::Prune, &params, &meter);
        assert_eq!(pruned.status, SolveStatus::Optimal);
        assert!(pruned.search.is_some());
        assert!((pruned.arrangement.max_sum() - toy::OPTIMAL_MAX_SUM).abs() < 1e-9);
        let meter = BudgetMeter::unlimited();
        let greedy = solve_on(&graph, Algorithm::Greedy, &params, &meter);
        assert!(greedy.search.is_none());
    }

    #[test]
    fn budget_stops_surface_as_incumbents() {
        use crate::runtime::budget::SolveBudget;
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(0));
        let out = solve_on(&graph, Algorithm::Prune, &SolveParams::default(), &meter);
        assert_eq!(
            out.status.stop_reason(),
            Some(StopReason::NodeBudget),
            "{:?}",
            out.status
        );
        assert!(out.arrangement.validate(&inst).is_empty());
    }

    #[test]
    fn solve_instance_dispatches_every_algorithm_feasibly() {
        let inst = toy::table1_instance();
        for algo in Algorithm::ALL {
            let out = solve_instance(
                &inst,
                algo,
                &SolveParams::default(),
                &BudgetMeter::unlimited(),
            );
            assert!(
                out.arrangement.validate(&inst).is_empty(),
                "{} produced an infeasible arrangement",
                algo.name()
            );
            assert!(out.status.is_complete(), "{}", algo.name());
        }
    }

    #[test]
    fn dispatch_records_engine_stats() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let calls = || {
            EngineStats::snapshot()
                .iter()
                .find(|t| t.stage == "mincostflow")
                .unwrap()
                .calls
        };
        let calls_before = calls();
        let out = solve_on(
            &graph,
            Algorithm::MinCostFlow,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
        );
        assert_eq!(out.status, SolveStatus::Feasible(Provenance::Completed));
        assert!(calls() > calls_before);
    }

    #[test]
    fn refine_on_never_loses_to_its_warm_start() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let warm = greedy_on(&graph, None).0;
        let warm_sum = warm.max_sum();
        let out = refine_on(
            &graph,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
            &warm,
        );
        assert!(out.arrangement.validate(&inst).is_empty());
        assert!(out.arrangement.max_sum() >= warm_sum - 1e-9);
        assert!(out.alns.is_some());
        assert!(out.status.is_complete());
    }

    #[test]
    fn refine_on_fills_an_empty_arrangement_from_greedy() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let greedy_sum = greedy_on(&graph, None).0.max_sum();
        assert!((greedy_sum - 4.28).abs() < 0.005, "toy greedy {greedy_sum}");
        let out = refine_on(
            &graph,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
            &Arrangement::empty_for(&inst),
        );
        assert!(out.arrangement.validate(&inst).is_empty());
        assert!(
            out.arrangement.max_sum() >= greedy_sum - 1e-9,
            "refined {} < greedy {greedy_sum}",
            out.arrangement.max_sum()
        );
    }

    #[test]
    fn algorithm_seed_overrides_params_seed() {
        let inst = toy::table1_instance();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let params = SolveParams {
            seed: 1234,
            ..SolveParams::default()
        };
        let via_algo = solve_on(
            &graph,
            Algorithm::RandomV { seed: 7 },
            &params,
            &BudgetMeter::unlimited(),
        );
        let direct = random_v(&inst, &mut StdRng::seed_from_u64(7));
        assert_eq!(via_algo.arrangement, direct);
    }
}
