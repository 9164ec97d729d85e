//! Resilience suite: budgets, fault injection, and the degradation
//! pipeline.
//!
//! The contracts under test:
//!
//! 1. **Transparency** — an unlimited meter changes *nothing*: budgeted
//!    entry points are bit-identical to the unbudgeted ones at every
//!    thread count.
//! 2. **Anytime** — any budget stop still yields a feasible arrangement
//!    (the incumbent), within the deadline plus one check interval.
//! 3. **Determinism** — a fixed node budget stops at the same tree node
//!    every run, at every thread configuration (node budgets force the
//!    sequential search path).
//! 4. **Isolation** — injected panics and delays never abort the
//!    process, never produce an infeasible arrangement, and the
//!    reported status is honest about what happened.

use geacc_core::algorithms::{
    greedy_on, greedy_with, mincostflow_on, mincostflow_with, prune_on, prune_with, Algorithm,
    BudgetedPrune, GreedyConfig, McfConfig, McfResult, PruneConfig,
};
use geacc_core::engine::CandidateGraph;
use geacc_core::parallel::Threads;
use geacc_core::runtime::{
    BudgetMeter, FallbackAlgo, FaultPlan, SolveBudget, SolveStatus, SolverPipeline, StopReason,
};
use geacc_core::{Arrangement, ConflictGraph, EventId, Instance, SimMatrix};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

// The budgeted entry points under test are the engine ones (`*_on` over
// a prebuilt candidate graph); these helpers pair the graph build with
// the dispatch the way `engine::solve_instance` does.

fn greedy_budgeted(
    inst: &Instance,
    config: GreedyConfig,
    meter: &BudgetMeter,
) -> (Arrangement, Option<StopReason>) {
    let graph = CandidateGraph::build(inst, config.threads);
    greedy_on(&graph, Some(meter))
}

fn mincostflow_budgeted(
    inst: &Instance,
    config: McfConfig,
    meter: &BudgetMeter,
) -> (McfResult, Option<StopReason>) {
    let graph = CandidateGraph::build(inst, Threads::single());
    mincostflow_on(&graph, config, Some(meter)).expect("generated instances are well-formed")
}

fn prune_budgeted(inst: &Instance, config: PruneConfig, meter: &BudgetMeter) -> BudgetedPrune {
    let graph = CandidateGraph::build(inst, config.threads);
    prune_on(&graph, config, Some(meter))
}

/// Branch-and-bound's worst case: similarities concentrated in a narrow
/// band (the Lemma 6 bound stays tight, so almost nothing prunes), a
/// dense conflict graph, and large user capacities (deep search tree).
/// Unbudgeted, Prune-GEACC effectively never finishes on this.
fn pathological_instance() -> Instance {
    let (nv, nu) = (8usize, 24usize);
    let values: Vec<f64> = (0..nv * nu)
        .map(|i| 0.55 + 0.01 * ((i * 37 % 97) as f64 / 97.0))
        .collect();
    let conflicts = ConflictGraph::from_pairs(
        nv,
        (0..nv as u32).flat_map(|i| {
            (i + 1..nv as u32)
                .filter(move |j| (i * 7 + j * 13) % 3 != 0)
                .map(move |j| (EventId(i), EventId(j)))
        }),
    );
    Instance::from_matrix(
        SimMatrix::from_flat(nv, nu, values),
        vec![6; nv],
        vec![8; nu],
        conflicts,
    )
    .expect("pathological shapes are consistent")
}

/// Small enough for the exact search to finish in milliseconds.
fn small_instance() -> Instance {
    geacc_core::toy::table1_instance()
}

// ---------------------------------------------------------------------
// 1. Transparency: unlimited meters change nothing.
// ---------------------------------------------------------------------

#[test]
fn unlimited_meter_is_bit_identical_to_unbudgeted_prune() {
    let inst = small_instance();
    for t in [1, 4] {
        let config = PruneConfig {
            threads: Threads::new(t),
            ..PruneConfig::default()
        };
        let plain = prune_with(&inst, config);
        let meter = BudgetMeter::unlimited();
        let budgeted = prune_budgeted(&inst, config, &meter);
        assert_eq!(budgeted.stopped, None, "threads = {t}");
        assert_eq!(
            plain.arrangement, budgeted.result.arrangement,
            "threads = {t}"
        );
        assert_eq!(
            plain.arrangement.max_sum().to_bits(),
            budgeted.result.arrangement.max_sum().to_bits(),
            "threads = {t}"
        );
        assert!(meter.nodes() > 0, "the exact search must tick the meter");
    }
}

#[test]
fn unlimited_meter_is_bit_identical_to_unbudgeted_greedy_and_mcf() {
    let inst = pathological_instance();
    let meter = BudgetMeter::unlimited();
    let (budgeted, stopped) = greedy_budgeted(&inst, GreedyConfig::default(), &meter);
    assert_eq!(stopped, None);
    assert_eq!(greedy_with(&inst, GreedyConfig::default()), budgeted);
    assert!(meter.nodes() > 0, "greedy must tick the meter");

    let meter = BudgetMeter::unlimited();
    let (budgeted, stopped) = mincostflow_budgeted(&inst, McfConfig::default(), &meter);
    assert_eq!(stopped, None);
    assert_eq!(
        mincostflow_with(&inst, McfConfig::default()).arrangement,
        budgeted.arrangement
    );
    assert!(meter.nodes() > 0, "mincostflow must tick the meter");
}

// ---------------------------------------------------------------------
// 2. Anytime: budget stops still yield feasible arrangements, fast.
// ---------------------------------------------------------------------

#[test]
fn deadline_stops_the_pathological_exact_search_within_a_second() {
    let inst = pathological_instance();
    for t in [1, 4] {
        let started = Instant::now();
        let meter = BudgetMeter::new(&SolveBudget::from_timeout_ms(100));
        let budgeted = prune_budgeted(
            &inst,
            PruneConfig {
                threads: Threads::new(t),
                ..PruneConfig::default()
            },
            &meter,
        );
        let wall = started.elapsed();
        assert!(wall < Duration::from_secs(1), "threads = {t}: {wall:?}");
        assert_eq!(
            budgeted.stopped,
            Some(StopReason::Deadline),
            "threads = {t}"
        );
        assert!(
            budgeted.result.arrangement.validate(&inst).is_empty(),
            "threads = {t}"
        );
        // The incumbent is never worse than the greedy seed it started from.
        let seed = geacc_core::algorithms::greedy(&inst).max_sum();
        assert!(
            budgeted.result.arrangement.max_sum() >= seed - 1e-9,
            "threads = {t}"
        );
    }
}

#[test]
fn tiny_node_budgets_leave_greedy_and_mcf_feasible() {
    let inst = pathological_instance();
    for nodes in [0u64, 1, 5, 50] {
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(nodes));
        let (arr, stopped) = greedy_budgeted(&inst, GreedyConfig::default(), &meter);
        assert!(arr.validate(&inst).is_empty(), "greedy, {nodes} nodes");
        if nodes <= 1 {
            assert_eq!(
                stopped,
                Some(StopReason::NodeBudget),
                "greedy, {nodes} nodes"
            );
        }

        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(nodes));
        let (result, _stopped) = mincostflow_budgeted(&inst, McfConfig::default(), &meter);
        assert!(
            result.arrangement.validate(&inst).is_empty(),
            "mincostflow, {nodes} nodes"
        );
    }
}

// ---------------------------------------------------------------------
// 3. Determinism under node budgets.
// ---------------------------------------------------------------------

#[test]
fn node_budgeted_prune_is_deterministic_across_runs_and_thread_configs() {
    let inst = pathological_instance();
    let mut reference: Option<(u64, geacc_core::Arrangement)> = None;
    for t in [1, 4] {
        for run in 0..3 {
            let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(2_000));
            let budgeted = prune_budgeted(
                &inst,
                PruneConfig {
                    threads: Threads::new(t),
                    ..PruneConfig::default()
                },
                &meter,
            );
            assert_eq!(budgeted.stopped, Some(StopReason::NodeBudget));
            assert!(budgeted.result.arrangement.validate(&inst).is_empty());
            match &reference {
                None => reference = Some((meter.nodes(), budgeted.result.arrangement)),
                Some((nodes, arrangement)) => {
                    assert_eq!(*nodes, meter.nodes(), "threads = {t}, run = {run}");
                    assert_eq!(
                        *arrangement, budgeted.result.arrangement,
                        "threads = {t}, run = {run}"
                    );
                }
            }
        }
    }
}

#[test]
fn zero_node_budget_returns_the_greedy_seed_incumbent() {
    // Satellite regression: a zero-budget exact solve must hand back
    // exactly the greedy seed it started from, not something worse.
    let inst = pathological_instance();
    let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(0));
    let budgeted = prune_budgeted(&inst, PruneConfig::default(), &meter);
    assert_eq!(budgeted.stopped, Some(StopReason::NodeBudget));
    assert_eq!(
        budgeted.result.arrangement,
        geacc_core::algorithms::greedy(&inst)
    );

    // And through the pipeline with degradation on: the Greedy fallback.
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::from_max_nodes(0))
        .degrade_on_stop(true)
        .run(&inst);
    assert_eq!(
        outcome.status,
        SolveStatus::DegradedTo(FallbackAlgo::Greedy)
    );
    assert_eq!(outcome.arrangement, geacc_core::algorithms::greedy(&inst));
}

// ---------------------------------------------------------------------
// 4. Fault injection: panics and delays.
// ---------------------------------------------------------------------

#[test]
fn injected_panic_in_the_parallel_search_never_aborts_or_lies() {
    // The panic lands at tick 500 in whichever thread records it; the
    // deadline backstops the surviving workers. Whatever the interleaving,
    // the call must return normally, with a feasible incumbent and an
    // honest stop reason.
    let inst = pathological_instance();
    let fault = Arc::new(FaultPlan::new().panic_at_tick(500));
    let meter = BudgetMeter::new(&SolveBudget::from_timeout_ms(200)).with_fault(fault);
    let budgeted = prune_budgeted(
        &inst,
        PruneConfig {
            threads: Threads::new(4),
            ..PruneConfig::default()
        },
        &meter,
    );
    assert!(
        matches!(
            budgeted.stopped,
            Some(StopReason::WorkerPanicked | StopReason::Deadline)
        ),
        "{:?}",
        budgeted.stopped
    );
    assert!(budgeted.result.arrangement.validate(&inst).is_empty());
}

#[test]
fn stage_panics_degrade_the_pipeline_in_order() {
    let inst = small_instance();

    // Prune dies → Greedy fallback.
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::UNLIMITED)
        .with_fault(Arc::new(FaultPlan::new().panic_at_stage("prune")))
        .run(&inst);
    assert_eq!(
        outcome.status,
        SolveStatus::DegradedTo(FallbackAlgo::Greedy)
    );
    assert!(outcome.arrangement.validate(&inst).is_empty());
    assert_eq!(outcome.status.exit_code(), 4);

    // Prune and Greedy die → Random-V last resort.
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::UNLIMITED)
        .with_fault(Arc::new(
            FaultPlan::new()
                .panic_at_stage("prune")
                .panic_at_stage("greedy"),
        ))
        .run(&inst);
    assert_eq!(
        outcome.status,
        SolveStatus::DegradedTo(FallbackAlgo::RandomV)
    );
    assert!(outcome.arrangement.validate(&inst).is_empty());

    // Everything dies → honest TimedOut with the empty arrangement.
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::UNLIMITED)
        .with_fault(Arc::new(
            FaultPlan::new()
                .panic_at_stage("prune")
                .panic_at_stage("greedy")
                .panic_at_stage("random-v"),
        ))
        .run(&inst);
    assert_eq!(outcome.status, SolveStatus::TimedOut);
    assert_eq!(outcome.arrangement.len(), 0);
    assert!(outcome.arrangement.validate(&inst).is_empty());
    assert_eq!(outcome.status.exit_code(), 5);
}

#[test]
fn injected_delay_trips_the_deadline_deterministically() {
    // Tick 1 sleeps past the whole deadline; the first slow check (also
    // at tick 1, after the fault hook) must observe the expiry.
    let inst = small_instance();
    let fault = Arc::new(FaultPlan::new().delay_at_tick(1, Duration::from_millis(50)));
    let meter = BudgetMeter::new(&SolveBudget::from_timeout_ms(20)).with_fault(fault);
    let (arr, stopped) = greedy_budgeted(&inst, GreedyConfig::default(), &meter);
    assert_eq!(stopped, Some(StopReason::Deadline));
    assert!(arr.validate(&inst).is_empty());
}

#[test]
fn faulty_primary_with_timeout_still_meets_the_acceptance_deadline() {
    // The ISSUE's acceptance shape, end to end at the library level:
    // pathological instance, 100 ms budget, degradation on — the caller
    // gets a feasible arrangement and a truthful status within 1 s.
    let inst = pathological_instance();
    let started = Instant::now();
    let outcome = SolverPipeline::new(Algorithm::Prune, SolveBudget::from_timeout_ms(100))
        .with_threads(Threads::new(4))
        .degrade_on_stop(true)
        .run(&inst);
    assert!(started.elapsed() < Duration::from_secs(1));
    assert!(outcome.arrangement.validate(&inst).is_empty());
    assert!(
        matches!(
            outcome.status,
            SolveStatus::Feasible(_) | SolveStatus::DegradedTo(_)
        ),
        "{:?}",
        outcome.status
    );
    assert!(outcome.nodes > 0);
}

// ---------------------------------------------------------------------
// 5. Property: every pipeline outcome is feasible, whatever the budget.
// ---------------------------------------------------------------------

/// A random matrix-specified instance, small enough for exact search.
#[derive(Debug, Clone)]
struct SmallSpec {
    rows: Vec<Vec<f64>>,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    conflict_pairs: Vec<(usize, usize)>,
}

impl SmallSpec {
    fn build(&self) -> Instance {
        let nv = self.rows.len();
        let conflicts = ConflictGraph::from_pairs(
            nv,
            self.conflict_pairs
                .iter()
                .map(|&(a, b)| (EventId((a % nv) as u32), EventId((b % nv) as u32))),
        );
        Instance::from_matrix(
            SimMatrix::from_rows(&self.rows),
            self.cap_v.clone(),
            self.cap_u.clone(),
            conflicts,
        )
        .expect("spec shapes are consistent")
    }
}

fn small_spec(max_v: usize, max_u: usize) -> impl Strategy<Value = SmallSpec> {
    (1..=max_v, 1..=max_u).prop_flat_map(move |(nv, nu)| {
        let sim = (0u32..=100).prop_map(|x| x as f64 / 100.0);
        let rows = proptest::collection::vec(proptest::collection::vec(sim, nu), nv);
        let cap_v = proptest::collection::vec(1u32..=3, nv);
        let cap_u = proptest::collection::vec(1u32..=3, nu);
        let conflicts = proptest::collection::vec((0..nv.max(1), 0..nv.max(1)), 0..=nv * 2);
        (rows, cap_v, cap_u, conflicts).prop_map(|(rows, cap_v, cap_u, conflict_pairs)| SmallSpec {
            rows,
            cap_v,
            cap_u,
            conflict_pairs,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Whatever the budget, primary, or degradation policy, the pipeline
    /// returns a feasible arrangement with a status/arrangement pair
    /// that is internally consistent.
    #[test]
    fn budgeted_outcomes_are_always_feasible(
        spec in small_spec(4, 8),
        nodes in 0u64..200,
        algo_idx in 0usize..3,
        degrade_idx in 0usize..2,
    ) {
        let degrade = degrade_idx == 1;
        let inst = spec.build();
        let algo = [Algorithm::Prune, Algorithm::Greedy, Algorithm::MinCostFlow][algo_idx];
        let outcome = SolverPipeline::new(algo, SolveBudget::from_max_nodes(nodes))
            .degrade_on_stop(degrade)
            .run(&inst);
        let violations = outcome.arrangement.validate(&inst);
        prop_assert!(violations.is_empty(), "{:?}: {violations:?}", outcome.status);
        match outcome.status {
            SolveStatus::TimedOut => prop_assert_eq!(outcome.arrangement.len(), 0),
            SolveStatus::Optimal => {
                // Only an exact primary that ran to completion may claim this.
                prop_assert!(matches!(algo, Algorithm::Prune));
            }
            _ => {}
        }
    }
}
