//! Integration properties of ALNS-GEACC: per-iteration feasibility,
//! the determinism contract, and the pipeline's honest attribution of
//! refined incumbents.

use geacc_core::algorithms::Algorithm;
use geacc_core::alns::alns_on_observed;
use geacc_core::engine::{CandidateGraph, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, FallbackAlgo, SolveBudget, SolveStatus, SolverPipeline};
use geacc_core::{alns_on, AlnsConfig, ConflictGraph, EventId, Instance, SimMatrix};
use proptest::prelude::*;

/// A random matrix-specified instance, small enough for thousands of
/// destroy/repair rounds per proptest case.
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
        // Two-decimal similarities avoid float-tie flakiness.
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

fn params(seed: u64, iterations: u32) -> SolveParams {
    SolveParams {
        seed,
        alns: AlnsConfig {
            max_iterations: iterations,
        },
        ..SolveParams::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every iteration's standing state — not just the returned best —
    /// is conflict- and capacity-feasible: destroy, repair, and the
    /// exact undo on reject each preserve the invariants.
    #[test]
    fn every_alns_iteration_is_feasible(spec in small_spec(4, 8), seed in 0u64..1000) {
        let inst = spec.build();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let mut iterations = 0u64;
        let (best, stopped, _) = alns_on_observed(
            &graph,
            &params(seed, 300),
            &BudgetMeter::unlimited(),
            None,
            |it, state| {
                iterations = it + 1;
                let violations = state.arrangement().validate(&inst);
                assert!(violations.is_empty(), "iteration {it}: {violations:?}");
            },
        );
        prop_assert_eq!(stopped, None);
        prop_assert_eq!(iterations, 300);
        prop_assert!(best.validate(&inst).is_empty());
    }

    /// ALNS never returns worse than the greedy run it seeds from.
    #[test]
    fn alns_never_loses_to_greedy(spec in small_spec(4, 8), seed in 0u64..1000) {
        let inst = spec.build();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let greedy = geacc_core::algorithms::greedy_on(&graph, None).0;
        let (best, _, _) =
            alns_on(&graph, &params(seed, 300), &BudgetMeter::unlimited(), None);
        prop_assert!(best.max_sum() >= greedy.max_sum() - 1e-9);
    }
}

/// Branch-and-bound's worst case (narrow similarity band, dense
/// conflicts, deep capacities): Prune-GEACC never finishes in a small
/// node budget, leaving an incumbent for the refinement stage.
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

/// The determinism contract: (instance, seed, node budget) fully
/// determines the arrangement, bit-for-bit, at every thread count.
#[test]
fn same_seed_and_node_budget_is_bit_identical_across_thread_counts() {
    let inst = pathological_instance();
    let run = |threads: usize, seed: u64| {
        let graph = CandidateGraph::build(&inst, Threads::new(threads));
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(2_000));
        let p = SolveParams {
            threads: Threads::new(threads),
            ..params(seed, u32::MAX)
        };
        alns_on(&graph, &p, &meter, None)
    };
    let (a1, s1, t1) = run(1, 42);
    let (a4, s4, t4) = run(4, 42);
    assert_eq!(a1, a4);
    assert_eq!(a1.max_sum().to_bits(), a4.max_sum().to_bits());
    assert_eq!(s1, s4);
    assert_eq!(t1.iterations, t4.iterations);
    assert_eq!(t1.improvements, t4.improvements);
    assert_eq!(t1.accepted, t4.accepted);
    assert_eq!(t1.best_max_sum.to_bits(), t4.best_max_sum.to_bits());
    // A different seed explores a different trajectory.
    let (_, _, t9) = run(1, 9);
    assert!(
        (t9.accepted, t9.improvements) != (t1.accepted, t1.improvements)
            || t9.best_max_sum.to_bits() != t1.best_max_sum.to_bits()
    );
}

/// Satellite fix: the pipeline names the stage that produced the final
/// incumbent. ALNS improving a budget-stopped Prune incumbent reports
/// `DegradedTo(Alns)` — not Prune's incumbent status.
#[test]
fn pipeline_attributes_the_refined_incumbent_to_alns() {
    let inst = pathological_instance();
    // A tiny node budget guarantees Prune is stopped mid-search with a
    // weak incumbent; the refinement budget is enough for ALNS to beat
    // it (it never returns worse than its own greedy seed).
    let stopped = SolverPipeline::new(Algorithm::Prune, SolveBudget::from_max_nodes(10)).run(&inst);
    let stopped_sum = stopped.arrangement.max_sum();
    assert!(matches!(stopped.status, SolveStatus::Feasible(_)));

    let refined = SolverPipeline::new(Algorithm::Prune, SolveBudget::from_max_nodes(10))
        .with_alns_refine(SolveBudget::from_max_nodes(5_000))
        .run(&inst);
    assert_eq!(
        refined.status,
        SolveStatus::DegradedTo(FallbackAlgo::Alns),
        "the final incumbent came from ALNS, so ALNS must be named"
    );
    assert!(refined.arrangement.max_sum() > stopped_sum + 1e-9);
    assert!(refined.arrangement.validate(&inst).is_empty());
    let stats = refined.alns.expect("refined outcomes carry ALNS counters");
    assert!(stats.iterations > 0);

    // When the refinement cannot improve (the primary completed), the
    // primary's own status is untouched.
    let complete = SolverPipeline::new(Algorithm::Greedy, SolveBudget::UNLIMITED)
        .with_alns_refine(SolveBudget::from_max_nodes(5_000))
        .run(&inst);
    assert!(complete.status.is_complete());
}
