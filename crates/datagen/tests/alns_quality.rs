//! Golden quality bar for ALNS-GEACC at fig3 scale: the anytime search
//! must beat Greedy-GEACC's MaxSum on the paper's default synthetic
//! workload, and identical seeds must reproduce bit-identical runs.

use geacc_core::engine::{CandidateGraph, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, SolveBudget};
use geacc_core::{alns_on, AlnsConfig};
use geacc_datagen::SyntheticConfig;

/// A reduced cut of the paper's fig3 default workload (|V| = 100,
/// |U| = 1000, bold Table III settings) sized for test wall-clock.
fn fig3_config() -> SyntheticConfig {
    SyntheticConfig {
        num_events: 50,
        num_users: 500,
        seed: 2015,
        ..SyntheticConfig::default()
    }
}

fn params(seed: u64) -> SolveParams {
    SolveParams {
        seed,
        alns: AlnsConfig {
            max_iterations: 2_000,
        },
        ..SolveParams::default()
    }
}

#[test]
fn alns_beats_greedy_on_the_fig3_workload() {
    let inst = fig3_config().generate();
    let graph = CandidateGraph::build(&inst, Threads::single());
    let greedy = geacc_core::algorithms::greedy_on(&graph, None).0;
    let (best, stopped, stats) = alns_on(&graph, &params(1), &BudgetMeter::unlimited(), None);
    assert_eq!(stopped, None);
    assert!(best.validate(&inst).is_empty());
    assert!(
        best.max_sum() > greedy.max_sum() + 1e-9,
        "ALNS {} must beat greedy {} at fig3 scale",
        best.max_sum(),
        greedy.max_sum()
    );
    assert!(stats.improvements > 0);
}

#[test]
fn alns_is_deterministic_per_seed_at_fig3_scale() {
    let inst = fig3_config().generate();
    let run = |threads: usize| {
        let graph = CandidateGraph::build(&inst, Threads::new(threads));
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(800));
        let p = SolveParams {
            threads: Threads::new(threads),
            ..params(7)
        };
        alns_on(&graph, &p, &meter, None)
    };
    let (a, sa, ta) = run(1);
    let (b, sb, tb) = run(4);
    assert_eq!(a, b, "(instance, seed, node budget) must pin the result");
    assert_eq!(a.max_sum().to_bits(), b.max_sum().to_bits());
    assert_eq!(sa, sb);
    assert_eq!(
        (ta.iterations, ta.improvements, ta.accepted),
        (tb.iterations, tb.improvements, tb.accepted)
    );
}
