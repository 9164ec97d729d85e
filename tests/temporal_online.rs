//! Cross-crate test of the two deployment-oriented extensions working
//! together: schedule-derived conflicts (geacc-datagen::temporal) and
//! users arriving one by one (geacc-core::dynamic, one `SetCapacity`
//! mutation per arrival), plus overnight ALNS repair.

use geacc::algorithms::greedy;
use geacc::core::{DynamicConfig, IncrementalArranger, Mutation, Side};
use geacc::datagen::TemporalConfig;
use geacc::engine::{refine_on, CandidateGraph, SolveParams};
use geacc::parallel::Threads;
use geacc::{Arrangement, BudgetMeter, Instance, SolveBudget, UserId};

fn weekend() -> geacc::datagen::TemporalInstance {
    TemporalConfig {
        num_events: 25,
        num_users: 120,
        horizon_hours: 24.0,
        duration_hours: (1.0, 3.0),
        city_extent: 1.0,
        seed: 42,
        ..TemporalConfig::default()
    }
    .generate()
}

/// An arranger over `inst` before anyone has arrived: every user's
/// capacity is 0.
fn before_arrivals(inst: &Instance) -> IncrementalArranger {
    let mut closed = inst.clone();
    for u in inst.users() {
        closed.set_user_capacity(u, 0);
    }
    IncrementalArranger::new(closed, DynamicConfig::default())
}

/// User `u` of `inst` arriving: their capacity opens.
fn arrival(inst: &Instance, u: UserId) -> Mutation {
    Mutation::SetCapacity {
        side: Side::User,
        id: u.0,
        capacity: inst.user_capacity(u),
    }
}

/// The arrangement after `inst`'s users arrive in `order`.
fn arrive(inst: &Instance, order: impl IntoIterator<Item = UserId>) -> Arrangement {
    let mut live = before_arrivals(inst);
    for u in order {
        live.apply(arrival(inst, u)).expect("a known user");
    }
    live.arrangement().clone()
}

#[test]
fn streaming_a_temporal_instance_stays_feasible() {
    let generated = weekend();
    let inst = &generated.instance;
    let mut live = before_arrivals(inst);
    for u in inst.users() {
        live.apply(arrival(inst, u)).unwrap();
        assert!(
            live.arrangement().validate(inst).is_empty(),
            "infeasible after {u} arrived"
        );
        // Any events granted to one user must be pairwise schedulable.
        let granted = live.arrangement().events_of(u);
        for (a, &v1) in granted.iter().enumerate() {
            for &v2 in &granted[a + 1..] {
                assert!(
                    !inst.conflicts().conflicts(v1, v2),
                    "{u} granted conflicting events {v1} and {v2}"
                );
            }
        }
    }
    assert!(live.max_sum() > 0.0);
}

#[test]
fn online_quality_tracks_offline_on_realistic_conflicts() {
    let generated = weekend();
    let inst = &generated.instance;
    let offline = greedy(inst);
    let online = arrive(inst, inst.users());
    assert!(online.validate(inst).is_empty());
    // Arrival order costs something, but not the world, on realistic
    // interval-structured conflicts.
    assert!(
        online.max_sum() >= 0.7 * offline.max_sum(),
        "online {} vs offline {}",
        online.max_sum(),
        offline.max_sum()
    );
}

#[test]
fn overnight_repair_recovers_quality() {
    let generated = weekend();
    let inst = &generated.instance;
    let online = arrive(inst, inst.users());
    let before = online.max_sum();
    let graph = CandidateGraph::build(inst, Threads::single());
    let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(2_000));
    let repaired = refine_on(&graph, &SolveParams::default(), &meter, &online).arrangement;
    assert!(repaired.validate(inst).is_empty());
    assert!(repaired.max_sum() + 1e-9 >= before);
}

#[test]
fn reversed_arrival_order_changes_but_never_breaks_the_plan() {
    let generated = weekend();
    let inst = &generated.instance;
    let n = inst.num_users() as u32;
    let forward = arrive(inst, inst.users());
    let backward = arrive(inst, (0..n).rev().map(UserId));
    assert!(forward.validate(inst).is_empty());
    assert!(backward.validate(inst).is_empty());
    // Orders differ; both remain within a sane band of each other.
    let ratio = forward.max_sum() / backward.max_sum();
    assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
}

#[test]
fn temporal_metadata_is_consistent_with_the_instance() {
    let generated = weekend();
    assert_eq!(generated.intervals.len(), generated.instance.num_events());
    assert_eq!(generated.venues.len(), generated.instance.num_events());
}
