//! Live sign-ups: arranging a weekend while users arrive.
//!
//! Combines two library extensions: the *temporal* generator (conflicts
//! derived from a real timetable + venue travel, per Definition 3) and
//! the *dynamic* arranger, which serves each user the moment they
//! arrive: an arrival is one `SetCapacity` mutation opening that user's
//! capacity. Compares arrival-order assignment against the offline
//! Greedy-GEACC that knows everyone in advance, then repairs the plan
//! overnight with ALNS.
//!
//! Run with:
//! ```sh
//! cargo run --release --example live_signups
//! ```

use geacc::algorithms::greedy;
use geacc::core::{DynamicConfig, IncrementalArranger, Mutation, Side};
use geacc::datagen::TemporalConfig;
use geacc::engine::{refine_on, CandidateGraph, SolveParams};
use geacc::parallel::Threads;
use geacc::{BudgetMeter, SolveBudget, UserId};

fn main() {
    // A packed Saturday: 40 events in 16 waking hours across town.
    let config = TemporalConfig {
        num_events: 40,
        num_users: 300,
        horizon_hours: 16.0,
        duration_hours: (1.0, 3.0),
        city_extent: 1.5,
        seed: 7,
        ..TemporalConfig::default()
    };
    let generated = config.generate();
    let instance = &generated.instance;
    println!(
        "Saturday: {} events, {} users, {} schedule-derived conflicts (density {:.2})",
        instance.num_events(),
        instance.num_users(),
        instance.conflicts().num_pairs(),
        instance.conflicts().density()
    );

    // Offline reference: the whole sign-up list known in advance.
    let offline = greedy(instance);
    println!(
        "\noffline Greedy-GEACC (knows everyone):   MaxSum {:.2}",
        offline.max_sum()
    );

    // Nobody has signed up yet: every user's capacity starts at 0.
    let mut closed = instance.clone();
    for u in instance.users() {
        closed.set_user_capacity(u, 0);
    }
    let mut live = IncrementalArranger::new(closed, DynamicConfig::default());

    // Users arrive in a scrambled order (multiplicative-shuffle); each
    // is served their best feasible events on arrival.
    let n = instance.num_users() as u64;
    for u in (0..n).map(|i| UserId(((i * 179) % n) as u32)) {
        live.apply(Mutation::SetCapacity {
            side: Side::User,
            id: u.0,
            capacity: instance.user_capacity(u),
        })
        .expect("a known user");
    }
    let plan = live.arrangement();
    assert!(plan.validate(instance).is_empty());
    println!(
        "online, in arrival order:               MaxSum {:.2} ({:.1}% of offline)",
        plan.max_sum(),
        100.0 * plan.max_sum() / offline.max_sum()
    );

    // Nightly batch repair: ALNS warm-started from the final online
    // plan — what a production arranger runs after the sign-up rush.
    let graph = CandidateGraph::build(instance, Threads::single());
    let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(2_000));
    let overnight = refine_on(&graph, &SolveParams::default(), &meter, plan);
    assert!(overnight.arrangement.validate(instance).is_empty());
    println!(
        "online + overnight ALNS repair:         MaxSum {:.2} ({} iterations, {} improvements)",
        overnight.arrangement.max_sum(),
        overnight.alns.map_or(0, |a| a.iterations),
        overnight.alns.map_or(0, |a| a.improvements)
    );
}
