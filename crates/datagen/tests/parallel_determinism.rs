//! Value-determinism of the parallel runtime on random generated
//! instances: every `Threads` setting must produce bit-identical results
//! to the single-threaded run. Wall-clock may vary; values may not.
//!
//! The instances come from the real generator (not hand-rolled
//! matrices) so the tests cover the full pipeline the benchmarks run:
//! attribute sampling → similarity model → conflict graph → algorithm.

use geacc_core::algorithms::{greedy_with, prune_with, GreedyConfig, PruneConfig, Streams};
use geacc_core::engine::{GraphFlats, RegionStreams};
use geacc_core::parallel::Threads;
use geacc_core::{DynamicConfig, EventId, IncrementalArranger, Instance, Mutation, Side, UserId};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generator configuration small enough for the exact search: tiny
/// event set, tight capacities, low dimension (spread-out similarities
/// keep the Lemma 6 bound effective, bounding the B&B's runtime).
fn small_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        2usize..=6,
        4usize..=14,
        1usize..=3,
        0.0f64..=1.0,
        0u64..=u64::MAX,
    )
        .prop_map(|(nv, nu, dim, conflict_ratio, seed)| SyntheticConfig {
            num_events: nv,
            num_users: nu,
            dim,
            cap_v_dist: CapDistribution::Uniform { min: 1, max: 3 },
            cap_u_dist: CapDistribution::Uniform { min: 1, max: 2 },
            conflict_ratio,
            seed,
            ..Default::default()
        })
}

/// Larger instances for the polynomial paths (greedy, the repair
/// streams), where exact search would not terminate.
fn medium_config() -> impl Strategy<Value = SyntheticConfig> {
    (
        5usize..=20,
        20usize..=80,
        1usize..=4,
        0.0f64..=1.0,
        0u64..=u64::MAX,
    )
        .prop_map(|(nv, nu, dim, conflict_ratio, seed)| SyntheticConfig {
            num_events: nv,
            num_users: nu,
            dim,
            conflict_ratio,
            seed,
            ..Default::default()
        })
}

/// Assert that a drained stream equals a sorted CSR slice: same ids,
/// same similarity bits, same length.
fn assert_stream_eq(
    what: String,
    streamed: impl Iterator<Item = (u32, f64)>,
    csr: (&[u32], &[f64]),
) {
    let bits = |(id, sim): (u32, f64)| (id, sim.to_bits());
    let streamed: Vec<(u32, u64)> = streamed.map(bits).collect();
    let expected: Vec<(u32, u64)> = csr
        .0
        .iter()
        .copied()
        .zip(csr.1.iter().copied())
        .map(bits)
        .collect();
    assert_eq!(
        streamed, expected,
        "{what} stream diverged from the candidate graph"
    );
}

/// One mutation drawn from `seed`, valid for `inst`; three in five
/// grow the instance (attributes U[0, 10⁴], as the generator draws).
fn growth_mutation(seed: u64, inst: &Instance) -> Mutation {
    let mut rng = StdRng::seed_from_u64(seed);
    let (nv, nu) = (inst.num_events() as u32, inst.num_users() as u32);
    let attrs: Vec<f64> = (0..inst.dim()).map(|_| rng.gen::<f64>() * 1e4).collect();
    match rng.gen_range(0..10u32) {
        0..=3 => Mutation::AddUser {
            attrs,
            capacity: rng.gen_range(0..=4),
        },
        4 | 5 => Mutation::AddEvent {
            attrs,
            capacity: rng.gen_range(0..=20),
            conflicts: vec![EventId(rng.gen_range(0..nv))],
        },
        6 => Mutation::RemoveUser {
            user: UserId(rng.gen_range(0..nu)),
        },
        7 => Mutation::CloseEvent {
            event: EventId(rng.gen_range(0..nv)),
        },
        8 => Mutation::AddConflict {
            a: EventId(rng.gen_range(0..nv)),
            b: EventId(rng.gen_range(0..nv)),
        },
        _ => Mutation::SetCapacity {
            side: Side::User,
            id: rng.gen_range(0..nu),
            capacity: rng.gen_range(0..=4),
        },
    }
}

/// Fully drain every node's stream: each event's must be `built`'s
/// sorted row and each user's its sorted column.
fn assert_streams_match(inst: &Instance, flats: &GraphFlats, built: &GraphFlats) {
    let events: Vec<EventId> = inst.events().collect();
    let users: Vec<UserId> = inst.users().collect();
    let mut streams = RegionStreams::new(inst, flats, &events, &users);
    for &v in &events {
        let streamed = std::iter::from_fn(|| streams.next_user(v, |_| true)).map(|(u, s)| (u.0, s));
        assert_stream_eq(format!("event {v:?}"), streamed, built.sorted_row(v));
    }
    for &u in &users {
        let streamed =
            std::iter::from_fn(|| streams.next_event(u, |_| true)).map(|(v, s)| (v.0, s));
        assert_stream_eq(format!("user {u:?}"), streamed, built.sorted_col(u));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel Prune-GEACC returns the *same arrangement* (not just the
    /// same MaxSum) as the sequential search, at every worker count.
    #[test]
    fn prune_is_bit_identical_at_every_thread_count(config in small_config()) {
        let inst = config.generate();
        let sequential = prune_with(&inst, PruneConfig::default());
        for t in [2usize, 3, 8] {
            let parallel = prune_with(
                &inst,
                PruneConfig { threads: Threads::new(t), ..Default::default() },
            );
            prop_assert_eq!(
                sequential.arrangement.max_sum().to_bits(),
                parallel.arrangement.max_sum().to_bits(),
                "MaxSum diverged at {} threads", t
            );
            prop_assert_eq!(
                &sequential.arrangement, &parallel.arrangement,
                "arrangement diverged at {} threads", t
            );
        }
    }

    /// The exhaustive configuration (pruning off) must agree too — it
    /// exercises the task-splitting machinery without the shared bound.
    #[test]
    fn exhaustive_is_bit_identical_in_parallel(config in small_config()) {
        let mut config = config;
        config.num_events = config.num_events.min(4);
        config.num_users = config.num_users.min(8);
        let inst = config.generate();
        let base = PruneConfig { enable_pruning: false, greedy_seed: false, ..Default::default() };
        let sequential = prune_with(&inst, base);
        let parallel = prune_with(&inst, PruneConfig { threads: Threads::new(4), ..base });
        prop_assert_eq!(
            sequential.arrangement.max_sum().to_bits(),
            parallel.arrangement.max_sum().to_bits()
        );
        prop_assert_eq!(&sequential.arrangement, &parallel.arrangement);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy-GEACC over a candidate graph built on any number of
    /// workers returns the single-threaded arrangement.
    #[test]
    fn greedy_is_identical_at_every_thread_count(config in medium_config()) {
        let inst = config.generate();
        let sequential = greedy_with(&inst, GreedyConfig { threads: Threads::single() });
        for t in [2usize, 8] {
            let parallel = greedy_with(&inst, GreedyConfig { threads: Threads::new(t) });
            prop_assert_eq!(
                sequential.max_sum().to_bits(),
                parallel.max_sum().to_bits(),
                "MaxSum diverged at {} threads", t
            );
            prop_assert_eq!(&sequential, &parallel, "arrangement diverged at {} threads", t);
        }
    }

    /// The streams live repair walks after a run of mutations that grow
    /// the instance — the epoch-0 flats the session keeps, merged with
    /// the ids added since, or the empty flats a resume holds — are
    /// exactly the sorted rows and columns of flats built from the live
    /// instance, in both directions, to exhaustion, at 1 and 4 workers.
    #[test]
    fn repair_streams_match_candidate_graph(
        config in medium_config(),
        seeds in proptest::collection::vec(0u64..u64::MAX, 1..24),
    ) {
        let base = config.generate();
        let mut arranger = IncrementalArranger::new(base.clone(), DynamicConfig::default());
        for seed in seeds {
            let mutation = growth_mutation(seed, arranger.instance());
            arranger.apply(mutation).expect("drawn mutations are valid");
        }
        let live = arranger.instance();
        for t in [1usize, 4] {
            let built = GraphFlats::build(live, Threads::new(t));
            let epoch0 = GraphFlats::build(&base, Threads::new(t));
            assert_streams_match(live, &epoch0, &built);
            assert_streams_match(live, &GraphFlats::default(), &built);
        }
    }
}
