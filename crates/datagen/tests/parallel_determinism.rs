//! Value-determinism of the parallel runtime on random generated
//! instances: every `Threads` setting must produce bit-identical results
//! to the single-threaded run. Wall-clock may vary; values may not.
//!
//! The instances come from the real generator (not hand-rolled
//! matrices) so the tests cover the full pipeline the benchmarks run:
//! attribute sampling → similarity model → conflict graph → algorithm.

use geacc_core::algorithms::{greedy_with, prune_with, GreedyConfig, NeighborOracle, PruneConfig};
use geacc_core::engine::CandidateGraph;
use geacc_core::parallel::Threads;
use geacc_core::{EventId, UserId};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use proptest::prelude::*;

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

/// Larger instances for the polynomial paths (greedy, the oracle),
/// where exact search would not terminate.
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

/// Assert that a drained oracle stream equals a sorted CSR slice: same
/// ids, same similarity bits, same length.
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

/// Fully drain `oracle`: every event's stream must be the graph's sorted
/// row and every user's stream its sorted column.
fn assert_oracle_matches_graph(graph: &CandidateGraph, oracle: &mut NeighborOracle) {
    for v in (0..graph.num_events() as u32).map(EventId) {
        let streamed = std::iter::from_fn(|| oracle.next_user_for_event(v)).map(|(u, s)| (u.0, s));
        assert_stream_eq(format!("event {v:?}"), streamed, graph.sorted_row(v));
    }
    for u in (0..graph.num_users() as u32).map(UserId) {
        let streamed = std::iter::from_fn(|| oracle.next_event_for_user(u)).map(|(v, s)| (v.0, s));
        assert_stream_eq(format!("user {u:?}"), streamed, graph.sorted_col(u));
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

    /// The lazy `NeighborOracle` that localized repair walks yields
    /// exactly the candidate graph's sorted rows and columns that
    /// Greedy-GEACC and ALNS walk, in both directions, to exhaustion,
    /// whether the graph was built on 1 worker or 4.
    #[test]
    fn oracle_streams_match_candidate_graph(config in medium_config()) {
        let inst = config.generate();
        for t in [1usize, 4] {
            let graph = CandidateGraph::build(&inst, Threads::new(t));
            assert_oracle_matches_graph(&graph, &mut NeighborOracle::new(&inst));
        }
    }
}
