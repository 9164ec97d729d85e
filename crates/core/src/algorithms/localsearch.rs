//! Local-search post-optimization (an extension beyond the paper).
//!
//! The paper's approximation algorithms leave a gap to the optimum
//! (Fig. 5c); its conclusion points at closing it. This module adds a
//! hill-climbing pass usable behind *any* of them: repeatedly apply the
//! best of three feasibility-preserving moves until a local optimum —
//!
//! - **add** — insert a feasible unmatched pair (Greedy-GEACC's output is
//!   maximal so this fires only after other moves open capacity);
//! - **upgrade-event** — replace `(v, u)` by `(v′, u)` with a higher
//!   similarity, keeping `u`'s other events;
//! - **upgrade-user** — replace `(v, u)` by `(v, u′)` with a higher
//!   similarity.
//!
//! Every accepted move strictly increases `MaxSum`, so termination is
//! guaranteed; feasibility is preserved move-by-move (and re-audited in
//! tests). `examples/local_search.rs` reports the gain over raw
//! Greedy-GEACC; on conflict-heavy instances the upgrades recover part of
//! what greedy's irrevocable early picks lost.

use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::Instance;

/// Configuration for [`improve`].
#[derive(Debug, Clone, Copy)]
pub struct LocalSearchConfig {
    /// Upper bound on full improvement passes (a safety valve; passes
    /// stop earlier at the first pass with no accepted move).
    pub max_passes: usize,
    /// Minimum `MaxSum` gain for a move to be accepted — guards against
    /// cycling on floating-point noise.
    pub min_gain: f64,
}

impl Default for LocalSearchConfig {
    fn default() -> Self {
        LocalSearchConfig {
            max_passes: 32,
            min_gain: 1e-12,
        }
    }
}

/// Outcome of a local-search run.
#[derive(Debug, Clone)]
pub struct LocalSearchResult {
    /// The (locally optimal) improved arrangement.
    pub arrangement: Arrangement,
    /// Number of accepted moves.
    pub moves: usize,
    /// Number of full passes executed.
    pub passes: usize,
}

/// Improve `arrangement` to a local optimum under the three moves.
pub fn improve(
    inst: &Instance,
    arrangement: Arrangement,
    config: LocalSearchConfig,
) -> LocalSearchResult {
    let mut current = arrangement;
    let mut moves = 0;
    let mut passes = 0;
    while passes < config.max_passes {
        passes += 1;
        let accepted = pass(inst, &mut current, config.min_gain);
        moves += accepted;
        if accepted == 0 {
            break;
        }
    }
    LocalSearchResult {
        arrangement: current,
        moves,
        passes,
    }
}

/// One pass: try every move site once; returns accepted-move count.
fn pass(inst: &Instance, current: &mut Arrangement, min_gain: f64) -> usize {
    let mut accepted = 0;

    // Upgrade moves over a snapshot of the current pairs (the arrangement
    // mutates under us; a stale pair is simply skipped).
    let pairs: Vec<(EventId, UserId)> = current.pairs().collect();
    for (v, u) in pairs {
        if !current.contains(v, u) {
            continue;
        }
        let old_sim = inst.similarity(v, u);

        // upgrade-event: best v′ for u strictly better than v.
        let mut best: Option<(EventId, f64)> = None;
        current.remove_pair(v, u, old_sim);
        for v2 in inst.events() {
            let sim2 = inst.similarity(v2, u);
            if sim2 > old_sim + min_gain
                && best.map_or(true, |(_, s)| sim2 > s)
                && current.can_add(inst, v2, u)
            {
                best = Some((v2, sim2));
            }
        }
        match best {
            Some((v2, sim2)) => {
                current.push_unchecked(v2, u, sim2);
                accepted += 1;
                continue;
            }
            None => current.push_unchecked(v, u, old_sim),
        }

        // upgrade-user: best u′ for v strictly better than u.
        let mut best: Option<(UserId, f64)> = None;
        current.remove_pair(v, u, old_sim);
        for u2 in inst.users() {
            let sim2 = inst.similarity(v, u2);
            if sim2 > old_sim + min_gain
                && best.map_or(true, |(_, s)| sim2 > s)
                && current.can_add(inst, v, u2)
            {
                best = Some((u2, sim2));
            }
        }
        match best {
            Some((u2, sim2)) => {
                current.push_unchecked(v, u2, sim2);
                accepted += 1;
            }
            None => current.push_unchecked(v, u, old_sim),
        }
    }

    // Fill: add every feasible unmatched pair (upgrades may have opened
    // capacity).
    for v in inst.events() {
        if current.attendees_of(v) >= inst.event_capacity(v) {
            continue;
        }
        for u in inst.users() {
            if current.try_add(inst, v, u).is_some() {
                accepted += 1;
            }
        }
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{greedy, prune, random_v};
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn never_decreases_max_sum_and_stays_feasible() {
        let inst = toy::table1_instance();
        for seed in 0..10 {
            let start = random_v(&inst, &mut StdRng::seed_from_u64(seed));
            let before = start.max_sum();
            let res = improve(&inst, start, LocalSearchConfig::default());
            assert!(res.arrangement.max_sum() + 1e-12 >= before, "seed {seed}");
            assert!(res.arrangement.validate(&inst).is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn improves_a_deliberately_bad_arrangement() {
        // v0 with u1 (0.3) when u0 (0.9) is free: upgrade-user fires.
        let m = SimMatrix::from_rows(&[vec![0.9, 0.3]]);
        let inst =
            crate::Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let mut bad = Arrangement::empty_for(&inst);
        bad.try_add(&inst, EventId(0), UserId(1)).unwrap();
        let res = improve(&inst, bad, LocalSearchConfig::default());
        assert!((res.arrangement.max_sum() - 0.9).abs() < 1e-12);
        assert!(res.moves >= 1);
    }

    #[test]
    fn local_optimum_is_a_fixed_point() {
        let inst = toy::table1_instance();
        let first = improve(&inst, greedy(&inst), LocalSearchConfig::default());
        let second = improve(
            &inst,
            first.arrangement.clone(),
            LocalSearchConfig::default(),
        );
        assert_eq!(second.moves, 0);
        assert_eq!(second.passes, 1);
        assert_eq!(first.arrangement, second.arrangement);
    }

    #[test]
    fn seeded_with_greedy_never_worse_than_greedy() {
        let inst = toy::table1_instance();
        let g = greedy(&inst);
        let g_sum = g.max_sum();
        let res = improve(&inst, g, LocalSearchConfig::default());
        assert!(res.arrangement.max_sum() + 1e-12 >= g_sum);
        // And never above the optimum.
        let opt = prune(&inst).arrangement.max_sum();
        assert!(res.arrangement.max_sum() <= opt + 1e-9);
    }

    #[test]
    fn empty_arrangement_gets_filled() {
        let inst = toy::table1_instance();
        let res = improve(
            &inst,
            Arrangement::empty_for(&inst),
            LocalSearchConfig::default(),
        );
        assert!(res.arrangement.max_sum() > 0.0);
        assert!(res.arrangement.validate(&inst).is_empty());
        // Fill alone reproduces a maximal arrangement; upgrades then act.
        let mut copy = res.arrangement.clone();
        for v in inst.events() {
            for u in inst.users() {
                assert!(copy.try_add(&inst, v, u).is_none());
            }
        }
    }

    #[test]
    fn pass_cap_limits_work() {
        let inst = toy::table1_instance();
        let res = improve(
            &inst,
            Arrangement::empty_for(&inst),
            LocalSearchConfig {
                max_passes: 1,
                min_gain: 1e-12,
            },
        );
        assert_eq!(res.passes, 1);
    }
}
