//! Online event-participant arrangement (an extension beyond the paper).
//!
//! The paper arranges a *known* user population offline. A deployed EBSN
//! also faces the streaming version: events are published, then users
//! sign up one at a time and must be answered immediately. This module
//! provides that primitive: an [`OnlineArranger`] holds the running
//! arrangement and assigns each arriving user their best feasible event
//! set — greedily by similarity, respecting capacities and conflicts —
//! optionally withholding seats from lukewarm matches via a similarity
//! threshold so that later, better-matched arrivals still find room.
//!
//! Every intermediate state is a feasible GEACC arrangement (the
//! property suite checks arbitrary arrival prefixes), and with threshold
//! 0 the final result equals running the per-user greedy offline in
//! arrival order. There is no constant competitive ratio in general —
//! an adversary can always burn capacity with early mediocre arrivals —
//! but on interval-structured conflicts `tests/temporal_online.rs`
//! asserts arrival order keeps at least 70% of offline Greedy-GEACC's
//! MaxSum.

use crate::algorithms::NeighborOracle;
use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::Instance;

/// Configuration for [`OnlineArranger`].
#[derive(Debug, Clone, Copy)]
pub struct OnlineConfig {
    /// Assign a pair only if its similarity is at least this value.
    /// `0.0` (default) accepts any positive-similarity pair; higher
    /// values reserve capacity for better-matched future arrivals at
    /// the cost of rejecting present ones.
    pub threshold: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig { threshold: 0.0 }
    }
}

/// Streaming arranger: call [`OnlineArranger::arrive`] per user in
/// arrival order, then [`OnlineArranger::finish`].
#[derive(Debug, Clone)]
pub struct OnlineArranger<'a> {
    inst: &'a Instance,
    config: OnlineConfig,
    arrangement: Arrangement,
    cap_v: Vec<u32>,
    served: Vec<bool>,
    oracle: NeighborOracle<'a>,
}

impl<'a> OnlineArranger<'a> {
    /// Start with every event's full capacity available.
    pub fn new(inst: &'a Instance, config: OnlineConfig) -> Self {
        OnlineArranger {
            inst,
            config,
            arrangement: Arrangement::empty_for(inst),
            cap_v: inst.events().map(|v| inst.event_capacity(v)).collect(),
            served: vec![false; inst.num_users()],
            oracle: NeighborOracle::new(inst),
        }
    }

    /// Serve one arriving user: assign their best feasible events (by
    /// similarity, descending, ties toward lower event id) up to their
    /// capacity, subject to remaining seats, conflicts with their own
    /// assignments, and the configured threshold. Returns the events
    /// granted to this user.
    ///
    /// # Panics
    ///
    /// Panics if the user already arrived (each user arrives once).
    pub fn arrive(&mut self, u: UserId) -> Vec<EventId> {
        assert!(
            !std::mem::replace(&mut self.served[u.index()], true),
            "{u} arrived twice"
        );
        // The oracle streams this user's events in exactly the order the
        // greedy scan wants — similarity descending, ties toward lower
        // event id, positive similarities only — so serving an arrival is
        // a walk down the stream instead of an O(|V|) scan + sort. The
        // stream is consumed lazily: a user granted their top events
        // never pays for ranking the tail, and once similarity falls
        // below the threshold the walk stops early (the stream is
        // non-increasing).
        let mut granted = Vec::new();
        let cap_u = self.inst.user_capacity(u) as usize;
        while granted.len() < cap_u {
            let Some((v, sim)) = self.oracle.next_event_for_user(u) else {
                break;
            };
            if sim < self.config.threshold {
                break;
            }
            if self.cap_v[v.index()] == 0 {
                continue;
            }
            if self
                .inst
                .conflicts()
                .conflicts_with_any(v, self.arrangement.events_of(u))
            {
                continue;
            }
            self.arrangement.push_unchecked(v, u, sim);
            self.cap_v[v.index()] -= 1;
            granted.push(v);
        }
        granted
    }

    /// Users served so far.
    pub fn arrivals(&self) -> usize {
        self.served.iter().filter(|&&s| s).count()
    }

    /// Current (always-feasible) arrangement, read-only.
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// Finish the stream and take the arrangement.
    pub fn finish(self) -> Arrangement {
        self.arrangement
    }
}

/// Convenience: run a full arrival sequence and return the result.
///
/// # Panics
///
/// Panics if `order` repeats a user.
pub fn online_greedy(
    inst: &Instance,
    order: impl IntoIterator<Item = UserId>,
    config: OnlineConfig,
) -> Arrangement {
    let mut arranger = OnlineArranger::new(inst, config);
    for u in order {
        arranger.arrive(u);
    }
    arranger.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::greedy;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    #[test]
    fn every_prefix_is_feasible() {
        let inst = toy::table1_instance();
        let mut arranger = OnlineArranger::new(&inst, OnlineConfig::default());
        for u in inst.users() {
            arranger.arrive(u);
            assert!(
                arranger.arrangement().validate(&inst).is_empty(),
                "infeasible after {u}"
            );
        }
        let final_arr = arranger.finish();
        assert!(final_arr.max_sum() > 0.0);
    }

    #[test]
    fn arrival_order_matters() {
        // One seat, two users: whoever arrives first takes it.
        let m = SimMatrix::from_rows(&[vec![0.5, 0.9]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let first = online_greedy(&inst, [UserId(0), UserId(1)], OnlineConfig::default());
        assert!(first.contains(EventId(0), UserId(0)));
        let second = online_greedy(&inst, [UserId(1), UserId(0)], OnlineConfig::default());
        assert!(second.contains(EventId(0), UserId(1)));
        assert!(second.max_sum() > first.max_sum());
    }

    #[test]
    fn threshold_reserves_capacity_for_better_arrivals() {
        // Without a threshold the early lukewarm user (0.4) takes the
        // seat the later enthusiast (0.9) wanted.
        let m = SimMatrix::from_rows(&[vec![0.4, 0.9]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let naive = online_greedy(&inst, [UserId(0), UserId(1)], OnlineConfig::default());
        assert!((naive.max_sum() - 0.4).abs() < 1e-12);
        let reserved = online_greedy(
            &inst,
            [UserId(0), UserId(1)],
            OnlineConfig { threshold: 0.5 },
        );
        assert!((reserved.max_sum() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn conflicts_are_respected_per_user() {
        let inst = toy::table1_instance();
        let arr = online_greedy(&inst, inst.users(), OnlineConfig::default());
        // u0 likes both v0 (0.93) and v2 (0.86) but they conflict.
        let events = arr.events_of(UserId(0));
        assert!(!events.is_empty());
        assert!(!(events.contains(&EventId(0)) && events.contains(&EventId(2))));
        assert!(arr.validate(&inst).is_empty());
    }

    #[test]
    fn online_never_beats_offline_optimum_and_tracks_greedy() {
        let inst = toy::table1_instance();
        let online = online_greedy(&inst, inst.users(), OnlineConfig::default());
        let offline = greedy(&inst);
        let opt = crate::algorithms::prune(&inst).arrangement;
        assert!(online.max_sum() <= opt.max_sum() + 1e-9);
        // No guarantee vs offline greedy, but on the toy it lands close.
        assert!(online.max_sum() >= 0.5 * offline.max_sum());
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_is_rejected() {
        let inst = toy::table1_instance();
        let mut arranger = OnlineArranger::new(&inst, OnlineConfig::default());
        arranger.arrive(UserId(0));
        arranger.arrive(UserId(0));
    }

    #[test]
    fn arrivals_counter_tracks_serves() {
        let inst = toy::table1_instance();
        let mut arranger = OnlineArranger::new(&inst, OnlineConfig::default());
        assert_eq!(arranger.arrivals(), 0);
        arranger.arrive(UserId(2));
        arranger.arrive(UserId(0));
        assert_eq!(arranger.arrivals(), 2);
    }

    #[test]
    fn extreme_threshold_rejects_everyone() {
        let inst = toy::table1_instance();
        let arr = online_greedy(&inst, inst.users(), OnlineConfig { threshold: 0.99 });
        assert!(arr.is_empty());
    }
}
