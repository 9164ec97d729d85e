//! Arrangements (matchings) and their feasibility audit.
//!
//! An arrangement `M` assigns users to events. Feasibility (Definition 5):
//! every matched pair has positive similarity, capacities are respected on
//! both sides, no duplicate pairs, and no user attends two conflicting
//! events. [`Arrangement::validate`] audits all of it — every algorithm's
//! output is validated in tests, and the property suite checks it on
//! random instances.

use crate::model::ids::{EventId, UserId};
use crate::Instance;
use serde::{Deserialize, Serialize};

/// A feasibility violation found by [`Arrangement::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// `sim(v, u) ≤ 0` for a matched pair.
    NonPositiveSimilarity { event: EventId, user: UserId },
    /// An event hosts more users than its capacity.
    EventOverCapacity {
        event: EventId,
        assigned: usize,
        capacity: u32,
    },
    /// A user attends more events than their capacity.
    UserOverCapacity {
        user: UserId,
        assigned: usize,
        capacity: u32,
    },
    /// A user attends two conflicting events.
    ConflictViolated {
        user: UserId,
        first: EventId,
        second: EventId,
    },
    /// The same pair appears twice.
    DuplicatePair { event: EventId, user: UserId },
    /// A pair references an event or user outside the instance.
    OutOfRange { event: EventId, user: UserId },
    /// The cached `MaxSum` differs from the recomputed value.
    MaxSumMismatch { cached: f64, actual: f64 },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonPositiveSimilarity { event, user } => {
                write!(f, "pair ({event}, {user}) has non-positive similarity")
            }
            Violation::EventOverCapacity {
                event,
                assigned,
                capacity,
            } => {
                write!(f, "{event} hosts {assigned} users, capacity {capacity}")
            }
            Violation::UserOverCapacity {
                user,
                assigned,
                capacity,
            } => {
                write!(f, "{user} attends {assigned} events, capacity {capacity}")
            }
            Violation::ConflictViolated {
                user,
                first,
                second,
            } => {
                write!(f, "{user} attends conflicting events {first} and {second}")
            }
            Violation::DuplicatePair { event, user } => {
                write!(f, "pair ({event}, {user}) appears more than once")
            }
            Violation::OutOfRange { event, user } => {
                write!(f, "pair ({event}, {user}) out of instance range")
            }
            Violation::MaxSumMismatch { cached, actual } => {
                write!(f, "cached MaxSum {cached} != recomputed {actual}")
            }
        }
    }
}

/// An event–participant arrangement with its cached `MaxSum` objective.
///
/// Pairs are stored per user (each user's event list is capacity-bounded
/// and is exactly what the conflict test scans) plus a per-event counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Arrangement {
    per_user: Vec<Vec<EventId>>,
    per_event_count: Vec<u32>,
    num_pairs: usize,
    max_sum: f64,
}

impl Arrangement {
    /// The empty arrangement for an instance with the given shape.
    pub fn empty(num_events: usize, num_users: usize) -> Self {
        Arrangement {
            per_user: vec![Vec::new(); num_users],
            per_event_count: vec![0; num_events],
            num_pairs: 0,
            max_sum: 0.0,
        }
    }

    /// The empty arrangement shaped for `instance`.
    pub fn empty_for(instance: &Instance) -> Self {
        Arrangement::empty(instance.num_events(), instance.num_users())
    }

    /// Extend the arrangement's shape (never shrinks): new events and
    /// users join with no pairs. The dynamic layer calls this right
    /// after [`Instance::push_event`]/[`Instance::push_user`] so the
    /// standing arrangement keeps matching its instance's shape.
    pub fn grow_to(&mut self, num_events: usize, num_users: usize) {
        if num_users > self.per_user.len() {
            self.per_user.resize(num_users, Vec::new());
        }
        if num_events > self.per_event_count.len() {
            self.per_event_count.resize(num_events, 0);
        }
    }

    /// `MaxSum(M)`: the sum of similarities over matched pairs.
    #[inline]
    pub fn max_sum(&self) -> f64 {
        self.max_sum
    }

    /// Number of matched pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.num_pairs
    }

    /// Whether no pair is matched.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_pairs == 0
    }

    /// Events assigned to `user`, in insertion order.
    #[inline]
    pub fn events_of(&self, user: UserId) -> &[EventId] {
        &self.per_user[user.index()]
    }

    /// Number of users assigned to `event`.
    #[inline]
    pub fn attendees_of(&self, event: EventId) -> u32 {
        self.per_event_count[event.index()]
    }

    /// Whether the pair is currently matched.
    pub fn contains(&self, event: EventId, user: UserId) -> bool {
        self.per_user[user.index()].contains(&event)
    }

    /// Iterate over all matched pairs (order: by user, then insertion).
    pub fn pairs(&self) -> impl Iterator<Item = (EventId, UserId)> + '_ {
        self.per_user
            .iter()
            .enumerate()
            .flat_map(|(u, evs)| evs.iter().map(move |&v| (v, UserId(u as u32))))
    }

    /// Whether `(event, user)` could be added without violating any
    /// constraint of `instance`.
    pub fn can_add(&self, instance: &Instance, event: EventId, user: UserId) -> bool {
        event.index() < instance.num_events()
            && user.index() < instance.num_users()
            && instance.similarity(event, user) > 0.0
            && self.attendees_of(event) < instance.event_capacity(event)
            && (self.events_of(user).len() as u32) < instance.user_capacity(user)
            && !self.contains(event, user)
            && !instance
                .conflicts()
                .conflicts_with_any(event, self.events_of(user))
    }

    /// Add `(event, user)` after checking every constraint; returns the
    /// pair's similarity on success, `None` if it would be infeasible.
    pub fn try_add(&mut self, instance: &Instance, event: EventId, user: UserId) -> Option<f64> {
        if !self.can_add(instance, event, user) {
            return None;
        }
        let sim = instance.similarity(event, user);
        self.push_unchecked(event, user, sim);
        Some(sim)
    }

    /// Add a pair the caller has already proven feasible. `sim` must be
    /// `instance.similarity(event, user)`; it is trusted so algorithms
    /// that already hold the value avoid recomputing it.
    ///
    /// Feasibility is re-checked by `debug_assert!` only.
    pub fn push_unchecked(&mut self, event: EventId, user: UserId, sim: f64) {
        debug_assert!(sim > 0.0, "pair must have positive similarity");
        debug_assert!(!self.contains(event, user), "duplicate pair");
        self.per_user[user.index()].push(event);
        self.per_event_count[event.index()] += 1;
        self.num_pairs += 1;
        self.max_sum += sim;
    }

    /// Remove a matched pair (used by the branch-and-bound search when
    /// backtracking). `sim` must match the value passed at insertion.
    ///
    /// **Numerical note:** `(s + x) − x` is not exactly `s` in floating
    /// point, so the cached `MaxSum` accumulates rounding drift under
    /// heavy add/remove cycling (≈ one ulp per cycle). Long-running
    /// backtracking searches must not make decisions off this cache —
    /// Prune-GEACC threads its own exact partial sums for that reason —
    /// and [`Arrangement::recompute_max_sum`] restores exactness.
    ///
    /// Returns whether the pair was present.
    pub fn remove_pair(&mut self, event: EventId, user: UserId, sim: f64) -> bool {
        let list = &mut self.per_user[user.index()];
        match list.iter().position(|&v| v == event) {
            Some(pos) => {
                list.swap_remove(pos);
                self.per_event_count[event.index()] -= 1;
                self.num_pairs -= 1;
                self.max_sum -= sim;
                true
            }
            None => false,
        }
    }

    /// Recompute `MaxSum` from scratch against `instance` (diagnostic;
    /// the incremental value is kept exact by construction). The fold
    /// starts at `+0.0`, as [`Arrangement::empty`] does: `f64`'s `Sum`
    /// starts at `-0.0`, which an emptied arrangement would report.
    pub fn recompute_max_sum(&self, instance: &Instance) -> f64 {
        self.pairs()
            .map(|(v, u)| instance.similarity(v, u))
            .fold(0.0, |sum, sim| sum + sim)
    }

    /// Recompute and store `MaxSum` from the standing pairs, clearing
    /// floating-point residue that long add/remove sequences accumulate
    /// in the incremental value.
    pub fn resync_max_sum(&mut self, instance: &Instance) {
        self.max_sum = self.recompute_max_sum(instance);
    }

    /// Full feasibility audit against `instance`. Returns every violation
    /// found (empty = feasible).
    pub fn validate(&self, instance: &Instance) -> Vec<Violation> {
        let mut out = Vec::new();
        for (u, events) in self.per_user.iter().enumerate() {
            let user = UserId(u as u32);
            if u >= instance.num_users() {
                for &v in events {
                    out.push(Violation::OutOfRange { event: v, user });
                }
                continue;
            }
            for (i, &v) in events.iter().enumerate() {
                if v.index() >= instance.num_events() {
                    out.push(Violation::OutOfRange { event: v, user });
                    continue;
                }
                if instance.similarity(v, user) <= 0.0 {
                    out.push(Violation::NonPositiveSimilarity { event: v, user });
                }
                if events[..i].contains(&v) {
                    out.push(Violation::DuplicatePair { event: v, user });
                }
                for &w in &events[..i] {
                    if w.index() < instance.num_events() && instance.conflicts().conflicts(v, w) {
                        out.push(Violation::ConflictViolated {
                            user,
                            first: w,
                            second: v,
                        });
                    }
                }
            }
            if events.len() > instance.user_capacity(user) as usize {
                out.push(Violation::UserOverCapacity {
                    user,
                    assigned: events.len(),
                    capacity: instance.user_capacity(user),
                });
            }
        }
        for (v, &count) in self.per_event_count.iter().enumerate() {
            let event = EventId(v as u32);
            if v < instance.num_events() && count > instance.event_capacity(event) {
                out.push(Violation::EventOverCapacity {
                    event,
                    assigned: count as usize,
                    capacity: instance.event_capacity(event),
                });
            }
        }
        // Recomputing MaxSum dereferences every pair's attributes, which
        // is only meaningful (and safe) when all pairs are in range.
        let any_out_of_range = out
            .iter()
            .any(|v| matches!(v, Violation::OutOfRange { .. }));
        if !any_out_of_range {
            let actual = self.recompute_max_sum(instance);
            if (actual - self.max_sum).abs() > 1e-6 {
                out.push(Violation::MaxSumMismatch {
                    cached: self.max_sum,
                    actual,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;

    /// 2 events (caps 2, 1; conflicting), 3 users (caps 1, 2, 1).
    fn instance() -> Instance {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.8, 0.0], vec![0.7, 0.6, 0.5]]);
        Instance::from_matrix(
            m,
            vec![2, 1],
            vec![1, 2, 1],
            ConflictGraph::from_pairs(2, [(EventId(0), EventId(1))]),
        )
        .unwrap()
    }

    #[test]
    fn try_add_accumulates_max_sum() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        assert_eq!(arr.try_add(&inst, EventId(0), UserId(0)), Some(0.9));
        assert_eq!(arr.try_add(&inst, EventId(1), UserId(2)), Some(0.5));
        assert!((arr.max_sum() - 1.4).abs() < 1e-12);
        assert_eq!(arr.len(), 2);
        assert!(arr.contains(EventId(0), UserId(0)));
        assert!(arr.validate(&inst).is_empty());
    }

    #[test]
    fn zero_similarity_pair_is_rejected() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        assert_eq!(arr.try_add(&inst, EventId(0), UserId(2)), None);
    }

    #[test]
    fn capacity_limits_are_enforced() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        // Event 1 capacity 1.
        assert!(arr.try_add(&inst, EventId(1), UserId(0)).is_some());
        assert_eq!(arr.try_add(&inst, EventId(1), UserId(2)), None);
        // User 0 capacity 1 — also full now.
        assert_eq!(arr.try_add(&inst, EventId(0), UserId(0)), None);
    }

    #[test]
    fn conflicting_events_cannot_share_a_user() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        assert!(arr.try_add(&inst, EventId(0), UserId(1)).is_some());
        // User 1 has capacity 2 but events 0 and 1 conflict.
        assert_eq!(arr.try_add(&inst, EventId(1), UserId(1)), None);
    }

    #[test]
    fn duplicate_pair_is_rejected() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        assert!(arr.try_add(&inst, EventId(0), UserId(1)).is_some());
        assert_eq!(arr.try_add(&inst, EventId(0), UserId(1)), None);
    }

    #[test]
    fn remove_pair_backtracks_exactly() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        let s = arr.try_add(&inst, EventId(0), UserId(1)).unwrap();
        assert!(arr.remove_pair(EventId(0), UserId(1), s));
        assert_eq!(arr.max_sum(), 0.0);
        assert_eq!(arr.len(), 0);
        assert!(!arr.remove_pair(EventId(0), UserId(1), s));
        // Now the conflicting assignment is possible again.
        assert!(arr.try_add(&inst, EventId(1), UserId(1)).is_some());
    }

    #[test]
    fn validate_reports_violations_from_forged_arrangements() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        // Bypass checks deliberately.
        arr.push_unchecked(EventId(0), UserId(1), 0.8);
        arr.push_unchecked(EventId(1), UserId(1), 0.6); // conflict!
        let violations = arr.validate(&inst);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::ConflictViolated { .. })));
    }

    #[test]
    fn validate_detects_overfull_event() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        arr.push_unchecked(EventId(1), UserId(0), 0.7);
        arr.push_unchecked(EventId(1), UserId(1), 0.6);
        let violations = arr.validate(&inst);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::EventOverCapacity { assigned: 2, .. })));
    }

    #[test]
    fn validate_detects_max_sum_tampering() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        arr.push_unchecked(EventId(0), UserId(0), 0.5); // true sim is 0.9
        let violations = arr.validate(&inst);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::MaxSumMismatch { .. })));
    }

    #[test]
    fn pairs_iterator_yields_every_pair_once() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        arr.try_add(&inst, EventId(0), UserId(0)).unwrap();
        arr.try_add(&inst, EventId(0), UserId(1)).unwrap();
        let mut pairs: Vec<_> = arr.pairs().collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![(EventId(0), UserId(0)), (EventId(0), UserId(1))]
        );
    }

    #[test]
    fn validating_against_the_wrong_instance_reports_not_panics() {
        // An arrangement shaped for a larger instance, audited against a
        // smaller one: must come back as OutOfRange violations.
        let big = Arrangement::empty(5, 9);
        let mut arr = big.clone();
        arr.push_unchecked(EventId(4), UserId(8), 0.5);
        let inst = instance(); // 2 events × 3 users
        let violations = arr.validate(&inst);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::OutOfRange { .. })));
    }

    #[test]
    fn serde_roundtrip() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        arr.try_add(&inst, EventId(0), UserId(0)).unwrap();
        let json = serde_json::to_string(&arr).unwrap();
        let back: Arrangement = serde_json::from_str(&json).unwrap();
        assert_eq!(arr, back);
    }

    #[test]
    fn remove_with_wrong_sim_is_callers_bug_but_tracked() {
        // remove_pair trusts the sim; validate catches a drifted MaxSum.
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        let s = arr.try_add(&inst, EventId(0), UserId(1)).unwrap();
        arr.remove_pair(EventId(0), UserId(1), s / 2.0); // wrong on purpose
        let violations = arr.validate(&inst);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::MaxSumMismatch { .. })));
    }

    #[test]
    fn events_of_reflects_insertion_then_removal() {
        let inst = instance();
        let mut arr = Arrangement::empty_for(&inst);
        arr.try_add(&inst, EventId(0), UserId(1)).unwrap();
        assert_eq!(arr.events_of(UserId(1)), &[EventId(0)]);
        arr.remove_pair(EventId(0), UserId(1), 0.8);
        assert!(arr.events_of(UserId(1)).is_empty());
        assert_eq!(arr.attendees_of(EventId(0)), 0);
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::ConflictViolated {
            user: UserId(3),
            first: EventId(1),
            second: EventId(2),
        };
        let s = v.to_string();
        assert!(s.contains("u3") && s.contains("v1") && s.contains("v2"));
    }
}
