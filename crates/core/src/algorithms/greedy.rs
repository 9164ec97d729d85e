//! Greedy-GEACC (Algorithm 2 of the paper).
//!
//! Globally greedy: a heap `H` holds the best known candidate pair per
//! frontier node; each iteration pops the most similar pair overall, adds
//! it to the matching if it is feasible, and advances the participating
//! nodes' neighbour streams to their *next feasible unvisited* candidate.
//! Conflicts are avoided from the beginning (unlike MinCostFlow-GEACC,
//! which repairs them afterwards), and the result is a
//! `1/(1 + max c_u)`-approximation (Theorem 3).
//!
//! Stream discipline (mirrors the paper's Lemmas 2–5 exactly):
//!
//! - a pair enters `H` at most once (the paper's "{v,u} ∉ H" test,
//!   extended over the pair's whole lifetime);
//! - scanning for a node's next candidate skips pairs that are already
//!   *visited* (popped from `H`) and pairs that are infeasible *at scan
//!   time* — both can never be matched later, because capacities only
//!   shrink and a user's matched-event set only grows;
//! - a feasible candidate that is already waiting in `H` ends the scan
//!   without a push (Example 3's `{v₁, u₃}` case).
//!
//! The pushed/popped membership sets are flat bitsets keyed
//! `v·|U| + u` whenever the pair domain fits a fixed memory budget
//! (`PairSet`) — O(1) untyped loads instead of SipHash on the hot scan
//! path — falling back to a `HashSet` for outsized domains.
//!
//! Neighbour streams are cursors over the shared
//! [`CandidateGraph`]'s similarity-sorted rows and columns — the same
//! (sim desc, id asc) yield order the chunked `NeighborOracle` streams
//! produce (the `parallel_determinism` suite checks the two bit for
//! bit), so the arrangement is unchanged, but the candidate index is
//! built once per instance and shared with every other solver.

use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::parallel::Threads;
use crate::runtime::{BudgetMeter, StopReason};
use crate::Instance;
use std::collections::{BinaryHeap, HashSet};

/// Configuration for [`greedy`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyConfig {
    /// Worker budget for building the shared candidate graph (the
    /// `O((|V| + |U|)·n·d)` setup scan). The greedy iteration itself is
    /// inherently sequential; the arrangement is identical at every
    /// setting.
    pub threads: Threads,
}

/// Membership set over pair keys `v·|U| + u`.
///
/// Greedy's `pushed`/`popped` sets are hit once per stream-scan step, so
/// lookup cost is on the algorithm's critical path. When the full pair
/// domain fits [`PairSet::BUDGET_BITS`] (16 MiB of bits — covers the
/// paper's largest scalability setting, `|V|·|U| = 10⁸`), membership is
/// one word index; beyond that, a `HashSet` keeps memory proportional to
/// pairs actually seen (which scanning discipline keeps near-linear).
#[derive(Debug)]
enum PairSet {
    Bits(Vec<u64>),
    Hash(HashSet<u64>),
}

impl PairSet {
    /// Largest pair domain (in bits) given a dense bitset: `2^27` bits =
    /// 16 MiB per set.
    const BUDGET_BITS: u64 = 1 << 27;

    fn with_domain(num_pairs: u64) -> Self {
        if num_pairs <= Self::BUDGET_BITS {
            PairSet::Bits(vec![0u64; num_pairs.div_ceil(64) as usize])
        } else {
            PairSet::Hash(HashSet::new())
        }
    }

    /// Insert `key`; returns `true` if it was not already present.
    #[inline]
    fn insert(&mut self, key: u64) -> bool {
        match self {
            PairSet::Bits(words) => {
                let (w, b) = ((key / 64) as usize, key % 64);
                let mask = 1u64 << b;
                let fresh = words[w] & mask == 0;
                words[w] |= mask;
                fresh
            }
            PairSet::Hash(set) => set.insert(key),
        }
    }

    #[inline]
    fn contains(&self, key: u64) -> bool {
        match self {
            PairSet::Bits(words) => words[(key / 64) as usize] & (1u64 << (key % 64)) != 0,
            PairSet::Hash(set) => set.contains(&key),
        }
    }
}

/// Run Greedy-GEACC; returns a feasible arrangement.
pub fn greedy(inst: &Instance) -> Arrangement {
    greedy_with(inst, GreedyConfig::default())
}

/// Run Greedy-GEACC with explicit configuration.
pub fn greedy_with(inst: &Instance, config: GreedyConfig) -> Arrangement {
    let graph = CandidateGraph::build(inst, config.threads);
    greedy_on(&graph, None).0
}

/// The engine entry point: Greedy-GEACC over a prebuilt candidate
/// graph. The graph's sorted rows/columns *are* the neighbour streams,
/// so no per-solve index work remains.
///
/// With `meter: Some(_)`, the heap loop (and the initialization scans)
/// tick it and, when a limit trips, return the pairs matched so far —
/// a feasible prefix of the greedy arrangement (greedy never
/// unmatches, so any prefix is feasible) — together with the
/// [`StopReason`]. `None` (or an unlimited meter) is bit-identical to
/// [`greedy_with`].
pub fn greedy_on(
    graph: &CandidateGraph,
    meter: Option<&BudgetMeter>,
) -> (Arrangement, Option<StopReason>) {
    let inst = graph.instance();
    let nu = inst.num_users() as u64;
    let key = |v: EventId, u: UserId| v.0 as u64 * nu + u.0 as u64;

    let mut arrangement = Arrangement::empty_for(inst);
    // Per-node stream cursors into the graph's sorted rows/columns.
    let mut event_pos = vec![0usize; inst.num_events()];
    let mut user_pos = vec![0usize; inst.num_users()];
    // Remaining capacities.
    let mut cap_v: Vec<u32> = inst.events().map(|v| inst.event_capacity(v)).collect();
    let mut cap_u: Vec<u32> = inst.users().map(|u| inst.user_capacity(u)).collect();
    // Pairs ever pushed into H / already popped from it.
    let num_pairs = inst.num_events() as u64 * nu;
    let mut pushed = PairSet::with_domain(num_pairs);
    let mut popped = PairSet::with_domain(num_pairs);
    let mut heap: BinaryHeap<HeapPair> = BinaryHeap::new();

    // Scan `v`'s stream for its next feasible unvisited user; push the
    // pair unless it is already waiting in H. The cursor consumes
    // skipped entries exactly like the chunked streams did: a pair
    // infeasible at scan time can never become feasible again.
    let scan_event = |v: EventId,
                      event_pos: &mut [usize],
                      arrangement: &Arrangement,
                      cap_u: &[u32],
                      pushed: &mut PairSet,
                      popped: &PairSet,
                      heap: &mut BinaryHeap<HeapPair>| {
        let (users, sims) = graph.sorted_row(v);
        let pos = &mut event_pos[v.index()];
        while *pos < users.len() {
            let (u, sim) = (UserId(users[*pos]), sims[*pos]);
            *pos += 1;
            let k = key(v, u);
            if popped.contains(k) {
                continue; // visited
            }
            let feasible = cap_u[u.index()] > 0
                && !inst
                    .conflicts()
                    .conflicts_with_any(v, arrangement.events_of(u));
            if !feasible {
                continue; // can never become feasible again
            }
            if pushed.insert(k) {
                heap.push(HeapPair { sim, v, u });
            }
            return;
        }
    };
    let scan_user = |u: UserId,
                     user_pos: &mut [usize],
                     arrangement: &Arrangement,
                     cap_v: &[u32],
                     pushed: &mut PairSet,
                     popped: &PairSet,
                     heap: &mut BinaryHeap<HeapPair>| {
        let (events, sims) = graph.sorted_col(u);
        let pos = &mut user_pos[u.index()];
        while *pos < events.len() {
            let (v, sim) = (EventId(events[*pos]), sims[*pos]);
            *pos += 1;
            let k = key(v, u);
            if popped.contains(k) {
                continue;
            }
            let feasible = cap_v[v.index()] > 0
                && !inst
                    .conflicts()
                    .conflicts_with_any(v, arrangement.events_of(u));
            if !feasible {
                continue;
            }
            if pushed.insert(k) {
                heap.push(HeapPair { sim, v, u });
            }
            return;
        }
    };

    // One unit of budgeted work: a heap pop or an initialization scan.
    macro_rules! tick {
        () => {
            if let Some(m) = meter {
                if let Some(reason) = m.tick() {
                    return (arrangement, Some(reason));
                }
            }
        };
    }

    // Initialization (lines 1–9): each side's first NN.
    for v in inst.events() {
        tick!();
        if cap_v[v.index()] > 0 {
            scan_event(
                v,
                &mut event_pos,
                &arrangement,
                &cap_u,
                &mut pushed,
                &popped,
                &mut heap,
            );
        }
    }
    for u in inst.users() {
        tick!();
        if cap_u[u.index()] > 0 {
            scan_user(
                u,
                &mut user_pos,
                &arrangement,
                &cap_v,
                &mut pushed,
                &popped,
                &mut heap,
            );
        }
    }

    // Iteration (lines 11–23).
    while let Some(HeapPair { sim, v, u }) = heap.pop() {
        tick!();
        popped.insert(key(v, u));
        if cap_v[v.index()] > 0
            && cap_u[u.index()] > 0
            && !inst
                .conflicts()
                .conflicts_with_any(v, arrangement.events_of(u))
        {
            arrangement.push_unchecked(v, u, sim);
            cap_v[v.index()] -= 1;
            cap_u[u.index()] -= 1;
        }
        if cap_v[v.index()] > 0 {
            scan_event(
                v,
                &mut event_pos,
                &arrangement,
                &cap_u,
                &mut pushed,
                &popped,
                &mut heap,
            );
        }
        if cap_u[u.index()] > 0 {
            scan_user(
                u,
                &mut user_pos,
                &arrangement,
                &cap_v,
                &mut pushed,
                &popped,
                &mut heap,
            );
        }
    }
    (arrangement, None)
}

/// Heap entry ordered by similarity (max first), ties by `(v, u)`
/// ascending for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapPair {
    sim: f64,
    v: EventId,
    u: UserId,
}

impl Eq for HeapPair {}

impl PartialOrd for HeapPair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapPair {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.v.cmp(&self.v))
            .then_with(|| other.u.cmp(&self.u))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    #[test]
    fn reproduces_paper_example_3() {
        // Fig. 2: Greedy-GEACC on the Table I toy ends at MaxSum 4.28.
        let inst = toy::table1_instance();
        let m = greedy(&inst);
        assert!((m.max_sum() - 4.28).abs() < 1e-9, "got {}", m.max_sum());
        assert!(m.validate(&inst).is_empty());
        // The first greedy pick is the globally best pair {v1, u1}.
        assert!(m.contains(EventId(0), UserId(0)));
        // v3 conflicts with v1, so u1 attends only v1.
        assert!(!m.contains(EventId(2), UserId(0)));
    }

    #[test]
    fn respects_capacities() {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.8, 0.7]]);
        let inst =
            Instance::from_matrix(m, vec![2], vec![1, 1, 1], ConflictGraph::empty(1)).unwrap();
        let res = greedy(&inst);
        assert_eq!(res.len(), 2);
        assert!(res.contains(EventId(0), UserId(0)));
        assert!(res.contains(EventId(0), UserId(1)));
        assert!(res.validate(&inst).is_empty());
    }

    #[test]
    fn complete_conflict_graph_limits_users_to_one_event() {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.8], vec![0.7, 0.6], vec![0.5, 0.4]]);
        let inst = Instance::from_matrix(m, vec![2, 2, 2], vec![3, 3], ConflictGraph::complete(3))
            .unwrap();
        let res = greedy(&inst);
        assert!(res.validate(&inst).is_empty());
        for u in inst.users() {
            assert!(res.events_of(u).len() <= 1);
        }
        // Greedy takes the two best non-conflicting pairs: {v0,u0}, {v0,u1}.
        assert!((res.max_sum() - 1.7).abs() < 1e-9);
    }

    #[test]
    fn zero_similarity_instance_yields_empty_matching() {
        let m = SimMatrix::from_rows(&[vec![0.0, 0.0]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let res = greedy(&inst);
        assert!(res.is_empty());
    }

    #[test]
    fn zero_capacity_nodes_are_skipped() {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.8], vec![0.7, 0.6]]);
        let inst =
            Instance::from_matrix(m, vec![0, 1], vec![1, 0], ConflictGraph::empty(2)).unwrap();
        let res = greedy(&inst);
        assert!(res.validate(&inst).is_empty());
        assert_eq!(res.len(), 1);
        assert!(res.contains(EventId(1), UserId(0)));
    }

    #[test]
    fn greedy_is_maximal() {
        // Lemma 5: no unmatched pair can be added to the result.
        let m = SimMatrix::from_rows(&[
            vec![0.9, 0.2, 0.5, 0.4],
            vec![0.3, 0.8, 0.1, 0.6],
            vec![0.7, 0.4, 0.6, 0.2],
        ]);
        let inst = Instance::from_matrix(
            m,
            vec![2, 1, 2],
            vec![2, 1, 1, 2],
            ConflictGraph::from_pairs(3, [(EventId(0), EventId(2))]),
        )
        .unwrap();
        let res = greedy(&inst);
        assert!(res.validate(&inst).is_empty());
        let mut copy = res.clone();
        for v in inst.events() {
            for u in inst.users() {
                assert!(
                    copy.try_add(&inst, v, u).is_none(),
                    "greedy result not maximal: could still add ({v}, {u})"
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let inst = toy::table1_instance();
        let a = greedy(&inst);
        let b = greedy(&inst);
        assert_eq!(a, b);
    }

    #[test]
    fn identical_at_every_thread_count() {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|v| {
                (0..24)
                    .map(|u| ((v * 11 + u * 5) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect();
        let inst = Instance::from_matrix(
            SimMatrix::from_rows(&rows),
            vec![3; 8],
            vec![2; 24],
            ConflictGraph::from_pairs(8, [(EventId(0), EventId(3)), (EventId(2), EventId(5))]),
        )
        .unwrap();
        let sequential = greedy(&inst);
        for t in [2, 4, 8] {
            let parallel = greedy_with(
                &inst,
                GreedyConfig {
                    threads: Threads::new(t),
                },
            );
            assert_eq!(parallel, sequential, "threads = {t}");
        }
    }

    #[test]
    fn pair_set_bits_and_hash_agree() {
        let mut bits = PairSet::with_domain(1000);
        let mut hash = PairSet::Hash(HashSet::new());
        assert!(matches!(bits, PairSet::Bits(_)));
        for k in [0u64, 1, 63, 64, 65, 999, 64, 0] {
            assert_eq!(bits.insert(k), hash.insert(k), "insert {k}");
        }
        for k in 0..1000u64 {
            assert_eq!(bits.contains(k), hash.contains(k), "contains {k}");
        }
    }

    #[test]
    fn pair_set_falls_back_to_hash_beyond_budget() {
        let huge = PairSet::BUDGET_BITS + 1;
        let mut set = PairSet::with_domain(huge);
        assert!(matches!(set, PairSet::Hash(_)));
        assert!(set.insert(huge - 1));
        assert!(!set.insert(huge - 1));
        assert!(set.contains(huge - 1));
        assert!(!set.contains(0));
    }

    #[test]
    fn heap_tie_breaks_are_deterministic() {
        // All similarities equal: the arrangement is fully determined by
        // the documented (v, u) ascending tie-break.
        let m = SimMatrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![1, 1], ConflictGraph::empty(2)).unwrap();
        let res = greedy(&inst);
        assert!(res.contains(EventId(0), UserId(0)));
        assert!(res.contains(EventId(1), UserId(1)));
    }

    #[test]
    fn user_capacity_one_with_dense_conflicts() {
        // A user wanted by every event but able to attend only one; the
        // winner must be the highest-similarity event.
        let m = SimMatrix::from_rows(&[vec![0.3], vec![0.9], vec![0.6]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1, 1], vec![3], ConflictGraph::complete(3)).unwrap();
        let res = greedy(&inst);
        assert_eq!(res.len(), 1);
        assert!(res.contains(EventId(1), UserId(0)));
    }

    #[test]
    fn matches_paper_iteration_trace_on_toy() {
        // The full Example 3 trace commits to exactly these seven pairs.
        let inst = toy::table1_instance();
        let res = greedy(&inst);
        let expected = [
            (0u32, 0u32), // {v1,u1} 0.93
            (0, 2),       // {v1,u3} 0.84
            (2, 3),       // {v3,u4} 0.79
            (2, 4),       // {v3,u5} 0.68
            (0, 1),       // {v1,u2} 0.43
            (1, 4),       // {v2,u5} 0.40
            (1, 3),       // {v2,u4} 0.21
        ];
        for (v, u) in expected {
            assert!(
                res.contains(EventId(v), UserId(u)),
                "missing pair (v{v}, u{u})"
            );
        }
        assert_eq!(res.len(), 7);
    }
}
