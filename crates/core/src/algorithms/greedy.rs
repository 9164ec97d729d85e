//! Greedy-GEACC (Algorithm 2 of the paper), and its best-first
//! frontier: the one routine that the full solve, ALNS's repair and the
//! live arranger's repair all run.
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
//! `Frontier` is that discipline, parameterised by where it starts
//! and what it walks: its seeds (every node for [`greedy_on`], a
//! destroyed or mutated region for the repairs), a [`Streams`] of
//! (sim desc, id asc) candidates per node, an optional noise draw
//! (ALNS's Ropke–Pisinger repair) and an optional budget meter.
//! [`greedy_on`] walks dense cursors over the shared
//! [`CandidateGraph`]'s similarity-sorted rows and columns; the repairs
//! walk [`RegionStreams`][crate::engine::RegionStreams], the same rows
//! merged with the ids an instance gained since its flats were built.
//!
//! The pushed/popped membership sets are flat bitsets keyed
//! `v·|U| + u` whenever the pair domain fits a fixed memory budget
//! (`PairSet`) — O(1) untyped loads instead of SipHash on the hot scan
//! path — falling back to a `HashSet` for outsized domains and for
//! region repairs, whose cost must follow the region, not `|V|·|U|`.

use crate::engine::CandidateGraph;
use crate::model::arrangement::Arrangement;
use crate::model::ids::{EventId, UserId};
use crate::parallel::Threads;
use crate::runtime::{BudgetMeter, StopReason};
use crate::Instance;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BinaryHeap, HashMap, HashSet};

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

/// A similarity-sorted candidate stream per node — similarity
/// descending, ties by id ascending, positive similarities only — each
/// consumed at most once, front to back.
pub trait Streams {
    /// Consume event `v`'s stream through the first user `keep` accepts
    /// and return that user with the pair's similarity; `None` once the
    /// stream is exhausted, or if `v` has none.
    fn next_user(&mut self, v: EventId, keep: impl FnMut(UserId) -> bool) -> Option<(UserId, f64)>;

    /// Consume user `u`'s stream through the first event `keep` accepts;
    /// `None` once it is exhausted, or if `u` has none.
    fn next_event(
        &mut self,
        u: UserId,
        keep: impl FnMut(EventId) -> bool,
    ) -> Option<(EventId, f64)>;
}

/// The matching a frontier grows. Inserting only ever shrinks what can
/// be inserted next, which is what makes the scan discipline sound.
pub(crate) trait Matching {
    /// Whether `v` has spare capacity.
    fn event_open(&self, v: EventId) -> bool;
    /// Whether `u` has spare capacity.
    fn user_open(&self, u: UserId) -> bool;
    /// Whether `(v, u)` can be added now: spare capacity on both sides,
    /// not matched yet, and no conflict with `u`'s events.
    fn can_insert(&self, v: EventId, u: UserId) -> bool;
    /// Add a pair [`Self::can_insert`] admitted.
    fn insert(&mut self, v: EventId, u: UserId, sim: f64);
}

/// Greedy-GEACC's matching: the arrangement plus every node's remaining
/// capacity, so a scan rejects a full counterpart with one load.
struct Greedy<'a> {
    inst: &'a Instance,
    arrangement: Arrangement,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
}

impl Matching for Greedy<'_> {
    fn event_open(&self, v: EventId) -> bool {
        self.cap_v[v.index()] > 0
    }

    fn user_open(&self, u: UserId) -> bool {
        self.cap_u[u.index()] > 0
    }

    /// No matched-pair test: every matched pair was popped, and the
    /// frontier never offers a popped pair again.
    fn can_insert(&self, v: EventId, u: UserId) -> bool {
        self.cap_u[u.index()] > 0
            && self.cap_v[v.index()] > 0
            && !self
                .inst
                .conflicts()
                .conflicts_with_any(v, self.arrangement.events_of(u))
    }

    fn insert(&mut self, v: EventId, u: UserId, sim: f64) {
        self.arrangement.push_unchecked(v, u, sim);
        self.cap_v[v.index()] -= 1;
        self.cap_u[u.index()] -= 1;
    }
}

/// Greedy-GEACC's streams: one cursor per node into the candidate
/// graph's similarity-sorted rows and columns.
struct Cursors<'g, 'a> {
    graph: &'g CandidateGraph<'a>,
    events: Vec<usize>,
    users: Vec<usize>,
}

/// Consume `ids[*pos..]` through the first id `keep` accepts.
#[inline]
fn advance(
    (ids, sims): (&[u32], &[f64]),
    pos: &mut usize,
    mut keep: impl FnMut(u32) -> bool,
) -> Option<(u32, f64)> {
    while let Some(&id) = ids.get(*pos) {
        *pos += 1;
        if keep(id) {
            return Some((id, sims[*pos - 1]));
        }
    }
    None
}

impl Streams for Cursors<'_, '_> {
    fn next_user(
        &mut self,
        v: EventId,
        mut keep: impl FnMut(UserId) -> bool,
    ) -> Option<(UserId, f64)> {
        let pos = &mut self.events[v.index()];
        advance(self.graph.sorted_row(v), pos, |u| keep(UserId(u))).map(|(u, s)| (UserId(u), s))
    }

    fn next_event(
        &mut self,
        u: UserId,
        mut keep: impl FnMut(EventId) -> bool,
    ) -> Option<(EventId, f64)> {
        let pos = &mut self.users[u.index()];
        advance(self.graph.sorted_col(u), pos, |v| keep(EventId(v))).map(|(v, s)| (EventId(v), s))
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
    let mut cursors = Cursors {
        graph,
        events: vec![0; inst.num_events()],
        users: vec![0; inst.num_users()],
    };
    let mut greedy = Greedy {
        inst,
        arrangement: Arrangement::empty_for(inst),
        cap_v: inst.events().map(|v| inst.event_capacity(v)).collect(),
        cap_u: inst.users().map(|u| inst.user_capacity(u)).collect(),
    };
    let stopped = Frontier::whole(inst).run(
        inst.events(),
        inst.users(),
        &mut cursors,
        &mut greedy,
        meter,
    );
    (greedy.arrangement, stopped)
}

/// Greedy-GEACC's best-first frontier (see the module docs): a heap of
/// at most one pending candidate per node stream, and the pairs it ever
/// pushed or popped.
pub(crate) struct Frontier<'r> {
    heap: BinaryHeap<FrontierPair>,
    pushed: PairSet,
    popped: PairSet,
    /// `|U|`, for the pair keys `v·|U| + u`.
    num_users: u64,
    noise: Option<Noise<'r>>,
}

/// The Ropke–Pisinger draw: each pushed candidate's score is
/// `sim · (1 − amplitude·r)`, `r ~ U[0,1)` drawn at push. The heap holds
/// only scores, so the true similarities wait here, by pair key; a
/// frontier without noise keeps its heap entries at 16 bytes.
struct Noise<'r> {
    rng: &'r mut StdRng,
    amplitude: f64,
    sims: HashMap<u64, f64>,
}

impl<'r> Frontier<'r> {
    /// A frontier over every pair of `inst`, with dense pair sets when
    /// they fit [`PairSet::BUDGET_BITS`].
    fn whole(inst: &Instance) -> Self {
        let num_users = inst.num_users() as u64;
        let domain = inst.num_events() as u64 * num_users;
        Frontier {
            heap: BinaryHeap::new(),
            pushed: PairSet::with_domain(domain),
            popped: PairSet::with_domain(domain),
            num_users,
            noise: None,
        }
    }

    /// A frontier over one region of `inst`: hashed pair sets, so its
    /// memory follows the pairs it touches, and an optional noise draw.
    pub(crate) fn region(inst: &Instance, noise: Option<(&'r mut StdRng, f64)>) -> Self {
        Frontier {
            heap: BinaryHeap::new(),
            pushed: PairSet::Hash(HashSet::new()),
            popped: PairSet::Hash(HashSet::new()),
            num_users: inst.num_users() as u64,
            noise: noise.map(|(rng, amplitude)| Noise {
                rng,
                amplitude,
                sims: HashMap::new(),
            }),
        }
    }

    /// Seed the streams of `events` then `users` that have spare
    /// capacity, then pop, insert and advance until the heap is empty.
    /// With a meter, each seed and each pop is one tick, and a tripped
    /// limit returns its reason with the matching as it stands.
    pub(crate) fn run(
        mut self,
        events: impl IntoIterator<Item = EventId>,
        users: impl IntoIterator<Item = UserId>,
        streams: &mut impl Streams,
        matching: &mut impl Matching,
        meter: Option<&BudgetMeter>,
    ) -> Option<StopReason> {
        let tick = || meter.and_then(BudgetMeter::tick);
        for v in events {
            if let Some(reason) = tick() {
                return Some(reason);
            }
            if matching.event_open(v) {
                self.scan_event(v, streams, matching);
            }
        }
        for u in users {
            if let Some(reason) = tick() {
                return Some(reason);
            }
            if matching.user_open(u) {
                self.scan_user(u, streams, matching);
            }
        }
        while let Some(FrontierPair { score, v, u }) = self.heap.pop() {
            if let Some(reason) = tick() {
                return Some(reason);
            }
            let key = self.key(v, u);
            self.popped.insert(key);
            let sim = self.noise.as_ref().map_or(score, |n| n.sims[&key]);
            if matching.can_insert(v, u) {
                matching.insert(v, u, sim);
            }
            if matching.event_open(v) {
                self.scan_event(v, streams, matching);
            }
            if matching.user_open(u) {
                self.scan_user(u, streams, matching);
            }
        }
        None
    }

    #[inline]
    fn key(&self, v: EventId, u: UserId) -> u64 {
        v.0 as u64 * self.num_users + u.0 as u64
    }

    /// Advance `v`'s stream past visited pairs and pairs it can no
    /// longer insert, and push the first other one unless it is already
    /// waiting in the heap.
    fn scan_event(&mut self, v: EventId, streams: &mut impl Streams, m: &impl Matching) {
        let next = streams.next_user(v, |u| {
            m.can_insert(v, u) && !self.popped.contains(self.key(v, u))
        });
        if let Some((u, sim)) = next {
            self.push(v, u, sim);
        }
    }

    /// [`Self::scan_event`] for `u`'s stream.
    fn scan_user(&mut self, u: UserId, streams: &mut impl Streams, m: &impl Matching) {
        let next = streams.next_event(u, |v| {
            m.can_insert(v, u) && !self.popped.contains(self.key(v, u))
        });
        if let Some((v, sim)) = next {
            self.push(v, u, sim);
        }
    }

    fn push(&mut self, v: EventId, u: UserId, sim: f64) {
        let key = self.key(v, u);
        if self.pushed.insert(key) {
            let score = match &mut self.noise {
                Some(n) => {
                    n.sims.insert(key, sim);
                    sim * (1.0 - n.amplitude * n.rng.gen::<f64>())
                }
                None => sim,
            };
            self.heap.push(FrontierPair { score, v, u });
        }
    }
}

/// Heap entry: selection score first (the similarity itself unless
/// noised), ties by `(v, u)` ascending for determinism.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FrontierPair {
    score: f64,
    v: EventId,
    u: UserId,
}

impl Eq for FrontierPair {}

impl PartialOrd for FrontierPair {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for FrontierPair {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score
            .total_cmp(&other.score)
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
