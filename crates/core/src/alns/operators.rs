//! Destroy operators and the region-restricted repair frontier.
//!
//! Destroy picks a neighborhood and evicts it; repair re-matches the
//! freed region greedily. The three destroy operators attack the
//! incumbent from different angles:
//!
//! - **random-events** — evict every pair of randomly chosen events
//!   until the quota is met: unbiased diversification.
//! - **worst-pairs** — evict the lowest-similarity matched pairs: the
//!   classic "worst removal", freeing capacity that low-value pairs are
//!   squatting on.
//! - **conflict-cluster** — pick a random assigned user, evict their
//!   pairs, and walk the head of each freed event's similarity-sorted
//!   row (the frontier's stream order) evicting assignments that
//!   conflict-block those candidates: targeted intensification where
//!   the conflict graph, not capacity, is what binds the objective.
//!
//! Repair runs Greedy-GEACC's frontier itself (one pending candidate
//! per node stream, skip-visited, skip-infeasible-at-scan — see
//! [`greedy_on`][crate::algorithms::greedy_on]) with a noisy score, but
//! seeds streams only for the nodes the destroy touched, so its cost
//! scales with the destroyed region's degree, not the instance.

use super::state::AlnsState;
use crate::algorithms::greedy::{Frontier, Matching};
use crate::engine::{CandidateGraph, RegionStreams};
use crate::model::ids::{EventId, UserId};
use rand::rngs::StdRng;
use rand::Rng;

/// One evicted (or re-inserted) pair with its similarity — the undo
/// record the acceptance step replays on reject.
pub(crate) type Move = (EventId, UserId, f64);

/// How many entries of a freed event's similarity-sorted stream the
/// conflict-cluster operator inspects for blocking assignments.
const CLUSTER_WIDTH: usize = 16;

/// Fraction of matched pairs (‰) each destroy call evicts.
const DESTROY_PERMILLE: usize = 60;

/// The destroy operator family, in roulette-slot order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DestroyOp {
    /// Evict all pairs of random events until the quota is met.
    RandomEvents,
    /// Evict the lowest-similarity matched pairs.
    WorstPairs,
    /// Evict a random user's pairs plus the assignments conflicting
    /// with the freed events' best candidates.
    ConflictCluster,
}

/// Every operator, index-aligned with the adaptive weight vector.
pub const OPERATORS: [DestroyOp; 3] = [
    DestroyOp::RandomEvents,
    DestroyOp::WorstPairs,
    DestroyOp::ConflictCluster,
];

impl DestroyOp {
    /// Stable display name (logs, bench output).
    pub fn name(self) -> &'static str {
        match self {
            DestroyOp::RandomEvents => "random-events",
            DestroyOp::WorstPairs => "worst-pairs",
            DestroyOp::ConflictCluster => "conflict-cluster",
        }
    }

    /// Evict this operator's neighborhood from `state`, appending undo
    /// records to `evicted`. An empty result means the incumbent has
    /// nothing this operator can remove (e.g. it is empty).
    pub(crate) fn apply(
        self,
        state: &mut AlnsState,
        graph: &CandidateGraph,
        rng: &mut StdRng,
        evicted: &mut Vec<Move>,
    ) {
        let quota = destroy_quota(state.len());
        match self {
            DestroyOp::RandomEvents => random_events(state, graph, rng, quota, evicted),
            DestroyOp::WorstPairs => worst_pairs(state, graph, quota, evicted),
            DestroyOp::ConflictCluster => conflict_cluster(state, graph, rng, quota, evicted),
        }
    }
}

/// Pairs to evict per destroy call: [`DESTROY_PERMILLE`] ‰ of the
/// matched pairs, at least one.
fn destroy_quota(pairs: usize) -> usize {
    ((pairs * DESTROY_PERMILLE) / 1000).max(1)
}

fn random_events(
    state: &mut AlnsState,
    graph: &CandidateGraph,
    rng: &mut StdRng,
    quota: usize,
    evicted: &mut Vec<Move>,
) {
    let mut occupied: Vec<EventId> = graph
        .instance()
        .events()
        .filter(|&v| !state.attendees_of(v).is_empty())
        .collect();
    let start = evicted.len();
    while evicted.len() - start < quota && !occupied.is_empty() {
        let v = occupied.swap_remove(rng.gen_range(0..occupied.len()));
        for u in state.attendees_of(v).to_vec() {
            let sim = graph.similarity(v, u);
            state.evict(graph, v, u, sim);
            evicted.push((v, u, sim));
        }
    }
}

fn worst_pairs(
    state: &mut AlnsState,
    graph: &CandidateGraph,
    quota: usize,
    evicted: &mut Vec<Move>,
) {
    let mut matched: Vec<Move> = state
        .arrangement()
        .pairs()
        .map(|(v, u)| (v, u, graph.similarity(v, u)))
        .collect();
    // Lowest similarity first; (v, u) ascending on ties for determinism.
    matched.sort_unstable_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    for &(v, u, sim) in matched.iter().take(quota) {
        state.evict(graph, v, u, sim);
        evicted.push((v, u, sim));
    }
}

fn conflict_cluster(
    state: &mut AlnsState,
    graph: &CandidateGraph,
    rng: &mut StdRng,
    quota: usize,
    evicted: &mut Vec<Move>,
) {
    let assigned: Vec<UserId> = graph
        .instance()
        .users()
        .filter(|&u| !state.events_of(u).is_empty())
        .collect();
    if assigned.is_empty() {
        return;
    }
    let inst = graph.instance();
    let start = evicted.len();
    let seed_user = assigned[rng.gen_range(0..assigned.len())];
    for v in state.events_of(seed_user).to_vec() {
        let sim = graph.similarity(v, seed_user);
        state.evict(graph, v, seed_user, sim);
        evicted.push((v, seed_user, sim));
        // Walk the head of v's sorted row: its most similar candidates,
        // in the (sim desc, id asc) order the repair frontier streams.
        // Any assignment conflicting with v from a top candidate's
        // schedule blocks that candidate from attending v — evict it so
        // repair can reconsider the whole cluster.
        let (users, _) = graph.sorted_row(v);
        for &cu in users.iter().take(CLUSTER_WIDTH) {
            let u = UserId(cu);
            for w in state.events_of(u).to_vec() {
                if inst.conflicts().conflicts(v, w) {
                    let wsim = graph.similarity(w, u);
                    state.evict(graph, w, u, wsim);
                    evicted.push((w, u, wsim));
                }
            }
        }
        // One seed user's cluster can cascade; keep the neighborhood
        // proportional to the configured intensity.
        if evicted.len() - start >= quota.saturating_mul(4) {
            break;
        }
    }
}

/// The search state as a repair frontier grows it: inserts go through
/// the ledgers and onto the undo record.
struct Repair<'s, 'g> {
    state: &'s mut AlnsState,
    graph: &'s CandidateGraph<'g>,
    inserted: &'s mut Vec<Move>,
}

impl Matching for Repair<'_, '_> {
    fn event_open(&self, v: EventId) -> bool {
        self.state.free_event_capacity(v) > 0
    }

    fn user_open(&self, u: UserId) -> bool {
        self.state.free_user_capacity(u) > 0
    }

    fn can_insert(&self, v: EventId, u: UserId) -> bool {
        self.state.can_insert(self.graph, v, u)
    }

    fn insert(&mut self, v: EventId, u: UserId, sim: f64) {
        self.state.insert(self.graph, v, u, sim);
        self.inserted.push((v, u, sim));
    }
}

/// Re-match the destroyed region: Greedy-GEACC's frontier restricted to
/// streams of the evicted pairs' events and users. Appends every
/// inserted pair to `inserted` (the accept/reject undo record).
///
/// `noise` ∈ [0, 1) perturbs each candidate's selection score by an
/// independent uniform discount (the Ropke–Pisinger "noisy greedy"
/// repair), drawn from `rng` at each push. Without it a pure-greedy
/// repair deterministically rebuilds the locally-optimal region it just
/// destroyed and the search never moves; with it, repair proposes
/// near-greedy alternatives and the annealing acceptance decides which
/// survive. `noise = 0.0` recovers the exact Greedy-GEACC frontier
/// order.
///
/// The skip discipline is sound for the same monotonicity reason as in
/// the full greedy: repair only inserts, so capacities only shrink and
/// user schedules only grow — a pair infeasible at scan time can never
/// become feasible within this repair call.
pub(crate) fn repair(
    state: &mut AlnsState,
    graph: &CandidateGraph,
    evicted: &[Move],
    inserted: &mut Vec<Move>,
    rng: &mut StdRng,
    noise: f64,
) {
    // The region: every node an eviction touched, deduplicated.
    let mut events: Vec<EventId> = evicted.iter().map(|&(v, _, _)| v).collect();
    let mut users: Vec<UserId> = evicted.iter().map(|&(_, u, _)| u).collect();
    events.sort_unstable();
    events.dedup();
    users.sort_unstable();
    users.dedup();
    let inst = graph.instance();
    let mut streams = RegionStreams::new(inst, graph.flats(), &events, &users);
    let mut matching = Repair {
        state,
        graph,
        inserted,
    };
    Frontier::region(inst, Some((rng, noise))).run(
        events,
        users,
        &mut streams,
        &mut matching,
        None,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Threads;
    use crate::toy;
    use rand::SeedableRng;

    fn seeded_state() -> (crate::Instance, CandidateGraph<'static>, AlnsState) {
        // Leak the instance so the graph (which borrows it) can be
        // returned alongside — test-only convenience.
        let inst: &'static crate::Instance = Box::leak(Box::new(toy::table1_instance()));
        let graph = CandidateGraph::build(inst, Threads::single());
        let seeded = crate::algorithms::greedy_on(&graph, None).0;
        let state = AlnsState::new(&graph, seeded);
        (inst.clone(), graph, state)
    }

    #[test]
    fn every_operator_evicts_then_repair_restores_feasibility() {
        for op in OPERATORS {
            let (inst, graph, mut state) = seeded_state();
            let mut rng = StdRng::seed_from_u64(7);
            let mut evicted = Vec::new();
            op.apply(&mut state, &graph, &mut rng, &mut evicted);
            assert!(!evicted.is_empty(), "{} evicted nothing", op.name());
            assert!(
                state.arrangement().validate(&inst).is_empty(),
                "{} left an infeasible state",
                op.name()
            );
            let mut inserted = Vec::new();
            repair(&mut state, &graph, &evicted, &mut inserted, &mut rng, 0.0);
            assert!(
                state.arrangement().validate(&inst).is_empty(),
                "repair after {} infeasible",
                op.name()
            );
            // Repair is maximal over the region: every evicted pair's
            // slot is either re-used or blocked by a better choice.
            assert!(!state.is_empty());
        }
    }

    #[test]
    fn worst_pairs_removes_the_lowest_similarity_first() {
        let (_, graph, mut state) = seeded_state();
        let min_sim = state
            .arrangement()
            .pairs()
            .map(|(v, u)| graph.similarity(v, u))
            .fold(f64::INFINITY, f64::min);
        let mut evicted = Vec::new();
        worst_pairs(&mut state, &graph, 1, &mut evicted);
        assert_eq!(evicted.len(), 1);
        assert!((evicted[0].2 - min_sim).abs() < 1e-12);
    }

    #[test]
    fn repair_with_undo_roundtrips_the_objective() {
        let (inst, graph, mut state) = seeded_state();
        let before = state.objective();
        let mut rng = StdRng::seed_from_u64(3);
        let mut evicted = Vec::new();
        DestroyOp::RandomEvents.apply(&mut state, &graph, &mut rng, &mut evicted);
        let mut inserted = Vec::new();
        repair(&mut state, &graph, &evicted, &mut inserted, &mut rng, 0.25);
        // Reject: undo the move exactly.
        for &(v, u, sim) in inserted.iter().rev() {
            state.evict(&graph, v, u, sim);
        }
        for &(v, u, sim) in &evicted {
            state.insert(&graph, v, u, sim);
        }
        assert!((state.objective() - before).abs() < 1e-9);
        assert!(state.arrangement().validate(&inst).is_empty());
    }
}
