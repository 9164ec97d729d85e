//! Dynamic GEACC: a standing arrangement under a stream of mutations
//! (an extension beyond the paper, motivated by its EBSN deployment
//! story).
//!
//! The batch algorithms answer "arrange this snapshot"; a serving layer
//! faces registrations, cancellations, and newly discovered conflicts
//! against an arrangement that is already published. The
//! [`IncrementalArranger`] holds an [`Instance`] plus a live feasible
//! [`Arrangement`] and applies [`Mutation`]s with **localized repair**:
//!
//! 1. the mutation is validated and applied to the instance;
//! 2. only the pairs it invalidates are evicted (e.g.
//!    [`Mutation::AddConflict`] drops the lower-similarity side per
//!    affected user, ties toward keeping the lower event id);
//! 3. freed capacity is re-offered to the displaced/affected frontier
//!    through the same best-first machinery Greedy-GEACC uses — a
//!    [`NeighborOracle`] stream per affected node feeding a heap of
//!    candidate pairs, popped in (similarity desc, event id asc, user id
//!    asc) order.
//!
//! Repair is **add-only**: it never disturbs surviving pairs, so every
//! intermediate state is feasible and the served arrangement is stable
//! under mutations that do not touch it. The price is drift from the
//! optimum; [`IncrementalArranger::drift`] tracks the relative `MaxSum`
//! gap against the last full solve and [`IncrementalArranger::rebuild`]
//! re-runs a budgeted [`SolverPipeline`] when the configured ratio is
//! exceeded.
//!
//! **Users arriving.** A sign-up the instance has never seen is
//! [`Mutation::AddUser`]. A known population arriving in order is an
//! arranger over a copy of the instance whose user capacities are all
//! 0, with one [`Mutation::SetCapacity`] `{ side: User, id, capacity }`
//! per arrival: the repair hands the arriving user their best feasible
//! events by similarity, in the same order as above, and user ids stay
//! those of the original instance.
//!
//! **Determinism-from-log.** Eviction order, tie-breaks, and the repair
//! heap are all totally ordered, and nothing consults wall-clock time or
//! thread count, so replaying the same mutation log over the same base
//! instance reproduces every intermediate state bit-for-bit
//! ([`IncrementalArranger::replay`]; the property suite pins this at 1
//! and 4 workers). `rebuild` swaps the arrangement wholesale and is the
//! one non-logged action — persistence layers snapshot the arrangement
//! alongside the log and reinstall it via [`IncrementalArranger::install`].

use crate::algorithms::{greedy_on, GreedyConfig, NeighborOracle};
use crate::engine::{CandidateGraph, GraphFlats};
use crate::model::arrangement::{Arrangement, Violation};
use crate::model::ids::{EventId, UserId};
use crate::model::instance::{Instance, InstanceError};
use crate::parallel::Threads;
use crate::runtime::{Outcome, SolverPipeline};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Which side of the bipartition a [`Mutation::SetCapacity`] targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Side {
    /// An event's `c_v`.
    Event,
    /// A user's `c_u`.
    User,
}

/// One atomic change to a live instance.
///
/// Serializes with serde's external tagging, e.g.
/// `{"AddConflict":{"a":0,"b":2}}` — the wire format of the server's
/// `mutate` op and of snapshot files. All fields are required on the
/// wire (`AddEvent` takes an explicit, possibly empty, `conflicts`
/// list).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Mutation {
    /// Register a user. For attribute models `attrs` is the attribute
    /// vector; for matrix instances it is the similarity column over the
    /// existing events (see [`Instance::push_user`]).
    AddUser { attrs: Vec<f64>, capacity: u32 },
    /// Deregister a user: every assignment is evicted and the user's
    /// capacity drops to 0 (ids are stable, so the slot remains and a
    /// later `SetCapacity` may re-open it).
    RemoveUser { user: UserId },
    /// Publish an event, optionally conflicting with existing events.
    /// `attrs` mirrors [`Mutation::AddUser`] (similarity row for matrix
    /// instances).
    AddEvent {
        attrs: Vec<f64>,
        capacity: u32,
        conflicts: Vec<EventId>,
    },
    /// Cancel an event: every attendee is evicted and the event's
    /// capacity drops to 0.
    CloseEvent { event: EventId },
    /// A new conflict is discovered between `a` and `b`. Every user
    /// attending both loses the lower-similarity side (ties keep the
    /// lower event id).
    AddConflict { a: EventId, b: EventId },
    /// Resize an event's or user's capacity. Shrinking below the current
    /// assignment evicts the lowest-similarity pairs (ties evict the
    /// higher counterpart id) until the new capacity holds.
    SetCapacity { side: Side, id: u32, capacity: u32 },
}

/// A mutation that cannot be applied. Failed mutations leave the
/// arranger untouched: no eviction, no epoch bump, no log entry.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationError {
    /// An event id outside the instance.
    UnknownEvent { event: u32, num_events: usize },
    /// A user id outside the instance.
    UnknownUser { user: u32, num_users: usize },
    /// The instance rejected the change (bad attribute vector, similarity
    /// outside `[0, 1]`, …).
    Instance(InstanceError),
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::UnknownEvent { event, num_events } => {
                write!(f, "event v{event} out of range (instance has {num_events})")
            }
            MutationError::UnknownUser { user, num_users } => {
                write!(f, "user u{user} out of range (instance has {num_users})")
            }
            MutationError::Instance(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MutationError {}

impl From<InstanceError> for MutationError {
    fn from(e: InstanceError) -> Self {
        MutationError::Instance(e)
    }
}

/// Tuning knobs for the incremental arranger.
#[derive(Debug, Clone, Copy)]
pub struct DynamicConfig {
    /// [`IncrementalArranger::needs_rebuild`] fires when the relative
    /// `MaxSum` drift against the last full solve exceeds this ratio.
    pub rebuild_drift_ratio: f64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            rebuild_drift_ratio: 0.2,
        }
    }
}

/// What one [`IncrementalArranger::apply`] did to the arrangement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairReport {
    /// The epoch after the mutation (each applied mutation is one epoch).
    pub epoch: u64,
    /// Pairs the mutation invalidated and evicted.
    pub evicted: usize,
    /// Pairs the repair pass added back onto the freed capacity.
    pub reassigned: usize,
    /// `MaxSum` before the mutation.
    pub max_sum_before: f64,
    /// `MaxSum` after eviction + repair.
    pub max_sum_after: f64,
}

impl RepairReport {
    /// Signed `MaxSum` change of this mutation (repair is add-only, so
    /// within the repair phase itself this never decreases).
    pub fn max_sum_delta(&self) -> f64 {
        self.max_sum_after - self.max_sum_before
    }
}

/// A candidate pair proposed by an affected node's oracle stream during
/// repair. Total order: similarity descending, then event id ascending,
/// user id ascending, event-sourced before user-sourced — fully
/// deterministic, no two distinct candidates compare equal.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    sim: f64,
    v: EventId,
    u: UserId,
    from_event: bool,
}

impl Candidate {
    fn key(&self) -> (u32, u32, bool) {
        (self.v.0, self.u.0, !self.from_event)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap pops the maximum: highest sim first, then the
        // *reversed* id order so lower ids win ties.
        self.sim
            .total_cmp(&other.sim)
            .then_with(|| other.key().cmp(&self.key()))
    }
}

/// A standing instance + feasible arrangement, maintained under
/// mutations. See the module docs for the repair and determinism
/// contracts.
#[derive(Debug, Clone)]
pub struct IncrementalArranger {
    inst: Instance,
    arrangement: Arrangement,
    log: Vec<Mutation>,
    epoch: u64,
    baseline: f64,
    config: DynamicConfig,
    /// The candidate-graph flats of the newest epoch they were asked
    /// for ([`Self::epoch_flats`]), or of epoch 0 as the initial Greedy
    /// built them, refreshed incrementally: mutations
    /// only ever *grow* the similarity space (`AddUser` / `AddEvent`
    /// append ids; capacity and conflict edits live outside the sim
    /// model), so a stale cache is extended via [`GraphFlats::extended`]
    /// at drift-proportional cost instead of rebuilt from scratch.
    flats: Option<Arc<GraphFlats>>,
}

impl IncrementalArranger {
    /// Start a dynamic session. The initial arrangement is the
    /// deterministic Greedy-GEACC solve of `inst` (bit-identical at
    /// every thread count), which also seeds the drift baseline. The
    /// candidate graph that solve runs over is kept as the epoch-0 flats,
    /// so the first [`Self::epoch_flats`] reuses or extends it instead of
    /// building it again.
    pub fn new(inst: Instance, config: DynamicConfig) -> Self {
        let (arrangement, flats) = {
            let graph = CandidateGraph::build(&inst, GreedyConfig::default().threads);
            (greedy_on(&graph, None).0, Arc::clone(graph.flats()))
        };
        let baseline = arrangement.max_sum();
        IncrementalArranger {
            inst,
            arrangement,
            log: Vec::new(),
            epoch: 0,
            baseline,
            config,
            flats: Some(flats),
        }
    }

    /// Rebuild a session deterministically from a base instance and a
    /// mutation log: bit-identical to the session that produced the log
    /// (modulo `rebuild`/`install`, which persistence layers snapshot
    /// separately).
    pub fn replay(
        base: Instance,
        log: &[Mutation],
        config: DynamicConfig,
    ) -> Result<Self, MutationError> {
        let mut arranger = IncrementalArranger::new(base, config);
        for mutation in log {
            arranger.apply(mutation.clone())?;
        }
        Ok(arranger)
    }

    /// Resume a session directly from persisted state — the recovery
    /// fast path. `inst` is the **live** (already-mutated) instance and
    /// `log` the mutations that produced it; nothing is replayed, so
    /// resuming costs one feasibility validation instead of `log.len()`
    /// repairs. The epoch is `log.len()` (each applied mutation is one
    /// epoch). Rejected — nothing constructed — unless `arrangement` is
    /// feasible for `inst`.
    pub fn resume(
        inst: Instance,
        log: Vec<Mutation>,
        arrangement: Arrangement,
        baseline: f64,
        config: DynamicConfig,
    ) -> Result<Self, Vec<Violation>> {
        let violations = arrangement.validate(&inst);
        if !violations.is_empty() {
            return Err(violations);
        }
        let epoch = log.len() as u64;
        Ok(IncrementalArranger {
            inst,
            arrangement,
            log,
            epoch,
            baseline,
            config,
            flats: None,
        })
    }

    /// The live (mutated) instance.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// The standing feasible arrangement.
    pub fn arrangement(&self) -> &Arrangement {
        &self.arrangement
    }

    /// Mutations applied so far, in order.
    pub fn log(&self) -> &[Mutation] {
        &self.log
    }

    /// Number of applied mutations (each bumps the epoch by one).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current `MaxSum`.
    pub fn max_sum(&self) -> f64 {
        self.arrangement.max_sum()
    }

    /// `MaxSum` at the last full solve (construction, `rebuild`, or
    /// `install`).
    pub fn baseline_max_sum(&self) -> f64 {
        self.baseline
    }

    /// Relative `MaxSum` drift against the last full solve. Mutations
    /// move the objective in both directions (arrivals add value,
    /// conflicts remove it); either way the standing solve is stale, so
    /// the drift is the absolute relative gap.
    pub fn drift(&self) -> f64 {
        let base = self.baseline.abs().max(1e-9);
        (self.arrangement.max_sum() - self.baseline).abs() / base
    }

    /// Whether drift exceeds the configured rebuild ratio.
    pub fn needs_rebuild(&self) -> bool {
        self.drift() > self.config.rebuild_drift_ratio
    }

    /// A deterministic digest of the session's observable state: the
    /// epoch, every standing (event, user) pair in iteration order, and
    /// the exact bit patterns of `max_sum` and the drift baseline,
    /// folded through FNV-1a. Two sessions report the same fingerprint
    /// iff they hold bit-identical arrangements at the same epoch —
    /// which is how replication and recovery assert "the replica serves
    /// the acked prefix bit-identically" over the wire instead of
    /// shipping whole arrangements around to compare.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.epoch);
        mix(self.arrangement.len() as u64);
        for (v, u) in self.arrangement.pairs() {
            mix(v.index() as u64);
            mix(u.index() as u64);
        }
        mix(self.arrangement.max_sum().to_bits());
        mix(self.baseline.to_bits());
        h
    }

    /// The candidate-graph flats of the current epoch, **incrementally
    /// extended** from the cached ones. [`Self::new`] seeds the cache
    /// with its Greedy's graph, so a from-scratch build only happens on
    /// first use after [`Self::resume`]. Dimension-changing mutations
    /// (`AddUser` / `AddEvent`) trigger a [`GraphFlats::extended`]
    /// refresh costing similarity evaluations proportional to the drift
    /// (new rows × all users + old rows × new users), while every other
    /// mutation reuses the cached `Arc` outright — capacities and
    /// conflicts are not part of the sim model. Bit-identical to
    /// `GraphFlats::build` of the live instance at every thread count.
    /// Only solves need it — [`Self::rebuild`] and the serving layer's
    /// solve pins — so one extend covers every mutation since the last
    /// solve.
    pub fn epoch_flats(&mut self, threads: Threads) -> Arc<GraphFlats> {
        let fresh = match &self.flats {
            Some(f) if f.covers(&self.inst) => Arc::clone(f),
            Some(f) => Arc::new(f.extended(&self.inst, threads)),
            None => Arc::new(GraphFlats::build(&self.inst, threads)),
        };
        self.flats = Some(Arc::clone(&fresh));
        fresh
    }

    /// Re-run the full budgeted pipeline on the current instance and
    /// adopt its arrangement as the new standing solution and drift
    /// baseline. By construction this equals solving the mutated
    /// instance from scratch with the same pipeline (the differential
    /// suite pins it); the candidate graph itself is produced by the
    /// incremental epoch cache, so repeated rebuilds of a drifting
    /// session pay per-mutation graph cost, not per-instance.
    pub fn rebuild(&mut self, pipeline: &SolverPipeline) -> Outcome {
        let flats = self.epoch_flats(pipeline.threads());
        let outcome = {
            let graph = CandidateGraph::from_flats(&self.inst, flats);
            pipeline.run_on(&graph)
        };
        self.arrangement = outcome.arrangement.clone();
        self.baseline = self.arrangement.max_sum();
        outcome
    }

    /// Adopt an arrangement solved against an epoch-pinned graph of
    /// this session (the serving layer's batched solve path, which runs
    /// the pipeline *outside* the session lock). Rejected — state
    /// unchanged — if mutations applied since that epoch made it
    /// infeasible; on success it becomes the standing solution and
    /// drift baseline, grown to the current dimensions so later
    /// mutations index safely.
    pub fn adopt(&mut self, arrangement: Arrangement) -> Result<(), Vec<Violation>> {
        let violations = arrangement.validate(&self.inst);
        if !violations.is_empty() {
            return Err(violations);
        }
        self.arrangement = arrangement;
        self.arrangement
            .grow_to(self.inst.num_events(), self.inst.num_users());
        self.baseline = self.arrangement.max_sum();
        Ok(())
    }

    /// Install an externally produced arrangement (snapshot restore, a
    /// replicated rebuild) with the drift baseline it was taken under.
    /// Rejected — state unchanged — unless feasible for the current
    /// instance.
    pub fn install(
        &mut self,
        arrangement: Arrangement,
        baseline: f64,
    ) -> Result<(), Vec<Violation>> {
        let violations = arrangement.validate(&self.inst);
        if !violations.is_empty() {
            return Err(violations);
        }
        self.arrangement = arrangement;
        self.baseline = baseline;
        Ok(())
    }

    /// Apply one mutation: validate, mutate the instance, evict exactly
    /// the invalidated pairs, repair the freed capacity, bump the epoch,
    /// append to the log. On error nothing changes.
    pub fn apply(&mut self, mutation: Mutation) -> Result<RepairReport, MutationError> {
        let max_sum_before = self.arrangement.max_sum();
        let (evicted, users, events) = self.mutate(&mutation)?;
        let reassigned = self.repair(users, events);
        // Evictions subtract similarities from the running sum, so long
        // mutation streams would otherwise accumulate floating-point
        // residue (e.g. a slightly negative MaxSum on an emptied
        // arrangement). Recompute from the standing pairs to keep the
        // reported value exact and the replay contract about pair sets,
        // not error histories.
        self.arrangement.resync_max_sum(&self.inst);
        self.epoch += 1;
        self.log.push(mutation);
        Ok(RepairReport {
            epoch: self.epoch,
            evicted,
            reassigned,
            max_sum_before,
            max_sum_after: self.arrangement.max_sum(),
        })
    }

    fn check_event(&self, v: EventId) -> Result<(), MutationError> {
        if v.index() >= self.inst.num_events() {
            return Err(MutationError::UnknownEvent {
                event: v.0,
                num_events: self.inst.num_events(),
            });
        }
        Ok(())
    }

    fn check_user(&self, u: UserId) -> Result<(), MutationError> {
        if u.index() >= self.inst.num_users() {
            return Err(MutationError::UnknownUser {
                user: u.0,
                num_users: self.inst.num_users(),
            });
        }
        Ok(())
    }

    /// Validate + apply the instance change + evict invalidated pairs.
    /// Returns `(evicted, affected_users, affected_events)` — the
    /// frontier the repair pass re-offers capacity to.
    #[allow(clippy::type_complexity)]
    fn mutate(
        &mut self,
        mutation: &Mutation,
    ) -> Result<(usize, Vec<UserId>, Vec<EventId>), MutationError> {
        match mutation {
            Mutation::AddUser { attrs, capacity } => {
                let u = self.inst.push_user(attrs, *capacity)?;
                self.arrangement
                    .grow_to(self.inst.num_events(), self.inst.num_users());
                Ok((0, vec![u], Vec::new()))
            }
            Mutation::RemoveUser { user } => {
                self.check_user(*user)?;
                let events = self.evict_user(*user);
                self.inst.set_user_capacity(*user, 0);
                Ok((events.len(), Vec::new(), events))
            }
            Mutation::AddEvent {
                attrs,
                capacity,
                conflicts,
            } => {
                for &c in conflicts {
                    self.check_event(c)?;
                }
                let v = self.inst.push_event(attrs, *capacity)?;
                self.arrangement
                    .grow_to(self.inst.num_events(), self.inst.num_users());
                for &c in conflicts {
                    self.inst
                        .add_conflict(v, c)
                        .expect("conflict targets validated above");
                }
                Ok((0, Vec::new(), vec![v]))
            }
            Mutation::CloseEvent { event } => {
                self.check_event(*event)?;
                let displaced = self.evict_event(*event, 0);
                self.inst.set_event_capacity(*event, 0);
                Ok((displaced.len(), displaced, Vec::new()))
            }
            Mutation::AddConflict { a, b } => {
                self.check_event(*a)?;
                self.check_event(*b)?;
                self.inst
                    .add_conflict(*a, *b)
                    .expect("conflict endpoints validated above");
                if a == b {
                    return Ok((0, Vec::new(), Vec::new()));
                }
                let mut displaced_users = Vec::new();
                let mut freed_events = Vec::new();
                for u in self.inst.users() {
                    if self.arrangement.contains(*a, u) && self.arrangement.contains(*b, u) {
                        let (sim_a, sim_b) =
                            (self.inst.similarity(*a, u), self.inst.similarity(*b, u));
                        // Drop the lower-similarity side; ties keep the
                        // lower event id.
                        let drop = if sim_a < sim_b || (sim_a == sim_b && a > b) {
                            *a
                        } else {
                            *b
                        };
                        self.arrangement
                            .remove_pair(drop, u, self.inst.similarity(drop, u));
                        displaced_users.push(u);
                        freed_events.push(drop);
                    }
                }
                let evicted = displaced_users.len();
                Ok((evicted, displaced_users, freed_events))
            }
            Mutation::SetCapacity { side, id, capacity } => match side {
                Side::Event => {
                    let v = EventId(*id);
                    self.check_event(v)?;
                    self.inst.set_event_capacity(v, *capacity);
                    if self.arrangement.attendees_of(v) > *capacity {
                        let displaced = self.evict_event(v, *capacity);
                        Ok((displaced.len(), displaced, Vec::new()))
                    } else {
                        Ok((0, Vec::new(), vec![v]))
                    }
                }
                Side::User => {
                    let u = UserId(*id);
                    self.check_user(u)?;
                    self.inst.set_user_capacity(u, *capacity);
                    if self.arrangement.events_of(u).len() > *capacity as usize {
                        let freed = self.evict_user_to(u, *capacity as usize);
                        Ok((freed.len(), Vec::new(), freed))
                    } else {
                        Ok((0, vec![u], Vec::new()))
                    }
                }
            },
        }
    }

    /// Evict every assignment of `user`; returns the freed events.
    fn evict_user(&mut self, user: UserId) -> Vec<EventId> {
        let events: Vec<EventId> = self.arrangement.events_of(user).to_vec();
        for &v in &events {
            self.arrangement
                .remove_pair(v, user, self.inst.similarity(v, user));
        }
        events
    }

    /// Evict `user`'s lowest-similarity assignments (ties: higher event
    /// id first) until at most `keep` remain; returns the freed events.
    fn evict_user_to(&mut self, user: UserId, keep: usize) -> Vec<EventId> {
        let mut ranked: Vec<(f64, EventId)> = self
            .arrangement
            .events_of(user)
            .iter()
            .map(|&v| (self.inst.similarity(v, user), v))
            .collect();
        // Worst first: similarity ascending, event id descending.
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let excess = ranked.len().saturating_sub(keep);
        let mut freed = Vec::with_capacity(excess);
        for &(sim, v) in ranked.iter().take(excess) {
            self.arrangement.remove_pair(v, user, sim);
            freed.push(v);
        }
        freed
    }

    /// Evict `event`'s lowest-similarity attendees (ties: higher user id
    /// first) until at most `keep` remain; returns the displaced users.
    fn evict_event(&mut self, event: EventId, keep: u32) -> Vec<UserId> {
        let mut ranked: Vec<(f64, UserId)> = self
            .inst
            .users()
            .filter(|&u| self.arrangement.contains(event, u))
            .map(|u| (self.inst.similarity(event, u), u))
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        let excess = ranked.len().saturating_sub(keep as usize);
        let mut displaced = Vec::with_capacity(excess);
        for &(sim, u) in ranked.iter().take(excess) {
            self.arrangement.remove_pair(event, u, sim);
            displaced.push(u);
        }
        displaced
    }

    /// Best-first localized repair: re-offer freed capacity to the
    /// affected frontier. Each affected node contributes its
    /// [`NeighborOracle`] stream and candidates are added
    /// greedily in (sim desc, event asc, user asc) order, exactly
    /// Greedy-GEACC's discipline restricted to the frontier. Add-only:
    /// surviving pairs are never disturbed. Returns pairs added.
    fn repair(&mut self, mut users: Vec<UserId>, mut events: Vec<EventId>) -> usize {
        users.sort_unstable();
        users.dedup();
        events.sort_unstable();
        events.dedup();
        if users.is_empty() && events.is_empty() {
            return 0;
        }

        let mut oracle = NeighborOracle::new(&self.inst);
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        for &v in &events {
            if self.arrangement.attendees_of(v) < self.inst.event_capacity(v) {
                if let Some((u, sim)) = oracle.next_user_for_event(v) {
                    heap.push(Candidate {
                        sim,
                        v,
                        u,
                        from_event: true,
                    });
                }
            }
        }
        for &u in &users {
            if (self.arrangement.events_of(u).len() as u32) < self.inst.user_capacity(u) {
                if let Some((v, sim)) = oracle.next_event_for_user(u) {
                    heap.push(Candidate {
                        sim,
                        v,
                        u,
                        from_event: false,
                    });
                }
            }
        }

        let mut added = 0;
        while let Some(c) = heap.pop() {
            if self.arrangement.can_add(&self.inst, c.v, c.u) {
                self.arrangement.push_unchecked(c.v, c.u, c.sim);
                added += 1;
            }
            // Advance the proposing stream while its node still has
            // spare capacity. Capacity only shrinks during repair, so a
            // candidate skipped for a full counterpart never becomes
            // addable later — no re-queueing needed.
            if c.from_event {
                if self.arrangement.attendees_of(c.v) < self.inst.event_capacity(c.v) {
                    if let Some((u, sim)) = oracle.next_user_for_event(c.v) {
                        heap.push(Candidate {
                            sim,
                            v: c.v,
                            u,
                            from_event: true,
                        });
                    }
                }
            } else if (self.arrangement.events_of(c.u).len() as u32) < self.inst.user_capacity(c.u)
            {
                if let Some((v, sim)) = oracle.next_event_for_user(c.u) {
                    heap.push(Candidate {
                        sim,
                        v,
                        u: c.u,
                        from_event: false,
                    });
                }
            }
        }
        added
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::conflict::ConflictGraph;
    use crate::similarity::SimMatrix;
    use crate::toy;

    fn arranger() -> IncrementalArranger {
        IncrementalArranger::new(toy::table1_instance(), DynamicConfig::default())
    }

    fn feasible(a: &IncrementalArranger) {
        let violations = a.arrangement().validate(a.instance());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn fingerprint_tracks_observable_state_bit_for_bit() {
        let mut a = arranger();
        let mut b = arranger();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let before = a.fingerprint();
        let mutation = Mutation::AddConflict {
            a: EventId(0),
            b: EventId(1),
        };
        a.apply(mutation.clone()).unwrap();
        assert_ne!(a.fingerprint(), before, "an applied mutation must show");
        b.apply(mutation).unwrap();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "identical histories fingerprint identically"
        );
        // Replay from the log reproduces the fingerprint exactly.
        let replayed =
            IncrementalArranger::replay(toy::table1_instance(), a.log(), DynamicConfig::default())
                .unwrap();
        assert_eq!(replayed.fingerprint(), a.fingerprint());
    }

    #[test]
    fn initial_state_is_the_greedy_solve() {
        let a = arranger();
        let greedy = crate::algorithms::greedy(&toy::table1_instance());
        assert_eq!(a.arrangement(), &greedy);
        assert_eq!(a.epoch(), 0);
        assert_eq!(a.drift(), 0.0);
        feasible(&a);
    }

    #[test]
    fn add_conflict_drops_the_lower_similarity_side() {
        // One user attending two non-conflicting events; a new conflict
        // between them must evict exactly the weaker pair.
        let m = SimMatrix::from_rows(&[vec![0.9], vec![0.6]]);
        let inst = Instance::from_matrix(m, vec![1, 1], vec![2], ConflictGraph::empty(2)).unwrap();
        let mut a = IncrementalArranger::new(inst, DynamicConfig::default());
        assert_eq!(a.arrangement().len(), 2);
        let report = a
            .apply(Mutation::AddConflict {
                a: EventId(0),
                b: EventId(1),
            })
            .unwrap();
        assert_eq!(report.evicted, 1);
        assert!(a.arrangement().contains(EventId(0), UserId(0)));
        assert!(!a.arrangement().contains(EventId(1), UserId(0)));
        assert!(report.max_sum_delta() < 0.0);
        feasible(&a);
    }

    #[test]
    fn add_conflict_repair_refills_the_freed_seat() {
        // u0 holds both events; u1 only wants v1. The conflict evicts
        // (v1, u0) and repair hands the seat to u1.
        let m = SimMatrix::from_rows(&[vec![0.9, 0.0], vec![0.6, 0.5]]);
        let inst =
            Instance::from_matrix(m, vec![1, 1], vec![2, 1], ConflictGraph::empty(2)).unwrap();
        let mut a = IncrementalArranger::new(inst, DynamicConfig::default());
        let report = a
            .apply(Mutation::AddConflict {
                a: EventId(0),
                b: EventId(1),
            })
            .unwrap();
        assert_eq!((report.evicted, report.reassigned), (1, 1));
        assert!(a.arrangement().contains(EventId(1), UserId(1)));
        feasible(&a);
    }

    #[test]
    fn remove_user_frees_seats_for_others() {
        // One seat, held by the better-matched u0; removing u0 hands it
        // to u1.
        let m = SimMatrix::from_rows(&[vec![0.9, 0.5]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let mut a = IncrementalArranger::new(inst, DynamicConfig::default());
        assert!(a.arrangement().contains(EventId(0), UserId(0)));
        let report = a.apply(Mutation::RemoveUser { user: UserId(0) }).unwrap();
        assert_eq!((report.evicted, report.reassigned), (1, 1));
        assert!(a.arrangement().contains(EventId(0), UserId(1)));
        assert_eq!(a.instance().user_capacity(UserId(0)), 0);
        feasible(&a);
    }

    #[test]
    fn close_event_displaces_and_reroutes_attendees() {
        let mut a = arranger();
        let report = a.apply(Mutation::CloseEvent { event: EventId(0) }).unwrap();
        assert_eq!(a.arrangement().attendees_of(EventId(0)), 0);
        assert_eq!(a.instance().event_capacity(EventId(0)), 0);
        assert!(report.evicted > 0);
        feasible(&a);
    }

    #[test]
    fn add_user_joins_their_best_feasible_events() {
        let mut a = arranger();
        // A clone of an enthusiastic user under the matrix model: the
        // attrs vector is the similarity column.
        let col = vec![0.8, 0.7, 0.6];
        let report = a
            .apply(Mutation::AddUser {
                attrs: col,
                capacity: 2,
            })
            .unwrap();
        assert_eq!(a.instance().num_users(), 6);
        assert_eq!(report.evicted, 0);
        feasible(&a);
    }

    #[test]
    fn add_event_offers_fresh_capacity() {
        let mut a = arranger();
        let row = vec![0.9, 0.9, 0.9, 0.9, 0.9];
        let report = a
            .apply(Mutation::AddEvent {
                attrs: row,
                capacity: 3,
                conflicts: vec![EventId(0)],
            })
            .unwrap();
        assert_eq!(a.instance().num_events(), 4);
        assert!(a.instance().conflicts().conflicts(EventId(3), EventId(0)));
        assert!(report.reassigned > 0, "spare user capacity should flow in");
        feasible(&a);
    }

    #[test]
    fn shrinking_event_capacity_evicts_the_weakest_attendees() {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.5, 0.7]]);
        let inst =
            Instance::from_matrix(m, vec![3], vec![1, 1, 1], ConflictGraph::empty(1)).unwrap();
        let mut a = IncrementalArranger::new(inst, DynamicConfig::default());
        assert_eq!(a.arrangement().len(), 3);
        let report = a
            .apply(Mutation::SetCapacity {
                side: Side::Event,
                id: 0,
                capacity: 1,
            })
            .unwrap();
        assert_eq!(report.evicted, 2);
        // The strongest pair survives.
        assert!(a.arrangement().contains(EventId(0), UserId(0)));
        feasible(&a);
    }

    #[test]
    fn growing_capacity_admits_waiting_users() {
        let m = SimMatrix::from_rows(&[vec![0.9, 0.5]]);
        let inst = Instance::from_matrix(m, vec![1], vec![1, 1], ConflictGraph::empty(1)).unwrap();
        let mut a = IncrementalArranger::new(inst, DynamicConfig::default());
        assert_eq!(a.arrangement().len(), 1);
        let report = a
            .apply(Mutation::SetCapacity {
                side: Side::Event,
                id: 0,
                capacity: 2,
            })
            .unwrap();
        assert_eq!(report.reassigned, 1);
        assert!(a.arrangement().contains(EventId(0), UserId(1)));
        feasible(&a);
    }

    #[test]
    fn an_emptied_arrangement_reports_positive_zero() {
        let mut a = arranger();
        for event in 0..3 {
            a.apply(Mutation::CloseEvent {
                event: EventId(event),
            })
            .unwrap();
        }
        assert!(a.arrangement().is_empty());
        // A sum over no pairs is +0.0, the same bits (and wire bytes) a
        // fresh empty arrangement carries.
        assert_eq!(a.max_sum().to_bits(), 0.0f64.to_bits());
        assert_eq!(
            serde_json::to_string(a.arrangement()).unwrap(),
            serde_json::to_string(&Arrangement::empty_for(a.instance())).unwrap()
        );
    }

    #[test]
    fn failed_mutations_change_nothing() {
        let mut a = arranger();
        let before = a.clone();
        assert!(matches!(
            a.apply(Mutation::CloseEvent { event: EventId(99) }),
            Err(MutationError::UnknownEvent { event: 99, .. })
        ));
        assert!(matches!(
            a.apply(Mutation::RemoveUser { user: UserId(99) }),
            Err(MutationError::UnknownUser { user: 99, .. })
        ));
        assert!(matches!(
            a.apply(Mutation::AddUser {
                attrs: vec![2.0, 0.0, 0.0],
                capacity: 1
            }),
            Err(MutationError::Instance(
                InstanceError::SimilarityOutOfRange { .. }
            ))
        ));
        assert_eq!(a.epoch(), before.epoch());
        assert_eq!(a.arrangement(), before.arrangement());
        assert_eq!(a.log().len(), 0);
    }

    #[test]
    fn replay_is_bit_identical() {
        let mut a = arranger();
        let mutations = [
            Mutation::AddConflict {
                a: EventId(0),
                b: EventId(1),
            },
            Mutation::AddUser {
                attrs: vec![0.7, 0.2, 0.9],
                capacity: 2,
            },
            Mutation::CloseEvent { event: EventId(2) },
            Mutation::SetCapacity {
                side: Side::User,
                id: 1,
                capacity: 0,
            },
        ];
        for m in &mutations {
            a.apply(m.clone()).unwrap();
            feasible(&a);
        }
        let replayed =
            IncrementalArranger::replay(toy::table1_instance(), a.log(), DynamicConfig::default())
                .unwrap();
        assert_eq!(replayed.arrangement(), a.arrangement());
        assert_eq!(
            replayed.max_sum().to_bits(),
            a.max_sum().to_bits(),
            "replay must be bit-identical"
        );
        assert_eq!(replayed.epoch(), a.epoch());
        assert_eq!(replayed.instance(), a.instance());
    }

    #[test]
    fn drift_triggers_rebuild_recommendation() {
        let mut a = IncrementalArranger::new(
            toy::table1_instance(),
            DynamicConfig {
                rebuild_drift_ratio: 0.05,
            },
        );
        // Closing events hammers MaxSum well past 5%.
        a.apply(Mutation::CloseEvent { event: EventId(0) }).unwrap();
        a.apply(Mutation::CloseEvent { event: EventId(1) }).unwrap();
        assert!(a.needs_rebuild());
        let pipeline = SolverPipeline::new(
            crate::algorithms::Algorithm::Greedy,
            crate::runtime::SolveBudget::UNLIMITED,
        );
        a.rebuild(&pipeline);
        assert!(!a.needs_rebuild());
        assert_eq!(a.drift(), 0.0);
        feasible(&a);
    }

    #[test]
    fn install_rejects_infeasible_snapshots() {
        let mut a = arranger();
        let mut forged = Arrangement::empty_for(a.instance());
        forged.push_unchecked(EventId(0), UserId(0), 0.1); // wrong sim
        assert!(a.install(forged, 0.1).is_err());
        feasible(&a);
    }

    #[test]
    fn resume_skips_replay_but_matches_it() {
        let mut a = arranger();
        a.apply(Mutation::AddConflict {
            a: EventId(0),
            b: EventId(2),
        })
        .unwrap();
        a.apply(Mutation::SetCapacity {
            side: Side::Event,
            id: 1,
            capacity: 1,
        })
        .unwrap();
        let resumed = IncrementalArranger::resume(
            a.instance().clone(),
            a.log().to_vec(),
            a.arrangement().clone(),
            a.baseline_max_sum(),
            DynamicConfig::default(),
        )
        .unwrap();
        assert_eq!(resumed.arrangement(), a.arrangement());
        assert_eq!(resumed.epoch(), a.epoch());
        assert_eq!(resumed.max_sum().to_bits(), a.max_sum().to_bits());
        // And it keeps accepting mutations identically to the original.
        let mut a2 = a.clone();
        let mut r2 = resumed;
        let m = Mutation::CloseEvent { event: EventId(0) };
        assert_eq!(a2.apply(m.clone()).unwrap(), r2.apply(m).unwrap());
        assert_eq!(a2.arrangement(), r2.arrangement());
    }

    #[test]
    fn resume_rejects_infeasible_state() {
        let a = arranger();
        let mut forged = Arrangement::empty_for(a.instance());
        forged.push_unchecked(EventId(0), UserId(0), 0.3); // wrong sim
        assert!(IncrementalArranger::resume(
            a.instance().clone(),
            Vec::new(),
            forged,
            0.3,
            DynamicConfig::default(),
        )
        .is_err());
    }

    #[test]
    fn mutation_serde_roundtrip() {
        let mutations = vec![
            Mutation::AddUser {
                attrs: vec![0.5, 0.25],
                capacity: 2,
            },
            Mutation::RemoveUser { user: UserId(3) },
            Mutation::AddEvent {
                attrs: vec![0.1],
                capacity: 1,
                conflicts: vec![EventId(0)],
            },
            Mutation::CloseEvent { event: EventId(1) },
            Mutation::AddConflict {
                a: EventId(0),
                b: EventId(2),
            },
            Mutation::SetCapacity {
                side: Side::User,
                id: 7,
                capacity: 0,
            },
        ];
        let json = serde_json::to_string(&mutations).unwrap();
        let back: Vec<Mutation> = serde_json::from_str(&json).unwrap();
        assert_eq!(mutations, back);
    }
}
