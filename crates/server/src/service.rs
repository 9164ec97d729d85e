//! Op handlers: the bridge from wire requests to the
//! [`IncrementalArranger`].
//!
//! One [`Service`] is shared by every worker. The session lock guards
//! the *mutation path* only — mutations are localized repairs
//! (microseconds on serving-size instances), so it is held briefly.
//! Everything else reads through epoch-pinned state published under
//! that lock (DESIGN.md §17):
//!
//! - `health`/`stats` read a scalar summary cell republished on every
//!   state change — they never touch the session lock at all;
//! - `query_user`/`query_event` pin an immutable per-epoch read view,
//!   cut under the session lock by the first read after a state change
//!   and shared by every later read in the epoch. It is flat: the two
//!   capacity vectors, each user's events with their similarities, and
//!   each event's attendees in ascending user id. It holds neither the
//!   arrangement nor the CSR — each assigned pair's similarity is
//!   evaluated once at the cut — so a read after growth costs
//!   `O(|U| + |V| + pairs)`, not a CSR extend;
//! - `solve` goes through a coalescing batcher: concurrent solves pin
//!   one epoch — an `Arc`'d instance plus that epoch's CSR — run one
//!   budgeted pipeline per distinct parameter group *off* the session
//!   lock, then re-take it only to adopt the best result and append
//!   one WAL `Install` record for the whole batch.
//!
//! The epoch CSR comes from [`IncrementalArranger::epoch_flats`], which
//! only solve pins and `rebuild` call, seeded with the CSR the
//! session's initial Greedy ran over, so a `load` builds it once.
//! Growth mutations (`AddUser`/`AddEvent`) leave it behind; the next
//! solve extends it through [`GraphFlats::extended`], which evaluates
//! only the new pairs, once for every mutation since the last solve.
//! A resumed session holds the empty flats, so its first solve extends
//! those, which is a build. Bit-identity against a from-scratch build
//! is property-tested in `crates/core/tests/graph_incremental.rs`.
//!
//! ## Durability
//!
//! With a `--wal-dir`, every state change is logged to the WAL **before
//! the client is acked** (see [`crate::wal`]): `load` logs the base
//! instance, `mutate` logs the mutation *before* applying it (a
//! mutation that then fails to apply fails identically on replay and is
//! skipped), and `solve` logs the adopted arrangement. `restore` swaps
//! in a whole new history, so instead of logging it record-by-record it
//! forces an atomic snapshot at the current WAL offset — recovery
//! resumes from the snapshot and the old log tail is superseded.
//!
//! Live ops, boot recovery and replicas advance one [`Session`] type,
//! and live ops and replicas share one WAL append path and one snapshot
//! rotation.
//!
//! The WAL lock is only ever taken while the session lock is held (or
//! for read-only stats), so append order always matches apply order. If
//! an append or sync fails, the durability layer is **poisoned**: the
//! in-memory state and the log can no longer be proven consistent, so
//! every later state-changing op answers a structured `wal_failed`
//! error instead of quietly diverging. Read ops keep working; a restart
//! recovers the last durable state.

use crate::lock;
use crate::metrics::{Op, ServerMetrics};
use crate::protocol::{self, Request, ServiceError};
use crate::recovery::{self, Recovery, Session};
use crate::repl::{self, ReplState, Shipment};
use crate::supervisor::{SupervisorConfig, SupervisorState};
use crate::wal::{self, FsyncPolicy, SnapshotDoc, WalRecord, WalSink, WalWriter};
use geacc_core::algorithms::Algorithm;
use geacc_core::loader::{self, LoadError};
use geacc_core::parallel::Threads;
use geacc_core::{
    Arrangement, CandidateGraph, DynamicConfig, EngineStats, EventId, GraphFlats,
    IncrementalArranger, Instance, Mutation, Outcome, SolveBudget, SolverPipeline, UserId,
};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Serialize one response field. Failures (a NaN drift, say) become a
/// structured `internal` error — the request path never panics.
fn field<T: Serialize>(key: &str, value: &T) -> Result<(String, Value), ServiceError> {
    match serde_json::to_value(value) {
        Ok(v) => Ok((key.to_string(), v)),
        Err(e) => Err(ServiceError::new(
            "internal",
            format!("serializing response field {key:?}: {e}"),
        )),
    }
}

fn bad_request(message: impl Into<String>) -> ServiceError {
    ServiceError::new("bad_request", message)
}

fn no_instance() -> ServiceError {
    ServiceError::new("no_instance", "no instance loaded; send a \"load\" first")
}

fn wal_failed(detail: impl std::fmt::Display) -> ServiceError {
    ServiceError::new(
        "wal_failed",
        format!(
            "WAL write failed: {detail}; durability is poisoned and \
             state-changing ops are disabled until restart (reads still work)"
        ),
    )
}

/// The shared request handler: arranger state, metrics, and the stop
/// flag the `shutdown` op raises.
pub struct Service {
    /// The session lock: the live session and the dedup table.
    state: Mutex<Live>,
    /// The WAL half. `None` without `--wal-dir`. Locked only while the
    /// session lock is held (mutating ops) or alone for read-only stats
    /// — never the other way round.
    durability: Mutex<Option<Durability>>,
    /// Replication role, generation, and cursor (all atomics), plus the
    /// fan-out hub for connected replica streams.
    pub(crate) repl: ReplState,
    /// Supervision: lease clocks, cluster topology, and the write
    /// fence. Always present; inert until [`Self::begin_supervision`].
    sup: SupervisorState,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
    threads: Threads,
    config: DynamicConfig,
    /// Monotone state-version clock, bumped (under the session lock) by
    /// every state change. Ties the published summary and the epoch
    /// pins below to the exact state they were cut from.
    state_version: AtomicU64,
    /// Scalar summary of the last published state, for `health`/`stats`
    /// — a leaf lock, never held while taking any other.
    summary_cell: Mutex<Option<StateSummary>>,
    /// Epoch-pinned read view for `query_*`, rebuilt lazily on the
    /// first read after a state change (leaf lock).
    read_pin: Mutex<Option<Arc<ReadSnapshot>>>,
    /// Epoch-pinned `(instance, CSR)` pair for solve batches (leaf
    /// lock); reused verbatim while the state version holds still.
    solve_pin: Mutex<Option<Arc<SolvePin>>>,
    /// Solve coalescer: concurrent solves in one epoch share one
    /// pipeline run per distinct parameter group.
    batcher: SolveBatcher,
}

/// What the session lock guards.
#[derive(Default)]
struct Live {
    session: Option<Session>,
    /// Idempotency dedup: the last `(client_id, seq)` and its cached
    /// response, per client. It outlives any one session — a `load`
    /// keeps it — so it sits beside the session, not inside it.
    dedup: DedupTable,
}

/// The scalars `health` and `stats` serve without the session lock,
/// republished under that lock on every state change.
struct StateSummary {
    epoch: u64,
    fingerprint: u64,
    /// The full arranger summary object (`epoch`/`max_sum`/`drift`/…).
    summary: Value,
}

/// An immutable per-epoch view for point reads: everything
/// `query_user`/`query_event` answer from, flattened out of the
/// arrangement when the epoch is pinned. Each assigned pair's
/// similarity is evaluated once, by [`Instance::similarity`] — bit for
/// bit the value the epoch CSR stores — so reads never need the CSR,
/// and a read after growth never extends it.
struct ReadSnapshot {
    version: u64,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    /// User `u`'s events and their similarities sit at
    /// `user_off[u]..user_off[u + 1]`, in `events_of` order.
    user_off: Vec<usize>,
    user_event: Vec<EventId>,
    user_sim: Vec<f64>,
    /// Event `v`'s attendees sit at `event_off[v]..event_off[v + 1]`,
    /// in ascending user id.
    event_off: Vec<usize>,
    event_user: Vec<UserId>,
}

impl ReadSnapshot {
    /// Flatten `arrangement` over `inst` for the epoch at `version`.
    fn cut(version: u64, inst: &Instance, arrangement: &Arrangement) -> Self {
        let pairs = arrangement.len();
        let mut user_off = Vec::with_capacity(inst.num_users() + 1);
        let mut user_event = Vec::with_capacity(pairs);
        let mut user_sim = Vec::with_capacity(pairs);
        let mut event_off = vec![0usize; inst.num_events() + 1];
        user_off.push(0);
        for u in inst.users() {
            for &v in arrangement.events_of(u) {
                user_event.push(v);
                user_sim.push(inst.similarity(v, u));
                event_off[v.index() + 1] += 1;
            }
            user_off.push(user_event.len());
        }
        for v in 0..inst.num_events() {
            event_off[v + 1] += event_off[v];
        }
        // Placing users in id order leaves each event's range ascending.
        let mut next = event_off.clone();
        let mut event_user = vec![UserId(0); user_event.len()];
        for u in inst.users() {
            for &v in arrangement.events_of(u) {
                event_user[next[v.index()]] = u;
                next[v.index()] += 1;
            }
        }
        ReadSnapshot {
            version,
            cap_v: inst.events().map(|v| inst.event_capacity(v)).collect(),
            cap_u: inst.users().map(|u| inst.user_capacity(u)).collect(),
            user_off,
            user_event,
            user_sim,
            event_off,
            event_user,
        }
    }

    /// User `u`'s `(events, similarities)`.
    fn user(&self, u: UserId) -> (&[EventId], &[f64]) {
        let range = self.user_off[u.index()]..self.user_off[u.index() + 1];
        (&self.user_event[range.clone()], &self.user_sim[range])
    }

    /// Event `v`'s attendees, in ascending user id.
    fn attendees(&self, v: EventId) -> &[UserId] {
        &self.event_user[self.event_off[v.index()]..self.event_off[v.index() + 1]]
    }

    /// The similarity of the assigned pair `(v, u)`.
    fn similarity(&self, v: EventId, u: UserId) -> f64 {
        let (events, sims) = self.user(u);
        events.iter().position(|&e| e == v).map_or(0.0, |i| sims[i])
    }
}

/// An immutable per-epoch `(instance, CSR)` pair solve batches run
/// over, off the session lock. The instance clone is paid once per
/// epoch that actually solves, not once per request, and shares the
/// attribute vectors with the live instance: it copies the capacities
/// and the conflict graph only.
struct SolvePin {
    version: u64,
    inst: Arc<Instance>,
    flats: Arc<GraphFlats>,
}

/// One solve request's parameters, parsed up front so identical
/// requests in a batch collapse into a single pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SolveSpec {
    algorithm: Algorithm,
    seed: u64,
    timeout_ms: Option<u64>,
    max_nodes: Option<u64>,
    refine: bool,
}

/// A request parked in the batcher: its spec, its admission deadline,
/// and the slot its result lands in.
struct PendingSolve {
    spec: SolveSpec,
    deadline: Instant,
    slot: Arc<SolveSlot>,
}

/// A one-shot result mailbox (filled exactly once per request).
#[derive(Default)]
struct SolveSlot {
    done: Mutex<Option<Result<Value, ServiceError>>>,
    cv: Condvar,
}

impl SolveSlot {
    fn fill(&self, result: Result<Value, ServiceError>) {
        *lock(&self.done) = Some(result);
        self.cv.notify_all();
    }

    fn filled(&self) -> bool {
        lock(&self.done).is_some()
    }

    fn take(&self) -> Result<Value, ServiceError> {
        let mut guard = lock(&self.done);
        loop {
            if let Some(result) = guard.take() {
                return result;
            }
            guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[derive(Default)]
struct BatchGate {
    pending: Vec<PendingSolve>,
    /// A leader is currently executing a batch.
    running: bool,
}

/// Leader/follower solve coalescing. A solve enqueues itself and, if
/// no batch is in flight, becomes the leader: it takes *everything*
/// pending as one batch and executes it. Requests arriving while a
/// batch runs park until the leader finishes, then either find their
/// slot filled (the leader carried them) or contend to lead the next
/// batch themselves. Every batch completion wakes all waiters, so
/// exactly one leader runs at a time and no request waits forever.
#[derive(Default)]
struct SolveBatcher {
    gate: Mutex<BatchGate>,
    cv: Condvar,
}

impl SolveBatcher {
    fn submit(
        &self,
        svc: &Service,
        spec: SolveSpec,
        deadline: Instant,
    ) -> Result<Value, ServiceError> {
        let slot = Arc::new(SolveSlot::default());
        let mut gate = lock(&self.gate);
        gate.pending.push(PendingSolve {
            spec,
            deadline,
            slot: Arc::clone(&slot),
        });
        loop {
            if !gate.running {
                gate.running = true;
                let batch = std::mem::take(&mut gate.pending);
                drop(gate);
                // The leader executes on its own worker thread. A panic
                // in the batch machinery (the pipeline already contains
                // solver panics) must not strand followers or wedge the
                // gate.
                if catch_unwind(AssertUnwindSafe(|| svc.execute_batch(&batch))).is_err() {
                    for p in &batch {
                        if !p.slot.filled() {
                            p.slot.fill(Err(ServiceError::new(
                                "internal",
                                "solve batch panicked; see server logs",
                            )));
                        }
                    }
                }
                let mut gate = lock(&self.gate);
                gate.running = false;
                drop(gate);
                self.cv.notify_all();
                return slot.take();
            }
            // A batch is in flight; it either carried this request
            // (slot filled on wake) or left it pending for the next
            // leader — possibly us.
            gate = self.cv.wait(gate).unwrap_or_else(|e| e.into_inner());
            if slot.filled() {
                return slot.take();
            }
        }
    }
}

/// Cap on tracked dedup clients; the least recently *stored* client is
/// evicted at the cap, bounding the table regardless of client churn.
const DEDUP_MAX_CLIENTS: usize = 1024;

struct DedupEntry {
    seq: u64,
    response: Value,
    tick: u64,
}

/// Per-client last-seq dedup. A client retries with the *same* seq, so
/// one entry per client suffices: `seq == stored` replays the cached
/// response, `seq < stored` is a protocol error (`stale_seq`), and
/// `seq > stored` is fresh work.
#[derive(Default)]
struct DedupTable {
    entries: BTreeMap<String, DedupEntry>,
    tick: u64,
}

enum DedupCheck {
    Fresh,
    Hit(Value),
    Stale(u64),
}

/// The response replayed for a key learned from the WAL rather than a
/// live call (the original response is gone; the point is not to
/// double-apply).
fn deduped_marker() -> Value {
    json!({"deduped": true})
}

impl DedupTable {
    fn check(&mut self, client: &str, seq: u64) -> DedupCheck {
        match self.entries.get(client) {
            Some(e) if seq == e.seq => DedupCheck::Hit(e.response.clone()),
            Some(e) if seq < e.seq => DedupCheck::Stale(e.seq),
            _ => DedupCheck::Fresh,
        }
    }

    fn store(&mut self, client: String, seq: u64, response: Value) {
        self.tick += 1;
        let tick = self.tick;
        if !self.entries.contains_key(&client) && self.entries.len() >= DEDUP_MAX_CLIENTS {
            let oldest = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone());
            if let Some(oldest) = oldest {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(
            client,
            DedupEntry {
                seq,
                response,
                tick,
            },
        );
    }

    fn seed(&mut self, keys: &[(String, u64)]) {
        for (client, seq) in keys {
            self.store(client.clone(), *seq, deduped_marker());
        }
    }
}

/// Why a replica could not apply a shipped record.
#[derive(Debug)]
pub enum ReplicaApplyError {
    /// The record's offset does not match the replica's cursor (a line
    /// was lost); the follower resyncs.
    Desync { expected: u64, got: u64 },
    /// The record failed to parse or re-encode.
    Bad(String),
    /// The local WAL append failed; durability is poisoned.
    Wal(String),
}

/// The live durability state behind a `--wal-dir`. The writer's sink
/// is type-erased so tests can run the whole service over an injected
/// fault sink (disk-full, torn tail) instead of a real file.
struct Durability {
    dir: PathBuf,
    writer: WalWriter<Box<dyn WalSink + Send>>,
    policy: FsyncPolicy,
    /// Auto-snapshot cadence in mutations; `None` disables rotation.
    snapshot_every: Option<u64>,
    /// Epoch at the last rotated (or recovered) snapshot.
    last_snapshot_epoch: Option<u64>,
    /// Set when an append/sync failed: memory and log may disagree, so
    /// state-changing ops are refused until a restart re-syncs them.
    poisoned: Option<String>,
    metrics: Arc<ServerMetrics>,
}

/// Serialize a WAL record once: the same bytes go to the local WAL
/// frame and, verbatim, to every connected replica, which appends them
/// byte-for-byte — replica WALs stay bit-identical to ours.
fn encode(record: &WalRecord) -> Result<String, String> {
    serde_json::to_string(record).map_err(|e| format!("encoding WAL record: {e}"))
}

impl Durability {
    /// Mirror the writer's running totals into the metrics.
    fn mirror(&self) {
        self.metrics.record_wal(
            self.writer.records(),
            self.writer.offset(),
            self.writer.fsyncs(),
        );
    }

    /// The one append path, for live ops and replicas alike: append the
    /// encoded `record`, poison durability if the write fails, mirror
    /// the writer into the metrics, and ship the same bytes to every
    /// connected replica. Returns the poison detail on failure; the
    /// caller must not ack.
    fn append(
        &mut self,
        record: &WalRecord,
        payload: String,
        repl: &ReplState,
    ) -> Result<(), String> {
        if let Some(why) = &self.poisoned {
            return Err(why.clone());
        }
        let start = self
            .writer
            .append_payload(payload.as_bytes())
            .map_err(|e| {
                let detail = e.to_string();
                self.poisoned = Some(detail.clone());
                detail
            })?;
        if matches!(record, WalRecord::Load { .. }) {
            // A fresh session restarts the epoch clock; the auto-snapshot
            // cadence restarts with it.
            self.last_snapshot_epoch = None;
        }
        self.mirror();
        if repl.hub.has_subscribers() {
            let base = repl.remote_base();
            let records_base = repl.remote_records_base();
            let mut head = base + self.writer.offset();
            let mut head_records = records_base + self.writer.records();
            if repl.is_replica() {
                // A chained replica advertises the head its own primary
                // advertised, so its followers see their true lag.
                head = head.max(repl.last_seen_head());
                head_records = head_records.max(repl.last_seen_head_records());
            }
            repl.hub.publish(Shipment::Record {
                offset: base + start,
                head,
                head_records,
                payload: Arc::new(payload),
            });
        }
        Ok(())
    }

    /// Whether the auto-snapshot cadence is due at `epoch`.
    fn snapshot_due(&self, epoch: u64) -> bool {
        match self.snapshot_every {
            Some(every) if every > 0 && self.poisoned.is_none() => {
                epoch.saturating_sub(self.last_snapshot_epoch.unwrap_or(0)) >= every
            }
            _ => false,
        }
    }

    /// The one snapshot rotation: sync the WAL (the snapshot must not
    /// claim bytes that are not yet on disk), atomically replace the
    /// durability snapshot with `session` at the writer's offset, and
    /// book it. A failure is counted and returned.
    fn rotate_snapshot(&mut self, session: &Session) -> std::io::Result<()> {
        let written = self.writer.sync_now().and_then(|()| {
            let doc = session.snapshot_doc(self.writer.offset(), self.writer.records());
            wal::write_snapshot(&recovery::snapshot_path(&self.dir), &doc)
        });
        match written {
            Ok(()) => {
                let epoch = session.arranger.epoch();
                self.last_snapshot_epoch = Some(epoch);
                self.metrics.record_snapshot(epoch);
                self.mirror();
                Ok(())
            }
            Err(e) => {
                self.metrics.record_snapshot_error();
                Err(e)
            }
        }
    }
}

/// The arranger summary `load`, `restore` and `stats` answer with.
fn summary(arranger: &IncrementalArranger, fingerprint: u64) -> Result<Value, ServiceError> {
    Ok(Value::Object(vec![
        field("epoch", &arranger.epoch())?,
        field("num_events", &arranger.instance().num_events())?,
        field("num_users", &arranger.instance().num_users())?,
        field("pairs", &arranger.arrangement().len())?,
        field("max_sum", &arranger.max_sum())?,
        field("drift", &arranger.drift())?,
        field("needs_rebuild", &arranger.needs_rebuild())?,
        field("fingerprint", &fingerprint)?,
    ]))
}

/// The file the `snapshot` op writes, as `restore` reads it: typed, so
/// the attribute rows stay packed instead of becoming one JSON node per
/// float. The `epoch` the file also carries is `log.len()` and is not
/// read back.
#[derive(Deserialize)]
struct SnapshotFile {
    instance: Instance,
    log: Vec<Mutation>,
    arrangement: Arrangement,
    baseline: f64,
}

impl Service {
    pub fn new(
        metrics: Arc<ServerMetrics>,
        stop: Arc<AtomicBool>,
        threads: Threads,
        drift_ratio: f64,
    ) -> Self {
        Service {
            state: Mutex::new(Live::default()),
            durability: Mutex::new(None),
            repl: ReplState::new(),
            sup: SupervisorState::new(),
            metrics,
            stop,
            threads,
            config: DynamicConfig {
                rebuild_drift_ratio: drift_ratio,
            },
            state_version: AtomicU64::new(0),
            summary_cell: Mutex::new(None),
            read_pin: Mutex::new(None),
            solve_pin: Mutex::new(None),
            batcher: SolveBatcher::default(),
        }
    }

    /// The replication state (role, generation, cursor, hub).
    pub fn replication(&self) -> &ReplState {
        &self.repl
    }

    /// The supervision state (lease clocks, topology hints, the fence).
    pub fn supervision(&self) -> &SupervisorState {
        &self.sup
    }

    /// Arm supervision. Called once at bind time, after
    /// [`Self::init_replication`]. A supervised *primary* with peers
    /// starts fenced on probation: after a `kill -9` and restart it may
    /// not ack a single write until one probe round reaches every peer
    /// and finds no senior generation — the window in which a
    /// resurrected stale primary would otherwise split the brain.
    pub fn begin_supervision(&self, config: &SupervisorConfig) {
        self.sup.configure(config);
        if !self.repl.is_replica() && !config.peers.is_empty() {
            self.sup.set_fenced(true);
        }
    }

    /// Republish the scalar summary and bump the state version. Must be
    /// called with the session lock held after every state change —
    /// it is what keeps `health`/`stats` and the epoch pins coherent
    /// without their ever taking the session lock. Returns the summary,
    /// so an op that answers with it hashes the arrangement once.
    fn publish_session(&self, session: &Session) -> Result<Value, ServiceError> {
        let arranger = &session.arranger;
        let fingerprint = arranger.fingerprint();
        let summary = summary(arranger, fingerprint);
        let cell = StateSummary {
            epoch: arranger.epoch(),
            fingerprint,
            summary: summary.clone().unwrap_or(Value::Null),
        };
        self.state_version.fetch_add(1, Ordering::SeqCst);
        *lock(&self.summary_cell) = Some(cell);
        summary
    }

    /// Publish "no session" (replica resync wipes the state).
    fn publish_cleared(&self) {
        self.state_version.fetch_add(1, Ordering::SeqCst);
        *lock(&self.summary_cell) = None;
    }

    /// The monotonic state-version counter, bumped on every published
    /// state change. Deterministic read responses are a pure function
    /// of (request line, version) — the event loops key their inline
    /// response caches on it.
    pub(crate) fn state_version(&self) -> u64 {
        self.state_version.load(Ordering::SeqCst)
    }

    /// Pin the current epoch for a point read. The fast path is a
    /// version check plus an `Arc` clone; only the first read after a
    /// state change takes the session lock, to flatten a fresh view of
    /// the arrangement — `O(|U| + |V| + pairs)`, never the CSR.
    fn pin_read(&self) -> Result<Arc<ReadSnapshot>, ServiceError> {
        let version = self.state_version.load(Ordering::SeqCst);
        {
            let pin = lock(&self.read_pin);
            if let Some(snap) = pin.as_ref() {
                if snap.version == version {
                    self.metrics.record_epoch_pin(false);
                    return Ok(Arc::clone(snap));
                }
            }
        }
        let live = lock(&self.state);
        let session = live.session.as_ref().ok_or_else(no_instance)?;
        // Re-read under the lock: the version cannot advance while we
        // hold it, so the pin is cut from exactly this version's state.
        let version = self.state_version.load(Ordering::SeqCst);
        let snap = Arc::new(ReadSnapshot::cut(
            version,
            session.arranger.instance(),
            session.arranger.arrangement(),
        ));
        *lock(&self.read_pin) = Some(Arc::clone(&snap));
        self.metrics.record_epoch_pin(true);
        Ok(snap)
    }

    /// Pin the current epoch for a solve batch: the epoch's CSR plus an
    /// owned instance clone the pipeline can borrow off the session
    /// lock. `None` when no instance is loaded.
    fn pin_solve(&self) -> Option<Arc<SolvePin>> {
        let version = self.state_version.load(Ordering::SeqCst);
        {
            let pin = lock(&self.solve_pin);
            if let Some(p) = pin.as_ref() {
                if p.version == version {
                    return Some(Arc::clone(p));
                }
            }
        }
        let mut live = lock(&self.state);
        let session = live.session.as_mut()?;
        let version = self.state_version.load(Ordering::SeqCst);
        let flats = session.arranger.epoch_flats(self.threads);
        let pin = Arc::new(SolvePin {
            version,
            inst: Arc::new(session.arranger.instance().clone()),
            flats,
        });
        *lock(&self.solve_pin) = Some(Arc::clone(&pin));
        Some(pin)
    }

    /// Adopt the state recovery reconstructed from a `--wal-dir` and
    /// arm the WAL writer at the offset recovery validated. Called once
    /// at bind time, before any request thread exists.
    pub fn install_recovered<S: WalSink + Send + 'static>(
        &self,
        recovery: Recovery,
        writer: WalWriter<S>,
        dir: PathBuf,
        policy: FsyncPolicy,
        snapshot_every: Option<u64>,
    ) {
        self.metrics.record_recovery(
            recovery.replayed,
            recovery.skipped,
            recovery.truncated_bytes,
        );
        let durability = Durability {
            dir,
            writer: writer.boxed(),
            policy,
            snapshot_every,
            last_snapshot_epoch: recovery.snapshot_epoch,
            poisoned: None,
            metrics: Arc::clone(&self.metrics),
        };
        durability.mirror();
        let mut live = lock(&self.state);
        live.dedup.seed(&recovery.dedup_keys);
        if let Some(session) = recovery.session {
            let _ = self.publish_session(&session);
            live.session = Some(session);
        }
        *lock(&self.durability) = Some(durability);
    }

    /// Force any buffered WAL bytes to disk (the drain barrier). A
    /// no-op without a WAL or with a poisoned one.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        if let Some(d) = lock(&self.durability).as_mut() {
            if d.poisoned.is_none() {
                d.writer.sync_now()?;
                d.mirror();
            }
        }
        Ok(())
    }

    /// Append one record to the WAL (no-op without one). Must be called
    /// with the session lock held so append order matches apply order.
    /// An error poisons durability: the caller must not ack the request.
    fn log_record(&self, record: &WalRecord) -> Result<(), ServiceError> {
        let mut guard = lock(&self.durability);
        let Some(d) = guard.as_mut() else {
            return Ok(());
        };
        let payload = encode(record).map_err(|e| ServiceError::new("internal", e))?;
        d.append(record, payload, &self.repl).map_err(wal_failed)
    }

    /// Rotate an auto-snapshot if the cadence is due. Failures are
    /// counted but never fail the request — the WAL already holds the
    /// acked history, so a missed rotation only costs recovery time.
    fn maybe_auto_snapshot(&self, session: &Session) {
        if let Some(d) = lock(&self.durability).as_mut() {
            if d.snapshot_due(session.arranger.epoch()) {
                let _ = d.rotate_snapshot(session);
            }
        }
    }

    /// Dispatch one request. `deadline` is the request's admission time
    /// plus its timeout; ops check it on entry and `solve` additionally
    /// clamps its budget to the time left.
    pub fn handle(&self, request: &Request, deadline: Instant) -> Result<Value, ServiceError> {
        let now = Instant::now();
        if now >= deadline {
            return Err(ServiceError::new(
                "deadline_exceeded",
                "request timed out in queue before a worker picked it up",
            ));
        }
        let op = Op::from_name(&request.op);
        // A replica serves reads but refuses mutations with a stable
        // code — clients fail over to the primary (or wait for a
        // promote) instead of diverging the follower. The rejection
        // carries the primary's address when known, so a misdirected
        // client self-corrects instead of erroring forever.
        if self.repl.is_replica() && op.is_write() {
            let mut error = ServiceError::new(
                "read_only",
                format!(
                    "this node is a replica; {:?} is only served by the \
                     primary (send \"promote\" to take over)",
                    request.op
                ),
            );
            if let Some(hint) = self.sup.primary_hint() {
                error = error.with_primary_hint(hint);
            }
            return Err(error);
        }
        // A fenced supervised primary refuses writes: the replicas it
        // lost contact with may be electing a successor, and acking a
        // write now is exactly how split-brain happens.
        if op.is_write() && self.sup.enabled() && !self.repl.is_replica() && self.sup.fenced() {
            let mut error = ServiceError::new(
                "lease_lost",
                "this primary is fenced (replica contact lost, or probation \
                 after a restart) and refuses writes until the cluster view \
                 settles; reads still serve",
            )
            .with_retry_after(self.sup.lease_interval().as_millis() as u64);
            if let Some(hint) = self.sup.primary_hint() {
                error = error.with_primary_hint(hint);
            }
            return Err(error);
        }
        match op {
            Op::Load => self.load(&request.body),
            Op::Mutate => self.mutate(&request.body),
            Op::QueryUser => self.query_user(&request.body),
            Op::QueryEvent => self.query_event(&request.body),
            Op::Stats => self.stats(),
            Op::Health => self.health(),
            Op::Promote => self.promote(),
            Op::Solve => self.solve(&request.body, deadline),
            Op::Snapshot => self.snapshot(&request.body),
            Op::Restore => self.restore(&request.body),
            Op::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                Ok(json!({"stopping": true}))
            }
            // `replicate` never gets here: the event loop hands its
            // connection to a stream thread.
            Op::Replicate | Op::Unknown => Err(ServiceError::new(
                "unknown_op",
                format!("unknown op {:?}", request.op),
            )),
        }
    }

    /// `load`: adopt an instance, inline (`"instance": {…}`) or from a
    /// JSON file (`"path": "…"`). Replaces any previous session. The
    /// session lock is held across the WAL append and the swap so a
    /// concurrent mutate cannot interleave between them.
    fn load(&self, body: &Value) -> Result<Value, ServiceError> {
        let instance: Instance = match (
            protocol::get(body, "instance"),
            protocol::get_str(body, "path"),
        ) {
            (Some(value), None) => serde_json::from_value(value.clone())
                .map_err(|e| bad_request(format!("bad instance: {e}")))?,
            // The shared core loader: the same LoadError classification
            // (and the same line/column context) the CLI prints.
            (None, Some(path)) => loader::load_instance(path).map_err(|e| match e {
                LoadError::Io { .. } => ServiceError::new("io", e.to_string()),
                LoadError::Syntax { .. } | LoadError::Invalid { .. } => bad_request(e.to_string()),
            })?,
            _ => {
                return Err(bad_request(
                    "load takes exactly one of \"instance\" (inline) or \"path\" (file)",
                ))
            }
        };
        let mut live = lock(&self.state);
        // The instance moves into the record for the append and back
        // out for the session: load never copies it for the WAL.
        let record = WalRecord::Load { instance };
        self.log_record(&record)?;
        let WalRecord::Load { instance } = record else {
            unreachable!("built as a Load record above")
        };
        let session = Session::new(instance, self.config);
        let summary = self.publish_session(&session);
        live.session = Some(session);
        summary
    }

    /// `mutate`: apply one [`Mutation`] with localized repair. The
    /// mutation is WAL-logged **before** it is applied: an acked mutate
    /// is durable, and a logged mutation that fails to apply fails
    /// identically on replay (the arranger is deterministic), so the
    /// record is harmless.
    fn mutate(&self, body: &Value) -> Result<Value, ServiceError> {
        let mutation: Mutation = match protocol::get(body, "mutation") {
            Some(value) => serde_json::from_value(value.clone())
                .map_err(|e| bad_request(format!("bad mutation: {e}")))?,
            None => return Err(bad_request("mutate needs a \"mutation\" object")),
        };
        // Optional idempotency key: both fields or neither.
        let key = match (
            protocol::get_str(body, "client_id"),
            protocol::get_u64(body, "seq"),
        ) {
            (Some(client), Some(seq)) => Some((client.to_string(), seq)),
            (None, None) => None,
            _ => {
                return Err(bad_request(
                    "idempotent mutate needs both \"client_id\" and \"seq\"",
                ))
            }
        };
        let mut live = lock(&self.state);
        let Live { session, dedup } = &mut *live;
        let session = session.as_mut().ok_or_else(no_instance)?;
        if let Some((client, seq)) = &key {
            match dedup.check(client, *seq) {
                DedupCheck::Hit(response) => {
                    // A retry of an already-applied mutation: replay the
                    // original ack, apply nothing.
                    self.metrics.record_dedup_hit();
                    return Ok(response);
                }
                DedupCheck::Stale(latest) => {
                    return Err(ServiceError::new(
                        "stale_seq",
                        format!(
                            "seq {seq} is behind the newest seq {latest} \
                             seen for client {client:?}"
                        ),
                    ));
                }
                DedupCheck::Fresh => {}
            }
        }
        let record = match &key {
            Some((client, seq)) => WalRecord::KeyedMutation {
                client: client.clone(),
                seq: *seq,
                mutation: mutation.clone(),
            },
            None => WalRecord::Mutation {
                mutation: mutation.clone(),
            },
        };
        self.log_record(&record)?;
        let report = session
            .arranger
            .apply(mutation)
            .map_err(|e| ServiceError::new("mutation_failed", e.to_string()))?;
        self.metrics
            .record_repair(report.evicted, report.reassigned);
        let response = Value::Object(vec![
            field("epoch", &report.epoch)?,
            field("evicted", &report.evicted)?,
            field("reassigned", &report.reassigned)?,
            field("max_sum", &report.max_sum_after)?,
            field("delta", &report.max_sum_delta())?,
            field("drift", &session.arranger.drift())?,
            field("needs_rebuild", &session.arranger.needs_rebuild())?,
        ]);
        // Arm the dedup only for an *applied* mutation: a failed one
        // fails identically on retry (the arranger is deterministic), so
        // re-trying it is harmless and correct.
        if let Some((client, seq)) = key {
            dedup.store(client, seq, response.clone());
        }
        let _ = self.publish_session(session);
        self.maybe_auto_snapshot(session);
        Ok(response)
    }

    /// `query_user`: a user's current assignments with similarities,
    /// answered from the user's slice of the pinned epoch view.
    fn query_user(&self, body: &Value) -> Result<Value, ServiceError> {
        let id = protocol::get_u64(body, "user")
            .ok_or_else(|| bad_request("query_user needs a numeric \"user\""))?;
        let snap = self.pin_read()?;
        if id >= snap.cap_u.len() as u64 {
            return Err(bad_request(format!(
                "user u{id} out of range (instance has {})",
                snap.cap_u.len()
            )));
        }
        let u = UserId(id as u32);
        let (events, sims) = snap.user(u);
        let events = events
            .iter()
            .zip(sims)
            .map(|(v, sim)| {
                Ok(Value::Object(vec![
                    field("event", v)?,
                    field("similarity", sim)?,
                ]))
            })
            .collect::<Result<Vec<Value>, ServiceError>>()?;
        Ok(Value::Object(vec![
            field("user", &u)?,
            field("capacity", &snap.cap_u[id as usize])?,
            ("events".to_string(), Value::Array(events)),
        ]))
    }

    /// `query_event`: an event's current attendees (ascending user id)
    /// with similarities, answered from the event's range of the pinned
    /// epoch view.
    fn query_event(&self, body: &Value) -> Result<Value, ServiceError> {
        let id = protocol::get_u64(body, "event")
            .ok_or_else(|| bad_request("query_event needs a numeric \"event\""))?;
        let snap = self.pin_read()?;
        if id >= snap.cap_v.len() as u64 {
            return Err(bad_request(format!(
                "event v{id} out of range (instance has {})",
                snap.cap_v.len()
            )));
        }
        let v = EventId(id as u32);
        let users = snap.attendees(v);
        let attendees = users
            .iter()
            .map(|&u| {
                Ok(Value::Object(vec![
                    field("user", &u)?,
                    field("similarity", &snap.similarity(v, u))?,
                ]))
            })
            .collect::<Result<Vec<Value>, ServiceError>>()?;
        Ok(Value::Object(vec![
            field("event", &v)?,
            field("capacity", &snap.cap_v[id as usize])?,
            field("count", &(users.len() as u32))?,
            ("attendees".to_string(), Value::Array(attendees)),
        ]))
    }

    /// `stats`: live metrics plus the arranger summary (null before
    /// `load`), per-solver engine timings, and the durability state
    /// (null without `--wal-dir`). Served from the published summary
    /// cell — never the session lock — so it stays flat while mutates
    /// and solves contend.
    fn stats(&self) -> Result<Value, ServiceError> {
        let arranger = match lock(&self.summary_cell).as_ref() {
            Some(cell) => cell.summary.clone(),
            None => Value::Null,
        };
        let engine = EngineStats::snapshot()
            .iter()
            .map(|t| {
                Ok(Value::Object(vec![
                    field("solver", &t.stage)?,
                    field("calls", &t.calls)?,
                    field("total_ms", &(t.total().as_secs_f64() * 1e3))?,
                    field("mean_ms", &(t.mean().as_secs_f64() * 1e3))?,
                    field("improvements", &t.improvements)?,
                    field("last_incumbent", &t.last_incumbent())?,
                ]))
            })
            .collect::<Result<Vec<Value>, ServiceError>>()?;
        let durability = match lock(&self.durability).as_ref() {
            Some(d) => Value::Object(vec![
                field("wal_dir", &d.dir.display().to_string())?,
                field("fsync", &d.policy.to_string())?,
                field("wal_offset", &d.writer.offset())?,
                field("wal_records", &d.writer.records())?,
                field("snapshot_every", &d.snapshot_every)?,
                field("last_snapshot_epoch", &d.last_snapshot_epoch)?,
                field("poisoned", &d.poisoned)?,
            ]),
            None => Value::Null,
        };
        Ok(Value::Object(vec![
            field("server", &self.metrics.snapshot())?,
            ("arranger".to_string(), arranger),
            ("engine".to_string(), Value::Array(engine)),
            ("durability".to_string(), durability),
            ("replication".to_string(), self.replication_stats()?),
        ]))
    }

    /// The `replication` section of `stats` (same lag fields `health`
    /// reports).
    fn replication_stats(&self) -> Result<Value, ServiceError> {
        if self.repl.is_replica() {
            let (lag_records, lag_bytes) = self.repl.replica_lag();
            Ok(Value::Object(vec![
                field("role", &"replica")?,
                field("generation", &self.repl.generation())?,
                field("connected", &self.repl.connected())?,
                field("lag_records", &lag_records)?,
                field("lag_bytes", &lag_bytes)?,
                field("remote_offset", &self.repl.remote_cursor())?,
            ]))
        } else {
            let (replicas, min_acked) = self.repl.hub.lag();
            Ok(Value::Object(vec![
                field("role", &"primary")?,
                field("generation", &self.repl.generation())?,
                field("accepting_replicas", &self.repl.accepts_replicas())?,
                field("replicas", &replicas)?,
                field("min_acked_offset", &min_acked)?,
            ]))
        }
    }

    /// `health`: a one-line liveness/role probe. `status` is `"ok"`,
    /// `"degraded"` (WAL poisoned — reads still serve, state changes
    /// refuse), `"fenced"` (supervised primary refusing writes), or
    /// `"replica"` (read-only follower, with lag). Also the wire the
    /// supervisor's peer probes and the client's topology re-resolution
    /// ride on: `node_id`, `repl_offset` (the election rank),
    /// `fenced`, `advertise`, and `primary_hint` when known.
    fn health(&self) -> Result<Value, ServiceError> {
        // From the published summary cell, never the session lock: a
        // supervisor probe or load balancer must get an answer even
        // while a long mutation stream hammers the arranger.
        let (epoch, fingerprint) = match lock(&self.summary_cell).as_ref() {
            Some(cell) => (Some(cell.epoch), Some(cell.fingerprint)),
            None => (None, None),
        };
        let (wal, wal_offset): (Option<&str>, u64) = match lock(&self.durability).as_ref() {
            Some(d) if d.poisoned.is_some() => (Some("failed"), d.writer.offset()),
            Some(d) => (Some("ok"), d.writer.offset()),
            None => (None, 0),
        };
        let replica = self.repl.is_replica();
        let fenced = !replica && self.sup.enabled() && self.sup.fenced();
        let status = if wal == Some("failed") {
            "degraded"
        } else if fenced {
            "fenced"
        } else if replica {
            "replica"
        } else {
            "ok"
        };
        // The election rank: how much acked history this node holds, in
        // remote (primary-space) coordinates on both roles.
        let repl_offset = if replica {
            self.repl.remote_cursor()
        } else {
            self.repl.remote_base() + wal_offset
        };
        let (connected, lag_records, lag_bytes) = if replica {
            let (records, bytes) = self.repl.replica_lag();
            (Some(self.repl.connected()), Some(records), Some(bytes))
        } else {
            (None, None, None)
        };
        let mut fields = vec![
            field("status", &status)?,
            field("role", &if replica { "replica" } else { "primary" })?,
            field("wal", &wal)?,
            field("generation", &self.repl.generation())?,
            field("connected", &connected)?,
            field("lag_records", &lag_records)?,
            field("lag_bytes", &lag_bytes)?,
            field("epoch", &epoch)?,
            field("fingerprint", &fingerprint)?,
            field("node_id", &self.sup.node_id())?,
            field("repl_offset", &repl_offset)?,
            field("fenced", &fenced)?,
            field("supervised", &self.sup.enabled())?,
        ];
        if let Some(advertise) = self.sup.advertise() {
            fields.push(field("advertise", &advertise)?);
        }
        if let Some(hint) = self.sup.primary_hint() {
            fields.push(field("primary_hint", &hint)?);
        }
        Ok(Value::Object(fields))
    }

    /// `promote`: turn a replica into the primary. Idempotent on a
    /// primary — except that an operator promoting a *fenced* primary
    /// is asserting there is no successor to defer to, so the fence
    /// lifts.
    fn promote(&self) -> Result<Value, ServiceError> {
        if !self.repl.is_replica() {
            if self.sup.enabled() && self.sup.fenced() {
                self.sup.set_fenced(false);
            }
            return Ok(Value::Object(vec![
                field("promoted", &false)?,
                field("role", &"primary")?,
                field("generation", &self.repl.generation())?,
            ]));
        }
        let generation = self.promote_to_primary()?;
        let epoch = lock(&self.state)
            .session
            .as_ref()
            .map(|s| s.arranger.epoch());
        Ok(Value::Object(vec![
            field("promoted", &true)?,
            field("role", &"primary")?,
            field("generation", &generation)?,
            field("epoch", &epoch)?,
        ]))
    }

    /// Take over as primary: bump the fencing generation above anything
    /// seen from the old primary and persist it to `repl.meta`
    /// **before** the role flips writable — a crash between the two
    /// leaves a node that fences the old primary but never acked a
    /// write, never the other way round. Shared by the `promote` op and
    /// the supervisor's auto-promotion; returns the new generation.
    pub(crate) fn promote_to_primary(&self) -> Result<u64, ServiceError> {
        let generation = self.repl.generation().max(self.repl.last_seen_generation()) + 1;
        {
            let guard = lock(&self.durability);
            if let Some(d) = guard.as_ref() {
                let mut meta = self.repl.meta();
                meta.generation = generation;
                repl::store_meta(&d.dir, &meta)
                    .map_err(|e| ServiceError::new("io", format!("persisting repl.meta: {e}")))?;
            }
        }
        self.repl.set_generation(generation);
        self.repl.set_role_replica(false);
        self.repl.set_connected(false);
        if lock(&self.durability).is_some() {
            // The new primary must feed the losing replicas.
            self.repl.set_accepts_replicas(true);
        }
        self.sup.on_promoted();
        Ok(generation)
    }

    /// Step down to replica under a senior primary. `successor` is
    /// `(follow_addr, client_hint)` when known; `None` leaves the
    /// follower idle until the supervisor's election finds the winner.
    /// The generation is left as-is: it is lower than the successor's,
    /// so the next handshake lands on the reset path and resyncs.
    pub(crate) fn demote_to_replica(&self, successor: Option<(String, String)>) {
        if let Some((addr, hint)) = successor {
            self.sup.set_upstream(Some(addr));
            self.sup.set_primary_hint(Some(hint));
        }
        self.repl.set_role_replica(true);
        self.repl.set_connected(false);
        self.sup.set_fenced(false);
        self.sup.note_lease();
    }

    /// `solve`: re-solve the live instance under a budget and adopt the
    /// result. The budget is the requested `timeout_ms`/`max_nodes`
    /// clamped to the request's remaining deadline, so a queued solve
    /// can never overstay its admission contract.
    ///
    /// Concurrent solves coalesce ([`SolveBatcher`]): the batch pins
    /// one epoch's `(instance, CSR)`, runs one pipeline per distinct
    /// parameter group *off* the session lock, then re-takes the lock
    /// only to adopt the best result and append a single WAL `Install`
    /// record for the whole batch. If that append fails every batched
    /// op errors (un-acked) and durability is poisoned, so the
    /// in-memory/log divergence cannot compound — a restart recovers
    /// the pre-solve state.
    fn solve(&self, body: &Value, deadline: Instant) -> Result<Value, ServiceError> {
        let seed = protocol::get_u64(body, "seed").unwrap_or(0);
        let algorithm = Algorithm::parse(
            protocol::get_str(body, "algorithm").unwrap_or("greedy"),
            seed,
        )
        .map_err(|e| bad_request(e.to_string()))?;
        let spec = SolveSpec {
            algorithm,
            seed,
            timeout_ms: protocol::get_u64(body, "timeout_ms"),
            max_nodes: protocol::get_u64(body, "max_nodes"),
            // Mirror of the CLI's `--on-timeout alns`: spend the same
            // budget refining a budget-stopped incumbent with
            // warm-started ALNS.
            refine: protocol::get_str(body, "on_timeout") == Some("alns"),
        };
        self.batcher.submit(self, spec, deadline)
    }

    /// The pipeline a [`SolveSpec`] describes, budget-clamped to
    /// `remaining` (the tightest admission deadline in its group).
    fn pipeline_for(&self, spec: &SolveSpec, remaining: Duration) -> SolverPipeline {
        let mut budget = SolveBudget {
            deadline: Some(match spec.timeout_ms {
                Some(ms) => Duration::from_millis(ms).min(remaining),
                None => remaining,
            }),
            ..SolveBudget::UNLIMITED
        };
        if let Some(nodes) = spec.max_nodes {
            budget.max_nodes = Some(nodes);
        }
        let mut pipeline = SolverPipeline::new(spec.algorithm, budget)
            .with_threads(self.threads)
            .with_seed(spec.seed);
        if spec.refine {
            pipeline = pipeline.with_alns_refine(budget);
        }
        pipeline
    }

    /// Execute one coalesced solve batch (leader thread only; see
    /// [`SolveBatcher`]). Fills every request's slot exactly once.
    fn execute_batch(&self, batch: &[PendingSolve]) {
        let Some(pin) = self.pin_solve() else {
            for p in batch {
                p.slot.fill(Err(no_instance()));
            }
            return;
        };
        self.metrics.record_solve_batch(batch.len() as u64);

        // Group identical parameter sets: one pipeline run each, over
        // the one shared epoch graph.
        let mut groups: Vec<(SolveSpec, Vec<usize>)> = Vec::new();
        for (i, p) in batch.iter().enumerate() {
            match groups.iter_mut().find(|(spec, _)| *spec == p.spec) {
                Some((_, members)) => members.push(i),
                None => groups.push((p.spec, vec![i])),
            }
        }

        let graph = CandidateGraph::from_flats(&pin.inst, Arc::clone(&pin.flats));
        let mut solved: Vec<(SolveSpec, Vec<usize>, Outcome)> = Vec::new();
        for (spec, members) in groups {
            let now = Instant::now();
            // Members whose admission deadline passed while the batch
            // queued are answered individually; the group's budget is
            // the tightest surviving deadline.
            let (live, expired): (Vec<usize>, Vec<usize>) =
                members.iter().partition(|&&i| batch[i].deadline > now);
            for &i in &expired {
                batch[i].slot.fill(Err(ServiceError::new(
                    "deadline_exceeded",
                    "request timed out waiting for a solve batch slot",
                )));
            }
            let Some(tightest) = live.iter().map(|&i| batch[i].deadline).min() else {
                continue;
            };
            let pipeline = self.pipeline_for(&spec, tightest.saturating_duration_since(now));
            let outcome = pipeline.run_on(&graph);
            solved.push((spec, live, outcome));
        }
        if solved.is_empty() {
            return; // every member expired; nothing to adopt
        }

        // Adopt the best arrangement across the batch (ties: first in
        // arrival order), under the session lock, with ONE Install
        // record for the whole batch.
        let best = solved
            .iter()
            .enumerate()
            .max_by(|(ai, a), (bi, b)| {
                a.2.arrangement
                    .max_sum()
                    .total_cmp(&b.2.arrangement.max_sum())
                    .then(bi.cmp(ai)) // prefer the earlier group on ties
            })
            .map(|(i, _)| i)
            .unwrap_or(0);
        let adopted: Result<(u64, f64, usize), ServiceError> = {
            let mut live = lock(&self.state);
            match live.session.as_mut() {
                None => Err(no_instance()),
                Some(session) => {
                    let (best_spec, _, best_outcome) = &solved[best];
                    if session
                        .arranger
                        .adopt(best_outcome.arrangement.clone())
                        .is_err()
                    {
                        // The instance drifted under the batch and the
                        // solved arrangement no longer fits: fall back
                        // to one synchronous rebuild under the lock
                        // (the pre-batching behavior, bounded to once
                        // per batch).
                        let remaining = solved[best]
                            .1
                            .iter()
                            .map(|&i| batch[i].deadline)
                            .min()
                            .map(|d| d.saturating_duration_since(Instant::now()))
                            .unwrap_or(Duration::ZERO);
                        let pipeline = self.pipeline_for(best_spec, remaining);
                        session.arranger.rebuild(&pipeline);
                    }
                    self.log_record(&WalRecord::Install {
                        arrangement: session.arranger.arrangement().clone(),
                        baseline: session.arranger.baseline_max_sum(),
                    })
                    .map(|()| {
                        let _ = self.publish_session(session);
                        (
                            session.arranger.epoch(),
                            session.arranger.max_sum(),
                            session.arranger.arrangement().len(),
                        )
                    })
                }
            }
        };

        let batch_size = batch.len() as u64;
        for (spec, members, outcome) in &solved {
            for &i in members {
                batch[i].slot.fill(match &adopted {
                    Ok((epoch, max_sum, pairs)) => {
                        Self::solve_response(spec, outcome, *epoch, *max_sum, *pairs, batch_size)
                    }
                    Err(e) => Err(e.clone()),
                });
            }
        }
    }

    /// One solve request's response: its own group's outcome, plus the
    /// post-adoption state shared by the batch.
    fn solve_response(
        spec: &SolveSpec,
        outcome: &Outcome,
        epoch: u64,
        max_sum: f64,
        pairs: usize,
        batch_size: u64,
    ) -> Result<Value, ServiceError> {
        Ok(Value::Object(vec![
            field("status", &outcome.status.to_string())?,
            field("exit_code", &outcome.status.exit_code())?,
            field("max_sum", &max_sum)?,
            field("pairs", &pairs)?,
            field("nodes", &outcome.nodes)?,
            field("elapsed_ms", &(outcome.elapsed.as_millis() as u64))?,
            field("seed", &spec.seed)?,
            field(
                "alns_iterations",
                &outcome.alns.as_ref().map(|a| a.iterations),
            )?,
            field(
                "alns_improvements",
                &outcome.alns.as_ref().map(|a| a.improvements),
            )?,
            field("epoch", &epoch)?,
            field("batch_size", &batch_size)?,
        ]))
    }

    /// `snapshot`: persist the session to a file — base instance,
    /// mutation log, the standing arrangement, and its drift baseline.
    /// The write is atomic (temp file + fsync + rename): a crash
    /// mid-snapshot leaves the previous file intact, never a torn one.
    fn snapshot(&self, body: &Value) -> Result<Value, ServiceError> {
        let path = protocol::get_str(body, "path")
            .ok_or_else(|| bad_request("snapshot needs a \"path\""))?;
        let live = lock(&self.state);
        let session = live.session.as_ref().ok_or_else(no_instance)?;
        let doc = Value::Object(vec![
            field("instance", &session.base)?,
            field("log", &session.arranger.log().to_vec())?,
            field("arrangement", session.arranger.arrangement())?,
            field("baseline", &session.arranger.baseline_max_sum())?,
            field("epoch", &session.arranger.epoch())?,
        ]);
        let mut bytes = Vec::with_capacity(64 * 1024);
        serde_json::to_writer(&mut bytes, &doc)
            .map_err(|e| ServiceError::new("io", format!("encoding snapshot: {e}")))?;
        bytes.push(b'\n');
        wal::atomic_write(std::path::Path::new(path), &bytes)
            .map_err(|e| ServiceError::new("io", format!("writing {path}: {e}")))?;
        Ok(Value::Object(vec![
            field("path", &path)?,
            field("epoch", &session.arranger.epoch())?,
            field("mutations", &session.arranger.log().len())?,
        ]))
    }

    /// `restore`: rebuild a session from a snapshot file. The mutation
    /// log is replayed over the base instance (deterministically
    /// reproducing every intermediate state), then the snapshot's own
    /// arrangement is installed on top — it may differ from the replay
    /// when a `solve` ran before the snapshot — after a feasibility
    /// check. With a WAL, the restored state is made durable by forcing
    /// an atomic durability snapshot *before* the swap is acked; if
    /// that fails, the op errors and the running session is unchanged.
    fn restore(&self, body: &Value) -> Result<Value, ServiceError> {
        let path = protocol::get_str(body, "path")
            .ok_or_else(|| bad_request("restore needs a \"path\""))?;
        let text = std::fs::read_to_string(path)
            .map_err(|e| ServiceError::new("io", format!("reading {path}: {e}")))?;
        let SnapshotFile {
            instance: base,
            log,
            arrangement,
            baseline,
        } = serde_json::from_str(&text)
            .map_err(|e| bad_request(format!("bad snapshot in {path}: {e}")))?;
        // Free the file's text before the replay builds a candidate graph.
        drop(text);

        let mut arranger = IncrementalArranger::replay(base.clone(), &log, self.config)
            .map_err(|e| ServiceError::new("mutation_failed", format!("replaying {path}: {e}")))?;
        arranger.install(arrangement, baseline).map_err(|violations| {
            ServiceError::new(
                "infeasible_snapshot",
                format!(
                    "snapshot arrangement is infeasible for its instance ({} violations, first: {:?})",
                    violations.len(),
                    violations.first()
                ),
            )
        })?;
        let session = Session { arranger, base };
        let mut live = lock(&self.state);
        self.persist_restored(&session)?;
        self.repl.hub.publish(Shipment::Resync);
        let summary = self.publish_session(&session);
        live.session = Some(session);
        summary
    }

    /// Make a restored session durable: force a durability snapshot at
    /// the current WAL offset (superseding the logged history), then
    /// raise the replication floor — restore is not WAL-logged, so
    /// replaying the log from below this offset no longer reproduces
    /// the served state, and resume below it is refused. A no-op
    /// without a WAL. Called with the session lock held.
    fn persist_restored(&self, session: &Session) -> Result<(), ServiceError> {
        let mut guard = lock(&self.durability);
        let Some(d) = guard.as_mut() else {
            return Ok(());
        };
        if let Some(why) = &d.poisoned {
            return Err(wal_failed(why));
        }
        d.rotate_snapshot(session)
            .map_err(|e| ServiceError::new("io", format!("persisting restored session: {e}")))?;
        self.repl.set_floor(d.writer.offset());
        let _ = repl::store_meta(&d.dir, &self.repl.meta());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Replication plumbing (see crate::repl for the protocol).
    // -----------------------------------------------------------------

    /// Arm the replication state from the durable `repl.meta` and the
    /// node's startup role. Called once at bind time, after
    /// [`Self::install_recovered`].
    pub fn init_replication(&self, accept_replicas: bool, replica: bool) -> std::io::Result<()> {
        let guard = lock(&self.durability);
        match guard.as_ref() {
            Some(d) => {
                let meta = repl::load_meta(&d.dir)?;
                self.repl.init(
                    &meta,
                    accept_replicas,
                    replica,
                    d.writer.offset(),
                    d.writer.records(),
                );
                Ok(())
            }
            None if accept_replicas || replica => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replication requires a --wal-dir (the WAL is what gets shipped)",
            )),
            None => {
                self.repl
                    .init(&repl::ReplMeta::default(), false, false, 0, 0);
                Ok(())
            }
        }
    }

    /// The WAL directory and current head, for a replica stream. Syncs
    /// the writer first so the file holds every byte up to the head.
    pub(crate) fn repl_stream_info(&self) -> Result<(PathBuf, u64, u64), ServiceError> {
        let mut guard = lock(&self.durability);
        match guard.as_mut() {
            Some(d) => {
                if let Some(why) = &d.poisoned {
                    return Err(wal_failed(why));
                }
                d.writer
                    .sync_now()
                    .map_err(|e| ServiceError::new("io", format!("syncing WAL: {e}")))?;
                Ok((d.dir.clone(), d.writer.offset(), d.writer.records()))
            }
            None => Err(ServiceError::new(
                "replication_unsupported",
                "replication requires a --wal-dir",
            )),
        }
    }

    /// A snapshot of the live session at the current WAL head, for
    /// replica catch-up. `None` when there is nothing to snapshot (no
    /// session) or durability cannot vouch for the head.
    pub(crate) fn repl_snapshot_doc(&self) -> Option<SnapshotDoc> {
        let live = lock(&self.state);
        let session = live.session.as_ref()?;
        let mut dguard = lock(&self.durability);
        let d = dguard.as_mut()?;
        if d.poisoned.is_some() || d.writer.sync_now().is_err() {
            return None;
        }
        Some(session.snapshot_doc(d.writer.offset(), d.writer.records()))
    }

    /// Replica: adopt a `reset` handshake — wipe the local WAL and
    /// snapshot, drop the session and its dedup keys (the snapshot doc
    /// or the record stream from `start` rebuilds both), and re-base
    /// the cursor.
    pub(crate) fn replica_begin_resync(
        &self,
        start: u64,
        start_records: u64,
        generation: u64,
    ) -> std::io::Result<()> {
        let mut live = lock(&self.state);
        let mut dguard = lock(&self.durability);
        let Some(d) = dguard.as_mut() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "replica requires a --wal-dir",
            ));
        };
        d.writer = recovery::reset_wal(&d.dir, d.policy)?.boxed();
        d.last_snapshot_epoch = None;
        d.poisoned = None;
        d.mirror();
        *live = Live::default();
        self.publish_cleared();
        self.repl.begin_resync(generation, start, start_records);
        repl::store_meta(&d.dir, &self.repl.meta())
    }

    /// Replica: install a catch-up snapshot shipped by the primary (in
    /// remote coordinates). Persists a *localized* snapshot (offset 0 of
    /// the just-reset local WAL) so a crash recovers to the same point,
    /// then swaps the session in. Returns the remote cursor to ack.
    pub(crate) fn replica_install_snapshot(&self, doc: SnapshotDoc) -> Result<u64, String> {
        let (offset, records) = (doc.wal_offset, doc.wal_records);
        let session = Session::resume(doc, self.config)
            .map_err(|e| format!("infeasible snapshot from primary: {e:?}"))?;
        let mut live = lock(&self.state);
        match lock(&self.durability).as_mut() {
            Some(d) => d
                .rotate_snapshot(&session)
                .map_err(|e| format!("persisting catch-up snapshot: {e}"))?,
            None => return Err("replica requires a --wal-dir".to_string()),
        }
        self.repl.set_cursor(offset, records);
        let _ = self.publish_session(&session);
        live.session = Some(session);
        Ok(offset)
    }

    /// Replica: append one shipped record byte-for-byte to the local
    /// WAL and apply it through the exact replay path recovery uses —
    /// the follower's state is a recovery of the primary's log, always.
    /// Returns the new remote cursor to ack. A duplicate delivery
    /// (offset below the cursor) is skipped idempotently.
    pub(crate) fn replica_apply(
        &self,
        offset: u64,
        record_value: &Value,
    ) -> Result<u64, ReplicaApplyError> {
        let record: WalRecord = serde_json::from_value(record_value.clone())
            .map_err(|e| ReplicaApplyError::Bad(format!("bad shipped record: {e}")))?;
        let payload = encode(&record).map_err(ReplicaApplyError::Bad)?;
        let frame_bytes = wal::HEADER_LEN + payload.len() as u64;
        let mut live = lock(&self.state);
        let expected = self.repl.remote_cursor();
        if offset < expected {
            return Ok(expected);
        }
        if offset > expected {
            return Err(ReplicaApplyError::Desync {
                expected,
                got: offset,
            });
        }
        match lock(&self.durability).as_mut() {
            Some(d) => d
                .append(&record, payload, &self.repl)
                .map_err(ReplicaApplyError::Wal)?,
            None => {
                return Err(ReplicaApplyError::Wal(
                    "replica requires a --wal-dir".into(),
                ))
            }
        }
        // Re-arm the dedup so a client retry against this node after a
        // failover replays instead of double-applying.
        if let WalRecord::KeyedMutation { client, seq, .. } = &record {
            live.dedup.store(client.clone(), *seq, deduped_marker());
        }
        recovery::apply_record(&mut live.session, &record, self.config);
        match &live.session {
            Some(session) => {
                let _ = self.publish_session(session);
                self.maybe_auto_snapshot(session);
            }
            None => self.publish_cleared(),
        }
        self.repl.advance_cursor(frame_bytes);
        self.metrics.record_repl_applied();
        Ok(self.repl.remote_cursor())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::time::Duration;

    fn service() -> Service {
        Service::new(
            Arc::new(ServerMetrics::default()),
            Arc::new(AtomicBool::new(false)),
            Threads::single(),
            0.2,
        )
    }

    /// A service armed with a WAL in `dir`, as `Server::bind` would
    /// build it.
    fn durable_service(dir: &Path, snapshot_every: Option<u64>) -> Service {
        let svc = service();
        let rec = recovery::recover(dir, DynamicConfig::default()).unwrap();
        let writer = recovery::open_writer(dir, FsyncPolicy::Never, &rec).unwrap();
        svc.install_recovered(
            rec,
            writer,
            dir.to_path_buf(),
            FsyncPolicy::Never,
            snapshot_every,
        );
        svc
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("geacc-service-tests").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn call(svc: &Service, line: &str) -> Result<Value, ServiceError> {
        let req = protocol::parse_request(line).unwrap();
        svc.handle(&req, Instant::now() + Duration::from_secs(5))
    }

    fn toy_line() -> String {
        let inst = geacc_core::toy::table1_instance();
        format!(
            r#"{{"op": "load", "instance": {}}}"#,
            serde_json::to_string(&inst).unwrap()
        )
    }

    #[test]
    fn full_session_load_mutate_query_solve() {
        let svc = service();
        assert_eq!(
            call(&svc, r#"{"op": "stats"}"#).unwrap(),
            call(&svc, r#"{"op": "stats"}"#).unwrap()
        );
        assert_eq!(
            call(
                &svc,
                r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 0}}}"#
            )
            .unwrap_err()
            .code,
            "no_instance"
        );

        let loaded = call(&svc, &toy_line()).unwrap();
        assert_eq!(protocol::get_u64(&loaded, "epoch"), Some(0));
        assert_eq!(protocol::get_u64(&loaded, "num_events"), Some(3));

        let mutated = call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 1, "b": 2}}}"#,
        )
        .unwrap();
        assert_eq!(protocol::get_u64(&mutated, "epoch"), Some(1));

        let user = call(&svc, r#"{"op": "query_user", "user": 0}"#).unwrap();
        assert!(protocol::get(&user, "events").is_some());
        let event = call(&svc, r#"{"op": "query_event", "event": 0}"#).unwrap();
        assert!(protocol::get_u64(&event, "count").is_some());

        let solved = call(&svc, r#"{"op": "solve", "algorithm": "prune"}"#).unwrap();
        assert_eq!(protocol::get_str(&solved, "status"), Some("optimal"));

        let err = call(&svc, r#"{"op": "query_user", "user": 99}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let err = call(&svc, r#"{"op": "warp"}"#).unwrap_err();
        assert_eq!(err.code, "unknown_op");
    }

    #[test]
    fn file_load_errors_carry_the_cli_loaders_context_verbatim() {
        // Regression: the server's `load` op parses through the shared
        // core loader, so a malformed file produces byte-for-byte the
        // message (path + line/column) the CLI would print.
        let svc = service();
        let dir = tmp_dir("load-error-context");

        // Truncated JSON: a syntax error with a position.
        let bad = dir.join("bad.json");
        std::fs::write(&bad, "{\"events\": [").unwrap();
        let path = bad.to_str().unwrap();
        let err = call(&svc, &format!(r#"{{"op": "load", "path": "{path}"}}"#)).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let expected = loader::load_instance(path).unwrap_err().to_string();
        assert_eq!(err.message, expected);
        assert!(err.message.contains(path), "{}", err.message);
        assert!(err.message.contains("invalid JSON"), "{}", err.message);
        assert!(err.message.contains("line 1 column"), "{}", err.message);

        // Well-formed JSON describing an impossible value.
        let inst = geacc_core::toy::table1_instance();
        let json = serde_json::to_string(&inst).unwrap();
        let mutated = json.replacen("\"user_caps\":[", "\"user_caps\":[-3,", 1);
        assert_ne!(json, mutated, "template lost its user_caps probe");
        let invalid = dir.join("invalid.json");
        std::fs::write(&invalid, &mutated).unwrap();
        let path = invalid.to_str().unwrap();
        let err = call(&svc, &format!(r#"{{"op": "load", "path": "{path}"}}"#)).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(
            err.message,
            loader::load_instance(path).unwrap_err().to_string()
        );
        assert!(err.message.contains("invalid value"), "{}", err.message);

        // Missing file: an io error naming the path.
        let missing = dir.join("missing.json");
        let path = missing.to_str().unwrap();
        let err = call(&svc, &format!(r#"{{"op": "load", "path": "{path}"}}"#)).unwrap_err();
        assert_eq!(err.code, "io");
        assert_eq!(
            err.message,
            loader::load_instance(path).unwrap_err().to_string()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solve_parses_algorithms_through_the_registry() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        // `Algorithm::parse` accepts both the wire and the CLI spellings.
        for algo in ["exactdp", "exact-dp", "random_v", "random-v", "exhaustive"] {
            let solved = call(
                &svc,
                &format!(r#"{{"op": "solve", "algorithm": "{algo}", "timeout_ms": 2000}}"#),
            )
            .unwrap();
            assert!(protocol::get_str(&solved, "status").is_some(), "{algo}");
        }
        let err = call(&svc, r#"{"op": "solve", "algorithm": "annealing"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        assert_eq!(
            err.message,
            "unknown algorithm \"annealing\" (greedy, mincostflow, prune, exhaustive, \
             exact-dp, random-v, random-u, alns)"
        );
    }

    #[test]
    fn solve_with_alns_echoes_the_seed_and_run_counters() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        let solved = call(
            &svc,
            r#"{"op": "solve", "algorithm": "alns", "seed": 7, "timeout_ms": 5000}"#,
        )
        .unwrap();
        assert_eq!(protocol::get_u64(&solved, "seed"), Some(7));
        assert!(protocol::get_u64(&solved, "alns_iterations").unwrap() > 0);
        // Greedy solves echo the (default) seed too, with null ALNS
        // counters.
        let solved = call(&svc, r#"{"op": "solve", "algorithm": "greedy"}"#).unwrap();
        assert_eq!(protocol::get_u64(&solved, "seed"), Some(0));
        assert!(matches!(
            protocol::get(&solved, "alns_iterations"),
            Some(Value::Null)
        ));
    }

    #[test]
    fn stats_expose_per_solver_engine_timings() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        call(&svc, r#"{"op": "solve", "algorithm": "greedy"}"#).unwrap();
        let stats = call(&svc, r#"{"op": "stats"}"#).unwrap();
        let engine = match protocol::get(&stats, "engine") {
            Some(Value::Array(rows)) => rows,
            other => panic!("stats must carry an engine array, got {other:?}"),
        };
        assert_eq!(engine.len(), 8, "one row per registered solver");
        let greedy = engine
            .iter()
            .find(|row| protocol::get_str(row, "solver") == Some("greedy"))
            .expect("greedy row");
        // Counters are process-wide, so only monotonicity is safe to
        // assert — the solve above guarantees at least one call.
        assert!(protocol::get_u64(greedy, "calls").unwrap() >= 1);
    }

    #[test]
    fn snapshot_restore_roundtrip_preserves_state() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 2, "capacity": 0}}}"#,
        )
        .unwrap();
        let before = call(&svc, r#"{"op": "stats"}"#).unwrap();

        let dir = tmp_dir("snapshot-roundtrip");
        let path = dir.join("snap.json");
        let path = path.to_str().unwrap();
        call(&svc, &format!(r#"{{"op": "snapshot", "path": "{path}"}}"#)).unwrap();
        // Atomic write: the staging file must be gone.
        assert!(!wal::tmp_path(Path::new(path)).exists());

        // Restore into a fresh service and compare the arranger summary.
        let svc2 = service();
        let restored = call(&svc2, &format!(r#"{{"op": "restore", "path": "{path}"}}"#)).unwrap();
        assert_eq!(
            protocol::get(&before, "arranger").map(|a| protocol::get_u64(a, "epoch")),
            Some(protocol::get_u64(&restored, "epoch"))
        );
        let a = call(&svc, r#"{"op": "query_user", "user": 0}"#).unwrap();
        let b = call(&svc2, r#"{"op": "query_user", "user": 0}"#).unwrap();
        assert_eq!(a, b);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn growth_after_load_leaves_the_loaded_instance_as_it_was() {
        // The session's base and its live instance (and a solve pin)
        // share their attribute stores after a load; growing the live
        // instance must copy them, never write through to the base.
        let mut b = geacc_core::Instance::builder(2, geacc_core::SimilarityModel::Cosine);
        b.event(&[1.0, 0.5], 2);
        b.event(&[0.25, 1.0], 2);
        for u in 0..6 {
            b.user(&[1.0, u as f64 * 0.3], 1);
        }
        let loaded = serde_json::to_string(&b.build().unwrap()).unwrap();
        let svc = service();
        call(&svc, &format!(r#"{{"op": "load", "instance": {loaded}}}"#)).unwrap();
        call(&svc, r#"{"op": "solve", "algorithm": "greedy"}"#).unwrap();
        for mutation in [
            r#"{"AddUser": {"attrs": [0.5, 0.5], "capacity": 2}}"#,
            r#"{"AddEvent": {"attrs": [0.9, 0.1], "capacity": 3, "conflicts": [0]}}"#,
            r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 0}}"#,
        ] {
            call(
                &svc,
                &format!(r#"{{"op": "mutate", "mutation": {mutation}}}"#),
            )
            .unwrap();
        }
        let dir = tmp_dir("growth-after-load");
        let path = dir.join("snap.json");
        let path = path.to_str().unwrap();
        call(&svc, &format!(r#"{{"op": "snapshot", "path": "{path}"}}"#)).unwrap();
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let base = protocol::get(&doc, "instance").unwrap();
        assert_eq!(serde_json::to_string(base).unwrap(), loaded);

        let svc2 = service();
        call(&svc2, &format!(r#"{{"op": "restore", "path": "{path}"}}"#)).unwrap();
        let fingerprint = |svc: &Service| {
            let health = call(svc, r#"{"op": "health"}"#).unwrap();
            protocol::get_u64(&health, "fingerprint").unwrap()
        };
        assert_eq!(fingerprint(&svc2), fingerprint(&svc));
        let user = r#"{"op": "query_user", "user": 6}"#;
        assert_eq!(call(&svc2, user).unwrap(), call(&svc, user).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_of_truncated_snapshot_is_a_structured_error() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        let dir = tmp_dir("restore-truncated");
        let path = dir.join("snap.json");
        call(
            &svc,
            &format!(r#"{{"op": "snapshot", "path": "{}"}}"#, path.display()),
        )
        .unwrap();
        let full = std::fs::read(&path).unwrap();
        let before = call(&svc, r#"{"op": "stats"}"#).unwrap();

        // Every truncation point must fail structurally, never panic,
        // and leave the running session untouched.
        for cut in [0, 1, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = call(
                &svc,
                &format!(r#"{{"op": "restore", "path": "{}"}}"#, path.display()),
            )
            .unwrap_err();
            assert_eq!(err.code, "bad_request", "cut at {cut}: {}", err.message);
            assert!(
                err.message.contains("snap.json"),
                "error must name the file: {}",
                err.message
            );
        }
        assert_eq!(call(&svc, r#"{"op": "stats"}"#).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_of_bitflipped_snapshot_never_panics() {
        let svc = service();
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        let dir = tmp_dir("restore-bitflip");
        let path = dir.join("snap.json");
        call(
            &svc,
            &format!(r#"{{"op": "snapshot", "path": "{}"}}"#, path.display()),
        )
        .unwrap();
        let full = std::fs::read(&path).unwrap();
        let before = call(&svc, r#"{"op": "stats"}"#).unwrap();

        // Flip one bit at a spread of positions; each either still
        // restores (the flip hit insignificant whitespace/digits) or
        // fails with a structured error — session state only changes on
        // success, and a panic fails the test harness outright.
        let step = (full.len() / 23).max(1);
        for at in (0..full.len()).step_by(step) {
            let mut bad = full.clone();
            bad[at] ^= 0x10;
            std::fs::write(&path, &bad).unwrap();
            let fresh = service();
            match call(
                &fresh,
                &format!(r#"{{"op": "restore", "path": "{}"}}"#, path.display()),
            ) {
                Ok(_) => {}
                Err(e) => assert!(
                    matches!(
                        e.code,
                        "bad_request" | "mutation_failed" | "infeasible_snapshot"
                    ),
                    "unexpected error code {} at byte {at}: {}",
                    e.code,
                    e.message
                ),
            }
        }
        // The original service never restored a corrupt file.
        assert_eq!(call(&svc, r#"{"op": "stats"}"#).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn durable_session_survives_a_new_service() {
        let dir = tmp_dir("durable-roundtrip");
        let svc = durable_service(&dir, None);
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 2}}}"#,
        )
        .unwrap();
        let user_before = call(&svc, r#"{"op": "query_user", "user": 0}"#).unwrap();
        let stats = call(&svc, r#"{"op": "stats"}"#).unwrap();
        let server = protocol::get(&stats, "server").unwrap();
        assert_eq!(protocol::get_u64(server, "wal_records"), Some(3));
        let durability = protocol::get(&stats, "durability").unwrap();
        assert_eq!(protocol::get_u64(durability, "wal_records"), Some(3));
        drop(svc); // simulate the process dying (WAL file is already written)

        let svc2 = durable_service(&dir, None);
        let stats = call(&svc2, r#"{"op": "stats"}"#).unwrap();
        let server = protocol::get(&stats, "server").unwrap();
        assert_eq!(protocol::get_u64(server, "recovered_records"), Some(3));
        let user_after = call(&svc2, r#"{"op": "query_user", "user": 0}"#).unwrap();
        assert_eq!(user_before, user_after);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_snapshot_rotates_at_the_cadence() {
        let dir = tmp_dir("auto-snapshot");
        let svc = durable_service(&dir, Some(2));
        call(&svc, &toy_line()).unwrap();
        let snap = recovery::snapshot_path(&dir);
        assert!(!snap.exists());
        for (a, b) in [(0u32, 1u32), (0, 2)] {
            call(
                &svc,
                &format!(
                    r#"{{"op": "mutate", "mutation": {{"AddConflict": {{"a": {a}, "b": {b}}}}}}}"#
                ),
            )
            .unwrap();
        }
        assert!(snap.exists(), "snapshot must rotate at epoch 2");
        let doc = wal::read_snapshot(&snap).unwrap();
        assert_eq!(doc.epoch, 2);
        let stats = call(&svc, r#"{"op": "stats"}"#).unwrap();
        let server = protocol::get(&stats, "server").unwrap();
        assert_eq!(protocol::get_u64(server, "snapshots_written"), Some(1));
        assert_eq!(protocol::get_u64(server, "last_snapshot_epoch"), Some(2));

        // Recovery takes the fast path and matches the live state.
        let live_user = call(&svc, r#"{"op": "query_user", "user": 1}"#).unwrap();
        drop(svc);
        let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
        assert!(rec.snapshot_used);
        let svc2 = durable_service(&dir, Some(2));
        assert_eq!(
            call(&svc2, r#"{"op": "query_user", "user": 1}"#).unwrap(),
            live_user
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_under_wal_forces_a_durability_snapshot() {
        let dir = tmp_dir("restore-durable");
        let svc = durable_service(&dir, None);
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        let manual = dir.join("manual.json");
        call(
            &svc,
            &format!(r#"{{"op": "snapshot", "path": "{}"}}"#, manual.display()),
        )
        .unwrap();
        // Diverge, then restore the earlier state.
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"CloseEvent": {"event": 2}}}"#,
        )
        .unwrap();
        call(
            &svc,
            &format!(r#"{{"op": "restore", "path": "{}"}}"#, manual.display()),
        )
        .unwrap();
        let user_before = call(&svc, r#"{"op": "query_user", "user": 0}"#).unwrap();
        drop(svc);

        // A restart recovers the *restored* state, not the diverged log.
        let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
        assert!(rec.snapshot_used, "restore must have cut a snapshot");
        let svc2 = durable_service(&dir, None);
        assert_eq!(
            call(&svc2, r#"{"op": "query_user", "user": 0}"#).unwrap(),
            user_before
        );
        let stats = call(&svc2, r#"{"op": "stats"}"#).unwrap();
        let arranger = protocol::get(&stats, "arranger").unwrap();
        assert_eq!(protocol::get_u64(arranger, "epoch"), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a handler that panics while holding the session and
    /// durability locks must not wedge the service — every
    /// lock is taken through `crate::lock`, which recovers the poison, so
    /// later requests recover the poison and serve, the observable
    /// state is exactly what was acked before the panic, and the live
    /// arranger still matches a recovery replay of the WAL (no
    /// half-applied divergence).
    #[test]
    fn panic_poisoned_locks_keep_serving_without_half_applied_state() {
        let dir = tmp_dir("poisoned-locks");
        let svc = durable_service(&dir, None);
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "client_id": "c", "seq": 0, "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        let before = call(&svc, r#"{"op": "health"}"#).unwrap();

        // Die mid-mutation in the worst posture: both service locks
        // held. catch_unwind plays the worker's panic guard.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _session = svc.state.lock().unwrap();
            let _durability = svc.durability.lock().unwrap();
            panic!("simulated handler death mid-mutation");
        }));
        assert!(panicked.is_err());

        // Reads recover the poisoned locks and see the acked state.
        assert_eq!(call(&svc, r#"{"op": "health"}"#).unwrap(), before);
        // The dedup table still answers for the pre-panic key…
        let replay = call(
            &svc,
            r#"{"op": "mutate", "client_id": "c", "seq": 0, "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        assert_eq!(protocol::get_u64(&replay, "epoch"), Some(1));
        // …and fresh mutations apply and are WAL-logged as usual.
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 1}}}"#,
        )
        .unwrap();
        let live = call(&svc, r#"{"op": "health"}"#).unwrap();

        // The live arranger is byte-for-byte what booting recovery on
        // the same WAL reconstructs: nothing half-applied leaked.
        let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
        let session = rec.session.expect("load record recovered");
        assert_eq!(
            protocol::get_u64(&live, "fingerprint"),
            Some(session.arranger.fingerprint())
        );
        assert_eq!(
            protocol::get_u64(&live, "epoch"),
            Some(session.arranger.epoch())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A sink handle shared with the test: the service writes through
    /// it while the test watches what actually reached the "disk".
    #[derive(Clone)]
    struct SharedSink(Arc<Mutex<crate::wal::FaultSink>>);

    impl WalSink for SharedSink {
        fn write_frame(&mut self, frame: &[u8]) -> std::io::Result<()> {
            self.0.lock().unwrap().write_frame(frame)
        }

        fn sync(&mut self) -> std::io::Result<()> {
            self.0.lock().unwrap().sync()
        }
    }

    /// Satellite: disk-full degradation. A WAL append that hits
    /// `ENOSPC` mid-frame poisons durability with a structured
    /// `wal_failed` naming the OS error; reads keep serving the acked
    /// state; and once space returns, recovery classifies the
    /// short-written frame as an ordinary torn tail — truncate and
    /// resume — not as corruption that refuses to boot.
    #[test]
    fn disk_full_poisons_then_recovers_as_torn_tail() {
        // Dry run on a bottomless disk to learn the exact byte budget
        // that admits the load and the first mutation in full.
        let measured = {
            let svc = service();
            let dir = tmp_dir("disk-full-dry");
            let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
            let sink = Arc::new(Mutex::new(crate::wal::FaultSink::disk_full(usize::MAX)));
            let writer = WalWriter::with_sink(SharedSink(Arc::clone(&sink)), FsyncPolicy::Never);
            svc.install_recovered(rec, writer, dir.clone(), FsyncPolicy::Never, None);
            call(&svc, &toy_line()).unwrap();
            call(
                &svc,
                r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
            )
            .unwrap();
            let len = sink.lock().unwrap().bytes().len();
            std::fs::remove_dir_all(&dir).ok();
            len
        };

        // The real run: the disk fills 10 bytes into the second
        // mutation's frame — an ENOSPC short write.
        let dir = tmp_dir("disk-full");
        let svc = service();
        let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
        let sink = Arc::new(Mutex::new(crate::wal::FaultSink::disk_full(measured + 10)));
        let writer = WalWriter::with_sink(SharedSink(Arc::clone(&sink)), FsyncPolicy::Never);
        svc.install_recovered(rec, writer, dir.clone(), FsyncPolicy::Never, None);
        call(&svc, &toy_line()).unwrap();
        call(
            &svc,
            r#"{"op": "mutate", "mutation": {"AddConflict": {"a": 0, "b": 1}}}"#,
        )
        .unwrap();
        let acked = call(&svc, r#"{"op": "health"}"#).unwrap();

        let failed = call(
            &svc,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 1}}}"#,
        )
        .unwrap_err();
        assert_eq!(failed.code, "wal_failed");
        assert!(
            failed.message.contains("os error 28"),
            "expected ENOSPC in the error, got: {}",
            failed.message
        );

        // Poisoned for state changes, healthy for reads — at exactly
        // the acked state.
        let h = call(&svc, r#"{"op": "health"}"#).unwrap();
        assert_eq!(protocol::get_str(&h, "status"), Some("degraded"));
        assert_eq!(
            protocol::get_u64(&h, "fingerprint"),
            protocol::get_u64(&acked, "fingerprint")
        );
        assert!(call(&svc, r#"{"op": "query_user", "user": 0}"#).is_ok());
        let again = call(
            &svc,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 1}}}"#,
        )
        .unwrap_err();
        assert_eq!(again.code, "wal_failed");

        // "Space returns": persist what the full disk actually held —
        // including the short-written tail — and boot on it.
        std::fs::write(recovery::wal_path(&dir), sink.lock().unwrap().bytes()).unwrap();
        let rec = recovery::recover(&dir, DynamicConfig::default()).unwrap();
        assert!(
            rec.truncated_bytes > 0,
            "short write should surface as a torn tail"
        );
        assert_eq!(rec.replayed, 2, "load + first mutation replay");

        let revived = durable_service(&dir, None);
        let h = call(&revived, r#"{"op": "health"}"#).unwrap();
        assert_eq!(protocol::get_str(&h, "status"), Some("ok"));
        assert_eq!(
            protocol::get_u64(&h, "fingerprint"),
            protocol::get_u64(&acked, "fingerprint")
        );
        // Writes resume.
        call(
            &revived,
            r#"{"op": "mutate", "mutation": {"SetCapacity": {"side": "User", "id": 0, "capacity": 1}}}"#,
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn expired_deadline_is_rejected_before_work() {
        let svc = service();
        let req = protocol::parse_request(r#"{"op": "stats"}"#).unwrap();
        let err = svc
            .handle(&req, Instant::now() - Duration::from_millis(1))
            .unwrap_err();
        assert_eq!(err.code, "deadline_exceeded");
    }

    #[test]
    fn shutdown_raises_the_stop_flag() {
        let svc = service();
        assert!(!svc.stop.load(Ordering::SeqCst));
        call(&svc, r#"{"op": "shutdown"}"#).unwrap();
        assert!(svc.stop.load(Ordering::SeqCst));
    }
}
