//! Live service metrics: lock-free counters and a log₂ latency
//! histogram, updated by worker threads on every request and read out as
//! a [`MetricsSnapshot`] by the `stats` op and the shutdown dump.
//!
//! Everything is `AtomicU64` with relaxed ordering: metrics are
//! monotone tallies, never used for synchronization, so torn cross-
//! counter reads (a snapshot taken mid-request) are acceptable and the
//! hot path costs one uncontended atomic add per counter.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// The wire operations the service understands, plus a bucket for
/// everything else (counted, then rejected with `unknown_op`). This is
/// the one op table: each op's wire name and the classes the event loop
/// and the service dispatch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Load,
    Mutate,
    QueryUser,
    QueryEvent,
    Stats,
    Solve,
    Snapshot,
    Restore,
    Health,
    Promote,
    Shutdown,
    /// A replica's stream handshake: the event loop hands the connection
    /// to a stream thread, so it never reaches `Service::handle`.
    Replicate,
    Unknown,
}

/// All ops, in wire-name order; `Op as usize` indexes per-op counters.
pub const OPS: [Op; 13] = [
    Op::Load,
    Op::Mutate,
    Op::QueryUser,
    Op::QueryEvent,
    Op::Stats,
    Op::Solve,
    Op::Snapshot,
    Op::Restore,
    Op::Health,
    Op::Promote,
    Op::Shutdown,
    Op::Replicate,
    Op::Unknown,
];

impl Op {
    /// Parse a wire op name; anything unrecognized is [`Op::Unknown`].
    pub fn from_name(name: &str) -> Op {
        OPS.into_iter()
            .find(|op| op.name() == name)
            .unwrap_or(Op::Unknown)
    }

    /// The wire name (snapshot map key).
    pub fn name(self) -> &'static str {
        match self {
            Op::Load => "load",
            Op::Mutate => "mutate",
            Op::QueryUser => "query_user",
            Op::QueryEvent => "query_event",
            Op::Stats => "stats",
            Op::Solve => "solve",
            Op::Snapshot => "snapshot",
            Op::Restore => "restore",
            Op::Health => "health",
            Op::Promote => "promote",
            Op::Shutdown => "shutdown",
            Op::Replicate => "replicate",
            Op::Unknown => "unknown",
        }
    }

    /// Answered inline on the event loop over epoch-pinned state, never
    /// queued behind solves; also the read latency class.
    pub fn is_inline_read(self) -> bool {
        matches!(
            self,
            Op::QueryUser | Op::QueryEvent | Op::Stats | Op::Health
        )
    }

    /// The response is a pure function of (request line, state version),
    /// so the event loop may replay its bytes until the state moves.
    /// `stats`/`health` mix in live counters, so only queries qualify.
    pub fn is_cacheable(self) -> bool {
        matches!(self, Op::QueryUser | Op::QueryEvent)
    }

    /// Changes the served state: refused on a replica and on a fenced
    /// primary.
    pub fn is_write(self) -> bool {
        matches!(self, Op::Load | Op::Mutate | Op::Solve | Op::Restore)
    }
}

/// Number of log₂ latency buckets: bucket 0 is sub-microsecond, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)` µs, and the last bucket absorbs
/// everything from ~9 minutes up.
const BUCKETS: usize = 30;

/// A log₂-bucketed latency histogram over microseconds.
///
/// Quantiles come back as the upper bound of the bucket holding the
/// target rank — at most 2× the true value, which is plenty for "is p99
/// milliseconds or seconds" service questions and keeps recording to
/// one atomic increment.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl LatencyHistogram {
    fn bucket(us: u64) -> usize {
        if us == 0 {
            0
        } else {
            ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// Upper bound (µs) of `bucket`, the value quantiles report.
    fn upper_bound_us(bucket: usize) -> u64 {
        1u64 << bucket
    }

    /// Record one request's latency.
    pub fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket(us)].fetch_add(1, Relaxed);
    }

    /// Total recorded requests.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Relaxed)).sum()
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as a bucket upper bound in µs;
    /// 0 when nothing has been recorded.
    pub fn quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::upper_bound_us(i);
            }
        }
        Self::upper_bound_us(BUCKETS - 1)
    }
}

/// The service's live counters. One instance per server, shared by every
/// reader and worker thread.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: [AtomicU64; OPS.len()],
    /// Requests answered with a structured error (any code).
    errors: AtomicU64,
    /// Requests refused at admission because the queue was full.
    rejected: AtomicU64,
    /// Connections accepted over the server's lifetime.
    connections: AtomicU64,
    /// Mutations applied successfully.
    mutations_applied: AtomicU64,
    /// Total pairs evicted across all repairs.
    repair_evicted: AtomicU64,
    /// Total pairs reassigned across all repairs.
    repair_reassigned: AtomicU64,
    /// Largest single repair (evicted + reassigned).
    repair_max: AtomicU64,
    /// Durability gauges, mirrored from the WAL writer after every
    /// append/snapshot (zero when the server runs without `--wal-dir`).
    wal_records: AtomicU64,
    wal_bytes: AtomicU64,
    fsyncs: AtomicU64,
    /// Auto-snapshots rotated (manual `snapshot` ops excluded).
    snapshots_written: AtomicU64,
    /// Failed auto-snapshot attempts (the WAL stays authoritative).
    snapshot_errors: AtomicU64,
    /// Arranger epoch at the last rotated snapshot, +1 (0 = none yet).
    last_snapshot_epoch_plus_one: AtomicU64,
    /// WAL records replayed by startup recovery.
    recovered_records: AtomicU64,
    /// Replayed records skipped because they failed identically at
    /// runtime (plus any torn-tail truncation, counted in bytes below).
    recovered_skipped: AtomicU64,
    /// Torn-tail bytes truncated at boot.
    recovered_truncated_bytes: AtomicU64,
    /// Mutations answered from the idempotency-dedup table (a client
    /// retry of an already-applied `(client_id, seq)`).
    dedup_hits: AtomicU64,
    /// WAL records shipped to replicas (primary side; one per record per
    /// subscribed replica).
    repl_records_shipped: AtomicU64,
    /// Snapshot documents shipped to catching-up replicas.
    repl_snapshots_shipped: AtomicU64,
    /// Records received from the primary and applied (replica side).
    repl_records_applied: AtomicU64,
    /// Full resyncs this replica performed (snapshot transfer or
    /// stream-from-zero after its local log diverged).
    repl_resyncs: AtomicU64,
    /// Successful (re)connects to the primary.
    repl_connects: AtomicU64,
    /// Handshakes refused because the peer's generation was stale.
    repl_fenced: AtomicU64,
    /// Supervisor: elections this node ran (replica side).
    sup_elections: AtomicU64,
    /// Supervisor: elections this node won (automatic promotions).
    sup_promotions: AtomicU64,
    /// Supervisor: times this node stepped down under a senior primary.
    sup_demotions: AtomicU64,
    /// Supervisor: times this primary fenced itself against writes.
    sup_fenced: AtomicU64,
    /// Solve batches dispatched by the coalescer (each batch is one
    /// pipeline run per distinct parameter group).
    solve_batches: AtomicU64,
    /// Individual solve requests those batches carried.
    solve_batch_requests: AtomicU64,
    /// Largest batch coalesced so far.
    solve_batch_max: AtomicU64,
    /// Batch-size histogram: buckets 1, 2, ≤4, ≤8, ≤16, >16.
    solve_batch_sizes: [AtomicU64; 6],
    /// Epoch read snapshots built (one per state version a read saw).
    epoch_snapshots_built: AtomicU64,
    /// Reads served from an already-pinned epoch snapshot (no session
    /// lock touched).
    epoch_pinned_reads: AtomicU64,
    latency: LatencyHistogram,
    /// Per-class latency splits: reads must stay flat while solves run.
    read_latency: LatencyHistogram,
    mutate_latency: LatencyHistogram,
    solve_latency: LatencyHistogram,
}

/// Snapshot keys for the batch-size buckets, in bucket order.
const BATCH_BUCKET_KEYS: [&str; 6] = ["le_01", "le_02", "le_04", "le_08", "le_16", "gt_16"];

fn batch_bucket(size: u64) -> usize {
    match size {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        _ => 5,
    }
}

impl ServerMetrics {
    pub fn record_request(&self, op: Op, latency: Duration) {
        self.requests[op as usize].fetch_add(1, Relaxed);
        self.latency.record(latency);
        match op {
            Op::Mutate => self.mutate_latency.record(latency),
            Op::Solve => self.solve_latency.record(latency),
            op if op.is_inline_read() => self.read_latency.record(latency),
            _ => {}
        }
    }

    /// One coalesced solve batch of `size` requests was dispatched.
    pub fn record_solve_batch(&self, size: u64) {
        self.solve_batches.fetch_add(1, Relaxed);
        self.solve_batch_requests.fetch_add(size, Relaxed);
        self.solve_batch_max.fetch_max(size, Relaxed);
        self.solve_batch_sizes[batch_bucket(size)].fetch_add(1, Relaxed);
    }

    /// A read pinned an epoch snapshot; `built` when this read had to
    /// construct it (state changed since the last pin).
    pub fn record_epoch_pin(&self, built: bool) {
        if built {
            self.epoch_snapshots_built.fetch_add(1, Relaxed);
        } else {
            self.epoch_pinned_reads.fetch_add(1, Relaxed);
        }
    }

    pub fn record_error(&self) {
        self.errors.fetch_add(1, Relaxed);
    }

    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Relaxed);
    }

    pub fn record_connection(&self) {
        self.connections.fetch_add(1, Relaxed);
    }

    pub fn record_repair(&self, evicted: usize, reassigned: usize) {
        self.mutations_applied.fetch_add(1, Relaxed);
        self.repair_evicted.fetch_add(evicted as u64, Relaxed);
        self.repair_reassigned.fetch_add(reassigned as u64, Relaxed);
        self.repair_max
            .fetch_max((evicted + reassigned) as u64, Relaxed);
    }

    /// Mirror the WAL writer's running totals (they advance under the
    /// service's durability lock; the store here is just publication).
    pub fn record_wal(&self, records: u64, bytes: u64, fsyncs: u64) {
        self.wal_records.store(records, Relaxed);
        self.wal_bytes.store(bytes, Relaxed);
        self.fsyncs.store(fsyncs, Relaxed);
    }

    pub fn record_snapshot(&self, epoch: u64) {
        self.snapshots_written.fetch_add(1, Relaxed);
        self.last_snapshot_epoch_plus_one.store(epoch + 1, Relaxed);
    }

    pub fn record_snapshot_error(&self) {
        self.snapshot_errors.fetch_add(1, Relaxed);
    }

    pub fn record_dedup_hit(&self) {
        self.dedup_hits.fetch_add(1, Relaxed);
    }

    pub fn record_repl_shipped(&self, records: u64) {
        self.repl_records_shipped.fetch_add(records, Relaxed);
    }

    pub fn record_repl_snapshot_shipped(&self) {
        self.repl_snapshots_shipped.fetch_add(1, Relaxed);
    }

    pub fn record_repl_applied(&self) {
        self.repl_records_applied.fetch_add(1, Relaxed);
    }

    pub fn record_repl_resync(&self) {
        self.repl_resyncs.fetch_add(1, Relaxed);
    }

    pub fn record_repl_connect(&self) {
        self.repl_connects.fetch_add(1, Relaxed);
    }

    pub fn record_repl_fenced(&self) {
        self.repl_fenced.fetch_add(1, Relaxed);
    }

    pub fn record_sup_election(&self) {
        self.sup_elections.fetch_add(1, Relaxed);
    }

    pub fn record_sup_promotion(&self) {
        self.sup_promotions.fetch_add(1, Relaxed);
    }

    pub fn record_sup_demotion(&self) {
        self.sup_demotions.fetch_add(1, Relaxed);
    }

    pub fn record_sup_fence(&self) {
        self.sup_fenced.fetch_add(1, Relaxed);
    }

    /// Set once at boot from the recovery report.
    pub fn record_recovery(&self, replayed: u64, skipped: u64, truncated_bytes: u64) {
        self.recovered_records.store(replayed, Relaxed);
        self.recovered_skipped.store(skipped, Relaxed);
        self.recovered_truncated_bytes
            .store(truncated_bytes, Relaxed);
    }

    /// A coherent-enough point-in-time copy (see the module docs for the
    /// consistency caveat).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut requests = BTreeMap::new();
        for op in OPS {
            let n = self.requests[op as usize].load(Relaxed);
            if n > 0 {
                requests.insert(op.name().to_string(), n);
            }
        }
        MetricsSnapshot {
            requests,
            errors: self.errors.load(Relaxed),
            rejected: self.rejected.load(Relaxed),
            connections: self.connections.load(Relaxed),
            mutations_applied: self.mutations_applied.load(Relaxed),
            repair_evicted: self.repair_evicted.load(Relaxed),
            repair_reassigned: self.repair_reassigned.load(Relaxed),
            repair_max: self.repair_max.load(Relaxed),
            wal_records: self.wal_records.load(Relaxed),
            wal_bytes: self.wal_bytes.load(Relaxed),
            fsyncs: self.fsyncs.load(Relaxed),
            snapshots_written: self.snapshots_written.load(Relaxed),
            snapshot_errors: self.snapshot_errors.load(Relaxed),
            last_snapshot_epoch: match self.last_snapshot_epoch_plus_one.load(Relaxed) {
                0 => None,
                epoch_plus_one => Some(epoch_plus_one - 1),
            },
            recovered_records: self.recovered_records.load(Relaxed),
            recovered_skipped: self.recovered_skipped.load(Relaxed),
            recovered_truncated_bytes: self.recovered_truncated_bytes.load(Relaxed),
            dedup_hits: self.dedup_hits.load(Relaxed),
            repl_records_shipped: self.repl_records_shipped.load(Relaxed),
            repl_snapshots_shipped: self.repl_snapshots_shipped.load(Relaxed),
            repl_records_applied: self.repl_records_applied.load(Relaxed),
            repl_resyncs: self.repl_resyncs.load(Relaxed),
            repl_connects: self.repl_connects.load(Relaxed),
            repl_fenced: self.repl_fenced.load(Relaxed),
            sup_elections: self.sup_elections.load(Relaxed),
            sup_promotions: self.sup_promotions.load(Relaxed),
            sup_demotions: self.sup_demotions.load(Relaxed),
            sup_fenced: self.sup_fenced.load(Relaxed),
            solve_batches: self.solve_batches.load(Relaxed),
            solve_batch_requests: self.solve_batch_requests.load(Relaxed),
            solve_batch_max: self.solve_batch_max.load(Relaxed),
            solve_batch_sizes: BATCH_BUCKET_KEYS
                .iter()
                .zip(&self.solve_batch_sizes)
                .filter_map(|(key, count)| {
                    let n = count.load(Relaxed);
                    (n > 0).then(|| (key.to_string(), n))
                })
                .collect(),
            epoch_snapshots_built: self.epoch_snapshots_built.load(Relaxed),
            epoch_pinned_reads: self.epoch_pinned_reads.load(Relaxed),
            latency_count: self.latency.count(),
            latency_p50_us: self.latency.quantile_us(0.50),
            latency_p95_us: self.latency.quantile_us(0.95),
            latency_p99_us: self.latency.quantile_us(0.99),
            read_latency_count: self.read_latency.count(),
            read_latency_p50_us: self.read_latency.quantile_us(0.50),
            read_latency_p95_us: self.read_latency.quantile_us(0.95),
            read_latency_p99_us: self.read_latency.quantile_us(0.99),
            mutate_latency_count: self.mutate_latency.count(),
            mutate_latency_p50_us: self.mutate_latency.quantile_us(0.50),
            mutate_latency_p99_us: self.mutate_latency.quantile_us(0.99),
            solve_latency_count: self.solve_latency.count(),
            solve_latency_p50_us: self.solve_latency.quantile_us(0.50),
            solve_latency_p99_us: self.solve_latency.quantile_us(0.99),
        }
    }
}

/// Serializable point-in-time metrics, returned by the `stats` op and
/// dumped when the server drains. Latency quantiles are log₂-bucket
/// upper bounds in microseconds.
///
/// Reading one back needs every field: the workspace's serde derive
/// implements no field attributes, and a build that asks for one fails
/// rather than silently ignoring it:
///
/// ```compile_fail
/// #[derive(serde::Deserialize)]
/// struct Stats {
///     #[serde(default)]
///     solve_batches: u64,
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Requests handled, by op (ops never seen are omitted).
    pub requests: BTreeMap<String, u64>,
    pub errors: u64,
    pub rejected: u64,
    pub connections: u64,
    pub mutations_applied: u64,
    pub repair_evicted: u64,
    pub repair_reassigned: u64,
    pub repair_max: u64,
    /// WAL records appended over the log's lifetime (0 without a WAL).
    pub wal_records: u64,
    /// WAL bytes appended (the log's valid length).
    pub wal_bytes: u64,
    /// Explicit fsyncs issued by this process's writer.
    pub fsyncs: u64,
    /// Auto-snapshots rotated this run.
    pub snapshots_written: u64,
    /// Auto-snapshot attempts that failed (WAL stays authoritative).
    pub snapshot_errors: u64,
    /// Arranger epoch of the last rotated snapshot.
    pub last_snapshot_epoch: Option<u64>,
    /// WAL records replayed at boot.
    pub recovered_records: u64,
    /// Replayed records skipped (failed identically at runtime).
    pub recovered_skipped: u64,
    /// Torn-tail bytes truncated at boot.
    pub recovered_truncated_bytes: u64,
    /// Mutations answered from the idempotency-dedup table.
    pub dedup_hits: u64,
    /// WAL records shipped to replicas (primary side).
    pub repl_records_shipped: u64,
    /// Snapshot documents shipped to catching-up replicas.
    pub repl_snapshots_shipped: u64,
    /// Records received from the primary and applied (replica side).
    pub repl_records_applied: u64,
    /// Full resyncs performed by this replica.
    pub repl_resyncs: u64,
    /// Successful (re)connects to the primary.
    pub repl_connects: u64,
    /// Handshakes refused for a stale generation.
    pub repl_fenced: u64,
    /// Failover elections this node ran (replica side).
    pub sup_elections: u64,
    /// Elections won: automatic promotions to primary.
    pub sup_promotions: u64,
    /// Times this node stepped down under a senior primary.
    pub sup_demotions: u64,
    /// Times this primary fenced itself against writes.
    pub sup_fenced: u64,
    /// Solve batches dispatched by the coalescer.
    pub solve_batches: u64,
    /// Individual solve requests carried by those batches.
    pub solve_batch_requests: u64,
    /// Largest coalesced batch.
    pub solve_batch_max: u64,
    /// Batch-size histogram (`le_01` … `gt_16`; empty buckets omitted).
    pub solve_batch_sizes: BTreeMap<String, u64>,
    /// Epoch read snapshots built (one per state version read).
    pub epoch_snapshots_built: u64,
    /// Reads served from an already-pinned epoch snapshot.
    pub epoch_pinned_reads: u64,
    pub latency_count: u64,
    pub latency_p50_us: u64,
    pub latency_p95_us: u64,
    pub latency_p99_us: u64,
    /// Read-class (`query_*`/`stats`/`health`) latency split.
    pub read_latency_count: u64,
    pub read_latency_p50_us: u64,
    pub read_latency_p95_us: u64,
    pub read_latency_p99_us: u64,
    /// Mutate-class latency split.
    pub mutate_latency_count: u64,
    pub mutate_latency_p50_us: u64,
    pub mutate_latency_p99_us: u64,
    /// Solve-class latency split.
    pub solve_latency_count: u64,
    pub solve_latency_p50_us: u64,
    pub solve_latency_p99_us: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2_microseconds() {
        let h = LatencyHistogram::default();
        for us in [0u64, 1, 3, 1000, 1_000_000] {
            h.record(Duration::from_micros(us));
        }
        assert_eq!(h.count(), 5);
        // Median of {0, 1, 3, 1000, 1e6} lands in the bucket of 3 µs
        // → upper bound 4 µs.
        assert_eq!(h.quantile_us(0.5), 4);
        // The max lands in the bucket of 1e6 µs: [2^19, 2^20) µs.
        assert_eq!(h.quantile_us(1.0), 1 << 20);
        assert_eq!(LatencyHistogram::default().quantile_us(0.99), 0);
    }

    #[test]
    fn quantiles_are_within_2x_of_exact() {
        let h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(Duration::from_micros(us));
        }
        let p50 = h.quantile_us(0.50);
        assert!((500..=1024).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_us(0.99);
        assert!((990..=2048).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn snapshot_roundtrips_and_omits_unused_ops() {
        let m = ServerMetrics::default();
        m.record_request(Op::Mutate, Duration::from_micros(300));
        m.record_request(Op::Stats, Duration::from_micros(20));
        m.record_repair(3, 2);
        m.record_repair(1, 0);
        m.record_error();
        m.record_connection();
        let snap = m.snapshot();
        assert_eq!(snap.requests.get("mutate"), Some(&1));
        assert_eq!(snap.requests.get("load"), None);
        assert_eq!(snap.mutations_applied, 2);
        assert_eq!(snap.repair_max, 5);
        assert_eq!(snap.latency_count, 2);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn durability_counters_roundtrip() {
        let m = ServerMetrics::default();
        let snap = m.snapshot();
        assert_eq!(snap.wal_records, 0);
        assert_eq!(snap.last_snapshot_epoch, None);

        m.record_wal(12, 4096, 7);
        m.record_wal(13, 4160, 8); // gauges: later stores win
        m.record_snapshot(0); // epoch 0 is a real snapshot, not "none"
        m.record_snapshot(9);
        m.record_snapshot_error();
        m.record_recovery(5, 1, 17);
        let snap = m.snapshot();
        assert_eq!(snap.wal_records, 13);
        assert_eq!(snap.wal_bytes, 4160);
        assert_eq!(snap.fsyncs, 8);
        assert_eq!(snap.snapshots_written, 2);
        assert_eq!(snap.snapshot_errors, 1);
        assert_eq!(snap.last_snapshot_epoch, Some(9));
        assert_eq!(snap.recovered_records, 5);
        assert_eq!(snap.recovered_skipped, 1);
        assert_eq!(snap.recovered_truncated_bytes, 17);

        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn replication_counters_roundtrip() {
        let m = ServerMetrics::default();
        m.record_dedup_hit();
        m.record_repl_shipped(4);
        m.record_repl_snapshot_shipped();
        m.record_repl_applied();
        m.record_repl_applied();
        m.record_repl_resync();
        m.record_repl_connect();
        m.record_repl_fenced();
        let snap = m.snapshot();
        assert_eq!(snap.dedup_hits, 1);
        assert_eq!(snap.repl_records_shipped, 4);
        assert_eq!(snap.repl_snapshots_shipped, 1);
        assert_eq!(snap.repl_records_applied, 2);
        assert_eq!(snap.repl_resyncs, 1);
        assert_eq!(snap.repl_connects, 1);
        assert_eq!(snap.repl_fenced, 1);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn batch_and_class_counters_roundtrip() {
        let m = ServerMetrics::default();
        m.record_solve_batch(1);
        m.record_solve_batch(3);
        m.record_solve_batch(3);
        m.record_epoch_pin(true);
        m.record_epoch_pin(false);
        m.record_request(Op::QueryUser, Duration::from_micros(5));
        m.record_request(Op::Mutate, Duration::from_micros(40));
        m.record_request(Op::Solve, Duration::from_micros(900));
        let snap = m.snapshot();
        assert_eq!(snap.solve_batches, 3);
        assert_eq!(snap.solve_batch_requests, 7);
        assert_eq!(snap.solve_batch_max, 3);
        assert_eq!(snap.solve_batch_sizes.get("le_01"), Some(&1));
        assert_eq!(snap.solve_batch_sizes.get("le_04"), Some(&2));
        assert_eq!(snap.solve_batch_sizes.get("gt_16"), None);
        assert_eq!(snap.epoch_snapshots_built, 1);
        assert_eq!(snap.epoch_pinned_reads, 1);
        assert_eq!(snap.read_latency_count, 1);
        assert_eq!(snap.mutate_latency_count, 1);
        assert_eq!(snap.solve_latency_count, 1);
        assert_eq!(snap.latency_count, 3);
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn op_names_roundtrip() {
        for op in OPS {
            if op != Op::Unknown {
                assert_eq!(Op::from_name(op.name()), op);
            }
        }
        assert_eq!(Op::from_name("frobnicate"), Op::Unknown);
    }
}
