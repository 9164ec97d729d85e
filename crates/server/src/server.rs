//! The TCP daemon: a poll-based event loop front end feeding a bounded
//! worker pool.
//!
//! ## Threading model
//!
//! ```text
//! event loops (io_threads, poll(2) over nonblocking sockets)
//!   loop 0 also owns the listener; accepts hand off round-robin
//!     │ parse frame
//!     ├─ read ops (query_*, stats, health) ── answered INLINE on the
//!     │      loop thread over epoch-pinned state; never queued
//!     ├─ replicate ── connection hijacked to a dedicated stream thread
//!     └─ heavy ops (load, mutate, solve, …) → Job ──try_send──▶
//!                       bounded sync_channel(queue_depth)
//!                              │ recv
//!                              ▼
//!                       worker pool (N threads) ──▶ Service::handle
//!                              │
//!                              ▼ response line → the connection's outbox
//! ```
//!
//! Read-class ops execute on the event-loop thread itself: they touch
//! only the published summary cell or an epoch-pinned snapshot (see
//! `service`), so a 2-second solve occupying every worker cannot add a
//! microsecond to `health`, `stats`, or `query_*` latency — reads never
//! queue behind solves.
//!
//! ## The outbox
//!
//! Sockets are nonblocking, so a response writer can't just block until
//! the kernel takes the bytes. Each connection owns a `ConnOut`: a
//! worker (or the loop) writes directly while the outbox is empty and
//! stashes the remainder on `WouldBlock`; the event loop polls
//! `POLLOUT` for connections with stashed bytes and drains them as the
//! socket opens up. All writes serialize through the outbox lock, so
//! responses never interleave mid-line.
//!
//! ## Backpressure and admission control
//!
//! The queue is a `sync_channel` of fixed depth. The event loop
//! **never blocks** on it: a full queue fails `try_send` immediately
//! and the loop answers `{"error": {"code": "overloaded"}}` itself, so
//! an overloaded server keeps its memory bounded and its rejections
//! structured instead of stalling accepts or buffering without limit.
//! Each admitted request carries a deadline (`default_timeout_ms`, or
//! the request's own `timeout_ms`); a worker that dequeues an
//! already-expired job answers `deadline_exceeded` without doing the
//! work. Inline read ops are not admission-controlled — they cost less
//! than the rejection would.
//!
//! ## Shutdown
//!
//! The `shutdown` op raises a shared stop flag. Event loops observe it
//! within one poll tick, drop their connections and queue senders;
//! workers drain the queue until every sender is gone, answering every
//! admitted request (responses ride each job's own outbox handle, which
//! keeps the socket open until the response is written). `run` then
//! joins everything and returns the final [`MetricsSnapshot`], which
//! the CLI prints — no request is abandoned mid-flight.

use crate::lock;
use crate::metrics::{MetricsSnapshot, Op, ServerMetrics};
use crate::poll::{self, PollFd, POLLIN, POLLOUT};
use crate::protocol::{self, ServiceError};
use crate::recovery;
use crate::repl;
use crate::service::Service;
use crate::wal::FsyncPolicy;
use geacc_core::parallel::Threads;
use geacc_core::DynamicConfig;
use serde_json::Value;
use std::io::{BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, CI smoke).
    pub addr: String,
    /// Worker threads executing heavy requests (everything the event
    /// loop does not answer inline).
    pub workers: usize,
    /// Event-loop threads multiplexing connections; loop 0 also owns
    /// the listener.
    pub io_threads: usize,
    /// Bounded queue depth between the event loops and workers; the
    /// admission limit.
    pub queue_depth: usize,
    /// Deadline for requests that do not set their own `timeout_ms`.
    pub default_timeout_ms: u64,
    /// Thread budget for budgeted `solve` pipelines.
    pub solve_threads: Threads,
    /// `rebuild_drift_ratio` for the managed arranger.
    pub drift_ratio: f64,
    /// Durability directory (WAL + rotated snapshot); `None` serves
    /// purely in memory.
    pub wal_dir: Option<PathBuf>,
    /// When appended WAL records reach stable storage.
    pub fsync: FsyncPolicy,
    /// Auto-snapshot cadence in mutations; `None` never rotates (the
    /// WAL alone carries recovery).
    pub snapshot_every: Option<u64>,
    /// Serve `replicate` handshakes (stream the WAL to followers).
    /// Requires `wal_dir`.
    pub accept_replicas: bool,
    /// Follow this `host:port` as a read-only replica. Requires
    /// `wal_dir`.
    pub replica_of: Option<String>,
    /// The `retry_after_ms` hint attached to `overloaded` rejections.
    pub retry_after_ms: u64,
    /// Run the failover supervisor (lease monitoring, automatic
    /// promotion/demotion). Requires `wal_dir`; on a primary it
    /// implies `accept_replicas` must be set.
    pub supervise: bool,
    /// Heartbeat cadence for the lease protocol.
    pub lease_interval_ms: u64,
    /// Missed intervals before the primary fences itself; replicas
    /// wait two more before electing.
    pub missed_leases: u32,
    /// Election tiebreak identity; defaults to a hash of the advertise
    /// address. Must be unique across the cluster.
    pub node_id: Option<u64>,
    /// Client-facing address handed out as `primary_hint`; defaults to
    /// the bound listener address.
    pub advertise: Option<String>,
    /// Client-facing addresses of the other cluster members, probed
    /// during elections and fence checks.
    pub peers: Vec<String>,
}

/// Enough loops to keep reads flat under load without burning cores on
/// idle pollers.
fn default_io_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(4)
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7411".to_string(),
            workers: 4,
            io_threads: default_io_threads(),
            queue_depth: 64,
            default_timeout_ms: 5000,
            solve_threads: Threads::from_env(),
            drift_ratio: 0.2,
            wal_dir: None,
            fsync: FsyncPolicy::Always,
            snapshot_every: None,
            accept_replicas: false,
            replica_of: None,
            retry_after_ms: 25,
            supervise: false,
            lease_interval_ms: 500,
            missed_leases: 3,
            node_id: None,
            advertise: None,
            peers: Vec::new(),
        }
    }
}

/// One admitted request travelling from an event loop to a worker.
struct Job {
    op: Op,
    request: protocol::Request,
    /// Admission time; latency is measured from here, and the deadline
    /// is anchored to it so queue time counts against the budget.
    received: Instant,
    deadline: Instant,
    writer: Arc<ConnOut>,
}

/// A bound listener ready to serve. Created with [`Server::bind`], run
/// to completion with [`Server::run`].
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    /// One human-readable line describing what startup recovery found
    /// (`None` without a `--wal-dir`); the CLI prints it at boot.
    recovery_summary: Option<String>,
    /// One line describing the replication role (`None` when
    /// replication is off); the CLI prints it at boot.
    replication_summary: Option<String>,
}

/// The poll timeout: how fast a loop notices the stop flag, injected
/// connections, and worker-stashed outbox bytes with no socket event.
const POLL_TICK_MS: i32 = 5;
/// Backoff when `poll(2)` itself errors (resource exhaustion).
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Socket read timeout for hijacked replication streams (they leave
/// the event loop and block on their own thread).
const READ_TIMEOUT: Duration = Duration::from_millis(200);

impl Server {
    /// Bind the listener and assemble the service. With a `wal_dir`,
    /// this is where crash recovery happens: the WAL (and snapshot) are
    /// replayed into the service and the writer is armed at the
    /// validated offset — a corrupt log refuses the bind with a
    /// structured error naming the bad byte offset. No thread starts
    /// until [`Server::run`].
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let stop = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(ServerMetrics::default());
        let service = Arc::new(Service::new(
            Arc::clone(&metrics),
            Arc::clone(&stop),
            config.solve_threads,
            config.drift_ratio,
        ));
        let mut recovery_summary = None;
        if let Some(dir) = &config.wal_dir {
            let rec = recovery::recover(
                dir,
                DynamicConfig {
                    rebuild_drift_ratio: config.drift_ratio,
                },
            )
            .map_err(recovery::RecoveryError::into_io)?;
            let writer = recovery::open_writer(dir, config.fsync, &rec)?;
            recovery_summary = Some(format!(
                "recovered {} WAL record(s) ({} replayed, {} skipped, {} torn byte(s) truncated){} from {}",
                rec.wal_records,
                rec.replayed,
                rec.skipped,
                rec.truncated_bytes,
                match rec.snapshot_epoch {
                    Some(epoch) => format!(" via snapshot at epoch {epoch}"),
                    None => String::new(),
                },
                dir.display(),
            ));
            service.install_recovered(
                rec,
                writer,
                dir.clone(),
                config.fsync,
                config.snapshot_every,
            );
        }
        service.init_replication(config.accept_replicas, config.replica_of.is_some())?;
        // Topology is tracked even unsupervised: a plain replica knows
        // its upstream and hands it out as `primary_hint` so a client
        // misconfigured to point at the replica self-corrects.
        if let Some(primary) = &config.replica_of {
            service.supervision().set_upstream(Some(primary.clone()));
        }
        if config.supervise {
            if config.wal_dir.is_none() {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "supervision requires a --wal-dir (failover ships the WAL)",
                ));
            }
            if config.replica_of.is_none() && !config.accept_replicas {
                return Err(std::io::Error::new(
                    ErrorKind::InvalidInput,
                    "a supervised primary must accept replicas (--accept-replicas); \
                     a lease with no followers protects nothing",
                ));
            }
            let advertise = match &config.advertise {
                Some(addr) => addr.clone(),
                None => listener.local_addr()?.to_string(),
            };
            let node_id = config
                .node_id
                .unwrap_or_else(|| fnv1a(advertise.as_bytes()));
            service.begin_supervision(&crate::supervisor::SupervisorConfig {
                lease_interval: Duration::from_millis(config.lease_interval_ms.max(1)),
                missed_leases: config.missed_leases,
                node_id,
                advertise,
                peers: config.peers.clone(),
            });
        }
        let supervised_note = if config.supervise {
            ", supervised (auto-failover)"
        } else {
            ""
        };
        let replication_summary = if let Some(primary) = &config.replica_of {
            Some(format!(
                "replicating from {primary} (generation {}){supervised_note}",
                service.replication().generation()
            ))
        } else if config.accept_replicas {
            Some(format!(
                "accepting replicas (generation {}){supervised_note}",
                service.replication().generation()
            ))
        } else {
            None
        };
        Ok(Server {
            listener,
            config,
            service,
            stop,
            recovery_summary,
            replication_summary,
        })
    }

    /// What startup recovery found, for the boot log line (`None`
    /// without a `wal_dir`).
    pub fn recovery_summary(&self) -> Option<&str> {
        self.recovery_summary.as_deref()
    }

    /// The replication role line for the boot log (`None` when
    /// replication is off).
    pub fn replication_summary(&self) -> Option<&str> {
        self.replication_summary.as_deref()
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle to the stop flag, for embedding callers (tests, the
    /// load generator) that stop the server without a `shutdown` op.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Serve until the stop flag rises, drain every in-flight request,
    /// join all threads, and return the final metrics.
    pub fn run(self) -> std::io::Result<MetricsSnapshot> {
        let Server {
            listener,
            config,
            service,
            stop,
            ..
        } = self;
        let workers = config.workers.max(1);
        let (tx, rx) = std::sync::mpsc::sync_channel::<Job>(config.queue_depth.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&rx);
            let service = Arc::clone(&service);
            worker_handles.push(std::thread::spawn(move || worker_loop(&rx, &service)));
        }

        // The follower thread: connects out to the primary, applies the
        // shipped stream, reconnects with backoff until promoted. A
        // supervised node keeps this thread alive even when it boots as
        // a primary: if it is ever demoted it starts following whatever
        // upstream the supervisor points it at.
        let replica_handle = if config.replica_of.is_some() || service.supervision().enabled() {
            let primary = config.replica_of.clone();
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            Some(std::thread::spawn(move || {
                repl::run_replica_loop(service, primary, stop, 0x9e37_79b9_7f4a_7c15);
            }))
        } else {
            None
        };

        // The lease monitor: renews/watches heartbeats and drives the
        // promotion / fencing / demotion state machine.
        let supervisor_handle = if service.supervision().enabled() {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            Some(std::thread::spawn(move || {
                crate::supervisor::run_supervisor(service, stop);
            }))
        } else {
            None
        };

        listener.set_nonblocking(true)?;
        let io_threads = config.io_threads.max(1);
        let injectors: Arc<Vec<Mutex<Vec<TcpStream>>>> =
            Arc::new((0..io_threads).map(|_| Mutex::new(Vec::new())).collect());
        let mut loop_handles = Vec::with_capacity(io_threads);
        for idx in 0..io_threads {
            let listener = if idx == 0 {
                Some(listener.try_clone()?)
            } else {
                None
            };
            let injectors = Arc::clone(&injectors);
            let ctx = LoopCtx {
                service: Arc::clone(&service),
                stop: Arc::clone(&stop),
                tx: tx.clone(),
                default_timeout: Duration::from_millis(config.default_timeout_ms),
                retry_after_ms: config.retry_after_ms,
            };
            loop_handles.push(std::thread::spawn(move || {
                event_loop(idx, listener, &injectors, &ctx);
            }));
        }
        drop(tx);
        drop(listener);

        // Event loops exit within a poll tick of the stop flag and drop
        // their queue senders; once the last sender is gone, workers see
        // the channel close and drain out.
        for handle in loop_handles {
            let _ = handle.join();
        }
        for handle in worker_handles {
            let _ = handle.join();
        }
        if let Some(handle) = replica_handle {
            let _ = handle.join();
        }
        if let Some(handle) = supervisor_handle {
            let _ = handle.join();
        }
        // Final durability barrier: under `interval`/`never` fsync, any
        // buffered WAL bytes reach disk before the process exits. Best
        // effort — a sync failure must not eat the metrics dump.
        let _ = service.sync_wal();
        Ok(service.metrics.snapshot())
    }
}

/// FNV-1a over the advertise address: a stable, dependency-free default
/// node id. Operators who want explicit ranking pass `--node-id`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Per-loop immutable context.
struct LoopCtx {
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    tx: SyncSender<Job>,
    default_timeout: Duration,
    retry_after_ms: u64,
}

/// The write half of a connection, shared by the owning event loop and
/// any worker holding a job for it. Writers go straight to the
/// (nonblocking) socket while the outbox is empty and stash the
/// remainder on `WouldBlock`; the loop drains stashed bytes on
/// `POLLOUT`. Everything serializes through the outbox lock, so
/// response lines never interleave. Write errors drop the bytes — a
/// dead peer's loss.
struct ConnOut {
    stream: TcpStream,
    queued: Mutex<Vec<u8>>,
}

impl ConnOut {
    /// Queue-or-write one response. Ordering: bytes already queued keep
    /// their place ahead of this write.
    fn send(&self, bytes: &[u8]) {
        let mut queued = lock(&self.queued);
        if !queued.is_empty() {
            queued.extend_from_slice(bytes);
            return;
        }
        let mut offset = 0;
        while offset < bytes.len() {
            match (&self.stream).write(&bytes[offset..]) {
                Ok(0) => return,
                Ok(n) => offset += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    queued.extend_from_slice(&bytes[offset..]);
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
        }
    }

    /// Drain stashed bytes into the socket; `true` when some remain
    /// (keep polling `POLLOUT`).
    fn flush_pending(&self) -> bool {
        let mut queued = lock(&self.queued);
        while !queued.is_empty() {
            match (&self.stream).write(&queued) {
                Ok(0) => {
                    queued.clear();
                    return false;
                }
                Ok(n) => {
                    queued.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    queued.clear();
                    return false;
                }
            }
        }
        false
    }

    fn has_pending(&self) -> bool {
        !lock(&self.queued).is_empty()
    }
}

/// One multiplexed connection, owned by exactly one event loop.
struct Conn {
    stream: TcpStream,
    out: Arc<ConnOut>,
    /// Bytes read but not yet framed into a full line.
    inbuf: Vec<u8>,
}

impl Conn {
    fn adopt(stream: TcpStream) -> Option<Conn> {
        // Responses are single short writes; leaving Nagle on costs a
        // delayed-ACK round trip (~40 ms) per line.
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        let out = Arc::new(ConnOut {
            stream: stream.try_clone().ok()?,
            queued: Mutex::new(Vec::new()),
        });
        Some(Conn {
            stream,
            out,
            inbuf: Vec::new(),
        })
    }
}

/// What the loop does with a connection after servicing it.
enum ConnFate {
    Keep,
    Close,
    /// A `replicate` handshake: the connection leaves the event loop
    /// and becomes a blocking replication stream on its own thread.
    Hijack(protocol::Request),
}

/// A per-event-loop cache of inline read responses, keyed on the raw
/// request line and guarded by the service's state version. Epoch
/// serving makes this sound: `query_user`/`query_event` responses are a
/// pure function of (request line, state version) — identical bytes in,
/// identical bytes out, until a mutation bumps the version and the
/// whole cache drops. Single-threaded (one per loop), so no locks on
/// the hit path: a hash lookup and a memcpy replace parse → pin →
/// serialize for every repeated read in an epoch.
#[derive(Default)]
struct ReadCache {
    version: u64,
    map: std::collections::HashMap<Vec<u8>, (Op, Vec<u8>)>,
}

/// Entry cap: a rogue client enumerating unique lines evicts everything
/// rather than growing without bound.
const READ_CACHE_MAX: usize = 8192;

impl ReadCache {
    /// Drop stale entries if the state moved; returns the version the
    /// cache is now valid for.
    fn sync(&mut self, version: u64) -> u64 {
        if self.version != version {
            self.map.clear();
            self.version = version;
        }
        version
    }

    fn insert(&mut self, line: &[u8], op: Op, response: &[u8]) {
        if self.map.len() >= READ_CACHE_MAX {
            self.map.clear();
        }
        self.map.insert(line.to_vec(), (op, response.to_vec()));
    }
}

/// One event loop: poll the listener (loop 0) and this loop's
/// connections, answer read ops inline, feed heavy ops to the worker
/// queue, and drain outboxes as sockets open up.
fn event_loop(
    idx: usize,
    listener: Option<TcpListener>,
    injectors: &[Mutex<Vec<TcpStream>>],
    ctx: &LoopCtx,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut hijacked: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut next = idx;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut buf = vec![0u8; 16 * 1024];
    let mut cache = ReadCache::default();
    let mut outbuf: Vec<u8> = Vec::with_capacity(16 * 1024);
    while !ctx.stop.load(Ordering::SeqCst) {
        {
            let mut inj = lock(&injectors[idx]);
            for stream in inj.drain(..) {
                if let Some(conn) = Conn::adopt(stream) {
                    conns.push(conn);
                }
            }
        }
        fds.clear();
        if let Some(l) = &listener {
            fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
        }
        let base = fds.len();
        for conn in &conns {
            let mut events = POLLIN;
            if conn.out.has_pending() {
                events |= POLLOUT;
            }
            fds.push(PollFd::new(conn.stream.as_raw_fd(), events));
        }
        if poll::poll_fds(&mut fds, POLL_TICK_MS).is_err() {
            std::thread::sleep(POLL_INTERVAL);
            continue;
        }
        if let Some(l) = &listener {
            if fds[0].readable() {
                accept_ready(l, injectors, &mut next, ctx);
            }
        }
        let mut kept = Vec::with_capacity(conns.len());
        for (slot, mut conn) in conns.into_iter().enumerate() {
            let pf = &fds[base + slot];
            if pf.writable() && conn.out.has_pending() {
                conn.out.flush_pending();
            }
            let fate = if pf.readable() {
                read_conn(&mut conn, &mut buf, ctx, &mut cache, &mut outbuf)
            } else {
                ConnFate::Keep
            };
            match fate {
                ConnFate::Keep => kept.push(conn),
                ConnFate::Close => {
                    // Best effort on anything still queued; the peer is
                    // (half-)gone either way.
                    conn.out.flush_pending();
                }
                ConnFate::Hijack(request) => {
                    if let Some(handle) = hijack_replica(conn, request, ctx) {
                        hijacked.push(handle);
                    }
                }
            }
        }
        conns = kept;
        hijacked.retain(|h| !h.is_finished());
    }
    // Replication streams watch the same stop flag; join them so the
    // final WAL sync in `run` happens after their last append.
    for handle in hijacked {
        let _ = handle.join();
    }
}

/// Accept everything ready and deal connections round-robin across the
/// loops (including this one) via the injection queues.
fn accept_ready(
    listener: &TcpListener,
    injectors: &[Mutex<Vec<TcpStream>>],
    next: &mut usize,
    ctx: &LoopCtx,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                ctx.service.metrics.record_connection();
                let target = *next % injectors.len();
                *next = next.wrapping_add(1);
                lock(&injectors[target]).push(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// Pull everything the socket has, then frame and dispatch buffered
/// lines.
fn read_conn(
    conn: &mut Conn,
    buf: &mut [u8],
    ctx: &LoopCtx,
    cache: &mut ReadCache,
    outbuf: &mut Vec<u8>,
) -> ConnFate {
    let mut eof = false;
    loop {
        match (&conn.stream).read(buf) {
            Ok(0) => {
                eof = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&buf[..n]);
                if n < buf.len() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return ConnFate::Close,
        }
    }
    // A client may pipeline requests and half-close; serve what it sent
    // before honoring the EOF.
    match drain_lines(conn, ctx, cache, outbuf) {
        ConnFate::Keep if eof => ConnFate::Close,
        fate => fate,
    }
}

/// Frame complete lines out of the connection's buffer and dispatch
/// each: inline reads on this thread, heavy ops to the worker queue.
///
/// Inline responses accumulate in `outbuf` and go to the socket as one
/// write when the batch ends (or before a job is queued, so worker
/// responses cannot overtake earlier inline ones) — a pipelined window
/// of reads costs one write syscall, not one per response.
fn drain_lines(
    conn: &mut Conn,
    ctx: &LoopCtx,
    cache: &mut ReadCache,
    outbuf: &mut Vec<u8>,
) -> ConnFate {
    let mut start = 0usize;
    let fate = loop {
        let Some(rel) = conn.inbuf[start..].iter().position(|&b| b == b'\n') else {
            break ConnFate::Keep;
        };
        let line_end = start + rel;
        let line = &conn.inbuf[start..line_end];
        start = line_end + 1;

        // Trim without allocating (clients may send \r\n or padding).
        let trimmed = {
            let mut lo = 0;
            let mut hi = line.len();
            while lo < hi && line[lo].is_ascii_whitespace() {
                lo += 1;
            }
            while hi > lo && line[hi - 1].is_ascii_whitespace() {
                hi -= 1;
            }
            &line[lo..hi]
        };
        if trimmed.is_empty() {
            continue;
        }
        let received = Instant::now();

        // Cache hit: identical read line, unchanged state version —
        // answer from bytes without parsing anything.
        let version = cache.sync(ctx.service.state_version());
        if let Some((op, response)) = cache.map.get(trimmed) {
            outbuf.extend_from_slice(response);
            ctx.service.metrics.record_request(*op, received.elapsed());
            continue;
        }

        let Ok(text) = std::str::from_utf8(trimmed) else {
            ctx.service.metrics.record_error();
            let err = ServiceError::new("bad_json", "request line is not valid UTF-8");
            envelope_bytes_into(outbuf, &protocol::err_envelope(None, &err));
            continue;
        };
        match protocol::parse_request(text) {
            Ok(request) => {
                let op = Op::from_name(&request.op);
                if op == Op::Replicate {
                    break ConnFate::Hijack(request);
                }
                let timeout = protocol::get_u64(&request.body, "timeout_ms")
                    .map_or(ctx.default_timeout, Duration::from_millis);
                let deadline = received + timeout;
                if op.is_inline_read() {
                    // Read ops never queue: they run on the loop thread
                    // over epoch-pinned state, out of every solve's way.
                    let result = handle_guarded(&ctx.service, &request, deadline);
                    let mark = outbuf.len();
                    match result {
                        Ok(data) => {
                            envelope_bytes_into(outbuf, &protocol::ok_envelope(request.id, data));
                            // Skip the insert if the state moved during
                            // the handler — the response may already
                            // belong to the next version.
                            if op.is_cacheable() && ctx.service.state_version() == version {
                                cache.insert(trimmed, op, &outbuf[mark..]);
                            }
                        }
                        Err(err) => {
                            ctx.service.metrics.record_error();
                            envelope_bytes_into(outbuf, &protocol::err_envelope(request.id, &err));
                        }
                    }
                    ctx.service.metrics.record_request(op, received.elapsed());
                    continue;
                }
                // Queue-class op: flush inline responses first so the
                // worker's response cannot overtake them on the wire.
                if !outbuf.is_empty() {
                    conn.out.send(outbuf);
                    outbuf.clear();
                }
                let job = Job {
                    op,
                    received,
                    deadline,
                    request,
                    writer: Arc::clone(&conn.out),
                };
                match ctx.tx.try_send(job) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => {
                        ctx.service.metrics.record_rejected();
                        ctx.service.metrics.record_error();
                        let err = ServiceError::new(
                            "overloaded",
                            "request queue is full; retry with backoff",
                        )
                        .with_retry_after(ctx.retry_after_ms);
                        envelope_bytes_into(outbuf, &protocol::err_envelope(job.request.id, &err));
                    }
                    Err(TrySendError::Disconnected(job)) => {
                        let err = ServiceError::new(
                            "shutting_down",
                            "server is draining; reconnect later",
                        );
                        envelope_bytes_into(outbuf, &protocol::err_envelope(job.request.id, &err));
                        break ConnFate::Close;
                    }
                }
            }
            Err(err) => {
                ctx.service.metrics.record_error();
                envelope_bytes_into(outbuf, &protocol::err_envelope(None, &err));
            }
        }
    };
    // One compaction for the whole batch (a hijacked handshake leaves
    // any bytes past its line in place for the stream thread).
    conn.inbuf.drain(..start);
    if !outbuf.is_empty() {
        conn.out.send(outbuf);
        outbuf.clear();
    }
    fate
}

/// Move a `replicate` connection off the event loop: restore blocking
/// mode (shared fd flags — the outbox clone follows), flush anything
/// queued, and hand the socket (with any bytes already buffered past
/// the handshake line) to a dedicated stream thread.
fn hijack_replica(
    conn: Conn,
    request: protocol::Request,
    ctx: &LoopCtx,
) -> Option<std::thread::JoinHandle<()>> {
    let Conn { stream, out, inbuf } = conn;
    stream.set_nonblocking(false).ok()?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok()?;
    while out.flush_pending() {}
    let writer = Arc::new(Mutex::new(stream.try_clone().ok()?));
    let reader = Cursor::new(inbuf).chain(BufReader::new(stream));
    let service = Arc::clone(&ctx.service);
    let stop = Arc::clone(&ctx.stop);
    Some(std::thread::spawn(move || {
        repl::serve_replica(reader, writer, &service, &stop, &request);
    }))
}

/// Execute admitted jobs until every sender hangs up.
fn worker_loop(rx: &Mutex<Receiver<Job>>, service: &Service) {
    loop {
        // Hold the receiver lock only for the dequeue, not the work.
        let job = match lock(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: server draining.
        };
        let envelope = match handle_guarded(service, &job.request, job.deadline) {
            Ok(data) => protocol::ok_envelope(job.request.id, data),
            Err(err) => {
                service.metrics.record_error();
                protocol::err_envelope(job.request.id, &err)
            }
        };
        job.writer.send(&envelope_bytes(&envelope));
        service
            .metrics
            .record_request(job.op, job.received.elapsed());
    }
}

/// [`Service::handle`] behind a panic guard: a handler panic answers a
/// structured `internal` error instead of killing the loop or worker.
fn handle_guarded(
    service: &Service,
    request: &protocol::Request,
    deadline: Instant,
) -> Result<Value, ServiceError> {
    catch_unwind(AssertUnwindSafe(|| service.handle(request, deadline))).unwrap_or_else(|_| {
        Err(ServiceError::new(
            "internal",
            "request handler panicked; see server log",
        ))
    })
}

/// Serialize one response envelope to its wire line.
fn envelope_bytes(envelope: &Value) -> Vec<u8> {
    let mut line = Vec::with_capacity(256);
    envelope_bytes_into(&mut line, envelope);
    line
}

/// Serialize one response envelope onto the end of a batch buffer.
fn envelope_bytes_into(out: &mut Vec<u8>, envelope: &Value) {
    let mark = out.len();
    if serde_json::to_writer(&mut *out, envelope).is_err() {
        out.truncate(mark);
        out.extend_from_slice(
            br#"{"ok":false,"error":{"code":"internal","message":"response serialization failed"}}"#,
        );
    }
    out.push(b'\n');
}
