//! WAL-shipping replication: a primary streams acked WAL records to
//! replicas over the same newline-delimited TCP protocol clients use.
//!
//! ## Record flow
//!
//! Every mutation the primary acks is first framed into its WAL by
//! [`crate::service::Service`]; the serialized payload is then published
//! to the [`ReplHub`], which fans it out to each connected replica's
//! bounded channel. A replica appends the payload byte-for-byte to its
//! own WAL (`append_payload`), applies it through the same replay path
//! recovery uses, and acks the new offset. Because the vendored JSON
//! shim round-trips floats exactly, replica WALs are bit-identical to
//! the primary's acked prefix — the failover tests assert exactly that.
//!
//! ## Coordinates
//!
//! Offsets on the wire are *remote* coordinates: the primary's byte
//! offset space. A replica that resynced from a snapshot has a local
//! WAL that starts mid-stream, so it tracks `remote_base` (the remote
//! offset its local offset 0 corresponds to) and always speaks
//! `remote_base + local` on the wire. A node that was never a replica
//! has base 0 and the two coordinate spaces coincide.
//!
//! ## Generation fencing
//!
//! Every node carries a generation number, bumped by `promote` and
//! persisted in `repl.meta`. A handshake from a replica with a higher
//! generation than the primary's own means the primary is stale — it
//! refuses with `stale_generation` rather than feed a diverged history.
//! Symmetrically, a replica refuses to follow a primary with a lower
//! generation than its own.
//!
//! ## Catch-up
//!
//! A reconnecting replica asks to resume from its cursor. If the
//! primary still has that offset on disk (above its resync `floor`) it
//! replays the file tail; otherwise it sends a full snapshot and the
//! replica resets its local WAL. `restore` on the primary raises the
//! floor (restore is not WAL-logged, so older offsets no longer replay
//! to the served state) and broadcasts [`Shipment::Resync`] to force
//! connected replicas through the snapshot path.

use crate::lock;
use crate::protocol::{
    err_envelope, get, get_str, get_u64, read_line_capped, write_response, LineRead, Request,
    ServiceError,
};
use crate::recovery::wal_path;
use crate::server::MAX_LINE_BYTES;
use crate::service::{ReplicaApplyError, Service};
use crate::wal::{self, atomic_write, SnapshotDoc};
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::io::{self, BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Sidecar file next to the WAL holding replication identity.
pub const META_FILE: &str = "repl.meta";

/// Depth of each replica subscriber's shipment channel. A replica that
/// falls further behind than this is dropped and catches up from the
/// file on reconnect.
const SUB_CHANNEL_DEPTH: usize = 512;

/// How long stream loops sleep waiting for work before re-checking the
/// stop flag.
const POLL: Duration = Duration::from_millis(200);

/// Durable replication identity, persisted via [`store_meta`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplMeta {
    /// Fencing generation; bumped by `promote`.
    pub generation: u64,
    /// Remote byte offset corresponding to local WAL offset 0.
    pub remote_base: u64,
    /// Remote record count corresponding to local record 0.
    pub remote_records_base: u64,
    /// Local byte offset below which resume is invalid (raised by
    /// `restore`, which is not WAL-logged).
    pub floor: u64,
}

pub fn meta_path(dir: &Path) -> PathBuf {
    dir.join(META_FILE)
}

/// Load the replication meta, defaulting to a fresh identity when the
/// file does not exist.
pub fn load_meta(dir: &Path) -> io::Result<ReplMeta> {
    let path = meta_path(dir);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(ReplMeta::default()),
        Err(e) => return Err(e),
    };
    serde_json::from_str(&text)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("{}: {e}", path.display())))
}

/// Persist the replication meta atomically (temp + fsync + rename).
pub fn store_meta(dir: &Path, meta: &ReplMeta) -> io::Result<()> {
    let text =
        serde_json::to_string(meta).map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
    atomic_write(&meta_path(dir), text.as_bytes())
}

/// One item fanned out to replica subscribers.
#[derive(Clone)]
pub enum Shipment {
    /// A freshly acked WAL record. `offset` is the remote coordinate of
    /// the record's first byte; `head`/`head_records` describe the WAL
    /// end after the append. The payload is the exact serialized
    /// `WalRecord` JSON (no framing).
    Record {
        offset: u64,
        head: u64,
        head_records: u64,
        payload: Arc<String>,
    },
    /// The primary's WAL history below the current head is no longer
    /// replayable (a `restore` happened); replicas must resync.
    Resync,
}

struct Subscriber {
    id: u64,
    tx: SyncSender<Shipment>,
    acked: u64,
}

/// Fan-out of acked records to connected replica streams.
pub struct ReplHub {
    subs: Mutex<Vec<Subscriber>>,
    count: AtomicUsize,
    next_id: AtomicU64,
}

impl Default for ReplHub {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplHub {
    pub fn new() -> Self {
        ReplHub {
            subs: Mutex::new(Vec::new()),
            count: AtomicUsize::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Cheap check so the mutation path skips serialize-for-publish
    /// entirely when no replica is connected.
    pub fn has_subscribers(&self) -> bool {
        self.count.load(Ordering::SeqCst) > 0
    }

    pub fn subscribe(&self) -> (u64, Receiver<Shipment>) {
        let (tx, rx) = std::sync::mpsc::sync_channel(SUB_CHANNEL_DEPTH);
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let mut subs = lock(&self.subs);
        subs.push(Subscriber { id, tx, acked: 0 });
        self.count.store(subs.len(), Ordering::SeqCst);
        (id, rx)
    }

    pub fn unsubscribe(&self, id: u64) {
        let mut subs = lock(&self.subs);
        subs.retain(|s| s.id != id);
        self.count.store(subs.len(), Ordering::SeqCst);
    }

    /// Deliver a shipment to every subscriber. A subscriber whose
    /// channel is full or closed is dropped — its stream thread will
    /// notice the hangup and the replica reconnects through the file
    /// catch-up path, which is always correct.
    pub fn publish(&self, shipment: Shipment) {
        let mut subs = lock(&self.subs);
        subs.retain(|s| match s.tx.try_send(shipment.clone()) {
            Ok(()) => true,
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => false,
        });
        self.count.store(subs.len(), Ordering::SeqCst);
    }

    /// Record a replica's acked remote offset (for lag reporting).
    pub fn record_ack(&self, id: u64, offset: u64) {
        let mut subs = lock(&self.subs);
        if let Some(sub) = subs.iter_mut().find(|s| s.id == id) {
            sub.acked = sub.acked.max(offset);
        }
    }

    /// Connected replica count and the minimum acked remote offset
    /// across them (None when no replica is connected).
    pub fn lag(&self) -> (usize, Option<u64>) {
        let subs = lock(&self.subs);
        let min = subs.iter().map(|s| s.acked).min();
        (subs.len(), min)
    }
}

/// Runtime replication state embedded in the service. All fields are
/// atomics so the hot mutate path and the health op never contend on a
/// lock for them.
pub struct ReplState {
    role_replica: AtomicBool,
    accept_replicas: AtomicBool,
    generation: AtomicU64,
    remote_base: AtomicU64,
    remote_records_base: AtomicU64,
    /// Next remote byte offset / record index this node expects.
    remote_next: AtomicU64,
    remote_records_next: AtomicU64,
    floor: AtomicU64,
    last_seen_generation: AtomicU64,
    last_seen_head: AtomicU64,
    last_seen_head_records: AtomicU64,
    connected: AtomicBool,
    force_reset: AtomicBool,
    pub hub: ReplHub,
}

impl Default for ReplState {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplState {
    pub fn new() -> Self {
        ReplState {
            role_replica: AtomicBool::new(false),
            accept_replicas: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            remote_base: AtomicU64::new(0),
            remote_records_base: AtomicU64::new(0),
            remote_next: AtomicU64::new(0),
            remote_records_next: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            last_seen_generation: AtomicU64::new(0),
            last_seen_head: AtomicU64::new(0),
            last_seen_head_records: AtomicU64::new(0),
            connected: AtomicBool::new(false),
            force_reset: AtomicBool::new(false),
            hub: ReplHub::new(),
        }
    }

    /// Install the persisted identity and the node's startup role.
    /// `local_offset`/`local_records` are the recovered WAL's length,
    /// which the remote cursor resumes from.
    pub fn init(
        &self,
        meta: &ReplMeta,
        accept_replicas: bool,
        replica: bool,
        local_offset: u64,
        local_records: u64,
    ) {
        self.generation.store(meta.generation, Ordering::SeqCst);
        self.remote_base.store(meta.remote_base, Ordering::SeqCst);
        self.remote_records_base
            .store(meta.remote_records_base, Ordering::SeqCst);
        self.remote_next
            .store(meta.remote_base + local_offset, Ordering::SeqCst);
        self.remote_records_next
            .store(meta.remote_records_base + local_records, Ordering::SeqCst);
        self.floor.store(meta.floor, Ordering::SeqCst);
        self.accept_replicas
            .store(accept_replicas, Ordering::SeqCst);
        self.role_replica.store(replica, Ordering::SeqCst);
    }

    pub fn is_replica(&self) -> bool {
        self.role_replica.load(Ordering::SeqCst)
    }

    pub fn set_role_replica(&self, replica: bool) {
        self.role_replica.store(replica, Ordering::SeqCst);
    }

    pub fn accepts_replicas(&self) -> bool {
        self.accept_replicas.load(Ordering::SeqCst)
    }

    /// Flip replica acceptance at runtime (a freshly promoted winner
    /// must feed the losing replicas).
    pub fn set_accepts_replicas(&self, accept: bool) {
        self.accept_replicas.store(accept, Ordering::SeqCst);
    }

    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    pub fn set_generation(&self, generation: u64) {
        self.generation.store(generation, Ordering::SeqCst);
    }

    pub fn floor(&self) -> u64 {
        self.floor.load(Ordering::SeqCst)
    }

    pub fn set_floor(&self, floor: u64) {
        self.floor.store(floor, Ordering::SeqCst);
    }

    pub fn remote_base(&self) -> u64 {
        self.remote_base.load(Ordering::SeqCst)
    }

    pub fn remote_records_base(&self) -> u64 {
        self.remote_records_base.load(Ordering::SeqCst)
    }

    /// Next remote byte offset expected (== remote head applied so far).
    pub fn remote_cursor(&self) -> u64 {
        self.remote_next.load(Ordering::SeqCst)
    }

    pub fn remote_records_cursor(&self) -> u64 {
        self.remote_records_next.load(Ordering::SeqCst)
    }

    /// Reset both bases and cursors to a snapshot boundary.
    pub fn set_cursor(&self, offset: u64, records: u64) {
        self.remote_base.store(offset, Ordering::SeqCst);
        self.remote_records_base.store(records, Ordering::SeqCst);
        self.remote_next.store(offset, Ordering::SeqCst);
        self.remote_records_next.store(records, Ordering::SeqCst);
    }

    /// Advance the cursor past one applied record frame.
    pub fn advance_cursor(&self, frame_bytes: u64) {
        self.remote_next.fetch_add(frame_bytes, Ordering::SeqCst);
        self.remote_records_next.fetch_add(1, Ordering::SeqCst);
    }

    pub fn connected(&self) -> bool {
        self.connected.load(Ordering::SeqCst)
    }

    pub fn set_connected(&self, connected: bool) {
        self.connected.store(connected, Ordering::SeqCst);
    }

    /// Record the primary's advertised generation and head (for lag).
    pub fn note_remote(&self, generation: u64, head: u64, head_records: u64) {
        self.last_seen_generation
            .store(generation, Ordering::SeqCst);
        self.last_seen_head.store(head, Ordering::SeqCst);
        self.last_seen_head_records
            .store(head_records, Ordering::SeqCst);
    }

    pub fn last_seen_generation(&self) -> u64 {
        self.last_seen_generation.load(Ordering::SeqCst)
    }

    pub fn last_seen_head(&self) -> u64 {
        self.last_seen_head.load(Ordering::SeqCst)
    }

    pub fn last_seen_head_records(&self) -> u64 {
        self.last_seen_head_records.load(Ordering::SeqCst)
    }

    /// How far this replica trails the newest head its primary
    /// advertised, as `(records, bytes)`.
    pub fn replica_lag(&self) -> (u64, u64) {
        (
            self.last_seen_head_records()
                .saturating_sub(self.remote_records_cursor()),
            self.last_seen_head().saturating_sub(self.remote_cursor()),
        )
    }

    /// Ask the next handshake to start from scratch (cursor mistrust).
    pub fn set_force_reset(&self) {
        self.force_reset.store(true, Ordering::SeqCst);
    }

    pub fn force_reset_pending(&self) -> bool {
        self.force_reset.load(Ordering::SeqCst)
    }

    /// Adopt a snapshot boundary sent by the primary: clears any
    /// pending force-reset and re-bases the cursor.
    pub fn begin_resync(&self, generation: u64, start_offset: u64, start_records: u64) {
        self.force_reset.store(false, Ordering::SeqCst);
        self.generation.store(generation, Ordering::SeqCst);
        self.set_cursor(start_offset, start_records);
        self.floor.store(0, Ordering::SeqCst);
    }

    /// The durable view of this state.
    pub fn meta(&self) -> ReplMeta {
        ReplMeta {
            generation: self.generation(),
            remote_base: self.remote_base(),
            remote_records_base: self.remote_records_base(),
            floor: self.floor(),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire messages. Hand-built strings: the record line embeds the raw WAL
// payload verbatim (it is already JSON), and the vendored `json!` only
// accepts literals.
// ---------------------------------------------------------------------------

/// The optional `,"advertise":"…"` suffix carried on hello/ping lines:
/// the primary's client-facing address, which followers hand out as
/// `primary_hint`.
fn advertise_suffix(advertise: Option<&str>) -> String {
    match advertise {
        Some(addr) => format!(",\"advertise\":\"{}\"", addr.escape_default()),
        None => String::new(),
    }
}

fn hello_line(
    generation: u64,
    mode: &str,
    start: u64,
    start_records: u64,
    head: u64,
    head_records: u64,
    advertise: Option<&str>,
) -> String {
    format!(
        "{{\"repl\":\"hello\",\"generation\":{generation},\"mode\":\"{mode}\",\
         \"start\":{start},\"start_records\":{start_records},\
         \"head\":{head},\"head_records\":{head_records}{}}}\n",
        advertise_suffix(advertise)
    )
}

/// Idle heartbeat: renews the follower's lease when no record has
/// shipped for a poll interval.
fn ping_line(generation: u64, head: u64, head_records: u64, advertise: Option<&str>) -> String {
    format!(
        "{{\"repl\":\"ping\",\"generation\":{generation},\"head\":{head},\
         \"head_records\":{head_records}{}}}\n",
        advertise_suffix(advertise)
    )
}

fn snapshot_line(doc_json: &str, head: u64, head_records: u64) -> String {
    format!("{{\"repl\":\"snapshot\",\"doc\":{doc_json},\"head\":{head},\"head_records\":{head_records}}}\n")
}

fn record_line(offset: u64, head: u64, head_records: u64, payload: &str) -> String {
    format!(
        "{{\"repl\":\"record\",\"offset\":{offset},\"head\":{head},\
         \"head_records\":{head_records},\"record\":{payload}}}\n"
    )
}

fn ack_line(offset: u64) -> String {
    format!("{{\"repl\":\"ack\",\"offset\":{offset}}}\n")
}

fn handshake_line(from_offset: u64, generation: u64) -> String {
    format!("{{\"op\":\"replicate\",\"from_offset\":{from_offset},\"generation\":{generation}}}\n")
}

fn send_line(writer: &Arc<Mutex<TcpStream>>, line: &str) -> io::Result<()> {
    let mut guard = lock(writer);
    guard.write_all(line.as_bytes())?;
    guard.flush()
}

fn reject(writer: &Arc<Mutex<TcpStream>>, request: &Request, error: &ServiceError) {
    let envelope = err_envelope(request.id, error);
    let mut guard = lock(writer);
    let _ = write_response(&mut *guard, &envelope);
}

// ---------------------------------------------------------------------------
// Primary side: serve one replica stream on a hijacked reader thread.
// ---------------------------------------------------------------------------

/// Handle a `replicate` handshake: turn this connection into a one-way
/// shipment stream (plus inbound acks). Called from a thread the server
/// hijacks off its event loop, which it occupies until the replica
/// disconnects or the server stops. The reader is generic because the
/// event loop may have buffered bytes past the handshake line; the
/// server feeds them back in ahead of the live socket.
pub fn serve_replica<R: BufRead + Send + 'static>(
    reader: R,
    writer: Arc<Mutex<TcpStream>>,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    request: &Request,
) {
    let repl = service.replication();
    if !repl.accepts_replicas() {
        reject(
            &writer,
            request,
            &ServiceError::new(
                "replication_unsupported",
                "this server does not accept replicas (start with --accept-replicas)",
            ),
        );
        return;
    }
    let my_gen = repl.generation();
    let peer_gen = get_u64(&request.body, "generation").unwrap_or(0);
    if peer_gen > my_gen {
        service.metrics.record_repl_fenced();
        let mut error = ServiceError::new(
            "stale_generation",
            format!("replica generation {peer_gen} exceeds primary generation {my_gen}; this primary is stale"),
        );
        if let Some(hint) = service.supervision().primary_hint() {
            error = error.with_primary_hint(hint);
        }
        reject(&writer, request, &error);
        if service.supervision().enabled() {
            // A successor was elected while we were away: step down and
            // let the supervisor find it. (Unsupervised nodes keep the
            // PR 7 behaviour — fenced until an operator intervenes.)
            service.demote_to_replica(None);
            service.metrics.record_sup_demotion();
        }
        return;
    }
    let (dir, head_local, head_records_local) = match service.repl_stream_info() {
        Ok(info) => info,
        Err(e) => {
            reject(&writer, request, &e);
            return;
        }
    };
    if let Err(e) = stream_to_replica(
        reader,
        &writer,
        service,
        stop,
        request,
        &dir,
        head_local,
        head_records_local,
        my_gen,
    ) {
        // The replica reconnects and catches up; nothing to do but log
        // through metrics-free stderr is avoided — drop silently.
        let _ = e;
    }
    if let Ok(guard) = writer.lock() {
        let _ = guard.shutdown(Shutdown::Both);
    }
}

#[allow(clippy::too_many_arguments)]
fn stream_to_replica<R: BufRead + Send + 'static>(
    reader: R,
    writer: &Arc<Mutex<TcpStream>>,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    request: &Request,
    dir: &Path,
    head_local: u64,
    head_records_local: u64,
    my_gen: u64,
) -> io::Result<()> {
    let repl = service.replication();
    let base = repl.remote_base();
    let records_base = repl.remote_records_base();
    let peer_gen = get_u64(&request.body, "generation").unwrap_or(0);
    let from_offset = get_u64(&request.body, "from_offset").unwrap_or(0);

    // Subscribe before reading the file so no record falls in the gap
    // between the file scan and the live stream.
    let (sub_id, rx) = repl.hub.subscribe();
    let result = (|| -> io::Result<()> {
        let mut bytes = std::fs::read(wal_path(dir))?;

        // Decide resume vs reset. Resume requires: same generation, a
        // cursor inside our retained local history (>= floor), not past
        // our head, and a clean frame boundary.
        let local_from = from_offset.checked_sub(base);
        let resume_at = match local_from {
            Some(f)
                if peer_gen == my_gen
                    && f > 0
                    && f >= repl.floor()
                    && f <= head_local
                    && wal::scan_from(&bytes, f).is_ok() =>
            {
                Some(f)
            }
            _ => None,
        };

        let (mode, start_local, start_records_local, snapshot_doc) = match resume_at {
            Some(f) => ("resume", f, 0, None),
            None => match service.repl_snapshot_doc() {
                Some(doc) => {
                    // The doc's cursor may be past the bytes read above
                    // (a mutate raced in); re-read so the scan covers it.
                    bytes = std::fs::read(wal_path(dir))?;
                    let start = doc.wal_offset;
                    let records = doc.wal_records;
                    ("reset", start, records, Some(doc))
                }
                None => ("reset", 0, 0, None),
            },
        };

        let scan = wal::scan_from(&bytes, start_local)
            .map_err(|e| io::Error::new(ErrorKind::InvalidData, format!("wal scan: {e:?}")))?;
        // On resume the records-before-start count is derived from the
        // scan (head count minus tail count); on reset the snapshot doc
        // carries it.
        let start_records_local = if mode == "resume" {
            head_records_local.saturating_sub(scan.records.len() as u64)
        } else {
            start_records_local
        };
        let effective_head_local = head_local.max(scan.valid_len);
        let head = base + effective_head_local;
        let head_records =
            records_base + head_records_local.max(start_records_local + scan.records.len() as u64);

        // Acks flow on their own thread; this thread only writes. Either
        // side raises `ack_stop` to end the subscription: this one when
        // its stream ends, the reader when the replica breaks the cap.
        let ack_stop = Arc::new(AtomicBool::new(false));
        let ack_handle = spawn_ack_reader(
            reader,
            Arc::clone(service),
            sub_id,
            Arc::clone(stop),
            Arc::clone(&ack_stop),
        );

        // Supervised primaries poll (and thus ping) at half the lease
        // interval so one lost line cannot cost a whole window.
        let sup = service.supervision();
        let poll = if sup.enabled() {
            (sup.lease_interval() / 2).clamp(Duration::from_millis(10), POLL)
        } else {
            POLL
        };
        let advertise = sup.advertise();

        let stream_result = (|| -> io::Result<()> {
            send_line(
                writer,
                &hello_line(
                    my_gen,
                    mode,
                    base + start_local,
                    records_base + start_records_local,
                    head,
                    head_records,
                    advertise.as_deref(),
                ),
            )?;
            if let Some(doc) = snapshot_doc {
                let shifted = shift_doc(doc, base, records_base);
                let doc_json = serde_json::to_string(&shifted)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
                send_line(writer, &snapshot_line(&doc_json, head, head_records))?;
                service.metrics.record_repl_snapshot_shipped();
            }

            // File tail first…
            let mut sent_records = records_base + start_records_local;
            for rec in &scan.records {
                let payload = serde_json::to_string(&rec.record)
                    .map_err(|e| io::Error::new(ErrorKind::InvalidData, e))?;
                sent_records += 1;
                send_line(
                    writer,
                    &record_line(base + rec.offset, head, sent_records, &payload),
                )?;
                service.metrics.record_repl_shipped(1);
            }
            let sent_until = base + scan.valid_len;

            // …then the live feed, skipping anything already sent. Idle
            // polls turn into pings: the stream doubles as the lease.
            let mut live_head = head;
            let mut live_head_records = head_records;
            loop {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
                if ack_stop.load(Ordering::SeqCst) {
                    return Err(io::Error::new(
                        ErrorKind::InvalidData,
                        "replica sent a line over the length cap",
                    ));
                }
                match rx.recv_timeout(poll) {
                    Ok(Shipment::Record {
                        offset,
                        head,
                        head_records,
                        payload,
                    }) => {
                        live_head = live_head.max(head);
                        live_head_records = live_head_records.max(head_records);
                        if offset < sent_until {
                            continue;
                        }
                        send_line(writer, &record_line(offset, head, head_records, &payload))?;
                        service.metrics.record_repl_shipped(1);
                    }
                    Ok(Shipment::Resync) => return Ok(()),
                    Err(RecvTimeoutError::Timeout) => {
                        send_line(
                            writer,
                            &ping_line(my_gen, live_head, live_head_records, advertise.as_deref()),
                        )?;
                    }
                    Err(RecvTimeoutError::Disconnected) => return Ok(()),
                }
            }
        })();

        ack_stop.store(true, Ordering::SeqCst);
        if let Ok(guard) = writer.lock() {
            let _ = guard.shutdown(Shutdown::Both);
        }
        let _ = ack_handle.join();
        stream_result
    })();
    repl.hub.unsubscribe(sub_id);
    result
}

/// Re-express a local snapshot doc in remote coordinates.
fn shift_doc(mut doc: SnapshotDoc, base: u64, records_base: u64) -> SnapshotDoc {
    doc.wal_offset += base;
    doc.wal_records += records_base;
    doc
}

/// Read the replica's acks until the stream ends. A line longer than
/// [`MAX_LINE_BYTES`] (acks are a few dozen bytes) raises `ack_stop`,
/// which ends the subscription: the replica reconnects, and a hostile
/// peer costs at most one capped line of memory.
fn spawn_ack_reader<R: BufRead + Send + 'static>(
    mut reader: R,
    service: Arc<Service>,
    sub_id: u64,
    stop: Arc<AtomicBool>,
    ack_stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut line = Vec::new();
        loop {
            if stop.load(Ordering::SeqCst) || ack_stop.load(Ordering::SeqCst) {
                return;
            }
            match read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES) {
                Ok(LineRead::Line) => {
                    let text = std::str::from_utf8(&line).ok();
                    if let Some(value) = text.and_then(|t| serde_json::from_str::<Value>(t).ok()) {
                        if get_str(&value, "repl") == Some("ack") {
                            // Any ack is proof a replica still sees us —
                            // the primary side of the lease.
                            service.supervision().note_replica_contact();
                            if let Some(offset) = get_u64(&value, "offset") {
                                service.replication().hub.record_ack(sub_id, offset);
                            }
                        }
                    }
                    line.clear();
                }
                Ok(LineRead::Eof) => return,
                Ok(LineRead::TooLong) => {
                    ack_stop.store(true, Ordering::SeqCst);
                    return;
                }
                // A timeout keeps the partial line; the next read goes on.
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue;
                }
                Err(_) => return,
            }
        }
    })
}

// ---------------------------------------------------------------------------
// Replica side: the follower loop.
// ---------------------------------------------------------------------------

/// Why one `follow` attempt ended.
enum FollowEnd {
    /// Promote flipped the role; stop following.
    Promoted,
    /// Transport-level end (reconnect with backoff).
    Disconnected,
    /// The primary fenced us or we fenced it — back off hard.
    Fenced,
    /// The peer does not accept replicas — back off hard.
    Unsupported,
}

/// Follow the configured primary until promoted or stopped,
/// reconnecting with jittered exponential backoff. The target is
/// re-read from the supervisor's `upstream` on every attempt (an
/// election may re-point it), falling back to the `--replica-of`
/// address. A supervised node outlives a promotion: the loop idles
/// while the node is primary and resumes following if it is demoted.
pub fn run_replica_loop(
    service: Arc<Service>,
    primary: Option<String>,
    stop: Arc<AtomicBool>,
    seed: u64,
) {
    let mut rng = seed | 1;
    let mut strikes: u32 = 0;
    let supervised = service.supervision().enabled();
    while !stop.load(Ordering::SeqCst) {
        if !service.replication().is_replica() {
            if !supervised {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
            continue;
        }
        let Some(target) = service.supervision().upstream().or_else(|| primary.clone()) else {
            // A demoted node with no known successor yet: the
            // supervisor's election will fill in the upstream.
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let (end, made_progress) = follow(&service, &target, &stop);
        service.replication().set_connected(false);
        match end {
            FollowEnd::Promoted => {
                if !supervised {
                    return;
                }
                strikes = 0;
                continue;
            }
            FollowEnd::Disconnected => {
                strikes = if made_progress {
                    0
                } else {
                    strikes.saturating_add(1)
                };
            }
            FollowEnd::Fenced | FollowEnd::Unsupported => {
                strikes = strikes.saturating_add(4);
            }
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let delay = backoff_delay(strikes, &mut rng);
        sleep_poll(delay, &stop, &service);
    }
}

fn backoff_delay(strikes: u32, rng: &mut u64) -> Duration {
    let base = 50u64;
    let cap = 2000u64;
    let exp = base.saturating_mul(1u64 << strikes.min(6)).min(cap);
    // Jitter in [exp/2, exp]: deterministic xorshift keeps tests stable.
    let j = xorshift(rng);
    Duration::from_millis(exp / 2 + j % (exp / 2 + 1))
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Sleep in short slices so stop/promote interrupt promptly.
fn sleep_poll(total: Duration, stop: &Arc<AtomicBool>, service: &Arc<Service>) {
    let start = Instant::now();
    while start.elapsed() < total {
        if stop.load(Ordering::SeqCst) || !service.replication().is_replica() {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

enum PollRead {
    Line,
    Eof,
    Stop,
    Promoted,
}

/// Read one line, polling the stop flag and the role across read
/// timeouts. Partial lines survive timeouts (the buffer accumulates).
/// `followed` is the address this connection was made to: if an
/// election re-points the supervisor's upstream elsewhere while the
/// connection sits idle (a silently dead primary never sends EOF), the
/// read reports EOF so the follower reconnects to the new target.
fn read_line_poll(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    stop: &Arc<AtomicBool>,
    service: &Arc<Service>,
    followed: &str,
) -> io::Result<PollRead> {
    line.clear();
    let mut partial = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            return Ok(PollRead::Stop);
        }
        if !service.replication().is_replica() {
            return Ok(PollRead::Promoted);
        }
        let mut byte = [0u8; 1];
        // Byte-at-a-time through the BufReader: fine, the buffer does
        // the batching; lets a timeout preserve the partial line.
        match reader.read(&mut byte) {
            Ok(0) => {
                return if partial.is_empty() {
                    Ok(PollRead::Eof)
                } else {
                    Err(io::Error::new(ErrorKind::UnexpectedEof, "torn line"))
                };
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    *line = String::from_utf8_lossy(&partial).into_owned();
                    return Ok(PollRead::Line);
                }
                partial.push(byte[0]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if partial.is_empty() && service.supervision().enabled() {
                    if let Some(upstream) = service.supervision().upstream() {
                        if upstream != followed {
                            return Ok(PollRead::Eof);
                        }
                    }
                }
                continue;
            }
            Err(e) => return Err(e),
        }
    }
}

fn connect(primary: &str) -> io::Result<TcpStream> {
    let addrs: Vec<SocketAddr> = primary.to_socket_addrs()?.collect();
    let addr = addrs
        .first()
        .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no address"))?;
    let stream = TcpStream::connect_timeout(addr, Duration::from_secs(1))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL))?;
    Ok(stream)
}

/// One connection attempt: handshake, optional snapshot, then apply
/// records until something ends the session.
fn follow(service: &Arc<Service>, primary: &str, stop: &Arc<AtomicBool>) -> (FollowEnd, bool) {
    let repl = service.replication();
    let mut made_progress = false;
    let stream = match connect(primary) {
        Ok(s) => s,
        Err(_) => return (FollowEnd::Disconnected, false),
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return (FollowEnd::Disconnected, false),
    };
    let mut reader = BufReader::new(stream);

    let from_offset = if repl.force_reset_pending() {
        0
    } else {
        repl.remote_cursor()
    };
    if writer
        .write_all(handshake_line(from_offset, repl.generation()).as_bytes())
        .and_then(|_| writer.flush())
        .is_err()
    {
        return (FollowEnd::Disconnected, false);
    }

    let mut line = String::new();
    // Hello (or an error envelope).
    match read_line_poll(&mut reader, &mut line, stop, service, primary) {
        Ok(PollRead::Line) => {}
        Ok(PollRead::Promoted) => return (FollowEnd::Promoted, made_progress),
        _ => return (FollowEnd::Disconnected, made_progress),
    }
    let hello: Value = match serde_json::from_str(&line) {
        Ok(v) => v,
        Err(_) => return (FollowEnd::Disconnected, made_progress),
    };
    if get(&hello, "ok").is_some() {
        // An error envelope instead of a hello.
        let code = get(&hello, "error")
            .and_then(|e| get_str(e, "code"))
            .unwrap_or("");
        return match code {
            "stale_generation" => {
                service.metrics.record_repl_fenced();
                (FollowEnd::Fenced, made_progress)
            }
            "replication_unsupported" => (FollowEnd::Unsupported, made_progress),
            _ => (FollowEnd::Disconnected, made_progress),
        };
    }
    if get_str(&hello, "repl") != Some("hello") {
        return (FollowEnd::Disconnected, made_progress);
    }
    let primary_gen = get_u64(&hello, "generation").unwrap_or(0);
    if primary_gen < repl.generation() {
        // We are ahead of this primary: refuse to follow a stale one.
        service.metrics.record_repl_fenced();
        return (FollowEnd::Fenced, made_progress);
    }
    let head = get_u64(&hello, "head").unwrap_or(0);
    let head_records = get_u64(&hello, "head_records").unwrap_or(0);
    match get_str(&hello, "mode") {
        Some("reset") => {
            let start = get_u64(&hello, "start").unwrap_or(0);
            let start_records = get_u64(&hello, "start_records").unwrap_or(0);
            service.metrics.record_repl_resync();
            if service
                .replica_begin_resync(start, start_records, primary_gen)
                .is_err()
            {
                return (FollowEnd::Disconnected, made_progress);
            }
        }
        Some("resume") => {
            if primary_gen != repl.generation() {
                // Generation moved under a resume offer — distrust the
                // cursor and resync next time.
                repl.set_force_reset();
                return (FollowEnd::Disconnected, made_progress);
            }
        }
        _ => return (FollowEnd::Disconnected, made_progress),
    }
    repl.note_remote(primary_gen, head, head_records);
    repl.set_connected(true);
    service.metrics.record_repl_connect();
    // The hello renews the lease and may carry the primary's
    // client-facing address for `primary_hint`.
    service.supervision().note_lease();
    if let Some(adv) = get_str(&hello, "advertise") {
        service
            .supervision()
            .set_primary_hint(Some(adv.to_string()));
    }

    loop {
        match read_line_poll(&mut reader, &mut line, stop, service, primary) {
            Ok(PollRead::Line) => {}
            Ok(PollRead::Promoted) => return (FollowEnd::Promoted, made_progress),
            _ => return (FollowEnd::Disconnected, made_progress),
        }
        let msg: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(_) => return (FollowEnd::Disconnected, made_progress),
        };
        // Every stream line from the primary is a heartbeat, and its
        // advertised head (and address, on pings) updates the lag view.
        service.supervision().note_lease();
        if let Some(h) = get_u64(&msg, "head") {
            let hr = get_u64(&msg, "head_records").unwrap_or(0);
            repl.note_remote(primary_gen, h, hr);
        }
        if let Some(adv) = get_str(&msg, "advertise") {
            service
                .supervision()
                .set_primary_hint(Some(adv.to_string()));
        }
        let cursor = match get_str(&msg, "repl") {
            // Ack the cursor so the primary's replica-contact clock keeps
            // running through idle stretches.
            Some("ping") => repl.remote_cursor(),
            Some("snapshot") => {
                let doc = get(&msg, "doc")
                    .and_then(|doc| serde_json::from_value::<SnapshotDoc>(doc.clone()).ok());
                match doc.map(|doc| service.replica_install_snapshot(doc)) {
                    Some(Ok(cursor)) => {
                        made_progress = true;
                        cursor
                    }
                    _ => return (FollowEnd::Disconnected, made_progress),
                }
            }
            Some("record") => {
                let (Some(offset), Some(record_value)) =
                    (get_u64(&msg, "offset"), get(&msg, "record"))
                else {
                    return (FollowEnd::Disconnected, made_progress);
                };
                match service.replica_apply(offset, record_value) {
                    Ok(cursor) => {
                        made_progress = true;
                        cursor
                    }
                    Err(ReplicaApplyError::Desync { .. }) | Err(ReplicaApplyError::Bad(_)) => {
                        repl.set_force_reset();
                        return (FollowEnd::Disconnected, made_progress);
                    }
                    Err(ReplicaApplyError::Wal(_)) => {
                        return (FollowEnd::Disconnected, made_progress);
                    }
                }
            }
            _ => return (FollowEnd::Disconnected, made_progress),
        };
        if writer
            .write_all(ack_line(cursor).as_bytes())
            .and_then(|_| writer.flush())
            .is_err()
        {
            return (FollowEnd::Disconnected, made_progress);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::parse_request;

    #[test]
    fn meta_roundtrips_and_defaults_when_missing() {
        let dir = std::env::temp_dir().join(format!("geacc-repl-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(load_meta(&dir).unwrap().generation, 0);
        let meta = ReplMeta {
            generation: 3,
            remote_base: 128,
            remote_records_base: 2,
            floor: 64,
        };
        store_meta(&dir, &meta).unwrap();
        let back = load_meta(&dir).unwrap();
        assert_eq!(back.generation, 3);
        assert_eq!(back.remote_base, 128);
        assert_eq!(back.remote_records_base, 2);
        assert_eq!(back.floor, 64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hub_fans_out_and_drops_slow_subscribers() {
        let hub = ReplHub::new();
        assert!(!hub.has_subscribers());
        let (id, rx) = hub.subscribe();
        assert!(hub.has_subscribers());
        hub.publish(Shipment::Record {
            offset: 0,
            head: 10,
            head_records: 1,
            payload: Arc::new("{}".to_string()),
        });
        assert!(matches!(
            rx.recv_timeout(Duration::from_secs(1)).unwrap(),
            Shipment::Record { offset: 0, .. }
        ));
        hub.record_ack(id, 10);
        assert_eq!(hub.lag(), (1, Some(10)));
        // Fill the channel past its depth: the subscriber is dropped.
        for _ in 0..(SUB_CHANNEL_DEPTH + 2) {
            hub.publish(Shipment::Resync);
        }
        assert!(!hub.has_subscribers());
        hub.unsubscribe(id); // idempotent
    }

    #[test]
    fn state_tracks_cursor_in_remote_coordinates() {
        let state = ReplState::new();
        let meta = ReplMeta {
            generation: 2,
            remote_base: 100,
            remote_records_base: 4,
            floor: 0,
        };
        state.init(&meta, false, true, 50, 3);
        assert!(state.is_replica());
        assert_eq!(state.generation(), 2);
        assert_eq!(state.remote_cursor(), 150);
        assert_eq!(state.remote_records_cursor(), 7);
        state.advance_cursor(20);
        assert_eq!(state.remote_cursor(), 170);
        assert_eq!(state.remote_records_cursor(), 8);
        state.begin_resync(5, 400, 9);
        assert_eq!(state.generation(), 5);
        assert_eq!(state.remote_base(), 400);
        assert_eq!(state.remote_cursor(), 400);
        assert_eq!(state.remote_records_cursor(), 9);
        let meta = state.meta();
        assert_eq!(meta.generation, 5);
        assert_eq!(meta.remote_base, 400);
    }

    #[test]
    fn wire_lines_parse_back() {
        let hello = hello_line(3, "resume", 10, 1, 20, 2, None);
        let v: Value = serde_json::from_str(hello.trim()).unwrap();
        assert_eq!(get_str(&v, "repl"), Some("hello"));
        assert_eq!(get_u64(&v, "generation"), Some(3));
        assert_eq!(get_str(&v, "mode"), Some("resume"));
        assert_eq!(get_u64(&v, "head"), Some(20));
        assert_eq!(get_str(&v, "advertise"), None);

        let hello = hello_line(3, "reset", 0, 0, 20, 2, Some("127.0.0.1:7411"));
        let v: Value = serde_json::from_str(hello.trim()).unwrap();
        assert_eq!(get_str(&v, "advertise"), Some("127.0.0.1:7411"));

        let ping = ping_line(4, 30, 3, Some("127.0.0.1:7411"));
        let v: Value = serde_json::from_str(ping.trim()).unwrap();
        assert_eq!(get_str(&v, "repl"), Some("ping"));
        assert_eq!(get_u64(&v, "generation"), Some(4));
        assert_eq!(get_u64(&v, "head"), Some(30));
        assert_eq!(get_str(&v, "advertise"), Some("127.0.0.1:7411"));

        let rec = record_line(
            10,
            20,
            2,
            r#"{"Mutation":{"mutation":{"Attend":{"user":1}}}}"#,
        );
        let v: Value = serde_json::from_str(rec.trim()).unwrap();
        assert_eq!(get_u64(&v, "offset"), Some(10));
        assert!(get(&v, "record").is_some());

        let ack = ack_line(42);
        let v: Value = serde_json::from_str(ack.trim()).unwrap();
        assert_eq!(get_u64(&v, "offset"), Some(42));

        let hs = handshake_line(7, 1);
        let req = parse_request(hs.trim()).unwrap();
        assert_eq!(req.op, "replicate");
        assert_eq!(get_u64(&req.body, "from_offset"), Some(7));
    }

    #[test]
    fn backoff_grows_with_strikes_and_stays_bounded() {
        let mut rng = 0x1234_5678_9abc_def0u64;
        let d0 = backoff_delay(0, &mut rng);
        assert!(d0 >= Duration::from_millis(25) && d0 <= Duration::from_millis(50));
        let d6 = backoff_delay(6, &mut rng);
        assert!(d6 >= Duration::from_millis(1000) && d6 <= Duration::from_millis(2000));
        let d20 = backoff_delay(20, &mut rng);
        assert!(d20 <= Duration::from_millis(2000));
    }
}
