//! Lease-based automatic failover: the self-healing half of replication.
//!
//! ## Lease protocol
//!
//! The primary's replica streams double as its heartbeat: every record
//! shipped (and an explicit `{"repl":"ping"}` line when the stream is
//! idle) renews a lease on the follower, and every ack a follower sends
//! back renews the primary's confidence that its replicas still see it.
//! Two monitor loops consume those signals:
//!
//! - A **replica** whose lease goes unrenewed for
//!   `(missed_leases + 2) × lease_interval` first probes its upstream's
//!   `health` op directly (a slow stream is not a dead primary); only
//!   when the primary is truly gone does it run the election.
//! - A **primary** that hears no replica ack for
//!   `missed_leases × lease_interval` **fences itself**: it keeps
//!   serving reads but refuses writes with `lease_lost`, on the
//!   assumption that the replicas it lost may be electing a successor.
//!   The fence window is strictly smaller than the promote window, so a
//!   partitioned primary stops acking writes *before* any replica goes
//!   writable — that ordering is the no-split-brain argument.
//!
//! ## Election
//!
//! Deterministic and leaderless: every electing replica probes the peer
//! list and ranks all candidates (itself included) by
//! `(acked WAL offset, node id)` — highest offset wins, ties break to
//! the lowest id — so every elector that sees the same candidate set
//! picks the same winner. The winner bumps its generation and persists
//! it to `repl.meta` **before** going writable (the PR 7 fence: a
//! resurrected stale primary sees `stale_generation` on its next
//! handshake and demotes itself); losers re-point their follower at the
//! winner and grant it a fresh lease window to take over.
//!
//! ## Healing
//!
//! A supervised primary starts **fenced on probation** when it has
//! peers: it must complete one probe round that reaches every peer and
//! finds no senior generation before it accepts writes. The same rule
//! governs un-fencing after a partition heals — a primary that cannot
//! reach every peer stays fenced, because the unreachable peer might be
//! a promoted successor. A primary that *does* find a senior generation
//! (or an equal-generation primary that outranks it — the symmetric
//! dual-promote tiebreak) demotes itself to replica and follows it.

use crate::lock;
use crate::protocol::{get, get_str, get_u64, read_line_capped, LineRead};
use crate::server::MAX_LINE_BYTES;
use crate::service::Service;
use serde_json::Value;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Floor on the configurable lease interval (a zero would spin).
pub const MIN_LEASE_INTERVAL: Duration = Duration::from_millis(10);

/// How long a peer `health` probe may take before the peer counts as
/// unreachable (connect and read each get this budget).
const PROBE_TIMEOUT: Duration = Duration::from_millis(250);

/// Supervision knobs, resolved by `Server::bind` from the CLI flags.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often the primary's stream pings when idle (well, twice as
    /// often — pings flow at `lease_interval / 2` so one lost line
    /// cannot cost a whole window).
    pub lease_interval: Duration,
    /// Missed intervals before the primary self-fences; replicas wait
    /// two more before electing, which orders fence-before-promote.
    pub missed_leases: u32,
    /// Election tiebreak identity; must be unique across the cluster.
    pub node_id: u64,
    /// The address clients and peers should use to reach this node —
    /// carried on the replication stream so followers can hand it out
    /// as `primary_hint`.
    pub advertise: String,
    /// Client-facing addresses of the other cluster members.
    pub peers: Vec<String>,
}

/// Supervision state embedded in the service: lease clocks, cluster
/// topology, and the write fence. Always present, inert until
/// [`Service::begin_supervision`] enables it; the topology fields
/// (`upstream`, `primary_hint`) are maintained even unsupervised so a
/// plain replica can hint misdirected clients at its primary.
pub struct SupervisorState {
    enabled: AtomicBool,
    node_id: AtomicU64,
    lease_interval_ms: AtomicU64,
    missed_leases: AtomicU32,
    advertise: Mutex<Option<String>>,
    peers: Mutex<Vec<String>>,
    /// The address this node's follower loop connects to. Distinct from
    /// `primary_hint`: a follower may reach its primary through a relay
    /// while clients should go direct (or vice versa).
    upstream: Mutex<Option<String>>,
    /// Best known client-facing address of the current primary.
    primary_hint: Mutex<Option<String>>,
    /// Epoch for the millisecond clocks below.
    origin: Instant,
    last_lease_ms: AtomicU64,
    last_replica_contact_ms: AtomicU64,
    had_replica_contact: AtomicBool,
    fenced: AtomicBool,
}

impl Default for SupervisorState {
    fn default() -> Self {
        Self::new()
    }
}

impl SupervisorState {
    pub fn new() -> Self {
        SupervisorState {
            enabled: AtomicBool::new(false),
            node_id: AtomicU64::new(0),
            lease_interval_ms: AtomicU64::new(500),
            missed_leases: AtomicU32::new(3),
            advertise: Mutex::new(None),
            peers: Mutex::new(Vec::new()),
            upstream: Mutex::new(None),
            primary_hint: Mutex::new(None),
            origin: Instant::now(),
            last_lease_ms: AtomicU64::new(0),
            last_replica_contact_ms: AtomicU64::new(0),
            had_replica_contact: AtomicBool::new(false),
            fenced: AtomicBool::new(false),
        }
    }

    fn now_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    /// Install the config and enable the monitor loops.
    pub fn configure(&self, config: &SupervisorConfig) {
        self.node_id.store(config.node_id, Ordering::SeqCst);
        self.lease_interval_ms.store(
            (config.lease_interval.max(MIN_LEASE_INTERVAL).as_millis() as u64).max(1),
            Ordering::SeqCst,
        );
        self.missed_leases
            .store(config.missed_leases.max(1), Ordering::SeqCst);
        *lock(&self.advertise) = Some(config.advertise.clone());
        *lock(&self.peers) = config.peers.clone();
        self.note_lease();
        self.enabled.store(true, Ordering::SeqCst);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    pub fn node_id(&self) -> u64 {
        self.node_id.load(Ordering::SeqCst)
    }

    pub fn lease_interval(&self) -> Duration {
        Duration::from_millis(self.lease_interval_ms.load(Ordering::SeqCst)).max(MIN_LEASE_INTERVAL)
    }

    pub fn missed_leases(&self) -> u32 {
        self.missed_leases.load(Ordering::SeqCst).max(1)
    }

    /// Silence after which a primary fences itself.
    pub fn fence_window(&self) -> Duration {
        self.lease_interval() * self.missed_leases()
    }

    /// Silence after which a replica elects — strictly wider than the
    /// fence window, so a partitioned primary is fenced before any
    /// replica can go writable.
    pub fn promote_window(&self) -> Duration {
        self.lease_interval() * (self.missed_leases() + 2)
    }

    /// A heartbeat arrived from the primary (hello/snapshot/record/ping).
    pub fn note_lease(&self) {
        self.last_lease_ms.store(self.now_ms(), Ordering::SeqCst);
    }

    pub fn lease_age(&self) -> Duration {
        Duration::from_millis(
            self.now_ms()
                .saturating_sub(self.last_lease_ms.load(Ordering::SeqCst)),
        )
    }

    /// A replica acked (primary side).
    pub fn note_replica_contact(&self) {
        self.had_replica_contact.store(true, Ordering::SeqCst);
        self.last_replica_contact_ms
            .store(self.now_ms(), Ordering::SeqCst);
    }

    /// How long since any replica acked; `None` before the first
    /// contact (a primary that never had replicas does not fence).
    pub fn replica_silence(&self) -> Option<Duration> {
        if !self.had_replica_contact.load(Ordering::SeqCst) {
            return None;
        }
        Some(Duration::from_millis(self.now_ms().saturating_sub(
            self.last_replica_contact_ms.load(Ordering::SeqCst),
        )))
    }

    pub fn advertise(&self) -> Option<String> {
        lock(&self.advertise).clone()
    }

    pub fn peers(&self) -> Vec<String> {
        lock(&self.peers).clone()
    }

    pub fn set_upstream(&self, addr: Option<String>) {
        *lock(&self.upstream) = addr;
    }

    pub fn upstream(&self) -> Option<String> {
        lock(&self.upstream).clone()
    }

    pub fn set_primary_hint(&self, addr: Option<String>) {
        *lock(&self.primary_hint) = addr;
    }

    /// Best known primary address for client redirects, falling back to
    /// the follow target (a plain replica knows at least its upstream).
    pub fn primary_hint(&self) -> Option<String> {
        lock(&self.primary_hint).clone().or_else(|| self.upstream())
    }

    pub fn fenced(&self) -> bool {
        self.fenced.load(Ordering::SeqCst)
    }

    pub fn set_fenced(&self, fenced: bool) {
        self.fenced.store(fenced, Ordering::SeqCst);
    }

    /// This node just became the primary: drop the fence, forget the
    /// old upstream, hint clients here, and re-arm the replica-contact
    /// probation (silence only counts from the first new follower).
    pub fn on_promoted(&self) {
        self.set_fenced(false);
        self.set_upstream(None);
        let advertise = self.advertise();
        self.set_primary_hint(advertise);
        self.had_replica_contact.store(false, Ordering::SeqCst);
    }
}

/// What a peer's `health` op reported (the probe's view of a node).
#[derive(Debug, Clone)]
pub struct PeerHealth {
    pub role_primary: bool,
    pub generation: u64,
    /// Acked WAL offset in remote coordinates — the election rank.
    pub offset: u64,
    pub node_id: u64,
    pub fenced: bool,
    pub advertise: Option<String>,
}

/// One blocking `health` round-trip with hard timeouts. `None` means
/// unreachable (refused, timed out, or spoke garbage, including a reply
/// line over [`MAX_LINE_BYTES`], which is not read past the cap).
pub fn probe_health(addr: &str, timeout: Duration) -> Option<PeerHealth> {
    let sock: SocketAddr = addr.to_socket_addrs().ok()?.next()?;
    let stream = TcpStream::connect_timeout(&sock, timeout).ok()?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout)).ok()?;
    stream.set_write_timeout(Some(timeout)).ok()?;
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"{\"op\":\"health\",\"id\":0}\n").ok()?;
    writer.flush().ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    if read_line_capped(&mut reader, &mut line, MAX_LINE_BYTES).ok()? == LineRead::TooLong {
        return None;
    }
    let value: Value = serde_json::from_str(std::str::from_utf8(&line).ok()?).ok()?;
    let data = get(&value, "data")?;
    Some(PeerHealth {
        role_primary: get_str(data, "role") == Some("primary"),
        generation: get_u64(data, "generation").unwrap_or(0),
        offset: get_u64(data, "repl_offset").unwrap_or(0),
        node_id: get_u64(data, "node_id").unwrap_or(u64::MAX),
        fenced: matches!(get(data, "fenced"), Some(Value::Bool(true))),
        advertise: get_str(data, "advertise").map(str::to_string),
    })
}

/// The election order over `(acked offset, node id)` pairs: the highest
/// offset wins (most acked history survives), ties break to the lowest
/// id. Total, and computed identically by every elector.
pub fn ranks_higher(candidate: (u64, u64), incumbent: (u64, u64)) -> bool {
    candidate.0 > incumbent.0 || (candidate.0 == incumbent.0 && candidate.1 < incumbent.1)
}

/// The monitor loop: ticks at half the lease interval, running the
/// replica- or primary-side checks for the node's current role (the
/// role can flip either way mid-life). Returns when `stop` is raised.
pub fn run_supervisor(service: Arc<Service>, stop: Arc<AtomicBool>) {
    let sup = service.supervision();
    if !sup.enabled() {
        return;
    }
    // A replica that boots against an already-dead primary never gets a
    // first heartbeat; start the lease clock now so it still elects.
    sup.note_lease();
    while !stop.load(Ordering::SeqCst) {
        let tick = (sup.lease_interval() / 2).max(MIN_LEASE_INTERVAL);
        sleep_poll(tick, &stop);
        if stop.load(Ordering::SeqCst) {
            return;
        }
        if service.replication().is_replica() {
            replica_tick(&service);
        } else {
            primary_tick(&service);
        }
    }
}

fn sleep_poll(total: Duration, stop: &Arc<AtomicBool>) {
    let slice = Duration::from_millis(5);
    let start = Instant::now();
    while start.elapsed() < total && !stop.load(Ordering::SeqCst) {
        std::thread::sleep(slice.min(total));
    }
}

/// Replica side: if the lease expired, double-check the primary over a
/// direct probe (the stream may be slow, not dead), then elect.
fn replica_tick(service: &Arc<Service>) {
    let sup = service.supervision();
    if sup.lease_age() < sup.promote_window() {
        return;
    }
    if let Some(upstream) = sup.upstream() {
        if let Some(h) = probe_health(&upstream, PROBE_TIMEOUT) {
            if h.role_primary && h.generation >= service.replication().generation() && !h.fenced {
                // The primary is alive and writable; only the stream is
                // ailing. Renew and let the follower's backoff reconnect.
                sup.note_lease();
                return;
            }
        }
    }
    elect(service);
}

/// One election round. Probes every peer; a live unfenced primary at
/// our generation or newer short-circuits the vote (someone already
/// won — follow it). Otherwise the highest-ranked reachable candidate
/// wins: us, by promoting; a peer, by re-pointing our follower at it.
fn elect(service: &Arc<Service>) {
    let sup = service.supervision();
    let repl = service.replication();
    service.metrics.record_sup_election();
    let mut best = (repl.remote_cursor(), sup.node_id());
    let mut winner: Option<(String, Option<String>)> = None;
    for peer in sup.peers() {
        let Some(h) = probe_health(&peer, PROBE_TIMEOUT) else {
            continue;
        };
        if h.role_primary {
            if h.generation >= repl.generation() && !h.fenced {
                let hint = h.advertise.clone().unwrap_or_else(|| peer.clone());
                sup.set_upstream(Some(peer));
                sup.set_primary_hint(Some(hint));
                sup.note_lease();
                return;
            }
            // A fenced or stale primary is not a candidate.
            continue;
        }
        if ranks_higher((h.offset, h.node_id), best) {
            best = (h.offset, h.node_id);
            winner = Some((peer, h.advertise));
        }
    }
    match winner {
        None => {
            // Nobody reachable outranks us: take over. The generation
            // bump is durable before the role flips writable.
            if service.promote_to_primary().is_ok() {
                service.metrics.record_sup_promotion();
            } else {
                // Meta persist failed — stay a replica and retry on the
                // next tick rather than go writable unfenced.
                sup.note_lease();
            }
        }
        Some((addr, advertise)) => {
            let hint = advertise.unwrap_or_else(|| addr.clone());
            sup.set_upstream(Some(addr));
            sup.set_primary_hint(Some(hint));
            // Grant the winner a full window to bump and take over.
            sup.note_lease();
        }
    }
}

/// Primary side: fence on replica silence, demote under a senior
/// generation, and un-fence only when the whole peer list is reachable
/// and quiet — an unreachable peer might be a promoted successor.
fn primary_tick(service: &Arc<Service>) {
    let sup = service.supervision();
    let repl = service.replication();
    if let Some(silence) = sup.replica_silence() {
        if silence >= sup.fence_window() && !sup.fenced() {
            sup.set_fenced(true);
            service.metrics.record_sup_fence();
        }
    }
    let peers = sup.peers();
    let mut all_reachable = true;
    let mut senior: Option<(String, Option<String>)> = None;
    for peer in &peers {
        match probe_health(peer, PROBE_TIMEOUT) {
            Some(h) if h.role_primary => {
                let outranked = h.generation > repl.generation()
                    || (h.generation == repl.generation()
                        && !h.fenced
                        && h.node_id < sup.node_id());
                if outranked {
                    senior = Some((peer.clone(), h.advertise));
                }
            }
            Some(_) => {}
            None => all_reachable = false,
        }
    }
    if let Some((addr, advertise)) = senior {
        let hint = advertise.unwrap_or_else(|| addr.clone());
        service.demote_to_replica(Some((addr, hint)));
        service.metrics.record_sup_demotion();
        return;
    }
    if sup.fenced() && all_reachable {
        let quiet = match sup.replica_silence() {
            None => true, // probation: no follower yet, nothing to lose a lease to
            Some(s) => s < sup.fence_window(),
        };
        if quiet {
            sup.set_fenced(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranking_prefers_offset_then_lowest_id() {
        // More acked history always wins…
        assert!(ranks_higher((100, 9), (50, 1)));
        assert!(!ranks_higher((50, 1), (100, 9)));
        // …ties break to the lowest node id…
        assert!(ranks_higher((100, 1), (100, 2)));
        assert!(!ranks_higher((100, 2), (100, 1)));
        // …and a candidate never outranks itself.
        assert!(!ranks_higher((100, 1), (100, 1)));
    }

    #[test]
    fn windows_order_fence_before_promote() {
        let sup = SupervisorState::new();
        sup.configure(&SupervisorConfig {
            lease_interval: Duration::from_millis(100),
            missed_leases: 3,
            node_id: 7,
            advertise: "127.0.0.1:7411".to_string(),
            peers: vec![],
        });
        assert_eq!(sup.fence_window(), Duration::from_millis(300));
        assert_eq!(sup.promote_window(), Duration::from_millis(500));
        assert!(sup.fence_window() < sup.promote_window());
        // Degenerate knobs are clamped, and the ordering survives.
        sup.configure(&SupervisorConfig {
            lease_interval: Duration::from_millis(0),
            missed_leases: 0,
            node_id: 7,
            advertise: "127.0.0.1:7411".to_string(),
            peers: vec![],
        });
        assert!(sup.lease_interval() >= MIN_LEASE_INTERVAL);
        assert!(sup.fence_window() < sup.promote_window());
    }

    #[test]
    fn lease_and_contact_clocks_track_notes() {
        let sup = SupervisorState::new();
        assert_eq!(sup.replica_silence(), None);
        sup.note_lease();
        assert!(sup.lease_age() < Duration::from_secs(5));
        sup.note_replica_contact();
        let silence = sup.replica_silence().expect("contact noted");
        assert!(silence < Duration::from_secs(5));
    }

    #[test]
    fn hint_falls_back_to_upstream_and_promotion_clears_topology() {
        let sup = SupervisorState::new();
        assert_eq!(sup.primary_hint(), None);
        sup.set_upstream(Some("10.0.0.1:7411".to_string()));
        assert_eq!(sup.primary_hint(), Some("10.0.0.1:7411".to_string()));
        sup.set_primary_hint(Some("10.0.0.2:7411".to_string()));
        assert_eq!(sup.primary_hint(), Some("10.0.0.2:7411".to_string()));
        *lock(&sup.advertise) = Some("10.0.0.3:7411".to_string());
        sup.set_fenced(true);
        sup.on_promoted();
        assert!(!sup.fenced());
        assert_eq!(sup.upstream(), None);
        assert_eq!(sup.primary_hint(), Some("10.0.0.3:7411".to_string()));
        assert_eq!(sup.replica_silence(), None);
    }

    #[test]
    fn probe_reads_no_reply_line_past_the_cap() {
        // A fake peer answers with a valid health reply behind `pad`
        // spaces of leading whitespace: JSON at any length, so only the
        // cap can refuse it.
        const REPLY: &str = r#"{"ok":true,"id":0,"data":{"role":"primary","generation":3,"repl_offset":9,"node_id":4}}"#;
        let probe_padded = |pad: usize| {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap().to_string();
            let peer = std::thread::spawn(move || {
                let (mut stream, _) = listener.accept().unwrap();
                let mut request = Vec::new();
                read_line_capped(&mut BufReader::new(&stream), &mut request, 1024).unwrap();
                let chunk = vec![b' '; 1 << 20];
                let mut left = pad;
                while left > 0 {
                    let n = left.min(chunk.len());
                    if stream.write_all(&chunk[..n]).is_err() {
                        return;
                    }
                    left -= n;
                }
                let _ = stream.write_all(format!("{REPLY}\n").as_bytes());
            });
            let health = probe_health(&addr, Duration::from_secs(10));
            peer.join().unwrap();
            health
        };
        let at_cap = probe_padded(MAX_LINE_BYTES - REPLY.len()).expect("a line at the cap parses");
        assert_eq!(
            (at_cap.generation, at_cap.offset, at_cap.node_id),
            (3, 9, 4)
        );
        assert!(at_cap.role_primary);
        assert!(probe_padded(MAX_LINE_BYTES + 1 - REPLY.len()).is_none());
    }

    #[test]
    fn probe_returns_none_for_unreachable_peers() {
        // Port 1 on localhost is essentially never listening.
        assert!(probe_health("127.0.0.1:1", Duration::from_millis(50)).is_none());
        assert!(probe_health("not an address", Duration::from_millis(50)).is_none());
    }
}
