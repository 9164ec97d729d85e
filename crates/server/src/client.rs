//! A reusable retrying client for the line protocol.
//!
//! Backs both the CLI (`geacc promote`, ad-hoc ops) and the
//! `replication` bench. Handles per-request deadlines, reconnects on transport
//! errors, jittered exponential backoff on `overloaded` and connect
//! failures (a server `retry_after_ms` hint replaces the exponential
//! outright — the server knows its drain rate better than a guess
//! doubling does), and stamps
//! every mutation with a `(client_id, seq)` idempotency key so a retry
//! after an ambiguous failure cannot double-apply server-side.
//!
//! ## Topology awareness
//!
//! The client remembers its configured address as the **seed** and
//! treats the address it currently talks to as mutable cluster state:
//!
//! - A `read_only`, `stale_generation`, or `lease_lost` rejection
//!   carrying a `primary_hint` re-points the client at the hinted
//!   address immediately (no backoff) and the request is retried there.
//! - The same rejections without a usable hint — and any transport
//!   error — fall back to the seed address with backoff; during a
//!   failover the seed is often a replica that learns the winner first
//!   and redirects us.
//! - After every fresh connect the client pre-flights a `health` probe:
//!   if the node answers as a replica that knows its primary, the
//!   client follows the hint before sending the real request, so a
//!   mutation is never burned discovering topology.
//!
//! Combined with idempotency keys this makes a retry that straddles a
//! failover safe: the resent `(client_id, seq)` lands on the promoted
//! replica, whose dedup table (shipped via the WAL) suppresses the
//! double-apply.

use crate::protocol::{get, get_str, get_u64};
use serde_json::Value;
use std::fmt;
use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Tunables for [`RetryClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    pub connect_timeout: Duration,
    /// Overall per-logical-request deadline, across all retries.
    pub request_timeout: Duration,
    /// Maximum retry attempts after the first try.
    pub max_retries: u32,
    pub backoff_base: Duration,
    pub backoff_cap: Duration,
    /// Seed for deterministic jitter.
    pub seed: u64,
    /// Idempotency namespace; `(client_id, seq)` keys mutations.
    pub client_id: String,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(1),
            request_timeout: Duration::from_secs(5),
            max_retries: 8,
            backoff_base: Duration::from_millis(20),
            backoff_cap: Duration::from_millis(500),
            seed: 0x2545_f491_4f6c_dd1d,
            client_id: format!("client-{}", std::process::id()),
        }
    }
}

/// Counters a caller can surface (the failover tests assert on them).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Logical requests issued.
    pub requests: u64,
    /// Individual resend attempts beyond each request's first try.
    pub retries: u64,
    /// Connections (re)established.
    pub reconnects: u64,
    /// Logical requests that exhausted retries or their deadline.
    pub failed: u64,
    /// Times the client re-pointed at another node (followed a
    /// `primary_hint` or fell back to the seed address).
    pub redirects: u64,
}

/// Why a logical request failed for good.
#[derive(Debug)]
pub enum ClientError {
    /// Transport gave out and retries were exhausted.
    Io(io::Error),
    /// The overall request deadline passed.
    Timeout,
    /// The server rejected the request with a non-retryable code.
    Rejected { code: String, message: String },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Timeout => write!(f, "request deadline exceeded"),
            ClientError::Rejected { code, message } => write!(f, "{code}: {message}"),
        }
    }
}

impl std::error::Error for ClientError {}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// A line-protocol client with retries, reconnects, and idempotent
/// mutations. Not thread-safe; one per worker thread.
pub struct RetryClient {
    /// Where requests currently go; follows `primary_hint` redirects.
    addr: String,
    /// The configured address — the fallback when the cluster moves out
    /// from under us and we have no better hint.
    seed_addr: String,
    config: ClientConfig,
    conn: Option<Conn>,
    /// Pre-flight the next fresh connection with a `health` probe
    /// before spending a real request on it.
    verify_role: bool,
    rng: u64,
    next_seq: u64,
    next_id: u64,
    stats: ClientStats,
}

enum Attempt {
    Ok(Value),
    /// Retry after at least this hint (server-provided), if any.
    Backoff(Option<u64>),
    Fatal(ClientError),
    Transport,
    /// The node cannot take this write; re-point at the hinted primary
    /// (or the seed, absent a hint) and retry. A fencing node may also
    /// attach `retry_after_ms` (how long until the cluster converges);
    /// it paces the fallback wait exactly like an overload hint.
    Redirect {
        primary: Option<String>,
        retry_after: Option<u64>,
    },
}

impl RetryClient {
    pub fn new(addr: impl Into<String>, config: ClientConfig) -> Self {
        let addr = addr.into();
        RetryClient {
            seed_addr: addr.clone(),
            addr,
            rng: config.seed | 1,
            config,
            conn: None,
            verify_role: false,
            next_seq: 1,
            next_id: 1,
            stats: ClientStats::default(),
        }
    }

    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    pub fn client_id(&self) -> &str {
        &self.config.client_id
    }

    /// The address requests currently go to (may differ from the
    /// configured seed after following redirects across a failover).
    pub fn current_addr(&self) -> &str {
        &self.addr
    }

    /// Issue a read-style request (safe to resend blindly). `body` must
    /// be an object with an `op`; an `id` is stamped in.
    pub fn call(&mut self, body: &Value) -> Result<Value, ClientError> {
        let line = self.stamp(body, None);
        self.dispatch(&line)
    }

    /// Issue a `mutate` carrying an idempotency key: retries resend the
    /// same `(client_id, seq)`, so the server applies at most once.
    pub fn mutate(&mut self, mutation: Value) -> Result<Value, ClientError> {
        let body = Value::Object(vec![
            ("op".to_string(), Value::String("mutate".to_string())),
            ("mutation".to_string(), mutation),
        ]);
        self.mutate_body(&body)
    }

    /// Like [`Self::mutate`] but the caller supplies the full body
    /// (must have `op: "mutate"`); the idempotency key is stamped in.
    pub fn mutate_body(&mut self, body: &Value) -> Result<Value, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let line = self.stamp(body, Some(seq));
        self.dispatch(&line)
    }

    /// Serialize with an `id` (and optionally the idempotency key).
    fn stamp(&mut self, body: &Value, seq: Option<u64>) -> String {
        let id = self.next_id;
        self.next_id += 1;
        let mut fields: Vec<(String, Value)> = match body {
            Value::Object(entries) => entries.clone(),
            other => vec![("op".to_string(), other.clone())],
        };
        fields.retain(|(k, _)| k != "id" && k != "client_id" && k != "seq");
        fields.push((
            "id".to_string(),
            serde_json::to_value(&id).unwrap_or(Value::Null),
        ));
        if let Some(seq) = seq {
            fields.push((
                "client_id".to_string(),
                Value::String(self.config.client_id.clone()),
            ));
            fields.push((
                "seq".to_string(),
                serde_json::to_value(&seq).unwrap_or(Value::Null),
            ));
        }
        let mut line = serde_json::to_string(&Value::Object(fields)).unwrap_or_default();
        line.push('\n');
        line
    }

    fn dispatch(&mut self, line: &str) -> Result<Value, ClientError> {
        self.stats.requests += 1;
        let deadline = Instant::now() + self.config.request_timeout;
        let mut attempts: u32 = 0;
        loop {
            if Instant::now() >= deadline {
                self.stats.failed += 1;
                return Err(ClientError::Timeout);
            }
            match self.try_once(line, deadline) {
                Attempt::Ok(data) => return Ok(data),
                Attempt::Fatal(e) => {
                    self.stats.failed += 1;
                    return Err(e);
                }
                Attempt::Backoff(hint) => {
                    if attempts >= self.config.max_retries {
                        self.stats.failed += 1;
                        return Err(ClientError::Timeout);
                    }
                    attempts += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(attempts, hint, deadline);
                }
                Attempt::Transport => {
                    self.conn = None;
                    if attempts >= self.config.max_retries {
                        self.stats.failed += 1;
                        return Err(ClientError::Io(io::Error::new(
                            ErrorKind::BrokenPipe,
                            "retries exhausted",
                        )));
                    }
                    // The node we were on may be gone for good (a killed
                    // primary); re-resolve from the seed, whose health
                    // probe will redirect us to whoever got promoted.
                    if self.addr != self.seed_addr {
                        self.addr = self.seed_addr.clone();
                        self.stats.redirects += 1;
                    }
                    self.verify_role = true;
                    attempts += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(attempts, None, deadline);
                }
                Attempt::Redirect {
                    primary,
                    retry_after,
                } => {
                    self.conn = None;
                    if attempts >= self.config.max_retries {
                        self.stats.failed += 1;
                        return Err(ClientError::Timeout);
                    }
                    attempts += 1;
                    self.stats.retries += 1;
                    match primary {
                        // A fresh hint pointing elsewhere: follow it
                        // immediately, no backoff — the hinted node is
                        // (claimed to be) ready right now.
                        Some(h) if h != self.addr => {
                            self.addr = h;
                            self.verify_role = true;
                            self.stats.redirects += 1;
                        }
                        // Hint is where we already are (or absent): the
                        // cluster is still converging. Fall back to the
                        // seed, pacing the wait on the server's
                        // `retry_after_ms` when it sent one.
                        _ => {
                            if self.addr != self.seed_addr {
                                self.addr = self.seed_addr.clone();
                                self.stats.redirects += 1;
                            }
                            self.verify_role = true;
                            self.sleep_backoff(attempts, retry_after, deadline);
                        }
                    }
                }
            }
        }
    }

    fn try_once(&mut self, line: &str, deadline: Instant) -> Attempt {
        if self.conn.is_none() {
            match self.open() {
                Ok(conn) => {
                    self.conn = Some(conn);
                    self.stats.reconnects += 1;
                }
                Err(_) => return Attempt::Transport,
            }
            if self.verify_role {
                if let Some(attempt) = self.preflight(deadline) {
                    return attempt;
                }
            }
        }
        let envelope = match self.round_trip(line.as_bytes(), deadline) {
            Ok(envelope) => envelope,
            Err(attempt) => return attempt,
        };
        match get(&envelope, "ok") {
            Some(Value::Bool(true)) => {
                let data = get(&envelope, "data").cloned().unwrap_or(Value::Null);
                Attempt::Ok(data)
            }
            Some(Value::Bool(false)) => {
                let error = get(&envelope, "error");
                let code = error.and_then(|e| get_str(e, "code")).unwrap_or("internal");
                match code {
                    "overloaded" => {
                        let hint = error.and_then(|e| get_u64(e, "retry_after_ms"));
                        Attempt::Backoff(hint)
                    }
                    "shutting_down" => Attempt::Backoff(None),
                    // The node can't take this request but the cluster
                    // as a whole can: follow its hint to the primary,
                    // keeping any pacing hint alongside it.
                    "read_only" | "stale_generation" | "lease_lost" => Attempt::Redirect {
                        primary: error
                            .and_then(|e| get_str(e, "primary_hint"))
                            .map(str::to_string),
                        retry_after: error.and_then(|e| get_u64(e, "retry_after_ms")),
                    },
                    _ => Attempt::Fatal(ClientError::Rejected {
                        code: code.to_string(),
                        message: error
                            .and_then(|e| get_str(e, "message"))
                            .unwrap_or("")
                            .to_string(),
                    }),
                }
            }
            _ => Attempt::Transport,
        }
    }

    /// One `health` round trip on a fresh connection: if the node
    /// answers as a replica that knows its primary, return a redirect
    /// so the real request is never burned discovering topology.
    /// Returns `None` when the node is fine to use as-is.
    fn preflight(&mut self, deadline: Instant) -> Option<Attempt> {
        let envelope = match self.round_trip(b"{\"op\":\"health\",\"id\":0}\n", deadline) {
            Ok(envelope) => envelope,
            Err(attempt) => return Some(attempt),
        };
        self.verify_role = false;
        if let Some(data) = get(&envelope, "data") {
            if get_str(data, "role") == Some("replica") {
                if let Some(hint) = get_str(data, "primary_hint") {
                    if hint != self.addr {
                        return Some(Attempt::Redirect {
                            primary: Some(hint.to_string()),
                            retry_after: None,
                        });
                    }
                }
            }
        }
        None
    }

    /// Write one request line on the open connection and read back its
    /// response envelope. Past `deadline` the connection is abandoned: a
    /// late response on it would desynchronize request/response pairing.
    fn round_trip(&mut self, line: &[u8], deadline: Instant) -> Result<Value, Attempt> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(Attempt::Transport);
        };
        if conn
            .writer
            .write_all(line)
            .and_then(|_| conn.writer.flush())
            .is_err()
        {
            return Err(Attempt::Transport);
        }
        let mut response = String::new();
        loop {
            if Instant::now() >= deadline {
                self.conn = None;
                return Err(Attempt::Fatal(ClientError::Timeout));
            }
            response.clear();
            match conn.reader.read_line(&mut response) {
                Ok(0) => return Err(Attempt::Transport),
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue
                }
                Err(_) => return Err(Attempt::Transport),
            }
        }
        serde_json::from_str(&response).map_err(|_| Attempt::Transport)
    }

    fn open(&self) -> io::Result<Conn> {
        let addrs: Vec<SocketAddr> = self.addr.to_socket_addrs()?.collect();
        let addr = addrs
            .first()
            .ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(addr, self.config.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_millis(100)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn sleep_backoff(&mut self, attempt: u32, hint: Option<u64>, deadline: Instant) {
        // An explicit `retry_after_ms` takes precedence over the
        // generic exponential: the server measured how long it needs,
        // so the first retry waits exactly that (plus upward jitter to
        // spread a retry herd) — whether it is shorter or longer than
        // the exponential would have been. Consecutive rejections
        // double the hint, because a repeat means the server's own
        // estimate was optimistic; the cap still bounds escalation
        // unless the hint itself is larger.
        let cap = self.config.backoff_cap.as_millis() as u64;
        let ms = match hint {
            Some(h) => {
                let h = h.max(1);
                let scaled = h
                    .saturating_mul(1u64 << attempt.saturating_sub(1).min(5))
                    .min(cap.max(h));
                scaled + self.roll() % (h / 2 + 1)
            }
            None => {
                let base = self.config.backoff_base.as_millis() as u64;
                let exp = base.saturating_mul(1u64 << attempt.min(5)).min(cap).max(1);
                exp / 2 + self.roll() % (exp / 2 + 1)
            }
        };
        let wait = Duration::from_millis(ms);
        let remaining = deadline.saturating_duration_since(Instant::now());
        std::thread::sleep(wait.min(remaining));
    }

    fn roll(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn stamp_injects_id_and_idempotency_key() {
        let mut client = RetryClient::new(
            "127.0.0.1:1",
            ClientConfig {
                client_id: "c-test".to_string(),
                ..ClientConfig::default()
            },
        );
        let body = json!({"op": "mutate", "mutation": {"x": 1}});
        let line = client.stamp(&body, Some(7));
        let v: Value = serde_json::from_str(line.trim()).unwrap();
        assert_eq!(get_str(&v, "op"), Some("mutate"));
        assert_eq!(get_str(&v, "client_id"), Some("c-test"));
        assert_eq!(get_u64(&v, "seq"), Some(7));
        assert!(get_u64(&v, "id").is_some());

        let read = client.stamp(&json!({"op": "stats"}), None);
        let v: Value = serde_json::from_str(read.trim()).unwrap();
        assert!(get(&v, "client_id").is_none());
    }

    #[test]
    fn mutate_increments_seq_once_per_logical_call() {
        let mut client = RetryClient::new("127.0.0.1:1", ClientConfig::default());
        assert_eq!(client.next_seq, 1);
        // The call fails (nothing listening) but must consume one seq.
        let config_retries = client.config.max_retries;
        client.config.max_retries = 0;
        client.config.request_timeout = Duration::from_millis(50);
        let _ = client.mutate(json!({"AddConflict": {"a": 0, "b": 1}}));
        assert_eq!(client.next_seq, 2);
        assert_eq!(client.stats().failed, 1);
        client.config.max_retries = config_retries;
    }

    #[test]
    fn backoff_respects_hint_floor() {
        let mut client = RetryClient::new("127.0.0.1:1", ClientConfig::default());
        let start = Instant::now();
        client.sleep_backoff(1, Some(30), start + Duration::from_secs(2));
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn hint_overrides_the_exponential_in_both_directions() {
        // A small hint beats a large exponential: at attempt 5 the
        // generic backoff would be >= cap/2 = 250 ms, but a 5 ms hint
        // must pace the wait (5..=7 ms + scheduling slop), not the
        // exponential.
        let mut client = RetryClient::new("127.0.0.1:1", ClientConfig::default());
        let start = Instant::now();
        client.sleep_backoff(5, Some(5), start + Duration::from_secs(2));
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "hint should shorten the wait, slept {:?}",
            start.elapsed()
        );

        // And a hint larger than the exponential still floors it: at
        // attempt 1 the generic backoff is at most 40 ms, a 120 ms hint
        // must stretch the wait past it.
        let start = Instant::now();
        client.sleep_backoff(1, Some(120), start + Duration::from_secs(2));
        assert!(start.elapsed() >= Duration::from_millis(120));
    }
}
