//! geacc-server: a long-running arrangement service.
//!
//! The batch tools answer "solve this file"; this crate keeps a live
//! [`geacc_core::IncrementalArranger`] resident behind a TCP socket and
//! applies registrations, cancellations, and newly discovered conflicts
//! as localized repairs — the serving half of the conflict-aware
//! event-participant arrangement problem. Std-only by design: the
//! listener is `std::net`, the protocol is newline-delimited JSON via
//! the workspace's vendored serde, and the worker pool is plain scoped
//! ownership over `std::sync::mpsc`.
//!
//! - [`server`] — poll-based event loop front end, bounded queue,
//!   worker pool, shutdown drain (see its docs for the threading and
//!   backpressure model).
//! - [`poll`] — the vendored `poll(2)` shim the event loop multiplexes
//!   nonblocking sockets with (std-only, no `libc` dependency).
//! - [`service`] — op handlers over the arranger (`load`, `mutate`,
//!   `query_*`, `solve`, `snapshot`/`restore`, `stats`, `shutdown`).
//! - [`protocol`] — request/response envelopes.
//! - [`metrics`] — atomic counters and the log₂ latency histogram.
//! - [`repl`] — WAL-shipping replication: primary→replica streaming,
//!   generation fencing, snapshot catch-up, promote-based failover.
//! - [`supervisor`] — lease-based automatic failover: heartbeats ride
//!   the replication stream, replicas elect deterministically on lease
//!   expiry, stale primaries self-fence and demote.
//! - [`client`] — a retrying client with idempotency keys and cluster
//!   topology awareness (the CLI and the `replication` bench share it).
//! - [`chaos`] — a deterministic network-chaos proxy for tests.
//!
//! Start one from the CLI (`geacc serve --addr 127.0.0.1:7411`) and
//! drive it with [`RetryClient`] or any newline-JSON speaker; DESIGN.md
//! §10 documents the wire protocol and the mutation/repair semantics,
//! §17 the event loop and epoch-based concurrency model.

// The request path must never panic: a poisoned worker turns into a
// wedged connection, not a structured error. Non-test server code is
// held to that with the lint below (the whole crate compiles with
// `cfg(test)` for unit tests, which keeps test asserts free to unwrap).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod chaos;
pub mod client;
pub mod metrics;
pub mod poll;
pub mod protocol;
pub mod recovery;
pub mod repl;
pub mod server;
pub mod service;
pub mod supervisor;
pub mod wal;

pub use chaos::{ChaosPlan, ChaosProxy, LinePolicy};
pub use client::{ClientConfig, ClientError, ClientStats, RetryClient};
pub use metrics::{LatencyHistogram, MetricsSnapshot, Op, ServerMetrics};
pub use protocol::{Request, ServiceError};
pub use recovery::{recover, Recovery, RecoveryError};
pub use repl::{ReplMeta, ReplState};
pub use server::{Server, ServerConfig};
pub use service::Service;
pub use supervisor::{SupervisorConfig, SupervisorState};
pub use wal::{FsyncPolicy, WalRecord, WalWriter};

/// Lock `mutex`, recovering the guard if a panicking thread poisoned
/// it: the panic was already caught and answered as a structured
/// `internal` error, so every later request keeps serving instead of
/// wedging on the poison.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}
