//! The serving layer's non-blocking-reads contract, timed over a real
//! TCP socket: while a budgeted exact solve wedges the only worker,
//! synchronous reads answered inline on the event loop keep a p99
//! under 10 ms, and identical concurrent solves coalesce into one batch
//! and complete.
//!
//! This file is a test binary of its own with a single test, so no other
//! test competes for the host's cores while read latency is timed.
//!
//! ```sh
//! cargo test -p geacc-server --test nonblocking_reads
//! ```

mod common;

use common::*;
use geacc_server::ServerConfig;
use std::time::{Duration, Instant};

/// The contract's bound on read p99 while a solve holds the worker.
const READ_P99_CEILING: Duration = Duration::from_millis(10);

/// Small xorshift so the read mix is seeded and replayable.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth: 16,
        default_timeout_ms: 30_000,
        ..ServerConfig::default()
    }
}

#[test]
fn reads_never_queue_behind_a_wedged_worker() {
    // Read half: wedge the single worker with a 2 s budgeted Prune-GEACC
    // solve on the pathological instance, then read synchronously for
    // 75% of that window, so every timed read overlaps the solve.
    let solve_timeout_ms = 2000u64;
    let server = ServerHandle::spawn(config(1));
    ok_data(&Client::connect(&server.addr).call(&pathological_load_line()));

    let mut solver = Client::connect(&server.addr);
    let solve_started = Instant::now();
    solver.send(&format!(
        r#"{{"op": "solve", "id": 1, "algorithm": "prune", "timeout_ms": {solve_timeout_ms}}}"#
    ));
    std::thread::sleep(Duration::from_millis(100));

    let mut reader = Client::connect(&server.addr);
    let mut rng = Stream(0xFACE);
    let mut latencies: Vec<Duration> = Vec::new();
    let read_window = Duration::from_millis(solve_timeout_ms * 3 / 4);
    let read_started = Instant::now();
    while read_started.elapsed() < read_window {
        let line = match rng.next() % 3 {
            0 => format!(r#"{{"op": "query_user", "user": {}}}"#, rng.next() % 24),
            1 => format!(r#"{{"op": "query_event", "event": {}}}"#, rng.next() % 8),
            _ => r#"{"op": "health"}"#.to_string(),
        };
        let sent = Instant::now();
        let response = reader.call(&line);
        latencies.push(sent.elapsed());
        ok_data(&response);
    }
    solver.recv();
    let solve_wall = solve_started.elapsed();
    assert!(
        solve_wall >= Duration::from_millis(solve_timeout_ms * 3 / 4),
        "solve finished too early ({solve_wall:?}) to prove anything about overlap"
    );
    latencies.sort_unstable();
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    eprintln!(
        "{} reads during a {solve_wall:?} solve: p50 {:?}, p99 {p99:?}",
        latencies.len(),
        latencies[latencies.len() / 2]
    );
    assert!(
        p99 < READ_P99_CEILING,
        "read p99 {p99:?} during a solve is not under {READ_P99_CEILING:?}: \
         reads queued behind the wedged worker"
    );
    server.shutdown();

    // Coalescing half: identical solves from separate connections land
    // in one batch run by its leader. Followers block inside a worker
    // while they wait, so the server gets one worker per solver plus
    // one for the opener, whose solve holds the batch gate while the
    // four connect and enqueue.
    let coalesced_solvers = 4usize;
    let server = ServerHandle::spawn(config(coalesced_solvers + 1));
    ok_data(&Client::connect(&server.addr).call(&pathological_load_line()));
    let mut opener = Client::connect(&server.addr);
    opener.send(r#"{"op": "solve", "algorithm": "prune", "timeout_ms": 400}"#);
    std::thread::sleep(Duration::from_millis(50));
    std::thread::scope(|scope| {
        for _ in 0..coalesced_solvers {
            scope.spawn(|| {
                let mut client = Client::connect(&server.addr);
                ok_data(
                    &client.call(r#"{"op": "solve", "algorithm": "prune", "timeout_ms": 2000}"#),
                );
            });
        }
    });
    ok_data(&opener.recv());
    let metrics = server.shutdown();
    assert_eq!(
        metrics.solve_batch_max, coalesced_solvers as u64,
        "the identical solves did not ride one batch: {:?}",
        metrics.solve_batch_sizes
    );
}
