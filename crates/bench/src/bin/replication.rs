//! Replication benchmark for `geacc-server`: steady-state shipping lag
//! and failover time, measured over real TCP sockets.
//!
//! Two phases:
//!
//! 1. **Steady lag** — a primary and a live replica; one client drives
//!    mutations at full speed while a sampler polls the replica's
//!    `health` for `lag_records`/`lag_bytes`. Reports the lag
//!    distribution and the time to converge after the write burst.
//! 2. **Failover** — K rounds of: sync a fresh primary/replica pair,
//!    stop the primary, `promote` the replica, and time until the
//!    promoted node acks its first mutation. Reports the failover-time
//!    distribution.
//! 3. **Unattended failover (MTTR)** — same shape, but *nobody calls
//!    `promote`*: the supervised replica's lease expires, it elects
//!    itself, and a topology-aware client lands the first write.
//!    Reports kill→first-acked-write time, i.e. the self-healing MTTR.
//!
//! Results land in `BENCH_replication.json` (or `--out <path>`).
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin replication
//! cargo run -p geacc-bench --release --bin replication -- --quick
//! ```

use geacc_bench::cli;
use geacc_datagen::SyntheticConfig;
use geacc_server::{protocol, ClientConfig, RetryClient, Server, ServerConfig};
use serde::Serialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Snapshot {
    /// The measured commit, stamped the way perfbench stamps its runs:
    /// `GEACC_BENCH_COMMIT` when set (a checkout without git metadata),
    /// else `git rev-parse HEAD`.
    commit: String,
    /// UTC time the snapshot was taken.
    date: String,
    host_parallelism: usize,
    command: String,
    note: String,
    steady_lag: SteadyLagPhase,
    failover: FailoverPhase,
    unattended_failover: UnattendedPhase,
}

#[derive(Serialize)]
struct SteadyLagPhase {
    instance: String,
    mutations: usize,
    wall_seconds: f64,
    mutations_per_second: f64,
    lag_samples: usize,
    lag_records: Quantiles,
    lag_bytes: Quantiles,
    converge_ms_after_burst: u64,
    replica_records_applied: u64,
}

#[derive(Serialize)]
struct FailoverPhase {
    rounds: usize,
    records_per_round: usize,
    failover_ms: Quantiles,
    promote_generation_max: u64,
}

#[derive(Serialize)]
struct UnattendedPhase {
    rounds: usize,
    records_per_round: usize,
    lease_interval_ms: u64,
    missed_leases: u32,
    /// Kill → first acked write on the self-promoted replica, with no
    /// human `promote` anywhere in the loop.
    mttr_ms: Quantiles,
    promote_generation_max: u64,
}

#[derive(Serialize)]
struct Quantiles {
    p50: u64,
    p95: u64,
    max: u64,
}

impl Quantiles {
    fn from_sorted(samples: &mut [u64]) -> Quantiles {
        samples.sort_unstable();
        let q = |p: f64| {
            if samples.is_empty() {
                0
            } else {
                samples[((samples.len() as f64 * p) as usize).min(samples.len() - 1)]
            }
        };
        Quantiles {
            p50: q(0.50),
            p95: q(0.95),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, line: &str) -> Value {
        self.writer.write_all(line.as_bytes()).unwrap();
        self.writer.write_all(b"\n").unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        serde_json::from_str(response.trim()).expect("response is JSON")
    }
}

fn ok_data(response: &Value) -> &Value {
    assert_eq!(
        protocol::get(response, "ok"),
        Some(&Value::Bool(true)),
        "expected success, got {response:?}"
    );
    protocol::get(response, "data").expect("ok response has data")
}

struct Node {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<()>,
}

impl Node {
    fn spawn(config: ServerConfig) -> Node {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || {
            server.run().expect("server run");
        });
        Node { addr, stop, thread }
    }

    /// Stop without a drain handshake — the closest an in-process
    /// primary gets to dying out from under its replicas.
    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }

    fn shutdown(self) {
        if let Ok(stream) = TcpStream::connect(&self.addr) {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let _ = writer.write_all(b"{\"op\": \"shutdown\"}\n");
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        self.stop();
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("geacc-repl-bench").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 64,
        default_timeout_ms: 30_000,
        wal_dir: Some(dir.to_path_buf()),
        fsync: geacc_server::FsyncPolicy::Never,
        ..ServerConfig::default()
    }
}

fn load_line(inst: &geacc_core::Instance) -> String {
    format!(
        r#"{{"op": "load", "instance": {}}}"#,
        serde_json::to_string(inst).unwrap()
    )
}

fn mutation_line(i: usize, nu: usize) -> String {
    format!(
        r#"{{"op": "mutate", "mutation": {{"SetCapacity": {{"side": "User", "id": {}, "capacity": {}}}}}}}"#,
        i % nu,
        1 + (i * 7) % 8
    )
}

fn wait_for<T>(what: &str, timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn health_u64(client: &mut Client, key: &str) -> Option<u64> {
    let h = client.call(r#"{"op": "health"}"#);
    protocol::get_u64(ok_data(&h), key)
}

fn steady_lag_phase(mutations: usize) -> SteadyLagPhase {
    let inst = SyntheticConfig {
        num_events: 20,
        num_users: 200,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let nu = inst.num_users();

    let primary_dir = fresh_dir("lag-primary");
    let replica_dir = fresh_dir("lag-replica");
    let primary = Node::spawn(ServerConfig {
        accept_replicas: true,
        ..durable_config(&primary_dir)
    });
    let replica = Node::spawn(ServerConfig {
        replica_of: Some(primary.addr.clone()),
        ..durable_config(&replica_dir)
    });

    let mut on_replica = Client::connect(&replica.addr);
    wait_for("replica attach", Duration::from_secs(10), || {
        let h = on_replica.call(r#"{"op": "health"}"#);
        (protocol::get(ok_data(&h), "connected") == Some(&Value::Bool(true))).then_some(())
    });

    let mut writer = Client::connect(&primary.addr);
    ok_data(&writer.call(&load_line(&inst)));

    // Writer thread floods mutations; sampler polls the replica's lag.
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler_flag = Arc::clone(&sampling);
    let replica_addr = replica.addr.clone();
    let sampler = std::thread::spawn(move || {
        let mut client = Client::connect(&replica_addr);
        let mut records: Vec<u64> = Vec::new();
        let mut bytes: Vec<u64> = Vec::new();
        while sampler_flag.load(Ordering::SeqCst) {
            let h = client.call(r#"{"op": "health"}"#);
            let data = ok_data(&h);
            if let (Some(r), Some(b)) = (
                protocol::get_u64(data, "lag_records"),
                protocol::get_u64(data, "lag_bytes"),
            ) {
                records.push(r);
                bytes.push(b);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        (records, bytes)
    });

    let started = Instant::now();
    for i in 0..mutations {
        ok_data(&writer.call(&mutation_line(i, nu)));
    }
    let wall = started.elapsed().as_secs_f64();

    // Time from the last ack to a fully caught-up replica.
    let primary_records = health_u64(&mut writer, "epoch");
    let converge_started = Instant::now();
    wait_for("replica convergence", Duration::from_secs(30), || {
        (health_u64(&mut on_replica, "lag_records") == Some(0)
            && health_u64(&mut on_replica, "epoch") == primary_records)
            .then_some(())
    });
    let converge_ms = converge_started.elapsed().as_millis() as u64;

    sampling.store(false, Ordering::SeqCst);
    let (mut lag_records, mut lag_bytes) = sampler.join().expect("sampler thread");
    let samples = lag_records.len();

    let stats = on_replica.call(r#"{"op": "stats"}"#);
    let applied = protocol::get(ok_data(&stats), "server")
        .and_then(|s| protocol::get_u64(s, "repl_records_applied"))
        .unwrap_or(0);

    replica.shutdown();
    primary.shutdown();
    std::fs::remove_dir_all(&primary_dir).ok();
    std::fs::remove_dir_all(&replica_dir).ok();

    SteadyLagPhase {
        instance: "synthetic 20x200 (seed 42)".to_string(),
        mutations,
        wall_seconds: wall,
        mutations_per_second: mutations as f64 / wall,
        lag_samples: samples,
        lag_records: Quantiles::from_sorted(&mut lag_records),
        lag_bytes: Quantiles::from_sorted(&mut lag_bytes),
        converge_ms_after_burst: converge_ms,
        replica_records_applied: applied,
    }
}

fn failover_phase(rounds: usize, records_per_round: usize) -> FailoverPhase {
    let inst = SyntheticConfig {
        num_events: 20,
        num_users: 200,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let nu = inst.num_users();

    let mut failover_ms: Vec<u64> = Vec::with_capacity(rounds);
    let mut generation_max = 0u64;

    for round in 0..rounds {
        let primary_dir = fresh_dir(&format!("failover-primary-{round}"));
        let replica_dir = fresh_dir(&format!("failover-replica-{round}"));
        let primary = Node::spawn(ServerConfig {
            accept_replicas: true,
            ..durable_config(&primary_dir)
        });
        let replica = Node::spawn(ServerConfig {
            replica_of: Some(primary.addr.clone()),
            ..durable_config(&replica_dir)
        });

        let mut writer = Client::connect(&primary.addr);
        ok_data(&writer.call(&load_line(&inst)));
        for i in 0..records_per_round {
            ok_data(&writer.call(&mutation_line(i, nu)));
        }
        let primary_epoch = health_u64(&mut writer, "epoch");

        let mut on_replica = Client::connect(&replica.addr);
        wait_for("replica sync", Duration::from_secs(30), || {
            (health_u64(&mut on_replica, "lag_records") == Some(0)
                && health_u64(&mut on_replica, "epoch") == primary_epoch)
                .then_some(())
        });

        // The failover clock: primary gone → promote → first acked
        // write on the new primary.
        let started = Instant::now();
        primary.stop();
        let promoted = ok_data(&on_replica.call(r#"{"op": "promote"}"#)).clone();
        assert_eq!(
            protocol::get(&promoted, "promoted"),
            Some(&Value::Bool(true))
        );
        generation_max =
            generation_max.max(protocol::get_u64(&promoted, "generation").unwrap_or(0));
        let mut retry = RetryClient::new(
            replica.addr.clone(),
            ClientConfig {
                seed: round as u64 + 1,
                ..ClientConfig::default()
            },
        );
        let mutation: Value =
            serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 5}}"#)
                .unwrap();
        retry
            .mutate(mutation)
            .expect("promoted replica accepts writes");
        failover_ms.push(started.elapsed().as_millis() as u64);

        replica.shutdown();
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }

    FailoverPhase {
        rounds,
        records_per_round,
        failover_ms: Quantiles::from_sorted(&mut failover_ms),
        promote_generation_max: generation_max,
    }
}

fn unattended_failover_phase(rounds: usize, records_per_round: usize) -> UnattendedPhase {
    const LEASE_MS: u64 = 100;
    const MISSED: u32 = 2;
    let inst = SyntheticConfig {
        num_events: 20,
        num_users: 200,
        seed: 42,
        ..Default::default()
    }
    .generate();
    let nu = inst.num_users();

    let mut mttr_ms: Vec<u64> = Vec::with_capacity(rounds);
    let mut generation_max = 0u64;

    for round in 0..rounds {
        let primary_dir = fresh_dir(&format!("unattended-primary-{round}"));
        let replica_dir = fresh_dir(&format!("unattended-replica-{round}"));
        let primary = Node::spawn(ServerConfig {
            accept_replicas: true,
            supervise: true,
            lease_interval_ms: LEASE_MS,
            missed_leases: MISSED,
            node_id: Some(10),
            ..durable_config(&primary_dir)
        });
        let replica = Node::spawn(ServerConfig {
            replica_of: Some(primary.addr.clone()),
            supervise: true,
            lease_interval_ms: LEASE_MS,
            missed_leases: MISSED,
            node_id: Some(1),
            ..durable_config(&replica_dir)
        });

        let mut writer = Client::connect(&primary.addr);
        ok_data(&writer.call(&load_line(&inst)));
        for i in 0..records_per_round {
            ok_data(&writer.call(&mutation_line(i, nu)));
        }
        let primary_epoch = health_u64(&mut writer, "epoch");

        let mut on_replica = Client::connect(&replica.addr);
        wait_for("replica sync", Duration::from_secs(30), || {
            (health_u64(&mut on_replica, "lag_records") == Some(0)
                && health_u64(&mut on_replica, "epoch") == primary_epoch)
                .then_some(())
        });

        // The MTTR clock: primary gone → (lease expiry, self-election,
        // durable generation bump) → first acked write. No `promote`.
        let started = Instant::now();
        primary.stop();
        let mut retry = RetryClient::new(
            replica.addr.clone(),
            ClientConfig {
                request_timeout: Duration::from_secs(30),
                max_retries: 500,
                backoff_cap: Duration::from_millis(50),
                seed: round as u64 + 1,
                ..ClientConfig::default()
            },
        );
        let mutation: Value =
            serde_json::from_str(r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 5}}"#)
                .unwrap();
        retry
            .mutate(mutation)
            .expect("self-promoted replica accepts writes");
        mttr_ms.push(started.elapsed().as_millis() as u64);

        let h = on_replica.call(r#"{"op": "health"}"#);
        generation_max =
            generation_max.max(protocol::get_u64(ok_data(&h), "generation").unwrap_or(0));

        replica.shutdown();
        std::fs::remove_dir_all(&primary_dir).ok();
        std::fs::remove_dir_all(&replica_dir).ok();
    }

    UnattendedPhase {
        rounds,
        records_per_round,
        lease_interval_ms: LEASE_MS,
        missed_leases: MISSED,
        mttr_ms: Quantiles::from_sorted(&mut mttr_ms),
        promote_generation_max: generation_max,
    }
}

/// Trimmed stdout of `program args`, or "unknown" if it cannot run.
fn capture(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn commit() -> String {
    match std::env::var("GEACC_BENCH_COMMIT") {
        Ok(commit) if !commit.is_empty() => commit,
        _ if Path::new(".git").exists() => capture("git", &["rev-parse", "HEAD"]),
        _ => "unknown".into(),
    }
}

fn main() {
    let quick = cli::has_flag("quick");
    let out = cli::flag_value("out").unwrap_or_else(|| "BENCH_replication.json".to_string());

    let mutations = if quick { 300 } else { 2_000 };
    eprintln!("replication: steady-lag phase ({mutations} mutations)");
    let steady_lag = steady_lag_phase(mutations);
    eprintln!(
        "replication: {:.0} mut/s, lag p50 {} records (max {}), converged {} ms after burst",
        steady_lag.mutations_per_second,
        steady_lag.lag_records.p50,
        steady_lag.lag_records.max,
        steady_lag.converge_ms_after_burst
    );

    let (rounds, records) = if quick { (3, 50) } else { (10, 200) };
    eprintln!("replication: failover phase ({rounds} rounds x {records} records)");
    let failover = failover_phase(rounds, records);
    eprintln!(
        "replication: failover p50 {} ms, max {} ms",
        failover.failover_ms.p50, failover.failover_ms.max
    );

    eprintln!("replication: unattended-failover phase ({rounds} rounds x {records} records)");
    let unattended_failover = unattended_failover_phase(rounds, records);
    eprintln!(
        "replication: unattended MTTR p50 {} ms, max {} ms (no promote)",
        unattended_failover.mttr_ms.p50, unattended_failover.mttr_ms.max
    );

    let snapshot = Snapshot {
        commit: commit(),
        date: capture("date", &["-u", "+%Y-%m-%dT%H:%M:%SZ"]),
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        command: if quick {
            "cargo run -p geacc-bench --release --bin replication -- --quick".to_string()
        } else {
            "cargo run -p geacc-bench --release --bin replication".to_string()
        },
        note: "WAL-shipping replication over loopback TCP: health-sampled replica lag \
               during a write flood, promote-to-first-ack failover time, and the \
               unattended (lease-based, no-promote) failover MTTR."
            .to_string(),
        steady_lag,
        failover,
        unattended_failover,
    };
    let mut json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    json.push('\n');
    std::fs::write(&out, json).expect("write snapshot");
    eprintln!("replication: wrote {out}");
}
