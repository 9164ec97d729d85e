//! Durability benchmark for `geacc-server`: what the WAL costs on the
//! mutate hot path, and what recovery costs at boot.
//!
//! Two phases:
//!
//! 1. **Steady mutate throughput** over real loopback TCP at three
//!    durability settings — WAL off, `--fsync never` (append only, the
//!    OS flushes), and `--fsync always` (fsync before every ack). The
//!    spread is the price of each durability level on the same
//!    request stream.
//! 2. **Recovery time** for a ≥10k-record log: a cold full replay, and
//!    the snapshot fast path over the same directory (resume + empty
//!    tail). The gap is what `--snapshot-every` buys at boot.
//!
//! Results land in `BENCH_durability.json` (or `--out <path>`).
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin durability
//! cargo run -p geacc-bench --release --bin durability -- --quick
//! ```

use geacc_bench::cli;
use geacc_core::{DynamicConfig, Instance, Mutation, Side};
use geacc_datagen::SyntheticConfig;
use geacc_server::recovery;
use geacc_server::wal::{self, FsyncPolicy, WalRecord, WalWriter};
use geacc_server::{protocol, Server, ServerConfig};
use serde::Serialize;
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Snapshot {
    host_parallelism: usize,
    command: String,
    note: String,
    instance: String,
    steady: Vec<SteadyRun>,
    recovery: RecoveryRun,
}

/// One durability setting's serial mutate throughput.
#[derive(Serialize)]
struct SteadyRun {
    config: String,
    mutations: usize,
    wall_seconds: f64,
    throughput_rps: f64,
    /// WAL records the server reported at shutdown (0 with the WAL off).
    wal_records: u64,
    /// Explicit fsyncs the writer issued (≈ mutations under `always`).
    fsyncs: u64,
}

#[derive(Serialize)]
struct RecoveryRun {
    /// Records in the log (1 load + N mutations).
    wal_records: u64,
    wal_bytes: u64,
    /// Cold boot: full WAL replay, no snapshot.
    full_replay_ms: f64,
    /// Same directory after a snapshot rotation: resume + empty tail.
    snapshot_fast_path_ms: f64,
    /// Tail records the fast path replayed (0 here — the snapshot is
    /// cut at the log's end).
    fast_path_replayed: u64,
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to bench server");
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn call(&mut self, line: &str) -> Value {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed).unwrap();
        self.writer.flush().unwrap();
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        serde_json::from_str(response.trim()).expect("response is JSON")
    }
}

fn is_ok(response: &Value) -> bool {
    protocol::get(response, "ok") == Some(&Value::Bool(true))
}

fn bench_instance() -> Instance {
    SyntheticConfig {
        num_events: 20,
        num_users: 200,
        seed: 42,
        ..Default::default()
    }
    .generate()
}

/// The mutate stream: capacity churn that always applies, so every run
/// acks the same work.
fn mutation_line(i: usize, num_users: usize) -> String {
    format!(
        r#"{{"op": "mutate", "mutation": {{"SetCapacity": {{"side": "User", "id": {}, "capacity": {}}}}}}}"#,
        i % num_users,
        1 + i % 8
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("geacc-bench-durability")
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Serial mutate throughput against an in-process server at one
/// durability setting.
fn steady_run(label: &str, wal_dir: Option<PathBuf>, fsync: FsyncPolicy, n: usize) -> SteadyRun {
    let inst = bench_instance();
    let num_users = inst.num_users();
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        default_timeout_ms: 60_000,
        wal_dir,
        fsync,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr);
    let loaded = client.call(&format!(
        r#"{{"op": "load", "instance": {}}}"#,
        serde_json::to_string(&inst).unwrap()
    ));
    assert!(is_ok(&loaded), "load failed: {loaded:?}");

    let started = Instant::now();
    for i in 0..n {
        let response = client.call(&mutation_line(i, num_users));
        assert!(is_ok(&response), "mutate {i} failed: {response:?}");
    }
    let wall = started.elapsed().as_secs_f64();

    client.call(r#"{"op": "shutdown"}"#);
    let metrics = handle.join().expect("server thread");

    SteadyRun {
        config: label.to_string(),
        mutations: n,
        wall_seconds: wall,
        throughput_rps: n as f64 / wall,
        wal_records: metrics.wal_records,
        fsyncs: metrics.fsyncs,
    }
}

/// Build a log of 1 load + `n` mutations directly through the WAL
/// writer, then time a cold full-replay boot and the snapshot fast
/// path over the same directory.
fn recovery_run(dir: &Path, n: usize) -> RecoveryRun {
    let inst = bench_instance();
    let num_users = inst.num_users();
    let mut writer =
        WalWriter::open(&recovery::wal_path(dir), FsyncPolicy::Never, 0, 0).expect("open WAL");
    writer
        .append(&WalRecord::Load {
            instance: inst.clone(),
        })
        .unwrap();
    for i in 0..n {
        writer
            .append(&WalRecord::Mutation {
                mutation: Mutation::SetCapacity {
                    side: Side::User,
                    id: (i % num_users) as u32,
                    capacity: 1 + (i % 8) as u32,
                },
            })
            .unwrap();
    }
    writer.sync_now().unwrap();
    let (wal_records, wal_bytes) = (writer.records(), writer.offset());
    drop(writer);

    let config = DynamicConfig {
        rebuild_drift_ratio: 0.2,
    };
    let started = Instant::now();
    let cold = recovery::recover(dir, config).expect("cold recovery");
    let full_replay_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(!cold.snapshot_used);
    assert_eq!(cold.replayed, wal_records);
    let session = cold.session.expect("recovered session");
    let arranger = &session.arranger;

    // Rotate a snapshot at the log's end, as `--snapshot-every` would.
    let doc = session.snapshot_doc(cold.wal_offset, cold.wal_records);
    wal::write_snapshot(&recovery::snapshot_path(dir), &doc).expect("write snapshot");

    let started = Instant::now();
    let fast = recovery::recover(dir, config).expect("fast-path recovery");
    let snapshot_fast_path_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(fast.snapshot_used, "snapshot fast path must engage");
    let recovered = fast.session.expect("fast-path session");
    assert_eq!(recovered.arranger.epoch(), arranger.epoch());
    assert_eq!(
        recovered.arranger.max_sum().to_bits(),
        arranger.max_sum().to_bits(),
        "fast path must reproduce the replayed state bit-for-bit"
    );

    RecoveryRun {
        wal_records,
        wal_bytes,
        full_replay_ms,
        snapshot_fast_path_ms,
        fast_path_replayed: fast.replayed,
    }
}

fn main() {
    let quick = cli::has_flag("quick");
    let out = cli::flag_value("out").unwrap_or_else(|| "BENCH_durability.json".to_string());

    let steady_n = if quick { 300 } else { 2000 };
    let recovery_n = if quick { 2000 } else { 10_000 };

    // Untimed warmup so the first measured config doesn't absorb
    // process-wide start-up costs (paging, allocator growth).
    eprintln!("durability: warmup");
    let _ = steady_run("warmup", None, FsyncPolicy::Never, steady_n / 4);

    let mut steady = Vec::new();
    for (label, wal, fsync) in [
        ("wal_off", false, FsyncPolicy::Never),
        ("fsync_never", true, FsyncPolicy::Never),
        ("fsync_always", true, FsyncPolicy::Always),
    ] {
        let dir = wal.then(|| tmp_dir(&format!("steady-{label}")));
        eprintln!("durability: steady phase {label} ({steady_n} mutations)");
        let run = steady_run(label, dir.clone(), fsync, steady_n);
        eprintln!(
            "durability: {label}: {:.0} mutate/s ({} fsyncs)",
            run.throughput_rps, run.fsyncs
        );
        steady.push(run);
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    eprintln!("durability: recovery phase (1 load + {recovery_n} mutations)");
    let dir = tmp_dir("recovery");
    let recovery = recovery_run(&dir, recovery_n);
    std::fs::remove_dir_all(&dir).ok();
    eprintln!(
        "durability: full replay {:.1} ms, snapshot fast path {:.1} ms ({} records, {} KiB)",
        recovery.full_replay_ms,
        recovery.snapshot_fast_path_ms,
        recovery.wal_records,
        recovery.wal_bytes / 1024
    );

    let snapshot = Snapshot {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        command: if quick {
            "cargo run -p geacc-bench --release --bin durability -- --quick".to_string()
        } else {
            "cargo run -p geacc-bench --release --bin durability".to_string()
        },
        note: "Serial mutate round-trips over loopback TCP; recovery timed in-process. \
               Throughput is RTT-dominated, so wal_off and fsync_never sit within noise \
               of each other; fsync cost depends on the backing filesystem."
            .to_string(),
        instance: "synthetic 20x200 (seed 42)".to_string(),
        steady,
        recovery,
    };
    let mut json = serde_json::to_string_pretty(&snapshot).expect("serialize snapshot");
    json.push('\n');
    std::fs::write(&out, json).expect("write snapshot");
    eprintln!("durability: wrote {out}");
}
