//! Scaffolding shared by the end-to-end server tests: a blocking line
//! client, envelope accessors, an in-process server handle, scratch
//! directories, and the fixed request lines the tests replay.

// Each test binary compiles this module and uses a different subset.
#![allow(dead_code)]

use geacc_core::parallel::Threads;
use geacc_server::{
    protocol, FsyncPolicy, MetricsSnapshot, Server, ServerConfig, ServerMetrics, Service,
};
use serde_json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A blocking line-protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Client {
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

    pub fn send(&mut self, line: &str) {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed).unwrap();
        self.writer.flush().unwrap();
    }

    pub fn recv(&mut self) -> Value {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        serde_json::from_str(line.trim()).expect("response is JSON")
    }

    pub fn call(&mut self, line: &str) -> Value {
        self.send(line);
        self.recv()
    }
}

pub fn ok_data(response: &Value) -> &Value {
    assert_eq!(
        protocol::get(response, "ok"),
        Some(&Value::Bool(true)),
        "expected success, got {response:?}"
    );
    protocol::get(response, "data").expect("ok response has data")
}

pub fn err_body(response: &Value) -> &Value {
    assert_eq!(
        protocol::get(response, "ok"),
        Some(&Value::Bool(false)),
        "expected error, got {response:?}"
    );
    protocol::get(response, "error").expect("error body")
}

pub fn err_code(response: &Value) -> &str {
    protocol::get_str(err_body(response), "code").unwrap()
}

/// A bare service without a WAL, for driving `Service::handle` in
/// process.
pub fn service() -> Service {
    Service::new(
        Arc::new(ServerMetrics::default()),
        Arc::new(AtomicBool::new(false)),
        Threads::single(),
        0.2,
    )
}

/// A server running on a thread of the test process.
pub struct ServerHandle {
    pub addr: String,
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<MetricsSnapshot>,
}

impl ServerHandle {
    pub fn spawn(config: ServerConfig) -> ServerHandle {
        let server = Server::bind(config).expect("bind");
        let addr = server.local_addr().unwrap().to_string();
        let stop = server.stop_handle();
        let thread = std::thread::spawn(move || server.run().expect("server run"));
        ServerHandle { addr, stop, thread }
    }

    /// Wait out a server the test already sent `shutdown`.
    pub fn join(self) -> MetricsSnapshot {
        self.thread.join().expect("server thread")
    }

    /// Unannounced death: raise the stop flag without a structured
    /// shutdown — every socket goes dark, nothing is handed over. The
    /// closest an in-process harness gets to `kill -9` (the real
    /// kill -9 run lives in scripts/ci.sh).
    pub fn crash(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.thread.join();
    }

    pub fn shutdown(self) -> MetricsSnapshot {
        // Structured shutdown if the socket still answers, stop flag
        // either way (a fenced replica loop only watches the flag).
        if let Ok(stream) = TcpStream::connect(&self.addr) {
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut writer = stream.try_clone().unwrap();
            let _ = writer.write_all(b"{\"op\": \"shutdown\"}\n");
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
        }
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("server thread")
    }
}

/// A fresh scratch directory, private to this test binary.
pub fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("geacc-{}-tests", env!("CARGO_CRATE_NAME")))
        .join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

pub fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 16,
        default_timeout_ms: 10_000,
        wal_dir: Some(dir.to_path_buf()),
        fsync: FsyncPolicy::Always,
        ..ServerConfig::default()
    }
}

pub fn load_line() -> String {
    let inst = geacc_core::toy::table1_instance();
    format!(
        r#"{{"op": "load", "id": 1, "instance": {}}}"#,
        serde_json::to_string(&inst).unwrap()
    )
}

/// Branch-and-bound's worst case (narrow similarity band, dense
/// conflicts, deep trees): unbudgeted Prune-GEACC effectively never
/// finishes, so a budgeted solve reliably occupies a worker for its
/// whole timeout.
pub fn pathological_load_line() -> String {
    use geacc_core::{ConflictGraph, EventId, Instance, SimMatrix};
    let (nv, nu) = (8usize, 24usize);
    let values: Vec<f64> = (0..nv * nu)
        .map(|i| 0.55 + 0.01 * ((i * 37 % 97) as f64 / 97.0))
        .collect();
    let conflicts = ConflictGraph::from_pairs(
        nv,
        (0..nv as u32).flat_map(|i| {
            (i + 1..nv as u32)
                .filter(move |j| (i * 7 + j * 13) % 3 != 0)
                .map(move |j| (EventId(i), EventId(j)))
        }),
    );
    let inst = Instance::from_matrix(
        SimMatrix::from_flat(nv, nu, values),
        vec![6; nv],
        vec![8; nu],
        conflicts,
    )
    .unwrap();
    format!(
        r#"{{"op": "load", "instance": {}}}"#,
        serde_json::to_string(&inst).unwrap()
    )
}

/// The mutation stream the replication tests replay: valid on the toy
/// instance.
pub fn mutation_bodies() -> Vec<&'static str> {
    vec![
        r#"{"AddConflict": {"a": 0, "b": 1}}"#,
        r#"{"SetCapacity": {"side": "User", "id": 0, "capacity": 1}}"#,
        r#"{"SetCapacity": {"side": "Event", "id": 1, "capacity": 4}}"#,
    ]
}

/// Poll `probe` until it returns Some or the deadline passes.
pub fn wait_for<T>(what: &str, timeout: Duration, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

pub fn health(client: &mut Client) -> Value {
    ok_data(&client.call(r#"{"op": "health"}"#)).clone()
}

pub fn fingerprint(health: &Value) -> u64 {
    protocol::get_u64(health, "fingerprint").expect("health has fingerprint")
}
