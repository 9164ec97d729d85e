//! The four workloads. Each is a seeded op sequence of fixed length:
//! instance generation and file writing happen before any timer starts,
//! and every run with the same seed and `--seconds` does the same work
//! and ends in the same state.

mod layered;
mod mixed_rw;
mod offline_paper;
mod read_zipf;
mod solve_mix;

use crate::replay::{self, Layers, OpClass, Requests};
use crate::report::{Ledger, Metrics};
use crate::serve::{Conn, ServerProc};
use crate::trace::Tracer;
use crate::util::{num, obj, Blocks, Rng, Samples};
use geacc_core::algorithms::Algorithm;
use geacc_core::{EventId, Instance, Mutation, Side, UserId};
use geacc_server::protocol;
use geacc_server::wal::FsyncPolicy;
use serde_json::Value;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Working directory of this run (instances, WAL directories).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    pub name: &'static str,
}

#[derive(Default)]
pub struct RunResult {
    pub e2e: Metrics,
    pub layers: Metrics,
    pub ledger: Ledger,
    pub properties: Vec<(&'static str, Value)>,
}

/// The names, in order; `run` dispatches on them.
pub const WORKLOADS: [&str; 4] = ["read_zipf", "mixed_rw", "solve_mix", "offline_paper"];

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    match ctx.name {
        "read_zipf" => read_zipf::run(ctx),
        "mixed_rw" => mixed_rw::run(ctx),
        "solve_mix" => solve_mix::run(ctx),
        "offline_paper" => offline_paper::run(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The properties every run reports: server threads and the WAL's
/// filesystem.
pub fn common_properties(ctx: &Ctx) -> Value {
    obj(vec![
        ("io_threads", num(crate::serve::IO_THREADS)),
        ("workers", num(crate::serve::WORKERS)),
        ("solve_threads", num(crate::serve::SOLVE_THREADS)),
        ("wal_fs", Value::String(crate::util::fs_type(&ctx.work))),
    ])
}

/// Every workload generates its instance from this fixed seed; `--seed`
/// drives the op sequence (keys, mutations, solver seeds). The spread
/// between runs is then the host's and the op streams', not that of a
/// different instance per seed.
const INSTANCE_SEED: u64 = 2015;
/// Zipf exponent of every keyed read stream.
const ZIPF_S: f64 = 0.99;
const CLIENT_ID: &str = "perfbench";

fn io(e: std::io::Error) -> String {
    format!("transport: {e}")
}

fn write_instance(inst: &Instance, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(file);
    serde_json::to_writer(&mut w, inst).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut w).map_err(|e| e.to_string())
}

fn load_line(path: &Path) -> Result<String, String> {
    let abs = std::fs::canonicalize(path).map_err(|e| e.to_string())?;
    let path = serde_json::to_string(abs.to_string_lossy().as_ref()).map_err(|e| e.to_string())?;
    Ok(format!("{{\"op\":\"load\",\"path\":{path}}}"))
}

fn ok_reply(line: &[u8]) -> bool {
    line.starts_with(b"{\"ok\":true")
}

/// Whether a reply echoes the request id (`None` ⇒ `null`) and, for
/// queries, the queried key as the first data field.
fn echoes(line: &[u8], id: Option<u64>, key: Option<(&str, u64)>) -> bool {
    let mut want = match id {
        Some(id) => format!("{{\"ok\":true,\"id\":{id},\"data\":{{"),
        None => "{\"ok\":true,\"id\":null,\"data\":{".to_string(),
    };
    if let Some((k, v)) = key {
        want.push_str(&format!("\"{k}\":{v},"));
    }
    line.starts_with(want.as_bytes())
}

fn get_path<'a>(v: &'a Value, path: &[&str]) -> Option<&'a Value> {
    path.iter().try_fold(v, |v, k| protocol::get(v, k))
}

fn as_f64(v: Option<&Value>) -> f64 {
    v.and_then(|v| serde_json::from_value::<f64>(v.clone()).ok())
        .unwrap_or(0.0)
}

/// Server counters and the served arrangement, from a `stats` reply.
#[derive(Default)]
pub struct Served {
    pub max_sum: f64,
    pub fingerprint: u64,
    requests: f64,
    queries: f64,
    errors: f64,
    rejected: f64,
    fsyncs: f64,
    snapshots_built: f64,
    pinned_reads: f64,
    solve_batches: f64,
    solve_batch_max: f64,
}

impl Served {
    pub fn fetch(conn: &mut Conn) -> Result<Served, String> {
        let reply = conn.call(b"{\"op\":\"stats\"}").map_err(io)?;
        let text = String::from_utf8_lossy(&reply);
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("stats: {e}"))?;
        Ok(Served::from_stats(
            get_path(&v, &["data"]).unwrap_or(&Value::Null),
        ))
    }

    pub fn from_stats(data: &Value) -> Served {
        let server = |k: &str| as_f64(get_path(data, &["server", k]));
        let (mut requests, mut queries) = (0.0, 0.0);
        if let Some(Value::Object(ops)) = get_path(data, &["server", "requests"]) {
            for (op, n) in ops {
                requests += as_f64(Some(n));
                if op.starts_with("query_") {
                    queries += as_f64(Some(n));
                }
            }
        }
        Served {
            requests,
            queries,
            errors: server("errors"),
            rejected: server("rejected"),
            fsyncs: server("fsyncs"),
            snapshots_built: server("epoch_snapshots_built"),
            pinned_reads: server("epoch_pinned_reads"),
            solve_batches: server("solve_batches"),
            solve_batch_max: server("solve_batch_max"),
            max_sum: as_f64(get_path(data, &["arranger", "max_sum"])),
            fingerprint: get_path(data, &["arranger", "fingerprint"])
                .and_then(protocol::as_u64)
                .unwrap_or(0),
        }
    }

    /// Share of query requests that reached the service: every one the
    /// per-loop `ReadCache` did not answer pins an epoch.
    pub fn miss_share(&self) -> f64 {
        if self.queries > 0.0 {
            ((self.snapshots_built + self.pinned_reads) / self.queries).min(1.0)
        } else {
            0.0
        }
    }

    pub fn put(&self, m: &mut Metrics) {
        let hits = if self.queries > 0.0 {
            1.0 - self.miss_share()
        } else {
            0.0
        };
        m.count("server.cache_hit_share", hits, "share");
        m.count("server.requests", self.requests, "count");
        m.count("server.errors", self.errors, "count");
        m.count("server.rejected", self.rejected, "count");
        m.count("wal.fsyncs", self.fsyncs, "count");
        m.count(
            "service.epoch_snapshots_built",
            self.snapshots_built,
            "count",
        );
        m.count("service.epoch_pinned_reads", self.pinned_reads, "count");
        let pins = self.snapshots_built + self.pinned_reads;
        let reuse = if pins > 0.0 {
            self.pinned_reads / pins
        } else {
            0.0
        };
        m.count("service.pin_reuse", reuse, "share");
        m.count("service.solve_batches", self.solve_batches, "count");
        m.count("service.solve_batch_max", self.solve_batch_max, "count");
    }
}

/// The set-ups of one served workload: each takes a fresh server to
/// ready — `load` by path plus the first read, which cuts the first epoch
/// snapshot and CSR. Workloads run half before the measured phase and half
/// after it, so a run's median samples both ends of the run rather than
/// one moment of the host. Durable servers get a fresh WAL directory each.
struct SetUps<'a> {
    ctx: &'a Ctx,
    durable: bool,
    load: String,
    first_read: &'a [u8],
    times: Samples,
}

impl<'a> SetUps<'a> {
    fn new(
        ctx: &'a Ctx,
        durable: bool,
        instance: &Path,
        first_read: &'a [u8],
    ) -> Result<Self, String> {
        Ok(SetUps {
            ctx,
            durable,
            load: load_line(instance)?,
            first_read,
            times: Samples::default(),
        })
    }

    /// One set-up; the server keeps running.
    fn one(&mut self) -> Result<ServerProc, String> {
        let wal = self
            .durable
            .then(|| self.ctx.work.join(format!("wal-{}", self.times.len())));
        if let Some(dir) = &wal {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        let server = ServerProc::start(wal.as_deref())?;
        let mut conn = Conn::connect(server.addr).map_err(io)?;
        let t0 = Instant::now();
        let loaded = conn.call(self.load.as_bytes()).map_err(io)?;
        let read = conn.call(self.first_read).map_err(io)?;
        self.times.push(t0.elapsed().as_secs_f64());
        for reply in [&loaded, &read] {
            if !ok_reply(reply) {
                return Err(format!("set-up failed: {}", String::from_utf8_lossy(reply)));
            }
        }
        Ok(server)
    }

    /// `k` set-ups whose servers stop again.
    fn discard(&mut self, k: usize) -> Result<(), String> {
        for _ in 0..k {
            self.one()?.stop()?;
        }
        Ok(())
    }
}

/// `ops_per_s` is the median rate over consecutive blocks of the op
/// sequence, robust to host stalls shorter than half a run; the
/// whole-phase rate is reported beside it.
fn put_rate(m: &mut Metrics, blocks: &Blocks, phase_rate: f64) {
    m.median("ops_per_s", &blocks.rates, "ops/s");
    m.put("ops_per_s_phase", phase_rate, "ops/s", 1, "rate");
}

fn put_setup(m: &mut Metrics, setup: &Samples) {
    m.put("setup_s", setup.median(), "s", setup.len(), "median");
    m.put("setup_s_fastest", setup.min(), "s", setup.len(), "min");
}

/// The seeded mutation stream of mixed_rw and solve_mix: the five kinds
/// in equal shares, new values drawn from Table III's distributions
/// (attributes U[0, T], c_u ~ U[1, 4], c_v ~ U[1, 50]), targets uniform
/// over the users and events that exist.
struct MutationGen {
    rng: Rng,
    users: u64,
    events: u64,
    dim: usize,
}

impl MutationGen {
    const T: f64 = 10_000.0;

    fn new(seed: u64, inst: &Instance) -> MutationGen {
        MutationGen {
            rng: Rng::new(seed),
            users: inst.num_users() as u64,
            events: inst.num_events() as u64,
            dim: inst.dim(),
        }
    }

    fn next(&mut self) -> Mutation {
        let r = &mut self.rng;
        match r.below(5) {
            0 => {
                self.users += 1;
                Mutation::AddUser {
                    attrs: (0..self.dim).map(|_| r.unit() * Self::T).collect(),
                    capacity: r.range(1, 4) as u32,
                }
            }
            1 => Mutation::RemoveUser {
                user: UserId(r.below(self.users) as u32),
            },
            2 => Mutation::SetCapacity {
                side: Side::User,
                id: r.below(self.users) as u32,
                capacity: r.range(1, 4) as u32,
            },
            3 => Mutation::SetCapacity {
                side: Side::Event,
                id: r.below(self.events) as u32,
                capacity: r.range(1, 50) as u32,
            },
            _ => {
                let a = r.below(self.events);
                let b = (a + 1 + r.below(self.events - 1)) % self.events;
                Mutation::AddConflict {
                    a: EventId(a as u32),
                    b: EventId(b as u32),
                }
            }
        }
    }
}

fn mutate_line(id: u64, seq: u64, m: &Mutation) -> Result<String, String> {
    let body = serde_json::to_string(m).map_err(|e| e.to_string())?;
    Ok(format!(
        "{{\"op\":\"mutate\",\"id\":{id},\"client_id\":\"{CLIENT_ID}\",\"seq\":{seq},\"mutation\":{body}}}"
    ))
}

/// One op of a served sequence.
#[derive(Clone)]
enum Op {
    QueryUser(u32),
    QueryEvent(u32),
    Mutate(Mutation, u64),
    Solve(Algorithm, Option<u64>),
}

/// An op with its wire line.
#[derive(Clone)]
struct Line {
    op: Op,
    id: Option<u64>,
    text: String,
}

impl Line {
    fn class(&self) -> &'static OpClass {
        match self.op {
            Op::QueryUser(_) => &replay::QUERY_USER,
            Op::QueryEvent(_) => &replay::QUERY_EVENT,
            Op::Mutate(..) => &replay::MUTATE,
            Op::Solve(..) => &replay::SOLVE,
        }
    }

    fn is_read(&self) -> bool {
        matches!(self.op, Op::QueryUser(_) | Op::QueryEvent(_))
    }

    fn check(&self, reply: &[u8]) -> bool {
        match self.op {
            Op::QueryUser(u) => echoes(reply, self.id, Some(("user", u64::from(u)))),
            Op::QueryEvent(v) => echoes(reply, self.id, Some(("event", u64::from(v)))),
            _ => echoes(reply, self.id, None),
        }
    }
}

fn query_user_line(id: Option<u64>, u: u32) -> String {
    match id {
        Some(id) => format!("{{\"op\":\"query_user\",\"id\":{id},\"user\":{u}}}"),
        None => format!("{{\"op\":\"query_user\",\"user\":{u}}}"),
    }
}

fn solve_line(id: u64, algo: Algorithm, max_nodes: Option<u64>) -> String {
    let mut s = format!(
        "{{\"op\":\"solve\",\"id\":{id},\"algorithm\":\"{}\",\"timeout_ms\":{}",
        replay::algo_name(algo),
        crate::serve::DEFAULT_TIMEOUT_MS
    );
    if let Algorithm::Alns { seed } = algo {
        s.push_str(&format!(",\"seed\":{seed}"));
    }
    if let Some(n) = max_nodes {
        s.push_str(&format!(",\"max_nodes\":{n}"));
    }
    s.push('}');
    s
}

/// Quality against a fresh solve: `max_sum` over the MaxSum that
/// Greedy-GEACC reaches on the same final instance, asked of the
/// replayed service (after its checks, since the solve adopts).
fn put_vs_greedy(m: &mut Metrics, req: &mut Requests, served_max_sum: f64) -> Result<(), String> {
    let line = format!(
        "{{\"op\":\"solve\",\"algorithm\":\"greedy\",\"timeout_ms\":{}}}",
        crate::serve::DEFAULT_TIMEOUT_MS
    );
    let reply = req
        .request(&mut Tracer::new(false), 0, &replay::SOLVE, &line)
        .to_vec();
    let v: Value =
        serde_json::from_str(&String::from_utf8_lossy(&reply)).map_err(|e| e.to_string())?;
    let greedy = as_f64(get_path(&v, &["data", "max_sum"]));
    if greedy <= 0.0 {
        return Err(format!(
            "greedy reference solve failed: {}",
            String::from_utf8_lossy(&reply)
        ));
    }
    m.count("max_sum_vs_greedy", served_max_sum / greedy, "ratio");
    Ok(())
}

/// Replays `lines` through the request path (the answer check), and
/// under `--trace 1` with spans and then through the layer calls.
/// Returns the request replay, its wall time, and the layer replay.
fn replay_served(
    ctx: &Ctx,
    instance: &Path,
    lines: &[Line],
    t: &mut Tracer,
) -> Result<(Requests, f64, Option<Layers>), String> {
    // The check alone needs no fsync; the traced run keeps the server's
    // policy so the request path's times include it.
    let policy = if t.enabled() {
        FsyncPolicy::Always
    } else {
        FsyncPolicy::Never
    };
    let load = load_line(instance)?;
    let mut req = Requests::new(Some((&ctx.work.join("replay"), policy)))?;
    req.request(t, 0, &replay::LOAD, &load);
    let t0 = Instant::now();
    for (i, line) in lines.iter().enumerate() {
        req.digest_request(t, i as u64 + 1, line.class(), &line.text);
    }
    let took = t0.elapsed().as_secs_f64();
    if !t.enabled() {
        return Ok((req, took, None));
    }
    let wal = ctx.work.join("replay-layers");
    let mut layers = Layers::load(t, &instance.to_string_lossy(), Some(&wal))?;
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64 + 1;
        match &line.op {
            Op::QueryUser(_) | Op::QueryEvent(_) => layers.pin(t, id),
            Op::Mutate(m, seq) => layers.mutate(t, id, m, Some((CLIENT_ID, *seq)))?,
            Op::Solve(algo, nodes) => layers.solve(t, id, *algo, *nodes)?,
        }
    }
    Ok((req, took, Some(layers)))
}

/// Share of read lines byte-identical to an earlier read line at the
/// same state version: the most a response cache keyed on the raw line
/// could answer.
fn repeat_share(lines: &[Line]) -> f64 {
    let mut version = 0u64;
    let mut seen = HashSet::new();
    let (mut reads, mut repeats) = (0usize, 0usize);
    for line in lines {
        if line.is_read() {
            reads += 1;
            if !seen.insert((version, line.text.as_str())) {
                repeats += 1;
            }
        } else {
            version += 1;
        }
    }
    if reads == 0 {
        0.0
    } else {
        repeats as f64 / reads as f64
    }
}

fn write_spans(ctx: &Ctx, t: &Tracer) -> Result<(), String> {
    let path = ctx.out.join(format!("spans-{}.jsonl", ctx.name));
    t.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn check(ledger: &mut Ledger, what: &'static str, ok: bool) {
    if ok {
        ledger.ok(what);
    } else {
        ledger.fail(what, crate::report::MISMATCH);
    }
}
