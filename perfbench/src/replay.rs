//! In-process replays of a workload's op sequence.
//!
//! [`Requests`] replays request lines through the request path the
//! server runs for each line: `protocol::parse_request`, then
//! `Service::handle`, then the envelope serializer. Durable workloads
//! attach a WAL the way `Server::bind` does. The reply digest and final
//! fingerprint it yields are what the served run is checked against.
//!
//! [`Layers`] replays the same ops one level down, through the calls
//! `handle` makes: `IncrementalArranger::apply` and `fingerprint`,
//! `GraphFlats::build` and `extended`, `WalWriter::append` and
//! `SolverPipeline::run_on`, each in a span (with the time
//! `engine::solve_on` records inside the pipeline beside it).

use crate::trace::Tracer;
use crate::util::{Digest, Samples};
use geacc_core::algorithms::Algorithm;
use geacc_core::engine::{solve_on, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::{
    loader, Arrangement, BudgetMeter, CandidateGraph, DynamicConfig, EngineStats, GraphFlats,
    IncrementalArranger, Mutation, Outcome, Side, SolveBudget, SolverPipeline,
};
use geacc_server::metrics::ServerMetrics;
use geacc_server::protocol::{self, ServiceError};
use geacc_server::wal::{FsyncPolicy, WalRecord, WalWriter};
use geacc_server::{recovery, ServerConfig, Service};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names of one op class on the request path.
pub struct OpClass {
    pub name: &'static str,
    pub parse: &'static str,
    pub handle: &'static str,
    pub serialize: &'static str,
}

macro_rules! op_class {
    ($name:literal) => {
        OpClass {
            name: $name,
            parse: concat!("protocol.parse.", $name),
            handle: concat!("service.handle.", $name),
            serialize: concat!("protocol.serialize.", $name),
        }
    };
}

pub const LOAD: OpClass = op_class!("load");
pub const QUERY_USER: OpClass = op_class!("query_user");
pub const QUERY_EVENT: OpClass = op_class!("query_event");
pub const MUTATE: OpClass = op_class!("mutate");
pub const SOLVE: OpClass = op_class!("solve");

/// The op classes whose protocol costs are reported.
pub const REPORTED: [&OpClass; 4] = [&QUERY_USER, &QUERY_EVENT, &MUTATE, &SOLVE];

fn drift_ratio() -> f64 {
    ServerConfig::default().drift_ratio
}

fn threads() -> Threads {
    Threads::new(crate::serve::SOLVE_THREADS)
}

/// The request path, in process.
pub struct Requests {
    service: Service,
    out: Vec<u8>,
    pub digest: Digest,
    /// Request and reply bytes per op class.
    pub bytes: BTreeMap<&'static str, (Samples, Samples)>,
}

impl Requests {
    /// A fresh service; with `wal`, recovery and the WAL writer are
    /// attached exactly as `Server::bind` attaches them.
    pub fn new(wal: Option<(&Path, FsyncPolicy)>) -> Result<Requests, String> {
        let service = Service::new(
            Arc::new(ServerMetrics::default()),
            Arc::new(AtomicBool::new(false)),
            threads(),
            drift_ratio(),
        );
        if let Some((dir, policy)) = wal {
            std::fs::create_dir_all(dir).map_err(|e| format!("wal dir: {e}"))?;
            let config = DynamicConfig {
                rebuild_drift_ratio: drift_ratio(),
            };
            let rec = recovery::recover(dir, config).map_err(|e| format!("recover: {e:?}"))?;
            let writer =
                recovery::open_writer(dir, policy, &rec).map_err(|e| format!("wal open: {e}"))?;
            service.install_recovered(rec, writer, dir.to_path_buf(), policy, None);
        }
        Ok(Requests {
            service,
            out: Vec::with_capacity(4096),
            digest: Digest::default(),
            bytes: BTreeMap::new(),
        })
    }

    /// Replay one request line; returns the reply line (no newline).
    pub fn request(&mut self, t: &mut Tracer, req: u64, class: &OpClass, line: &str) -> &[u8] {
        let o = t.enter(class.parse, req);
        let parsed = protocol::parse_request(line);
        t.exit(o);
        let o = t.enter(class.handle, req);
        let (id, result) = match &parsed {
            Ok(request) => {
                let timeout = protocol::get_u64(&request.body, "timeout_ms")
                    .unwrap_or(crate::serve::DEFAULT_TIMEOUT_MS);
                let deadline = Instant::now() + Duration::from_millis(timeout);
                (request.id, self.service.handle(request, deadline))
            }
            Err(e) => (None, Err(e.clone())),
        };
        t.exit(o);
        let o = t.enter(class.serialize, req);
        let envelope = match &result {
            Ok(data) => protocol::ok_envelope(id, data.clone()),
            Err(err) => protocol::err_envelope(id, err),
        };
        self.out.clear();
        if serde_json::to_writer(&mut self.out, &envelope).is_err() {
            self.out.clear();
        }
        t.exit(o);
        if t.enabled() {
            let entry = self.bytes.entry(class.name).or_default();
            entry.0.push(line.len() as f64 + 1.0);
            entry.1.push(self.out.len() as f64 + 1.0);
        }
        &self.out
    }

    /// Replay one line and fold its reply into the digest.
    pub fn digest_request(&mut self, t: &mut Tracer, req: u64, class: &OpClass, line: &str) {
        let reply = self.request(t, req, class, line).to_vec();
        self.digest.add_reply(&reply);
    }

    /// The `stats` document of the replayed service.
    pub fn stats(&mut self) -> Result<serde_json::Value, ServiceError> {
        let request = protocol::parse_request("{\"op\": \"stats\"}")?;
        self.service
            .handle(&request, Instant::now() + Duration::from_secs(60))
    }
}

/// The span around `IncrementalArranger::apply` of one mutation kind.
fn apply_span(m: &Mutation) -> &'static str {
    match m {
        Mutation::AddUser { .. } => "dynamic.apply.add_user",
        Mutation::RemoveUser { .. } => "dynamic.apply.remove_user",
        Mutation::AddConflict { .. } => "dynamic.apply.add_conflict",
        Mutation::SetCapacity {
            side: Side::User, ..
        } => "dynamic.apply.set_capacity_user",
        Mutation::SetCapacity {
            side: Side::Event, ..
        } => "dynamic.apply.set_capacity_event",
        Mutation::AddEvent { .. } | Mutation::CloseEvent { .. } => "dynamic.apply.other",
    }
}

pub fn algo_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Greedy => "greedy",
        Algorithm::MinCostFlow => "mincostflow",
        Algorithm::Alns { .. } => "alns",
        Algorithm::Prune => "prune",
        _ => "other",
    }
}

pub fn pipeline_span(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Greedy => "runtime.pipeline.greedy",
        Algorithm::MinCostFlow => "runtime.pipeline.mincostflow",
        Algorithm::Alns { .. } => "runtime.pipeline.alns",
        Algorithm::Prune => "runtime.pipeline.prune",
        _ => "runtime.pipeline.other",
    }
}

/// The budget every benchmark solve runs under: a deadline that never
/// binds, plus an exact node budget where one is given.
pub fn budget(max_nodes: Option<u64>) -> SolveBudget {
    SolveBudget {
        deadline: Some(Duration::from_millis(crate::serve::DEFAULT_TIMEOUT_MS)),
        max_nodes,
        ..SolveBudget::UNLIMITED
    }
}

/// `engine::solve_on` over a prebuilt graph, single-threaded.
pub fn engine_solve(graph: &CandidateGraph, algo: Algorithm, max_nodes: Option<u64>) -> Outcome {
    let params = SolveParams {
        threads: threads(),
        ..SolveParams::default()
    };
    solve_on(graph, algo, &params, &BudgetMeter::new(&budget(max_nodes)))
}

/// The solves of a traced replay: outcomes in op order, and per
/// algorithm the kernel time `engine::solve_on` records in
/// `EngineStats` inside each `SolverPipeline::run_on` (the pipeline's
/// own time minus it is audit plus fallback).
#[derive(Default)]
pub struct SolveLog {
    pub outcomes: Vec<(Algorithm, Outcome)>,
    pub kernel_ms: BTreeMap<&'static str, Samples>,
}

impl SolveLog {
    /// `SolverPipeline::run_on` in a span; returns the arrangement.
    pub fn run(
        &mut self,
        t: &mut Tracer,
        req: u64,
        graph: &CandidateGraph,
        algo: Algorithm,
        max_nodes: Option<u64>,
    ) -> &Arrangement {
        let seed = match algo {
            Algorithm::Alns { seed } => seed,
            _ => 0,
        };
        let pipeline = SolverPipeline::new(algo, budget(max_nodes))
            .with_threads(threads())
            .with_seed(seed);
        let before = engine_nanos(algo);
        let outcome = t.span(pipeline_span(algo), req, || pipeline.run_on(graph));
        let kernel = engine_nanos(algo).saturating_sub(before);
        self.kernel_ms
            .entry(algo_name(algo))
            .or_default()
            .push(kernel as f64 / 1e6);
        self.outcomes.push((algo, outcome));
        &self.outcomes[self.outcomes.len() - 1].1.arrangement
    }
}

/// Nanoseconds `engine::solve_on` has recorded for `algo` so far.
fn engine_nanos(algo: Algorithm) -> u64 {
    EngineStats::snapshot()
        .iter()
        .find(|s| s.stage == algo_name(algo))
        .map_or(0, |s| s.total_nanos)
}

/// The layer calls behind the request path, on the same op stream.
pub struct Layers {
    arranger: IncrementalArranger,
    wal: Option<WalWriter>,
    flats: Arc<GraphFlats>,
    /// A state change happened since the last epoch pin.
    dirty: bool,
    /// A growth mutation happened since the last epoch pin.
    grown: bool,
    pub candidates: usize,
    pub repair_pairs: Samples,
    pub wal_bytes: BTreeMap<&'static str, Samples>,
    pub solves: SolveLog,
}

impl Layers {
    /// `load` one level down: the loader, the WAL `Load` record, the
    /// initial Greedy of `IncrementalArranger::new`, the two publish
    /// fingerprints, and the first pin's CSR build.
    pub fn load(t: &mut Tracer, path: &str, wal_dir: Option<&Path>) -> Result<Layers, String> {
        let inst = t
            .span("loader.load_instance", 0, || loader::load_instance(path))
            .map_err(|e| format!("load {path}: {e}"))?;
        let mut wal = match wal_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| format!("wal dir: {e}"))?;
                Some(
                    WalWriter::open(&recovery::wal_path(dir), FsyncPolicy::Always, 0, 0)
                        .map_err(|e| format!("wal open: {e}"))?,
                )
            }
            None => None,
        };
        let mut wal_bytes = BTreeMap::new();
        if let Some(w) = wal.as_mut() {
            let record = WalRecord::Load {
                instance: inst.clone(),
            };
            append(t, w, 0, "wal.append.load", "load", &record, &mut wal_bytes)?;
        }
        let arranger = t.span("dynamic.new", 0, || {
            IncrementalArranger::new(
                inst,
                DynamicConfig {
                    rebuild_drift_ratio: drift_ratio(),
                },
            )
        });
        for _ in 0..2 {
            std::hint::black_box(t.span("dynamic.fingerprint", 0, || arranger.fingerprint()));
        }
        let inst = arranger.instance();
        let flats = t.span("engine.flats_build", 0, || {
            GraphFlats::build(inst, threads())
        });
        Ok(Layers {
            candidates: flats.num_candidates(),
            flats: Arc::new(flats),
            arranger,
            wal,
            dirty: false,
            grown: false,
            repair_pairs: Samples::default(),
            wal_bytes,
            solves: SolveLog::default(),
        })
    }

    /// The two whole-arrangement fingerprints every publish pays.
    fn publish(&mut self, t: &mut Tracer, req: u64) {
        for _ in 0..2 {
            let fp = t.span("dynamic.fingerprint", req, || self.arranger.fingerprint());
            std::hint::black_box(fp);
        }
    }

    /// An epoch pin: reuse the CSR, or extend it after growth.
    pub fn pin(&mut self, t: &mut Tracer, req: u64) {
        if !self.dirty {
            return;
        }
        if self.grown {
            let inst = self.arranger.instance();
            let flats = &self.flats;
            let extended = t.span("engine.flats_extend", req, || {
                flats.extended(inst, threads())
            });
            self.flats = Arc::new(extended);
        }
        self.dirty = false;
        self.grown = false;
    }

    pub fn mutate(
        &mut self,
        t: &mut Tracer,
        req: u64,
        mutation: &Mutation,
        key: Option<(&str, u64)>,
    ) -> Result<(), String> {
        if let Some(w) = self.wal.as_mut() {
            let record = match key {
                Some((client, seq)) => WalRecord::KeyedMutation {
                    client: client.to_string(),
                    seq,
                    mutation: mutation.clone(),
                },
                None => WalRecord::Mutation {
                    mutation: mutation.clone(),
                },
            };
            let bytes = &mut self.wal_bytes;
            append(t, w, req, "wal.append.mutation", "mutation", &record, bytes)?;
        }
        let span = apply_span(mutation);
        let arranger = &mut self.arranger;
        let report = t
            .span(span, req, || arranger.apply(mutation.clone()))
            .map_err(|e| format!("{span}: {e}"))?;
        self.repair_pairs
            .push((report.evicted + report.reassigned) as f64);
        self.publish(t, req);
        self.dirty = true;
        self.grown |= matches!(
            mutation,
            Mutation::AddUser { .. } | Mutation::AddEvent { .. }
        );
        Ok(())
    }

    /// A served `solve`: pin, the pipeline the service runs, adoption,
    /// the WAL `Install` record, and the publish fingerprints.
    pub fn solve(
        &mut self,
        t: &mut Tracer,
        req: u64,
        algo: Algorithm,
        max_nodes: Option<u64>,
    ) -> Result<(), String> {
        self.pin(t, req);
        let inst = self.arranger.instance().clone();
        let graph = CandidateGraph::from_flats(&inst, Arc::clone(&self.flats));
        let arrangement = self.solves.run(t, req, &graph, algo, max_nodes).clone();
        self.arranger
            .adopt(arrangement)
            .map_err(|v| format!("adopt: {} violation(s)", v.len()))?;
        if let Some(w) = self.wal.as_mut() {
            let record = WalRecord::Install {
                arrangement: self.arranger.arrangement().clone(),
                baseline: self.arranger.baseline_max_sum(),
            };
            let bytes = &mut self.wal_bytes;
            append(t, w, req, "wal.append.install", "install", &record, bytes)?;
        }
        self.publish(t, req);
        self.dirty = true;
        Ok(())
    }

    pub fn fingerprint(&self) -> u64 {
        self.arranger.fingerprint()
    }
}

fn append(
    t: &mut Tracer,
    w: &mut WalWriter,
    req: u64,
    span: &'static str,
    kind: &'static str,
    record: &WalRecord,
    bytes: &mut BTreeMap<&'static str, Samples>,
) -> Result<(), String> {
    let before = w.offset();
    t.span(span, req, || w.append(record))
        .map_err(|e| format!("wal append: {e}"))?;
    bytes
        .entry(kind)
        .or_default()
        .push((w.offset() - before) as f64);
    Ok(())
}
