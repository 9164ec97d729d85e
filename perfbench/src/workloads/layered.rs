//! The per-layer report of a traced run. Every workload reports the same
//! set; a layer a workload does not exercise comes out as 0 with n = 0.

use super::{Line, Op, Served};
use crate::replay::{self, Layers, OpClass, SolveLog};
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::util::Samples;
use std::collections::{BTreeMap, HashSet};

/// What a traced run feeds the per-layer report.
#[derive(Default)]
pub struct Traced<'a> {
    pub served: Served,
    /// Request and reply bytes per op class (the request replay's).
    pub bytes: Option<&'a BTreeMap<&'static str, (Samples, Samples)>>,
    pub layers: Option<&'a Layers>,
    /// Solves outside a [`Layers`] replay (offline_paper).
    pub solves: Option<&'a SolveLog>,
    /// The op sequence, for the metrics that depend on op order.
    pub lines: &'a [Line],
    /// End-to-end cost of one read and p50 of one write (µs).
    pub read_cost_us: f64,
    pub write_p50_us: f64,
    pub repeat_share: f64,
    pub candidates: usize,
    /// The untraced measured phase and the traced replay (s).
    pub e2e_s: f64,
    pub replay_s: f64,
}

pub fn report(t: &Tracer, x: &Traced) -> Metrics {
    let mut m = Metrics::default();
    server(&mut m, t, x);
    protocol(&mut m, t, x);
    service(&mut m, t, x.lines);
    layers(&mut m, t, x.layers);
    m.count("engine.candidates", x.candidates as f64, "count");
    let solves = x.solves.or(x.layers.map(|l| &l.solves));
    solvers(&mut m, t, solves);
    m.count("trace.spans", t.spans.len() as f64, "count");
    m.count("trace.e2e_s", x.e2e_s, "s");
    m.count("trace.replay_s", x.replay_s, "s");
    let ratio = if x.e2e_s > 0.0 {
        x.replay_s / x.e2e_s
    } else {
        0.0
    };
    m.count("trace.overhead_ratio", ratio, "ratio");
    m
}

/// Traced p50 of parse + handle + serialize per request of a class.
fn path_us(t: &Tracer, classes: &[&OpClass]) -> Samples {
    let names: Vec<&str> = classes
        .iter()
        .flat_map(|c| [c.parse, c.handle, c.serialize])
        .collect();
    t.per_request_us(&names)
}

fn ms(t: &Tracer, span: &str) -> Samples {
    Samples(t.durations_us(span).0.iter().map(|us| us / 1e3).collect())
}

/// The server layer: what the end-to-end cost of a request leaves over
/// after the traced request path. Only reads the `ReadCache` misses
/// reach the service, so the read path is weighted by the miss share.
fn server(m: &mut Metrics, t: &Tracer, x: &Traced) {
    let read = path_us(t, &[&replay::QUERY_USER, &replay::QUERY_EVENT]);
    let residual = x.read_cost_us - x.served.miss_share() * read.median();
    m.put(
        "server.read_residual_us",
        residual,
        "us",
        read.len(),
        "median",
    );
    let write = path_us(t, &[&replay::MUTATE]);
    let residual = x.write_p50_us - write.median();
    m.put(
        "server.write_residual_us",
        residual,
        "us",
        write.len(),
        "median",
    );
    m.count("server.repeat_share", x.repeat_share, "share");
    x.served.put(m);
}

fn protocol(m: &mut Metrics, t: &Tracer, x: &Traced) {
    for class in replay::REPORTED {
        let name = class.name;
        m.median(
            &format!("protocol.parse_us.{name}"),
            &t.durations_us(class.parse),
            "us",
        );
        let ser = t.durations_us(class.serialize);
        m.median(&format!("protocol.serialize_us.{name}"), &ser, "us");
        let (rq, rs) = x
            .bytes
            .and_then(|b| b.get(name).cloned())
            .unwrap_or_default();
        m.put(
            &format!("protocol.request_bytes.{name}"),
            rq.mean(),
            "B",
            rq.len(),
            "mean",
        );
        m.put(
            &format!("protocol.response_bytes.{name}"),
            rs.mean(),
            "B",
            rs.len(),
            "mean",
        );
    }
}

/// Handle times, including those that depend on the op order: the first
/// read after a state change cuts a new epoch snapshot.
fn service(m: &mut Metrics, t: &Tracer, lines: &[Line]) {
    m.median(
        "service.query_user_us",
        &t.durations_us(replay::QUERY_USER.handle),
        "us",
    );
    let mutate = t.durations_us(replay::MUTATE.handle);
    m.median("service.mutate_us", &mutate, "us");
    m.p99("service.mutate_p99_us", &mutate, "us");
    let mut after_write = HashSet::new();
    let mut solves: BTreeMap<&str, HashSet<u64>> = BTreeMap::new();
    let mut dirty = false;
    for (i, line) in lines.iter().enumerate() {
        let id = i as u64 + 1;
        match &line.op {
            Op::QueryUser(_) | Op::QueryEvent(_) => {
                if std::mem::take(&mut dirty) {
                    after_write.insert(id);
                }
            }
            Op::Mutate(..) => dirty = true,
            Op::Solve(algo, _) => {
                dirty = true;
                solves
                    .entry(replay::algo_name(*algo))
                    .or_default()
                    .insert(id);
            }
        }
    }
    let handle_of = |ids: &HashSet<u64>| {
        Samples(
            t.spans
                .iter()
                .filter(|s| s.name.starts_with("service.handle.") && ids.contains(&s.req))
                .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
                .collect(),
        )
    };
    let raw = handle_of(&after_write);
    m.median("service.read_after_write_us", &raw, "us");
    m.p99("service.read_after_write_p99_us", &raw, "us");
    for algo in ["greedy", "mincostflow", "alns"] {
        let ids = solves.remove(algo).unwrap_or_default();
        m.median(&format!("service.solve_us.{algo}"), &handle_of(&ids), "us");
    }
}

/// The layers below the service: loader, dynamic, engine CSR and WAL.
fn layers(m: &mut Metrics, t: &Tracer, layers: Option<&Layers>) {
    m.median("loader.load_ms", &ms(t, "loader.load_instance"), "ms");
    m.median("dynamic.new_ms", &ms(t, "dynamic.new"), "ms");
    m.median("engine.flats_build_ms", &ms(t, "engine.flats_build"), "ms");
    m.median(
        "engine.flats_extend_us",
        &t.durations_us("engine.flats_extend"),
        "us",
    );
    m.median(
        "dynamic.fingerprint_us",
        &t.durations_us("dynamic.fingerprint"),
        "us",
    );
    for kind in [
        "add_user",
        "remove_user",
        "set_capacity_user",
        "set_capacity_event",
        "add_conflict",
    ] {
        let s = t.durations_us(&format!("dynamic.apply.{kind}"));
        m.median(&format!("dynamic.apply_us.{kind}"), &s, "us");
    }
    let repair = layers.map(|l| l.repair_pairs.clone()).unwrap_or_default();
    m.put(
        "dynamic.repair_pairs",
        repair.mean(),
        "pairs",
        repair.len(),
        "mean",
    );
    m.median(
        "wal.append_us.mutation",
        &t.durations_us("wal.append.mutation"),
        "us",
    );
    m.median(
        "wal.append_us.install",
        &t.durations_us("wal.append.install"),
        "us",
    );
    m.median("wal.load_ms", &ms(t, "wal.append.load"), "ms");
    for kind in ["load", "mutation", "install"] {
        let s = layers
            .and_then(|l| l.wal_bytes.get(kind).cloned())
            .unwrap_or_default();
        m.put(
            &format!("wal.bytes_per_record.{kind}"),
            s.mean(),
            "B",
            s.len(),
            "mean",
        );
    }
}

/// Per algorithm: the kernel's and the pipeline's time, exact work
/// counts and MaxSum; and ALNS's run counters.
fn solvers(m: &mut Metrics, t: &Tracer, log: Option<&SolveLog>) {
    let empty = SolveLog::default();
    let log = log.unwrap_or(&empty);
    for name in ["greedy", "mincostflow", "alns", "prune"] {
        let kernel = log.kernel_ms.get(name).cloned().unwrap_or_default();
        m.median(&format!("engine.solve_on_ms.{name}"), &kernel, "ms");
        let pipeline = ms(t, &format!("runtime.pipeline.{name}"));
        m.median(&format!("runtime.pipeline_ms.{name}"), &pipeline, "ms");
        let mine: Vec<_> = log
            .outcomes
            .iter()
            .filter(|(a, _)| replay::algo_name(*a) == name)
            .map(|(_, o)| o)
            .collect();
        let ticks = Samples(mine.iter().map(|o| o.nodes as f64).collect());
        m.put(
            &format!("algorithms.ticks.{name}"),
            ticks.mean(),
            "ticks",
            ticks.len(),
            "mean",
        );
        let best = Samples(mine.iter().map(|o| o.arrangement.max_sum()).collect());
        m.put(
            &format!("algorithms.max_sum.{name}"),
            best.mean(),
            "maxsum",
            best.len(),
            "mean",
        );
    }
    let prune = Samples(
        log.outcomes
            .iter()
            .filter_map(|(_, o)| o.search.map(|s| s.invocations as f64))
            .collect(),
    );
    m.put(
        "algorithms.prune_nodes",
        prune.mean(),
        "nodes",
        prune.len(),
        "mean",
    );
    let alns: Vec<_> = log
        .outcomes
        .iter()
        .filter_map(|(_, o)| o.alns.map(|a| (a, o.elapsed)))
        .collect();
    let n = alns.len();
    let iters = alns.iter().fold(0.0, |s, (a, _)| s + a.iterations as f64);
    let gains = alns.iter().fold(0.0, |s, (a, _)| s + a.improvements as f64);
    let secs = alns.iter().fold(0.0, |s, (_, d)| s + d.as_secs_f64());
    let per = |x: f64| if n > 0 { x / n as f64 } else { 0.0 };
    let of_iters = |x: f64| if iters > 0.0 { x / iters } else { 0.0 };
    m.put("alns.iterations", per(iters), "iterations", n, "mean");
    m.put("alns.improvements", per(gains), "count", n, "mean");
    m.put("alns.improve_ratio", of_iters(gains), "share", n, "ratio");
    m.put(
        "alns.us_per_iteration",
        of_iters(secs * 1e6),
        "us",
        n,
        "ratio",
    );
}
