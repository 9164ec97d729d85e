//! Engine snapshot: shared candidate-graph build cost vs the dense
//! matrix, and per-solver dispatch time through the [`SolverRegistry`].
//!
//! The engine refactor's perf claims, pinned on the recording host:
//!
//! 1. **Build** — the CSR [`CandidateGraph`] (the structure every
//!    solver now borrows) against the dense `|V|×|U|` similarity matrix
//!    it replaced on the solver hot paths, at 1 and 4 build workers. The
//!    CSR build is the dearer one: the committed `BENCH_engine.json`
//!    (1-core host, 100k candidates) records 9.54 ms against 1.78 ms
//!    serial and 9.02 ms against 1.71 ms at 4 workers, about 5×. That is
//!    under 7% of the 0.15 s MinCostFlow-GEACC solve but about 13× the
//!    0.70 ms Greedy-GEACC kernel, so for Greedy the build dominates.
//!    The two similarity-sorted views are the likely share of the gap;
//!    attributing it exactly is still open.
//! 2. **Dispatch** — every registered solver, run through
//!    [`engine::solve_on`] over one shared graph on the fig3 default
//!    workload (paper-default synthetic; the exact solvers run on a
//!    small low-dimensional instance where exact search is tractable).
//!    Timings are cross-checked against the engine's own
//!    [`EngineStats`] accumulation.
//!
//! Writes `BENCH_engine.json` (or `--out <path>`). When the output path
//! already holds a snapshot, its numbers are carried forward in a
//! `baseline` field (the oldest recorded baseline wins), so the
//! before/after trajectory survives regeneration. Compare the greedy
//! row against `BENCH_parallel.json`'s `greedy_shared_graph` benchmark
//! for the no-regression check.
//!
//! `--smoke` turns the run into a CI gate: after measuring, the
//! MinCostFlow-GEACC fig3 median must come in under
//! [`MCF_SMOKE_CEILING_SECS`] or the process exits non-zero. The
//! ceiling is generous (~12× the recording-host median) so timing
//! noise passes, but a return of the pre-radix-heap kernel (3.4 s on
//! the same host) fails loudly instead of drifting in the JSON.
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin engine
//! cargo run -p geacc-bench --release --bin engine -- --quick --out /tmp/e.json
//! cargo run -p geacc-bench --release --bin engine -- --repeats 1 --smoke
//! ```

use geacc_bench::cli;
use geacc_core::algorithms::{relaxation_upper_bound, Algorithm, McfConfig, SspHeap};
use geacc_core::engine::{self, CandidateGraph, EngineStats, SolveParams, SolverRegistry};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, SolveBudget};
use geacc_core::{AlnsConfig, Instance};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use serde::Serialize;
use std::time::Instant;

/// Wall-clock ceiling for the `--smoke` gate on the fig3
/// MinCostFlow-GEACC dispatch. The radix-heap kernel records ~0.16 s on
/// the pinned host; the pre-optimization binary-heap full-re-solve
/// kernel recorded 3.39 s, so 2 s catches a kernel regression with wide
/// headroom for CI timing noise.
const MCF_SMOKE_CEILING_SECS: f64 = 2.0;

#[derive(Serialize)]
struct Snapshot {
    host_parallelism: usize,
    command: String,
    note: String,
    graph_build: Vec<BuildCell>,
    solvers: Vec<SolverCell>,
    alns_quality: AlnsQualityCell,
    #[serde(skip_serializing_if = "Option::is_none")]
    baseline: Option<serde_json::Value>,
}

/// The anytime-quality curve: how much of the greedy↔best-known MaxSum
/// gap a short ALNS budget closes on the fig3 workload.
#[derive(Serialize)]
struct AlnsQualityCell {
    instance: String,
    seed: u64,
    budget_ms: u64,
    greedy_max_sum: f64,
    alns_max_sum: f64,
    alns_iterations: u64,
    alns_improvements: u64,
    /// Best MaxSum any longer ALNS run found (the denominator's anchor).
    best_known_max_sum: f64,
    best_known_budget_ms: u64,
    /// MinCostFlow relaxation bound: no arrangement can exceed this.
    relaxation_upper_bound: f64,
    /// `(alns − greedy) / (best_known − greedy)`, in percent. 100 when
    /// the budgeted run already matches the best known.
    gap_closed_pct: f64,
}

#[derive(Serialize)]
struct BuildCell {
    structure: String,
    threads: usize,
    seconds: f64,
    candidates: usize,
}

#[derive(Serialize)]
struct SolverCell {
    solver: String,
    stage: String,
    instance: String,
    exact: bool,
    budget_aware: bool,
    seconds: f64,
    max_sum: f64,
    pairs: usize,
    engine_stat_calls: u64,
}

/// Median wall-clock seconds of `f` over `repeats` runs.
fn median_secs(repeats: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..repeats)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// One solver through the registry over a prebuilt graph. `variant`
/// tags a non-default [`SolveParams`] configuration in the output row
/// (e.g. the binary-heap SSP fallback).
fn dispatch_cell(
    graph: &CandidateGraph,
    algo: Algorithm,
    instance_desc: &str,
    repeats: usize,
    params: &SolveParams,
    variant: Option<&str>,
) -> SolverCell {
    let solver = SolverRegistry::global().solver(algo);
    let stage = solver.stage();
    let caps = solver.capabilities();
    let name = match variant {
        Some(v) => format!("{} [{v}]", solver.name()),
        None => solver.name().to_string(),
    };
    let out = engine::solve_on(graph, algo, params, &BudgetMeter::unlimited());
    assert!(
        out.arrangement.validate(graph.instance()).is_empty(),
        "{name} produced an infeasible arrangement"
    );
    let seconds = median_secs(repeats, || {
        engine::solve_on(graph, algo, params, &BudgetMeter::unlimited());
    });
    let calls = EngineStats::snapshot()
        .iter()
        .find(|t| t.stage == stage)
        .map_or(0, |t| t.calls);
    assert!(
        calls as usize > repeats,
        "{name}: engine stats missed dispatches"
    );
    eprintln!("[{name}] {seconds:.4}s on {instance_desc}");
    SolverCell {
        solver: name,
        stage: stage.to_string(),
        instance: instance_desc.to_string(),
        exact: caps.exact,
        budget_aware: caps.budget_aware,
        seconds,
        max_sum: out.arrangement.max_sum(),
        pairs: out.arrangement.len(),
        engine_stat_calls: calls,
    }
}

fn build_cells(instance: &Instance, repeats: usize) -> Vec<BuildCell> {
    let mut cells = Vec::new();
    for t in [1usize, 4] {
        let threads = Threads::new(t);
        let csr = median_secs(repeats, || {
            CandidateGraph::build(instance, threads);
        });
        let dense = median_secs(repeats, || {
            instance.dense_similarity(threads);
        });
        let candidates = CandidateGraph::build(instance, threads).num_candidates();
        eprintln!("[build] threads = {t}: csr {csr:.4}s, dense {dense:.4}s");
        cells.push(BuildCell {
            structure: "candidate_graph_csr".to_string(),
            threads: t,
            seconds: csr,
            candidates,
        });
        cells.push(BuildCell {
            structure: "dense_similarity".to_string(),
            threads: t,
            seconds: dense,
            candidates: instance.num_events() * instance.num_users(),
        });
    }
    cells
}

/// The numbers to carry forward in the new snapshot's `baseline` field:
/// the previous snapshot's own `baseline` if it recorded one (the
/// oldest trajectory point wins), otherwise its `graph_build` and
/// `solvers` tables. `None` when no prior snapshot exists at `path` or
/// it does not parse.
fn baseline_from(path: &str) -> Option<serde_json::Value> {
    use serde_json::Value;
    let old: Value = serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()?;
    let Value::Object(fields) = old else {
        return None;
    };
    let field = |name: &str| {
        fields
            .iter()
            .find(|(key, _)| key == name)
            .map(|(_, value)| value.clone())
    };
    if let Some(baseline) = field("baseline") {
        return Some(baseline);
    }
    Some(Value::Object(vec![
        (
            "note".to_string(),
            Value::String(
                "numbers from the snapshot this file held before its last regeneration".to_string(),
            ),
        ),
        ("graph_build".to_string(), field("graph_build")?),
        ("solvers".to_string(), field("solvers")?),
    ]))
}

fn main() {
    let quick = cli::has_flag("quick");
    let smoke = cli::has_flag("smoke");
    let repeats = cli::repeats(if quick { 1 } else { 3 });
    let out = cli::flag_value("out").unwrap_or_else(|| "BENCH_engine.json".to_string());

    // The fig3 default workload: paper-default synthetic settings.
    let fig3_config = SyntheticConfig {
        num_events: if quick { 50 } else { 100 },
        num_users: if quick { 500 } else { 1000 },
        seed: 2015,
        ..Default::default()
    };
    let fig3_instance = fig3_config.generate();
    let fig3_desc = format!(
        "synthetic |V|={} |U|={} (fig3 defaults) seed=2015",
        fig3_config.num_events, fig3_config.num_users
    );

    // The exact solvers (including the exhaustive comparator, which
    // explores everything) need a small low-dimensional instance to
    // terminate — the fig6 shape.
    let exact_config = SyntheticConfig {
        num_events: 5,
        num_users: 8,
        dim: 2,
        cap_v_dist: CapDistribution::Uniform { min: 1, max: 3 },
        cap_u_dist: CapDistribution::Uniform { min: 1, max: 2 },
        conflict_ratio: 0.5,
        seed: 2015,
        ..Default::default()
    };
    let exact_instance = exact_config.generate();
    let exact_desc = format!(
        "synthetic |V|={} |U|={} d=2 c_v~U[1,3] c_u~U[1,2] cf=0.5 seed=2015",
        exact_config.num_events, exact_config.num_users
    );

    let graph_build = build_cells(&fig3_instance, repeats);

    EngineStats::reset();
    let fig3_graph = CandidateGraph::build(&fig3_instance, Threads::new(4));
    let exact_graph = CandidateGraph::build(&exact_instance, Threads::single());
    let defaults = SolveParams::default();
    let mut solvers = Vec::new();
    for algo in [
        Algorithm::Greedy,
        Algorithm::MinCostFlow,
        Algorithm::RandomV { seed: 42 },
        Algorithm::RandomU { seed: 42 },
    ] {
        solvers.push(dispatch_cell(
            &fig3_graph,
            algo,
            &fig3_desc,
            repeats,
            &defaults,
            None,
        ));
    }
    // The comparison-heap SSP fallback, through the same `SolveParams`
    // surface the registry exposes: isolates the radix-heap frontier's
    // share of the MinCostFlow speedup (every other kernel optimization
    // is heap-agnostic, and the arrangements are bit-identical).
    let binary_heap = SolveParams {
        mcf: McfConfig {
            heap: SspHeap::Binary,
            ..McfConfig::default()
        },
        ..SolveParams::default()
    };
    solvers.push(dispatch_cell(
        &fig3_graph,
        Algorithm::MinCostFlow,
        &fig3_desc,
        repeats,
        &binary_heap,
        Some("binary-heap"),
    ));
    for algo in [Algorithm::Prune, Algorithm::Exhaustive, Algorithm::ExactDp] {
        solvers.push(dispatch_cell(
            &exact_graph,
            algo,
            &exact_desc,
            repeats,
            &defaults,
            None,
        ));
    }

    // --- ALNS anytime quality: a fixed 2 s budget on fig3, measured
    // against Greedy-GEACC (the seed it must beat) and a longer
    // multi-seed ALNS run (the best-known anchor for the gap).
    let budget_ms = 2_000u64;
    let best_known_ms = if quick { 3_000 } else { 8_000 };
    let alns_seed = 2015u64;
    let greedy_max_sum = engine::solve_on(
        &fig3_graph,
        Algorithm::Greedy,
        &defaults,
        &BudgetMeter::unlimited(),
    )
    .arrangement
    .max_sum();
    let start = Instant::now();
    let alns_out = engine::solve_on(
        &fig3_graph,
        Algorithm::Alns { seed: alns_seed },
        &defaults,
        &BudgetMeter::new(&SolveBudget::from_timeout_ms(budget_ms)),
    );
    let alns_secs = start.elapsed().as_secs_f64();
    let alns_stats = alns_out.alns.expect("ALNS outcomes carry run counters");
    let alns_max_sum = alns_out.arrangement.max_sum();
    assert!(
        alns_out
            .arrangement
            .validate(fig3_graph.instance())
            .is_empty(),
        "ALNS-GEACC produced an infeasible arrangement"
    );
    // Best known: longer budget, uncapped iterations, three seeds.
    let long_params = SolveParams {
        alns: AlnsConfig {
            max_iterations: u32::MAX,
            ..AlnsConfig::default()
        },
        ..SolveParams::default()
    };
    let mut best_known = alns_max_sum;
    for seed in [1u64, 7, 42] {
        let long = engine::solve_on(
            &fig3_graph,
            Algorithm::Alns { seed },
            &long_params,
            &BudgetMeter::new(&SolveBudget::from_timeout_ms(best_known_ms)),
        );
        best_known = best_known.max(long.arrangement.max_sum());
    }
    let gap = best_known - greedy_max_sum;
    let gap_closed_pct = if gap <= 1e-9 {
        100.0
    } else {
        (alns_max_sum - greedy_max_sum) / gap * 100.0
    };
    eprintln!(
        "[ALNS-GEACC] {alns_secs:.4}s on {fig3_desc}: greedy {greedy_max_sum:.4} -> \
         alns {alns_max_sum:.4} (best known {best_known:.4}, gap closed {gap_closed_pct:.1}%)"
    );
    let alns_calls = EngineStats::snapshot()
        .iter()
        .find(|t| t.stage == "alns")
        .map_or(0, |t| t.calls);
    solvers.push(SolverCell {
        solver: "ALNS-GEACC".to_string(),
        stage: "alns".to_string(),
        instance: format!("{fig3_desc} [{budget_ms}ms budget]"),
        exact: false,
        budget_aware: true,
        seconds: alns_secs,
        max_sum: alns_max_sum,
        pairs: alns_out.arrangement.len(),
        engine_stat_calls: alns_calls,
    });
    let alns_quality = AlnsQualityCell {
        instance: fig3_desc.clone(),
        seed: alns_seed,
        budget_ms,
        greedy_max_sum,
        alns_max_sum,
        alns_iterations: alns_stats.iterations,
        alns_improvements: alns_stats.improvements,
        best_known_max_sum: best_known,
        best_known_budget_ms: best_known_ms,
        relaxation_upper_bound: relaxation_upper_bound(&fig3_instance),
        gap_closed_pct,
    };

    let baseline = baseline_from(&out);
    let snapshot = Snapshot {
        host_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        command: format!(
            "cargo run -p geacc-bench --release --bin engine{}",
            if quick { " -- --quick" } else { "" }
        ),
        note: "seconds are medians over the repeats. graph_build compares the engine's \
               shared CSR candidate graph against the dense |V|x|U| similarity matrix it \
               replaced on the solver hot paths, at 1 and 4 build workers. solvers runs \
               every registered algorithm through engine::solve_on over one prebuilt \
               graph (exact solvers on the small low-dimensional instance); \
               engine_stat_calls cross-checks the EngineStats accumulation. The \
               [binary-heap] row reruns MinCostFlow-GEACC with the comparison-heap SSP \
               fallback (bit-identical result) to isolate the radix frontier's share of \
               the speedup. alns_quality records the anytime curve: the MaxSum a 2s \
               ALNS-GEACC budget reaches on fig3 vs Greedy-GEACC and a longer multi-seed \
               best-known run, as the percentage of the greedy-to-best-known gap closed. \
               baseline carries the oldest recorded snapshot forward across \
               regenerations. Compare the Greedy-GEACC row against BENCH_parallel.json's \
               greedy_shared_graph for the no-regression check."
            .to_string(),
        graph_build,
        solvers,
        alns_quality,
        baseline,
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write(&out, json + "\n").expect("write snapshot");
    eprintln!("wrote {out}");

    if smoke {
        let mcf = snapshot
            .solvers
            .iter()
            .find(|c| c.solver == "MinCostFlow-GEACC")
            .expect("smoke gate: MinCostFlow-GEACC row missing");
        assert!(
            mcf.seconds <= MCF_SMOKE_CEILING_SECS,
            "smoke gate: MinCostFlow-GEACC took {:.3}s on the fig3 instance \
             (ceiling {MCF_SMOKE_CEILING_SECS}s) — the SSP kernel regressed",
            mcf.seconds
        );
        eprintln!(
            "smoke gate: MinCostFlow-GEACC {:.3}s <= {MCF_SMOKE_CEILING_SECS}s ceiling: ok",
            mcf.seconds
        );
        let q = &snapshot.alns_quality;
        assert!(
            q.alns_max_sum >= q.greedy_max_sum - 1e-9,
            "smoke gate: ALNS-GEACC ({:.4}) fell below its Greedy-GEACC seed ({:.4})",
            q.alns_max_sum,
            q.greedy_max_sum
        );
        eprintln!(
            "smoke gate: ALNS-GEACC {:.4} >= Greedy-GEACC {:.4} ({:.1}% of gap closed): ok",
            q.alns_max_sum, q.greedy_max_sum, q.gap_closed_pct
        );
    }
}
