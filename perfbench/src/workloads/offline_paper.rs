//! offline_paper: the reproduced path with no service in the way. Rounds
//! of Greedy-GEACC, MinCostFlow-GEACC and ALNS on Meetup-sim Vancouver,
//! and Prune-GEACC on a fig6-tier instance, through `engine::solve_on`
//! over prebuilt graphs.

use super::layered::{self, Traced};
use super::*;
use crate::replay::SolveLog;
use geacc_core::algorithms::exact_dp;
use geacc_core::parallel::Threads;
use geacc_core::{loader, CandidateGraph};
use geacc_datagen::{CapDistribution, City, MeetupConfig, SyntheticConfig};
use std::collections::BTreeMap;

/// Seconds of `--seconds` per round of the four algorithms.
const SECONDS_PER_ROUND: f64 = 2.5;
/// ALNS's node budget: Greedy's ~10,000 seeding ticks on Vancouver plus
/// ~600 iterations.
const ALNS_NODES: u64 = 10_700;
const SETUPS: usize = 9;
/// The fig6-tier exact instance (5 events, d = 2, c_v ~ U[1, 10]) is
/// fixed so that Prune-GEACC proves optimality in about 0.1 s.
const EXACT_USERS: usize = 10;
const EXACT_SEED: u64 = 4;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let vancouver = MeetupConfig {
        seed: INSTANCE_SEED,
        ..MeetupConfig::new(City::Vancouver)
    }
    .generate();
    let exact = SyntheticConfig {
        num_events: 5,
        num_users: EXACT_USERS,
        dim: 2,
        cap_v_dist: CapDistribution::Uniform { min: 1, max: 10 },
        seed: EXACT_SEED,
        ..SyntheticConfig::default()
    }
    .generate();
    let vpath = ctx.work.join("vancouver.json");
    let epath = ctx.work.join("exact.json");
    write_instance(&vancouver, &vpath)?;
    write_instance(&exact, &epath)?;
    drop((vancouver, exact));
    let (vp, ep) = (vpath.to_string_lossy(), epath.to_string_lossy());
    let load = |p: &str| loader::load_instance(p).map_err(|e| e.to_string());
    let threads = Threads::new(crate::serve::SOLVE_THREADS);

    // Set-ups run half before the rounds and half after them, so the
    // median samples both ends of the run.
    let mut setup = Samples::default();
    let set_up = |setup: &mut Samples| -> Result<(), String> {
        let t0 = Instant::now();
        let v = load(&vp)?;
        let gv = CandidateGraph::build(&v, threads);
        let e = load(&ep)?;
        let ge = CandidateGraph::build(&e, threads);
        setup.push(t0.elapsed().as_secs_f64());
        std::hint::black_box((gv.num_candidates(), ge.num_candidates()));
        Ok(())
    };
    for _ in 0..SETUPS / 2 {
        set_up(&mut setup)?;
    }
    let (v, e) = (load(&vp)?, load(&ep)?);
    let (gv, ge) = (
        CandidateGraph::build(&v, threads),
        CandidateGraph::build(&e, threads),
    );
    let dp = exact_dp(&e)
        .map_err(|e| format!("exact-dp: {e:?}"))?
        .max_sum();

    let rounds = ((ctx.seconds as f64 / SECONDS_PER_ROUND).round() as usize).max(2);
    let mut r = RunResult::default();
    let mut times: BTreeMap<&str, Samples> = BTreeMap::new();
    let (mut alns_max_sum, mut greedy_max_sum) = (0.0, 0.0);
    let mut blocks = Blocks::new(4);
    let started = Instant::now();
    for round in 0..rounds {
        for algo in algorithms(ctx.seed, round) {
            let name = replay::algo_name(algo);
            let (graph, inst) = if name == "prune" {
                (&ge, &e)
            } else {
                (&gv, &v)
            };
            let t0 = Instant::now();
            let out = replay::engine_solve(graph, algo, nodes(algo));
            times
                .entry(name)
                .or_default()
                .push(t0.elapsed().as_secs_f64() * 1e3);
            let max_sum = out.arrangement.max_sum();
            let ok = out.arrangement.validate(inst).is_empty()
                && match name {
                    "prune" => {
                        out.status.is_complete() && (max_sum - dp).abs() <= 1e-9 * dp.abs().max(1.0)
                    }
                    // A node budget stops ALNS by design.
                    "alns" => true,
                    _ => out.status.is_complete(),
                };
            match name {
                "alns" if round == 0 => alns_max_sum = max_sum,
                "greedy" => greedy_max_sum = max_sum,
                _ => {}
            }
            check(&mut r.ledger, "solve", ok);
            blocks.done(1);
        }
    }
    let phase = started.elapsed().as_secs_f64();
    let solves = rounds * 4;
    for _ in SETUPS / 2..SETUPS {
        set_up(&mut setup)?;
    }

    let m = &mut r.e2e;
    put_setup(m, &setup);
    let rss = crate::util::vm_hwm_mb("self").unwrap_or(0.0);
    m.count("peak_rss_mb", rss, "MB");
    put_rate(m, &blocks, solves as f64 / phase);
    for (metric, name) in [
        ("solve_greedy_ms", "greedy"),
        ("solve_mcf_ms", "mincostflow"),
        ("solve_alns_ms", "alns"),
        ("solve_prune_ms", "prune"),
    ] {
        let s = times.get(name).cloned().unwrap_or_default();
        m.median(metric, &s, "ms");
        m.put(&format!("{metric}_fastest"), s.min(), "ms", s.len(), "min");
    }
    m.count("max_sum", alns_max_sum, "maxsum");
    m.count("max_sum_vs_greedy", alns_max_sum / greedy_max_sum, "ratio");
    r.properties = vec![
        ("rounds", num(rounds)),
        ("vancouver_candidates", num(gv.num_candidates())),
        ("exact_users", num(EXACT_USERS)),
        ("exact_seed", num(EXACT_SEED)),
        ("alns_max_nodes", num(ALNS_NODES)),
    ];

    if ctx.trace {
        // The same rounds through `SolverPipeline::run_on`, in spans.
        let mut t = Tracer::new(true);
        let v = t.span("loader.load_instance", 0, || load(&vp))?;
        let e = t.span("loader.load_instance", 0, || load(&ep))?;
        let gv = t.span("engine.flats_build", 0, || {
            CandidateGraph::build(&v, threads)
        });
        let ge = t.span("engine.flats_build", 0, || {
            CandidateGraph::build(&e, threads)
        });
        let mut log = SolveLog::default();
        let t0 = Instant::now();
        for round in 0..rounds {
            for algo in algorithms(ctx.seed, round) {
                let graph = if matches!(algo, Algorithm::Prune) {
                    &ge
                } else {
                    &gv
                };
                log.run(&mut t, round as u64 + 1, graph, algo, nodes(algo));
            }
        }
        r.layers = layered::report(
            &t,
            &Traced {
                solves: Some(&log),
                candidates: gv.num_candidates(),
                e2e_s: phase,
                replay_s: t0.elapsed().as_secs_f64(),
                ..Traced::default()
            },
        );
        write_spans(ctx, &t)?;
    }
    Ok(r)
}

/// One round's solves. ALNS takes a fresh seed each round, so a run's
/// median averages over several seeds' search paths.
fn algorithms(seed: u64, round: usize) -> [Algorithm; 4] {
    let alns = seed.wrapping_mul(1_000).wrapping_add(round as u64);
    [
        Algorithm::Greedy,
        Algorithm::MinCostFlow,
        Algorithm::Alns { seed: alns },
        Algorithm::Prune,
    ]
}

fn nodes(algo: Algorithm) -> Option<u64> {
    matches!(algo, Algorithm::Alns { .. }).then_some(ALNS_NODES)
}
