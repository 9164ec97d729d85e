//! Stress sweep: every algorithm against every workload family, chained
//! invariants. Where the property suites sample deeply from one
//! generator, this test walks the full matrix once — the "does the whole
//! product hang together" check a release would gate on.

use geacc::algorithms::{exact_dp, greedy, mincostflow, random_u, random_v};
use geacc::core::{DynamicConfig, IncrementalArranger, Mutation, Side};
use geacc::datagen::{
    AttrDistribution, CapDistribution, City, MeetupConfig, SyntheticConfig, TemporalConfig,
};
use geacc::engine::{refine_on, CandidateGraph, SolveParams};
use geacc::parallel::Threads;
use geacc::{Arrangement, BudgetMeter, Instance, SolveBudget};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn workloads() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for (name, attr) in [
        ("uniform", AttrDistribution::Uniform),
        ("normal", AttrDistribution::Normal),
        ("zipf", AttrDistribution::Zipf { exponent: 1.3 }),
    ] {
        for ratio in [0.0, 0.5, 1.0] {
            out.push((
                format!("synthetic-{name}-cf{ratio}"),
                SyntheticConfig {
                    num_events: 12,
                    num_users: 60,
                    attr_dist: attr,
                    conflict_ratio: ratio,
                    seed: 77,
                    ..SyntheticConfig::default()
                }
                .generate(),
            ));
        }
    }
    out.push((
        "meetup-auckland".into(),
        MeetupConfig::new(City::Auckland).generate(),
    ));
    out.push((
        "temporal-weekend".into(),
        TemporalConfig {
            num_events: 15,
            num_users: 80,
            seed: 78,
            ..TemporalConfig::default()
        }
        .generate()
        .instance,
    ));
    out.push((
        "tight-capacity".into(),
        SyntheticConfig {
            num_events: 10,
            num_users: 50,
            cap_v_dist: CapDistribution::Uniform { min: 1, max: 2 },
            cap_u_dist: CapDistribution::Uniform { min: 1, max: 1 },
            seed: 79,
            ..SyntheticConfig::default()
        }
        .generate(),
    ));
    out
}

/// `inst`'s users arriving in id order: an arranger over a copy with
/// every user capacity 0, one `SetCapacity` per arrival.
fn arrivals(inst: &Instance) -> Arrangement {
    let mut closed = inst.clone();
    for u in inst.users() {
        closed.set_user_capacity(u, 0);
    }
    let mut live = IncrementalArranger::new(closed, DynamicConfig::default());
    for u in inst.users() {
        live.apply(Mutation::SetCapacity {
            side: Side::User,
            id: u.0,
            capacity: inst.user_capacity(u),
        })
        .expect("a known user");
    }
    live.arrangement().clone()
}

#[test]
fn every_algorithm_on_every_workload() {
    for (name, inst) in workloads() {
        let mut rng = StdRng::seed_from_u64(7);
        let greedy_arr = greedy(&inst);
        let mcf = mincostflow(&inst);
        let online = arrivals(&inst);
        let rv = random_v(&inst, &mut rng);
        let ru = random_u(&inst, &mut rng);

        for (algo, arr) in [
            ("greedy", &greedy_arr),
            ("mincostflow", &mcf.arrangement),
            ("online", &online),
            ("random_v", &rv),
            ("random_u", &ru),
        ] {
            let violations = arr.validate(&inst);
            assert!(violations.is_empty(), "{name}/{algo}: {violations:?}");
        }

        // Shape invariants the evaluation depends on.
        assert!(
            mcf.relaxation.max_sum + 1e-6 >= greedy_arr.max_sum(),
            "{name}: relaxation below greedy"
        );
        assert!(
            greedy_arr.max_sum() + 1e-9 >= rv.max_sum().min(ru.max_sum()),
            "{name}: greedy lost to both baselines"
        );

        // ALNS refinement is universally safe.
        let graph = CandidateGraph::build(&inst, Threads::single());
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(500));
        let refined = refine_on(&graph, &SolveParams::default(), &meter, &online).arrangement;
        assert!(
            refined.validate(&inst).is_empty(),
            "{name}: ALNS refinement broke feasibility"
        );
        assert!(
            refined.max_sum() + 1e-9 >= online.max_sum(),
            "{name}: ALNS refinement lost value"
        );
    }
}

#[test]
fn exact_dp_brackets_every_approximation_on_small_workloads() {
    for seed in [0u64, 1, 2] {
        let inst = SyntheticConfig {
            num_events: 5,
            num_users: 15,
            cap_v_dist: CapDistribution::Uniform { min: 1, max: 10 },
            seed,
            ..SyntheticConfig::default()
        }
        .generate();
        let opt = exact_dp(&inst).expect("within DP limits");
        assert!(opt.validate(&inst).is_empty());
        let g = greedy(&inst).max_sum();
        let m = mincostflow(&inst).arrangement.max_sum();
        assert!(opt.max_sum() + 1e-9 >= g, "seed {seed}");
        assert!(opt.max_sum() + 1e-9 >= m, "seed {seed}");
        // Theorem bounds at the paper's literal effectiveness setting.
        let alpha = inst.max_user_capacity() as f64;
        assert!(
            g + 1e-9 >= opt.max_sum() / (1.0 + alpha),
            "seed {seed}: greedy ratio"
        );
        assert!(
            m + 1e-9 >= opt.max_sum() / alpha.max(1.0),
            "seed {seed}: mcf ratio"
        );
    }
}
