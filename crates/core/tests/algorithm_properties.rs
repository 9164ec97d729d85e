//! Property-based tests of the paper's theorems on random instances.
//!
//! Oracles: Prune-GEACC / exhaustive search give the true optimum on
//! small instances, against which the approximation ratios (Theorems 2–3)
//! and the relaxation optimality (Lemma 1 / Corollary 1) are checked.

use geacc_core::algorithms::{exhaustive, greedy, mincostflow, prune, random_u, random_v};
use geacc_core::engine::{refine_on, CandidateGraph, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::{
    BudgetMeter, ConflictGraph, DynamicConfig, EventId, IncrementalArranger, Instance, Mutation,
    Side, SimMatrix, SolveBudget,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A random matrix-specified instance, small enough for exact search.
#[derive(Debug, Clone)]
struct SmallSpec {
    rows: Vec<Vec<f64>>,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    conflict_pairs: Vec<(usize, usize)>,
}

impl SmallSpec {
    fn build(&self) -> Instance {
        let nv = self.rows.len();
        let conflicts = ConflictGraph::from_pairs(
            nv,
            self.conflict_pairs
                .iter()
                .map(|&(a, b)| (EventId((a % nv) as u32), EventId((b % nv) as u32))),
        );
        Instance::from_matrix(
            SimMatrix::from_rows(&self.rows),
            self.cap_v.clone(),
            self.cap_u.clone(),
            conflicts,
        )
        .expect("spec shapes are consistent")
    }
}

fn small_spec(max_v: usize, max_u: usize) -> impl Strategy<Value = SmallSpec> {
    (1..=max_v, 1..=max_u).prop_flat_map(move |(nv, nu)| {
        // Two-decimal similarities avoid float-tie flakiness.
        let sim = (0u32..=100).prop_map(|x| x as f64 / 100.0);
        let rows = proptest::collection::vec(proptest::collection::vec(sim, nu), nv);
        let cap_v = proptest::collection::vec(1u32..=3, nv);
        let cap_u = proptest::collection::vec(1u32..=3, nu);
        let conflicts = proptest::collection::vec((0..nv.max(1), 0..nv.max(1)), 0..=nv * 2);
        (rows, cap_v, cap_u, conflicts).prop_map(|(rows, cap_v, cap_u, conflict_pairs)| SmallSpec {
            rows,
            cap_v,
            cap_u,
            conflict_pairs,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every algorithm always emits a feasible arrangement.
    #[test]
    fn all_algorithms_are_feasible(spec in small_spec(4, 8), seed in 0u64..1000) {
        let inst = spec.build();
        let mut rng = StdRng::seed_from_u64(seed);
        for (name, arr) in [
            ("greedy", greedy(&inst)),
            ("mincostflow", mincostflow(&inst).arrangement),
            ("prune", prune(&inst).arrangement),
            ("random_v", random_v(&inst, &mut rng)),
            ("random_u", random_u(&inst, &mut rng)),
        ] {
            let violations = arr.validate(&inst);
            prop_assert!(violations.is_empty(), "{name}: {violations:?}");
        }
    }

    /// The three exact algorithms agree: Prune-GEACC, exhaustive search,
    /// and the capacity-vector DP.
    #[test]
    fn exact_algorithms_agree(spec in small_spec(3, 5)) {
        let inst = spec.build();
        let a = prune(&inst).arrangement.max_sum();
        let b = exhaustive(&inst).arrangement.max_sum();
        let dp = geacc_core::algorithms::exact_dp(&inst)
            .expect("small instance fits the DP");
        prop_assert!((a - b).abs() < 1e-9, "prune={a} exhaustive={b}");
        prop_assert!((a - dp.max_sum()).abs() < 1e-9,
            "prune={a} dp={}", dp.max_sum());
        prop_assert!(dp.validate(&inst).is_empty());
    }

    /// Users arriving one by one (an arranger over a copy with every
    /// user capacity 0, one `SetCapacity` per arrival): feasible for
    /// every arrival prefix, only the arriving user gains seats and no
    /// earlier one loses any, and never above the optimum.
    #[test]
    fn online_arranger_invariants(spec in small_spec(4, 8)) {
        let inst = spec.build();
        let opt = prune(&inst).arrangement.max_sum();
        let mut closed = inst.clone();
        for u in inst.users() {
            closed.set_user_capacity(u, 0);
        }
        let mut live = IncrementalArranger::new(closed, DynamicConfig::default());
        for u in inst.users() {
            let before = live.arrangement().clone();
            let report = live
                .apply(Mutation::SetCapacity {
                    side: Side::User,
                    id: u.0,
                    capacity: inst.user_capacity(u),
                })
                .unwrap();
            prop_assert!(live.arrangement().validate(&inst).is_empty());
            prop_assert_eq!(report.evicted, 0);
            prop_assert_eq!(live.arrangement().events_of(u).len(), report.reassigned);
            prop_assert!(before.pairs().all(|(v, w)| live.arrangement().contains(v, w)));
        }
        prop_assert!(live.max_sum() <= opt + 1e-9);
    }

    /// Theorem 3: Greedy ≥ OPT / (1 + max c_u).
    #[test]
    fn greedy_respects_its_approximation_ratio(spec in small_spec(4, 6)) {
        let inst = spec.build();
        let opt = prune(&inst).arrangement.max_sum();
        let apx = greedy(&inst).max_sum();
        let ratio = 1.0 / (1.0 + inst.max_user_capacity() as f64);
        prop_assert!(apx + 1e-9 >= opt * ratio,
            "greedy={apx} opt={opt} required ratio={ratio}");
    }

    /// Theorem 2: MinCostFlow-GEACC ≥ OPT / max c_u.
    #[test]
    fn mincostflow_respects_its_approximation_ratio(spec in small_spec(4, 6)) {
        let inst = spec.build();
        let opt = prune(&inst).arrangement.max_sum();
        let apx = mincostflow(&inst).arrangement.max_sum();
        let ratio = 1.0 / inst.max_user_capacity().max(1) as f64;
        prop_assert!(apx + 1e-9 >= opt * ratio,
            "mcf={apx} opt={opt} required ratio={ratio}");
    }

    /// Corollary 1: the relaxation value upper-bounds the optimum; and
    /// Lemma 1: with CF = ∅ MinCostFlow-GEACC *attains* the optimum.
    #[test]
    fn relaxation_bounds_and_lemma1(spec in small_spec(3, 5)) {
        let mut spec = spec;
        let inst = spec.build();
        let res = mincostflow(&inst);
        let opt = prune(&inst).arrangement.max_sum();
        prop_assert!(res.relaxation.max_sum + 1e-9 >= opt,
            "relaxation {} below optimum {opt}", res.relaxation.max_sum);

        // Same instance without conflicts: MCF is exact.
        spec.conflict_pairs.clear();
        let free = spec.build();
        let res = mincostflow(&free);
        let opt = prune(&free).arrangement.max_sum();
        prop_assert!((res.arrangement.max_sum() - opt).abs() < 1e-9,
            "CF=∅: mcf {} != opt {opt}", res.arrangement.max_sum());
    }

    /// Greedy is maximal (Lemma 5): nothing can be added to its output.
    #[test]
    fn greedy_is_maximal(spec in small_spec(4, 8)) {
        let inst = spec.build();
        let mut arr = greedy(&inst);
        for v in inst.events() {
            for u in inst.users() {
                prop_assert!(arr.try_add(&inst, v, u).is_none(),
                    "could add ({v}, {u}) to greedy output");
            }
        }
    }

    /// Improving a given arrangement (warm-started ALNS under a node
    /// budget): monotone, feasible, never above the optimum.
    #[test]
    fn local_search_invariants(spec in small_spec(4, 6), seed in 0u64..50) {
        let inst = spec.build();
        let start = random_v(&inst, &mut StdRng::seed_from_u64(seed));
        let before = start.max_sum();
        let graph = CandidateGraph::build(&inst, Threads::single());
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(2_000));
        let improved = refine_on(&graph, &SolveParams::default(), &meter, &start).arrangement;
        prop_assert!(improved.max_sum() + 1e-9 >= before);
        prop_assert!(improved.validate(&inst).is_empty());
        let opt = prune(&inst).arrangement.max_sum();
        prop_assert!(improved.max_sum() <= opt + 1e-9);
    }

    /// Baselines never beat the optimum (sanity of the whole chain).
    #[test]
    fn baselines_below_optimum(spec in small_spec(3, 5), seed in 0u64..100) {
        let inst = spec.build();
        let opt = prune(&inst).arrangement.max_sum();
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(random_v(&inst, &mut rng).max_sum() <= opt + 1e-9);
        prop_assert!(random_u(&inst, &mut rng).max_sum() <= opt + 1e-9);
    }
}
