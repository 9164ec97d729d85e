//! Property suite for the incremental candidate-graph rebuild.
//!
//! The epoch cache contract, matching `geacc_core::dynamic::
//! IncrementalArranger::epoch_flats` and `GraphFlats::extended`: under
//! an arbitrary valid mutation stream, the incrementally maintained
//! flats are **bit-identical** to a from-scratch `GraphFlats::build` of
//! the live instance after every single mutation, at 1 and at 4 worker
//! threads, and epochs keep counting one per mutation. That is the
//! whole safety argument for drift-proportional rebuilds: the serving
//! layer may hand any epoch's cached flats to any solver and get
//! exactly the arrangement a fresh build would have produced.

use geacc_core::parallel::Threads;
use geacc_core::{
    ConflictGraph, DynamicConfig, EventId, GraphFlats, IncrementalArranger, Instance, Mutation,
    SimMatrix, UserId,
};
use proptest::prelude::*;
use std::sync::Arc;

/// A random matrix-specified base instance (same shape discipline as
/// the dynamic suite: two-decimal sims avoid float-tie flakiness).
#[derive(Debug, Clone)]
struct BaseSpec {
    rows: Vec<Vec<f64>>,
    cap_v: Vec<u32>,
    cap_u: Vec<u32>,
    conflict_pairs: Vec<(usize, usize)>,
}

impl BaseSpec {
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

fn base_spec(max_v: usize, max_u: usize) -> impl Strategy<Value = BaseSpec> {
    (1..=max_v, 1..=max_u).prop_flat_map(move |(nv, nu)| {
        let sim = (0u32..=100).prop_map(|x| x as f64 / 100.0);
        let rows = proptest::collection::vec(proptest::collection::vec(sim, nu), nv);
        let cap_v = proptest::collection::vec(1u32..=3, nv);
        let cap_u = proptest::collection::vec(1u32..=3, nu);
        let conflicts = proptest::collection::vec((0..nv.max(1), 0..nv.max(1)), 0..=nv);
        (rows, cap_v, cap_u, conflicts).prop_map(|(rows, cap_v, cap_u, conflict_pairs)| BaseSpec {
            rows,
            cap_v,
            cap_u,
            conflict_pairs,
        })
    })
}

/// A raw mutation op, reduced modulo the current dimensions at apply
/// time — growth-heavy (half the kinds add rows/columns) because the
/// incremental path is only exercised when dimensions change.
#[derive(Debug, Clone, Copy)]
struct OpSpec {
    kind: u8,
    x: usize,
    y: usize,
    cap: u32,
    seed: u64,
}

fn op_spec() -> impl Strategy<Value = OpSpec> {
    (0u8..8, 0usize..1024, 0usize..1024, 0u32..4, 0u64..u64::MAX).prop_map(
        |(kind, x, y, cap, seed)| OpSpec {
            kind,
            x,
            y,
            cap,
            seed,
        },
    )
}

/// Deterministic pseudo-similarities in `[0, 1]`, sprinkled with exact
/// zeros so appended rows/columns exercise the sparsity filter.
fn sims(seed: u64, len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((seed.wrapping_add(i as u64 * 7919)) % 101) as f64 / 100.0)
        .map(|s| if s < 0.3 { 0.0 } else { s })
        .collect()
}

fn materialize(op: OpSpec, inst: &Instance) -> Mutation {
    let nv = inst.num_events();
    let nu = inst.num_users();
    match op.kind {
        // Kinds 0-1: AddUser, 2-3: AddEvent (growth-heavy stream).
        0 | 1 => Mutation::AddUser {
            attrs: sims(op.seed, nv),
            capacity: op.cap,
        },
        2 | 3 => Mutation::AddEvent {
            attrs: sims(op.seed, nu),
            capacity: op.cap,
            conflicts: (0..nv.min(16))
                .filter(|i| (op.seed >> i) & 1 == 1)
                .map(|i| EventId(i as u32))
                .collect(),
        },
        4 => Mutation::RemoveUser {
            user: UserId((op.x % nu) as u32),
        },
        5 => Mutation::CloseEvent {
            event: EventId((op.x % nv) as u32),
        },
        6 => Mutation::AddConflict {
            a: EventId((op.x % nv) as u32),
            b: EventId((op.y % nv) as u32),
        },
        _ => Mutation::SetCapacity {
            side: if op.y % 2 == 0 {
                geacc_core::Side::Event
            } else {
                geacc_core::Side::User
            },
            id: (op.x % if op.y % 2 == 0 { nv } else { nu }) as u32,
            capacity: op.cap,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every mutation of a random stream, the incrementally
    /// extended flats match a from-scratch build of the live instance
    /// bit-for-bit — at 1 and 4 threads, on both the incremental and
    /// the scratch side — and both arrangers count the same epochs.
    #[test]
    fn incremental_flats_match_scratch_build_at_every_epoch(
        spec in base_spec(4, 8),
        ops in proptest::collection::vec(op_spec(), 1..14),
    ) {
        let base = spec.build();
        let mut single = IncrementalArranger::new(base.clone(), DynamicConfig::default());
        let mut pooled = IncrementalArranger::new(base, DynamicConfig::default());

        for (i, &op) in ops.iter().enumerate() {
            let mutation = materialize(op, single.instance());
            single.apply(mutation.clone()).expect("materialized ops are valid");
            pooled.apply(mutation).expect("same op stream");
            prop_assert_eq!(single.epoch(), pooled.epoch());
            prop_assert_eq!(single.epoch(), (i + 1) as u64);

            let inc_1 = single.epoch_flats(Threads::new(1));
            let inc_4 = pooled.epoch_flats(Threads::new(4));
            let scratch_1 = GraphFlats::build(single.instance(), Threads::new(1));
            let scratch_4 = GraphFlats::build(pooled.instance(), Threads::new(4));
            prop_assert!(inc_1.bit_eq(&scratch_1), "epoch {}: 1-thread incremental != scratch", i + 1);
            prop_assert!(inc_4.bit_eq(&scratch_4), "epoch {}: 4-thread incremental != scratch", i + 1);
            prop_assert!(inc_1.bit_eq(&inc_4), "epoch {}: thread count changed the flats", i + 1);
        }
    }

    /// `new` seeds the cache with its Greedy's graph: the first
    /// `epoch_flats` hands out that `Arc` (a clone taken before any pin
    /// shares it) bit-identical to a scratch build, and a second call
    /// hands out the same `Arc` again.
    #[test]
    fn construction_seeds_the_epoch_cache(spec in base_spec(4, 8)) {
        let mut arranger = IncrementalArranger::new(spec.build(), DynamicConfig::default());
        let mut twin = arranger.clone();
        for threads in [1, 4] {
            let first = arranger.epoch_flats(Threads::new(threads));
            let scratch = GraphFlats::build(arranger.instance(), Threads::new(threads));
            prop_assert!(first.bit_eq(&scratch), "seeded flats != scratch at {} threads", threads);
            prop_assert!(Arc::ptr_eq(&first, &arranger.epoch_flats(Threads::new(threads))));
            prop_assert!(Arc::ptr_eq(&first, &twin.epoch_flats(Threads::new(threads))));
        }
    }

    /// `new`, then `AddUser`, then the first `epoch_flats`: the seeded
    /// cache no longer covers the instance, so the pin extends it — and
    /// the result still matches a scratch build bit for bit.
    #[test]
    fn first_pin_after_growth_extends_the_seeded_cache(
        spec in base_spec(4, 8),
        seed in 0u64..u64::MAX,
        capacity in 0u32..4,
    ) {
        let mut arranger = IncrementalArranger::new(spec.build(), DynamicConfig::default());
        let mut twin = arranger.clone();
        let attrs = sims(seed, arranger.instance().num_events());
        arranger.apply(Mutation::AddUser { attrs, capacity }).expect("a valid column");
        let seeded = twin.epoch_flats(Threads::new(1));
        prop_assert!(!seeded.covers(arranger.instance()));
        let grown = arranger.epoch_flats(Threads::new(1));
        prop_assert!(!Arc::ptr_eq(&grown, &seeded));
        prop_assert!(grown.bit_eq(&GraphFlats::build(arranger.instance(), Threads::new(1))));
    }

    /// The cache is an `Arc` reuse for every non-growing mutation: the
    /// pointer only changes when dimensions change.
    #[test]
    fn cache_is_reused_unless_dimensions_grow(
        spec in base_spec(3, 6),
        ops in proptest::collection::vec(op_spec(), 1..10),
    ) {
        let mut arranger = IncrementalArranger::new(spec.build(), DynamicConfig::default());
        let mut last = arranger.epoch_flats(Threads::new(1));
        for &op in &ops {
            let mutation = materialize(op, arranger.instance());
            let grows = matches!(mutation, Mutation::AddUser { .. } | Mutation::AddEvent { .. });
            arranger.apply(mutation).expect("materialized ops are valid");
            let fresh = arranger.epoch_flats(Threads::new(1));
            if grows {
                prop_assert!(!Arc::ptr_eq(&fresh, &last));
            } else {
                prop_assert!(Arc::ptr_eq(&fresh, &last));
            }
            last = fresh;
        }
    }
}
