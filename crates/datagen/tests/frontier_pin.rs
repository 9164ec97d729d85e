//! Pins of the three Greedy-GEACC frontiers on paper-scale instances:
//! the full Greedy solve, ALNS's noisy region repair and the live
//! arranger's repair, and of the candidate graph's CSR they all read.
//! Each constant is a digest of the arrangements, repair reports or
//! CSR arrays produced, bit for bit, so a change to the frontier's
//! order, tie-breaks, budget ticks or RNG draws, or to the CSR's
//! layout, shows here even when every self-comparison suite still
//! agrees with itself.
//!
//! Graphs are built on `GEACC_THREADS` workers; the pins hold at every
//! worker count (CI runs this file at 1 and 4).

use geacc_core::algorithms::greedy_on;
use geacc_core::engine::{CandidateGraph, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, SolveBudget};
use geacc_core::{
    alns_on, AlnsConfig, Arrangement, ConflictGraph, DynamicConfig, EventId, IncrementalArranger,
    Instance, Mutation, Side, SimMatrix, UserId,
};
use geacc_datagen::{City, MeetupConfig, SyntheticConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn mix(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of an arrangement: its pairs in iteration order, then its
/// `MaxSum` bits.
fn digest(arrangement: &Arrangement) -> u64 {
    let mut h = Fnv::new();
    h.mix(arrangement.len() as u64);
    for (v, u) in arrangement.pairs() {
        h.mix(v.0 as u64);
        h.mix(u.0 as u64);
    }
    h.mix(arrangement.max_sum().to_bits());
    h.0
}

/// fig3's default point: 100 events × 1,000 users, generator seed 2015.
fn fig3() -> Instance {
    SyntheticConfig {
        seed: 2015,
        ..SyntheticConfig::default()
    }
    .generate()
}

fn vancouver() -> Instance {
    MeetupConfig {
        seed: 2015,
        ..MeetupConfig::new(City::Vancouver)
    }
    .generate()
}

/// `(digest, MaxSum bits, stopped)` of Greedy-GEACC, unbudgeted and
/// under 500, 3,000 and 5,000 nodes. A budget stops it either inside
/// the seeding scans (one tick per node) or inside the heap loop (one
/// per pop), so the budgeted runs pin where the ticks fall.
fn greedy_runs(inst: &Instance) -> [(u64, u64, bool); 4] {
    let graph = CandidateGraph::build(inst, Threads::from_env());
    let run = |meter: Option<&BudgetMeter>| {
        let (arrangement, stopped) = greedy_on(&graph, meter);
        (
            digest(&arrangement),
            arrangement.max_sum().to_bits(),
            stopped.is_some(),
        )
    };
    [
        run(None),
        run(Some(&BudgetMeter::new(&SolveBudget::from_max_nodes(500)))),
        run(Some(&BudgetMeter::new(&SolveBudget::from_max_nodes(3_000)))),
        run(Some(&BudgetMeter::new(&SolveBudget::from_max_nodes(5_000)))),
    ]
}

#[test]
fn greedy_on_fig3_default() {
    assert_eq!(
        greedy_runs(&fig3()),
        [
            (17374006439078634149, 4655201174782193361, false),
            (9808874869469701221, 0, true),
            (10129266659778488164, 4652228287304552004, true),
            (17374006439078634149, 4655201174782193361, false),
        ]
    );
}

#[test]
fn greedy_on_meetup_vancouver() {
    assert_eq!(
        greedy_runs(&vancouver()),
        [
            (10636752865788068156, 4661960767197454846, false),
            (9808874869469701221, 0, true),
            (11145001921300612057, 4649148855162935719, true),
            (14154165836972726916, 4656831846627442923, true),
        ]
    );
}

#[test]
fn alns_on_fig3_default() {
    let inst = fig3();
    let threads = Threads::from_env();
    let graph = CandidateGraph::build(&inst, threads);
    let params = SolveParams {
        threads,
        seed: 7,
        alns: AlnsConfig::default(),
        ..SolveParams::default()
    };
    let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(5_800));
    let (best, stopped, stats) = alns_on(&graph, &params, &meter, None);
    assert!(stopped.is_some());
    assert!(best.validate(&inst).is_empty());
    assert_eq!(
        (
            digest(&best),
            best.max_sum().to_bits(),
            stats.iterations,
            stats.improvements
        ),
        (10582545074163375319, 4655210277321721072, 1097, 66)
    );
}

/// A seeded stream over all six mutation kinds. Attributes and
/// capacities follow Table III (attributes U[0, 10⁴], c_u ~ U[1, 4],
/// c_v ~ U[1, 50]); targets are uniform over the ids that exist.
fn mutation(rng: &mut StdRng, inst: &Instance) -> Mutation {
    let (nv, nu) = (inst.num_events() as u32, inst.num_users() as u32);
    let attrs = |rng: &mut StdRng| -> Vec<f64> {
        (0..inst.dim())
            .map(|_| rng.gen::<f64>() * 10_000.0)
            .collect()
    };
    match rng.gen_range(0..6u32) {
        0 => Mutation::AddUser {
            attrs: attrs(rng),
            capacity: rng.gen_range(1..=4),
        },
        1 => Mutation::RemoveUser {
            user: UserId(rng.gen_range(0..nu)),
        },
        2 => Mutation::AddEvent {
            attrs: attrs(rng),
            capacity: rng.gen_range(1..=50),
            conflicts: (0..rng.gen_range(0..4u32))
                .map(|_| EventId(rng.gen_range(0..nv)))
                .collect(),
        },
        3 => Mutation::CloseEvent {
            event: EventId(rng.gen_range(0..nv)),
        },
        4 => Mutation::AddConflict {
            a: EventId(rng.gen_range(0..nv)),
            b: EventId(rng.gen_range(0..nv)),
        },
        _ => {
            if rng.gen::<bool>() {
                Mutation::SetCapacity {
                    side: Side::User,
                    id: rng.gen_range(0..nu),
                    capacity: rng.gen_range(0..=4),
                }
            } else {
                Mutation::SetCapacity {
                    side: Side::Event,
                    id: rng.gen_range(0..nv),
                    capacity: rng.gen_range(0..=60),
                }
            }
        }
    }
}

/// Apply `count` mutations, folding every report's
/// `(evicted, reassigned, MaxSum bits)` into `h`.
fn drive(arranger: &mut IncrementalArranger, rng: &mut StdRng, count: usize, h: &mut Fnv) {
    for _ in 0..count {
        let m = mutation(rng, arranger.instance());
        let report = arranger.apply(m).expect("generated mutations are valid");
        h.mix(report.evicted as u64);
        h.mix(report.reassigned as u64);
        h.mix(report.max_sum_after.to_bits());
    }
}

/// 500 mutations on a 100×2,000 (d = 20) session: the first 250 on the
/// live session, then the last 250 both on it and on a session resumed
/// from its state (which holds no candidate graph). Both must give the
/// pinned report digest and final fingerprint.
#[test]
fn live_repair_on_a_mutation_stream() {
    let inst = SyntheticConfig {
        num_users: 2_000,
        seed: 2015,
        ..SyntheticConfig::default()
    }
    .generate();
    let mut live = IncrementalArranger::new(inst, DynamicConfig::default());
    let mut rng = StdRng::seed_from_u64(22);
    let mut h = Fnv::new();
    drive(&mut live, &mut rng, 250, &mut h);

    let mut resumed = IncrementalArranger::resume(
        live.instance().clone(),
        live.log().to_vec(),
        live.arrangement().clone(),
        live.baseline_max_sum(),
        DynamicConfig::default(),
    )
    .expect("a live state resumes");
    let (mut rng_resumed, mut h_resumed) = (rng.clone(), Fnv(h.0));
    drive(&mut live, &mut rng, 250, &mut h);
    drive(&mut resumed, &mut rng_resumed, 250, &mut h_resumed);

    const PIN: (u64, u64) = (14348032683864598348, 455726482087451976);
    assert_eq!((h.0, live.fingerprint()), PIN, "live session");
    assert_eq!((h_resumed.0, resumed.fingerprint()), PIN, "resumed session");
}

/// Digest of a candidate graph's CSR: its dimensions, then every
/// event's id-ascending row and sorted row, then every user's sorted
/// column, each as its length and its `(id, sim bits)` entries.
fn csr_digest(graph: &CandidateGraph) -> u64 {
    let mut h = Fnv::new();
    h.mix(graph.num_events() as u64);
    h.mix(graph.num_users() as u64);
    let mut run = |(ids, sims): (&[u32], &[f64])| {
        h.mix(ids.len() as u64);
        for (&id, s) in ids.iter().zip(sims) {
            h.mix(id as u64);
            h.mix(s.to_bits());
        }
    };
    for v in 0..graph.num_events() as u32 {
        run(graph.row(EventId(v)));
        run(graph.sorted_row(EventId(v)));
    }
    for u in 0..graph.num_users() as u32 {
        run(graph.sorted_col(UserId(u)));
    }
    h.0
}

/// A 64×8,192 matrix instance whose similarities are 0, ⅓, ⅔ or 1, so
/// almost every place in a sorted row or column is decided by the id
/// tie-break. At 524,288 cells it is above the build's grain floor.
fn tie_heavy() -> Instance {
    let (nv, nu) = (64, 8_192);
    let mut rng = StdRng::seed_from_u64(2015);
    let rows: Vec<Vec<f64>> = (0..nv)
        .map(|_| {
            (0..nu)
                .map(|_| f64::from(rng.gen_range(0..4u32)) / 3.0)
                .collect()
        })
        .collect();
    Instance::from_matrix(
        SimMatrix::from_rows(&rows),
        vec![5; nv],
        vec![2; nu],
        ConflictGraph::empty(nv),
    )
    .expect("a valid matrix instance")
}

#[test]
fn csr_of_builds() {
    let digests = [fig3(), vancouver(), tie_heavy()]
        .map(|inst| csr_digest(&CandidateGraph::build(&inst, Threads::from_env())));
    assert_eq!(
        digests,
        [
            16866269025921983000,
            13004851682705773867,
            11555157863164233392
        ]
    );
}

/// `epoch_flats` of a fig3 session under a seeded stream of all six
/// mutation kinds, read after 40 mutations and again after 40 more: the
/// first read extends the epoch-0 flats, the second extends those.
#[test]
fn csr_of_epoch_flats_on_a_growing_session() {
    let mut arranger = IncrementalArranger::new(fig3(), DynamicConfig::default());
    let mut rng = StdRng::seed_from_u64(23);
    let mut reports = Fnv::new();
    let mut reads = Vec::new();
    for _ in 0..2 {
        drive(&mut arranger, &mut rng, 40, &mut reports);
        let flats = arranger.epoch_flats(Threads::from_env());
        let inst = arranger.instance();
        let graph = CandidateGraph::from_flats(inst, flats);
        reads.push((inst.num_events(), inst.num_users(), csr_digest(&graph)));
    }
    assert_eq!(
        reads,
        [
            (110, 1005, 6638975588122831919),
            (117, 1013, 10485237248923870321)
        ]
    );
}
