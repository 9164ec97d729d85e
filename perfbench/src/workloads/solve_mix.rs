//! solve_mix: re-arrangement the way the service does it. A durable
//! server; connection A runs cycles of seeded mutates and one `solve`,
//! rotating greedy → mincostflow → alns, while connection B reads on a
//! fixed schedule.

use super::layered::{self, Traced};
use super::*;
use crate::report::Ledger;
use crate::util::Zipf;
use geacc_datagen::SyntheticConfig;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Duration;

/// Mutate-and-solve cycles per second of `--seconds`.
const CYCLES_PER_S: f64 = 4.2;
const MUTATES_PER_CYCLE: usize = 4;
/// ALNS's node budget: Greedy's seeding ticks plus ~1,000 iterations,
/// a few hundred ms.
const ALNS_NODES: u64 = 5_800;
/// Reads per second of connection B.
const READ_RATE: f64 = 2_000.0;
/// Connection A's ops per block of the block rate: three cycles, one of
/// each algorithm.
const BLOCK: usize = 3 * (MUTATES_PER_CYCLE + 1);
const SETUPS: usize = 15;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let inst = SyntheticConfig {
        seed: INSTANCE_SEED,
        ..SyntheticConfig::default()
    }
    .generate();
    let path = ctx.work.join("instance.json");
    write_instance(&inst, &path)?;
    let cycles = (ctx.seconds as f64 * CYCLES_PER_S).round().max(3.0) as usize;
    let lines = sequence(ctx, &inst, cycles)?;
    let mut rng = Rng::new(ctx.seed ^ 0x7061_6365);
    let perm = rng.permutation(inst.num_users());
    let zipf = Zipf::new(inst.num_users(), ZIPF_S);
    drop(inst);
    let n_reads = (ctx.seconds as f64 * READ_RATE) as usize;
    let readers: Vec<u32> = (0..n_reads).map(|_| perm[zipf.sample(&mut rng)]).collect();

    let first = query_user_line(None, 0);
    let mut setups = SetUps::new(ctx, true, &path, first.as_bytes())?;
    setups.discard(SETUPS / 2)?;
    let server = setups.one()?;
    let addr = server.addr;
    let started = Instant::now();
    let (a, b) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| paced_reader(addr, &readers, started));
        let a = run_sequence(addr, &lines);
        let b = reader
            .join()
            .unwrap_or_else(|_| Err("reader thread panicked".into()));
        (a, b)
    });
    let a = a?;
    let (reads, late, ledger_b) = b?;
    let phase = started.elapsed().as_secs_f64();
    let mut r = RunResult {
        ledger: a.ledger,
        ..RunResult::default()
    };
    r.ledger.merge(ledger_b);
    let mut conn = Conn::connect(addr).map_err(io)?;
    let served = Served::fetch(&mut conn)?;
    let rss = server.peak_rss_mb();
    drop(conn);
    server.stop()?;
    setups.discard(SETUPS - SETUPS / 2 - 1)?;

    let e = &mut r.e2e;
    put_setup(e, &setups.times);
    e.count("peak_rss_mb", rss, "MB");
    put_rate(e, &a.blocks, lines.len() as f64 / a.secs);
    e.median("read_p50_us", &reads, "us");
    e.p99("read_p99_us", &reads, "us");
    e.median("write_p50_us", &a.writes, "us");
    for (name, algo) in [
        ("solve_greedy_ms", "greedy"),
        ("solve_mcf_ms", "mincostflow"),
        ("solve_alns_ms", "alns"),
    ] {
        let s = a.solves.get(algo).cloned().unwrap_or_default();
        e.median(name, &s, "ms");
        e.put(&format!("{name}_fastest"), s.min(), "ms", s.len(), "min");
    }
    e.count("max_sum", served.max_sum, "maxsum");
    e.p99("pacer_late_p99_us", &late, "us");
    e.put(
        "pacer_late_max_us",
        late.quantile(1.0),
        "us",
        late.len(),
        "max",
    );
    e.count("phase_s", phase, "s");

    // The check replays connection A's sequence (reads change no state);
    // the traced run replays the reader's lines too, spread evenly
    // between A's ops.
    let mut t = Tracer::new(ctx.trace);
    let replayed_lines = if ctx.trace {
        interleave(&lines, &readers)
    } else {
        lines.clone()
    };
    let (mut req, replay_s, layers) = replay_served(ctx, &path, &replayed_lines, &mut t)?;
    let replayed = Served::from_stats(&req.stats().map_err(|e| e.message)?);
    let fingerprint = served.fingerprint;
    check(
        &mut r.ledger,
        "check.fingerprint",
        replayed.fingerprint == fingerprint,
    );
    put_vs_greedy(&mut r.e2e, &mut req, served.max_sum)?;
    let count = |f: fn(&Op) -> bool| lines.iter().filter(|l| f(&l.op)).count();
    r.properties = vec![
        ("cycles", num(cycles)),
        ("mutates", num(count(|op| matches!(op, Op::Mutate(..))))),
        (
            "users_added",
            num(count(|op| {
                matches!(op, Op::Mutate(Mutation::AddUser { .. }, _))
            })),
        ),
        (
            "users_removed",
            num(count(|op| {
                matches!(op, Op::Mutate(Mutation::RemoveUser { .. }, _))
            })),
        ),
        ("reads", num(n_reads)),
        ("read_rate_per_s", num(READ_RATE)),
        ("alns_max_nodes", num(ALNS_NODES)),
        ("fsync", Value::String("always".into())),
    ];
    if let Some(layers) = &layers {
        let same = layers.fingerprint() == fingerprint;
        check(&mut r.ledger, "check.layer_fingerprint", same);
        r.layers = layered::report(
            &t,
            &Traced {
                bytes: Some(&req.bytes),
                layers: Some(layers),
                lines: &replayed_lines,
                read_cost_us: reads.median(),
                write_p50_us: a.writes.median(),
                repeat_share: repeat_share(&replayed_lines),
                candidates: layers.candidates,
                served,
                e2e_s: a.secs,
                replay_s,
                ..Traced::default()
            },
        );
        write_spans(ctx, &t)?;
    }
    Ok(r)
}

/// Connection A's sequence: per cycle, the mutates, then one solve.
fn sequence(ctx: &Ctx, inst: &Instance, cycles: usize) -> Result<Vec<Line>, String> {
    let mut gen = MutationGen::new(ctx.seed ^ 0x736f_6c76, inst);
    let mut lines = Vec::new();
    let mut seq = 0;
    for c in 0..cycles {
        for _ in 0..MUTATES_PER_CYCLE {
            seq += 1;
            let id = lines.len() as u64 + 1;
            let m = gen.next();
            let text = mutate_line(id, seq, &m)?;
            lines.push(Line {
                op: Op::Mutate(m, seq),
                id: Some(id),
                text,
            });
        }
        let (algo, nodes) = match c % 3 {
            0 => (Algorithm::Greedy, None),
            1 => (Algorithm::MinCostFlow, None),
            _ => (Algorithm::Alns { seed: c as u64 }, Some(ALNS_NODES)),
        };
        let id = lines.len() as u64 + 1;
        lines.push(Line {
            op: Op::Solve(algo, nodes),
            id: Some(id),
            text: solve_line(id, algo, nodes),
        });
    }
    Ok(lines)
}

/// A's lines with the reader's spread evenly between them.
fn interleave(lines: &[Line], readers: &[u32]) -> Vec<Line> {
    let per = readers.len() as f64 / lines.len() as f64;
    let mut out = Vec::with_capacity(lines.len() + readers.len());
    let mut next = 0usize;
    for (i, line) in lines.iter().enumerate() {
        out.push(line.clone());
        let upto = (((i + 1) as f64 * per).round() as usize).min(readers.len());
        for &u in &readers[next..upto.max(next)] {
            out.push(Line {
                op: Op::QueryUser(u),
                id: None,
                text: query_user_line(None, u),
            });
        }
        next = upto.max(next);
    }
    out
}

/// What connection A measured.
struct SequenceRun {
    secs: f64,
    writes: Samples,
    solves: BTreeMap<&'static str, Samples>,
    ledger: Ledger,
    blocks: Blocks,
}

/// Connection A: the op sequence, one request in flight.
fn run_sequence(addr: SocketAddr, lines: &[Line]) -> Result<SequenceRun, String> {
    let mut conn = Conn::connect(addr).map_err(io)?;
    let mut run = SequenceRun {
        secs: 0.0,
        writes: Samples::default(),
        solves: BTreeMap::new(),
        ledger: Ledger::default(),
        blocks: Blocks::new(BLOCK),
    };
    let started = Instant::now();
    for line in lines {
        let mut framed = line.text.clone().into_bytes();
        framed.push(b'\n');
        let sent = Instant::now();
        conn.send(&framed).map_err(io)?;
        let (at, reply) = conn.read_line().map_err(io)?;
        let took = at - sent;
        run.ledger
            .reply(line.class().name, reply, line.check(reply));
        match &line.op {
            Op::Solve(algo, _) => run
                .solves
                .entry(replay::algo_name(*algo))
                .or_default()
                .push(took.as_secs_f64() * 1e3),
            _ => run.writes.push(took.as_secs_f64() * 1e6),
        }
        run.blocks.done(1);
    }
    run.secs = started.elapsed().as_secs_f64();
    Ok(run)
}

/// Connection B: `query_user` on a fixed schedule of [`READ_RATE`].
/// Each read is sent at its due time (or as soon as the previous reply
/// is in, if that is later) and its latency counts from the due time,
/// so a stall is charged to every read it delays; the pacer's lateness
/// (send − due) is reported beside it.
fn paced_reader(
    addr: SocketAddr,
    users: &[u32],
    start: Instant,
) -> Result<(Samples, Samples, Ledger), String> {
    let mut conn = Conn::connect(addr).map_err(io)?;
    let period = Duration::from_secs_f64(1.0 / READ_RATE);
    let mut ledger = Ledger::default();
    let (mut latency, mut late) = (Samples::default(), Samples::default());
    for (i, &u) in users.iter().enumerate() {
        let due = start + period * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let mut framed = query_user_line(None, u).into_bytes();
        framed.push(b'\n');
        let sent = Instant::now();
        late.push((sent - due).as_secs_f64() * 1e6);
        conn.send(&framed).map_err(io)?;
        let (at, line) = conn.read_line().map_err(io)?;
        latency.push((at - due).as_secs_f64() * 1e6);
        let echoed = echoes(line, None, Some(("user", u64::from(u))));
        ledger.reply("query_user", line, echoed);
    }
    Ok((latency, late, ledger))
}
