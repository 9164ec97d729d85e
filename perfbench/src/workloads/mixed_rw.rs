//! mixed_rw: the write path and the read-after-write path. A durable
//! server; one connection with one request in flight runs 70%
//! `query_user`, 5% `query_event` and 25% `mutate`, every line stamped
//! with a unique id the way `RetryClient` stamps it.

use super::layered::{self, Traced};
use super::*;
use crate::util::{Digest, Zipf};
use geacc_datagen::SyntheticConfig;

const USERS: usize = 2_000;
/// Ops per second of `--seconds`.
const OPS_PER_S: u64 = 1_800;
/// Ops per block of the block rate.
const BLOCK: usize = 500;
const SETUPS: usize = 15;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let inst = SyntheticConfig {
        num_users: USERS,
        seed: INSTANCE_SEED,
        ..SyntheticConfig::default()
    }
    .generate();
    let path = ctx.work.join("instance.json");
    write_instance(&inst, &path)?;
    let lines = ops(ctx, &inst)?;
    drop(inst);

    let first = query_user_line(Some(0), 0);
    let mut setups = SetUps::new(ctx, true, &path, first.as_bytes())?;
    setups.discard(SETUPS / 2)?;
    let server = setups.one()?;
    let mut conn = Conn::connect(server.addr).map_err(io)?;
    let mut r = RunResult::default();
    let (mut reads, mut writes, mut after_add) =
        (Samples::default(), Samples::default(), Samples::default());
    let mut digest = Digest::default();
    let mut prev_add = false;
    let mut blocks = Blocks::new(BLOCK);
    let started = Instant::now();
    for line in &lines {
        let mut framed = line.text.clone().into_bytes();
        framed.push(b'\n');
        let sent = Instant::now();
        conn.send(&framed).map_err(io)?;
        let (at, reply) = conn.read_line().map_err(io)?;
        let us = (at - sent).as_secs_f64() * 1e6;
        r.ledger.reply(line.class().name, reply, line.check(reply));
        digest.add_reply(reply);
        if line.is_read() {
            reads.push(us);
            if prev_add {
                after_add.push(us);
            }
        } else {
            writes.push(us);
        }
        prev_add = matches!(line.op, Op::Mutate(Mutation::AddUser { .. }, _));
        blocks.done(1);
    }
    let phase = started.elapsed().as_secs_f64();
    let served = Served::fetch(&mut conn)?;
    let rss = server.peak_rss_mb();
    drop(conn);
    server.stop()?;
    setups.discard(SETUPS - SETUPS / 2 - 1)?;

    let e = &mut r.e2e;
    put_setup(e, &setups.times);
    e.count("peak_rss_mb", rss, "MB");
    put_rate(e, &blocks, lines.len() as f64 / phase);
    e.median("read_p50_us", &reads, "us");
    e.p99("read_p99_us", &reads, "us");
    e.median("write_p50_us", &writes, "us");
    e.p99("write_p99_us", &writes, "us");
    e.count("max_sum", served.max_sum, "maxsum");
    e.median("read_after_add_user_p50_us", &after_add, "us");
    e.p99("read_after_add_user_p99_us", &after_add, "us");

    let mut t = Tracer::new(ctx.trace);
    let (mut req, replay_s, layers) = replay_served(ctx, &path, &lines, &mut t)?;
    check(&mut r.ledger, "check.digest", req.digest.0 == digest.0);
    let replayed = Served::from_stats(&req.stats().map_err(|e| e.message)?);
    let fingerprint = served.fingerprint;
    check(
        &mut r.ledger,
        "check.fingerprint",
        replayed.fingerprint == fingerprint,
    );
    put_vs_greedy(&mut r.e2e, &mut req, served.max_sum)?;
    let mutates = lines.iter().filter(|l| !l.is_read()).count();
    let added = lines
        .iter()
        .filter(|l| matches!(l.op, Op::Mutate(Mutation::AddUser { .. }, _)))
        .count();
    let removed = lines
        .iter()
        .filter(|l| matches!(l.op, Op::Mutate(Mutation::RemoveUser { .. }, _)))
        .count();
    r.properties = vec![
        ("ops", num(lines.len())),
        ("zipf_s", num(ZIPF_S)),
        ("base_users", num(USERS)),
        ("mutates", num(mutates)),
        ("users_added", num(added)),
        ("users_removed", num(removed)),
        ("repeat_share", num(repeat_share(&lines))),
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
                lines: &lines,
                read_cost_us: reads.median(),
                write_p50_us: writes.median(),
                repeat_share: repeat_share(&lines),
                candidates: layers.candidates,
                served,
                e2e_s: phase,
                replay_s,
                ..Traced::default()
            },
        );
        write_spans(ctx, &t)?;
    }
    Ok(r)
}

/// The op sequence: 70% `query_user` (Zipf over a seeded permutation of
/// the base users), 5% `query_event`, 25% `mutate`.
fn ops(ctx: &Ctx, inst: &Instance) -> Result<Vec<Line>, String> {
    let mut rng = Rng::new(ctx.seed ^ 0x6d69_7865);
    let perm = rng.permutation(USERS);
    let zipf = Zipf::new(USERS, ZIPF_S);
    let mut gen = MutationGen::new(ctx.seed ^ 0x6d75_7461, inst);
    let events = inst.num_events() as u64;
    let n = (ctx.seconds * OPS_PER_S) as usize;
    let mut lines = Vec::with_capacity(n);
    let mut seq = 0;
    for i in 0..n {
        let id = i as u64 + 1;
        let x = rng.unit();
        let (op, text) = if x < 0.70 {
            let u = perm[zipf.sample(&mut rng)];
            (Op::QueryUser(u), query_user_line(Some(id), u))
        } else if x < 0.75 {
            let v = rng.below(events) as u32;
            let text = format!("{{\"op\":\"query_event\",\"id\":{id},\"event\":{v}}}");
            (Op::QueryEvent(v), text)
        } else {
            seq += 1;
            let m = gen.next();
            let text = mutate_line(id, seq, &m)?;
            (Op::Mutate(m, seq), text)
        };
        lines.push(Line {
            op,
            id: Some(id),
            text,
        });
    }
    Ok(lines)
}
