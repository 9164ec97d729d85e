//! read_zipf: the read path alone. An in-memory server; one connection
//! runs a closed loop over pipelined windows of `query_user` lines
//! without an id, users drawn Zipf over a seeded permutation of all ids.

use super::layered::{self, Traced};
use super::*;
use crate::util::{Digest, Zipf};
use geacc_datagen::{CapDistribution, SyntheticConfig};
use std::collections::HashMap;

const USERS: usize = 100_000;
const WINDOW: usize = 64;
/// Windows per second of `--seconds`.
const WINDOWS_PER_S: u64 = 3_400;
/// Reads per block of the block rate.
const BLOCK: usize = WINDOW * 50;
const SETUPS: usize = 5;
/// Entries of the server's per-loop `ReadCache` (`server.rs`).
const READ_CACHE_ENTRIES: usize = 8_192;

pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let inst = SyntheticConfig {
        num_events: 10,
        num_users: USERS,
        cap_v_dist: CapDistribution::Uniform {
            min: 10_000,
            max: 40_000,
        },
        seed: INSTANCE_SEED,
        ..SyntheticConfig::default()
    }
    .generate();
    let path = ctx.work.join("instance.json");
    write_instance(&inst, &path)?;
    drop(inst);
    let mut rng = Rng::new(ctx.seed ^ 0x7265_6164);
    let perm = rng.permutation(USERS);
    let zipf = Zipf::new(USERS, ZIPF_S);
    let windows = (ctx.seconds * WINDOWS_PER_S) as usize;
    let users: Vec<u32> = (0..windows * WINDOW)
        .map(|_| perm[zipf.sample(&mut rng)])
        .collect();

    let first = query_user_line(None, 0);
    let mut setups = SetUps::new(ctx, false, &path, first.as_bytes())?;
    setups.discard(SETUPS / 2)?;
    let server = setups.one()?;
    let mut conn = Conn::connect(server.addr).map_err(io)?;
    let mut r = RunResult::default();
    let (mut latency, mut window_us) = (Samples::default(), Samples::default());
    let mut digest = Digest::default();
    let mut buf = Vec::with_capacity(WINDOW * 40);
    let mut blocks = Blocks::new(BLOCK);
    let started = Instant::now();
    for chunk in users.chunks(WINDOW) {
        buf.clear();
        for &u in chunk {
            buf.extend_from_slice(query_user_line(None, u).as_bytes());
            buf.push(b'\n');
        }
        let sent = Instant::now();
        conn.send(&buf).map_err(io)?;
        let mut last = sent;
        for &u in chunk {
            let (at, line) = conn.read_line().map_err(io)?;
            latency.push((at - sent).as_secs_f64() * 1e6);
            last = at;
            let echoed = echoes(line, None, Some(("user", u64::from(u))));
            r.ledger.reply("query_user", line, echoed);
            digest.add_reply(line);
        }
        window_us.push((last - sent).as_secs_f64() * 1e6);
        blocks.done(chunk.len());
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
    put_rate(e, &blocks, users.len() as f64 / phase);
    e.median("read_p50_us", &latency, "us");
    e.p99("read_p99_us", &latency, "us");
    e.count("max_sum", served.max_sum, "maxsum");
    let per_read = Samples(window_us.0.iter().map(|w| w / WINDOW as f64).collect());
    e.median("read_cost_us", &per_read, "us");

    // The replay: the digest check, and under --trace the request path
    // in spans. Nothing writes, so a reply is a pure function of the
    // user: each distinct user is replayed once and repeats reuse it.
    let mut t = Tracer::new(ctx.trace);
    let mut req = Requests::new(None)?;
    req.request(&mut t, 0, &replay::LOAD, &load_line(&path)?);
    let mut memo: HashMap<u32, Vec<u8>> = HashMap::new();
    let mut replayed = Digest::default();
    let t0 = Instant::now();
    for (i, &u) in users.iter().enumerate() {
        let reply = memo.entry(u).or_insert_with(|| {
            let line = query_user_line(None, u);
            req.request(&mut t, i as u64 + 1, &replay::QUERY_USER, &line)
                .to_vec()
        });
        replayed.add_reply(reply);
    }
    let replay_s = t0.elapsed().as_secs_f64();
    check(&mut r.ledger, "check.digest", replayed.0 == digest.0);
    put_vs_greedy(&mut r.e2e, &mut req, served.max_sum)?;

    let repeat = 1.0 - memo.len() as f64 / users.len() as f64;
    r.properties = vec![
        ("reads", num(users.len())),
        ("window", num(WINDOW)),
        ("zipf_s", num(ZIPF_S)),
        ("distinct_users", num(memo.len())),
        ("repeat_share", num(repeat)),
        ("read_cache_entries", num(READ_CACHE_ENTRIES)),
    ];
    if ctx.trace {
        let layers = Layers::load(&mut t, &path.to_string_lossy(), None)?;
        r.layers = layered::report(
            &t,
            &Traced {
                bytes: Some(&req.bytes),
                read_cost_us: per_read.median(),
                repeat_share: repeat,
                candidates: layers.candidates,
                layers: Some(&layers),
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
