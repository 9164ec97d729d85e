//! The `geacc` subcommands. Each returns its textual output so tests can
//! assert on it directly; `main` prints it.

use crate::args::ParsedArgs;
use crate::io::{load_arrangement, load_instance, to_json, write_output, CliError};
use geacc_core::algorithms::{self, Algorithm};
use geacc_core::engine::{self, CandidateGraph, SolveParams};
use geacc_core::parallel::Threads;
use geacc_core::runtime::{BudgetMeter, SolveBudget, SolverPipeline};
use geacc_datagen::{AttrDistribution, City, MeetupConfig, SyntheticConfig};
use std::time::{Duration, Instant};

/// A command's result: the text to print plus the process exit code.
///
/// Most commands exit `0` on success; budgeted `solve` maps its
/// [`SolveStatus`][geacc_core::SolveStatus] to the documented codes
/// (0 complete, 3 incumbent, 4 degraded, 5 timed out) so scripts can
/// branch on *how* an answer was produced without parsing text.
/// `CmdOutput` derefs to `str`, so test assertions read naturally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// The text `main` prints to stdout.
    pub text: String,
    /// The process exit code (`0` = fully successful).
    pub code: i32,
}

impl From<String> for CmdOutput {
    fn from(text: String) -> Self {
        CmdOutput { text, code: 0 }
    }
}

impl std::ops::Deref for CmdOutput {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl std::fmt::Display for CmdOutput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

/// Usage text for `geacc help` and argument errors.
pub const USAGE: &str = "\
geacc — conflict-aware event-participant arrangement (ICDE 2015)

USAGE:
  geacc generate [--kind synthetic|meetup] [--events N] [--users N] [--dim D]
                 [--attr-dist uniform|normal|zipf] [--conflict-ratio R]
                 [--city vancouver|auckland|singapore] [--seed S] [--output FILE]
  geacc solve    --input FILE [--algorithm greedy|mincostflow|prune|exhaustive|
                 exact-dp|random-v|random-u|alns] [--seed S] [--threads N]
                 [--output FILE] [--timeout-ms MS] [--max-nodes N]
                 [--on-timeout incumbent|greedy|alns|error]
  geacc validate --input FILE --arrangement FILE
  geacc stats    --input FILE
  geacc inspect  --input FILE --arrangement FILE [--top N] [--certify]
  geacc improve  --input FILE --arrangement FILE [--output FILE] [--max-nodes N]
  geacc toy      [--output FILE]
  geacc serve    [--addr HOST:PORT] [--workers N] [--io-threads N]
                 [--queue-depth N]
                 [--default-timeout-ms MS] [--threads N] [--drift-ratio R]
                 [--wal-dir DIR] [--fsync always|never|interval:MS]
                 [--snapshot-every N] [--accept-replicas]
                 [--replica-of HOST:PORT] [--retry-after-ms MS]
                 [--supervise] [--lease-interval-ms MS] [--missed-leases N]
                 [--node-id N] [--advertise HOST:PORT] [--peers A,B,...]
  geacc promote  --addr HOST:PORT [--timeout-ms MS]
  geacc help

FILE may be '-' for stdin/stdout. Instances and arrangements are JSON.
--threads defaults to the GEACC_THREADS environment variable, then to the
host's available parallelism; it affects wall-clock only (greedy and the
exact search produce identical results at every thread count).

--seed (default 0) drives the stochastic solvers (random-v, random-u,
alns) and is echoed in every solve report line; an alns run is fully
reproduced by (instance, seed, --max-nodes) at any --threads.

--timeout-ms / --max-nodes bound the solve (wall clock / search-tree
nodes); either makes `solve` anytime: it always returns a feasible
arrangement and reports how it was produced. --on-timeout picks what a
budget stop yields: the solver's best incumbent (default), a greedy
fallback, `alns` (spend the same budget again refining the incumbent
with the adaptive large-neighborhood search — reported as degraded to
ALNS-GEACC only when it actually improves the arrangement), or an
error. Exit codes: 0 complete, 3 incumbent, 4 degraded to a fallback
algorithm, 5 timed out without an arrangement.

`improve` refines a feasible arrangement with ALNS-GEACC warm-started
from it (seed 0; an empty arrangement starts from Greedy-GEACC, whose
work counts against the budget). It never lowers MaxSum. --max-nodes
bounds its iterations; without it the search stops after 25000.

`serve` runs the long-lived arrangement daemon: newline-delimited JSON
over TCP (load/mutate/query_user/query_event/solve/snapshot/restore/
stats/shutdown — see DESIGN.md §10). It prints `listening on ADDR` once
bound, serves until a shutdown request, then prints final metrics.
--queue-depth bounds admitted-but-unserved requests; beyond it the
server answers structured `overloaded` errors instead of queueing.
--io-threads sets the poll event-loop threads multiplexing connections
(reads and health/stats are answered there, never queued behind
solves); --workers sets the pool executing the heavy ops.

--wal-dir makes the daemon durable: every load/mutate/solve is appended
to a checksummed write-ahead log before it is acknowledged, and restarts
recover the exact acked state (torn tails from a crash are truncated;
mid-log corruption refuses to boot, naming the byte offset). --fsync
picks the durability/throughput trade: `always` survives power loss,
`interval:MS` bounds loss to MS, `never` survives a process kill only.
--snapshot-every N rotates an atomic snapshot every N mutations so
recovery replays a short tail instead of the whole log.

--accept-replicas lets other daemons stream this one's WAL (requires
--wal-dir); --replica-of starts the daemon as a read-only follower of
that primary: it applies shipped records through the recovery path,
serves queries, and answers mutations with a `read_only` error.
`geacc promote` turns a follower into a primary (bumping its generation
so the old primary is fenced if it comes back). --retry-after-ms sets
the backoff hint attached to `overloaded` rejections.

--supervise adds automatic failover on top of replication: heartbeats
ride the replication stream, a follower that misses enough leases runs
a deterministic election (highest acked WAL offset wins, ties broken by
lowest --node-id), the winner bumps its generation durably before going
writable, and a resurrected stale primary fences itself and rejoins as
a replica — no human `promote` needed. --lease-interval-ms (default
500) and --missed-leases (default 3) tune detection speed; --peers
lists the *other* nodes each node probes during elections; --advertise
is the address handed to clients in `primary_hint` redirects (defaults
to the bound address). Requires --wal-dir, and --accept-replicas on a
primary.
";

/// Dispatch a parsed command line; returns the text to print plus the
/// exit code (only budgeted `solve` uses non-zero success codes).
pub fn run(args: &ParsedArgs) -> Result<CmdOutput, CliError> {
    match args.command.as_str() {
        "generate" => generate(args).map(Into::into),
        "solve" => solve(args),
        "validate" => validate(args).map(Into::into),
        "stats" => stats(args).map(Into::into),
        "inspect" => inspect(args).map(Into::into),
        "improve" => improve_cmd(args).map(Into::into),
        "toy" => toy(args).map(Into::into),
        "serve" => serve(args).map(Into::into),
        "promote" => promote(args).map(Into::into),
        "help" | "--help" => Ok(USAGE.to_string().into()),
        other => Err(CliError(format!("unknown command {other:?}\n\n{USAGE}"))),
    }
}

fn generate(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "kind",
        "events",
        "users",
        "dim",
        "attr-dist",
        "conflict-ratio",
        "city",
        "seed",
        "output",
    ])?;
    let kind = args.value("kind")?.unwrap_or("synthetic");
    let seed: u64 = args.parsed_or("seed", 0)?;
    let instance = match kind {
        "synthetic" => {
            let attr_dist = match args.value("attr-dist")?.unwrap_or("uniform") {
                "uniform" => AttrDistribution::Uniform,
                "normal" => AttrDistribution::Normal,
                "zipf" => AttrDistribution::Zipf { exponent: 1.3 },
                other => return Err(CliError(format!("unknown attr-dist {other:?}"))),
            };
            SyntheticConfig {
                num_events: args.parsed_or("events", 100)?,
                num_users: args.parsed_or("users", 1000)?,
                dim: args.parsed_or("dim", 20)?,
                attr_dist,
                conflict_ratio: args.parsed_or("conflict-ratio", 0.25)?,
                seed,
                ..SyntheticConfig::default()
            }
            .generate()
        }
        "meetup" => {
            let city = match args.value("city")?.unwrap_or("auckland") {
                "vancouver" => City::Vancouver,
                "auckland" => City::Auckland,
                "singapore" => City::Singapore,
                other => return Err(CliError(format!("unknown city {other:?}"))),
            };
            let mut config = MeetupConfig::new(city);
            config.conflict_ratio = args.parsed_or("conflict-ratio", 0.25)?;
            config.seed = seed;
            config.generate()
        }
        other => return Err(CliError(format!("unknown kind {other:?}"))),
    };
    let json = to_json(&instance)?;
    let output = args.value("output")?.unwrap_or("-");
    write_output(output, &json)?;
    Ok(format!(
        "generated {kind} instance: {} events, {} users, {} conflicting pairs → {output}",
        instance.num_events(),
        instance.num_users(),
        instance.conflicts().num_pairs()
    ))
}

fn parse_algorithm(name: &str, seed: u64) -> Result<Algorithm, CliError> {
    Algorithm::parse(name, seed).map_err(|e| CliError(e.to_string()))
}

/// An optional numeric flag: `None` when absent, an error when it does
/// not parse.
fn optional_u64(args: &ParsedArgs, name: &str) -> Result<Option<u64>, CliError> {
    args.value(name)?
        .map(|v| {
            v.parse()
                .map_err(|e| CliError(format!("invalid value for --{name}: {e}")))
        })
        .transpose()
}

/// Resolve the worker budget for commands that accept `--threads`:
/// explicit flag first, then `GEACC_THREADS`, then available parallelism.
fn threads_arg(args: &ParsedArgs) -> Result<Threads, CliError> {
    Ok(match args.value("threads")? {
        Some(v) => {
            let n: usize = v
                .parse()
                .map_err(|e| CliError(format!("invalid value for --threads: {e}")))?;
            if n == 0 {
                return Err(CliError("--threads must be at least 1".into()));
            }
            Threads::new(n)
        }
        None => Threads::from_env(),
    })
}

fn solve(args: &ParsedArgs) -> Result<CmdOutput, CliError> {
    args.expect_only(&[
        "input",
        "algorithm",
        "seed",
        "threads",
        "output",
        "timeout-ms",
        "max-nodes",
        "on-timeout",
    ])?;
    let instance = load_instance(args.required("input")?)?;
    let seed: u64 = args.parsed_or("seed", 0)?;
    let threads = threads_arg(args)?;
    let algorithm = parse_algorithm(args.value("algorithm")?.unwrap_or("greedy"), seed)?;
    let timeout_ms = optional_u64(args, "timeout-ms")?;
    let max_nodes = optional_u64(args, "max-nodes")?;
    let on_timeout = args.value("on-timeout")?;
    if let Some(policy) = on_timeout {
        if !matches!(policy, "incumbent" | "greedy" | "alns" | "error") {
            return Err(CliError(format!(
                "unknown on-timeout policy {policy:?} (incumbent, greedy, alns, error)"
            )));
        }
        if timeout_ms.is_none() && max_nodes.is_none() {
            return Err(CliError(
                "--on-timeout needs a budget: pass --timeout-ms and/or --max-nodes".into(),
            ));
        }
    }
    if timeout_ms.is_some() || max_nodes.is_some() {
        return solve_budgeted_cmd(
            args,
            &instance,
            algorithm,
            threads,
            seed,
            SolveBudget {
                deadline: timeout_ms.map(Duration::from_millis),
                max_nodes,
            },
            on_timeout.unwrap_or("incumbent"),
        );
    }
    if matches!(algorithm, Algorithm::Prune | Algorithm::Exhaustive)
        && instance.num_events() * instance.num_users() > 200
    {
        return Err(CliError(format!(
            "refusing to run the exact search on {} pairs (exponential) without a budget; \
             use greedy or mincostflow, or bound it with --timeout-ms/--max-nodes",
            instance.num_events() * instance.num_users()
        )));
    }
    // Exact-DP has its own size guard (state-space, not pair count);
    // surface its error cleanly instead of panicking inside the solver.
    if matches!(algorithm, Algorithm::ExactDp) {
        algorithms::dp_state_space(&instance).map_err(|e| CliError(e.to_string()))?;
    }
    let start = Instant::now();
    // One dispatch path for every algorithm: the engine's `solve_on` over a
    // shared candidate graph, with an unlimited meter (bit-identical to
    // the classic meterless entry points). The worker budget reaches
    // graph construction and the parallel solvers; results are
    // identical at every thread count.
    let arrangement = engine::solve_instance(
        &instance,
        algorithm,
        &SolveParams {
            threads,
            seed,
            ..SolveParams::default()
        },
        &BudgetMeter::unlimited(),
    )
    .arrangement;
    let elapsed = start.elapsed();
    let violations = arrangement.validate(&instance);
    if !violations.is_empty() {
        return Err(CliError(format!(
            "internal error: infeasible output: {violations:?}"
        )));
    }
    if let Some(output) = args.value("output")? {
        write_output(output, &to_json(&arrangement)?)?;
    }
    Ok(format!(
        "{}: MaxSum {:.4}, {} pairs, {:.3?}, seed {seed}",
        algorithm.name(),
        arrangement.max_sum(),
        arrangement.len(),
        elapsed
    )
    .into())
}

/// The budgeted `solve` path: run the anytime pipeline, map its status
/// to an exit code, and honour the `--on-timeout` policy.
#[allow(clippy::too_many_arguments)]
fn solve_budgeted_cmd(
    args: &ParsedArgs,
    instance: &geacc_core::Instance,
    algorithm: Algorithm,
    threads: Threads,
    seed: u64,
    budget: SolveBudget,
    on_timeout: &str,
) -> Result<CmdOutput, CliError> {
    let mut pipeline = SolverPipeline::new(algorithm, budget)
        .with_threads(threads)
        .with_seed(seed)
        .degrade_on_stop(on_timeout == "greedy");
    if on_timeout == "alns" {
        // Spend the same budget again refining the stopped incumbent.
        pipeline = pipeline.with_alns_refine(budget);
    }
    let outcome = pipeline.run(instance);
    if on_timeout == "error" && !outcome.status.is_complete() {
        // The operator asked for all-or-nothing: report the stop
        // without writing a partial arrangement anywhere.
        return Ok(CmdOutput {
            text: format!(
                "{}: {} after {} nodes, {:.3?} — no arrangement written (--on-timeout error)",
                algorithm.name(),
                outcome.status.label(),
                outcome.nodes,
                outcome.elapsed
            ),
            code: 5,
        });
    }
    debug_assert!(outcome.arrangement.validate(instance).is_empty());
    if let Some(output) = args.value("output")? {
        write_output(output, &to_json(&outcome.arrangement)?)?;
    }
    let mut text = format!(
        "{}: MaxSum {:.4}, {} pairs, {:.3?}, {} nodes, seed {seed}, {}",
        algorithm.name(),
        outcome.arrangement.max_sum(),
        outcome.arrangement.len(),
        outcome.elapsed,
        outcome.nodes,
        outcome.status.label()
    );
    if let Some(alns) = &outcome.alns {
        // Anytime progress: how hard the destroy/repair search worked.
        text.push_str(&format!(
            " [alns: {} iterations, {} improvements]",
            alns.iterations, alns.improvements
        ));
    }
    Ok(CmdOutput {
        text,
        code: outcome.status.exit_code(),
    })
}

fn validate(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["input", "arrangement"])?;
    let instance = load_instance(args.required("input")?)?;
    let arrangement = load_arrangement(args.required("arrangement")?)?;
    let violations = arrangement.validate(&instance);
    if violations.is_empty() {
        Ok(format!(
            "feasible: {} pairs, MaxSum {:.4}",
            arrangement.len(),
            arrangement.max_sum()
        ))
    } else {
        let mut out = format!("INFEASIBLE: {} violation(s)\n", violations.len());
        for v in &violations {
            out.push_str(&format!("  - {v}\n"));
        }
        Err(CliError(out))
    }
}

fn stats(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["input"])?;
    let instance = load_instance(args.required("input")?)?;
    let mut out = String::new();
    out.push_str(&format!(
        "events: {} (capacity total {}, max {})\n",
        instance.num_events(),
        instance.total_event_capacity(),
        instance.max_event_capacity()
    ));
    out.push_str(&format!(
        "users:  {} (capacity total {}, max {})\n",
        instance.num_users(),
        instance.total_user_capacity(),
        instance.max_user_capacity()
    ));
    out.push_str(&format!(
        "conflicts: {} pairs (density {:.4})\n",
        instance.conflicts().num_pairs(),
        instance.conflicts().density()
    ));
    out.push_str(&format!("attribute dimensionality: {}\n", instance.dim()));
    out.push_str(&format!(
        "approximation ratios here: greedy ≥ 1/{}, mincostflow ≥ 1/{}\n",
        1 + instance.max_user_capacity(),
        instance.max_user_capacity().max(1)
    ));
    match instance.validate_paper_assumptions() {
        Ok(()) => out.push_str("paper assumptions: satisfied\n"),
        Err(e) => out.push_str(&format!("paper assumptions: VIOLATED — {e}\n")),
    }
    Ok(out)
}

fn inspect(args: &ParsedArgs) -> Result<String, CliError> {
    use geacc_core::model::ArrangementStats;
    args.expect_only(&["input", "arrangement", "top", "certify"])?;
    let instance = load_instance(args.required("input")?)?;
    let arrangement = load_arrangement(args.required("arrangement")?)?;
    let violations = arrangement.validate(&instance);
    if !violations.is_empty() {
        return Err(CliError(format!(
            "arrangement is infeasible for this instance ({} violations); run `geacc validate` for details",
            violations.len()
        )));
    }
    let stats = ArrangementStats::compute(&instance, &arrangement);
    let mut out = String::new();
    out.push_str(&format!(
        "MaxSum {:.4} over {} pairs (mean sim {:.4}, min {:.4})\n",
        stats.max_sum, stats.pairs, stats.mean_similarity, stats.min_similarity
    ));
    out.push_str(&format!(
        "seats filled {:.1}%, user slots filled {:.1}%\n",
        stats.seat_utilization * 100.0,
        stats.slot_utilization * 100.0
    ));
    out.push_str(&format!(
        "active: {}/{} events, {}/{} users ({} users unassigned)\n",
        stats.active_events,
        instance.num_events(),
        stats.active_users,
        instance.num_users(),
        stats.unassigned_users
    ));
    let top: usize = args.parsed_or("top", 5)?;
    let mut occupancy = ArrangementStats::occupancy(&instance, &arrangement);
    occupancy.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    out.push_str(&format!("top {top} events by attendance:\n"));
    for (v, attendees, capacity) in occupancy.into_iter().take(top) {
        out.push_str(&format!("  {v}: {attendees}/{capacity}\n"));
    }
    if args.has("certify") {
        // The relaxation bound needs a min-cost-flow solve — opt-in.
        let gap = geacc_core::algorithms::optimality_gap(&instance, &arrangement);
        out.push_str(&format!(
            "certified ≥ {:.1}% of optimal (upper bound {:.4} via conflict-free relaxation)\n",
            gap.certified_ratio * 100.0,
            gap.upper_bound
        ));
    }
    Ok(out)
}

fn improve_cmd(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["input", "arrangement", "output", "max-nodes"])?;
    let instance = load_instance(args.required("input")?)?;
    let arrangement = load_arrangement(args.required("arrangement")?)?;
    let violations = arrangement.validate(&instance);
    if !violations.is_empty() {
        return Err(CliError(format!(
            "refusing to improve an infeasible arrangement ({} violations)",
            violations.len()
        )));
    }
    let max_nodes = optional_u64(args, "max-nodes")?;
    let before = arrangement.max_sum();
    let params = SolveParams::default();
    let meter = BudgetMeter::new(&SolveBudget {
        max_nodes,
        ..SolveBudget::UNLIMITED
    });
    let start = Instant::now();
    let graph = CandidateGraph::build(&instance, params.threads);
    let outcome = engine::refine_on(&graph, &params, &meter, &arrangement);
    let elapsed = start.elapsed();
    debug_assert!(outcome.arrangement.validate(&instance).is_empty());
    if let Some(output) = args.value("output")? {
        write_output(output, &to_json(&outcome.arrangement)?)?;
    }
    let alns = outcome.alns.expect("refine_on reports its ALNS counters");
    Ok(format!(
        "ALNS refine: MaxSum {before:.4} → {:.4} ({} iterations, {} improvements, seed {}, {elapsed:.3?})",
        outcome.arrangement.max_sum(),
        alns.iterations,
        alns.improvements,
        params.seed
    ))
}

fn toy(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["output"])?;
    let instance = geacc_core::toy::table1_instance();
    if let Some(output) = args.value("output")? {
        write_output(output, &to_json(&instance)?)?;
    }
    let mut out = String::from("paper Table I toy instance\n");
    for algo in [Algorithm::Prune, Algorithm::Greedy, Algorithm::MinCostFlow] {
        let arrangement = engine::solve_instance(
            &instance,
            algo,
            &SolveParams::default(),
            &BudgetMeter::unlimited(),
        )
        .arrangement;
        out.push_str(&format!(
            "  {:<20} MaxSum {:.2}\n",
            algo.name(),
            arrangement.max_sum()
        ));
    }
    out.push_str("  (paper: optimal 4.39, greedy 4.28, min-cost-flow 4.13)\n");
    Ok(out)
}

fn serve(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&[
        "addr",
        "workers",
        "io-threads",
        "queue-depth",
        "default-timeout-ms",
        "threads",
        "drift-ratio",
        "wal-dir",
        "fsync",
        "snapshot-every",
        "accept-replicas",
        "replica-of",
        "retry-after-ms",
        "supervise",
        "lease-interval-ms",
        "missed-leases",
        "node-id",
        "advertise",
        "peers",
    ])?;
    let defaults = geacc_server::ServerConfig::default();
    let config = geacc_server::ServerConfig {
        addr: args.value("addr")?.unwrap_or(&defaults.addr).to_string(),
        workers: args.parsed_or("workers", defaults.workers)?,
        io_threads: args.parsed_or("io-threads", defaults.io_threads)?,
        queue_depth: args.parsed_or("queue-depth", defaults.queue_depth)?,
        default_timeout_ms: args.parsed_or("default-timeout-ms", defaults.default_timeout_ms)?,
        solve_threads: match args.value("threads")? {
            Some(n) => Threads::new(
                n.parse()
                    .map_err(|e| CliError(format!("invalid value for --threads: {e}")))?,
            ),
            None => Threads::from_env(),
        },
        drift_ratio: args.parsed_or("drift-ratio", defaults.drift_ratio)?,
        wal_dir: args.value("wal-dir")?.map(std::path::PathBuf::from),
        fsync: match args.value("fsync")? {
            Some(text) => geacc_server::FsyncPolicy::parse(text)
                .map_err(|e| CliError(format!("invalid value for --fsync: {e}")))?,
            None => defaults.fsync,
        },
        snapshot_every: match args.value("snapshot-every")? {
            Some(n) => Some(
                n.parse()
                    .map_err(|e| CliError(format!("invalid value for --snapshot-every: {e}")))?,
            ),
            None => defaults.snapshot_every,
        },
        accept_replicas: args.has("accept-replicas"),
        replica_of: args.value("replica-of")?.map(String::from),
        retry_after_ms: args.parsed_or("retry-after-ms", defaults.retry_after_ms)?,
        supervise: args.has("supervise"),
        lease_interval_ms: args.parsed_or("lease-interval-ms", defaults.lease_interval_ms)?,
        missed_leases: args.parsed_or("missed-leases", defaults.missed_leases)?,
        node_id: match args.value("node-id")? {
            Some(n) => Some(
                n.parse()
                    .map_err(|e| CliError(format!("invalid value for --node-id: {e}")))?,
            ),
            None => defaults.node_id,
        },
        advertise: args.value("advertise")?.map(String::from),
        peers: match args.value("peers")? {
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect(),
            None => Vec::new(),
        },
    };
    let server = geacc_server::Server::bind(config)
        .map_err(|e| CliError(format!("binding listener: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| CliError(format!("resolving bound address: {e}")))?;
    if let Some(summary) = server.recovery_summary() {
        println!("{summary}");
    }
    if let Some(summary) = server.replication_summary() {
        println!("{summary}");
    }
    // Printed (and flushed) immediately, not via CmdOutput: clients and
    // the CI smoke stage wait on this line to learn the ephemeral port.
    println!("listening on {addr}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    let metrics = server
        .run()
        .map_err(|e| CliError(format!("serving: {e}")))?;
    Ok(format!("server drained\n{}\n", to_json(&metrics)?))
}

fn promote(args: &ParsedArgs) -> Result<String, CliError> {
    args.expect_only(&["addr", "timeout-ms"])?;
    let addr = args.required("addr")?;
    let config = geacc_server::ClientConfig {
        request_timeout: std::time::Duration::from_millis(args.parsed_or("timeout-ms", 5_000u64)?),
        ..geacc_server::ClientConfig::default()
    };
    let mut client = geacc_server::RetryClient::new(addr.to_string(), config);
    let response = client
        .call(&serde_json::json!({"op": "promote"}))
        .map_err(|e| CliError(format!("promote against {addr}: {e}")))?;
    use geacc_server::protocol::{get, get_str, get_u64};
    let promoted = matches!(
        get(&response, "promoted"),
        Some(serde_json::Value::Bool(true))
    );
    let generation = get_u64(&response, "generation").unwrap_or(0);
    let role = get_str(&response, "role").unwrap_or("unknown");
    if promoted {
        Ok(format!(
            "promoted {addr} to primary (generation {generation})\n"
        ))
    } else {
        Ok(format!(
            "{addr} is already {role} (generation {generation}); nothing to do\n"
        ))
    }
}

/// Helper for tests and `main`: run from raw tokens.
pub fn run_tokens(tokens: impl IntoIterator<Item = String>) -> Result<CmdOutput, CliError> {
    let args = ParsedArgs::parse(tokens)?;
    run(&args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_str(s: &str) -> Result<CmdOutput, CliError> {
        run_tokens(s.split_whitespace().map(String::from))
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join("geacc_cli_cmd_tests")
            .join(name)
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn toy_reports_golden_values() {
        let out = run_str("toy").unwrap();
        assert!(out.contains("4.39"));
        assert!(out.contains("4.28"));
        assert!(out.contains("4.13"));
    }

    #[test]
    fn generate_solve_validate_pipeline() {
        let inst = tmp("pipeline_instance.json");
        let arr = tmp("pipeline_arrangement.json");
        let out = run_str(&format!(
            "generate --kind synthetic --events 8 --users 30 --seed 3 --output {inst}"
        ))
        .unwrap();
        assert!(out.contains("8 events"));
        let out = run_str(&format!(
            "solve --input {inst} --algorithm greedy --output {arr}"
        ))
        .unwrap();
        assert!(out.contains("Greedy-GEACC"));
        let out = run_str(&format!("validate --input {inst} --arrangement {arr}")).unwrap();
        assert!(out.contains("feasible"));
    }

    #[test]
    fn stats_reports_shape() {
        let inst = tmp("stats_instance.json");
        run_str(&format!("generate --events 5 --users 12 --output {inst}")).unwrap();
        let out = run_str(&format!("stats --input {inst}")).unwrap();
        assert!(out.contains("events: 5"));
        assert!(out.contains("users:  12"));
        assert!(out.contains("paper assumptions"));
    }

    #[test]
    fn meetup_generation() {
        let inst = tmp("meetup_instance.json");
        let out = run_str(&format!(
            "generate --kind meetup --city auckland --output {inst}"
        ))
        .unwrap();
        assert!(out.contains("37 events"));
    }

    #[test]
    fn exact_search_is_size_guarded() {
        let inst = tmp("guard_instance.json");
        run_str(&format!("generate --events 50 --users 100 --output {inst}")).unwrap();
        let err = run_str(&format!("solve --input {inst} --algorithm prune")).unwrap_err();
        assert!(err.0.contains("refusing"));
    }

    #[test]
    fn unknown_things_error_cleanly() {
        assert!(run_str("frobnicate").is_err());
        assert!(run_str("generate --kind cube").is_err());
        assert!(run_str("generate --city atlantis --kind meetup").is_err());
        let inst = tmp("err_instance.json");
        run_str(&format!("generate --events 4 --users 8 --output {inst}")).unwrap();
        assert!(run_str(&format!("solve --input {inst} --algorithm magic")).is_err());
    }

    #[test]
    fn validate_rejects_mismatched_arrangement() {
        let inst_a = tmp("va_instance.json");
        let inst_b = tmp("vb_instance.json");
        let arr_b = tmp("vb_arrangement.json");
        run_str(&format!(
            "generate --events 4 --users 10 --seed 1 --output {inst_a}"
        ))
        .unwrap();
        run_str(&format!(
            "generate --events 9 --users 25 --seed 2 --output {inst_b}"
        ))
        .unwrap();
        run_str(&format!("solve --input {inst_b} --output {arr_b}")).unwrap();
        // Arrangement for B validated against A: shape mismatch ⇒ error.
        assert!(run_str(&format!("validate --input {inst_a} --arrangement {arr_b}")).is_err());
    }

    #[test]
    fn help_prints_usage() {
        assert!(run_str("help").unwrap().contains("USAGE"));
    }

    #[test]
    fn improve_lifts_a_random_arrangement() {
        let inst = tmp("improve_instance.json");
        let arr = tmp("improve_arrangement.json");
        let better = tmp("improve_better.json");
        run_str(&format!(
            "generate --events 6 --users 20 --seed 4 --output {inst}"
        ))
        .unwrap();
        run_str(&format!(
            "solve --input {inst} --algorithm random-v --seed 3 --output {arr}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "improve --input {inst} --arrangement {arr} --output {better}"
        ))
        .unwrap();
        assert!(out.contains("ALNS refine"), "{out}");
        assert!(
            run_str(&format!("validate --input {inst} --arrangement {better}"))
                .unwrap()
                .contains("feasible")
        );
        // A node budget bounds the run.
        let out = run_str(&format!(
            "improve --input {inst} --arrangement {arr} --max-nodes 10"
        ))
        .unwrap();
        assert!(out.contains("(10 iterations"), "{out}");
    }

    #[test]
    fn improve_refuses_infeasible_input() {
        let inst_a = tmp("imp_a.json");
        let inst_b = tmp("imp_b.json");
        let arr_b = tmp("imp_b_arr.json");
        run_str(&format!(
            "generate --events 3 --users 8 --seed 1 --output {inst_a}"
        ))
        .unwrap();
        run_str(&format!(
            "generate --events 9 --users 30 --seed 2 --output {inst_b}"
        ))
        .unwrap();
        run_str(&format!("solve --input {inst_b} --output {arr_b}")).unwrap();
        assert!(run_str(&format!("improve --input {inst_a} --arrangement {arr_b}")).is_err());
    }

    #[test]
    fn inspect_summarizes_an_arrangement() {
        let inst = tmp("inspect_instance.json");
        let arr = tmp("inspect_arrangement.json");
        run_str(&format!("generate --events 6 --users 20 --output {inst}")).unwrap();
        run_str(&format!("solve --input {inst} --output {arr}")).unwrap();
        let out = run_str(&format!(
            "inspect --input {inst} --arrangement {arr} --top 3"
        ))
        .unwrap();
        assert!(out.contains("MaxSum"));
        assert!(out.contains("seats filled"));
        assert!(out.contains("top 3 events"));
    }

    #[test]
    fn inspect_certify_reports_a_ratio() {
        let inst = tmp("certify_instance.json");
        let arr = tmp("certify_arrangement.json");
        run_str(&format!("generate --events 5 --users 15 --output {inst}")).unwrap();
        run_str(&format!("solve --input {inst} --output {arr}")).unwrap();
        let out = run_str(&format!(
            "inspect --input {inst} --arrangement {arr} --certify"
        ))
        .unwrap();
        assert!(out.contains("certified"), "{out}");
        assert!(out.contains("% of optimal"));
    }

    #[test]
    fn inspect_rejects_infeasible_arrangement() {
        let inst_a = tmp("inspect_a.json");
        let inst_b = tmp("inspect_b.json");
        let arr_b = tmp("inspect_b_arr.json");
        run_str(&format!(
            "generate --events 3 --users 9 --seed 5 --output {inst_a}"
        ))
        .unwrap();
        run_str(&format!(
            "generate --events 7 --users 30 --seed 6 --output {inst_b}"
        ))
        .unwrap();
        run_str(&format!("solve --input {inst_b} --output {arr_b}")).unwrap();
        assert!(run_str(&format!("inspect --input {inst_a} --arrangement {arr_b}")).is_err());
    }

    #[test]
    fn solve_threads_flag_is_accepted_and_validated() {
        let inst = tmp("threads_instance.json");
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let one = run_str(&format!(
            "solve --input {inst} --algorithm prune --threads 1"
        ))
        .unwrap();
        let four = run_str(&format!(
            "solve --input {inst} --algorithm prune --threads 4"
        ))
        .unwrap();
        // Same MaxSum printed at every thread count.
        let max_sum = |s: &str| {
            s.split("MaxSum ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .to_owned()
        };
        assert_eq!(max_sum(&one), max_sum(&four));
        let greedy_out = run_str(&format!(
            "solve --input {inst} --algorithm greedy --threads 2"
        ))
        .unwrap();
        assert!(greedy_out.contains("Greedy-GEACC"));
        assert!(run_str(&format!("solve --input {inst} --threads 0")).is_err());
        assert!(run_str(&format!("solve --input {inst} --threads two")).is_err());
    }

    #[test]
    fn budgeted_solve_returns_incumbent_with_exit_code_3() {
        let inst = tmp("budget_incumbent.json");
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm prune --max-nodes 0"
        ))
        .unwrap();
        assert_eq!(out.code, 3, "{}", out.text);
        assert!(out.contains("incumbent"), "{}", out.text);
        assert!(out.contains("node budget"), "{}", out.text);
    }

    #[test]
    fn budgeted_solve_on_timeout_greedy_degrades_with_exit_code_4() {
        let inst = tmp("budget_greedy.json");
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm prune --max-nodes 0 --on-timeout greedy"
        ))
        .unwrap();
        assert_eq!(out.code, 4, "{}", out.text);
        assert!(out.contains("degraded to Greedy-GEACC"), "{}", out.text);
    }

    #[test]
    fn budgeted_solve_on_timeout_error_exits_5_without_writing() {
        let inst = tmp("budget_error.json");
        let arr = tmp("budget_error_arr.json");
        let _ = std::fs::remove_file(&arr);
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm prune --max-nodes 0 --on-timeout error --output {arr}"
        ))
        .unwrap();
        assert_eq!(out.code, 5, "{}", out.text);
        assert!(out.contains("no arrangement written"), "{}", out.text);
        assert!(!std::path::Path::new(&arr).exists());
    }

    #[test]
    fn budgeted_solve_completing_within_budget_exits_0() {
        let inst = tmp("budget_complete.json");
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm greedy --timeout-ms 60000"
        ))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.contains("feasible (complete)"), "{}", out.text);
    }

    #[test]
    fn on_timeout_needs_a_budget_and_a_known_policy() {
        let inst = tmp("budget_flags.json");
        run_str(&format!(
            "generate --events 3 --users 6 --seed 9 --output {inst}"
        ))
        .unwrap();
        let err = run_str(&format!("solve --input {inst} --on-timeout greedy")).unwrap_err();
        assert!(err.0.contains("needs a budget"), "{}", err.0);
        let err = run_str(&format!(
            "solve --input {inst} --max-nodes 5 --on-timeout shrug"
        ))
        .unwrap_err();
        assert!(err.0.contains("on-timeout policy"), "{}", err.0);
        assert!(run_str(&format!("solve --input {inst} --timeout-ms abc")).is_err());
        assert!(run_str(&format!("solve --input {inst} --max-nodes -1")).is_err());
    }

    #[test]
    fn budget_lifts_the_exact_search_size_guard() {
        // 50×100 pairs is refused unbudgeted (see
        // `exact_search_is_size_guarded`) but fine under a node budget:
        // the solve becomes anytime instead of exponential.
        let inst = tmp("budget_guard.json");
        run_str(&format!("generate --events 50 --users 100 --output {inst}")).unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm prune --max-nodes 1000"
        ))
        .unwrap();
        assert_eq!(out.code, 3, "{}", out.text);
        assert!(out.contains("incumbent"), "{}", out.text);
    }

    #[test]
    fn solve_algorithms_all_work_on_small_instances() {
        // 3×6 keeps the exact algorithms sub-second even with the CLI's
        // default capacity distributions (c_v up to 50).
        let inst = tmp("algos_instance.json");
        run_str(&format!("generate --events 3 --users 6 --output {inst}")).unwrap();
        for algo in [
            "greedy",
            "mincostflow",
            "prune",
            "exhaustive",
            "random-v",
            "random-u",
            "alns",
        ] {
            let out = run_str(&format!("solve --input {inst} --algorithm {algo}")).unwrap();
            assert!(out.contains("MaxSum"), "{algo}: {out}");
        }
    }

    #[test]
    fn alns_solve_echoes_the_seed_and_reproduces_per_seed() {
        let inst = tmp("alns_instance.json");
        run_str(&format!(
            "generate --events 6 --users 24 --seed 2 --output {inst}"
        ))
        .unwrap();
        let max_sum = |s: &str| {
            s.split("MaxSum ")
                .nth(1)
                .unwrap()
                .split(',')
                .next()
                .unwrap()
                .to_owned()
        };
        let a = run_str(&format!("solve --input {inst} --algorithm alns --seed 7")).unwrap();
        let b = run_str(&format!("solve --input {inst} --algorithm alns --seed 7")).unwrap();
        assert!(a.contains("ALNS-GEACC"), "{}", a.text);
        assert!(a.contains("seed 7"), "{}", a.text);
        assert_eq!(max_sum(&a), max_sum(&b), "same seed, same MaxSum");
        // The default seed is 0 and is echoed too.
        let d = run_str(&format!("solve --input {inst} --algorithm alns")).unwrap();
        assert!(d.contains("seed 0"), "{}", d.text);
    }

    #[test]
    fn on_timeout_alns_refines_or_keeps_the_stopped_incumbent() {
        let inst = tmp("alns_policy_instance.json");
        run_str(&format!(
            "generate --events 10 --users 40 --seed 6 --output {inst}"
        ))
        .unwrap();
        let out = run_str(&format!(
            "solve --input {inst} --algorithm prune --max-nodes 50 --on-timeout alns"
        ))
        .unwrap();
        // Either ALNS improved the incumbent (degraded-to attribution,
        // exit 4) or it could not (the primary's incumbent, exit 3).
        assert!(
            out.code == 3 || out.code == 4,
            "{} (code {})",
            out.text,
            out.code
        );
        if out.code == 4 {
            assert!(out.contains("degraded to ALNS-GEACC"), "{}", out.text);
        } else {
            assert!(out.contains("incumbent"), "{}", out.text);
        }
    }
}
