//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mixed_rw --seed 1 --seconds 12 --trace 0
//! ```
//!
//! Runs one seeded, fixed-work workload (see `WORKLOADS.md`), checks
//! every answer, and prints three JSON lines: the run's provenance, the
//! full report (every metric of the workload with its unit, sample count
//! and statistic, the properties of its inputs, and the ops attempted,
//! succeeded and failed by class and cause), and last a summary with the
//! metrics `BENCHMARK.json` lists — `end_to_end` with `--trace 0`,
//! `per_layer` with `--trace 1`. The traced run also writes its spans to
//! `.bench_out/`. A failed answer check exits 2; a run that cannot
//! finish exits 1 without a summary.

mod replay;
mod report;
mod serve;
mod trace;
mod util;
mod workloads;

use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use util::{num, obj};

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *workloads::WORKLOADS
                        .iter()
                        .find(|w| *w == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be in 1..=600".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The metric names and units `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let spec: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let Some(Value::Array(items)) = geacc_server::protocol::get(&spec, key) else {
        return Err(format!("BENCHMARK.json has no {key:?} list"));
    };
    items
        .iter()
        .map(|m| {
            let name = geacc_server::protocol::get_str(m, "name");
            let unit = geacc_server::protocol::get_str(m, "unit");
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed {key} entry")),
            }
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("serve") {
        let wal = argv
            .iter()
            .position(|a| a == "--wal-dir")
            .and_then(|i| argv.get(i + 1))
            .map(PathBuf::from);
        return match serve::serve_main(wal) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench serve: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&argv) {
        Ok(correct) if correct => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(2),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One run; `Ok(correct)` once the summary line is printed.
fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(&argv[1..])?;
    let wanted = listed(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    let out = PathBuf::from(".bench_out");
    for dir in [&work, &out] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work,
        out,
        name: args.workload,
    };
    println!(
        "{}",
        to_json(&obj(vec![("provenance", util::provenance(argv))]))
    );
    let result = workloads::run(&ctx);
    let properties = workloads::common_properties(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    let r = result?;

    let Value::Object(mut props) = properties else {
        return Err("properties".into());
    };
    props.extend(r.properties.iter().map(|(k, v)| (k.to_string(), v.clone())));
    let report = obj(vec![
        ("workload", Value::String(args.workload.into())),
        ("seed", num(args.seed)),
        ("trace", Value::Bool(args.trace)),
        ("properties", Value::Object(props)),
        ("ops", r.ledger.json()),
        ("end_to_end", r.e2e.json()),
        ("per_layer", r.layers.json()),
    ]);
    let text = to_json(&report);
    let path = ctx.out.join(format!("report-{}.json", args.workload));
    std::fs::write(&path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", to_json(&obj(vec![("report", report)])));

    let from = if args.trace { &r.layers } else { &r.e2e };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let m = from
            .get(&name)
            .ok_or(format!("{} does not measure {name}", args.workload))?;
        if m.unit != unit {
            return Err(format!("{name}: measured in {}, listed in {unit}", m.unit));
        }
        let entry = obj(vec![("value", num(m.value)), ("unit", Value::String(unit))]);
        metrics.push((name, entry));
    }
    let correct = r.ledger.failed() == 0;
    let summary = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", num(r.ledger.attempted())),
        ("failed", num(r.ledger.failed())),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", to_json(&summary));
    Ok(correct)
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}
