//! Fig. 3 of the paper: effect of cardinality (`|V|`, `|U|`),
//! dimensionality `d`, and conflict-set size `|CF|` on MaxSum, running
//! time, and memory, for Greedy-GEACC, MinCostFlow-GEACC, Random-V, and
//! Random-U.
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin fig3                # all four columns
//! cargo run -p geacc-bench --release --bin fig3 -- --panel v   # one column
//! cargo run -p geacc-bench --release --bin fig3 -- --quick     # reduced sweep
//! cargo run -p geacc-bench --release --bin fig3 -- --threads 1 # measurement-grade
//! cargo run -p geacc-bench --release --bin fig3 -- --timeout-ms 500 # anytime curves
//! ```
//!
//! Sweep cells (one instance × all algorithms) run concurrently on a
//! scoped-thread pool sized by `--threads` / `GEACC_THREADS` (see
//! `cli::threads` for the time/memory-panel caveat — pass `--threads 1`
//! for publication numbers). With `--timeout-ms` every cell runs under a
//! wall-clock budget and a budget-stopped cell reports its feasible
//! incumbent (flagged `[stopped]` on stderr) instead of hanging the
//! sweep. CSVs land in `results/fig3_*.csv`; EXPERIMENTS.md records the
//! shape comparison against the paper.

use geacc_bench::cli;
use geacc_bench::sweep::Sweep;
use geacc_datagen::SyntheticConfig;

#[global_allocator]
static ALLOC: geacc_bench::alloc::TrackingAllocator = geacc_bench::alloc::TrackingAllocator;

fn main() {
    let panel = cli::flag_value("panel");
    let quick = cli::has_flag("quick");
    let sweep = Sweep::from_cli();
    let run_all = panel.is_none();
    let panel = panel.unwrap_or_default();

    if run_all || panel == "v" {
        let xs: &[usize] = if quick {
            &[20, 50, 100]
        } else {
            &[20, 50, 100, 200, 500]
        };
        sweep.panel(
            "fig3_v",
            "|V|",
            xs.iter()
                .map(|&nv| {
                    (nv.to_string(), move || {
                        SyntheticConfig {
                            num_events: nv,
                            seed: 100 + nv as u64,
                            ..Default::default()
                        }
                        .generate()
                    })
                })
                .collect(),
        );
    }
    if run_all || panel == "u" {
        let xs: &[usize] = if quick {
            &[100, 200, 500]
        } else {
            &[100, 200, 500, 1000, 2000, 5000]
        };
        sweep.panel(
            "fig3_u",
            "|U|",
            xs.iter()
                .map(|&nu| {
                    (nu.to_string(), move || {
                        SyntheticConfig {
                            num_users: nu,
                            seed: 200 + nu as u64,
                            ..Default::default()
                        }
                        .generate()
                    })
                })
                .collect(),
        );
    }
    if run_all || panel == "d" {
        let xs: &[usize] = if quick {
            &[2, 10, 20]
        } else {
            &[2, 5, 10, 15, 20]
        };
        sweep.panel(
            "fig3_d",
            "d",
            xs.iter()
                .map(|&d| {
                    (d.to_string(), move || {
                        SyntheticConfig {
                            dim: d,
                            seed: 300 + d as u64,
                            ..Default::default()
                        }
                        .generate()
                    })
                })
                .collect(),
        );
    }
    if run_all || panel == "cf" {
        let xs: &[f64] = if quick {
            &[0.0, 0.5, 1.0]
        } else {
            &[0.0, 0.25, 0.5, 0.75, 1.0]
        };
        sweep.panel(
            "fig3_cf",
            "|CF| ratio",
            xs.iter()
                .map(|&r| {
                    (format!("{r}"), move || {
                        SyntheticConfig {
                            conflict_ratio: r,
                            seed: 400 + (r * 4.0) as u64,
                            ..Default::default()
                        }
                        .generate()
                    })
                })
                .collect(),
        );
    }
}
