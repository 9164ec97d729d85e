//! Fig. 4 of the paper: effect of event capacity `c_v`, user capacity
//! `c_u`, generating distributions (Zipf attributes + Normal capacities),
//! and the real dataset (Meetup-sim Auckland), on MaxSum / time / memory.
//!
//! ```sh
//! cargo run -p geacc-bench --release --bin fig4                  # all columns
//! cargo run -p geacc-bench --release --bin fig4 -- --panel cv    # one column
//! cargo run -p geacc-bench --release --bin fig4 -- --quick
//! cargo run -p geacc-bench --release --bin fig4 -- --threads 1   # measurement-grade
//! cargo run -p geacc-bench --release --bin fig4 -- --timeout-ms 500 # anytime curves
//! ```
//!
//! Sweep cells run concurrently on a scoped-thread pool sized by
//! `--threads` / `GEACC_THREADS` (see `cli::threads` for the
//! time/memory-panel caveat). With `--timeout-ms` each cell runs under a
//! wall-clock budget; budget-stopped cells report their feasible
//! incumbent and are flagged on stderr.

use geacc_bench::cli;
use geacc_bench::sweep::Sweep;
use geacc_datagen::{AttrDistribution, CapDistribution, City, MeetupConfig, SyntheticConfig};

#[global_allocator]
static ALLOC: geacc_bench::alloc::TrackingAllocator = geacc_bench::alloc::TrackingAllocator;

fn main() {
    let panel = cli::flag_value("panel");
    let quick = cli::has_flag("quick");
    let sweep = Sweep::from_cli();
    let run_all = panel.is_none();
    let panel = panel.unwrap_or_default();

    if run_all || panel == "cv" {
        // c_v ~ Uniform[1, max c_v], max c_v on the x-axis.
        let xs: &[u32] = if quick {
            &[10, 50, 200]
        } else {
            &[10, 20, 50, 100, 200]
        };
        sweep.panel(
            "fig4_cv",
            "max c_v",
            xs.iter()
                .map(|&m| {
                    let config = SyntheticConfig {
                        cap_v_dist: CapDistribution::Uniform { min: 1, max: m },
                        seed: 500 + m as u64,
                        ..Default::default()
                    };
                    (m.to_string(), move || config.generate())
                })
                .collect(),
        );
    }
    if run_all || panel == "cu" {
        let xs: &[u32] = if quick {
            &[2, 6, 10]
        } else {
            &[2, 4, 6, 8, 10]
        };
        sweep.panel(
            "fig4_cu",
            "max c_u",
            xs.iter()
                .map(|&m| {
                    let config = SyntheticConfig {
                        cap_u_dist: CapDistribution::Uniform { min: 1, max: m },
                        seed: 600 + m as u64,
                        ..Default::default()
                    };
                    (m.to_string(), move || config.generate())
                })
                .collect(),
        );
    }
    if run_all || panel == "dist" {
        // The paper's distribution column: Zipf(1.3) attributes, Normal
        // capacities, swept over |V|.
        let xs: &[usize] = if quick {
            &[20, 100]
        } else {
            &[20, 50, 100, 200, 500]
        };
        sweep.panel(
            "fig4_dist",
            "|V| (Zipf attrs, Normal caps)",
            xs.iter()
                .map(|&nv| {
                    let config = SyntheticConfig {
                        num_events: nv,
                        attr_dist: AttrDistribution::Zipf { exponent: 1.3 },
                        cap_v_dist: CapDistribution::Normal {
                            mean: 25.0,
                            std_dev: 12.5,
                        },
                        cap_u_dist: CapDistribution::Normal {
                            mean: 2.0,
                            std_dev: 1.0,
                        },
                        seed: 700 + nv as u64,
                        ..Default::default()
                    };
                    (nv.to_string(), move || config.generate())
                })
                .collect(),
        );
    }
    if run_all || panel == "real" {
        // Real (Meetup-sim) Auckland, Uniform capacities, |CF| ratio on
        // the x-axis — the paper's last column.
        let xs: &[f64] = if quick {
            &[0.0, 0.5, 1.0]
        } else {
            &[0.0, 0.25, 0.5, 0.75, 1.0]
        };
        sweep.panel(
            "fig4_real",
            "|CF| ratio (Auckland)",
            xs.iter()
                .map(|&r| {
                    let mut config = MeetupConfig::new(City::Auckland);
                    config.conflict_ratio = r;
                    config.seed = 800 + (r * 4.0) as u64;
                    (format!("{r}"), move || config.generate())
                })
                .collect(),
        );
    }
}
