//! The sweep harness Fig. 3 and Fig. 4 share: a panel is one generated
//! instance per sweep point, with every algorithm of [`ALGOS`] measured
//! on it.

use crate::cli;
use crate::runner::measure_with;
use crate::table::{write_csv, Series};
use geacc_core::algorithms::Algorithm;
use geacc_core::parallel::{par_map_coarse, Threads};
use geacc_core::Instance;
use std::path::Path;

/// The algorithms of the Fig. 3 and Fig. 4 panels, in column order.
pub const ALGOS: [Algorithm; 4] = [
    Algorithm::Greedy,
    Algorithm::MinCostFlow,
    Algorithm::RandomV { seed: 42 },
    Algorithm::RandomU { seed: 42 },
];

/// How a figure binary measures its cells, read once from its flags.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Timed runs per measurement (`--repeats`, default 1).
    pub repeats: usize,
    /// Concurrent cells (`--threads`, see [`cli::threads`]).
    pub threads: Threads,
    /// Per-measurement wall-clock budget (`--timeout-ms`).
    pub timeout_ms: Option<u64>,
}

impl Sweep {
    /// `--repeats`, `--threads` and `--timeout-ms` of this process.
    pub fn from_cli() -> Self {
        Sweep {
            repeats: cli::repeats(1),
            threads: cli::threads(),
            timeout_ms: cli::timeout_ms(),
        }
    }

    /// Run one panel: for each sweep point, generate its instance inside
    /// the cell and measure every algorithm (cells run concurrently on
    /// the worker pool), then print the MaxSum, time and memory tables
    /// in sweep order and write them to `results/{stem}_*.csv`.
    pub fn panel<G>(&self, stem: &str, x_label: &str, points: Vec<(String, G)>)
    where
        G: Fn() -> Instance + Sync,
    {
        let mut max_sum = Series::new(format!("{stem}: MaxSum vs {x_label}"), x_label);
        let mut time = Series::new(format!("{stem}: time (s) vs {x_label}"), x_label);
        let mut memory = Series::new(format!("{stem}: memory (MB) vs {x_label}"), x_label);
        let cells = par_map_coarse(self.threads, points.len(), |i| {
            let (x, generate) = &points[i];
            eprintln!("[{stem}] {x_label} = {x} …");
            let instance = generate();
            ALGOS.map(|algo| measure_with(&instance, algo, self.repeats, self.timeout_ms))
        });
        for ((x, _), cell) in points.iter().zip(&cells) {
            max_sum.x.push(x.clone());
            time.x.push(x.clone());
            memory.x.push(x.clone());
            for (algo, m) in ALGOS.iter().zip(cell) {
                if !m.complete {
                    eprintln!(
                        "[{stem}] {x_label} = {x}: {} budget-stopped; values are its incumbent",
                        algo.name()
                    );
                }
                max_sum.push(algo.name(), m.max_sum);
                time.push(algo.name(), m.seconds);
                memory.push(algo.name(), m.peak_bytes as f64 / 1e6);
            }
        }
        for (suffix, series) in [("maxsum", &max_sum), ("time", &time), ("memory", &memory)] {
            println!("{}", series.to_text());
            write_csv(Path::new("results"), &format!("{stem}_{suffix}"), series)
                .expect("write results CSV");
        }
    }
}
