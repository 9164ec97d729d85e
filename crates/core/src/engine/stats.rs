//! Process-wide per-solver timing, recorded by the engine dispatcher.
//!
//! Every [`solve_on`][crate::engine::solve_on] call records its solver
//! and wall-clock cost into a fixed set of atomic counters — one slot
//! per [`Algorithm`] — so any surface (the server's `stats` op,
//! the benchmark, tests) can ask "how many solves ran through each
//! solver, and how long did they take?" without threading a collector
//! through every call site. Recording is two relaxed atomic adds; the
//! snapshot is a racy-but-consistent-enough read (counts and nanos are
//! read independently, which is fine for monitoring).

use crate::algorithms::Algorithm;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One slot per [`Algorithm::ALL`] entry.
const SLOTS: usize = Algorithm::ALL.len();

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static CALLS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static NANOS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static IMPROVEMENTS: [AtomicU64; SLOTS] = [ZERO; SLOTS];
static BEST: [AtomicU64; SLOTS] = [ZERO; SLOTS];

/// The slot an algorithm records under: its position in
/// [`Algorithm::ALL`] (random seeds collapse into one slot per
/// baseline).
fn slot(algorithm: Algorithm) -> usize {
    Algorithm::ALL
        .iter()
        .position(|a| std::mem::discriminant(a) == std::mem::discriminant(&algorithm))
        .expect("Algorithm::ALL lists every variant")
}

/// One solver's accumulated dispatch statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverTiming {
    /// The solver's stage key (`"greedy"`, `"prune"`, …).
    pub stage: &'static str,
    /// Engine dispatches recorded for this solver.
    pub calls: u64,
    /// Total wall-clock nanoseconds across those dispatches.
    pub total_nanos: u64,
    /// Incumbent improvements streamed by anytime solvers (ALNS)
    /// mid-run; zero for one-shot solvers.
    pub improvements: u64,
    /// Bit pattern of the latest streamed incumbent `MaxSum` (kept as
    /// bits so the struct stays `Eq`); read via
    /// [`last_incumbent`][Self::last_incumbent].
    pub last_best_bits: u64,
}

impl SolverTiming {
    /// The latest incumbent objective streamed by this solver, if it
    /// ever streamed one.
    pub fn last_incumbent(&self) -> Option<f64> {
        (self.improvements > 0).then(|| f64::from_bits(self.last_best_bits))
    }
    /// Total wall-clock time as a [`Duration`].
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_nanos)
    }

    /// Mean time per dispatch (zero when never called).
    pub fn mean(&self) -> Duration {
        match self.total_nanos.checked_div(self.calls) {
            Some(mean) => Duration::from_nanos(mean),
            None => Duration::ZERO,
        }
    }
}

/// Handle over the process-wide engine counters.
#[derive(Debug, Clone, Copy)]
pub struct EngineStats;

impl EngineStats {
    /// Record one dispatch of `algorithm` that took `elapsed`.
    pub fn record(algorithm: Algorithm, elapsed: Duration) {
        let i = slot(algorithm);
        CALLS[i].fetch_add(1, Ordering::Relaxed);
        NANOS[i].fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Stream one incumbent improvement from an anytime solver: bump
    /// the improvement counter and publish the new best objective, so
    /// monitoring surfaces see progress *while* the solve runs.
    pub fn record_improvement(algorithm: Algorithm, best_max_sum: f64) {
        let i = slot(algorithm);
        BEST[i].store(best_max_sum.to_bits(), Ordering::Relaxed);
        IMPROVEMENTS[i].fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of every slot, in [`Algorithm::ALL`] order.
    pub fn snapshot() -> Vec<SolverTiming> {
        Algorithm::ALL
            .iter()
            .enumerate()
            .map(|(i, algorithm)| SolverTiming {
                stage: algorithm.stage(),
                calls: CALLS[i].load(Ordering::Relaxed),
                total_nanos: NANOS[i].load(Ordering::Relaxed),
                improvements: IMPROVEMENTS[i].load(Ordering::Relaxed),
                last_best_bits: BEST[i].load(Ordering::Relaxed),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_accumulates_into_the_right_slot() {
        let before = EngineStats::snapshot();
        EngineStats::record(Algorithm::Prune, Duration::from_nanos(500));
        EngineStats::record(Algorithm::Prune, Duration::from_nanos(300));
        EngineStats::record(Algorithm::RandomV { seed: 9 }, Duration::from_nanos(10));
        let after = EngineStats::snapshot();
        let delta = |stage: &str| {
            let pick = |snap: &[SolverTiming]| {
                snap.iter()
                    .find(|t| t.stage == stage)
                    .copied()
                    .expect("stage present")
            };
            let (b, a) = (pick(&before), pick(&after));
            (a.calls - b.calls, a.total_nanos - b.total_nanos)
        };
        assert!(delta("prune").0 >= 2);
        assert!(delta("prune").1 >= 800);
        assert!(delta("random-v").0 >= 1);
    }

    #[test]
    fn timings_expose_durations() {
        let t = SolverTiming {
            stage: "greedy",
            calls: 4,
            total_nanos: 4000,
            improvements: 0,
            last_best_bits: 0,
        };
        assert_eq!(t.total(), Duration::from_nanos(4000));
        assert_eq!(t.mean(), Duration::from_nanos(1000));
        assert_eq!(t.last_incumbent(), None);
        let never = SolverTiming {
            stage: "prune",
            calls: 0,
            total_nanos: 0,
            improvements: 0,
            last_best_bits: 0,
        };
        assert_eq!(never.mean(), Duration::ZERO);
    }

    #[test]
    fn improvement_stream_publishes_the_latest_incumbent() {
        EngineStats::record_improvement(Algorithm::Alns { seed: 4 }, 3.25);
        EngineStats::record_improvement(Algorithm::Alns { seed: 4 }, 3.75);
        let snap = EngineStats::snapshot();
        let alns = snap.iter().find(|t| t.stage == "alns").unwrap();
        assert!(alns.improvements >= 2);
        // Another test may have streamed a later value concurrently, but
        // some improvement is always visible once recorded.
        assert!(alns.last_incumbent().is_some());
    }

    #[test]
    fn every_algorithm_has_a_distinct_slot() {
        let algos = [
            Algorithm::Greedy,
            Algorithm::MinCostFlow,
            Algorithm::Prune,
            Algorithm::Exhaustive,
            Algorithm::ExactDp,
            Algorithm::RandomV { seed: 1 },
            Algorithm::RandomU { seed: 2 },
            Algorithm::Alns { seed: 3 },
        ];
        let mut seen = [false; SLOTS];
        for algo in algos {
            let i = slot(algo);
            assert!(!seen[i], "slot {i} reused");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Seeds collapse into the same slot.
        assert_eq!(
            slot(Algorithm::RandomV { seed: 1 }),
            slot(Algorithm::RandomV { seed: 99 })
        );
    }
}
