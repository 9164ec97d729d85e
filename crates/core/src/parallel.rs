//! The parallel runtime configuration and shared-incumbent primitive.
//!
//! The fork-join substrate ([`Threads`], [`par_map_coarse`],
//! [`split_ranges`]) lives in `geacc_index::parallel` (the dependency-free
//! bottom of the workspace) and is re-exported here; this module adds the
//! one synchronization primitive the algorithms need: [`SharedBest`], a
//! monotonically increasing `f64` cell backed by an `AtomicU64` of the
//! value's bits.
//!
//! ## Why sharing the incumbent is safe (Lemma 6)
//!
//! Parallel Prune-GEACC workers prune a subtree when its Lemma 6 upper
//! bound cannot beat the best `MaxSum` seen *anywhere*. The shared cell
//! only ever grows, and every value written into it is the `MaxSum` of a
//! real feasible arrangement, so reading it can only make the bound test
//! *more* informed — a stale (smaller) read merely explores a subtree
//! that a fresher read would have pruned; it never prunes a subtree that
//! could contain an improvement. Correctness therefore does not depend
//! on memory-ordering subtleties, which is why `Relaxed` suffices.

pub use geacc_index::parallel::{par_map_coarse, split_ranges, Threads, THREADS_ENV};

/// A worker must have at least this many dense similarity cells
/// (`|V|·|U|` units) to be worth spawning; below it, fork-join overhead
/// exceeds the scan itself. The candidate-graph build floors its worker
/// budget with [`Threads::cost_capped`]`(|V|·|U|, SIM_CELLS_PER_WORKER)`.
pub(crate) const SIM_CELLS_PER_WORKER: usize = 1 << 17;

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone non-negative `f64` maximum, shared across worker threads.
///
/// Stored as the value's IEEE-754 bits in an `AtomicU64`. All values
/// offered must be non-negative and finite (`MaxSum` always is); for
/// such values the bit patterns are ordered the same way as the floats,
/// but [`SharedBest::offer`] compares as floats anyway, so the invariant
/// is maintained by the compare-exchange loop, not by bit tricks.
#[derive(Debug)]
pub struct SharedBest(AtomicU64);

impl SharedBest {
    /// A cell starting at `initial` (typically the greedy seed's
    /// `MaxSum`, or `0.0`).
    pub fn new(initial: f64) -> Self {
        debug_assert!(initial >= 0.0 && initial.is_finite());
        SharedBest(AtomicU64::new(initial.to_bits()))
    }

    /// The current best value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Raise the cell to `value` if it improves the current best
    /// (monotone compare-and-swap; loses races only to larger values).
    pub fn offer(&self, value: f64) {
        debug_assert!(value >= 0.0 && value.is_finite());
        let mut current = self.0.load(Ordering::Relaxed);
        while value > f64::from_bits(current) {
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(observed) => current = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_best_is_monotone() {
        let best = SharedBest::new(1.0);
        best.offer(0.5);
        assert_eq!(best.get(), 1.0);
        best.offer(2.5);
        assert_eq!(best.get(), 2.5);
        best.offer(2.5);
        assert_eq!(best.get(), 2.5);
    }

    #[test]
    fn shared_best_survives_concurrent_offers() {
        let best = SharedBest::new(0.0);
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let best = &best;
                scope.spawn(move || {
                    for i in 0..1000u32 {
                        best.offer(f64::from(t * 1000 + i) / 4000.0);
                    }
                });
            }
        });
        assert_eq!(best.get(), 3999.0 / 4000.0);
    }

    #[test]
    fn reexports_are_usable() {
        assert_eq!(Threads::new(3).get(), 3);
        let doubled = par_map_coarse(Threads::new(2), 100, |i| i * 2);
        assert_eq!(doubled[99], 198);
    }
}
