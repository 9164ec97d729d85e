//! Zero-dependency fork-join primitives on [`std::thread::scope`].
//!
//! The workspace's dependency policy rules out rayon, so the parallel
//! runtime is built directly on scoped threads: a [`Threads`] budget
//! resolved from `GEACC_THREADS` / `std::thread::available_parallelism`,
//! [`split_ranges`] (the static index ranges the candidate-graph build
//! hands its workers) and one deterministic fork-join map,
//! [`par_map_coarse`] (a shared cursor for few heavy items). The map
//! degrades to a plain sequential loop at `Threads(1)`, so callers pay
//! no thread overhead in the common single-core case.
//!
//! Determinism contract: the *value* produced by these helpers is a pure
//! function of the input — results are reassembled in index order, so
//! the output is identical at every thread count. Only wall-clock timing
//! varies.

use std::num::NonZeroUsize;

/// Join a worker handle, re-raising its panic payload verbatim.
///
/// `JoinHandle::join` boxes a worker panic; unwrapping with `expect`
/// would replace the original payload (and its message) with a generic
/// one. Resuming the original keeps worker panics transparent to
/// callers — in particular to the budgeted solver pipeline, whose
/// `catch_unwind` turns them into graceful degradation and honest
/// status reporting.
fn join_propagating<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(value) => value,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "GEACC_THREADS";

/// A worker-count budget for the fork-join helpers.
///
/// `Threads` is a positive count: `1` means "run on the calling thread"
/// (no spawning at all). Resolve one with [`Threads::new`] (explicit),
/// [`Threads::available`] (hardware parallelism), or
/// [`Threads::from_env`] (the `GEACC_THREADS` variable, falling back to
/// hardware parallelism) — the resolution order the `geacc` CLI and the
/// bench harness use for their `--threads` flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// An explicit worker count; `0` is clamped to `1`.
    pub fn new(n: usize) -> Self {
        Threads(NonZeroUsize::new(n.max(1)).expect("max(1) is non-zero"))
    }

    /// Single-threaded: every helper runs inline on the caller.
    pub fn single() -> Self {
        Threads::new(1)
    }

    /// The host's available parallelism (`1` if it cannot be queried).
    pub fn available() -> Self {
        Threads::new(std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// `GEACC_THREADS` if set and parseable as a positive integer,
    /// otherwise [`Threads::available`].
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) if n >= 1 => Threads::new(n),
                _ => Threads::available(),
            },
            Err(_) => Threads::available(),
        }
    }

    /// The worker count.
    #[inline]
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Cap this budget so every prospective worker receives at least
    /// `min_cost_per_worker` units of `total_cost` (both in any
    /// caller-chosen unit: items, dense cells, bytes).
    ///
    /// Forking 4 workers over a job worth a fraction of a millisecond
    /// is a net loss — each spawn/join costs tens of microseconds and,
    /// on hosts with less parallelism than the budget, the workers just
    /// time-slice one core — so a coarse-grain floor keeps small jobs
    /// inline and lets big ones fan out unchanged.
    pub fn cost_capped(self, total_cost: usize, min_cost_per_worker: usize) -> Threads {
        let max_workers = total_cost / min_cost_per_worker.max(1);
        Threads::new(self.get().min(max_workers.max(1)))
    }
}

impl Default for Threads {
    /// Defaults to single-threaded: library entry points stay sequential
    /// unless a caller opts in (the CLI/bench layers opt in via
    /// [`Threads::from_env`]).
    fn default() -> Self {
        Threads::single()
    }
}

/// Split `n` items over `workers` as contiguous `(start, end)` ranges,
/// sized within one of each other (first `n % workers` ranges get the
/// extra item). Empty ranges are omitted.
pub fn split_ranges(n: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.max(1).min(n.max(1));
    let base = n / workers;
    let extra = n % workers;
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let len = base + usize::from(w < extra);
        if len == 0 {
            break;
        }
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Map `f` over `0..n` for *few, coarse* items (benchmark sweep cells,
/// whole-figure panels) whose per-item cost is large and uneven.
///
/// Any `n ≥ 2` forks when `threads > 1`, and items are claimed
/// dynamically from a shared cursor rather than split into static
/// ranges, so one slow item does not idle the other workers. Results are
/// returned in index order — the output equals `(0..n).map(f).collect()`
/// at every thread count.
pub fn par_map_coarse<U, F>(threads: Threads, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    if threads.get() == 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let workers = threads.get().min(n);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let mut parts: Vec<Vec<(usize, U)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let (cursor, f) = (&cursor, &f);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(join_propagating).collect()
    });
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    for part in &mut parts {
        for (i, value) in part.drain(..) {
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_ranges_cover_exactly_once() {
        for n in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8, 64] {
                let ranges = split_ranges(n, workers);
                let mut next = 0;
                for (start, end) in ranges {
                    assert_eq!(start, next);
                    assert!(end > start);
                    next = end;
                }
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn par_map_coarse_matches_sequential_even_for_tiny_inputs() {
        for n in [0usize, 1, 2, 5, 40] {
            let expected: Vec<usize> = (0..n).map(|i| i * i).collect();
            for t in [1, 2, 3, 8] {
                let got = par_map_coarse(Threads::new(t), n, |i| i * i);
                assert_eq!(got, expected, "n = {n}, threads = {t}");
            }
        }
    }

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(5).get(), 5);
        assert_eq!(Threads::single().get(), 1);
        assert_eq!(Threads::default().get(), 1);
        assert!(Threads::available().get() >= 1);
        assert!(Threads::from_env().get() >= 1);
    }

    #[test]
    fn cost_capped_floors_the_grain() {
        // Small jobs collapse to fewer workers; big ones keep the budget.
        assert_eq!(Threads::new(4).cost_capped(100, 1000).get(), 1);
        assert_eq!(Threads::new(4).cost_capped(2000, 1000).get(), 2);
        assert_eq!(Threads::new(4).cost_capped(1_000_000, 1000).get(), 4);
        // Degenerate inputs stay positive.
        assert_eq!(Threads::new(4).cost_capped(0, 1000).get(), 1);
        assert_eq!(Threads::new(4).cost_capped(100, 0).get(), 4);
        assert_eq!(Threads::new(1).cost_capped(1 << 30, 1).get(), 1);
    }
}
