//! Budgets and the meter the solvers poll.
//!
//! A [`SolveBudget`] declares *limits* (wall-clock deadline, search-node
//! budget); a [`BudgetMeter`] turns one budget into a shared,
//! thread-safe *ledger* the algorithms tick from their hot loops (the
//! Prune-GEACC recursion, the Greedy heap loop, the MinCostFlow
//! augmentation sweep). A tick is one atomic increment plus, every
//! [`CHECK_INTERVAL`] ticks, the expensive check (a clock read) — so
//! budget enforcement costs nanoseconds per node and reacts within ~a
//! millisecond of real work.
//!
//! Determinism: the node budget is enforced *exactly* at the configured
//! count — every tick compares the running total — so a node-budgeted
//! sequential run stops at the same tree node every time. Wall-clock
//! stops are inherently racy and make no such promise.
//!
//! Once any limit trips, the meter latches the first [`StopReason`]
//! forever; every subsequent tick returns it immediately, which is what
//! unwinds a deep recursion or a worker pool cooperatively.

use crate::runtime::fault::FaultPlan;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ticks between clock reads. Node budgets are exact and checked every
/// tick regardless.
pub const CHECK_INTERVAL: u64 = 1024;

/// Resource limits for one solve. `None` everywhere (the default) means
/// run to completion, exactly as the unbudgeted entry points do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveBudget {
    /// Wall-clock limit, measured from [`BudgetMeter::new`].
    pub deadline: Option<Duration>,
    /// Limit on solver ticks (search-tree nodes for the exact search,
    /// heap pops for Greedy, augmentations for MinCostFlow). Enforced
    /// exactly, so node-budgeted runs are deterministic.
    pub max_nodes: Option<u64>,
}

impl SolveBudget {
    /// No limits at all.
    pub const UNLIMITED: SolveBudget = SolveBudget {
        deadline: None,
        max_nodes: None,
    };

    /// A pure wall-clock budget of `ms` milliseconds.
    pub fn from_timeout_ms(ms: u64) -> Self {
        SolveBudget {
            deadline: Some(Duration::from_millis(ms)),
            ..SolveBudget::UNLIMITED
        }
    }

    /// A pure node budget.
    pub fn from_max_nodes(nodes: u64) -> Self {
        SolveBudget {
            max_nodes: Some(nodes),
            ..SolveBudget::UNLIMITED
        }
    }

    /// Whether no limit is set.
    pub fn is_unlimited(&self) -> bool {
        *self == SolveBudget::UNLIMITED
    }
}

/// Why a budgeted solve stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The node budget was exhausted.
    NodeBudget,
    /// A search worker thread panicked; the run salvaged the surviving
    /// workers' incumbents instead of poisoning the process.
    WorkerPanicked,
}

impl StopReason {
    fn from_code(code: u8) -> Option<StopReason> {
        match code {
            1 => Some(StopReason::Deadline),
            2 => Some(StopReason::NodeBudget),
            3 => Some(StopReason::WorkerPanicked),
            _ => None,
        }
    }

    fn code(self) -> u8 {
        match self {
            StopReason::Deadline => 1,
            StopReason::NodeBudget => 2,
            StopReason::WorkerPanicked => 3,
        }
    }
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Deadline => "deadline",
            StopReason::NodeBudget => "node budget",
            StopReason::WorkerPanicked => "worker panicked",
        })
    }
}

/// The live ledger of one budgeted solve: a shared node counter, the
/// latched stop reason, and the optional fault-injection hook. One meter spans one solve *stage* — all its
/// worker threads tick the same meter.
#[derive(Debug)]
pub struct BudgetMeter {
    started: Instant,
    deadline: Option<Instant>,
    max_nodes: u64,
    nodes: AtomicU64,
    stop: AtomicU8,
    fault: Option<Arc<FaultPlan>>,
}

impl BudgetMeter {
    /// Start metering `budget` now (deadlines anchor here).
    pub fn new(budget: &SolveBudget) -> Self {
        let started = Instant::now();
        BudgetMeter {
            started,
            deadline: budget.deadline.map(|d| started + d),
            max_nodes: budget.max_nodes.unwrap_or(u64::MAX),
            nodes: AtomicU64::new(0),
            stop: AtomicU8::new(0),
            fault: None,
        }
    }

    /// A meter with no limits — useful for measuring tick overhead and
    /// for callers that want the node count without enforcement.
    pub fn unlimited() -> Self {
        BudgetMeter::new(&SolveBudget::UNLIMITED)
    }

    /// Attach a fault-injection plan (test harness; fires on every tick).
    pub fn with_fault(mut self, fault: Arc<FaultPlan>) -> Self {
        self.fault = Some(fault);
        self
    }

    /// Record one unit of solver work and report whether the solve must
    /// stop. Callers check this at the top of their hot loop and unwind
    /// when it returns `Some`.
    #[inline]
    pub fn tick(&self) -> Option<StopReason> {
        if let Some(reason) = self.stop_reason() {
            return Some(reason);
        }
        let n = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = &self.fault {
            fault.on_tick(n);
        }
        if n > self.max_nodes {
            self.trip(StopReason::NodeBudget);
        } else if n == 1 || n % CHECK_INTERVAL == 0 {
            self.check_deadline();
        }
        self.stop_reason()
    }

    /// [`tick`][Self::tick] for loops whose single tick is *macroscopic*
    /// work — e.g. MinCostFlow's augmentation sweep, where one tick is a
    /// whole shortest-path computation that can cost milliseconds. Reads
    /// the clock on every tick, so a deadline reacts within one loop
    /// iteration instead of within [`CHECK_INTERVAL`] of them.
    /// Node counting, latching, and fault injection are identical to
    /// [`tick`][Self::tick].
    #[inline]
    pub fn tick_coarse(&self) -> Option<StopReason> {
        if let Some(reason) = self.stop_reason() {
            return Some(reason);
        }
        let n = self.nodes.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = &self.fault {
            fault.on_tick(n);
        }
        if n > self.max_nodes {
            self.trip(StopReason::NodeBudget);
        } else {
            self.check_deadline();
        }
        self.stop_reason()
    }

    /// Trip the deadline if it has passed: on the first tick and then
    /// every [`CHECK_INTERVAL`] ticks (every tick for `tick_coarse`).
    fn check_deadline(&self) {
        if self
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
        {
            self.trip(StopReason::Deadline);
        }
    }

    /// Latch `reason` as the stop cause. First trip wins; later trips
    /// are ignored so the reported reason is the one that actually ended
    /// the solve.
    fn trip(&self, reason: StopReason) {
        let _ = self
            .stop
            .compare_exchange(0, reason.code(), Ordering::Relaxed, Ordering::Relaxed);
    }

    /// The latched stop reason, if any limit has tripped.
    #[inline]
    pub fn stop_reason(&self) -> Option<StopReason> {
        StopReason::from_code(self.stop.load(Ordering::Relaxed))
    }

    /// Total ticks recorded so far (across all threads of the stage).
    pub fn nodes(&self) -> u64 {
        self.nodes.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the meter started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether a node budget is set. Node budgets promise determinism,
    /// so the parallel exact search falls back to its sequential path
    /// when this holds (worker interleaving would otherwise make the
    /// stopping node, and thus the incumbent, racy).
    pub fn has_node_budget(&self) -> bool {
        self.max_nodes != u64::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_meter_never_stops() {
        let meter = BudgetMeter::unlimited();
        for _ in 0..10_000 {
            assert_eq!(meter.tick(), None);
        }
        assert_eq!(meter.nodes(), 10_000);
    }

    #[test]
    fn node_budget_trips_exactly() {
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(5));
        for _ in 0..5 {
            assert_eq!(meter.tick(), None);
        }
        assert_eq!(meter.tick(), Some(StopReason::NodeBudget));
        // Latched forever.
        assert_eq!(meter.tick(), Some(StopReason::NodeBudget));
    }

    #[test]
    fn zero_node_budget_stops_on_first_tick() {
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(0));
        assert_eq!(meter.tick(), Some(StopReason::NodeBudget));
    }

    #[test]
    fn expired_deadline_trips_on_first_tick() {
        let meter = BudgetMeter::new(&SolveBudget::from_timeout_ms(0));
        assert_eq!(meter.tick(), Some(StopReason::Deadline));
    }

    #[test]
    fn coarse_ticks_check_the_deadline_every_tick() {
        let meter = BudgetMeter::new(&SolveBudget::from_timeout_ms(20));
        // Move past the first-tick slow check while the deadline is
        // still comfortably in the future.
        assert_eq!(meter.tick(), None);
        assert_eq!(meter.tick(), None);
        std::thread::sleep(Duration::from_millis(30));
        // An amortized tick far from CHECK_INTERVAL does not notice the
        // expired deadline; a coarse tick notices immediately.
        assert_eq!(meter.tick(), None);
        assert_eq!(meter.tick_coarse(), Some(StopReason::Deadline));
        // And the trip is latched for plain ticks too.
        assert_eq!(meter.tick(), Some(StopReason::Deadline));
        assert_eq!(meter.nodes(), 4);
    }

    #[test]
    fn coarse_ticks_enforce_node_budgets_exactly() {
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(3));
        for _ in 0..3 {
            assert_eq!(meter.tick_coarse(), None);
        }
        assert_eq!(meter.tick_coarse(), Some(StopReason::NodeBudget));
    }

    #[test]
    fn first_trip_wins() {
        let meter = BudgetMeter::new(&SolveBudget::from_max_nodes(1));
        assert_eq!(meter.tick(), None);
        assert_eq!(meter.tick(), Some(StopReason::NodeBudget));
        meter.trip(StopReason::Deadline);
        assert_eq!(meter.stop_reason(), Some(StopReason::NodeBudget));
    }

    #[test]
    fn budget_constructors() {
        assert!(SolveBudget::UNLIMITED.is_unlimited());
        assert!(SolveBudget::default().is_unlimited());
        assert!(!SolveBudget::from_timeout_ms(10).is_unlimited());
        assert_eq!(SolveBudget::from_max_nodes(7).max_nodes, Some(7));
    }

    #[test]
    fn stop_reason_codes_roundtrip() {
        for reason in [
            StopReason::Deadline,
            StopReason::NodeBudget,
            StopReason::WorkerPanicked,
        ] {
            assert_eq!(StopReason::from_code(reason.code()), Some(reason));
            assert!(!reason.to_string().is_empty());
        }
        assert_eq!(StopReason::from_code(0), None);
    }
}
