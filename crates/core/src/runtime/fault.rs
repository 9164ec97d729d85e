//! Deterministic fault injection for the resilience test harness.
//!
//! A [`FaultPlan`] scripts failures at *logical* points of a budgeted
//! solve — tick counts (one tick = one [`BudgetMeter::tick`][crate::
//! runtime::BudgetMeter::tick], i.e. one unit of solver work) and
//! pipeline stage boundaries — rather than wall-clock times, so the
//! injected panic or delay lands at the same tree node on every run.
//! The plan is attached to a meter via
//! [`BudgetMeter::with_fault`][crate::runtime::BudgetMeter::with_fault]
//! and to a pipeline via
//! [`SolverPipeline::with_fault`][crate::runtime::SolverPipeline::with_fault];
//! production code paths carry `None` and pay nothing.

use std::time::Duration;

#[derive(Debug, Clone)]
enum Injection {
    /// Panic when the meter records exactly this tick.
    PanicAtTick(u64),
    /// Sleep when the meter records exactly this tick.
    DelayAtTick { tick: u64, delay: Duration },
    /// Panic when the pipeline enters the named stage ("prune",
    /// "greedy", "random-v", …).
    PanicAtStage(String),
}

/// A scripted set of failures, built fluently:
///
/// ```
/// use geacc_core::runtime::FaultPlan;
/// use std::time::Duration;
/// let plan = FaultPlan::new()
///     .delay_at_tick(1_000, Duration::from_millis(5))
///     .panic_at_stage("greedy");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Panic at the given meter tick — lands inside whatever loop (or
    /// worker thread) happens to record that tick.
    pub fn panic_at_tick(mut self, tick: u64) -> Self {
        self.injections.push(Injection::PanicAtTick(tick));
        self
    }

    /// Sleep `delay` at the given meter tick (models a stall).
    pub fn delay_at_tick(mut self, tick: u64, delay: Duration) -> Self {
        self.injections.push(Injection::DelayAtTick { tick, delay });
        self
    }

    /// Panic as the pipeline enters the named stage.
    pub fn panic_at_stage(mut self, stage: impl Into<String>) -> Self {
        self.injections.push(Injection::PanicAtStage(stage.into()));
        self
    }

    /// Runtime hook: fire tick-indexed injections. Called by
    /// `BudgetMeter::tick`; may panic or sleep by design.
    pub fn on_tick(&self, tick: u64) {
        for injection in &self.injections {
            match injection {
                Injection::PanicAtTick(t) if *t == tick => {
                    panic!("fault injection: panic at tick {tick}")
                }
                Injection::DelayAtTick { tick: t, delay } if *t == tick => {
                    std::thread::sleep(*delay)
                }
                _ => {}
            }
        }
    }

    /// Runtime hook: fire stage-boundary injections. Called by
    /// `SolverPipeline` as each stage starts; may panic.
    pub fn on_stage_start(&self, stage: &str) {
        for injection in &self.injections {
            if matches!(injection, Injection::PanicAtStage(s) if s == stage) {
                panic!("fault injection: panic entering stage {stage:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        plan.on_tick(1);
        plan.on_stage_start("prune");
    }

    #[test]
    #[should_panic(expected = "panic at tick 3")]
    fn panic_fires_at_exact_tick() {
        let plan = FaultPlan::new().panic_at_tick(3);
        plan.on_tick(2);
        plan.on_tick(3);
    }

    #[test]
    #[should_panic(expected = "entering stage \"greedy\"")]
    fn stage_panic_fires_on_name_match() {
        let plan = FaultPlan::new().panic_at_stage("greedy");
        plan.on_stage_start("prune");
        plan.on_stage_start("greedy");
    }

    #[test]
    fn delay_injection_sleeps() {
        let plan = FaultPlan::new().delay_at_tick(1, Duration::from_millis(5));
        let start = std::time::Instant::now();
        plan.on_tick(1);
        assert!(start.elapsed() >= Duration::from_millis(5));
    }
}
