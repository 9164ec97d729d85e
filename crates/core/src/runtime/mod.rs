//! The resilience layer: budgets, anytime outcomes, and graceful
//! degradation (extension beyond the paper).
//!
//! Prune-GEACC is exact but worst-case exponential — the paper's Fig. 6
//! shows running time exploding even with the Lemma 6 bound — so a
//! production arrangement service cannot simply *call* it. This module
//! makes every solver *anytime*:
//!
//! - [`SolveBudget`] / [`BudgetMeter`] — wall-clock deadlines and exact
//!   node budgets, polled cooperatively from the solvers' hot loops
//!   ([`budget`] module docs describe cost and determinism);
//! - [`Outcome`] / [`SolveStatus`] — an honest report of how much trust
//!   the returned arrangement deserves, mapped onto process exit codes;
//! - [`SolverPipeline`] — the primary → Greedy → Random-V degradation
//!   chain with per-stage budgets and panic isolation, dispatching
//!   every stage through [`crate::engine`] over one shared
//!   [`CandidateGraph`][crate::engine::CandidateGraph];
//! - [`FaultPlan`] — deterministic fault injection (panics and stalls)
//!   for the resilience test suite.
//!
//! Budget enforcement is strictly opt-in: the classic entry points
//! (`greedy`, `mincostflow`, `prune`, …) carry no meter and remain
//! bit-identical to their pre-resilience behavior at every thread count.

pub mod budget;
pub mod fault;
pub mod outcome;
pub mod pipeline;

pub use budget::{BudgetMeter, SolveBudget, StopReason};
pub use fault::FaultPlan;
pub use outcome::{FallbackAlgo, Outcome, Provenance, SolveError, SolveStatus};
pub use pipeline::SolverPipeline;
