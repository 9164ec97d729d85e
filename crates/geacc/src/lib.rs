//! # geacc — Conflict-Aware Event-Participant Arrangement
//!
//! A production-quality Rust implementation of the GEACC problem and
//! algorithms from:
//!
//! > Jieying She, Yongxin Tong, Lei Chen, Caleb Chen Cao.
//! > *Conflict-Aware Event-Participant Arrangement.* ICDE 2015.
//!
//! Event-based social networks (Meetup, Groupon, …) must assign
//! participants to events such that events fill up, users get events they
//! care about, nobody exceeds their capacity — and **no user is assigned
//! two conflicting events** (overlapping time slots, venues too far
//! apart). Maximizing total interestingness under those constraints is
//! the NP-hard GEACC problem. This crate is the façade over the
//! workspace:
//!
//! - `geacc_core` (re-exported at the root and as [`core`]) — the
//!   problem model and the paper's five algorithms;
//! - `geacc_datagen` (as [`datagen`]) — Table II / Table III workload
//!   generators;
//! - `geacc_flow` (as [`flow`]) — the min-cost-flow substrate;
//! - `geacc_index` (as [`index`]) — attribute point storage, distance
//!   kernels and the scoped-thread parallel runtime.
//!
//! ## Which algorithm?
//!
//! | You have | Use |
//! |---|---|
//! | thousands of events/users, want speed *and* quality | [`algorithms::greedy()`] (`1/(1+max c_u)` guarantee; in practice the best of all, per the paper's and our experiments) |
//! | a moderate instance, want the stronger bound | [`algorithms::mincostflow()`] (`1/max c_u` guarantee) |
//! | ≤ a few dozen pairs, need the true optimum | [`algorithms::prune()`] (exact branch-and-bound) |
//! | an arrangement to improve | [`engine::refine_on`] (ALNS warm-started from it; `geacc improve`) |
//! | users arriving one by one | [`core::IncrementalArranger`], one `SetCapacity` mutation per arrival (see [`core::dynamic`]) |
//!
//! ## Example
//!
//! ```
//! use geacc::{Instance, SimilarityModel, ConflictGraph};
//! use geacc::algorithms::greedy;
//!
//! let mut b = Instance::builder(2, SimilarityModel::Euclidean { t: 10.0 });
//! let yoga = b.event(&[2.0, 8.0], 10);
//! let hike = b.event(&[9.0, 3.0], 5);
//! for i in 0..20 {
//!     b.user(&[(i % 10) as f64, (i % 7) as f64], 2);
//! }
//! // Same morning, opposite ends of town:
//! b.conflicts(ConflictGraph::from_pairs(2, [(yoga, hike)]));
//! let instance = b.build().unwrap();
//!
//! let plan = greedy(&instance);
//! assert!(plan.validate(&instance).is_empty());
//! println!("arranged {} pairs, total interest {:.2}", plan.len(), plan.max_sum());
//! ```

pub use geacc_core::model::ArrangementStats;
pub use geacc_core::{
    algorithms, engine, model, parallel, reduction, runtime, similarity, toy, Arrangement,
    ConflictGraph, ConflictPairOutOfRange, EventId, Instance, InstanceBuilder, InstanceError,
    SimMatrix, SimilarityModel, UserId, ValidationError, Violation,
};
pub use geacc_core::{
    BudgetMeter, CancelToken, FaultPlan, Outcome, SolveBudget, SolveStatus, SolverPipeline,
    StopReason,
};

/// The problem model and algorithms crate.
pub use geacc_core as core;
/// Workload generators (synthetic Table III, Meetup-like Table II).
pub use geacc_datagen as datagen;
/// Min-cost-flow substrate.
pub use geacc_flow as flow;
/// Attribute point storage, distance kernels and the parallel runtime.
pub use geacc_index as index;
