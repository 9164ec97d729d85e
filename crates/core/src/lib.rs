//! # geacc-core
//!
//! The GEACC problem model and arrangement algorithms — a faithful Rust
//! implementation of:
//!
//! > She, Tong, Chen, Cao. *Conflict-Aware Event-Participant
//! > Arrangement.* ICDE 2015.
//!
//! **GEACC** (Global Event-participant Arrangement with Conflict and
//! Capacity): given events with capacities, users with capacities, a set
//! of conflicting event pairs, and an interestingness function
//! `sim ∈ [0, 1]`, find the assignment of users to events maximizing the
//! total interestingness (`MaxSum`) such that capacities hold, matched
//! pairs have positive similarity, and no user attends two conflicting
//! events. The problem is NP-hard (reduction from max-flow with conflict
//! graph), so the paper — and this crate — ships two approximation
//! algorithms with guarantees and an exact branch-and-bound:
//!
//! - [`algorithms::greedy()`] — Greedy-GEACC, `1/(1 + max c_u)`-approx,
//!   near-linear in practice, the algorithm of choice at scale;
//! - [`algorithms::mincostflow()`] — MinCostFlow-GEACC, `1/max c_u`-approx
//!   via a min-cost-flow relaxation plus conflict repair;
//! - [`algorithms::prune()`] — Prune-GEACC, exact, with the Lemma 6 bound;
//! - [`algorithms::exhaustive`], [`algorithms::random_v`],
//!   [`algorithms::random_u`] — the paper's evaluation comparators.
//!
//! Extensions beyond the paper (each marked as such in its module docs):
//! [`algorithms::exact_dp`] (deterministic exact DP, exponential in `|V|`
//! only), [`alns`] (anytime large-neighborhood search, which also
//! improves a given arrangement through [`engine::refine_on`]),
//! [`dynamic`] (a standing arrangement under mutations — users arriving
//! one by one included), and [`algorithms::bounds`] (optimality-gap
//! certificates). The NP-hardness reduction of Theorem 1 is executable
//! in [`reduction`].
//!
//! ## Quick start
//!
//! ```
//! use geacc_core::{Instance, similarity::SimilarityModel, ConflictGraph, EventId};
//! use geacc_core::algorithms::{greedy, prune};
//!
//! // Two Sunday events that overlap in time, three sports fans.
//! let mut b = Instance::builder(2, SimilarityModel::Euclidean { t: 10.0 });
//! let hike = b.event(&[9.0, 2.0], 2); // capacity 2
//! let ball = b.event(&[8.0, 6.0], 1);
//! b.user(&[9.0, 3.0], 1);
//! b.user(&[7.0, 6.0], 1);
//! b.user(&[8.0, 4.0], 1);
//! b.conflicts(ConflictGraph::from_pairs(2, [(hike, ball)]));
//! let instance = b.build().unwrap();
//!
//! let arrangement = greedy(&instance);
//! assert!(arrangement.validate(&instance).is_empty());
//! // On an instance this small the exact optimum is affordable:
//! let best = prune(&instance).arrangement;
//! assert!(best.max_sum() >= arrangement.max_sum());
//! ```

pub mod algorithms;
pub mod alns;
pub mod dynamic;
pub mod engine;
pub mod loader;
pub mod model;
pub mod parallel;
pub mod reduction;
pub mod runtime;
pub mod similarity;
pub mod toy;

pub use alns::{alns_on, AlnsConfig, AlnsState, AlnsStats};
pub use dynamic::{
    DynamicConfig, IncrementalArranger, Mutation, MutationError, RepairReport, Side,
};
pub use engine::{CandidateGraph, EngineStats, GraphFlats, SolveParams};
pub use loader::LoadError;
pub use model::arrangement::{Arrangement, Violation};
pub use model::conflict::{ConflictGraph, ConflictPairOutOfRange};
pub use model::ids::{EventId, UserId};
pub use model::instance::{Instance, InstanceBuilder, InstanceError, ValidationError};
pub use runtime::{
    BudgetMeter, CancelToken, FaultPlan, Outcome, SolveBudget, SolveStatus, SolverPipeline,
    StopReason,
};
pub use similarity::{SimMatrix, SimilarityModel};
