//! The unified solver engine: one problem representation, one
//! algorithm table, one dispatch path.
//!
//! Before this layer existed, every consumer built its own view of the
//! sim>0 bipartite graph (greedy walked lazily refilled similarity
//! streams, mincostflow densified rows, the exact search kept private
//! adjacency) and chose between plain and budgeted free functions by
//! hand. The engine factors that into three pieces:
//!
//! - [`CandidateGraph`] — a borrowed CSR of every positive-similarity
//!   `(event, user)` pair, with id-ascending rows, similarity-sorted
//!   rows, and similarity-sorted columns, built once per instance
//!   (optionally in parallel, bit-identically) and shared by every
//!   solver;
//! - [`Algorithm`][crate::algorithms::Algorithm] — the one table of
//!   every algorithm's name, stage key and spellings
//!   ([`Algorithm::parse`][crate::algorithms::Algorithm::parse]);
//! - [`solve_on`] / [`solve_instance`] — the single dispatch point, one
//!   `match` on the algorithm, that the pipeline, `geacc solve`, the
//!   bench harness, and the server all route through, with
//!   [`BudgetMeter::unlimited`][crate::runtime::BudgetMeter::unlimited]
//!   recovering the classic run-to-completion behavior bit-for-bit and
//!   per-solver timing accumulated in [`EngineStats`]. [`refine_on`] is
//!   the warm-started ALNS entry beside it.
//!
//! The differential suite `crates/core/tests/engine_equiv.rs` pins each
//! solver through this path to its historical entry point bit-for-bit
//! (arrangement and `MaxSum`) at 1 and 4 threads.

mod graph;
mod solver;
mod stats;

pub use graph::{CandidateGraph, GraphFlats, RegionStreams};
pub use solver::{refine_on, solve_instance, solve_on, SolveParams};
pub use stats::{EngineStats, SolverTiming};
