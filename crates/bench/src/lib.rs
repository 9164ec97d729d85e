//! # geacc-bench
//!
//! The experiment harness regenerating every table and figure of the
//! GEACC paper's evaluation (Section V). Binaries:
//!
//! | Binary | What it regenerates |
//! |---|---|
//! | `fig3` | Fig. 3 — cardinality (`\|V\|`, `\|U\|`), dimensionality, conflict-set sweeps |
//! | `fig4` | Fig. 4 — capacity sweeps, distribution variants, real (Meetup-sim) data |
//! | `fig5` | Fig. 5 — Greedy scalability, approximate-vs-exact effectiveness |
//! | `fig6` | Fig. 6 — pruning effectiveness of Prune-GEACC |
//! | `replication` | replica lag, failover and unattended-failover MTTR (`BENCH_replication.json`) |
//!
//! Each figure binary prints aligned text tables (one per panel: MaxSum,
//! running time, memory) and writes CSV into `results/`.
//!
//! Measurement notes: times are wall-clock medians over `repeats` runs;
//! memory is the peak live-bytes of the algorithm's *working set*
//! (allocations beyond the input instance), captured by
//! [`alloc::TrackingAllocator`] — the paper likewise reports memory net
//! of input data in its scalability study.

pub mod alloc;
pub mod cli;
pub mod runner;
pub mod sweep;
pub mod table;

pub use runner::{measure, measure_with, Measurement};
pub use table::{write_csv, Series};
