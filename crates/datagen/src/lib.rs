//! # geacc-datagen
//!
//! Workload generators for the GEACC evaluation:
//!
//! - [`synthetic`] — the Table III synthetic generator (Uniform / Normal
//!   / Zipf attributes and capacities, conflict-ratio sampling), whose
//!   defaults are the paper's bold settings;
//! - [`meetup`] — a Meetup-like simulator of the Table II real datasets
//!   (tag-frequency attribute vectors for three cities), substituting for
//!   the proprietary crawl — see the module docs and DESIGN.md §4;
//! - [`temporal`] — schedule-derived conflicts (time intervals + venue
//!   travel, per Definition 3), for workloads with realistic
//!   interval-graph conflict structure;
//! - [`distributions`] — the underlying value distributions.
//!
//! Everything is seeded and reproducible: a config plus a seed fully
//! determines the instance.
//!
//! ```
//! use geacc_datagen::synthetic::SyntheticConfig;
//! use geacc_core::algorithms::greedy;
//!
//! let inst = SyntheticConfig {
//!     num_events: 10,
//!     num_users: 50,
//!     ..SyntheticConfig::default()
//! }
//! .generate();
//! let arrangement = greedy(&inst);
//! assert!(arrangement.validate(&inst).is_empty());
//! ```

pub mod distributions;
pub mod meetup;
pub mod synthetic;
pub mod temporal;

pub use distributions::{AttrDistribution, CapDistribution};
pub use meetup::{City, MeetupConfig};
pub use synthetic::SyntheticConfig;
pub use temporal::{TemporalConfig, TemporalInstance};
