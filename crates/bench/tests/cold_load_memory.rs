//! Memory gate for a cold start, in requested bytes rather than RSS, so
//! the result does not depend on the host or its allocator.
//!
//! On a generated instance of 10 events × 20,000 users with d = 20
//! (`read_zipf`'s shape at a fifth of its users), the two places a load
//! used to hold extra copies of the attribute vectors:
//! - parsing the instance text must not need more than 2.5× the
//!   attribute bytes on top of the text (packed rows adopted by the
//!   instance, not one buffer per row plus a flat copy);
//! - cloning the loaded instance, as a session does for its base and a
//!   solve does for its pin, must allocate under a tenth of them (the
//!   attribute stores are shared, not copied).
//!
//! The test is alone in its binary: the allocator's counters are
//! process-wide.

use geacc_bench::alloc::{self, TrackingAllocator};
use geacc_core::{loader, Instance};
use geacc_datagen::SyntheticConfig;

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

#[test]
fn cold_load_holds_the_attribute_vectors_about_once() {
    let generated = SyntheticConfig {
        num_events: 10,
        num_users: 20_000,
        dim: 20,
        ..SyntheticConfig::default()
    }
    .generate();
    let text = serde_json::to_string(&generated).unwrap();
    let attr_bytes = (generated.num_events() + generated.num_users()) * generated.dim() * 8;
    drop(generated);

    let before = alloc::live_bytes();
    alloc::reset_peak();
    let loaded: Instance = loader::from_json_str("generated.json", &text).unwrap();
    let parse_ratio = (alloc::peak_bytes() - before) as f64 / attr_bytes as f64;

    let before = alloc::live_bytes();
    alloc::reset_peak();
    let copy = loaded.clone();
    let clone_ratio = (alloc::peak_bytes() - before) as f64 / attr_bytes as f64;
    drop(copy);

    eprintln!(
        "attribute bytes {attr_bytes}: parse peak {parse_ratio:.2}x, clone {clone_ratio:.3}x"
    );
    assert!(
        parse_ratio <= 2.5,
        "parsing peaked at {parse_ratio:.2}x the attribute bytes above the text"
    );
    assert!(
        clone_ratio < 0.1,
        "an instance clone allocated {clone_ratio:.3}x the attribute bytes"
    );
}
