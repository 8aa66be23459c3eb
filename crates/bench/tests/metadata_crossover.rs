//! `MetaPolicy::default()` claims to sit at the measured crossover of
//! the metadata ablation: gathering the size table to node 0 wins for
//! small collections, a separate parallel operation for large ones. If
//! the cost model moves the crossover out of the bracket, this fails.

use dstreams_bench::ablations::metadata;
use dstreams_core::{MetaMode, MetaPolicy};

const BELOW: usize = 4096;
const ABOVE: usize = 16384;

#[test]
fn default_small_threshold_sits_at_the_measured_metadata_crossover() {
    assert!(
        metadata(BELOW, MetaMode::Gathered) < metadata(BELOW, MetaMode::Parallel),
        "gathered metadata must be cheaper at {BELOW} elements"
    );
    assert!(
        metadata(ABOVE, MetaMode::Parallel) < metadata(ABOVE, MetaMode::Gathered),
        "parallel metadata must be cheaper at {ABOVE} elements"
    );
    let MetaPolicy::Auto { small_threshold } = MetaPolicy::default() else {
        panic!("the default policy must be adaptive");
    };
    assert!(
        (BELOW..=ABOVE).contains(&small_threshold),
        "small_threshold {small_threshold} lies outside the crossover bracket {BELOW}..={ABOVE}"
    );
}
