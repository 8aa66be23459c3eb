//! Bench harness of the paper reproduction: the `tables` binary and the
//! BENCH binaries under `src/bin`, the design ablations they report, and
//! the percentile helpers shared with perfbench.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod percentile;
