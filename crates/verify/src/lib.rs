//! # dstreams-verify — protocol verification for d/streams
//!
//! The paper's correctness contract has two halves: the per-stream state
//! machine of Figure 2 (`open → (insert⁺ → write)* → close` and its
//! input/async duals) and the SPMD collective discipline ("all nodes
//! call write/read together"). This crate checks both:
//!
//! * [`model`] — a reference automaton of Fig. 2 plus an exhaustive
//!   enumerator that drives every op sequence up to a depth bound
//!   through both the reference and the real streams, asserting
//!   accept/reject parity and that every rejection is a typed error;
//! * [`analyze`] — a static analysis pass over deterministic traces
//!   (`dstreams-trace`) checking cross-rank collective matching,
//!   async submit/complete pairing, seal ordering, and divergence
//!   (hold-and-wait) hazards. The `dsverify` binary runs it on
//!   `.dstrace.json` files.
//! * [`hb`] — a happens-before engine (vector clocks in the
//!   FastTrack/Eraser tradition) powering a PFS interval race
//!   detector, HB-grounded cache/session coherence, and the
//!   `dsverify --diff` structural trace diff.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod hb;
pub mod model;

pub use analyze::{analyze, analyze_rules, Hazard, Report, Rule};
pub use hb::{diff_traces, DiffReport, EventRef, HbIndex, Witness};
pub use model::{check_istream_parity, check_ostream_parity, IStreamOp, OStreamOp, ParityReport};
