//! Structured event tracing for the d/streams runtime.
//!
//! The paper's central claims are *communication-shape* claims: the number
//! and kind of messages, collectives, and file operations a primitive
//! performs. This crate captures those shapes as a stream of typed events
//! with per-rank virtual-time timestamps, merged deterministically,
//! aggregated into an [`OpCounts`] summary, and written in two formats:
//! the full-fidelity `.dstrace.json` that tools read back
//! ([`Trace::to_events_json`] / [`Trace::from_events_json`]), and a
//! Chrome `trace_event` view of it for Perfetto ([`Trace::to_chrome_json`]),
//! which is an export only.
//!
//! The crate is a leaf: the `machine`, `pfs`, and `core` layers all emit
//! into a shared [`TraceSink`] carried by the machine configuration, and
//! pay exactly one branch per potential event when tracing is disabled.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
pub mod counts;
mod dstrace;
pub mod event;
pub mod json;
pub mod sink;

pub use counts::OpCounts;
pub use dstrace::TraceParseError;
pub use event::{
    CacheOutcome, CollOp, CollectiveRegime, Event, EventKind, FaultKind, IndependentRegime, PfsOp,
    QosLevel, ServeOp, ShedReason, StreamPhase,
};
pub use sink::{Trace, TraceSink};
