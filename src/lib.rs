//! # dstreams — Rust reproduction of pC++/streams (PPoPP 1995)
//!
//! Umbrella crate re-exporting the whole stack:
//!
//! * [`machine`] — simulated multicomputer (ranks, collectives, virtual time);
//! * [`pfs`] — parallel file system with calibrated platform cost models;
//! * [`collections`] — pC++-style distributed collections;
//! * [`core`] — the d/streams library itself;
//! * [`pipeline`] — asynchronous split-collective I/O (write-behind,
//!   read-ahead, deterministic compute/I-O overlap);
//! * [`redist`] — distribution views and the two-phase redistribution
//!   planner for cross-shape reads;
//! * [`scf`] — the SCF benchmark that regenerates the paper's tables;
//! * [`serve`] — the multi-tenant stream service: typestate sessions,
//!   admission control with QoS fairness, and the working-set read cache;
//! * [`trace`] — structured event tracing (Chrome trace export, op counts);
//! * [`unbounded`] — unbounded append streams: continuously sealed
//!   segments, tailing readers with snapshot isolation, byte-budget
//!   retention;
//! * [`verify`] — protocol verification: Fig. 2 model checking and the
//!   `dsverify` trace analyzer.
//!
//! See the repository README for a quickstart and `DESIGN.md` for the
//! system inventory.

#![forbid(unsafe_code)]

pub use dstreams_collections as collections;
pub use dstreams_core as core;
pub use dstreams_machine as machine;
pub use dstreams_pfs as pfs;
pub use dstreams_pipeline as pipeline;
pub use dstreams_redist as redist;
pub use dstreams_scf as scf;
pub use dstreams_serve as serve;
pub use dstreams_trace as trace;
pub use dstreams_unbounded as unbounded;
pub use dstreams_verify as verify;

/// Convenience prelude with the types most programs need.
pub mod prelude {
    pub use dstreams_collections::{Alignment, Collection, DistKind, Distribution, Layout};
    pub use dstreams_core::{
        IStream, LocalFile, MetaMode, MetaPolicy, OStream, ReadStrategy, StreamData, StreamError,
        StreamOptions,
    };
    pub use dstreams_machine::{Machine, MachineConfig, NodeCtx, VTime};
    pub use dstreams_pfs::{Backend, DiskModel, OpenMode, Pfs};
    pub use dstreams_redist::{DistView, RedistPlan};
}
