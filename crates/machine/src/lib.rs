//! # dstreams-machine — a simulated multicomputer
//!
//! This crate is the hardware substrate for the Rust reproduction of
//! *pC++/streams* (PPoPP 1995). The paper ran on the Intel Paragon, the
//! TMC CM-5 and the SGI Challenge; this crate replaces those machines with
//! a deterministic simulation:
//!
//! * one OS thread per **rank** (compute node), connected by a full mesh of
//!   message channels;
//! * LogP-style **cost models** for the interconnect and node memory system,
//!   with presets for the paper's three platforms;
//! * a per-rank **virtual clock**: communication and (in `dstreams-pfs`)
//!   file-system operations advance virtual time, so "seconds" in the
//!   reproduced tables are simulated platform seconds, reproducible on any
//!   host;
//! * the **collective operations** an I/O runtime needs: barrier,
//!   broadcast, gather, all-gather, all-to-all, all-reduce, and fused
//!   programs of [`Step`]s rooted at rank 0 ([`NodeCtx::program`]);
//! * [`SharedBuffer`] for the shared-memory (SGI Challenge) machine
//!   variant.
//!
//! ## Example
//!
//! ```
//! use dstreams_machine::{Machine, MachineConfig};
//!
//! let results = Machine::run(MachineConfig::paragon(4), |ctx| {
//!     // SPMD program: every rank runs this closure.
//!     let total = ctx.all_reduce(ctx.rank() as u64, |a, b| a + b).unwrap();
//!     ctx.barrier().unwrap();
//!     (total, ctx.now())
//! })
//! .unwrap();
//! assert!(results.iter().all(|(t, _)| *t == 6));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cell;
mod collectives;
pub mod config;
pub mod error;
pub mod fault;
pub mod machine;
pub mod message;
pub mod node;
pub mod shared;
pub mod time;
pub mod wire;

pub use collectives::{Gathered, Step};
pub use config::{CollectiveConfig, CpuModel, MachineConfig, MemoryModel, NetModel};
pub use error::MachineError;
pub use fault::{EdgeCut, FaultDecision, FaultPlan, FaultSpec, MsgFate, MsgFaultPlan};
pub use machine::Machine;
pub use message::{Tag, AGG_SHUTTLE_RETRY_BASE, AGG_SHUTTLE_TAG, REDIST_SHUTTLE_TAG};
pub use node::{AsyncOp, CollectiveScope, NodeCtx, RankIo};
pub use shared::SharedBuffer;
pub use time::{VTime, VirtualClock};
pub use wire::Wire;
