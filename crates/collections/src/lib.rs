//! # dstreams-collections — the pC++ object-parallel layer
//!
//! pC++ extends C++ with *collections*: distributed arrays of arbitrary
//! objects, with HPF-style `Distribution` and `Align` placement, over which
//! functions are applied concurrently ("object parallelism"). This crate
//! reproduces the part of that runtime the I/O library depends on:
//!
//! * [`Distribution`] — BLOCK / CYCLIC / BLOCK-CYCLIC placement of a
//!   template over processors, with owner and local-index arithmetic;
//! * [`Alignment`] — affine alignment of collection indices onto the
//!   template (`ALIGN(dummy[i], d[stride*i + offset])`);
//! * [`Layout`] — distribution + alignment + length, including the
//!   [`LayoutDescriptor`] image stored in d/stream file headers;
//! * [`Collection`] — one rank's local elements plus object-parallel
//!   `apply`, reductions, and a gather-to-root debugging aid.
//!
//! Elements may be of *variable size* (e.g. particle lists of differing
//! lengths) — the situation pC++/streams was designed for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod collection;
pub mod distribution;
pub mod error;
pub mod grid;
pub mod layout;

pub use alignment::Alignment;
pub use collection::Collection;
pub use distribution::{
    composed_local_cells, composed_place, Axis, Composed2d, DistKind, Distribution,
};
pub use error::CollectionError;
pub use grid::{Grid2d, GridRow, RowHalo, RunHalo};
pub use layout::{Layout, LayoutDescriptor, Pieces};
