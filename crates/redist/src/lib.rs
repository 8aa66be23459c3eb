//! Distribution views and the two-phase redistribution planner.
//!
//! The paper's headline use case is reading a checkpoint written on one
//! machine shape into a program running on another: a 64-rank BLOCK file
//! opened by 8 ranks, or 7, or 13, possibly under a different
//! distribution entirely. This crate supplies the machinery:
//!
//! * [`RedistPlan`] — given the writer layout recovered from the file's
//!   self-describing header and the reader's target layout, computes the
//!   exact per-rank-pair transfer intervals of a two-phase read
//!   (conforming contiguous read, then in-memory shuffle), coalesced
//!   into a provably minimal schedule: no rank sends a byte it doesn't
//!   have to, and elements that stay put become memmoves, not messages.
//! * [`execute`] — runs a plan over the message layer with zero framing
//!   overhead, emitting `RedistShuttle` trace events whose byte counts
//!   equal the plan's analytic lower bound by construction.
//! * [`DistView`] — zero-copy segmented views over stream buffers, so
//!   redistribution and re-export never re-pack element data.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exec;
mod plan;
mod view;

pub use exec::{execute, ExecError};
pub use plan::{Interval, OwnerRun, RedistPlan, Transfer};
pub use view::{DistView, ViewError};

use dstreams_collections::{CollectionError, Layout};

/// A run of contiguous file-order elements that lands on one rank in
/// consecutive local slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Piece {
    /// First file-order element index.
    pub start: usize,
    /// Number of elements.
    pub len: usize,
    /// Local slot of the first element on its owner.
    pub slot: usize,
}

/// Build the redistribution plan for reading a record written under
/// `writer` into a machine of `nprocs` ranks that wants `target`
/// placement, given the record's file-order `sizes` (its size table).
///
/// Works on target *windows* — maximal runs of consecutive global ids
/// that one target rank holds at consecutive slots — never on a table
/// over all elements. Each writer rank's elements are walked one window
/// at a time, within the writer's current run of consecutive ids
/// ([`Pieces::local_run`]): [`Pieces::piece`] gives the window holding
/// the writer's next element. A window that ends inside the run holds
/// that many of the writer's elements, as in a walk over file runs; one
/// that reaches past it is counted in closed form
/// ([`Pieces::count_below`]), so a large window on another rank extends
/// the current [`OwnerRun`] in O(1) plus one sum over its sizes however
/// many writer runs it covers. Only the calling rank's own windows are
/// cut into the writer's runs.
///
/// Returns the plan plus the pieces `rank` owns, in file order.
///
/// [`Pieces::piece`]: dstreams_collections::Pieces::piece
/// [`Pieces::count_below`]: dstreams_collections::Pieces::count_below
/// [`Pieces::local_run`]: dstreams_collections::Pieces::local_run
pub fn plan_for_layouts(
    nprocs: usize,
    writer: &Layout,
    target: &Layout,
    sizes: &[u64],
    rank: usize,
) -> Result<(RedistPlan, Vec<Piece>), CollectionError> {
    debug_assert_eq!(writer.len(), target.len());
    debug_assert_eq!(sizes.len(), writer.len());
    let n = writer.len();
    let src = writer.pieces();
    let dst = target.pieces();
    let mut runs: Vec<OwnerRun> = Vec::new();
    let mut mine: Vec<Piece> = Vec::new();
    // File position of writer `w`'s element at local slot `pos`.
    let mut e = 0usize;
    for w in 0..writer.nprocs() {
        // Writer ranks past the one holding the last element own nothing:
        // a stored processor count, however large, costs no more.
        if e == n {
            break;
        }
        let count = src.count_below(w, n);
        let mut pos = 0;
        // The rest of the writer's current run of consecutive ids.
        let (mut gid, mut end) = (0, 0);
        while pos < count {
            if gid == end {
                let (first, len) = src.local_run(w, pos, count - pos)?;
                (gid, end) = (first, first + len);
            }
            let (owner, slot, wlen) = dst.piece(gid, n - gid)?;
            let inside = gid + wlen <= end;
            let len = if inside {
                wlen
            } else {
                src.count_below(w, gid + wlen) - pos
            };
            let bytes: u64 = sizes[e..e + len].iter().sum();
            match runs.last_mut() {
                Some(run) if run.owner == owner => {
                    run.len += len;
                    run.bytes += bytes;
                }
                _ => runs.push(OwnerRun {
                    start: e,
                    len,
                    owner,
                    bytes,
                }),
            }
            if owner == rank {
                let mut k = 0;
                while k < len {
                    let (first, rlen) = if inside {
                        (gid, len)
                    } else {
                        src.local_run(w, pos + k, len - k)?
                    };
                    let piece = Piece {
                        start: e + k,
                        len: rlen,
                        slot: slot + (first - gid),
                    };
                    match mine.last_mut() {
                        Some(p)
                            if p.start + p.len == piece.start && p.slot + p.len == piece.slot =>
                        {
                            p.len += rlen
                        }
                        _ => mine.push(piece),
                    }
                    k += rlen;
                }
            }
            gid = if inside { gid + wlen } else { end };
            e += len;
            pos += len;
        }
    }
    Ok((RedistPlan::from_runs(nprocs, runs), mine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::{Alignment, DistKind, Distribution};

    #[test]
    fn same_layout_plan_is_message_free() {
        // Writer and reader share shape and distribution: the plan must
        // degenerate to pure local retention.
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            let layout = Layout::dense(23, 4, kind).unwrap();
            let (sizes, _) = file_order(&layout);
            let (plan, _) = plan_for_layouts(4, &layout, &layout, &sizes, 0).unwrap();
            assert!(plan.is_identity(), "{kind:?} should need no messages");
            assert_eq!(plan.lower_bound(), 0);
        }
    }

    #[test]
    fn cross_shape_plan_conserves_every_byte() {
        let writer = Layout::dense(40, 5, DistKind::BlockCyclic(3)).unwrap();
        let target = Layout::dense(40, 3, DistKind::Block).unwrap();
        let (sizes, gids) = file_order(&writer);
        let (plan, _) = plan_for_layouts(3, &writer, &target, &sizes, 0).unwrap();
        // Every file entry appears in exactly one transfer, aimed at the
        // rank `target.owner` names.
        let mut seen = vec![0u32; sizes.len()];
        for t in plan.messages().iter().chain(plan.retained()) {
            for iv in &t.intervals {
                for e in iv.start..iv.start + iv.len {
                    seen[e] += 1;
                    assert_eq!(t.dst, target.owner(gids[e]).unwrap());
                }
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
        let msg_bytes: u64 = plan.messages().iter().map(|t| t.bytes).sum();
        assert_eq!(msg_bytes, plan.lower_bound());
    }

    #[test]
    fn strided_target_plan_places_like_place() {
        // A strided or offset target is placed from a per-rank table;
        // every file entry must land exactly where per-element `place`
        // puts it, in exactly one rank's pieces.
        let writer = Layout::dense(30, 4, DistKind::Cyclic).unwrap();
        for (kind, stride, offset) in [
            (DistKind::Block, 2, 1),
            (DistKind::Cyclic, 3, 0),
            (DistKind::BlockCyclic(4), 2, 5),
            (DistKind::BlockCyclic(2), 1, 4),
        ] {
            let dist = Distribution::new(stride * 30 + offset, 3, kind).unwrap();
            let target = Layout::new(30, dist, Alignment::affine(stride, offset).unwrap()).unwrap();
            let (sizes, gids) = file_order(&writer);
            let mut placed = vec![0u32; gids.len()];
            for rank in 0..3 {
                let (plan, pieces) = plan_for_layouts(3, &writer, &target, &sizes, rank).unwrap();
                for p in pieces {
                    for j in 0..p.len {
                        let e = p.start + j;
                        placed[e] += 1;
                        assert_eq!(
                            (rank, p.slot + j),
                            target.place(gids[e]).unwrap(),
                            "{kind:?} element {}",
                            gids[e]
                        );
                    }
                }
                let msg_bytes: u64 = plan.messages().iter().map(|t| t.bytes).sum();
                assert_eq!(msg_bytes, plan.lower_bound());
            }
            assert!(placed.iter().all(|&c| c == 1), "{kind:?}");
        }
    }

    /// File-order `(sizes, gids)` for a record of `1 + gid % 5`-byte
    /// elements written under `layout`.
    fn file_order(layout: &Layout) -> (Vec<u64>, Vec<usize>) {
        let gids: Vec<usize> = layout.file_order().collect();
        let sizes = gids.iter().map(|&gid| 1 + (gid % 5) as u64).collect();
        (sizes, gids)
    }
}
