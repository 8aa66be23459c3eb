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
/// Works on runs, never on a table over all elements: the writer's file
/// order comes as runs of consecutive global ids
/// ([`Layout::file_runs`]), the target splits each into pieces of one
/// owner and consecutive slots ([`Layout::pieces`]), and adjacent pieces
/// with one owner merge into the [`OwnerRun`]s the planner works on.
///
/// Returns the plan plus the pieces `rank` owns, in file order.
pub fn plan_for_layouts(
    nprocs: usize,
    writer: &Layout,
    target: &Layout,
    sizes: &[u64],
    rank: usize,
) -> Result<(RedistPlan, Vec<Piece>), CollectionError> {
    debug_assert_eq!(writer.len(), target.len());
    debug_assert_eq!(sizes.len(), writer.len());
    let pieces = target.pieces();
    let mut runs: Vec<OwnerRun> = Vec::new();
    let mut mine: Vec<Piece> = Vec::new();
    let mut e = 0usize;
    for (first, len) in writer.file_runs() {
        let mut done = 0;
        while done < len {
            let (owner, slot, plen) = pieces.piece(first + done, len - done)?;
            let bytes: u64 = sizes[e..e + plen].iter().sum();
            match runs.last_mut() {
                Some(run) if run.owner == owner => {
                    run.len += plen;
                    run.bytes += bytes;
                }
                _ => runs.push(OwnerRun {
                    start: e,
                    len: plen,
                    owner,
                    bytes,
                }),
            }
            if owner == rank {
                match mine.last_mut() {
                    Some(p) if p.start + p.len == e && p.slot + p.len == slot => p.len += plen,
                    _ => mine.push(Piece {
                        start: e,
                        len: plen,
                        slot,
                    }),
                }
            }
            e += plen;
            done += plen;
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
