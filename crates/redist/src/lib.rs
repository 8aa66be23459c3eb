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
pub use plan::{Interval, RedistPlan, Transfer};
pub use view::{DistView, ViewError};

use dstreams_collections::{CollectionError, Layout};

/// Build the redistribution plan for reading a record written under
/// `writer` into a machine of `nprocs` ranks that wants `target`
/// placement, given the file-order element `sizes` and `global_ids`
/// (both exactly as recovered from the record's size table and writer
/// layout — i.e. `build_file_map` order).
///
/// Returns the plan plus, for each file-order entry, the `(rank,
/// local_slot)` the element must land in under `target`, placed in O(n)
/// for any target alignment ([`Layout::place_many`]).
pub fn plan_for_layouts(
    nprocs: usize,
    writer: &Layout,
    target: &Layout,
    sizes: &[u64],
    global_ids: &[usize],
) -> Result<(RedistPlan, Vec<(usize, usize)>), CollectionError> {
    debug_assert_eq!(writer.len(), target.len());
    debug_assert_eq!(sizes.len(), global_ids.len());
    let places = target.place_many(global_ids)?;
    let owners: Vec<usize> = places.iter().map(|&(rank, _)| rank).collect();
    Ok((RedistPlan::new(nprocs, sizes, &owners), places))
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
            let (sizes, gids) = file_order(&layout);
            let (plan, _) = plan_for_layouts(4, &layout, &layout, &sizes, &gids).unwrap();
            assert!(plan.is_identity(), "{kind:?} should need no messages");
            assert_eq!(plan.lower_bound(), 0);
        }
    }

    #[test]
    fn cross_shape_plan_conserves_every_byte() {
        let writer = Layout::dense(40, 5, DistKind::BlockCyclic(3)).unwrap();
        let target = Layout::dense(40, 3, DistKind::Block).unwrap();
        let (sizes, gids) = file_order(&writer);
        let (plan, places) = plan_for_layouts(3, &writer, &target, &sizes, &gids).unwrap();
        // Every file entry appears in exactly one transfer, aimed at the
        // rank `target.place` names.
        let mut seen = vec![0u32; sizes.len()];
        for t in plan.messages().iter().chain(plan.retained()) {
            for iv in &t.intervals {
                for e in iv.start..iv.start + iv.len {
                    seen[e] += 1;
                    assert_eq!(t.dst, places[e].0);
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
        // puts it.
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
            let (plan, places) = plan_for_layouts(3, &writer, &target, &sizes, &gids).unwrap();
            for (e, &gid) in gids.iter().enumerate() {
                assert_eq!(
                    places[e],
                    target.place(gid).unwrap(),
                    "{kind:?} element {gid}"
                );
            }
            let msg_bytes: u64 = plan.messages().iter().map(|t| t.bytes).sum();
            assert_eq!(msg_bytes, plan.lower_bound());
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
