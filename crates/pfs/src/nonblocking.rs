//! Nonblocking (split-collective) file operations.
//!
//! The begin-variants in this module are the PFS layer of the d/streams
//! asynchronous pipeline. Each one is its blocking twin's implementation
//! run with `begin` set: it performs **all coordination and the
//! physical byte transfer at submission** — the file image and the
//! per-rank logical PFS op indices come out byte-identical to the
//! blocking variant — and defers only the *disk-service cost* onto the
//! submitting rank's pending-async-op queue ([`NodeCtx::async_submit`]).
//! The returned [`IoHandle`] carries the completion virtual time;
//! retiring it with [`IoHandle::wait`] synchronizes the rank's clock
//! forward to that instant (a no-op when the rank's own progress already
//! passed it — the fully overlapped case).
//!
//! Fault composition (PR 2's `FaultPlan`):
//!
//! * **Transient** faults are retired at submission, exactly like the
//!   blocking path, so surviving ranks stay in lockstep for the
//!   collective's internal communication. For the independent
//!   [`FileHandle::write_at_begin`] the retry backoff is folded into the
//!   deferred cost instead of stalling the submitter — the retries
//!   happen "in the background".
//! * **Torn** writes behave as in the blocking path: the call reports
//!   success, only a prefix hits storage, full cost is charged.
//! * **Crash** (power-cut) faults are *deferred*: the rank persists the
//!   seeded prefix and keeps participating in the collective's
//!   coordination (so peers are not stranded mid-plan), then is marked
//!   dead; the `RankCrashed` outcome surfaces when the handle is
//!   waited. The collective's closing synchronization doubles as a
//!   crash-flag reduction, so *every* rank learns whether any peer's
//!   transfer was cut — [`IoHandle::peer_crashed`] is how the d/stream
//!   layer knows it must not seal the in-flight record, leaving the torn
//!   tail detectable by recovery.

use dstreams_machine::{AsyncOp, NodeCtx, VTime};

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::file::FileHandle;

/// Handle to an in-flight nonblocking PFS operation.
///
/// Produced by [`FileHandle::write_ordered_begin_summed`],
/// [`FileHandle::read_ordered_begin_summed`] and
/// [`FileHandle::write_at_begin`]. The physical transfer already
/// happened; what is pending is the deferred disk-service cost (and,
/// possibly, a deferred fault outcome). Handles on one rank complete in
/// submission order — the rank's async queue models one serial disk
/// service channel.
#[derive(Debug)]
pub struct IoHandle {
    op: AsyncOp,
    /// Fault outcome deferred to wait-time (a power-cut injected on the
    /// transfer: the rank is already marked dead).
    deferred: Option<PfsError>,
    /// Some rank's transfer was cut by a power-cut during this
    /// collective (writes only).
    peer_crashed: bool,
}

impl IoHandle {
    /// Assemble a handle for a begin-mode operation.
    pub(crate) fn new(op: AsyncOp, deferred: Option<PfsError>, peer_crashed: bool) -> Self {
        IoHandle {
            op,
            deferred,
            peer_crashed,
        }
    }

    /// Virtual time at which the deferred service cost completes.
    pub fn completion(&self) -> VTime {
        self.op.completion()
    }

    /// The deferred service cost.
    pub fn cost(&self) -> VTime {
        self.op.cost()
    }

    /// True when a power-cut fault fired on *some* rank (possibly this
    /// one) during the operation's physical transfer. A record whose
    /// data collective reports this must not be sealed: the unsealed
    /// tail is what keeps the crash detectable by recovery.
    pub fn peer_crashed(&self) -> bool {
        self.peer_crashed
    }

    /// Whether waiting will surface a deferred fault outcome.
    pub fn has_deferred_fault(&self) -> bool {
        self.deferred.is_some()
    }

    /// Retire the operation: synchronize this rank's clock forward to
    /// the completion virtual time and surface any deferred fault.
    pub fn wait(self, ctx: &NodeCtx) -> Result<(), PfsError> {
        ctx.async_complete(&self.op);
        match self.deferred {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl FileHandle {
    /// Nonblocking independent positioned write: the bytes land at
    /// submission, the service cost is deferred onto this rank's async
    /// queue. Transient failures, injected or from the real-disk
    /// backend, are retried with the backoff folded into the deferred
    /// cost; a power-cut persists the seeded prefix, marks the rank dead
    /// and defers `RankCrashed` to the returned handle.
    pub fn write_at_begin(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        data: &[u8],
    ) -> Result<IoHandle, PfsError> {
        let handle = self.write_at_impl(ctx, offset, data, Some(ctx))?;
        Ok(handle.expect("begin mode returns a handle"))
    }

    /// Nonblocking [`FileHandle::write_ordered_summed`]: collective
    /// node-order append whose coordination and physical writes happen at
    /// submission, with the parallel-operation cost deferred per rank.
    /// Returns this rank's block offset, every rank's block digest, and
    /// the in-flight handle. The closing synchronization is a crash-flag
    /// reduction instead of a bare barrier — see [`IoHandle::peer_crashed`].
    pub fn write_ordered_begin_summed(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
    ) -> Result<(u64, Vec<ChunkSum>, IoHandle), PfsError> {
        let (off, digests, handle) = self.write_ordered_impl(ctx, block, true, true)?;
        Ok((off, digests, handle.expect("begin mode returns a handle")))
    }

    /// Nonblocking [`FileHandle::read_ordered_summed`]: the bytes and
    /// digests are materialized at submission (they are only *promised*
    /// to the caller — consuming them before the handle is waited would
    /// be reading the future), with the parallel-operation cost deferred.
    /// A power-cut on entry defers the rank's death to the handle so the
    /// collective itself stays well-formed for the peers.
    pub fn read_ordered_begin_summed(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<u8>, Vec<ChunkSum>, IoHandle), PfsError> {
        let (buf, digests, handle) = self.read_ordered_impl(ctx, offset, len, true, true)?;
        Ok((buf, digests, handle.expect("begin mode returns a handle")))
    }
}

#[cfg(test)]
mod tests {
    use crate::pfs::{OpenMode, Pfs};
    use crate::DiskModel;
    use dstreams_machine::{Machine, MachineConfig, VTime};

    #[test]
    fn begin_variant_writes_the_same_bytes_as_blocking() {
        let run = |nonblocking: bool| {
            let pfs = Pfs::in_memory(3);
            let p = pfs.clone();
            Machine::run(MachineConfig::functional(3), move |ctx| {
                let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
                for round in 0..3u8 {
                    let block = vec![round * 10 + ctx.rank() as u8; ctx.rank() + 1];
                    if nonblocking {
                        let (off, digests, h) = fh.write_ordered_begin_summed(ctx, &block).unwrap();
                        assert_eq!(digests.len(), 3);
                        assert!(!h.peer_crashed());
                        let _ = off;
                        h.wait(ctx).unwrap();
                    } else {
                        fh.write_ordered(ctx, &block).unwrap();
                    }
                }
            })
            .unwrap();
            let p2 = pfs.clone();
            let size = pfs.file_size("f").unwrap() as usize;
            Machine::run(MachineConfig::functional(1), move |ctx| {
                let fh = p2.open(false, "f", OpenMode::Read).unwrap();
                let mut buf = vec![0u8; size];
                fh.read_at(ctx, 0, &mut buf).unwrap();
                buf
            })
            .unwrap()[0]
                .clone()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn deferred_cost_overlaps_with_compute() {
        // A rank that computes past the completion time stalls zero;
        // a rank that waits immediately stalls the full cost.
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(2, model, crate::Backend::Memory);
        let p = pfs.clone();
        let times = Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            let (_, _, h) = fh.write_ordered_begin_summed(ctx, &[1u8; 64]).unwrap();
            let submit_t = ctx.now();
            // Overlapped compute longer than the flush cost.
            ctx.advance(VTime::from_millis(50));
            let before_wait = ctx.now();
            h.wait(ctx).unwrap();
            (submit_t, before_wait, ctx.now())
        })
        .unwrap();
        for (submit_t, before_wait, after_wait) in times {
            assert!(submit_t + VTime::from_millis(10) <= before_wait);
            // Fully hidden: the wait was free.
            assert_eq!(before_wait, after_wait);
        }
    }

    #[test]
    fn wait_without_compute_pays_the_cost() {
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(1, model, crate::Backend::Memory);
        let p = pfs.clone();
        let times = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "f", OpenMode::Create).unwrap();
            let (_, _, h) = fh.write_ordered_begin_summed(ctx, &[1u8; 64]).unwrap();
            let t0 = ctx.now();
            let completion = h.completion();
            h.wait(ctx).unwrap();
            (t0, completion, ctx.now())
        })
        .unwrap();
        let (t0, completion, t1) = times[0];
        assert_eq!(t1, completion);
        assert!(t1.saturating_since(t0) >= VTime::from_millis(10));
    }

    #[test]
    fn queued_submissions_serialize_on_one_rank() {
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(10);
        let pfs = Pfs::new(1, model, crate::Backend::Memory);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "f", OpenMode::Create).unwrap();
            let (_, _, h1) = fh.write_ordered_begin_summed(ctx, &[1u8; 8]).unwrap();
            let (_, _, h2) = fh.write_ordered_begin_summed(ctx, &[2u8; 8]).unwrap();
            // One serial service channel: the second op starts only when
            // the first completes.
            assert!(h2.completion() >= h1.completion() + VTime::from_millis(10));
            assert_eq!(ctx.async_in_flight(), 2);
            h1.wait(ctx).unwrap();
            h2.wait(ctx).unwrap();
            assert_eq!(ctx.async_in_flight(), 0);
        })
        .unwrap();
    }

    #[test]
    fn read_begin_returns_the_promised_bytes() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, &[ctx.rank() as u8 + 1; 4]).unwrap();
            let (buf, digests, h) = fh
                .read_ordered_begin_summed(ctx, ctx.rank() as u64 * 4, 4)
                .unwrap();
            h.wait(ctx).unwrap();
            assert_eq!(buf, vec![ctx.rank() as u8 + 1; 4]);
            assert_eq!(digests.len(), 2);
        })
        .unwrap();
    }
}
