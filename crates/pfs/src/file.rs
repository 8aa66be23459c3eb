//! File objects and per-rank file handles.
//!
//! A [`FileHandle`] behaves like a POSIX descriptor: it has a private
//! position and supports independent reads/writes (each charged through the
//! cost model as a separate OS call — this is the "unbuffered I/O" path of
//! the paper's benchmark). It also provides the two *collective* operations
//! the Paragon/CM-5 parallel file systems offered and on which
//! pC++/streams is built:
//!
//! * [`FileHandle::write_ordered`] — every rank contributes one contiguous
//!   block; the blocks land in the file in **node order** in a single
//!   parallel operation;
//! * [`FileHandle::read_ordered`] — every rank reads one contiguous block
//!   in a single parallel operation.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dstreams_machine::wire::{frame_blocks, unframe_blocks, Reader};
use dstreams_machine::{
    AsyncOp, FaultDecision, Gathered, MachineError, NodeCtx, RankIo, Step, VTime,
};
use dstreams_trace::{CollectiveRegime, EventKind, FaultKind, IndependentRegime, PfsOp};

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::model::Regime;
use crate::nonblocking::IoHandle;
use crate::pfs::PfsShared;
use crate::storage::Storage;

/// A file stored in the parallel file system. Shared by all ranks.
#[derive(Debug)]
pub struct FileObj {
    pub(crate) name: String,
    pub(crate) storage: Storage,
    /// Shared append cursor for M_LOG-style access.
    pub(crate) log_cursor: AtomicU64,
}

impl FileObj {
    /// File name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current logical size in bytes.
    pub fn len(&self) -> u64 {
        self.storage.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A per-rank handle to an open PFS file.
///
/// Not `Send`: a handle belongs to the rank that opened it (its position is
/// rank-private state), exactly like a file descriptor in the benchmark's
/// unbuffered baseline.
pub struct FileHandle {
    pub(crate) pfs: Arc<PfsShared>,
    pub(crate) file: Arc<FileObj>,
    pub(crate) pos: Cell<u64>,
    /// Per-handle record counter for M_RECORD-style access.
    pub(crate) record_seq: Cell<u64>,
    /// Sticky flag set by an aggregated blocking collective write when a
    /// peer's transfer was cut by a power-cut; the stream layer polls it
    /// (via [`FileHandle::take_peer_crashed`]) to skip the commit seal.
    pub(crate) agg_peer_crash: Cell<bool>,
    /// Marker making the handle `!Send`/`!Sync`.
    pub(crate) _not_send: std::marker::PhantomData<*const ()>,
}

impl FileHandle {
    /// The underlying file object.
    pub fn file(&self) -> &Arc<FileObj> {
        &self.file
    }

    /// Current private position.
    pub fn pos(&self) -> u64 {
        self.pos.get()
    }

    /// Move the private position.
    pub fn seek(&self, pos: u64) {
        self.pos.set(pos);
    }

    /// Current file size.
    pub fn len(&self) -> u64 {
        self.file.len()
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.file.is_empty()
    }

    /// Consume the peer-crash flag left behind by an aggregated blocking
    /// collective write. True when some rank's transfer in the last such
    /// write was cut by a power-cut: the survivors completed the
    /// collective (the aggregation layer's closing crash-flag all-reduce
    /// replaces the bare barrier), but the record covering it must not be
    /// sealed — recovery truncates to the sealed prefix. Always false on
    /// the direct (non-aggregated) path, where a collective-write
    /// power-cut strands the peers with `PeerGone` instead.
    pub fn take_peer_crashed(&self) -> bool {
        self.agg_peer_crash.replace(false)
    }

    // ---- independent operations (the "unbuffered" path) -------------------

    /// Charge one independent operation: the service cost goes onto the
    /// clock now (`deferred == None`, blocking) or onto the rank's async
    /// queue together with the folded retry backoff (`Some((ctx,
    /// backoff))`, begin mode, where `ctx` is the rank's own context).
    /// Event, traffic and stats bookkeeping are the same either way.
    fn charge_independent<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        op: PfsOp,
        offset: u64,
        bytes: usize,
        deferred: Option<(&NodeCtx, VTime)>,
    ) -> Option<AsyncOp> {
        let traffic = &self.pfs.rank_traffic[ctx.rank()];
        let before = traffic.load(Ordering::Relaxed);
        // Working-set estimate: this file's bytes, mirrored on every rank
        // (symmetric SPMD workloads), flowing through the shared cache.
        let regime = self
            .pfs
            .model
            .independent_regime(self.file.len(), ctx.nprocs());
        let cost = self.pfs.model.independent_cost(bytes, regime, ctx.nprocs());
        let submitted = match deferred {
            Some((queue, backoff)) => Some(queue.async_submit(cost + backoff)),
            None => {
                ctx.advance(cost);
                None
            }
        };
        emit(ctx, || EventKind::PfsIndependent {
            op,
            file: self.file.name.clone(),
            offset,
            bytes: bytes as u64,
            regime: match regime {
                Regime::Cached => IndependentRegime::Cached,
                Regime::Disk => IndependentRegime::Disk,
            },
            cost_ns: cost.as_nanos(),
        });
        traffic.store(before + bytes as u64, Ordering::Relaxed);
        self.pfs
            .stats
            .independent_ops
            .fetch_add(1, Ordering::Relaxed);
        self.pfs
            .stats
            .independent_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
        if regime == Regime::Disk {
            self.pfs
                .stats
                .disk_regime_ops
                .fetch_add(1, Ordering::Relaxed);
        }
        submitted
    }

    // ---- fault injection and retry -----------------------------------------

    pub(crate) fn emit_fault<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        kind: FaultKind,
        op: u64,
        bytes_kept: u64,
    ) {
        emit(ctx, || EventKind::FaultInjected {
            kind,
            op_index: op,
            file: self.file.name.clone(),
            bytes_kept,
        });
    }

    /// Take one retry backoff pause and record the retry: on the clock
    /// now, or — given `fold` (begin mode) — added to the deferred cost,
    /// so the retries happen "in the background". Returns `false` when
    /// the policy's retry budget is exhausted.
    fn backoff_and_retry<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        op: u64,
        attempt: &mut u32,
        fold: Option<&mut VTime>,
    ) -> bool {
        let policy = self.pfs.retry;
        if *attempt >= policy.max_retries {
            return false;
        }
        let pause = policy.backoff(*attempt);
        match fold {
            Some(folded) => *folded += pause,
            None => ctx.advance(pause),
        }
        *attempt += 1;
        let next = *attempt;
        emit(ctx, || EventKind::PfsRetry {
            op_index: op,
            attempt: next,
            backoff_ns: pause.as_nanos(),
        });
        true
    }

    pub(crate) fn injected_transient(op: u64) -> PfsError {
        PfsError::io(
            std::io::ErrorKind::Interrupted,
            format!("injected transient pfs fault (op {op})"),
        )
    }

    pub(crate) fn check_alive<C: RankIo + ?Sized>(&self, ctx: &C) -> Result<(), PfsError> {
        if ctx.fault_is_dead() {
            return Err(MachineError::RankCrashed { rank: ctx.rank() }.into());
        }
        Ok(())
    }

    /// Power-cut a write: persist the seeded prefix and record the fault.
    /// The caller decides when the rank dies ([`rank_crashed`]).
    fn crash_prefix<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        op: u64,
        offset: u64,
        data: &[u8],
        keep: Option<usize>,
    ) {
        let k = keep.unwrap_or(0).min(data.len());
        if k > 0 {
            let _ = self
                .file
                .storage
                .write_at(offset, &data[..k], &self.file.name);
        }
        self.emit_fault(ctx, FaultKind::Crash, op, k as u64);
    }

    /// Consult the fault plan at the head of a collective operation,
    /// retiring injected transient failures through the retry policy
    /// *before* any communication (so surviving ranks stay in lockstep).
    /// The returned fate (`Proceed`/`Torn`/`Crash`) is applied at the
    /// physical-transfer step.
    pub(crate) fn collective_fate(
        &self,
        ctx: &NodeCtx,
        op: u64,
        write_len: Option<usize>,
    ) -> Result<FaultDecision, PfsError> {
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, write_len) {
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt, None) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                fate => return Ok(fate),
            }
        }
    }

    /// Head of a collective read: retire transients, and on a power-cut
    /// either die at once (blocking: this rank never joins the
    /// collective; peers block in the opening barrier and observe
    /// `PeerGone` when the thread unwinds) or keep participating with
    /// death deferred to the handle (`begin`). Returns whether this rank
    /// was power-cut.
    pub(crate) fn collective_read_entry(
        &self,
        ctx: &NodeCtx,
        op: u64,
        begin: bool,
    ) -> Result<bool, PfsError> {
        let my_crash = matches!(
            self.collective_fate(ctx, op, None)?,
            FaultDecision::Crash { .. }
        );
        if my_crash {
            self.emit_fault(ctx, FaultKind::Crash, op, 0);
            if !begin {
                return Err(rank_crashed(ctx));
            }
        }
        Ok(my_crash)
    }

    /// Independent write at the private position; advances the position.
    pub fn write(&self, ctx: &NodeCtx, data: &[u8]) -> Result<(), PfsError> {
        self.write_at(ctx, self.pos.get(), data)?;
        self.pos.set(self.pos.get() + data.len() as u64);
        Ok(())
    }

    /// Independent read at the private position; advances the position.
    pub fn read(&self, ctx: &NodeCtx, buf: &mut [u8]) -> Result<(), PfsError> {
        self.read_at(ctx, self.pos.get(), buf)?;
        self.pos.set(self.pos.get() + buf.len() as u64);
        Ok(())
    }

    /// Independent positioned write (does not move the private position).
    ///
    /// One logical PFS operation: transient failures (injected or from the
    /// real-disk backend) are retried with exponential virtual-time
    /// backoff under the PFS [`crate::RetryPolicy`].
    ///
    /// `ctx` is the rank the write is charged to: its own [`NodeCtx`],
    /// or the [`RankIo`] a replicated-local act runs with.
    pub fn write_at<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        offset: u64,
        data: &[u8],
    ) -> Result<(), PfsError> {
        self.write_at_impl(ctx, offset, data, None).map(drop)
    }

    /// The one implementation behind [`FileHandle::write_at`] and
    /// [`FileHandle::write_at_begin`]. The bytes land now either way;
    /// `begin` (the rank's own context, whose async queue takes the
    /// cost) only moves the service cost and the retry backoff onto the
    /// async queue and defers a power-cut's death to the handle.
    pub(crate) fn write_at_impl<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        offset: u64,
        data: &[u8],
        begin: Option<&NodeCtx>,
    ) -> Result<Option<IoHandle>, PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        let mut folded = VTime::ZERO;
        loop {
            self.check_alive(ctx)?;
            let keep = match ctx.fault_decision(op, attempt, Some(data.len())) {
                FaultDecision::Proceed => data.len(),
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    let fold = begin.is_some().then_some(&mut folded);
                    if self.backoff_and_retry(ctx, op, &mut attempt, fold) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                FaultDecision::Torn { keep } => {
                    // The call reports success but only a prefix hit
                    // storage — a write-back cache lost at power time.
                    // Full cost is charged: the node believed it wrote.
                    let keep = keep.min(data.len());
                    self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                    keep
                }
                FaultDecision::Crash { keep } => {
                    self.crash_prefix(ctx, op, offset, data, keep);
                    let crashed = rank_crashed(ctx);
                    let Some(queue) = begin else {
                        return Err(crashed);
                    };
                    // A dead disk serves nothing: zero deferred cost, the
                    // crash outcome rides the handle.
                    let submitted = queue.async_submit(VTime::ZERO);
                    return Ok(Some(IoHandle::new(submitted, Some(crashed), true)));
                }
            };
            let res = self
                .file
                .storage
                .write_at(offset, &data[..keep], &self.file.name);
            match res {
                Ok(()) => {
                    let submitted = self.charge_independent(
                        ctx,
                        PfsOp::Write,
                        offset,
                        data.len(),
                        begin.map(|queue| (queue, folded)),
                    );
                    return Ok(submitted.map(|op| IoHandle::new(op, None, false)));
                }
                Err(e)
                    if self.pfs.retry.is_transient(&e)
                        && self.backoff_and_retry(
                            ctx,
                            op,
                            &mut attempt,
                            begin.is_some().then_some(&mut folded),
                        ) =>
                {
                    continue;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Independent positioned read (does not move the private position).
    ///
    /// Like [`FileHandle::write_at`], one logical retry-wrapped PFS
    /// operation, charged to `ctx`.
    pub fn read_at<C: RankIo + ?Sized>(
        &self,
        ctx: &C,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<(), PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, None) {
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt, None) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                FaultDecision::Crash { .. } => {
                    self.emit_fault(ctx, FaultKind::Crash, op, 0);
                    return Err(rank_crashed(ctx));
                }
                // Torn applies to writes only; a read proceeds.
                FaultDecision::Proceed | FaultDecision::Torn { .. } => {
                    let res = self.file.storage.read_at(offset, buf, &self.file.name);
                    match res {
                        Ok(()) => {
                            self.charge_independent(ctx, PfsOp::Read, offset, buf.len(), None);
                            return Ok(());
                        }
                        Err(e)
                            if self.pfs.retry.is_transient(&e)
                                && self.backoff_and_retry(ctx, op, &mut attempt, None) =>
                        {
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    // ---- shared-file independent modes (Paragon NX M_LOG / M_RECORD) ------

    /// M_LOG-style shared append: an independent write at the file's
    /// shared log cursor, first-come-first-served across ranks. Like the
    /// real mode, the *order* of records from different ranks is whatever
    /// the I/O system observed — inherently nondeterministic; use it for
    /// logs where arrival order is acceptable. Returns the record's
    /// offset. Do not mix with collective appends on the same file.
    pub fn append_shared(&self, ctx: &NodeCtx, data: &[u8]) -> Result<u64, PfsError> {
        let off = self
            .file
            .log_cursor
            .fetch_add(data.len() as u64, Ordering::SeqCst);
        self.write_at(ctx, off, data)?;
        Ok(off)
    }

    /// M_RECORD-style access: every rank writes fixed-length records that
    /// land in round-robin node order — this rank's `k`-th record occupies
    /// slot `k * nprocs + rank`. Deterministic layout without any
    /// coordination (each rank tracks only its own sequence number).
    /// `data` must fit in `record_size`; shorter records are zero-padded.
    pub fn write_record(
        &self,
        ctx: &NodeCtx,
        record_size: usize,
        data: &[u8],
    ) -> Result<u64, PfsError> {
        if data.len() > record_size {
            return Err(PfsError::CollectiveMismatch(format!(
                "record of {} bytes exceeds the fixed record size {}",
                data.len(),
                record_size
            )));
        }
        let seq = self.record_seq.get();
        self.record_seq.set(seq + 1);
        let slot = seq * ctx.nprocs() as u64 + ctx.rank() as u64;
        let off = slot * record_size as u64;
        let mut padded = data.to_vec();
        padded.resize(record_size, 0);
        self.write_at(ctx, off, &padded)?;
        Ok(slot)
    }

    /// Read back one M_RECORD slot (any rank may read any slot).
    pub fn read_record(
        &self,
        ctx: &NodeCtx,
        record_size: usize,
        slot: u64,
    ) -> Result<Vec<u8>, PfsError> {
        let mut buf = vec![0u8; record_size];
        self.read_at(ctx, slot * record_size as u64, &mut buf)?;
        Ok(buf)
    }

    // ---- collective operations (the parallel-file-system path) ------------

    /// Collective node-order append. Every rank must call this with its own
    /// block (possibly empty); on return the file contains all blocks,
    /// appended after the previous end of file **in rank order**, and every
    /// rank knows the offset where *its* block landed.
    ///
    /// Cost: a single parallel operation covering all blocks — startup
    /// latency plus total-bytes over the (possibly knee'd) aggregate PFS
    /// bandwidth. All ranks leave with synchronized virtual clocks.
    pub fn write_ordered(&self, ctx: &NodeCtx, block: &[u8]) -> Result<u64, PfsError> {
        self.write_ordered_impl(ctx, block, false, false)
            .map(|(off, ..)| off)
    }

    /// [`FileHandle::write_ordered`] that additionally returns the
    /// combinable digest of **every** rank's block — every rank leaves
    /// knowing the per-rank checksums of the bytes the collective
    /// appended, in node order. The digests ride the size gather and plan
    /// broadcast the operation performs anyway, so the communication
    /// shape is identical to `write_ordered`. This is what the d/stream
    /// layer seals records with.
    pub fn write_ordered_summed(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
    ) -> Result<(u64, Vec<ChunkSum>), PfsError> {
        self.write_ordered_impl(ctx, block, false, true)
            .map(|(off, digests, _)| (off, digests))
    }

    /// The one implementation behind every collective write, blocking
    /// and begin ([`FileHandle::write_ordered_begin_summed`]), direct and
    /// aggregated. Unless `summed`, no rank hashes its block: the
    /// exchange carries [`ChunkSum::EMPTY`] in a frame of the same size,
    /// so messages, virtual cost and trace are those of the summed
    /// operation. `begin` changes only how the operation ends: the cost
    /// is submitted to the async queue instead of advancing the clock, a
    /// crash-flag all-reduce replaces the closing barrier, and a
    /// power-cut rank keeps participating, its death deferred to the
    /// returned handle.
    pub(crate) fn write_ordered_impl(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
        begin: bool,
        summed: bool,
    ) -> Result<WriteOutcome, PfsError> {
        if let Some(cc) = ctx.config().collective {
            return self.agg_write_ordered(ctx, cc, block, begin, summed);
        }
        // One logical PFS operation: its internal coordination (barriers,
        // size gather, plan broadcast) is plumbing, not API collectives.
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let fate = self.collective_fate(ctx, op, Some(block.len()))?;
        // Hashing charges no virtual time, so it may run before the
        // barrier and keep the barrier and plan exchange one rendezvous.
        let my_sum = if summed {
            ChunkSum::of(block)
        } else {
            ChunkSum::EMPTY
        };
        // Make prior independent writes globally visible and align
        // clocks, then exchange block sizes and digests; rank 0 supplies
        // the append base.
        let frame = size_digest_frame(block.len(), my_sum, &[]);
        let (base, frames) = self.exchange_write_plan(
            ctx,
            &[Step::Barrier, Step::Gather, Step::Plan, Step::Broadcast],
            frame,
        )?;
        let (sizes, digests, _) = decode_size_digests(&frames, false)?;
        check_my_size(ctx, &sizes, block.len())?;
        let my_off = base + sizes[..ctx.rank()].iter().sum::<u64>();
        let total: u64 = sizes.iter().sum();
        let max_block = sizes.iter().copied().max().unwrap_or(0);

        // Physical transfer — the step a write fault tears or cuts short.
        let mut my_crash = false;
        match fate {
            FaultDecision::Proceed | FaultDecision::Transient => {
                if !block.is_empty() {
                    self.file.storage.write_at(my_off, block, &self.file.name)?;
                }
            }
            FaultDecision::Torn { keep } => {
                let keep = keep.min(block.len());
                self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                self.file
                    .storage
                    .write_at(my_off, &block[..keep], &self.file.name)?;
            }
            FaultDecision::Crash { keep } => {
                // Power cut mid-collective: peers got the plan and wrote
                // their blocks; this rank persists a prefix. Blocking, it
                // dies before the closing barrier and peers waiting there
                // observe PeerGone when its thread unwinds — a clean
                // failure, not a hang. Begin, it stays in the collective
                // so peers finish coordination.
                self.crash_prefix(ctx, op, my_off, block, keep);
                if !begin {
                    return Err(rank_crashed(ctx));
                }
                my_crash = true;
            }
        }
        // Virtual cost of the single parallel operation.
        let cost = self
            .pfs
            .model
            .collective_cost(total, max_block, ctx.nprocs());
        let submitted = charge_collective(ctx, begin, my_crash, cost);
        self.record_collective(
            ctx,
            PfsOp::Write,
            (my_off, block.len() as u64),
            total,
            max_block,
            cost,
        );
        // Closing synchronization, all blocks visible before anyone
        // proceeds. Begin mode makes it a crash-flag reduction, so every
        // rank learns whether any peer's transfer was cut (an all-reduce
        // synchronizes at least as strongly as the bare barrier).
        let peer_crashed = if begin {
            ctx.all_reduce(my_crash as u64, |a, b| a | b)? != 0
        } else {
            ctx.barrier()?;
            false
        };
        let handle =
            submitted.map(|op| IoHandle::new(op, deferred_crash(ctx, my_crash), peer_crashed));
        Ok((my_off, digests, handle))
    }

    /// Collective parallel read: every rank reads `len` bytes at `offset`
    /// (both per-rank) in one parallel operation. Ranks may pass `len == 0`
    /// to participate without transferring data.
    pub fn read_ordered(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<Vec<u8>, PfsError> {
        self.read_ordered_impl(ctx, offset, len, false, false)
            .map(|(buf, ..)| buf)
    }

    /// [`FileHandle::read_ordered`] that additionally returns the
    /// combinable digest of the bytes **each** rank read, in node order.
    /// The digests ride the size exchange the operation performs anyway.
    /// When the per-rank spans tile a region contiguously, folding the
    /// digests left-to-right reproduces the digest of the whole region —
    /// how the d/stream layer verifies a record seal while reading.
    pub fn read_ordered_summed(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
    ) -> Result<(Vec<u8>, Vec<ChunkSum>), PfsError> {
        self.read_ordered_impl(ctx, offset, len, false, true)
            .map(|(buf, digests, _)| (buf, digests))
    }

    /// The one implementation behind every collective read; `begin` and
    /// `summed` as in [`FileHandle::write_ordered_impl`]. A read has no
    /// closing synchronization; a power-cut fires on entry (see
    /// [`FileHandle::collective_read_entry`]).
    pub(crate) fn read_ordered_impl(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
        begin: bool,
        summed: bool,
    ) -> Result<ReadOutcome, PfsError> {
        if let Some(cc) = ctx.config().collective {
            return self.agg_read_ordered(ctx, cc, offset, len, begin, summed);
        }
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let my_crash = self.collective_read_entry(ctx, op, begin)?;
        ctx.barrier()?;
        // Read first so the size exchange can carry the data digests; on a
        // failed read still participate (empty contribution), then surface
        // the error — abandoning the collective would strand the peers.
        let read_res = if len > 0 {
            self.file.storage.read_vec(offset, len, &self.file.name)
        } else {
            Ok(Vec::new())
        };
        let my_sum = match &read_res {
            Ok(buf) if summed => ChunkSum::of(buf),
            _ => ChunkSum::EMPTY,
        };
        // Everyone learns the collective's total and max block for costing,
        // and every rank's data digest for seal verification.
        let frames = ctx.all_gather(size_digest_frame(len, my_sum, &[]))?;
        let (sizes, digests, _) = decode_size_digests(&frames, false)?;
        let buf = read_res?;
        let total: u64 = sizes.iter().sum();
        let max_block = sizes.iter().copied().max().unwrap_or(0);

        let cost = self
            .pfs
            .model
            .collective_cost(total, max_block, ctx.nprocs());
        let submitted = charge_collective(ctx, begin, my_crash, cost);
        self.record_collective(
            ctx,
            PfsOp::Read,
            (offset, len as u64),
            total,
            max_block,
            cost,
        );
        let handle = submitted.map(|op| IoHandle::new(op, deferred_crash(ctx, my_crash), false));
        Ok((buf, digests, handle))
    }

    /// The plan exchange of a collective write, as the fused program
    /// `steps` (a gather, a plan and a broadcast, after a barrier for a
    /// direct write): gather every rank's fixed-size `frame` to root,
    /// which prepends the file's append base, and broadcast the plan
    /// back, all in one machine rendezvous. Returns the base and every
    /// rank's frame, in node order.
    pub(crate) fn exchange_write_plan(
        &self,
        ctx: &NodeCtx,
        steps: &[Step],
        frame: Vec<u8>,
    ) -> Result<(u64, Vec<Vec<u8>>), PfsError> {
        let frame_len = frame.len();
        // Runs once, on root or on the thread combining the rendezvous:
        // it only reads the frames and the shared file's length.
        let plan = |_, _: &dyn RankIo, frames: Gathered<'_>| {
            let base = self.file.len().to_le_bytes();
            let mut blocks = Vec::with_capacity(frames.len() + 1);
            blocks.push(&base[..]);
            for frame in frames.iter() {
                if frame.len() != frame_len {
                    return Err(MachineError::CollectiveMismatch(
                        "write plan: malformed size/digest frame".into(),
                    ));
                }
                blocks.push(frame);
            }
            Ok(frame_blocks(&blocks))
        };
        let plan = ctx.program(steps, frame, plan)?;
        let mut parts =
            unframe_blocks(&plan).map_err(|e| mismatch(&format!("write plan: malformed: {e}")))?;
        if parts.len() != ctx.nprocs() + 1 {
            return Err(mismatch("write plan: size mismatch"));
        }
        let base = Reader::parse(&parts.remove(0), Reader::u64)
            .map_err(|e| mismatch(&format!("write plan: malformed base: {e}")))?;
        Ok((base, parts))
    }

    /// Trace and account one collective transfer: this rank's
    /// `(offset, bytes)` span of a `total`-byte operation whose largest
    /// block (`knee_block`) decides the cache regime.
    pub(crate) fn record_collective(
        &self,
        ctx: &NodeCtx,
        op: PfsOp,
        (offset, bytes): (u64, u64),
        total: u64,
        knee_block: u64,
        cost: VTime,
    ) {
        ctx.emit_with(|| EventKind::PfsCollective {
            op,
            file: self.file.name.clone(),
            offset,
            bytes,
            total_bytes: total,
            share_bytes: total / ctx.nprocs() as u64,
            stripes: self.pfs.model.stripes_touched(offset, bytes),
            regime: if self.pfs.model.collective_knee(knee_block) {
                CollectiveRegime::CacheKnee
            } else {
                CollectiveRegime::Streaming
            },
            cost_ns: cost.as_nanos(),
        });
        // Traffic is shared by the whole machine; attribute an even share
        // per rank so the cache-occupancy estimate stays rank-local.
        let share = total / ctx.nprocs() as u64;
        self.pfs.rank_traffic[ctx.rank()].fetch_add(share, Ordering::Relaxed);
        self.pfs
            .stats
            .collective_ops
            .fetch_add(1, Ordering::Relaxed);
        self.pfs
            .stats
            .collective_bytes
            .fetch_add(total / ctx.nprocs().max(1) as u64, Ordering::Relaxed);
    }
}

/// What a collective write hands back: this rank's block offset, every
/// rank's block digest, and the deferred-cost handle in begin mode.
pub(crate) type WriteOutcome = (u64, Vec<ChunkSum>, Option<IoHandle>);

/// What a collective read hands back: this rank's bytes, every rank's
/// digest of the bytes it read, and the deferred-cost handle in begin mode.
pub(crate) type ReadOutcome = (Vec<u8>, Vec<ChunkSum>, Option<IoHandle>);

fn mismatch(what: &str) -> PfsError {
    PfsError::CollectiveMismatch(what.into())
}

/// One rank's entry in a collective's size/digest exchange: its byte
/// count and the digest of those bytes, then `extra` trailing bytes.
pub(crate) fn size_digest_frame(len: usize, sum: ChunkSum, extra: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(24 + extra.len());
    frame.extend_from_slice(&(len as u64).to_le_bytes());
    frame.extend_from_slice(&sum.hash().to_le_bytes());
    frame.extend_from_slice(&sum.rpow().to_le_bytes());
    frame.extend_from_slice(extra);
    frame
}

/// Per-rank sizes, digests and crash flags of a size/digest exchange.
pub(crate) type SizeDigests = (Vec<u64>, Vec<ChunkSum>, Vec<bool>);

/// Decode every rank's [`size_digest_frame`], each with one trailing
/// crash-flag byte when `flagged`: the per-rank sizes, digests and
/// (when `flagged`) crash flags, in node order.
pub(crate) fn decode_size_digests(
    frames: &[Vec<u8>],
    flagged: bool,
) -> Result<SizeDigests, PfsError> {
    let mut sizes = Vec::with_capacity(frames.len());
    let mut digests = Vec::with_capacity(frames.len());
    let mut crashed = Vec::new();
    for frame in frames {
        Reader::parse(frame, |r| {
            sizes.push(r.u64()?);
            digests.push(ChunkSum::from_parts(r.u64()?, r.u64()?));
            if flagged {
                crashed.push(r.u8()? != 0);
            }
            Ok(())
        })
        .map_err(|e| mismatch(&format!("malformed size/digest frame: {e}")))?;
    }
    Ok((sizes, digests, crashed))
}

/// A collective write's plan must give this rank the size it sent.
pub(crate) fn check_my_size(ctx: &NodeCtx, sizes: &[u64], len: usize) -> Result<(), PfsError> {
    if sizes[ctx.rank()] != len as u64 {
        return Err(mismatch("write plan: my block size desynchronized"));
    }
    Ok(())
}

/// Charge a collective's service cost: onto the clock now (blocking) or
/// onto the rank's async queue (`begin`). A power-cut rank's dead disk
/// serves nothing.
pub(crate) fn charge_collective(
    ctx: &NodeCtx,
    begin: bool,
    my_crash: bool,
    cost: VTime,
) -> Option<AsyncOp> {
    let cost = if my_crash { VTime::ZERO } else { cost };
    if begin {
        Some(ctx.async_submit(cost))
    } else {
        ctx.advance(cost);
        None
    }
}

/// Mark this rank dead and return the error a crashed rank surfaces.
/// Record the event `kind` builds on `ctx`'s trace, building it only
/// when the run is traced.
fn emit<C: RankIo + ?Sized>(ctx: &C, kind: impl FnOnce() -> EventKind) {
    if ctx.tracing() {
        ctx.emit(kind());
    }
}

pub(crate) fn rank_crashed<C: RankIo + ?Sized>(ctx: &C) -> PfsError {
    ctx.fault_mark_dead();
    MachineError::RankCrashed { rank: ctx.rank() }.into()
}

/// The deferred outcome of a begin-mode collective: a power-cut rank
/// dies now and surfaces `RankCrashed` when its handle is waited.
pub(crate) fn deferred_crash(ctx: &NodeCtx, my_crash: bool) -> Option<PfsError> {
    my_crash.then(|| rank_crashed(ctx))
}

/// Aggregate operation counters for a PFS instance.
#[derive(Debug, Default)]
pub struct Stats {
    /// Number of independent (per-rank) operations issued.
    pub independent_ops: AtomicU64,
    /// Bytes moved by independent operations.
    pub independent_bytes: AtomicU64,
    /// Independent ops that fell into the disk (post-knee) regime.
    pub disk_regime_ops: AtomicU64,
    /// Number of collective operations (each counted once per rank / nprocs).
    pub collective_ops: AtomicU64,
    /// Bytes moved by collective operations (total across ranks).
    pub collective_bytes: AtomicU64,
}

/// A point-in-time copy of [`Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Independent operations issued.
    pub independent_ops: u64,
    /// Bytes moved by independent operations.
    pub independent_bytes: u64,
    /// Independent ops in the disk regime.
    pub disk_regime_ops: u64,
    /// Collective operations issued (rank-calls).
    pub collective_ops: u64,
    /// Bytes moved by collective operations.
    pub collective_bytes: u64,
}

impl Stats {
    /// Snapshot the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            independent_ops: self.independent_ops.load(Ordering::Relaxed),
            independent_bytes: self.independent_bytes.load(Ordering::Relaxed),
            disk_regime_ops: self.disk_regime_ops.load(Ordering::Relaxed),
            collective_ops: self.collective_ops.load(Ordering::Relaxed),
            collective_bytes: self.collective_bytes.load(Ordering::Relaxed),
        }
    }
}

/// The virtual-time cost charged so far is observable through `NodeCtx`;
/// this helper reports a duration in seconds for table output.
pub fn secs(t: VTime) -> f64 {
    t.as_secs_f64()
}
