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

use dstreams_machine::wire::{frame_blocks, unframe_blocks};
use dstreams_machine::{FaultDecision, MachineError, NodeCtx, VTime};
use dstreams_trace::{CollectiveRegime, EventKind, FaultKind, IndependentRegime, PfsOp};
use parking_lot::Mutex;

use crate::checksum::ChunkSum;
use crate::error::PfsError;
use crate::model::Regime;
use crate::pfs::PfsShared;
use crate::storage::Storage;

/// A file stored in the parallel file system. Shared by all ranks.
#[derive(Debug)]
pub struct FileObj {
    pub(crate) name: String,
    pub(crate) storage: Mutex<Storage>,
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
        self.storage.lock().len()
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

    fn charge_independent(&self, ctx: &NodeCtx, op: PfsOp, offset: u64, bytes: usize) {
        let traffic = &self.pfs.rank_traffic[ctx.rank()];
        let before = traffic.load(Ordering::Relaxed);
        // Working-set estimate: this file's bytes, mirrored on every rank
        // (symmetric SPMD workloads), flowing through the shared cache.
        let regime = self
            .pfs
            .model
            .independent_regime(self.file.len(), ctx.nprocs());
        let cost = self.pfs.model.independent_cost(bytes, regime, ctx.nprocs());
        ctx.advance(cost);
        ctx.emit_with(|| EventKind::PfsIndependent {
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
    }

    // ---- fault injection and retry -----------------------------------------

    pub(crate) fn emit_fault(&self, ctx: &NodeCtx, kind: FaultKind, op: u64, bytes_kept: u64) {
        ctx.emit_with(|| EventKind::FaultInjected {
            kind,
            op_index: op,
            file: self.file.name.clone(),
            bytes_kept,
        });
    }

    /// Charge one virtual-time backoff pause and record the retry.
    /// Returns `false` when the policy's retry budget is exhausted.
    fn backoff_and_retry(&self, ctx: &NodeCtx, op: u64, attempt: &mut u32) -> bool {
        let policy = self.pfs.retry;
        if *attempt >= policy.max_retries {
            return false;
        }
        let pause = policy.backoff(*attempt);
        ctx.advance(pause);
        *attempt += 1;
        let next = *attempt;
        ctx.emit_with(|| EventKind::PfsRetry {
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

    pub(crate) fn check_alive(&self, ctx: &NodeCtx) -> Result<(), PfsError> {
        if ctx.fault_is_dead() {
            return Err(MachineError::RankCrashed { rank: ctx.rank() }.into());
        }
        Ok(())
    }

    /// Power-cut a write: persist the seeded prefix, record the fault,
    /// mark the rank dead and surface the crash to the caller. Peers
    /// observe `PeerGone` when this rank's thread unwinds.
    fn crash_write(
        &self,
        ctx: &NodeCtx,
        op: u64,
        offset: u64,
        data: &[u8],
        keep: Option<usize>,
    ) -> PfsError {
        let k = keep.unwrap_or(0).min(data.len());
        if k > 0 {
            let _ = self
                .file
                .storage
                .lock()
                .write_at(offset, &data[..k], &self.file.name);
        }
        self.emit_fault(ctx, FaultKind::Crash, op, k as u64);
        ctx.fault_mark_dead();
        MachineError::RankCrashed { rank: ctx.rank() }.into()
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
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                fate => return Ok(fate),
            }
        }
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
    pub fn write_at(&self, ctx: &NodeCtx, offset: u64, data: &[u8]) -> Result<(), PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, Some(data.len())) {
                FaultDecision::Proceed => {
                    let res = self
                        .file
                        .storage
                        .lock()
                        .write_at(offset, data, &self.file.name);
                    match res {
                        Ok(()) => {
                            self.charge_independent(ctx, PfsOp::Write, offset, data.len());
                            return Ok(());
                        }
                        Err(e)
                            if self.pfs.retry.is_transient(&e)
                                && self.backoff_and_retry(ctx, op, &mut attempt) =>
                        {
                            continue;
                        }
                        Err(e) => return Err(e),
                    }
                }
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
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
                    self.file
                        .storage
                        .lock()
                        .write_at(offset, &data[..keep], &self.file.name)?;
                    self.charge_independent(ctx, PfsOp::Write, offset, data.len());
                    return Ok(());
                }
                FaultDecision::Crash { keep } => {
                    return Err(self.crash_write(ctx, op, offset, data, keep));
                }
            }
        }
    }

    /// Independent positioned read (does not move the private position).
    ///
    /// Like [`FileHandle::write_at`], one logical retry-wrapped PFS
    /// operation.
    pub fn read_at(&self, ctx: &NodeCtx, offset: u64, buf: &mut [u8]) -> Result<(), PfsError> {
        let op = ctx.next_pfs_op();
        let mut attempt = 0u32;
        loop {
            self.check_alive(ctx)?;
            match ctx.fault_decision(op, attempt, None) {
                FaultDecision::Transient => {
                    self.emit_fault(ctx, FaultKind::Transient, op, 0);
                    if self.backoff_and_retry(ctx, op, &mut attempt) {
                        continue;
                    }
                    return Err(Self::injected_transient(op));
                }
                FaultDecision::Crash { .. } => {
                    self.emit_fault(ctx, FaultKind::Crash, op, 0);
                    ctx.fault_mark_dead();
                    return Err(MachineError::RankCrashed { rank: ctx.rank() }.into());
                }
                // Torn applies to writes only; a read proceeds.
                FaultDecision::Proceed | FaultDecision::Torn { .. } => {
                    let res = self
                        .file
                        .storage
                        .lock()
                        .read_at(offset, buf, &self.file.name);
                    match res {
                        Ok(()) => {
                            self.charge_independent(ctx, PfsOp::Read, offset, buf.len());
                            return Ok(());
                        }
                        Err(e)
                            if self.pfs.retry.is_transient(&e)
                                && self.backoff_and_retry(ctx, op, &mut attempt) =>
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
        self.write_ordered_impl(ctx, block, false)
            .map(|(off, _)| off)
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
        self.write_ordered_impl(ctx, block, true)
    }

    /// The one implementation behind both blocking collective writes.
    /// Unless `summed`, no rank hashes its block: the exchange carries
    /// [`ChunkSum::EMPTY`] in a frame of the same size, so messages,
    /// virtual cost and trace are those of the summed operation.
    fn write_ordered_impl(
        &self,
        ctx: &NodeCtx,
        block: &[u8],
        summed: bool,
    ) -> Result<(u64, Vec<ChunkSum>), PfsError> {
        if let Some(cc) = ctx.config().collective {
            let (off, digests, _handle) = self.agg_write_ordered(ctx, cc, block, false, summed)?;
            return Ok((off, digests));
        }
        // One logical PFS operation: its internal coordination (barriers,
        // size gather, plan broadcast) is plumbing, not API collectives.
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        let fate = self.collective_fate(ctx, op, Some(block.len()))?;
        // Make prior independent writes globally visible and align clocks.
        ctx.barrier()?;
        // Exchange block sizes and digests; rank 0 supplies the append base.
        let my_sum = if summed {
            ChunkSum::of(block)
        } else {
            ChunkSum::EMPTY
        };
        let mut contrib = Vec::with_capacity(24);
        contrib.extend_from_slice(&(block.len() as u64).to_le_bytes());
        contrib.extend_from_slice(&my_sum.hash().to_le_bytes());
        contrib.extend_from_slice(&my_sum.rpow().to_le_bytes());
        let gathered = ctx.gather(0, contrib)?;
        let plan = if ctx.is_root() {
            let frames = gathered.expect("root gathers");
            let base = self.file.len();
            let mut blocks = Vec::with_capacity(frames.len() + 1);
            blocks.push(base.to_le_bytes().to_vec());
            for frame in &frames {
                if frame.len() != 24 {
                    return Err(PfsError::CollectiveMismatch(
                        "write_ordered: malformed size/digest frame".into(),
                    ));
                }
                blocks.push(frame.clone());
            }
            frame_blocks(&blocks)
        } else {
            Vec::new()
        };
        let plan = ctx.broadcast(0, plan)?;
        let parts = unframe_blocks(&plan)
            .ok_or_else(|| PfsError::CollectiveMismatch("write_ordered: malformed plan".into()))?;
        if parts.len() != ctx.nprocs() + 1 {
            return Err(PfsError::CollectiveMismatch(
                "write_ordered: plan size mismatch".into(),
            ));
        }
        let base = decode_u64(&parts[0], "write_ordered plan base")?;
        let mut sizes = Vec::with_capacity(ctx.nprocs());
        let mut digests = Vec::with_capacity(ctx.nprocs());
        for frame in &parts[1..] {
            if frame.len() != 24 {
                return Err(PfsError::CollectiveMismatch(
                    "write_ordered: malformed plan frame".into(),
                ));
            }
            sizes.push(decode_u64(&frame[..8], "write_ordered plan size")?);
            digests.push(ChunkSum::from_parts(
                decode_u64(&frame[8..16], "write_ordered plan digest hash")?,
                decode_u64(&frame[16..24], "write_ordered plan digest rpow")?,
            ));
        }
        if sizes[ctx.rank()] != block.len() as u64 {
            return Err(PfsError::CollectiveMismatch(
                "write_ordered: my block size desynchronized".into(),
            ));
        }
        let my_off = base + sizes[..ctx.rank()].iter().sum::<u64>();
        let total: u64 = sizes.iter().sum();
        let max_block = sizes.iter().copied().max().unwrap_or(0);

        // Physical transfer — the step a write fault tears or cuts short.
        match fate {
            FaultDecision::Proceed | FaultDecision::Transient => {
                if !block.is_empty() {
                    self.file
                        .storage
                        .lock()
                        .write_at(my_off, block, &self.file.name)?;
                }
            }
            FaultDecision::Torn { keep } => {
                let keep = keep.min(block.len());
                self.emit_fault(ctx, FaultKind::Torn, op, keep as u64);
                self.file
                    .storage
                    .lock()
                    .write_at(my_off, &block[..keep], &self.file.name)?;
            }
            FaultDecision::Crash { keep } => {
                // Power cut mid-collective: peers got the plan and wrote
                // their blocks; this rank persists a prefix and dies
                // before the closing barrier. Peers waiting there observe
                // PeerGone when this rank's thread unwinds — a clean
                // failure, not a hang.
                return Err(self.crash_write(ctx, op, my_off, block, keep));
            }
        }
        // Virtual cost of the single parallel operation.
        let cost = self
            .pfs
            .model
            .collective_cost(total, max_block, ctx.nprocs());
        ctx.advance(cost);
        ctx.emit_with(|| EventKind::PfsCollective {
            op: PfsOp::Write,
            file: self.file.name.clone(),
            offset: my_off,
            bytes: block.len() as u64,
            total_bytes: total,
            share_bytes: total / ctx.nprocs() as u64,
            stripes: self.pfs.model.stripes_touched(my_off, block.len() as u64),
            regime: if self.pfs.model.collective_knee(max_block) {
                CollectiveRegime::CacheKnee
            } else {
                CollectiveRegime::Streaming
            },
            cost_ns: cost.as_nanos(),
        });
        self.account_collective(ctx, total);
        // All blocks visible before anyone proceeds.
        ctx.barrier()?;
        Ok((my_off, digests))
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
        self.read_ordered_impl(ctx, offset, len, false)
            .map(|(b, _)| b)
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
        self.read_ordered_impl(ctx, offset, len, true)
    }

    /// The one implementation behind both blocking collective reads;
    /// `summed` as in [`FileHandle::write_ordered_impl`].
    fn read_ordered_impl(
        &self,
        ctx: &NodeCtx,
        offset: u64,
        len: usize,
        summed: bool,
    ) -> Result<(Vec<u8>, Vec<ChunkSum>), PfsError> {
        if let Some(cc) = ctx.config().collective {
            let (buf, digests, _handle) =
                self.agg_read_ordered(ctx, cc, offset, len, false, summed)?;
            return Ok((buf, digests));
        }
        let _scope = ctx.collective_scope();
        let op = ctx.next_pfs_op();
        if let FaultDecision::Crash { .. } = self.collective_fate(ctx, op, None)? {
            // Power cut on entry: this rank never joins the collective;
            // peers block in the opening barrier and observe PeerGone
            // when the thread unwinds.
            self.emit_fault(ctx, FaultKind::Crash, op, 0);
            ctx.fault_mark_dead();
            return Err(MachineError::RankCrashed { rank: ctx.rank() }.into());
        }
        ctx.barrier()?;
        // Read first so the size exchange can carry the data digests; on a
        // failed read still participate (empty contribution), then surface
        // the error — abandoning the collective would strand the peers.
        let mut buf = vec![0u8; len];
        let read_res = if len > 0 {
            self.file
                .storage
                .lock()
                .read_at(offset, &mut buf, &self.file.name)
        } else {
            Ok(())
        };
        let my_sum = if summed && read_res.is_ok() {
            ChunkSum::of(&buf)
        } else {
            ChunkSum::EMPTY
        };
        // Everyone learns the collective's total and max block for costing,
        // and every rank's data digest for seal verification.
        let mut contrib = Vec::with_capacity(24);
        contrib.extend_from_slice(&(len as u64).to_le_bytes());
        contrib.extend_from_slice(&my_sum.hash().to_le_bytes());
        contrib.extend_from_slice(&my_sum.rpow().to_le_bytes());
        let frames = ctx.all_gather(contrib)?;
        let mut sizes = Vec::with_capacity(ctx.nprocs());
        let mut digests = Vec::with_capacity(ctx.nprocs());
        for frame in &frames {
            if frame.len() != 24 {
                return Err(PfsError::CollectiveMismatch(
                    "read_ordered: malformed size/digest frame".into(),
                ));
            }
            sizes.push(decode_u64(&frame[..8], "read_ordered size frame")?);
            digests.push(ChunkSum::from_parts(
                decode_u64(&frame[8..16], "read_ordered digest hash")?,
                decode_u64(&frame[16..24], "read_ordered digest rpow")?,
            ));
        }
        read_res?;
        let total: u64 = sizes.iter().sum();
        let max_block = sizes.iter().copied().max().unwrap_or(0);

        let cost = self
            .pfs
            .model
            .collective_cost(total, max_block, ctx.nprocs());
        ctx.advance(cost);
        ctx.emit_with(|| EventKind::PfsCollective {
            op: PfsOp::Read,
            file: self.file.name.clone(),
            offset,
            bytes: len as u64,
            total_bytes: total,
            share_bytes: total / ctx.nprocs() as u64,
            stripes: self.pfs.model.stripes_touched(offset, len as u64),
            regime: if self.pfs.model.collective_knee(max_block) {
                CollectiveRegime::CacheKnee
            } else {
                CollectiveRegime::Streaming
            },
            cost_ns: cost.as_nanos(),
        });
        self.account_collective(ctx, total);
        Ok((buf, digests))
    }

    pub(crate) fn account_collective(&self, ctx: &NodeCtx, total: u64) {
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

/// Decode a little-endian u64 exchanged during a collective plan.
pub(crate) fn decode_u64(b: &[u8], what: &str) -> Result<u64, PfsError> {
    Ok(u64::from_le_bytes(b.try_into().map_err(|_| {
        PfsError::CollectiveMismatch(format!("malformed {what}"))
    })?))
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
