//! Output d/streams.
//!
//! An [`OStream`] is the write side of the d/stream abstraction: data from
//! distributed collections is *inserted* into the stream's buffer and later
//! *written* to the file in one (or a few) parallel file-system operations.
//!
//! The state machine of the paper's Figure 2 is enforced at run time:
//! `open → (insert⁺ → write)* → close`, with the interleaving constraint
//! that all inserts between two writes cover collections of the same shape.

use std::borrow::Cow;

use dstreams_collections::Collection;
use dstreams_collections::Layout;
use dstreams_machine::wire::Reader;
use dstreams_machine::{MemoryModel, NodeCtx, SharedBuffer};
use dstreams_pfs::{ChunkSum, FileHandle, IoHandle, OpenMode, Pfs};
use dstreams_redist::DistView;
use dstreams_trace::{EventKind, StreamPhase};

use crate::data::{Inserter, StreamData};
use crate::error::StreamError;
use crate::format::{encode_sizes, FileHeader, MetaMode, RecordHeader, RecordSeal, FORMAT_VERSION};

/// How an output stream chooses its metadata strategy (paper §4.1 step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaPolicy {
    /// Gather to node 0 below `small_threshold` elements, parallel above —
    /// the adaptive strategy the paper describes.
    Auto {
        /// Collections smaller than this use [`MetaMode::Gathered`].
        small_threshold: usize,
    },
    /// Always use the given mode (the design ablations use this).
    Force(MetaMode),
}

impl Default for MetaPolicy {
    fn default() -> Self {
        // Crossover measured by `tables ablations` (metadata) on the
        // Paragon model: gathering beats the extra parallel operation
        // between 4 K and 16 K elements (32–128 KB of size info), and
        // crates/bench/tests/metadata_crossover.rs pins it there.
        MetaPolicy::Auto {
            small_threshold: 8192,
        }
    }
}

/// Options for opening streams.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Embed type tags with every insertion and validate them on
    /// extraction (debugging aid; adds 5 bytes per primitive insertion).
    pub checked: bool,
    /// Metadata strategy.
    pub meta_policy: MetaPolicy,
    /// Shared-memory single-buffer variant (paper §4: on multiprocessors
    /// "the per-node d/stream buffers can be reduced to one"): ranks pack
    /// their blocks into one shared staging buffer in parallel and a
    /// single processor issues one plain write. Only legal on machines
    /// with `MemoryModel::Shared`; the file image is identical to the
    /// per-node variant, so any reader works.
    pub smp_single_buffer: bool,
}

/// A split-collective write in flight: the record's bytes are already
/// on the file (coordination and physical transfer happen at
/// [`OStream::write_begin`]), but the parallel operation's service cost
/// is still elapsing in background virtual time. Pass it back to
/// [`OStream::write_end`] to retire the flush; several may be
/// outstanding at once — they complete in submission order on each
/// rank's serial async queue.
#[derive(Debug)]
pub struct PendingWrite {
    /// Metadata collective handle ([`MetaMode::Parallel`] records only).
    meta: Option<IoHandle>,
    /// Data collective handle.
    data: IoHandle,
    /// Commit-seal write handle (root only; absent when a peer's
    /// power-cut fault left the record intentionally unsealed).
    seal: Option<IoHandle>,
}

impl PendingWrite {
    /// Virtual time at which the whole flush (data and, on the root,
    /// the commit seal) completes.
    pub fn completion(&self) -> dstreams_machine::VTime {
        let mut t = self.data.completion();
        if let Some(s) = &self.seal {
            t = t.max(s.completion());
        }
        t
    }

    /// True when a power-cut fault on some rank left this record
    /// unsealed (recovery will truncate it away).
    pub fn crashed(&self) -> bool {
        self.data.peer_crashed()
    }
}

/// One insert of the current interleave group: every local element's
/// bytes, packed as one contiguous run in slot order.
struct Run {
    bytes: Vec<u8>,
    /// End offset in `bytes` of each slot's chunk.
    ends: Vec<usize>,
}

impl Run {
    /// Slot `slot`'s chunk of this insert.
    fn chunk(&self, slot: usize) -> &[u8] {
        let start = slot.checked_sub(1).map_or(0, |s| self.ends[s]);
        &self.bytes[start..self.ends[slot]]
    }
}

/// An output d/stream bound to one file and one collection layout.
pub struct OStream<'a> {
    ctx: &'a NodeCtx,
    layout: Layout,
    fh: FileHandle,
    opts: StreamOptions,
    /// The current interleave group, one run per insert.
    runs: Vec<Run>,
    /// Shared staging buffer (single-buffer SMP variant only).
    scratch: Option<SharedBuffer>,
    records_written: usize,
    /// Whether the on-file format version has been validated for appending.
    version_checked: bool,
    /// Split-collective writes begun but not yet retired by `write_end`.
    in_flight: usize,
    /// Whether the lazily-written file header declares active-append
    /// state (an open append-stream segment; cleared by
    /// [`OStream::seal_segment`]).
    active_append: bool,
}

impl<'a> OStream<'a> {
    /// Open an output stream on `name` for collections placed by `layout`.
    ///
    /// Collective: every rank must call it. If the file is empty, the
    /// d/stream file header is written; otherwise records append after the
    /// existing content (this is how several streams with differing
    /// layouts share one file, paper §4.1).
    pub fn create(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
    ) -> Result<Self, StreamError> {
        Self::create_with(ctx, pfs, layout, name, StreamOptions::default())
    }

    /// [`OStream::create`] with explicit options.
    pub fn create_with(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
        opts: StreamOptions,
    ) -> Result<Self, StreamError> {
        Self::create_via(ctx, pfs, layout, name, opts, || {
            let fh = pfs.open(ctx.is_root(), name, OpenMode::Create)?;
            // Open is collective; the file header itself is written
            // lazily with the first record's metadata operation, so
            // `open` costs no parallel I/O (matching the paper's oStream
            // constructor, which only sets up state).
            ctx.barrier()?;
            Ok(fh)
        })
    }

    /// [`OStream::create_with`] on the handle `open` returns. `open` is
    /// collective and leaves every rank past the file's creation: the
    /// plain open and a barrier, or the checkpoint manager's fresh-file
    /// step, which meets every rank after the create in the same
    /// rendezvous as its stale-file probe.
    pub(crate) fn create_via(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
        opts: StreamOptions,
        open: impl FnOnce() -> Result<FileHandle, StreamError>,
    ) -> Result<Self, StreamError> {
        if layout.nprocs() != ctx.nprocs() {
            return Err(StreamError::LayoutMismatch(format!(
                "layout built for {} procs, machine has {}",
                layout.nprocs(),
                ctx.nprocs()
            )));
        }
        if opts.smp_single_buffer && ctx.memory_model() != MemoryModel::Shared {
            return Err(StreamError::violation(
                "open",
                "single-buffer mode requires a shared-memory machine",
            ));
        }
        let fh = open()?;
        let scratch = opts
            .smp_single_buffer
            .then(|| pfs.scratch(&format!("__ostream_smp__{name}")));
        Ok(OStream {
            ctx,
            layout: layout.clone(),
            fh,
            opts,
            runs: Vec::new(),
            scratch,
            records_written: 0,
            version_checked: false,
            in_flight: 0,
            active_append: false,
        })
    }

    /// [`OStream::create`] for an *open append-stream segment*: the
    /// lazily-written file header carries
    /// [`FileHeader::FLAG_ACTIVE_APPEND`], declaring that a producer may
    /// still be appending. While the flag is set, `IStream::open`
    /// refuses the file and `recovery_scan` refuses to truncate it;
    /// [`OStream::seal_segment`] clears it, turning the segment into a
    /// consistent snapshot boundary tail readers may consume. Collective.
    pub fn create_append(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
    ) -> Result<Self, StreamError> {
        Self::create_append_with(ctx, pfs, layout, name, StreamOptions::default())
    }

    /// [`OStream::create_append`] with explicit options.
    pub fn create_append_with(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
        opts: StreamOptions,
    ) -> Result<Self, StreamError> {
        let mut s = Self::create_with(ctx, pfs, layout, name, opts)?;
        s.active_append = true;
        Ok(s)
    }

    /// Whether this stream writes an active-append (open segment) header.
    pub fn is_active_append(&self) -> bool {
        self.active_append
    }

    /// Seal the segment: clear [`FileHeader::FLAG_ACTIVE_APPEND`] from
    /// the on-file header with an in-place flags write, making the file
    /// an ordinary sealed d/stream that readers and recovery may touch.
    ///
    /// Every record must already be durable: inserts pending without a
    /// `write` or split-collective writes still in flight are state
    /// violations. A segment that never wrote a record gets its (sealed)
    /// file header here, so even an empty segment closes into a valid,
    /// readable stream. If a peer crashed during the segment's writes,
    /// the flag is left set — the torn segment stays quarantined for
    /// recovery instead of being published to tail readers. Collective.
    pub fn seal_segment(&mut self) -> Result<(), StreamError> {
        if !self.active_append {
            return Err(StreamError::violation(
                "seal_segment",
                "the stream was not created in append mode",
            ));
        }
        if !self.runs.is_empty() {
            return Err(StreamError::violation(
                "seal_segment",
                format!("{} inserts pending without a write()", self.runs.len()),
            ));
        }
        if self.in_flight > 0 {
            return Err(StreamError::violation(
                "seal_segment",
                format!(
                    "{} split-collective writes in flight without write_end()",
                    self.in_flight
                ),
            ));
        }
        self.ctx.barrier()?;
        if self.fh.take_peer_crashed() {
            // A crashed peer may have left a torn record: keep the
            // active-append flag so nothing downstream trusts the file.
            return Ok(());
        }
        if self.ctx.is_root() {
            let flags = if self.opts.checked {
                FileHeader::FLAG_CHECKED
            } else {
                0
            };
            if self.fh.is_empty() {
                let header = FileHeader {
                    version: FORMAT_VERSION,
                    flags,
                }
                .encode();
                self.fh.write_at(self.ctx, 0, &header)?;
            } else {
                self.fh
                    .write_at(self.ctx, FileHeader::FLAGS_OFFSET, &flags.to_le_bytes())?;
            }
        }
        self.ctx.barrier()?;
        self.active_append = false;
        Ok(())
    }

    /// The stream's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// Inserts pending in the current interleave group.
    pub fn pending_inserts(&self) -> u32 {
        self.runs.len() as u32
    }

    /// Records written so far through this stream.
    pub fn records_written(&self) -> usize {
        self.records_written
    }

    /// Insert an entire collection: the Rust spelling of `s << g`.
    pub fn insert_collection<T: StreamData>(
        &mut self,
        c: &Collection<T>,
    ) -> Result<(), StreamError> {
        let len = c.iter().map(|(_, e)| e.encoded_len()).sum();
        self.insert_run(c, len, |e, ins| e.insert(ins))
    }

    /// Insert a projection of each element: the Rust spelling of
    /// `s << g.numberOfParticles`. The closure decomposes whatever part of
    /// the element should be inserted.
    pub fn insert_with<T>(
        &mut self,
        c: &Collection<T>,
        f: impl Fn(&T, &mut Inserter<'_>),
    ) -> Result<(), StreamError> {
        self.insert_run(c, 0, f)
    }

    /// Serialize every local element of `c` with `f` into one run whose
    /// buffer starts with `capacity` bytes reserved.
    fn insert_run<T>(
        &mut self,
        c: &Collection<T>,
        capacity: usize,
        f: impl Fn(&T, &mut Inserter<'_>),
    ) -> Result<(), StreamError> {
        if c.layout() != &self.layout {
            if c.len() != self.layout.len() {
                // Distinguish the interleave-shape error the paper calls
                // out from a general placement mismatch.
                return Err(StreamError::InterleaveMismatch {
                    expected: self.layout.len(),
                    got: c.len(),
                });
            }
            return Err(StreamError::LayoutMismatch(
                "inserted collection is not aligned with the stream".into(),
            ));
        }
        let mut bytes = Vec::with_capacity(capacity);
        let mut ends = Vec::with_capacity(self.layout.local_count(self.ctx.rank()));
        for (_gid, elem) in c.iter() {
            f(elem, &mut Inserter::new(&mut bytes, self.opts.checked));
            ends.push(bytes.len());
        }
        // This serialization pass is the single data copy of the paper's
        // pointer-list design (there the copy happens at write()).
        self.ctx.charge_memcpy(bytes.len());
        self.runs.push(Run { bytes, ends });
        Ok(())
    }

    /// This rank's data block for the current interleave group: local
    /// elements in slot order, each element's insert chunks adjacent.
    /// A single insert's run already is that block, so only a group of
    /// several inserts is interleaved into a new buffer (`Some`).
    fn pack(&self) -> Option<Vec<u8>> {
        if let [_] = self.runs.as_slice() {
            return None;
        }
        let total = self.runs.iter().map(|r| r.bytes.len()).sum();
        let mut data = Vec::with_capacity(total);
        for slot in 0..self.runs.first().map_or(0, |r| r.ends.len()) {
            for run in &self.runs {
                data.extend_from_slice(run.chunk(slot));
            }
        }
        Some(data)
    }

    /// The layout- and file-level half of staging a record: pick the
    /// metadata mode, build the record header, and (for a still-empty
    /// file) the root's d/stream file-header prefix. Shared by the
    /// insert-run path ([`OStream::write_record`]) and the zero-copy
    /// view path ([`OStream::write_view`]).
    fn stage_header(
        &mut self,
        n_inserts: u32,
        data_len: u64,
    ) -> Result<(MetaMode, RecordHeader, Vec<u8>), StreamError> {
        let n = self.layout.len();
        let mode = match self.opts.meta_policy {
            MetaPolicy::Auto { small_threshold } => {
                if n < small_threshold {
                    MetaMode::Gathered
                } else {
                    MetaMode::Parallel
                }
            }
            MetaPolicy::Force(m) => m,
        };

        let header = RecordHeader {
            n_elements: n as u64,
            n_inserts,
            flags: if self.opts.checked {
                RecordHeader::FLAG_CHECKED
            } else {
                0
            },
            meta_mode: mode,
            layout: self.layout.descriptor(),
            data_len,
        };

        // If the file is still empty (consistent across ranks thanks to
        // the barrier at the head of every collective PFS op), the root
        // prefixes the d/stream file header to its metadata block.
        self.ctx.barrier()?;
        if !self.fh.is_empty() && !self.version_checked {
            self.check_appendable()?;
        }
        self.version_checked = true;
        let file_prefix = if self.fh.is_empty() && self.ctx.is_root() {
            let mut flags = if self.opts.checked {
                FileHeader::FLAG_CHECKED
            } else {
                0
            };
            if self.active_append {
                flags |= FileHeader::FLAG_ACTIVE_APPEND;
            }
            FileHeader {
                version: FORMAT_VERSION,
                flags,
            }
            .encode()
        } else {
            Vec::new()
        };
        Ok((mode, header, file_prefix))
    }

    /// Flush the current interleave group to the file as one write record
    /// (the d/stream `write` primitive). Collective.
    pub fn write(&mut self) -> Result<(), StreamError> {
        self.write_record(false).map(drop)
    }

    /// The one implementation behind [`OStream::write`] and
    /// [`OStream::write_begin`]: stage the interleave group, emit it as
    /// one record, reset the group (`write_begin` lands the bytes before
    /// it returns, so the runs are free to go).
    fn write_record(&mut self, begin: bool) -> Result<Option<PendingWrite>, StreamError> {
        if self.runs.is_empty() {
            return Err(StreamError::EmptyWrite);
        }
        let n_inserts = self.runs.len() as u32;
        let local_sizes: Vec<u64> = (0..self.runs[0].ends.len())
            .map(|slot| self.runs.iter().map(|r| r.chunk(slot).len() as u64).sum())
            .collect();
        let local_bytes: u64 = local_sizes.iter().sum();
        let data_len = self.ctx.all_reduce(local_bytes, |a, b| a + b)?;

        // The model charges the 1995 library's packing copy whether or
        // not the host needs one.
        let pack = crate::phase::span(self.ctx, StreamPhase::Pack);
        let packed = self.pack();
        self.ctx.charge_memcpy(local_bytes as usize);
        drop(pack);

        let (mode, header, file_prefix) = self.stage_header(n_inserts, data_len)?;
        let data = packed.as_deref().unwrap_or(&self.runs[0].bytes);
        let pending = self.emit_record(mode, &header, file_prefix, &local_sizes, data, begin)?;
        self.runs.clear();
        self.records_written += 1;
        Ok(pending)
    }

    /// Emit one record whose data comes straight from a [`DistView`] —
    /// the zero-copy re-export path. The view's per-slot bytes are the
    /// already-serialized insert group of some earlier record (typically
    /// [`crate::IStream::view`] on a record just read), so no `insert`
    /// pass and no re-serialization happen; when the view's segments tile
    /// their buffer contiguously, even the pack copy is skipped and the
    /// borrowed buffer goes to the I/O layer directly. `n_inserts` must
    /// be the insert count the viewed bytes were built with (readers
    /// enforce extract/insert parity per record). Collective.
    pub fn write_view(&mut self, view: &DistView<'_>, n_inserts: u32) -> Result<(), StreamError> {
        if !self.runs.is_empty() {
            return Err(StreamError::violation(
                "write_view",
                "the interleave group already holds inserted data — write it first",
            ));
        }
        if n_inserts == 0 {
            return Err(StreamError::EmptyWrite);
        }
        let local_ids = self.layout.local_elements(self.ctx.rank());
        if view.len() != local_ids.len()
            || (0..view.len()).any(|slot| view.id(slot) != local_ids[slot])
        {
            return Err(StreamError::LayoutMismatch(
                "view elements are not this rank's elements in slot order".into(),
            ));
        }
        let local_sizes = view.sizes();
        let local_bytes: u64 = local_sizes.iter().sum();
        let data_len = self.ctx.all_reduce(local_bytes, |a, b| a + b)?;
        let (mode, header, file_prefix) = self.stage_header(n_inserts, data_len)?;

        let gathered;
        let data: &[u8] = match view.as_contiguous() {
            Some(bytes) => bytes,
            None => {
                let pack = crate::phase::span(self.ctx, StreamPhase::Pack);
                let mut buf = Vec::with_capacity(local_bytes as usize);
                for (_id, bytes) in view.iter() {
                    buf.extend_from_slice(bytes);
                }
                self.ctx.charge_memcpy(buf.len());
                drop(pack);
                gathered = buf;
                &gathered
            }
        };
        self.emit_record(mode, &header, file_prefix, &local_sizes, data, false)?;
        self.records_written += 1;
        Ok(())
    }

    /// Begin a split-collective write of the current interleave group:
    /// the write-behind half of the asynchronous pipeline. Coordination
    /// and the physical byte transfer happen here — on return the record
    /// (and, barring faults, its commit seal) is on the file and the
    /// group buffers are reusable — but the parallel operation's service
    /// cost elapses in background virtual time. Retire the returned
    /// [`PendingWrite`] with [`OStream::write_end`]; compute performed in
    /// between is hidden behind the flush. Several writes may be in
    /// flight at once (they complete in submission order); `close`
    /// refuses while any are outstanding.
    ///
    /// A power-cut fault injected on any rank's transfer leaves the
    /// record unsealed (the crash stays detectable by recovery) and
    /// surfaces `RankCrashed` from the crashed rank's `write_end`.
    ///
    /// Collective. Not available in single-buffer SMP mode, whose single
    /// plain write has no collective cost to defer.
    pub fn write_begin(&mut self) -> Result<PendingWrite, StreamError> {
        if self.scratch.is_some() {
            return Err(StreamError::violation(
                "write_begin",
                "split-collective writes require per-node buffers \
                 (single-buffer SMP mode is synchronous-only)",
            ));
        }
        let pending = self.write_record(true)?;
        self.in_flight += 1;
        Ok(pending.expect("begin mode returns a pending write"))
    }

    /// Retire a split-collective write: synchronize this rank's clock
    /// forward to the flush's completion virtual time (free when the
    /// compute performed since `write_begin` already covered it) and
    /// surface any deferred fault outcome. Handles complete in
    /// submission order, so retiring the oldest pending write first
    /// never over-waits.
    pub fn write_end(&mut self, pending: PendingWrite) -> Result<(), StreamError> {
        let PendingWrite { meta, data, seal } = pending;
        let mut first_err: Option<dstreams_pfs::PfsError> = None;
        if let Some(h) = meta {
            if let Err(e) = h.wait(self.ctx) {
                first_err.get_or_insert(e);
            }
        }
        if let Err(e) = data.wait(self.ctx) {
            first_err.get_or_insert(e);
        }
        if let Some(h) = seal {
            if let Err(e) = h.wait(self.ctx) {
                first_err.get_or_insert(e);
            }
        }
        self.in_flight -= 1;
        self.ctx.emit_with(|| EventKind::PhaseEnd {
            phase: StreamPhase::WriteBehind,
        });
        match first_err {
            Some(e) => Err(e.into()),
            None => Ok(()),
        }
    }

    /// Split-collective writes begun but not yet retired.
    pub fn writes_in_flight(&self) -> usize {
        self.in_flight
    }

    /// Validate that an existing file can legally take version-2 records:
    /// sealed and unsealed records must not mix, so appending to a
    /// version-1 file is refused. Collective (root reads, verdict is
    /// broadcast).
    fn check_appendable(&self) -> Result<(), StreamError> {
        let verdict = if self.ctx.is_root() {
            let mut head = vec![0u8; FileHeader::LEN];
            match self.fh.read_at(self.ctx, 0, &mut head) {
                Ok(()) => match FileHeader::decode(&head) {
                    Ok(h) if h.version == FORMAT_VERSION => vec![0],
                    Ok(h) => {
                        let mut v = vec![2];
                        v.extend_from_slice(&h.version.to_le_bytes());
                        v
                    }
                    Err(StreamError::UnsupportedVersion(v)) => {
                        let mut b = vec![2];
                        b.extend_from_slice(&v.to_le_bytes());
                        b
                    }
                    Err(_) => vec![1],
                },
                Err(_) => vec![1],
            }
        } else {
            Vec::new()
        };
        let verdict = self.ctx.broadcast(0, verdict)?;
        let mut r = Reader::new(&verdict);
        let outcome = match r.u8() {
            Ok(0) => Ok(Ok(())),
            Ok(2) => r.u32().map(|v| Err(StreamError::UnsupportedVersion(v))),
            _ => Ok(Err(StreamError::BadMagic)),
        };
        match (outcome, r.finish()) {
            (Ok(verdict), Ok(())) => verdict,
            _ => Err(StreamError::BadMagic),
        }
    }

    /// Append the commit seal for the record just written (root only): the
    /// record becomes durable — a crash before this point leaves a
    /// detectable torn tail, never a silently short record. In `begin`
    /// mode the seal bytes land now — so the next record's append base is
    /// already correct — with the service cost deferred behind the data
    /// collective's on this rank's serial async queue: the seal
    /// *completes* strictly after the data it certifies.
    fn seal_record(
        &self,
        header: &RecordHeader,
        digest: ChunkSum,
        begin: bool,
    ) -> Result<Option<IoHandle>, StreamError> {
        debug_assert!(self.ctx.is_root());
        let seal = RecordSeal {
            record_len: header.span()?,
            checksum: digest.hash(),
        }
        .encode();
        let base = self.fh.len();
        Ok(if begin {
            Some(self.fh.write_at_begin(self.ctx, base, &seal)?)
        } else {
            self.fh.write_at(self.ctx, base, &seal)?;
            None
        })
    }

    /// One node-order collective write of this record, blocking or
    /// begin: every rank's block digest, and the in-flight handle in
    /// begin mode.
    fn write_ordered(
        &self,
        block: &[u8],
        begin: bool,
    ) -> Result<(Vec<ChunkSum>, Option<IoHandle>), StreamError> {
        Ok(if begin {
            let (_, digests, handle) = self.fh.write_ordered_begin_summed(self.ctx, block)?;
            (digests, Some(handle))
        } else {
            let (_, digests) = self.fh.write_ordered_summed(self.ctx, block)?;
            (digests, None)
        })
    }

    /// Emit one staged record: a single plain write in single-buffer SMP
    /// mode, else per-node collective parallel operations (distributed-
    /// memory machines, and the default everywhere). In `begin` mode the
    /// collectives are split: the bytes land now and the returned
    /// [`PendingWrite`] carries their deferred cost.
    fn emit_record(
        &self,
        mode: MetaMode,
        header: &RecordHeader,
        file_prefix: Vec<u8>,
        local_sizes: &[u64],
        data: &[u8],
        begin: bool,
    ) -> Result<Option<PendingWrite>, StreamError> {
        if let Some(scratch) = &self.scratch {
            self.write_smp(scratch, header, file_prefix, local_sizes, data)?;
            return Ok(None);
        }
        if begin {
            self.ctx.emit_with(|| EventKind::PhaseBegin {
                phase: StreamPhase::WriteBehind,
            });
        }
        let prefix_len = file_prefix.len();
        // The record digest in file order (root only), the metadata
        // handle (parallel mode) and the data handle.
        let (digest, meta_handle, data_handle) = match mode {
            MetaMode::Gathered => {
                // Size info travels to node 0 and is written at the head
                // of its per-node buffer: a single parallel operation.
                let meta = crate::phase::span(self.ctx, StreamPhase::Metadata);
                let gathered = self.ctx.gather(0, encode_sizes(local_sizes))?;
                let block = if let Some(tables) = gathered {
                    let mut b = file_prefix;
                    b.extend_from_slice(&header.encode());
                    for t in &tables {
                        b.extend_from_slice(t);
                    }
                    b.extend_from_slice(data);
                    Cow::Owned(b)
                } else {
                    Cow::Borrowed(data)
                };
                drop(meta);
                let data_span = crate::phase::span(self.ctx, StreamPhase::Data);
                let (digests, handle) = self.write_ordered(&block, begin)?;
                drop(data_span);
                // Rank 0's block is the record's metadata and its own
                // data, so its collective digest starts the record's —
                // unless a file prefix precedes the record there, which
                // the seal must not cover: then hash the record's span
                // of that block again. The other ranks' blocks follow.
                let digest = self.ctx.is_root().then(|| {
                    let head = if prefix_len == 0 {
                        digests[0]
                    } else {
                        ChunkSum::of(&block[prefix_len..])
                    };
                    digests[1..].iter().fold(head, |d, next| d.then(*next))
                });
                (digest, None, handle)
            }
            MetaMode::Parallel => {
                // Two parallel operations: metadata (record header from
                // the root, size-table slices from all nodes — one
                // node-order write yields header-then-sizes), then data.
                let mut meta = file_prefix;
                if self.ctx.is_root() {
                    meta.extend_from_slice(&header.encode());
                }
                meta.extend_from_slice(&encode_sizes(local_sizes));
                let st = crate::phase::span(self.ctx, StreamPhase::SizeTable);
                let (meta_digests, meta_handle) = self.write_ordered(&meta, begin)?;
                drop(st);
                let data_span = crate::phase::span(self.ctx, StreamPhase::Data);
                let (data_digests, data_handle) = self.write_ordered(data, begin)?;
                drop(data_span);
                let digest = self.ctx.is_root().then(|| {
                    let mut digest = ChunkSum::of(&meta[prefix_len..]);
                    for d in meta_digests[1..].iter().chain(&data_digests) {
                        digest = digest.then(*d);
                    }
                    digest
                });
                (digest, meta_handle, data_handle)
            }
        };
        // A power-cut on some rank must leave the record unsealed so
        // recovery truncates it away. Begin mode learns it from the
        // handles' crash-flag reductions; blocking, only collective
        // buffering completes the collective on the survivors, and its
        // sticky flag covers both collectives of the record.
        let crashed = self.fh.take_peer_crashed()
            || meta_handle
                .iter()
                .chain(&data_handle)
                .any(IoHandle::peer_crashed);
        let seal = match digest {
            Some(digest) if !crashed => self.seal_record(header, digest, begin)?,
            _ => None,
        };
        Ok(data_handle.map(|data| PendingWrite {
            meta: meta_handle,
            data,
            seal,
        }))
    }

    /// Single-buffer emission (shared-memory machines): every rank packs
    /// its block into one shared staging buffer in parallel, then rank 0
    /// issues a single plain write of the whole record. Produces exactly
    /// the same file bytes as the per-node emission.
    fn write_smp(
        &self,
        scratch: &SharedBuffer,
        header: &RecordHeader,
        file_prefix: Vec<u8>,
        local_sizes: &[u64],
        data: &[u8],
    ) -> Result<(), StreamError> {
        let ctx = self.ctx;
        let prefix_len = file_prefix.len();
        let meta_span = crate::phase::span(ctx, StreamPhase::Metadata);
        // Everyone learns every rank's data length (for offsets).
        let framed = ctx.all_gather((data.len() as u64).to_le_bytes().to_vec())?;
        let data_lens: Vec<u64> = framed
            .iter()
            .map(|b| Reader::parse(b, Reader::u64))
            .collect::<Result<_, _>>()
            .map_err(|e| StreamError::CorruptRecord(format!("smp write: bad length frame: {e}")))?;
        // Size tables travel to rank 0, which assembles the metadata and
        // reserves the whole record in the shared buffer.
        let gathered = ctx.gather(0, encode_sizes(local_sizes))?;
        let meta_len = if let Some(tables) = gathered {
            let mut meta = file_prefix;
            meta.extend_from_slice(&header.encode());
            for t in &tables {
                meta.extend_from_slice(t);
            }
            let total: u64 = data_lens.iter().sum();
            scratch.clear();
            scratch.reserve(meta.len() + total as usize);
            scratch.write_at(0, &meta);
            ctx.charge_memcpy(meta.len());
            (meta.len() as u64).to_le_bytes().to_vec()
        } else {
            Vec::new()
        };
        // The broadcast doubles as the "buffer is reserved" signal.
        let meta_len = ctx.broadcast(0, meta_len)?;
        let meta_len = Reader::parse(&meta_len, Reader::u64).map_err(|e| {
            StreamError::CorruptRecord(format!("smp write: bad metadata length: {e}"))
        })?;
        drop(meta_span);
        let _data_span = crate::phase::span(ctx, StreamPhase::Data);
        let my_off = meta_len + data_lens[..ctx.rank()].iter().sum::<u64>();
        scratch.write_at(my_off as usize, data);
        ctx.charge_memcpy(data.len());
        // All packing done before the single write.
        ctx.barrier()?;
        if ctx.is_root() {
            let mut image = scratch.to_vec();
            // Seal folded into the same single write: the record and its
            // commit seal land atomically, preserving the one-write-per-
            // record property of this mode. (A torn tail can still cut the
            // image short, which is exactly what the seal detects.)
            let digest = ChunkSum::of(&image[prefix_len..]);
            image.extend_from_slice(
                &RecordSeal {
                    record_len: (image.len() - prefix_len) as u64,
                    checksum: digest.hash(),
                }
                .encode(),
            );
            // The lone writer pays for streaming the whole image through
            // one processor — the reason this variant loses to parallel
            // per-node writes at large sizes.
            ctx.charge_memcpy(image.len());
            let base = self.fh.len();
            self.fh.write_at(ctx, base, &image)?;
        }
        ctx.barrier()?;
        Ok(())
    }

    /// The d/stream `close` primitive. Errors if inserts are pending
    /// without a `write` (in pC++ the destructor closes implicitly; Rust
    /// surfaces the missing-write bug instead of dropping data).
    pub fn close(self) -> Result<(), StreamError> {
        if !self.runs.is_empty() {
            return Err(StreamError::violation(
                "close",
                format!("{} inserts pending without a write()", self.runs.len()),
            ));
        }
        if self.in_flight > 0 {
            return Err(StreamError::violation(
                "close",
                format!(
                    "{} split-collective writes in flight without write_end()",
                    self.in_flight
                ),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::DistKind;
    use dstreams_machine::{Machine, MachineConfig};

    fn with_machine(np: usize, f: impl Fn(&NodeCtx, &Pfs) + Sync) {
        let pfs = Pfs::in_memory(np);
        Machine::run(MachineConfig::functional(np), move |ctx| f(ctx, &pfs)).unwrap();
    }

    #[test]
    fn file_header_is_written_once_with_the_first_record() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            // Creating (and closing) streams alone writes nothing.
            let s = OStream::create(ctx, &p, &layout, "f").unwrap();
            s.close().unwrap();
            assert_eq!(p.file_size("f").unwrap(), 0);
            // Two streams, two records: exactly one file header.
            let c = Collection::new(ctx, layout.clone(), |g| g as u8).unwrap();
            let mut s1 = OStream::create(ctx, &p, &layout, "f").unwrap();
            let mut s2 = OStream::create(ctx, &p, &layout, "f").unwrap();
            s1.insert_collection(&c).unwrap();
            s1.write().unwrap();
            s2.insert_collection(&c).unwrap();
            s2.write().unwrap();
            s1.close().unwrap();
            s2.close().unwrap();
        })
        .unwrap();
        use crate::format::RecordHeader;
        // header + sizes + data + commit seal
        let record = (RecordHeader::LEN + 4 * 8 + 4 + RecordSeal::LEN) as u64;
        assert_eq!(
            pfs.file_size("f").unwrap(),
            FileHeader::LEN as u64 + 2 * record
        );
    }

    #[test]
    fn write_without_insert_is_rejected() {
        with_machine(2, |ctx, pfs| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let mut s = OStream::create(ctx, pfs, &layout, "f").unwrap();
            assert!(matches!(s.write(), Err(StreamError::EmptyWrite)));
        });
    }

    #[test]
    fn close_with_pending_inserts_is_rejected() {
        with_machine(2, |ctx, pfs| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g as u64).unwrap();
            let mut s = OStream::create(ctx, pfs, &layout, "f").unwrap();
            s.insert_collection(&c).unwrap();
            assert!(matches!(
                s.close(),
                Err(StreamError::StateViolation { op: "close", .. })
            ));
        });
    }

    #[test]
    fn misaligned_collection_is_rejected() {
        with_machine(2, |ctx, pfs| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let other = Layout::dense(4, 2, DistKind::Cyclic).unwrap();
            let wrong_len = Layout::dense(6, 2, DistKind::Block).unwrap();
            let c_other = Collection::new(ctx, other, |g| g as u64).unwrap();
            let c_len = Collection::new(ctx, wrong_len, |g| g as u64).unwrap();
            let mut s = OStream::create(ctx, pfs, &layout, "f").unwrap();
            assert!(matches!(
                s.insert_collection(&c_other),
                Err(StreamError::LayoutMismatch(_))
            ));
            assert!(matches!(
                s.insert_collection(&c_len),
                Err(StreamError::InterleaveMismatch {
                    expected: 4,
                    got: 6
                })
            ));
        });
    }

    #[test]
    fn gathered_and_parallel_modes_produce_identical_bytes() {
        let run = |mode: MetaMode| {
            let pfs = Pfs::in_memory(3);
            let p = pfs.clone();
            Machine::run(MachineConfig::functional(3), move |ctx| {
                let layout = Layout::dense(7, 3, DistKind::Cyclic).unwrap();
                let c = Collection::new(ctx, layout.clone(), |g| vec![g as u8; g + 1]).unwrap();
                let opts = StreamOptions {
                    checked: false,
                    meta_policy: MetaPolicy::Force(mode),
                    ..Default::default()
                };
                let mut s = OStream::create_with(ctx, &p, &layout, "f", opts).unwrap();
                s.insert_collection(&c).unwrap();
                s.write().unwrap();
                s.close().unwrap();
            })
            .unwrap();
            // Snapshot the file image.
            let size = pfs.file_size("f").unwrap() as usize;
            let p2 = pfs.clone();
            let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
                let fh = p2.open(false, "f", OpenMode::Read).unwrap();
                let mut buf = vec![0u8; size];
                fh.read_at(ctx, 0, &mut buf).unwrap();
                buf
            })
            .unwrap();
            bytes[0].clone()
        };
        let a = run(MetaMode::Gathered);
        let b = run(MetaMode::Parallel);
        // Identical except the meta-mode field in the record header (and
        // therefore the seal checksum that covers it): mask both.
        assert_eq!(a.len(), b.len());
        let mm_off = FileHeader::LEN + 4 + 8 + 4 + 4; // header + magic + n_elems + n_inserts + flags
        let ck_off = a.len() - 8; // seal checksum is the final 8 bytes
        let mut a2 = a.clone();
        let mut b2 = b.clone();
        for buf in [&mut a2, &mut b2] {
            buf[mm_off..mm_off + 4].fill(0);
            buf[ck_off..].fill(0);
        }
        assert_eq!(
            a2, b2,
            "both metadata strategies must lay out bytes identically"
        );
    }

    #[test]
    fn multiple_writes_append_records() {
        with_machine(2, |ctx, pfs| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g as u32).unwrap();
            let mut s = OStream::create(ctx, pfs, &layout, "multi").unwrap();
            for _ in 0..3 {
                s.insert_collection(&c).unwrap();
                s.write().unwrap();
            }
            assert_eq!(s.records_written(), 3);
            s.close().unwrap();
        });
    }

    #[test]
    fn interleaved_inserts_group_per_element() {
        // Two inserts before one write: each element's chunks must be
        // adjacent in the file (checked byte-exactly for 1 rank).
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let layout = Layout::dense(2, 1, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g as u8).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "il").unwrap();
            // Insert the element value, then a second field 10+value.
            s.insert_with(&c, |e, ins| ins.prim(*e)).unwrap();
            s.insert_with(&c, |e, ins| ins.prim(*e + 10)).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        let p2 = pfs.clone();
        let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p2.open(false, "il", OpenMode::Read).unwrap();
            let size = fh.len() as usize;
            let mut buf = vec![0u8; size];
            fh.read_at(ctx, 0, &mut buf).unwrap();
            buf
        })
        .unwrap();
        // Data region sits just before the seal: e0 chunks (0, 10) then
        // e1 (1, 11).
        let end = bytes[0].len() - RecordSeal::LEN;
        let data = &bytes[0][end - 4..end];
        assert_eq!(data, &[0, 10, 1, 11]);
    }

    /// Element `g`'s chunks for three interleaved inserts, of uneven
    /// sizes (the second is empty for element 0).
    fn chunks(g: usize) -> [Vec<u8>; 3] {
        [
            vec![g as u8; g % 3 + 1],
            vec![0xA0 | g as u8; 2 * g],
            (g as u32 * 7).to_le_bytes().to_vec(),
        ]
    }

    /// Write one record of `chunks` over 4 ranks, as three inserts
    /// (`split`) or as one insert per element, and return the file.
    fn write_chunked_record(mode: MetaMode, split: bool, begin: bool) -> Vec<u8> {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let layout = Layout::dense(6, 4, DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g).unwrap();
            let opts = StreamOptions {
                meta_policy: MetaPolicy::Force(mode),
                ..Default::default()
            };
            let mut s = OStream::create_with(ctx, &p, &layout, "f", opts).unwrap();
            if split {
                for k in 0..3 {
                    s.insert_with(&c, |&g, ins| ins.bytes(&chunks(g)[k]))
                        .unwrap();
                }
            } else {
                s.insert_with(&c, |&g, ins| chunks(g).iter().for_each(|ch| ins.bytes(ch)))
                    .unwrap();
            }
            if begin {
                let pending = s.write_begin().unwrap();
                s.write_end(pending).unwrap();
            } else {
                s.write().unwrap();
            }
            s.close().unwrap();
        })
        .unwrap();
        let bytes = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = pfs.open(false, "f", OpenMode::Read).unwrap();
            let mut buf = vec![0u8; fh.len() as usize];
            fh.read_at(ctx, 0, &mut buf).unwrap();
            buf
        })
        .unwrap();
        bytes[0].clone()
    }

    #[test]
    fn interleaved_inserts_lay_out_per_element_on_every_rank() {
        let layout = Layout::dense(6, 4, DistKind::Block).unwrap();
        assert_eq!(
            (0..4).map(|r| layout.local_count(r)).collect::<Vec<_>>(),
            [2, 2, 2, 0],
            "the last rank must hold no element"
        );
        // The per-element layout: every element's size, then every
        // element's chunks back to back, in file order.
        let sizes: Vec<u64> = (0..6)
            .map(|g| chunks(g).iter().map(|c| c.len() as u64).sum())
            .collect();
        let mut want = encode_sizes(&sizes);
        want.extend((0..6).flat_map(chunks).flatten());
        let body = |file: &[u8]| {
            file[FileHeader::LEN + RecordHeader::LEN..file.len() - RecordSeal::LEN].to_vec()
        };
        for mode in [MetaMode::Gathered, MetaMode::Parallel] {
            let written = write_chunked_record(mode, true, false);
            assert_eq!(body(&written), want, "{mode:?}: size table and data");
            assert_eq!(
                write_chunked_record(mode, true, true),
                written,
                "{mode:?}: write_begin/write_end must land the bytes write does"
            );
            assert_eq!(
                body(&write_chunked_record(mode, false, false)),
                want,
                "{mode:?}: one insert per element"
            );
        }
    }
}
