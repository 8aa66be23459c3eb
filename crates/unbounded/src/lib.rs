//! # dstreams-unbounded — unbounded append streams with tailing readers
//!
//! The d/stream files of the paper are *bounded*: a producer opens a
//! file, writes some records, closes it, and only then may readers open
//! the result. This crate extends the format-v2 generation model to
//! *unbounded* log-style streams: an [`AppendStream`] producer appends
//! records forever, periodically cutting a **segment seal** — a
//! consistent snapshot boundary reusing the commit-seal machinery — while
//! [`TailReader`]s attach mid-run and consume the sealed prefix with
//! **snapshot isolation**: a tail read never observes bytes from an
//! unsealed (open) segment.
//!
//! * **Segments.** The stream is a chain of ordinary d/stream files
//!   (`<name>.seg000000`, `.seg000001`, …). The open segment carries
//!   [`dstreams_core::FileHeader::FLAG_ACTIVE_APPEND`] in its header, so
//!   `IStream::open` refuses it and `recovery_scan` will not truncate
//!   it. [`AppendStream::seal`] drains the write-behind window, clears
//!   the flag, and publishes the segment in the stream *manifest*
//!   (`<name>.stream`, [`dstreams_core::StreamManifest`]).
//! * **Backpressure.** Appends go through the depth-N
//!   [`dstreams_pipeline::WriteWindow`] (the generalization of the
//!   pipeline crate's depth-2 double buffer): up to `window_depth`
//!   split-collective flushes ride behind compute, and a `write` that
//!   finds the window full stalls on the oldest flush — a *forced
//!   retire* counted in [`AppendStats`].
//! * **Retention.** A byte budget ([`AppendOptions::retention_bytes`])
//!   garbage-collects sealed segments oldest-first, but never past any
//!   attached reader's cursor — the retention-safety invariant the
//!   `compacted-under-reader` analyzer rule checks from traces.
//!
//! Everything is deterministic SPMD: producer and readers are collective
//! objects driven from the same program, manifest updates are
//! root-written and shared through the file (with a broadcast on load),
//! and traces carry `SegmentSeal` / `TailAttach` / `TailConsume` /
//! `TailDetach` / `Compact` events for the offline analyzer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dstreams_collections::{Collection, Layout};
use dstreams_core::{
    manifest_file_name, segment_file_name, IStream, Inserter, ReaderEntry, SegmentEntry,
    StreamData, StreamError, StreamManifest, StreamOptions,
};
use dstreams_machine::wire::Reader;
use dstreams_machine::NodeCtx;
use dstreams_pfs::{OpenMode, Pfs};
use dstreams_pipeline::WriteWindow;
use dstreams_trace::EventKind;

/// Tuning knobs for an [`AppendStream`].
#[derive(Debug, Clone, Default)]
pub struct AppendOptions {
    /// Write-behind window depth: split-collective flushes in flight per
    /// rank before an append stalls on the oldest. 0 means the pipeline
    /// default (2, double buffering).
    pub window_depth: usize,
    /// Byte budget for sealed, not-yet-compacted segments. After each
    /// seal, fully-consumed sealed segments are compacted oldest-first
    /// while the sealed bytes exceed the budget — but never a segment an
    /// attached reader has not consumed yet, and never the newest sealed
    /// segment (a late attach always finds a snapshot). `None` keeps
    /// everything.
    pub retention_bytes: Option<u64>,
    /// Options for the underlying per-segment streams.
    pub stream: StreamOptions,
}

/// Producer-side counters exposed by [`AppendStream::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Records appended (window submissions) over the stream's lifetime.
    pub records_appended: u64,
    /// Appends that found the window full and stalled on the oldest
    /// flush.
    pub forced_retires: u64,
    /// Segments sealed.
    pub segments_sealed: u64,
    /// Sealed segments compacted away by retention.
    pub segments_compacted: u64,
}

/// Read the stream manifest from the PFS (root reads, everyone learns it
/// by broadcast); a missing or empty manifest file is an empty manifest.
fn load_manifest(ctx: &NodeCtx, pfs: &Pfs, stream: &str) -> Result<StreamManifest, StreamError> {
    let name = manifest_file_name(stream);
    let bytes = if ctx.is_root() {
        if pfs.exists(&name) {
            let fh = pfs.open(false, &name, OpenMode::Read)?;
            let mut buf = vec![0u8; fh.len() as usize];
            fh.read_at(ctx, 0, &mut buf)?;
            buf
        } else {
            Vec::new()
        }
    } else {
        Vec::new()
    };
    let bytes = ctx.broadcast(0, bytes)?;
    if bytes.is_empty() {
        Ok(StreamManifest::default())
    } else {
        StreamManifest::decode(&bytes)
    }
}

/// Persist the manifest (root truncates and rewrites the side file); the
/// closing barrier orders the write before anything any rank does next.
fn store_manifest(
    ctx: &NodeCtx,
    pfs: &Pfs,
    stream: &str,
    m: &StreamManifest,
) -> Result<(), StreamError> {
    let name = manifest_file_name(stream);
    if ctx.is_root() {
        let fh = pfs.open(true, &name, OpenMode::Create)?;
        if !fh.is_empty() {
            pfs.truncate_file(&name, 0)?;
        }
        fh.write_at(ctx, 0, &m.encode())?;
    }
    ctx.barrier()?;
    Ok(())
}

/// The open segment of an [`AppendStream`].
struct OpenSegment<'a> {
    index: u64,
    os: dstreams_core::OStream<'a>,
    window: WriteWindow,
    records: u64,
}

/// An unbounded append stream: the producer half.
///
/// Collective — every rank constructs it and calls every method at the
/// same program point, like any d/stream. Appends target the current
/// *open* segment (created on demand); [`AppendStream::seal`] turns it
/// into a sealed snapshot tail readers may consume and runs retention.
pub struct AppendStream<'a> {
    ctx: &'a NodeCtx,
    pfs: Pfs,
    layout: Layout,
    name: String,
    opts: AppendOptions,
    seg: Option<OpenSegment<'a>>,
    stats: AppendStats,
}

impl<'a> AppendStream<'a> {
    /// Open (or resume) the append stream `name` with default options.
    /// Collective.
    pub fn create(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
    ) -> Result<Self, StreamError> {
        Self::create_with(ctx, pfs, layout, name, AppendOptions::default())
    }

    /// [`AppendStream::create`] with explicit options. A manifest left by
    /// an earlier producer is resumed: new segments continue the index
    /// sequence. An open segment left behind (the previous producer never
    /// sealed it) is refused — its file may be torn, and quarantining it
    /// is the point of the active-append flag.
    pub fn create_with(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        name: &str,
        opts: AppendOptions,
    ) -> Result<Self, StreamError> {
        let manifest = load_manifest(ctx, pfs, name)?;
        if let Some(open) = manifest.open_segment {
            return Err(StreamError::ActiveAppend {
                file: segment_file_name(name, open),
            });
        }
        Ok(AppendStream {
            ctx,
            pfs: pfs.clone(),
            layout: layout.clone(),
            name: name.to_string(),
            opts,
            seg: None,
            stats: AppendStats::default(),
        })
    }

    /// The stream's layout.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The stream's name (segment files are `<name>.seg<index>`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Producer counters so far (including the live window's stalls).
    pub fn stats(&self) -> AppendStats {
        let mut s = self.stats;
        if let Some(seg) = &self.seg {
            s.forced_retires += seg.window.forced_retires();
        }
        s
    }

    /// Index of the currently open segment, if one exists.
    pub fn open_segment(&self) -> Option<u64> {
        self.seg.as_ref().map(|s| s.index)
    }

    /// The current open segment, created (and published in the manifest)
    /// on first use.
    fn segment(&mut self) -> Result<&mut OpenSegment<'a>, StreamError> {
        if self.seg.is_none() {
            let mut manifest = load_manifest(self.ctx, &self.pfs, &self.name)?;
            let index = manifest.next_segment_index();
            let os = dstreams_core::OStream::create_append_with(
                self.ctx,
                &self.pfs,
                &self.layout,
                &segment_file_name(&self.name, index),
                self.opts.stream.clone(),
            )?;
            manifest.open_segment = Some(index);
            store_manifest(self.ctx, &self.pfs, &self.name, &manifest)?;
            let depth = if self.opts.window_depth == 0 {
                2
            } else {
                self.opts.window_depth
            };
            self.seg = Some(OpenSegment {
                index,
                os,
                window: WriteWindow::new(depth)?,
                records: 0,
            });
        }
        Ok(self.seg.as_mut().expect("just created"))
    }

    /// Insert an entire collection into the open segment's current
    /// interleave group: the Rust spelling of `s << g`.
    pub fn insert_collection<T: StreamData>(
        &mut self,
        c: &Collection<T>,
    ) -> Result<(), StreamError> {
        self.segment()?.os.insert_collection(c)
    }

    /// Insert a projection of each element (see
    /// [`dstreams_core::OStream::insert_with`]).
    pub fn insert_with<T>(
        &mut self,
        c: &Collection<T>,
        f: impl Fn(&T, &mut Inserter<'_>),
    ) -> Result<(), StreamError> {
        self.segment()?.os.insert_with(c, f)
    }

    /// Append the current interleave group as one record — write-behind.
    /// The record's bytes are on the open segment when this returns; its
    /// flush cost rides behind subsequent compute in the window, and the
    /// append stalls (retires the oldest flush) only when the window is
    /// at depth. Collective.
    pub fn append(&mut self) -> Result<(), StreamError> {
        let seg = self.segment()?;
        let os = &mut seg.os;
        seg.window.make_room(|p| os.write_end(p))?;
        let pending = os.write_begin()?;
        seg.window.push(pending);
        seg.records += 1;
        self.stats.records_appended += 1;
        Ok(())
    }

    /// Seal the open segment: drain the window, clear the active-append
    /// flag, publish the segment in the manifest, emit `SegmentSeal`, and
    /// run retention. After this, tail readers see the segment.
    ///
    /// Sealing with no open segment is a state violation — there is no
    /// snapshot boundary to cut. Collective.
    pub fn seal(&mut self) -> Result<(), StreamError> {
        let mut seg = self.seg.take().ok_or_else(|| {
            StreamError::violation("seal", "no open segment (nothing appended since last seal)")
        })?;
        let os = &mut seg.os;
        seg.window.drain(|p| os.write_end(p))?;
        seg.os.seal_segment()?;
        self.stats.forced_retires += seg.window.forced_retires();
        self.stats.segments_sealed += 1;

        let file = segment_file_name(&self.name, seg.index);
        // Everyone needs the sealed byte count for the manifest entry and
        // the trace event; only the root can ask the PFS namespace.
        let bytes = if self.ctx.is_root() {
            self.pfs.file_size(&file)?.to_le_bytes().to_vec()
        } else {
            Vec::new()
        };
        let bytes = Reader::parse(&self.ctx.broadcast(0, bytes)?, Reader::u64)
            .map_err(|e| StreamError::CorruptRecord(format!("seal: bad size frame: {e}")))?;

        let mut manifest = load_manifest(self.ctx, &self.pfs, &self.name)?;
        manifest.open_segment = None;
        manifest.sealed.push(SegmentEntry {
            index: seg.index,
            records: seg.records,
            bytes,
        });
        let name = self.name.clone();
        let (index, records) = (seg.index, seg.records);
        self.ctx.emit_with(|| EventKind::SegmentSeal {
            stream: name.clone(),
            segment: index,
            file: file.clone(),
            records,
            bytes,
        });
        self.compact(&mut manifest)?;
        store_manifest(self.ctx, &self.pfs, &self.name, &manifest)?;
        Ok(())
    }

    /// Retention: compact fully-consumed sealed segments, oldest first,
    /// while the sealed bytes exceed the budget. A segment at or above
    /// any live reader's cursor is never touched, and the newest sealed
    /// segment always survives so a late attach finds a snapshot.
    fn compact(&mut self, manifest: &mut StreamManifest) -> Result<(), StreamError> {
        let budget = match self.opts.retention_bytes {
            Some(b) => b,
            None => return Ok(()),
        };
        let floor = manifest.live_floor().unwrap_or(u64::MAX);
        let mut removed = false;
        while manifest.sealed_bytes() > budget && manifest.sealed.len() > 1 {
            let victim = match manifest.sealed.first() {
                Some(s) if s.index < floor => *s,
                _ => break,
            };
            let file = segment_file_name(&self.name, victim.index);
            let name = self.name.clone();
            self.ctx.emit_with(|| EventKind::Compact {
                stream: name.clone(),
                segment: victim.index,
                file: file.clone(),
                bytes: victim.bytes,
            });
            if self.ctx.is_root() {
                self.pfs.remove(&file)?;
            }
            manifest.sealed.remove(0);
            manifest.compacted_before = victim.index + 1;
            self.stats.segments_compacted += 1;
            removed = true;
        }
        if removed {
            // Order the root's removals before anything any rank does
            // next (e.g. listing or re-creating segment files).
            self.ctx.barrier()?;
        }
        Ok(())
    }

    /// Seal the open segment if one exists, then close the producer. The
    /// manifest keeps tracking the sealed segments for late readers.
    pub fn close(mut self) -> Result<(), StreamError> {
        if self.seg.is_some() {
            self.seal()?;
        }
        Ok(())
    }
}

/// A tailing reader attached to an [`AppendStream`]'s sealed prefix.
///
/// Collective. A reader attaches mid-run at the oldest still-retained
/// sealed segment and consumes sealed segments in order, one per
/// [`TailReader::poll`]; its cursor is registered in the manifest so
/// retention never compacts a segment it has not consumed. The reader
/// never opens the open segment — `IStream::open` would refuse the
/// active-append flag — so every observed byte is from a sealed
/// snapshot.
pub struct TailReader<'a> {
    ctx: &'a NodeCtx,
    pfs: Pfs,
    layout: Layout,
    stream: String,
    id: u32,
    next_segment: u64,
}

impl<'a> TailReader<'a> {
    /// Attach to append stream `stream`, registering a cursor at the
    /// oldest still-retained sealed segment. Extraction routes into
    /// collections placed by `layout` (which may differ from the
    /// producer's — d/stream files are self-describing). Collective.
    pub fn attach(
        ctx: &'a NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        stream: &str,
    ) -> Result<Self, StreamError> {
        let mut manifest = load_manifest(ctx, pfs, stream)?;
        let id = manifest.readers.iter().map(|r| r.id).max().unwrap_or(0) + 1;
        let first_segment = manifest
            .sealed
            .first()
            .map_or(manifest.sealed_end(), |s| s.index);
        manifest.readers.push(ReaderEntry {
            id,
            next_segment: first_segment,
            detached: false,
        });
        store_manifest(ctx, pfs, stream, &manifest)?;
        let name = stream.to_string();
        let sealed = manifest.sealed_end();
        ctx.emit_with(|| EventKind::TailAttach {
            stream: name.clone(),
            reader: id,
            first_segment,
            sealed,
        });
        Ok(TailReader {
            ctx,
            pfs: pfs.clone(),
            layout: layout.clone(),
            stream: stream.to_string(),
            id,
            next_segment: first_segment,
        })
    }

    /// This reader's id in the stream manifest.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Index of the next segment this reader will consume.
    pub fn next_segment(&self) -> u64 {
        self.next_segment
    }

    /// Consume the next sealed segment, if one is available. The
    /// callback receives an open [`IStream`] on the segment plus its
    /// manifest entry (record and byte counts) and extracts whatever it
    /// wants; the stream is closed afterwards and the reader's manifest
    /// cursor advances. Returns whether a segment was consumed — `false`
    /// means the reader is caught up with the sealed frontier, never
    /// that the stream ended. Collective.
    pub fn poll(
        &mut self,
        mut f: impl FnMut(&mut IStream<'a>, &SegmentEntry) -> Result<(), StreamError>,
    ) -> Result<bool, StreamError> {
        let mut manifest = load_manifest(self.ctx, &self.pfs, &self.stream)?;
        if self.next_segment < manifest.compacted_before {
            // Retention ran over us: the exact hazard the
            // `compacted-under-reader` analyzer rule exists to catch.
            return Err(StreamError::violation(
                "poll",
                format!(
                    "segment {} was compacted under reader {} (cursor behind \
                     compacted_before {})",
                    self.next_segment, self.id, manifest.compacted_before
                ),
            ));
        }
        if self.next_segment >= manifest.sealed_end() {
            return Ok(false);
        }
        let entry = *manifest
            .sealed
            .iter()
            .find(|s| s.index == self.next_segment)
            .ok_or_else(|| {
                StreamError::CorruptRecord(format!(
                    "manifest has no sealed entry for segment {}",
                    self.next_segment
                ))
            })?;
        let file = segment_file_name(&self.stream, entry.index);
        let mut is = IStream::open(self.ctx, &self.pfs, &self.layout, &file)?;
        f(&mut is, &entry)?;
        is.close()?;
        let name = self.stream.clone();
        let id = self.id;
        self.ctx.emit_with(|| EventKind::TailConsume {
            stream: name.clone(),
            reader: id,
            segment: entry.index,
            file: file.clone(),
            bytes: entry.bytes,
        });
        self.next_segment = entry.index + 1;
        if let Some(r) = manifest.reader_mut(self.id) {
            r.next_segment = self.next_segment;
        }
        store_manifest(self.ctx, &self.pfs, &self.stream, &manifest)?;
        Ok(true)
    }

    /// Detach: the cursor stops holding back retention. Collective.
    pub fn detach(self) -> Result<(), StreamError> {
        let mut manifest = load_manifest(self.ctx, &self.pfs, &self.stream)?;
        if let Some(r) = manifest.reader_mut(self.id) {
            r.detached = true;
        }
        store_manifest(self.ctx, &self.pfs, &self.stream, &manifest)?;
        let name = self.stream.clone();
        let (id, consumed_through) = (self.id, self.next_segment);
        self.ctx.emit_with(|| EventKind::TailDetach {
            stream: name.clone(),
            reader: id,
            consumed_through,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::DistKind;
    use dstreams_machine::{Machine, MachineConfig};
    use dstreams_trace::{OpCounts, TraceSink};

    fn layout(n: usize, np: usize) -> Layout {
        Layout::dense(n, np, DistKind::Block).unwrap()
    }

    #[test]
    fn tail_reader_consumes_sealed_prefix_element_exact() {
        let np = 2;
        let pfs = Pfs::in_memory(np);
        let sink = TraceSink::new(np);
        let p = pfs.clone();
        Machine::run(
            MachineConfig::functional(np).traced(sink.clone()),
            move |ctx| {
                let lo = layout(6, 2);
                let mut s = AppendStream::create(ctx, &p, &lo, "log").unwrap();
                let mut r = TailReader::attach(ctx, &p, &lo, "log").unwrap();
                // Nothing sealed yet: the reader is caught up.
                assert!(!r.poll(|_, _| Ok(())).unwrap());
                let mut consumed: Vec<u64> = Vec::new();
                for seg in 0..3u64 {
                    for rec in 0..2u64 {
                        let c = Collection::new(ctx, lo.clone(), move |g| {
                            seg * 100 + rec * 10 + g as u64
                        })
                        .unwrap();
                        s.insert_collection(&c).unwrap();
                        s.append().unwrap();
                    }
                    s.seal().unwrap();
                    // The tail sees exactly the newly sealed segment,
                    // element-exact: every record routes every element home.
                    let got = r
                        .poll(|is, entry| {
                            assert_eq!(entry.records, 2);
                            let mut g = Collection::new(ctx, lo.clone(), |_| 0u64).unwrap();
                            for rec in 0..entry.records {
                                is.read()?;
                                is.extract_collection(&mut g)?;
                                for (gid, v) in g.iter() {
                                    assert_eq!(*v, entry.index * 100 + rec * 10 + gid as u64);
                                }
                            }
                            consumed.push(entry.index);
                            Ok(())
                        })
                        .unwrap();
                    assert!(got, "segment {seg} was sealed but not visible");
                    assert!(!r.poll(|_, _| Ok(())).unwrap(), "over-read after {seg}");
                }
                assert_eq!(consumed, vec![0, 1, 2]);
                let stats = s.stats();
                assert_eq!(stats.records_appended, 6);
                assert_eq!(stats.segments_sealed, 3);
                r.detach().unwrap();
                s.close().unwrap();
            },
        )
        .unwrap();
        // The trace carries the full streaming event vocabulary (checked
        // on rank 0's lane; all lanes see the same decision events).
        let trace = sink.take();
        let lane0: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.rank == 0)
            .cloned()
            .collect();
        let counts = OpCounts::from_events(&lane0);
        assert_eq!(counts.segments_sealed, 3);
        assert_eq!(counts.tail_attaches, 1);
        assert_eq!(counts.tail_consumes, 3);
        assert_eq!(counts.tail_detaches, 1);
        assert!(counts.sealed_bytes > 0);
    }

    #[test]
    fn open_segment_is_invisible_and_refused_by_readers() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let lo = layout(4, 2);
            let mut s = AppendStream::create(ctx, &p, &lo, "live").unwrap();
            let c = Collection::new(ctx, lo.clone(), |g| g as u32).unwrap();
            s.insert_collection(&c).unwrap();
            s.append().unwrap();
            // Unsealed: a direct open of the segment file is refused with
            // the active-append verdict, and the tail sees nothing.
            let open = s.open_segment().unwrap();
            let file = segment_file_name("live", open);
            // Flush the window so the only barrier to reading is the flag.
            match IStream::open(ctx, &p, &lo, &file) {
                Err(StreamError::ActiveAppend { .. }) => {}
                Err(e) => panic!("wrong refusal: {e}"),
                Ok(_) => panic!("open segment must not be readable"),
            }
            let mut r = TailReader::attach(ctx, &p, &lo, "live").unwrap();
            assert!(!r.poll(|_, _| Ok(())).unwrap());
            s.seal().unwrap();
            assert!(r.poll(|_, _| Ok(())).unwrap());
            IStream::open(ctx, &p, &lo, &file).unwrap().close().unwrap();
            r.detach().unwrap();
            s.close().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn retention_compacts_under_budget_but_never_past_a_reader() {
        let pfs = Pfs::in_memory(2);
        let sink = TraceSink::new(2);
        let p = pfs.clone();
        Machine::run(
            MachineConfig::functional(2).traced(sink.clone()),
            move |ctx| {
                let lo = layout(4, 2);
                let opts = AppendOptions {
                    retention_bytes: Some(1), // every sealed byte is over budget
                    ..Default::default()
                };
                let mut s = AppendStream::create_with(ctx, &p, &lo, "gc", opts).unwrap();
                let c = Collection::new(ctx, lo.clone(), |g| g as u64).unwrap();
                // With a lagging reader attached, nothing may be compacted.
                let mut r = TailReader::attach(ctx, &p, &lo, "gc").unwrap();
                for _ in 0..2 {
                    s.insert_collection(&c).unwrap();
                    s.append().unwrap();
                    s.seal().unwrap();
                }
                assert!(p.exists(&segment_file_name("gc", 0)), "reader at 0 pins it");
                assert_eq!(s.stats().segments_compacted, 0);
                // The reader consumes segment 0: the next seal may reclaim it,
                // but segment 1 (now the cursor) stays.
                assert!(r.poll(|_, _| Ok(())).unwrap());
                s.insert_collection(&c).unwrap();
                s.append().unwrap();
                s.seal().unwrap();
                assert!(
                    !p.exists(&segment_file_name("gc", 0)),
                    "consumed + over budget"
                );
                assert!(p.exists(&segment_file_name("gc", 1)), "cursor pins it");
                // Detaching releases the pin: the next seal sweeps the rest.
                r.detach().unwrap();
                s.insert_collection(&c).unwrap();
                s.append().unwrap();
                s.seal().unwrap();
                for seg in 1..3 {
                    assert!(!p.exists(&segment_file_name("gc", seg)), "segment {seg}");
                }
                assert!(p.exists(&segment_file_name("gc", 3)), "newest always kept");
                s.close().unwrap();
            },
        )
        .unwrap();
        let trace = sink.take();
        let lane1: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.rank == 1)
            .cloned()
            .collect();
        let counts = OpCounts::from_events(&lane1);
        assert_eq!(counts.compactions, 3);
        assert!(counts.compacted_bytes > 0);
    }

    #[test]
    fn late_attach_starts_at_oldest_retained_segment() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let lo = layout(4, 2);
            let opts = AppendOptions {
                retention_bytes: Some(1),
                ..Default::default()
            };
            let mut s = AppendStream::create_with(ctx, &p, &lo, "late", opts).unwrap();
            let c = Collection::new(ctx, lo.clone(), |g| g as u16).unwrap();
            for _ in 0..3 {
                s.insert_collection(&c).unwrap();
                s.append().unwrap();
                s.seal().unwrap();
            }
            // Segments 0 and 1 are gone; a late reader starts at 2.
            let mut r = TailReader::attach(ctx, &p, &lo, "late").unwrap();
            assert_eq!(r.next_segment(), 2);
            let mut seen = Vec::new();
            while r.poll(|_, entry| {
                seen.push(entry.index);
                Ok(())
            })? {}
            assert_eq!(seen, vec![2]);
            r.detach().unwrap();
            s.close().unwrap();
            Ok::<(), StreamError>(())
        })
        .unwrap()
        .into_iter()
        .for_each(|r| r.unwrap());
    }

    #[test]
    fn seal_without_open_segment_is_rejected_and_resume_continues_indices() {
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let lo = layout(2, 1);
            let mut s = AppendStream::create(ctx, &p, &lo, "log").unwrap();
            assert!(matches!(
                s.seal(),
                Err(StreamError::StateViolation { op: "seal", .. })
            ));
            let c = Collection::new(ctx, lo.clone(), |g| g as u8).unwrap();
            s.insert_collection(&c).unwrap();
            s.append().unwrap();
            s.close().unwrap(); // seals segment 0
                                // A second producer resumes after the sealed prefix.
            let mut s2 = AppendStream::create(ctx, &p, &lo, "log").unwrap();
            s2.insert_collection(&c).unwrap();
            s2.append().unwrap();
            assert_eq!(s2.open_segment(), Some(1));
            s2.close().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn window_depth_counts_stalls() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let lo = layout(4, 2);
            let opts = AppendOptions {
                window_depth: 3,
                ..Default::default()
            };
            let mut s = AppendStream::create_with(ctx, &p, &lo, "w", opts).unwrap();
            let c = Collection::new(ctx, lo.clone(), |g| g as u64).unwrap();
            for _ in 0..5 {
                s.insert_collection(&c).unwrap();
                s.append().unwrap();
            }
            // Appends 4 and 5 found the depth-3 window full.
            assert_eq!(s.stats().forced_retires, 2);
            s.close().unwrap();
            Ok::<(), StreamError>(())
        })
        .unwrap()
        .into_iter()
        .for_each(|r| r.unwrap());
    }
}
