//! Offline inspection and recovery of d/stream files — the
//! `ncdump`/`h5dump` analogue plus an `fsck`.
//!
//! Because d/stream files are self-describing, a plain byte image is
//! enough to recover the full structure: every record's element count,
//! insert count, writer machine size, distribution, alignment, and
//! per-element sizes. No simulated machine is needed; this module parses
//! raw bytes (see the `dsdump` binary for the CLI).
//!
//! For sealed (version-2) files, [`inspect_bytes`] additionally verifies
//! every record's commit seal — length and checksum — and
//! [`recovery_scan`] locates the longest sealed prefix of a
//! crash-damaged image, the safe truncation point that `dsdump --recover`
//! applies.

use dstreams_collections::Layout;
use dstreams_machine::wire::Reader;
use dstreams_pfs::ChunkSum;

use crate::error::StreamError;
use crate::format::{FileHeader, MetaMode, RecordHeader, RecordSeal};

/// Summary of one write record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    /// Record ordinal in the file (0-based).
    pub index: usize,
    /// File offset of the record header.
    pub offset: u64,
    /// Elements covered by the record.
    pub n_elements: usize,
    /// Inserts in the interleave group.
    pub n_inserts: u32,
    /// Whether checked mode was on.
    pub checked: bool,
    /// Metadata strategy that produced the record.
    pub meta_mode: MetaMode,
    /// Writer's placement (nprocs, distribution, alignment).
    pub layout: Layout,
    /// Total data bytes.
    pub data_len: u64,
    /// Smallest element, in bytes.
    pub min_element: u64,
    /// Largest element, in bytes.
    pub max_element: u64,
    /// Whether the record carries a verified commit seal (version ≥ 2).
    pub sealed: bool,
}

/// Summary of a whole d/stream file.
#[derive(Debug, Clone, PartialEq)]
pub struct FileSummary {
    /// File-level header.
    pub header: FileHeader,
    /// Per-record summaries, in file order.
    pub records: Vec<RecordSummary>,
    /// Total file bytes.
    pub total_bytes: u64,
}

/// Parse the record at `r`'s cursor and move `r` past it. `sealed`
/// selects version-2 handling: a seal must follow the data, its recorded
/// length must match and its checksum must equal the digest of the
/// record's bytes.
fn parse_record(
    r: &mut Reader<'_>,
    index: usize,
    sealed: bool,
) -> Result<RecordSummary, StreamError> {
    let offset = r.pos() as u64;
    let mut body = *r;
    let rh_bytes = body.take(RecordHeader::LEN).map_err(|_| {
        StreamError::CorruptRecord(format!(
            "file ends mid-record-header at offset {offset} (of {})",
            offset as usize + r.remaining()
        ))
    })?;
    let rh = RecordHeader::decode(rh_bytes)?;
    let span = rh.span()?;
    let table_start = body.pos();
    // Cannot overflow: the table is part of the checked span.
    let sizes = body.u64s(rh.n_elements as usize).map_err(|_| {
        StreamError::CorruptRecord(format!(
            "file ends mid-size-table in record {index} at offset {table_start}"
        ))
    })?;
    let total = sizes.clone().try_fold(0u64, |acc, s| acc.checked_add(s));
    if total != Some(rh.data_len) {
        return Err(StreamError::CorruptRecord(format!(
            "record {index}: size table sums to {}, header claims {}",
            total.map_or("more than 2^64".to_string(), |t| t.to_string()),
            rh.data_len
        )));
    }
    let image = r
        .take(span as usize)
        .map_err(|_| StreamError::CorruptRecord(format!("file ends mid-data in record {index}")))?;
    if sealed {
        let seal_bytes = r.take(RecordSeal::LEN).map_err(|_| {
            StreamError::CorruptRecord(format!("file ends mid-seal in record {index}"))
        })?;
        let seal = RecordSeal::decode(seal_bytes)?;
        if seal.record_len != span {
            return Err(StreamError::CorruptRecord(format!(
                "record {index}: seal claims {} bytes, structure implies {span}",
                seal.record_len
            )));
        }
        if ChunkSum::of(image).hash() != seal.checksum {
            return Err(StreamError::CorruptRecord(format!(
                "record {index}: commit-seal checksum mismatch (torn or corrupted)"
            )));
        }
    }
    let layout = Layout::from_descriptor(&rh.layout)?;
    Ok(RecordSummary {
        index,
        offset,
        n_elements: rh.n_elements as usize,
        n_inserts: rh.n_inserts,
        checked: rh.checked(),
        meta_mode: rh.meta_mode,
        layout,
        data_len: rh.data_len,
        min_element: sizes.clone().min().unwrap_or(0),
        max_element: sizes.max().unwrap_or(0),
        sealed,
    })
}

/// Parse a complete d/stream file image.
pub fn inspect_bytes(bytes: &[u8]) -> Result<FileSummary, StreamError> {
    let mut r = Reader::new(bytes);
    let header = FileHeader::decode(r.take(FileHeader::LEN).unwrap_or_default())?;
    let sealed = header.sealed();
    let mut records = Vec::new();
    while r.remaining() > 0 {
        let summary = parse_record(&mut r, records.len(), sealed)?;
        // The stored placement must describe this record. Checked here
        // rather than in `parse_record` so that `recovery_scan` still
        // counts such a record as sealed: its data and seal are intact,
        // only the metadata is inconsistent, and truncating it away
        // would destroy good data.
        if summary.layout.len() != summary.n_elements {
            return Err(StreamError::CorruptRecord(format!(
                "record {}: layout descriptor covers {} element(s) but the record \
                 table lists {} — the stored placement cannot describe this record",
                summary.index,
                summary.layout.len(),
                summary.n_elements
            )));
        }
        records.push(summary);
    }
    Ok(FileSummary {
        header,
        records,
        total_bytes: bytes.len() as u64,
    })
}

/// What [`recovery_scan`] found in a (possibly crash-damaged) image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Bytes of the image covered by the file header plus fully sealed,
    /// checksum-verified records — the safe truncation point.
    pub sealed_bytes: u64,
    /// Number of sealed records in that prefix.
    pub sealed_records: usize,
    /// Whether anything (a torn tail) follows the sealed prefix.
    pub torn: bool,
}

/// Locate the longest valid prefix of a sealed d/stream image: the file
/// header followed by whole records whose seals verify (structure *and*
/// checksum). Truncating the file to `sealed_bytes` yields a well-formed
/// stream that [`inspect_bytes`] and `IStream::open` both accept — this
/// is what `dsdump --recover` does after a crash.
///
/// Version-1 files carry no seals, so no safe truncation point can be
/// derived; they are reported as [`StreamError::UnsupportedVersion`].
///
/// A file declaring active-append state (an open append-stream segment,
/// [`FileHeader::FLAG_ACTIVE_APPEND`]) is refused as
/// [`StreamError::ActiveAppend`]: its tail is not a crash artifact but a
/// producer mid-append, and truncating it would destroy live data. Seal
/// the segment (or let the producer's recovery path clear the flag)
/// before recovering.
pub fn recovery_scan(bytes: &[u8]) -> Result<RecoveryReport, StreamError> {
    let mut r = Reader::new(bytes);
    let header = FileHeader::decode(r.take(FileHeader::LEN).unwrap_or_default())?;
    if !header.sealed() {
        return Err(StreamError::UnsupportedVersion(header.version));
    }
    if header.active_append() {
        return Err(StreamError::ActiveAppend {
            file: "<image>".to_string(),
        });
    }
    let mut sealed_records = 0usize;
    while r.remaining() > 0 {
        let mut next = r;
        if parse_record(&mut next, sealed_records, true).is_err() {
            break;
        }
        r = next;
        sealed_records += 1;
    }
    Ok(RecoveryReport {
        sealed_bytes: r.pos() as u64,
        sealed_records,
        torn: r.remaining() > 0,
    })
}

impl FileSummary {
    /// Render a human-readable report.
    pub fn render(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{name}: d/stream file, format v{}, {} bytes, {} record(s){}",
            self.header.version,
            self.total_bytes,
            self.records.len(),
            if self.header.checked() {
                ", checked mode"
            } else {
                ""
            }
        );
        for r in &self.records {
            let d = r.layout.distribution();
            let _ = writeln!(
                out,
                "  record {} @ {:>8}: {} elements x {} insert(s), {} data bytes \
                 (elements {}..{} B), writer: {} procs, {:?} over {} cells, meta {:?}{}",
                r.index,
                r.offset,
                r.n_elements,
                r.n_inserts,
                r.data_len,
                r.min_element,
                r.max_element,
                r.layout.nprocs(),
                d.kind(),
                d.len(),
                r.meta_mode,
                if r.sealed { ", sealed" } else { "" },
            );
        }
        out
    }

    /// Render a per-record report of the stored layout descriptors — what
    /// `dsdump --layout` prints. Every wire-descriptor field is shown
    /// (template, distribution kind and parameter, writer machine size,
    /// alignment), so a reader planning a cross-machine-size open can see
    /// the writer-side placement without opening the stream.
    pub fn render_layouts(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{name}: {} record(s), stored writer layout(s):",
            self.records.len()
        );
        for r in &self.records {
            let d = r.layout.distribution();
            let a = r.layout.alignment();
            let _ = writeln!(
                out,
                "  record {}: {} elements over a {}-cell template, {:?} across {} procs, \
                 align stride {} offset {}",
                r.index,
                r.n_elements,
                d.len(),
                d.kind(),
                r.layout.nprocs(),
                a.stride,
                a.offset,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::{Collection, DistKind};
    use dstreams_machine::{Machine, MachineConfig};
    use dstreams_pfs::{OpenMode, Pfs};

    use crate::ostream::OStream;

    fn file_bytes(pfs: &Pfs, name: &'static str) -> Vec<u8> {
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(false, name, OpenMode::Read).unwrap();
            let mut buf = vec![0u8; fh.len() as usize];
            fh.read_at(ctx, 0, &mut buf).unwrap();
            buf
        })
        .unwrap()
        .remove(0)
    }

    #[test]
    fn inspect_recovers_record_structure() {
        let pfs = Pfs::in_memory(3);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let layout = Layout::dense(9, 3, DistKind::Cyclic).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| vec![i as u8; i]).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "f").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.insert_collection(&g).unwrap();
            s.insert_with(&g, |v, ins| ins.prim(v.len() as u32))
                .unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();

        let summary = inspect_bytes(&file_bytes(&pfs, "f")).unwrap();
        assert_eq!(summary.records.len(), 2);
        let r0 = &summary.records[0];
        assert_eq!(r0.n_elements, 9);
        assert_eq!(r0.n_inserts, 1);
        assert_eq!(r0.layout.nprocs(), 3);
        assert_eq!(r0.layout.distribution().kind(), DistKind::Cyclic);
        // Element i is a length-prefixed vec of i bytes: 8 + i.
        assert_eq!(r0.min_element, 8);
        assert_eq!(r0.max_element, 8 + 8);
        let r1 = &summary.records[1];
        assert_eq!(r1.n_inserts, 2);
        assert!(r1.data_len > r0.data_len);
        let report = summary.render("f");
        assert!(report.contains("2 record(s)"));
        assert!(report.contains("9 elements"));
    }

    #[test]
    fn inspect_rejects_truncation_at_every_region() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(6, 2, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u64).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "t").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        let bytes = file_bytes(&pfs, "t");
        assert!(inspect_bytes(&bytes).is_ok());
        // Header region.
        assert!(matches!(
            inspect_bytes(&bytes[..10]),
            Err(StreamError::BadMagic)
        ));
        // Mid record header / size table / data.
        for cut in [
            FileHeader::LEN + 10,
            FileHeader::LEN + RecordHeader::LEN + 8,
            bytes.len() - 3,
        ] {
            assert!(
                matches!(
                    inspect_bytes(&bytes[..cut]),
                    Err(StreamError::CorruptRecord(_))
                ),
                "cut at {cut} must be detected"
            );
        }
    }

    #[test]
    fn inspect_verifies_seal_checksums() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u32).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "ck").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        let bytes = file_bytes(&pfs, "ck");
        let summary = inspect_bytes(&bytes).unwrap();
        assert!(summary.records[0].sealed);
        assert!(summary.render("ck").contains("sealed"));
        // Flip one data byte: structure still parses, checksum must not.
        let mut flipped = bytes.clone();
        let data_byte = bytes.len() - RecordSeal::LEN - 1;
        flipped[data_byte] ^= 0x40;
        assert!(matches!(
            inspect_bytes(&flipped),
            Err(StreamError::CorruptRecord(msg)) if msg.contains("checksum")
        ));
    }

    #[test]
    fn inspect_rejects_layout_inconsistent_with_record_table() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(6, 2, DistKind::Cyclic).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u32).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "ly").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        let mut bytes = file_bytes(&pfs, "ly");
        assert!(inspect_bytes(&bytes).is_ok());
        // Shrink the stored descriptor's element count (header offset 24
        // is the descriptor's n_elements field): still a decodable
        // layout, but one that cannot describe this record's 6-entry
        // size table.
        let desc_n = FileHeader::LEN + 24;
        bytes[desc_n..desc_n + 8].copy_from_slice(&5u64.to_le_bytes());
        // Re-seal so the checksum agrees: the inconsistency must be
        // caught structurally, not via the integrity check.
        let data_end = bytes.len() - RecordSeal::LEN;
        let digest = ChunkSum::of(&bytes[FileHeader::LEN..data_end]);
        bytes[data_end + 12..data_end + 20].copy_from_slice(&digest.hash().to_le_bytes());
        assert!(matches!(
            inspect_bytes(&bytes),
            Err(StreamError::CorruptRecord(msg)) if msg.contains("layout descriptor")
        ));
    }

    #[test]
    fn layout_report_prints_every_descriptor_field() {
        let pfs = Pfs::in_memory(3);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let layout = Layout::dense(9, 3, DistKind::BlockCyclic(2)).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u16).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "lr").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        let summary = inspect_bytes(&file_bytes(&pfs, "lr")).unwrap();
        let report = summary.render_layouts("lr");
        assert!(report.contains("9 elements"), "{report}");
        assert!(report.contains("9-cell template"), "{report}");
        assert!(report.contains("BlockCyclic(2)"), "{report}");
        assert!(report.contains("3 procs"), "{report}");
        assert!(report.contains("stride 1 offset 0"), "{report}");
    }

    #[test]
    fn recovery_scan_finds_the_sealed_prefix() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(4, 2, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u16).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "rec").unwrap();
            for _ in 0..3 {
                s.insert_collection(&g).unwrap();
                s.write().unwrap();
            }
            s.close().unwrap();
        })
        .unwrap();
        let bytes = file_bytes(&pfs, "rec");
        // Intact file: all three records sealed, nothing torn.
        let full = recovery_scan(&bytes).unwrap();
        assert_eq!(full.sealed_records, 3);
        assert_eq!(full.sealed_bytes, bytes.len() as u64);
        assert!(!full.torn);
        // Cut the image anywhere strictly inside record 3: the scan must
        // come back to the end of record 2, and truncating there must
        // produce an image inspect accepts.
        let r2_end = full.sealed_bytes as usize - (bytes.len() - FileHeader::LEN) / 3;
        for cut in [bytes.len() - 1, bytes.len() - RecordSeal::LEN, r2_end + 1] {
            let report = recovery_scan(&bytes[..cut]).unwrap();
            assert_eq!(report.sealed_records, 2, "cut at {cut}");
            assert!(report.torn, "cut at {cut}");
            let healed = &bytes[..report.sealed_bytes as usize];
            assert_eq!(inspect_bytes(healed).unwrap().records.len(), 2);
        }
        // A torn file header leaves nothing recoverable.
        assert!(recovery_scan(&bytes[..4]).is_err());
    }

    #[test]
    fn inspect_rejects_non_dstream_bytes() {
        assert!(matches!(
            inspect_bytes(b"definitely not a dstream"),
            Err(StreamError::BadMagic)
        ));
        assert!(matches!(inspect_bytes(&[]), Err(StreamError::BadMagic)));
    }
}
