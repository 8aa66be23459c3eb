//! The self-describing d/stream file format.
//!
//! Layout of a d/stream file (paper §4.1: "information about the
//! distribution … and about the size of the data to be output from each
//! element needs to be written to the file prior to the actual data"):
//!
//! ```text
//! FileHeader                     -- once, at offset 0
//! WriteRecord*                   -- one per write()
//!
//! WriteRecord :=
//!   RecordHeader                 -- fixed 80 bytes
//!   SizeTable                    -- u64 per element, in writer node order
//!   Data                         -- element chunks, in writer node order;
//!                                -- within an element, insert chunks in
//!                                -- insert order (interleaving)
//!   RecordSeal                   -- version 2: 20-byte commit seal
//! ```
//!
//! Everything a reader needs — writer processor count, distribution,
//! alignment, element count, per-element sizes — is in the file, which is
//! why `read()` takes no metadata from the programmer and works across
//! changes of processor count or distribution.
//!
//! **Version history.** Version 1 ends each record at its data. Version 2
//! appends a [`RecordSeal`] — magic, the record's length and a checksum
//! over header ++ size table ++ data — written *after* the data lands, so
//! a crash mid-record leaves a detectably unsealed tail instead of a
//! silently short file. Version-1 files remain readable (no seals, no
//! verification); version-2 writers refuse to append to version-1 files.

use dstreams_collections::LayoutDescriptor;
use dstreams_machine::wire::{ReadError, Reader};

use crate::error::StreamError;

/// Magic bytes opening every d/stream file.
pub const FILE_MAGIC: [u8; 8] = *b"DSTRM1\0\0";
/// Current format version (the one new files are written with).
pub const FORMAT_VERSION: u32 = 2;
/// Oldest format version this library still reads.
pub const MIN_SUPPORTED_VERSION: u32 = 1;
/// Magic bytes opening every write record.
pub const RECORD_MAGIC: [u8; 4] = *b"DREC";
/// Magic bytes opening every record seal (version 2).
pub const SEAL_MAGIC: [u8; 4] = *b"DSEA";

/// Fixed-size file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHeader {
    /// Format version.
    pub version: u32,
    /// Flag bits (bit 0: checked mode).
    pub flags: u32,
}

impl FileHeader {
    /// Serialized length.
    pub const LEN: usize = 16;

    /// Flag bit: stream was written in checked mode.
    pub const FLAG_CHECKED: u32 = 1;

    /// Flag bit: the file is an *open* append-stream segment. Set when
    /// the segment is created and cleared by the segment seal, so a set
    /// bit means a producer may still be appending: tail readers must
    /// not open the file and `recovery_scan` must not truncate it.
    pub const FLAG_ACTIVE_APPEND: u32 = 2;

    /// Byte offset of the `flags` word inside the encoded header (the
    /// segment seal clears [`Self::FLAG_ACTIVE_APPEND`] with a 4-byte
    /// in-place write at this offset).
    pub const FLAGS_OFFSET: u64 = 12;

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN);
        v.extend_from_slice(&FILE_MAGIC);
        v.extend_from_slice(&self.version.to_le_bytes());
        v.extend_from_slice(&self.flags.to_le_bytes());
        v
    }

    /// Decode and validate.
    pub fn decode(b: &[u8]) -> Result<FileHeader, StreamError> {
        let mut r = Reader::new(b);
        let mut fields = || -> Result<_, ReadError> { Ok((r.array()?, r.u32()?, r.u32()?)) };
        let Ok((FILE_MAGIC, version, flags)) = fields() else {
            return Err(StreamError::BadMagic);
        };
        if !(MIN_SUPPORTED_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(StreamError::UnsupportedVersion(version));
        }
        Ok(FileHeader { version, flags })
    }

    /// Whether checked mode was on.
    pub fn checked(&self) -> bool {
        self.flags & Self::FLAG_CHECKED != 0
    }

    /// Whether records in this file carry commit seals (version ≥ 2).
    pub fn sealed(&self) -> bool {
        self.version >= 2
    }

    /// Whether the file declares active-append state (an unsealed
    /// append-stream segment a producer may still be writing).
    pub fn active_append(&self) -> bool {
        self.flags & Self::FLAG_ACTIVE_APPEND != 0
    }
}

/// The commit seal closing every version-2 write record.
///
/// Written *after* the record's data has landed, it is the record's
/// durability point: a record whose seal is present, well-formed and
/// whose checksum matches is committed; anything after the last sealed
/// record is a torn tail that a crash left behind, which
/// [`crate::recovery_scan`] finds and `dsdump --recover` truncates away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordSeal {
    /// Length of the sealed span: record header + size table + data.
    pub record_len: u64,
    /// [`dstreams_pfs::ChunkSum`] hash over the sealed span.
    pub checksum: u64,
}

impl RecordSeal {
    /// Serialized length.
    pub const LEN: usize = 4 + 8 + 8;

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN);
        v.extend_from_slice(&SEAL_MAGIC);
        v.extend_from_slice(&self.record_len.to_le_bytes());
        v.extend_from_slice(&self.checksum.to_le_bytes());
        v
    }

    /// Decode and validate.
    pub fn decode(b: &[u8]) -> Result<RecordSeal, StreamError> {
        let mut r = Reader::new(b);
        let mut fields = || -> Result<_, ReadError> { Ok((r.array()?, r.u64()?, r.u64()?)) };
        let Ok((magic, record_len, checksum)) = fields() else {
            return Err(StreamError::CorruptRecord(format!(
                "record seal truncated: {} of {} bytes",
                b.len(),
                Self::LEN
            )));
        };
        if magic != SEAL_MAGIC {
            return Err(StreamError::CorruptRecord(
                "record seal magic missing".into(),
            ));
        }
        Ok(RecordSeal {
            record_len,
            checksum,
        })
    }
}

/// How the metadata (size table) of a record was produced — an ablation
/// knob exposed because the paper discusses both strategies (§4.1 step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetaMode {
    /// Size information written from all nodes concurrently in a separate
    /// parallel operation (large collections).
    Parallel,
    /// Size information gathered to node 0 and written at the head of its
    /// per-node buffer (small collections, saves the latency of the extra
    /// parallel operation).
    Gathered,
}

impl MetaMode {
    fn code(self) -> u32 {
        match self {
            MetaMode::Parallel => 0,
            MetaMode::Gathered => 1,
        }
    }

    fn from_code(c: u32) -> Option<MetaMode> {
        match c {
            0 => Some(MetaMode::Parallel),
            1 => Some(MetaMode::Gathered),
            _ => None,
        }
    }
}

/// Fixed-size header of one write record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordHeader {
    /// Number of elements in the collection(s) of this record.
    pub n_elements: u64,
    /// Number of inserts in the interleave group.
    pub n_inserts: u32,
    /// Flag bits (bit 0: checked mode).
    pub flags: u32,
    /// Metadata strategy used (informational; the byte layout is the same).
    pub meta_mode: MetaMode,
    /// Placement of the writing collection.
    pub layout: LayoutDescriptor,
    /// Total bytes in the data region (sum of the size table).
    pub data_len: u64,
}

impl RecordHeader {
    /// Serialized length.
    pub const LEN: usize = 4 + 8 + 4 + 4 + 4 + LayoutDescriptor::WIRE_LEN + 8;

    /// Flag bit: record written in checked mode.
    pub const FLAG_CHECKED: u32 = 1;

    /// Bytes the record spans on the file: header, size table and data
    /// (the span a seal certifies, which excludes the seal itself).
    /// A damaged header can claim any sizes, so the sum is checked and
    /// an overflow is a [`StreamError::CorruptRecord`].
    pub fn span(&self) -> Result<u64, StreamError> {
        self.n_elements
            .checked_mul(8)
            .and_then(|t| t.checked_add(Self::LEN as u64))
            .and_then(|t| t.checked_add(self.data_len))
            .ok_or_else(|| {
                StreamError::CorruptRecord(format!(
                    "record header claims {} elements and {} data bytes: more than 2^64 bytes",
                    self.n_elements, self.data_len
                ))
            })
    }

    /// Encode to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(Self::LEN);
        v.extend_from_slice(&RECORD_MAGIC);
        v.extend_from_slice(&self.n_elements.to_le_bytes());
        v.extend_from_slice(&self.n_inserts.to_le_bytes());
        v.extend_from_slice(&self.flags.to_le_bytes());
        v.extend_from_slice(&self.meta_mode.code().to_le_bytes());
        v.extend_from_slice(&self.layout.encode());
        v.extend_from_slice(&self.data_len.to_le_bytes());
        debug_assert_eq!(v.len(), Self::LEN);
        v
    }

    /// Decode and validate.
    pub fn decode(b: &[u8]) -> Result<RecordHeader, StreamError> {
        let mut r = Reader::new(b);
        let mut fields = || -> Result<_, ReadError> {
            let head = (r.array()?, r.u64()?, r.u32()?, r.u32()?, r.u32()?);
            Ok((head, LayoutDescriptor::read(&mut r)?, r.u64()?))
        };
        let Ok(((magic, n_elements, n_inserts, flags, mode), layout, data_len)) = fields() else {
            return Err(StreamError::CorruptRecord(format!(
                "record header truncated: {} of {} bytes",
                b.len(),
                Self::LEN
            )));
        };
        if magic != RECORD_MAGIC {
            return Err(StreamError::CorruptRecord(
                "record magic missing (file position desynchronized?)".into(),
            ));
        }
        let meta_mode = MetaMode::from_code(mode)
            .ok_or_else(|| StreamError::CorruptRecord("unknown metadata mode".into()))?;
        Ok(RecordHeader {
            n_elements,
            n_inserts,
            flags,
            meta_mode,
            layout,
            data_len,
        })
    }

    /// Whether checked mode was on.
    pub fn checked(&self) -> bool {
        self.flags & Self::FLAG_CHECKED != 0
    }
}

/// Encode a size table (u64 per element, writer node order).
pub fn encode_sizes(sizes: &[u64]) -> Vec<u8> {
    let mut v = Vec::with_capacity(sizes.len() * 8);
    for s in sizes {
        v.extend_from_slice(&s.to_le_bytes());
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::{DistKind, Layout};

    #[test]
    fn file_header_roundtrips() {
        let h = FileHeader {
            version: FORMAT_VERSION,
            flags: FileHeader::FLAG_CHECKED,
        };
        let b = h.encode();
        assert_eq!(b.len(), FileHeader::LEN);
        let h2 = FileHeader::decode(&b).unwrap();
        assert_eq!(h, h2);
        assert!(h2.checked());
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut b = FileHeader {
            version: FORMAT_VERSION,
            flags: 0,
        }
        .encode();
        b[0] = b'X';
        assert!(matches!(FileHeader::decode(&b), Err(StreamError::BadMagic)));

        let mut b = FileHeader {
            version: FORMAT_VERSION,
            flags: 0,
        }
        .encode();
        b[8] = 99;
        assert!(matches!(
            FileHeader::decode(&b),
            Err(StreamError::UnsupportedVersion(99))
        ));
        assert!(matches!(
            FileHeader::decode(&[0u8; 4]),
            Err(StreamError::BadMagic)
        ));
    }

    #[test]
    fn version_1_files_are_still_readable() {
        let mut b = FileHeader {
            version: FORMAT_VERSION,
            flags: 0,
        }
        .encode();
        b[8..12].copy_from_slice(&1u32.to_le_bytes());
        let h = FileHeader::decode(&b).unwrap();
        assert_eq!(h.version, 1);
        assert!(!h.sealed());
        assert!(FileHeader {
            version: FORMAT_VERSION,
            flags: 0
        }
        .sealed());
    }

    #[test]
    fn record_seal_roundtrips_and_rejects_damage() {
        let s = RecordSeal {
            record_len: 12345,
            checksum: 0xdead_beef_cafe_f00d,
        };
        let b = s.encode();
        assert_eq!(b.len(), RecordSeal::LEN);
        assert_eq!(RecordSeal::decode(&b).unwrap(), s);
        assert!(RecordSeal::decode(&b[..10]).is_err());
        let mut bad = b.clone();
        bad[0] = b'X';
        assert!(RecordSeal::decode(&bad).is_err());
    }

    fn sample_record() -> RecordHeader {
        let layout = Layout::dense(12, 4, DistKind::Cyclic).unwrap();
        RecordHeader {
            n_elements: 12,
            n_inserts: 3,
            flags: 0,
            meta_mode: MetaMode::Gathered,
            layout: layout.descriptor(),
            data_len: 4096,
        }
    }

    #[test]
    fn record_header_roundtrips() {
        let r = sample_record();
        let b = r.encode();
        assert_eq!(b.len(), RecordHeader::LEN);
        let r2 = RecordHeader::decode(&b).unwrap();
        assert_eq!(r, r2);
        assert!(!r2.checked());
    }

    #[test]
    fn truncated_or_desynced_record_is_rejected() {
        let b = sample_record().encode();
        assert!(matches!(
            RecordHeader::decode(&b[..10]),
            Err(StreamError::CorruptRecord(_))
        ));
        let mut bad = b.clone();
        bad[0] = b'Z';
        assert!(matches!(
            RecordHeader::decode(&bad),
            Err(StreamError::CorruptRecord(_))
        ));
    }

    #[test]
    fn size_table_roundtrips_and_validates_length() {
        let sizes = vec![0u64, 17, 5600, u64::from(u32::MAX) + 7];
        let b = encode_sizes(&sizes);
        let decode = |b, n| Reader::parse(b, |r| Ok(r.u64s(n)?.collect::<Vec<_>>()));
        assert_eq!(decode(&b, 4).unwrap(), sizes);
        assert!(decode(&b, 5).is_err());
        assert!(decode(&b[1..], 4).is_err());
    }
}
