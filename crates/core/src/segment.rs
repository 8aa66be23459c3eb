//! The append-stream segment namespace: file naming and the manifest.
//!
//! An unbounded append stream is a sequence of *segments*, each an
//! ordinary format-v2 d/stream file named [`segment_file_name`]. The
//! open segment carries [`crate::FileHeader::FLAG_ACTIVE_APPEND`] until
//! the producer seals it; sealed segments are immutable snapshots that
//! tail readers consume and retention eventually compacts away.
//!
//! The source of truth tying the segments together is the *manifest*, a
//! small side file named [`manifest_file_name`] that the producer
//! rewrites (root rank) at every state transition: which segments are
//! sealed (with their sizes), which one is open, how far retention has
//! compacted, and where every attached reader's consumption cursor
//! stands. The encoding is a self-contained little-endian binary format
//! so offline tools (`dsdump --tail`) can summarize a stream without a
//! machine.

use dstreams_machine::wire::{ReadError, Reader};

use crate::error::StreamError;

/// Magic bytes opening every stream manifest.
pub const MANIFEST_MAGIC: [u8; 8] = *b"DSMF1\0\0\0";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;

/// File name of segment `index` of append stream `stream`.
///
/// The zero-padded index keeps lexicographic listings in segment order.
pub fn segment_file_name(stream: &str, index: u64) -> String {
    format!("{stream}.seg{index:06}")
}

/// File name of the manifest of append stream `stream`.
pub fn manifest_file_name(stream: &str) -> String {
    format!("{stream}.stream")
}

/// One sealed segment the manifest still tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment index (monotonic from 0 over the stream's lifetime).
    pub index: u64,
    /// Records committed into the segment.
    pub records: u64,
    /// Payload bytes committed into the segment (its file size).
    pub bytes: u64,
}

/// One tail reader the manifest tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReaderEntry {
    /// Reader id (unique per stream).
    pub id: u32,
    /// Next segment index this reader will consume; everything below it
    /// (and at or above its attach point) has been consumed.
    pub next_segment: u64,
    /// Whether the reader detached; a detached cursor no longer holds
    /// back retention.
    pub detached: bool,
}

/// The manifest of one append stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamManifest {
    /// Every segment index below this has been compacted away.
    pub compacted_before: u64,
    /// The currently open (active-append) segment, if any.
    pub open_segment: Option<u64>,
    /// Sealed, not-yet-compacted segments in ascending index order.
    pub sealed: Vec<SegmentEntry>,
    /// Attached (and detached) tail readers in attach order.
    pub readers: Vec<ReaderEntry>,
}

impl StreamManifest {
    /// One past the highest sealed segment index (the exclusive upper
    /// bound of what a tail reader may consume right now).
    pub fn sealed_end(&self) -> u64 {
        self.sealed
            .last()
            .map_or(self.compacted_before, |s| s.index + 1)
    }

    /// Index the next created segment will take.
    pub fn next_segment_index(&self) -> u64 {
        match self.open_segment {
            Some(open) => open + 1,
            None => self.sealed_end(),
        }
    }

    /// The lowest consumption cursor over *live* (attached, not
    /// detached) readers — retention must never compact a segment at or
    /// above it. `None` when no live reader is attached.
    pub fn live_floor(&self) -> Option<u64> {
        self.readers
            .iter()
            .filter(|r| !r.detached)
            .map(|r| r.next_segment)
            .min()
    }

    /// Total payload bytes across the sealed, not-yet-compacted segments.
    pub fn sealed_bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum()
    }

    /// The tracked reader with the given id.
    pub fn reader(&self, id: u32) -> Option<&ReaderEntry> {
        self.readers.iter().find(|r| r.id == id)
    }

    /// Mutable access to the tracked reader with the given id.
    pub fn reader_mut(&mut self, id: u32) -> Option<&mut ReaderEntry> {
        self.readers.iter_mut().find(|r| r.id == id)
    }

    /// Encode to the on-file binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(
            MANIFEST_MAGIC.len()
                + 4
                + 8
                + 8
                + 4
                + self.sealed.len() * 24
                + 4
                + self.readers.len() * 13,
        );
        v.extend_from_slice(&MANIFEST_MAGIC);
        v.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        v.extend_from_slice(&self.compacted_before.to_le_bytes());
        v.extend_from_slice(&self.open_segment.unwrap_or(u64::MAX).to_le_bytes());
        v.extend_from_slice(&(self.sealed.len() as u32).to_le_bytes());
        for s in &self.sealed {
            v.extend_from_slice(&s.index.to_le_bytes());
            v.extend_from_slice(&s.records.to_le_bytes());
            v.extend_from_slice(&s.bytes.to_le_bytes());
        }
        v.extend_from_slice(&(self.readers.len() as u32).to_le_bytes());
        for r in &self.readers {
            v.extend_from_slice(&r.id.to_le_bytes());
            v.extend_from_slice(&r.next_segment.to_le_bytes());
            v.push(u8::from(r.detached));
        }
        v
    }

    /// Decode the on-file binary form.
    pub fn decode(b: &[u8]) -> Result<StreamManifest, StreamError> {
        let corrupt = |e: ReadError| StreamError::CorruptRecord(format!("stream manifest: {e}"));
        let mut r = Reader::new(b);
        if r.array().map_err(corrupt)? != MANIFEST_MAGIC {
            return Err(StreamError::BadMagic);
        }
        let version = r.u32().map_err(corrupt)?;
        if version != MANIFEST_VERSION {
            return Err(StreamError::UnsupportedVersion(version));
        }
        let mut body = || -> Result<_, ReadError> {
            let compacted_before = r.u64()?;
            let open_raw = r.u64()?;
            let sealed = (0..r.count32(24)?)
                .map(|_| {
                    Ok(SegmentEntry {
                        index: r.u64()?,
                        records: r.u64()?,
                        bytes: r.u64()?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            let readers = (0..r.count32(13)?)
                .map(|_| {
                    Ok(ReaderEntry {
                        id: r.u32()?,
                        next_segment: r.u64()?,
                        detached: r.u8()? != 0,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            r.finish()?;
            Ok((compacted_before, open_raw, sealed, readers))
        };
        let (compacted_before, open_raw, sealed, readers) = body().map_err(corrupt)?;
        let open_segment = (open_raw != u64::MAX).then_some(open_raw);
        if sealed.windows(2).any(|w| w[0].index >= w[1].index) {
            return Err(StreamError::CorruptRecord(
                "stream manifest: sealed segments out of order".into(),
            ));
        }
        Ok(StreamManifest {
            compacted_before,
            open_segment,
            sealed,
            readers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StreamManifest {
        StreamManifest {
            compacted_before: 2,
            open_segment: Some(5),
            sealed: vec![
                SegmentEntry {
                    index: 2,
                    records: 3,
                    bytes: 100,
                },
                SegmentEntry {
                    index: 3,
                    records: 1,
                    bytes: 40,
                },
                SegmentEntry {
                    index: 4,
                    records: 2,
                    bytes: 60,
                },
            ],
            readers: vec![
                ReaderEntry {
                    id: 1,
                    next_segment: 4,
                    detached: false,
                },
                ReaderEntry {
                    id: 2,
                    next_segment: 3,
                    detached: true,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        assert_eq!(StreamManifest::decode(&m.encode()).unwrap(), m);
        let empty = StreamManifest::default();
        assert_eq!(StreamManifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn derived_quantities() {
        let m = sample();
        assert_eq!(m.sealed_end(), 5);
        assert_eq!(m.next_segment_index(), 6);
        // Only reader 1 is live; detached reader 2's lower cursor is ignored.
        assert_eq!(m.live_floor(), Some(4));
        assert_eq!(m.sealed_bytes(), 200);
        assert_eq!(m.reader(2).unwrap().next_segment, 3);
        let empty = StreamManifest::default();
        assert_eq!(empty.sealed_end(), 0);
        assert_eq!(empty.next_segment_index(), 0);
        assert_eq!(empty.live_floor(), None);
    }

    #[test]
    fn decode_rejects_damage() {
        let m = sample().encode();
        assert!(StreamManifest::decode(&m[..m.len() - 1]).is_err());
        assert!(matches!(
            StreamManifest::decode(b"not a manifest at all"),
            Err(StreamError::BadMagic)
        ));
        let mut wrong_version = m.clone();
        wrong_version[8] = 9;
        assert!(matches!(
            StreamManifest::decode(&wrong_version),
            Err(StreamError::UnsupportedVersion(9))
        ));
        let mut trailing = m;
        trailing.push(0);
        assert!(StreamManifest::decode(&trailing).is_err());
    }

    #[test]
    fn names_sort_in_segment_order() {
        assert_eq!(segment_file_name("log", 7), "log.seg000007");
        assert!(segment_file_name("log", 9) < segment_file_name("log", 10));
        assert_eq!(manifest_file_name("log"), "log.stream");
    }
}
