//! Mutation property test over the binary formats: a valid image of a
//! small random write, damaged once, must read back through the public
//! API as a valid result or as the same typed error on every rank —
//! never a panic, an abort or a hang, and in well under a second.
//!
//! Each case starts from a d/stream file (version 1 or 2), a stream
//! manifest, a layout descriptor or a Panda array header, and damages it
//! in one of three ways: one field set to 0, 1, the image length ± 1,
//! its own value ± 1, `u32::MAX`, `u64::MAX` or `u64::MAX / 8`; one
//! flipped byte; or a truncation. The choice of damage mixes in
//! `DSTREAMS_FAULT_SEED` when it is set, so CI sweeps it per fault seed.

use std::time::{Duration, Instant};

use dstreams_collections::{
    Alignment, Collection, Composed2d, DistKind, Distribution, Layout, LayoutDescriptor,
};
use dstreams_core::{
    inspect_bytes, recovery_scan, FileHeader, IStream, OStream, ReaderEntry, RecordHeader,
    RecordSeal, SegmentEntry, StreamError, StreamManifest,
};
use dstreams_fixedio::panda;
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{OpenMode, Pfs};
use proptest::prelude::*;

/// Wall-clock bound on reading one damaged image, debug build included.
const CASE_BOUND: Duration = Duration::from_secs(1);

fn fault_seed() -> u64 {
    std::env::var("DSTREAMS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// SplitMix64 over the case's salt and the fault seed.
struct Mix(u64);

impl Mix {
    fn new(salt: u64) -> Self {
        Mix(salt ^ fault_seed().rotate_left(17))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// A little-endian field of an image: byte offset and width (4 or 8).
type Field = (usize, usize);

/// Damage `image` once: overwrite one of `fields`, flip a byte, or cut
/// the image short. Returns the damaged image and what was done.
fn mutate(image: &[u8], fields: &[Field], rng: &mut Mix) -> (Vec<u8>, String) {
    let mut out = image.to_vec();
    match rng.below(3) {
        0 if !fields.is_empty() => {
            let (at, width) = fields[rng.below(fields.len())];
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(&out[at..at + width]);
            let old = u64::from_le_bytes(word);
            let len = image.len() as u64;
            let candidates = [
                0,
                1,
                len - 1,
                len + 1,
                old.wrapping_sub(1),
                old.wrapping_add(1),
                u32::MAX.into(),
                u64::MAX,
                u64::MAX / 8,
            ];
            let value = candidates[rng.below(candidates.len())];
            out[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
            (
                out,
                format!("field at {at} ({width} bytes): {old} -> {value}"),
            )
        }
        1 => {
            let at = rng.below(out.len());
            let mask = 1 + rng.below(255) as u8;
            out[at] ^= mask;
            (out, format!("byte {at} ^= {mask:#x}"))
        }
        _ => {
            let len = rng.below(out.len());
            out.truncate(len);
            (out, format!("truncated to {len} of {}", image.len()))
        }
    }
}

fn store(pfs: &Pfs, name: &'static str, image: Vec<u8>) {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        let _ = p.remove(name);
        let fh = p.open(true, name, OpenMode::Create).unwrap();
        fh.write_at(ctx, 0, &image).unwrap();
    })
    .unwrap();
}

fn load(pfs: &Pfs, name: &'static str) -> Vec<u8> {
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

/// Every rank's outcome must be the same.
fn same_on_every_rank(outcomes: &[String], what: &str) -> Result<(), String> {
    match outcomes.iter().find(|o| *o != &outcomes[0]) {
        None => Ok(()),
        Some(other) => Err(format!(
            "{what}: ranks disagree: {:?} vs {other:?}",
            outcomes[0]
        )),
    }
}

fn kind_of(pick: u8) -> DistKind {
    match pick % 4 {
        0 => DistKind::Block,
        1 => DistKind::Cyclic,
        2 => DistKind::BlockCyclic(2),
        // One template row over one processor row: valid for any shape.
        _ => DistKind::Composed2d(Composed2d {
            rows: 1,
            grid_rows: 1,
            row_k: 0,
            col_k: 1,
        }),
    }
}

/// The fields of a d/stream image: file header words, then per record
/// every header and descriptor word, every size-table entry and (when
/// sealed) both seal words.
fn dstream_fields(image: &[u8]) -> Vec<Field> {
    let summary = inspect_bytes(image).expect("the undamaged image is valid");
    let mut fields = vec![(8, 4), (12, 4)];
    for r in &summary.records {
        let o = r.offset as usize;
        fields.extend([(o + 4, 8), (o + 12, 4), (o + 16, 4), (o + 20, 4)]);
        let d = o + 24;
        fields.extend([
            (d, 8),
            (d + 8, 8),
            (d + 16, 4),
            (d + 20, 4),
            (d + 24, 8),
            (d + 32, 8),
            (d + 40, 8),
        ]);
        fields.push((d + LayoutDescriptor::WIRE_LEN, 8));
        let table = o + RecordHeader::LEN;
        fields.extend((0..r.n_elements).map(|k| (table + 8 * k, 8)));
        if r.sealed {
            let seal = table + 8 * r.n_elements + r.data_len as usize;
            fields.extend([(seal + 4, 8), (seal + 12, 8)]);
        }
    }
    fields
}

/// The same records as a version-1 image: version word 1, seals dropped.
fn unsealed(image: &[u8]) -> Vec<u8> {
    let summary = inspect_bytes(image).unwrap();
    let mut out = FileHeader {
        version: 1,
        flags: summary.header.flags,
    }
    .encode();
    for r in &summary.records {
        let o = r.offset as usize;
        let span = RecordHeader::LEN + 8 * r.n_elements + r.data_len as usize;
        out.extend_from_slice(&image[o..o + span]);
    }
    out
}

/// Read every record of `name` on `nprocs` ranks under an `n`-element
/// layout, touching every local element's bytes through a view; each
/// rank reports its record count or its error. Element payloads are the
/// element type's to decode, on the owning rank alone, so the view
/// leaves them opaque: what must agree across ranks is the format.
fn read_all(pfs: &Pfs, name: &'static str, nprocs: usize, kind: DistKind, n: usize) -> Vec<String> {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(nprocs), move |ctx| {
        let layout = Layout::dense(n, nprocs, kind).unwrap();
        let run = || -> Result<usize, StreamError> {
            let mut s = IStream::open(ctx, &p, &layout, name)?;
            let mut records = 0;
            while !s.at_end() {
                s.read()?;
                let view = s.view()?;
                let bytes: usize = view.iter().map(|(_, b)| b.len()).sum();
                std::hint::black_box(bytes);
                records += 1;
            }
            s.close()?;
            Ok(records)
        };
        match run() {
            Ok(records) => format!("ok: {records} record(s)"),
            Err(e) => format!("error: {e}"),
        }
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn damaged_dstream_files_read_as_a_typed_error_or_a_valid_result(
        n in 1usize..10,
        wprocs in 1usize..4,
        rprocs in 1usize..5,
        records in 1usize..3,
        kind in 0u8..4,
        sealed in any::<bool>(),
        aligned in any::<bool>(),
        salt in any::<u64>(),
    ) {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(wprocs), move |ctx| {
            // Elements on every other cell of a longer template, or dense.
            let layout = if aligned {
                let dist = Distribution::new(2 * n + 1, wprocs, kind_of(kind)).unwrap();
                Layout::new(n, dist, Alignment::affine(2, 1).unwrap()).unwrap()
            } else {
                Layout::dense(n, wprocs, kind_of(kind)).unwrap()
            };
            let mut s = OStream::create(ctx, &p, &layout, "f").unwrap();
            for rec in 0..records {
                let c = Collection::new(ctx, layout.clone(), |g| {
                    vec![(g * 31 + rec) as u64; (g + rec) % 3]
                })
                .unwrap();
                s.insert_collection(&c).unwrap();
                s.write().unwrap();
            }
            s.close().unwrap();
        })
        .unwrap();
        let mut image = load(&pfs, "f");
        if !sealed {
            image = unsealed(&image);
        }
        let mut rng = Mix::new(salt);
        let (damaged, how) = mutate(&image, &dstream_fields(&image), &mut rng);

        let started = Instant::now();
        let _ = inspect_bytes(&damaged);
        let _ = recovery_scan(&damaged);
        store(&pfs, "f", damaged);
        let outcomes = read_all(&pfs, "f", rprocs, kind_of(kind / 2 + 1), n);
        let elapsed = started.elapsed();
        prop_assert!(same_on_every_rank(&outcomes, &how).is_ok(), "{}", same_on_every_rank(&outcomes, &how).unwrap_err());
        prop_assert!(elapsed < CASE_BOUND, "{how}: took {elapsed:?}");
    }

    #[test]
    fn damaged_stream_manifests_decode_as_a_typed_error_or_a_valid_result(
        sealed_count in 0usize..4,
        reader_count in 0usize..3,
        open in any::<bool>(),
        salt in any::<u64>(),
    ) {
        let manifest = StreamManifest {
            compacted_before: 1,
            open_segment: open.then_some(1 + sealed_count as u64),
            sealed: (0..sealed_count as u64)
                .map(|i| SegmentEntry { index: 1 + i, records: i + 2, bytes: 100 * (i + 1) })
                .collect(),
            readers: (0..reader_count as u32)
                .map(|id| ReaderEntry { id, next_segment: 1, detached: id == 1 })
                .collect(),
        };
        let image = manifest.encode();
        prop_assert_eq!(StreamManifest::decode(&image).unwrap(), manifest);
        let mut fields: Vec<Field> = vec![(8, 4), (12, 8), (20, 8), (28, 4)];
        let mut at = 32;
        for _ in 0..sealed_count {
            fields.extend([(at, 8), (at + 8, 8), (at + 16, 8)]);
            at += 24;
        }
        fields.push((at, 4));
        at += 4;
        for _ in 0..reader_count {
            fields.extend([(at, 4), (at + 4, 8)]);
            at += 13;
        }
        let mut rng = Mix::new(salt);
        let (damaged, how) = mutate(&image, &fields, &mut rng);
        let started = Instant::now();
        if let Ok(m) = StreamManifest::decode(&damaged) {
            prop_assert!(m.encode().len() == damaged.len(), "{how}: decoded a different length");
        }
        prop_assert!(started.elapsed() < CASE_BOUND, "{how}");
    }

    #[test]
    fn damaged_layout_descriptors_rebuild_as_a_typed_error_or_a_valid_layout(
        n in 0usize..50,
        nprocs in 1usize..5,
        kind in 0u8..4,
        salt in any::<u64>(),
    ) {
        let image = Layout::dense(n, nprocs, kind_of(kind)).unwrap().descriptor().encode();
        let fields: Vec<Field> =
            vec![(0, 8), (8, 8), (16, 4), (20, 4), (24, 8), (32, 8), (40, 8)];
        let mut rng = Mix::new(salt);
        let (damaged, how) = mutate(&image, &fields, &mut rng);
        let started = Instant::now();
        if let Ok(d) = LayoutDescriptor::decode(&damaged) {
            if let Ok(layout) = Layout::from_descriptor(&d) {
                for i in [0, layout.len() / 2, layout.len().saturating_sub(1)] {
                    if i < layout.len() {
                        let owner = layout.owner(i);
                        prop_assert!(owner.is_ok_and(|r| r < layout.nprocs()), "{how}: element {i}");
                    }
                }
            }
        }
        prop_assert!(started.elapsed() < CASE_BOUND, "{how}");
    }

    #[test]
    fn damaged_panda_headers_read_as_a_typed_error_or_a_valid_result(
        n in 1usize..12,
        wprocs in 1usize..4,
        rprocs in 1usize..5,
        two_fields in any::<bool>(),
        kind in 0u8..4,
        salt in any::<u64>(),
    ) {
        let mut fields = vec![panda::SchemaField { name: "a".into(), elem_size: 8 }];
        if two_fields {
            fields.push(panda::SchemaField { name: "bb".into(), elem_size: 4 });
        }
        let schema = panda::Schema { fields };
        let pfs = Pfs::in_memory(4);
        let (p, sc) = (pfs.clone(), schema.clone());
        Machine::run(MachineConfig::functional(wprocs), move |ctx| {
            let layout = Layout::dense(n, wprocs, kind_of(kind)).unwrap();
            let c = Collection::new(ctx, layout, |g| g as u64).unwrap();
            panda::write_array(ctx, &p, "f", &c, &sc, |k, v| {
                v.to_le_bytes()[..sc.fields[k].elem_size].to_vec()
            })
            .unwrap();
        })
        .unwrap();
        let image = load(&pfs, "f");
        // Magic, descriptor words, field count, then per field its name
        // length and element size.
        let mut header: Vec<Field> =
            vec![(8, 8), (16, 8), (24, 4), (28, 4), (32, 8), (40, 8), (48, 8), (56, 4)];
        let mut at = 60;
        for f in &schema.fields {
            header.push((at, 4));
            at += 4 + f.name.len();
            header.push((at, 8));
            at += 8;
        }
        let mut rng = Mix::new(salt);
        let (damaged, how) = mutate(&image[..at], &header, &mut rng);
        let mut damaged = damaged;
        if damaged.len() == at {
            damaged.extend_from_slice(&image[at..]);
        }
        store(&pfs, "f", damaged);
        let started = Instant::now();
        let p = pfs.clone();
        let outcomes = Machine::run(MachineConfig::functional(rprocs), move |ctx| {
            let layout = Layout::dense(n, rprocs, kind_of(kind + 1)).unwrap();
            let mut c = Collection::new(ctx, layout, |_| 0u64).unwrap();
            match panda::read_field(ctx, &p, "f", &mut c, "a", |v, b| {
                *v = b.iter().rev().fold(0, |acc, &x| acc << 8 | u64::from(x));
            }) {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("error: {e}"),
            }
        })
        .unwrap();
        let elapsed = started.elapsed();
        prop_assert!(same_on_every_rank(&outcomes, &how).is_ok(), "{}", same_on_every_rank(&outcomes, &how).unwrap_err());
        prop_assert!(elapsed < CASE_BOUND, "{how}: took {elapsed:?}");
    }
}

/// Random bytes are not a d/stream file.
#[test]
fn random_bytes_are_rejected_by_inspect_and_recovery() {
    let mut rng = Mix::new(7);
    for len in [0, 3, 16, 80, 500] {
        let bytes: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        assert!(inspect_bytes(&bytes).is_err(), "{len} random bytes");
        assert!(recovery_scan(&bytes).is_err(), "{len} random bytes");
    }
    // Even behind a valid file header, random records are rejected.
    let mut bytes = FileHeader {
        version: 2,
        flags: 0,
    }
    .encode();
    bytes.extend((0..RecordHeader::LEN + RecordSeal::LEN).map(|_| rng.next() as u8));
    assert!(inspect_bytes(&bytes).is_err());
}
