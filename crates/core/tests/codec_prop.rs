//! Property test of the element codec. For every primitive type, in
//! checked and unchecked mode, `prim`/`slice`/`vec`/`bytes` must insert
//! exactly the concatenated per-value `to_le_bytes` images (after the
//! checked-mode tag and count), and extraction must give back the same
//! bits, NaN payloads and -0.0 included. `encoded_len` must equal the
//! unchecked encoding's length for derived, nested and stream-gen
//! generated types. A seeded batch of SCF segments, and two-record
//! files written from it, are pinned by digest, so no file byte can
//! drift. The random draws mix in `DSTREAMS_FAULT_SEED` when it is set,
//! so CI sweeps them per fault seed; the pinned batch does not.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{
    from_bytes, impl_stream_data, inspect_bytes, to_bytes, Extractor, Inserter, MetaMode,
    MetaPolicy, OStream, Prim, StreamData, StreamError, StreamOptions,
};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{ChunkSum, OpenMode, Pfs};

// stream-gen's output for the paper's Figure 3 declarations.
include!("../../../tests/generated_figure3.rs");

fn fault_seed() -> u64 {
    std::env::var("DSTREAMS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// SplitMix64.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A float in [-1, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

/// Bit patterns drawn often: zero, all ones, -0.0, quiet and signalling
/// NaNs with payloads, a negative NaN and infinity (as f64 in the whole
/// word, as f32 in its low half), and the smallest subnormal.
const SPECIALS: [u64; 13] = [
    0,
    u64::MAX,
    1,
    0x8000_0000_0000_0000,
    0x0000_0000_8000_0000,
    0x7ff8_0000_dead_beef,
    0x7ff0_0000_0000_0001,
    0xfff8_0000_0000_0001,
    0x0000_0000_7fc0_beef,
    0x0000_0000_7f80_0001,
    0x0000_0000_ffc0_0001,
    0x7ff0_0000_0000_0000,
    0x0000_0000_7f80_0000,
];

/// The reference image of a primitive, independent of the codec.
trait Le: Prim + Default {
    /// The checked-mode tag every file stores for this type.
    const FILE_TAG: u8;
    fn le(self) -> Vec<u8>;
    /// The value whose image is the low `WIDTH` bytes of `bits`.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! le_prims {
    ($($t:ty => $tag:expr),* $(,)?) => {$(
        impl Le for $t {
            const FILE_TAG: u8 = $tag;
            fn le(self) -> Vec<u8> {
                self.to_le_bytes().to_vec()
            }
            fn from_bits(bits: u64) -> Self {
                const W: usize = std::mem::size_of::<$t>();
                let mut word = [0u8; W];
                word.copy_from_slice(&bits.to_le_bytes()[..W]);
                <$t>::from_le_bytes(word)
            }
        }
    )*};
}

le_prims! {
    u8 => 1, i8 => 2, u16 => 3, i16 => 4,
    u32 => 5, i32 => 6, u64 => 7, i64 => 8,
    f32 => 9, f64 => 10,
}

/// One of each insertion kind for a primitive type: `prim`, `slice`
/// (count known to the reader), `vec` (length-prefixed) and `bytes`.
#[derive(Default)]
struct Ops<T> {
    one: T,
    many: Vec<T>,
    listed: Vec<T>,
    raw: Vec<u8>,
}

impl<T: Prim + Default> StreamData for Ops<T> {
    fn insert(&self, ins: &mut Inserter<'_>) {
        ins.prim(self.one);
        ins.slice(&self.many);
        ins.vec(&self.listed);
        ins.bytes(&self.raw);
    }
    fn extract(&mut self, ext: &mut Extractor<'_>) -> Result<(), StreamError> {
        self.one = ext.prim()?;
        let n = self.many.len();
        ext.slice_into(&mut self.many, n)?;
        self.listed = ext.vec()?;
        self.raw = ext.bytes(self.raw.len())?;
        Ok(())
    }
}

fn image<T: Le>(values: &[T]) -> Vec<u8> {
    values.iter().flat_map(|&v| v.le()).collect()
}

/// The bytes `ops` must insert, built from per-value images.
fn expected<T: Le>(ops: &Ops<T>, checked: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let mark = |out: &mut Vec<u8>, tag: u8, count: usize| {
        if checked {
            out.push(tag);
            out.extend((count as u32).to_le_bytes());
        }
    };
    mark(&mut out, T::FILE_TAG, 1);
    out.extend(ops.one.le());
    mark(&mut out, T::FILE_TAG, ops.many.len());
    out.extend(image(&ops.many));
    mark(&mut out, u64::FILE_TAG, 1);
    out.extend((ops.listed.len() as u64).to_le_bytes());
    mark(&mut out, T::FILE_TAG, ops.listed.len());
    out.extend(image(&ops.listed));
    mark(&mut out, u8::FILE_TAG, ops.raw.len());
    out.extend(&ops.raw);
    out
}

fn draw_len(rng: &mut Mix) -> usize {
    const LENS: [usize; 10] = [0, 0, 1, 2, 3, 7, 8, 9, 64, 1000];
    if rng.below(2) == 0 {
        LENS[rng.below(LENS.len())]
    } else {
        rng.below(100)
    }
}

fn draw_values<T: Le>(rng: &mut Mix) -> Vec<T> {
    let n = draw_len(rng);
    (0..n)
        .map(|_| match rng.below(4) {
            0 => T::from_bits(SPECIALS[rng.below(SPECIALS.len())]),
            _ => T::from_bits(rng.next()),
        })
        .collect()
}

fn check_prim<T: Le>(salt: u64) {
    assert_eq!(<T as Prim>::TAG, T::FILE_TAG, "{}: tag", T::NAME);
    assert_eq!(T::WIDTH, T::default().le().len(), "{}: width", T::NAME);
    let mut rng = Mix(salt ^ fault_seed().rotate_left(17));
    for case in 0..48 {
        let one = draw_values::<T>(&mut rng).first().copied();
        let ops = Ops {
            one: one.unwrap_or_else(|| T::from_bits(SPECIALS[case % SPECIALS.len()])),
            many: draw_values(&mut rng),
            listed: draw_values(&mut rng),
            raw: (0..draw_len(&mut rng)).map(|_| rng.next() as u8).collect(),
        };
        for checked in [false, true] {
            let ctx = format!(
                "{} case {case} checked={checked} (slice {}, vec {}, bytes {})",
                T::NAME,
                ops.many.len(),
                ops.listed.len(),
                ops.raw.len()
            );
            let bytes = to_bytes(&ops, checked);
            assert_eq!(bytes, expected(&ops, checked), "{ctx}: inserted bytes");

            let mut back = Ops {
                many: vec![T::default(); ops.many.len()],
                raw: vec![0; ops.raw.len()],
                ..Ops::default()
            };
            from_bytes(&mut back, &bytes, checked).expect(&ctx);
            assert_eq!(back.one.le(), ops.one.le(), "{ctx}: prim");
            assert_eq!(image(&back.many), image(&ops.many), "{ctx}: slice");
            assert_eq!(image(&back.listed), image(&ops.listed), "{ctx}: vec");
            assert_eq!(back.raw, ops.raw, "{ctx}: bytes");
        }
    }
}

#[test]
fn every_prim_codec_matches_per_value_le_bytes_and_extracts_bit_exact() {
    check_prim::<u8>(1);
    check_prim::<i8>(2);
    check_prim::<u16>(3);
    check_prim::<i16>(4);
    check_prim::<u32>(5);
    check_prim::<i32>(6);
    check_prim::<u64>(7);
    check_prim::<i64>(8);
    check_prim::<f32>(9);
    check_prim::<f64>(10);
}

/// `dstreams_scf::Segment`, with the same recipe.
#[derive(Debug, Default, Clone, PartialEq)]
struct Segment {
    n_particles: i64,
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    vx: Vec<f64>,
    vy: Vec<f64>,
    vz: Vec<f64>,
    mass: Vec<f64>,
}

impl_stream_data!(Segment {
    prim n_particles,
    slice x: f64 [n_particles],
    slice y: f64 [n_particles],
    slice z: f64 [n_particles],
    slice vx: f64 [n_particles],
    slice vy: f64 [n_particles],
    slice vz: f64 [n_particles],
    slice mass: f64 [n_particles],
});

fn segment(n: usize, rng: &mut Mix) -> Segment {
    let mut arr = || (0..n).map(|_| rng.unit()).collect::<Vec<_>>();
    Segment {
        n_particles: n as i64,
        x: arr(),
        y: arr(),
        z: arr(),
        vx: arr(),
        vy: arr(),
        vz: arr(),
        mass: arr(),
    }
}

/// A derived type with every field kind, one of them a generated type.
#[derive(Debug, Default, Clone, PartialEq)]
struct Cloud {
    n: u32,
    weight: Vec<f32>,
    tags: Vec<i16>,
    centre: Position,
}

impl_stream_data!(Cloud {
    prim n,
    slice weight: f32 [n],
    vec tags,
    nested centre,
});

/// A derived type nesting derived, generated and array types.
#[derive(Debug, Default, Clone, PartialEq)]
struct Region {
    id: u8,
    cloud: Cloud,
    cell: GridCell,
    bounds: [Position; 2],
    segment: Segment,
}

impl_stream_data!(Region {
    prim id,
    nested cloud,
    nested cell,
    nested bounds,
    nested segment,
});

fn position(rng: &mut Mix) -> Position {
    Position {
        x: rng.unit(),
        y: rng.unit(),
        z: rng.unit(),
    }
}

fn region(rng: &mut Mix) -> Region {
    let n = draw_len(rng);
    let density = draw_len(rng);
    let tags = draw_len(rng);
    Region {
        id: rng.next() as u8,
        cloud: Cloud {
            n: n as u32,
            weight: (0..n).map(|_| rng.unit() as f32).collect(),
            tags: (0..tags).map(|_| rng.next() as i16).collect(),
            centre: position(rng),
        },
        cell: GridCell {
            cell_id: rng.next() as i64,
            flags: [1, -2, 3, -4],
            corner: position(rng),
            number_of_particles: density as i32,
            density: (0..density).map(|_| rng.unit()).collect(),
        },
        bounds: [position(rng), position(rng)],
        segment: segment(rng.below(20), rng),
    }
}

fn assert_exact<T: StreamData>(v: &T, what: &str) {
    assert_eq!(v.encoded_len(), to_bytes(v, false).len(), "{what}");
}

#[test]
fn encoded_len_is_the_unchecked_length_for_derived_nested_and_generated_types() {
    let mut rng = Mix(0xC0DE ^ fault_seed().rotate_left(17));
    for case in 0..64 {
        let r = region(&mut rng);
        let n = r.cloud.n as usize;
        let list = ParticleList {
            number_of_particles: n as i32,
            mass: r.cloud.weight.iter().map(|&w| w.into()).collect(),
            position: (0..n).map(|_| position(&mut rng)).collect(),
        };
        let ctx = |what: &str| format!("case {case}: {what}");
        assert_exact(&r, &ctx("derived, nesting derived, generated and arrays"));
        assert_exact(&r.cloud, &ctx("derived with a generated field"));
        assert_exact(&r.segment, &ctx("derived SCF segment"));
        assert_exact(&r.cell, &ctx("generated GridCell"));
        assert_exact(&list, &ctx("generated ParticleList"));
        assert_exact(&r.bounds, &ctx("array of generated Position"));
        assert_exact(&r.cloud.tags, &ctx("Vec<i16>"));
        assert_exact(&r.id, &ctx("u8"));
    }
}

/// The seeded SCF batch: 24 segments of 0 to 28 particles.
fn segment_batch() -> Vec<Segment> {
    let mut rng = Mix(7);
    (0..24).map(|g| segment(g % 5 * 7, &mut rng)).collect()
}

/// The batch's element bytes, concatenated: length and digest, unchecked
/// then checked. No codec change may move these: files on disk hold
/// bytes made the same way.
const BATCH_LEN: [usize; 2] = [18_224, 19_184];
const BATCH_SUM: [u64; 2] = [0xd07a_9b8a_4b6a_e484, 0xca95_0218_eb8a_ecb2];

/// Two-record files: (metadata mode, checked) -> (length, digest). Only
/// the first record has the file header in front of it in rank 0's
/// block, so the two records take both ways a gathered seal is summed.
const FILES: [(MetaMode, bool, usize, u64); 3] = [
    (MetaMode::Gathered, false, 37_240, 0x74fe_cd9c_0eba_1521),
    (MetaMode::Parallel, false, 37_240, 0x9d2b_cbc9_ef17_d515),
    (MetaMode::Gathered, true, 39_280, 0xf272_fe0a_cad8_35ef),
];

/// Write the batch on 4 ranks as two records: the segments alone, then
/// the segments interleaved with their particle counts.
fn batch_file(mode: MetaMode, checked: bool) -> Vec<u8> {
    let pfs = Pfs::in_memory(4);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(4), move |ctx| {
        let batch = segment_batch();
        let layout = Layout::dense(batch.len(), 4, DistKind::Block).unwrap();
        let c = Collection::new(ctx, layout.clone(), |g| batch[g].clone()).unwrap();
        let opts = StreamOptions {
            checked,
            meta_policy: MetaPolicy::Force(mode),
            ..StreamOptions::default()
        };
        let mut s = OStream::create_with(ctx, &p, &layout, "batch", opts).unwrap();
        s.insert_collection(&c).unwrap();
        s.write().unwrap();
        s.insert_collection(&c).unwrap();
        s.insert_with(&c, |seg, ins| ins.prim(seg.n_particles))
            .unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = pfs.open(false, "batch", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; fh.len() as usize];
        fh.read_at(ctx, 0, &mut buf).unwrap();
        buf
    })
    .unwrap()
    .remove(0)
}

#[test]
fn seeded_segment_batch_bytes_are_pinned() {
    let batch = segment_batch();
    for (m, checked) in [false, true].into_iter().enumerate() {
        let bytes: Vec<u8> = batch.iter().flat_map(|s| to_bytes(s, checked)).collect();
        let sum = ChunkSum::of(&bytes);
        assert_eq!(bytes.len(), BATCH_LEN[m], "checked={checked}");
        assert_eq!(sum.hash(), BATCH_SUM[m], "checked={checked}");
    }
    for (mode, checked, len, sum) in FILES {
        let file = batch_file(mode, checked);
        let summary = inspect_bytes(&file).expect("every seal verifies");
        assert_eq!(summary.records.len(), 2);
        assert!(summary.records.iter().all(|r| r.sealed));
        assert_eq!(file.len(), len, "{mode:?} checked={checked}");
        assert_eq!(
            ChunkSum::of(&file).hash(),
            sum,
            "{mode:?} checked={checked}"
        );
    }
}
