//! Property tests of the PFS against a flat reference model: any sequence
//! of positioned writes applied through the PFS must leave the same bytes
//! a plain Vec<u8> model would hold, and `write_ordered` must equal the
//! rank-order concatenation. The paged in-memory image is checked the
//! same way at the storage level, serially and with concurrent writers.

use std::sync::{Arc, Barrier};

use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::storage::{PagePool, Storage, PAGE};
use dstreams_pfs::{Backend, DiskModel, OpenMode, Pfs, PfsError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const P: u64 = PAGE as u64;

/// One storage operation of the model-based property.
#[derive(Debug, Clone)]
enum Op {
    Write { offset: u64, len: usize, seed: u8 },
    Read { offset: u64, len: usize },
    Truncate(u64),
    Len,
}

/// Offsets near the start, straddling a page boundary, anywhere in the
/// first pages (leaving gaps), and hostile ones whose end wraps `u64`.
fn offset() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..200,
        (1u64..4, 0u64..256).prop_map(|(k, d)| k * P - 128 + d),
        0u64..4 * P,
        (0u64..64).prop_map(|d| u64::MAX - d),
    ]
}

/// Lengths within a page, around one page, and past two pages.
fn len() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..300, PAGE - 64..PAGE + 64, 2 * PAGE..2 * PAGE + 64]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (offset(), len(), any::<u8>()).prop_map(|(offset, len, seed)| Op::Write {
            offset,
            len,
            seed
        }),
        (offset(), len()).prop_map(|(offset, len)| Op::Read { offset, len }),
        offset().prop_map(Op::Truncate),
        Just(Op::Len),
    ]
}

fn pattern(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| seed ^ (i as u8).wrapping_mul(31) ^ (i >> 9) as u8)
        .collect()
}

/// A page pool whose pages hold stale non-zero bytes, so a hole that
/// failed to read as zeros would show.
fn dirty_pool() -> Arc<PagePool> {
    let pool = Arc::default();
    let dirt = Storage::new_mem_in(&pool);
    dirt.write_at(0, &vec![0xFF; 3 * PAGE], "dirt").unwrap();
    pool
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn positioned_writes_match_a_flat_model(
        ops in proptest::collection::vec((0u64..500, proptest::collection::vec(any::<u8>(), 0..60)), 1..20),
    ) {
        // Reference model.
        let mut model: Vec<u8> = Vec::new();
        for (off, data) in &ops {
            let end = *off as usize + data.len();
            if model.len() < end {
                model.resize(end, 0);
            }
            model[*off as usize..end].copy_from_slice(data);
        }

        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        let ops2 = ops.clone();
        let got = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "model", OpenMode::Create).unwrap();
            for (off, data) in &ops2 {
                fh.write_at(ctx, *off, data).unwrap();
            }
            let mut buf = vec![0u8; fh.len() as usize];
            if !buf.is_empty() {
                fh.read_at(ctx, 0, &mut buf).unwrap();
            }
            buf
        }).unwrap();
        prop_assert_eq!(&got[0], &model);
    }

    #[test]
    fn write_ordered_equals_rank_order_concatenation(
        nprocs in 1usize..6,
        lens in proptest::collection::vec(0usize..40, 6),
        rounds in 1usize..4,
    ) {
        let pfs = Pfs::in_memory(nprocs);
        let p = pfs.clone();
        let lens2 = lens.clone();
        Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let fh = p.open(ctx.is_root(), "ord", OpenMode::Create).unwrap();
            for round in 0..rounds {
                let len = lens2[(ctx.rank() + round) % lens2.len()];
                let block = vec![(ctx.rank() * 16 + round) as u8; len];
                fh.write_ordered(ctx, &block).unwrap();
            }
        }).unwrap();

        // Reference: concatenate blocks in (round, rank) order.
        let mut model = Vec::new();
        for round in 0..rounds {
            for rank in 0..nprocs {
                let len = lens[(rank + round) % lens.len()];
                model.extend(std::iter::repeat_n((rank * 16 + round) as u8, len));
            }
        }
        let p = pfs.clone();
        let got = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(false, "ord", OpenMode::Read).unwrap();
            let mut buf = vec![0u8; fh.len() as usize];
            if !buf.is_empty() {
                fh.read_at(ctx, 0, &mut buf).unwrap();
            }
            buf
        }).unwrap();
        prop_assert_eq!(&got[0], &model);
    }

    #[test]
    fn virtual_cost_is_monotone_in_bytes(
        small in 1usize..1000,
        extra in 1usize..100_000,
    ) {
        let run = |bytes: usize| {
            let pfs = Pfs::new(2, DiskModel::paragon_pfs(), Backend::Memory);
            Machine::run(MachineConfig::paragon(2), move |ctx| {
                let fh = pfs.open(ctx.is_root(), "m", OpenMode::Create).unwrap();
                fh.write_ordered(ctx, &vec![0u8; bytes]).unwrap();
                ctx.now()
            }).unwrap()[0]
        };
        prop_assert!(run(small) <= run(small + extra));
    }

    #[test]
    fn paged_image_matches_a_flat_model(ops in proptest::collection::vec(op(), 1..16)) {
        let storage = Storage::new_mem_in(&dirty_pool());
        let mut model: Vec<u8> = Vec::new();
        for op in &ops {
            match *op {
                Op::Write { offset, len, seed } => {
                    let data = pattern(len, seed);
                    let got = storage.write_at(offset, &data, "m");
                    match offset.checked_add(len as u64) {
                        Some(end) => {
                            prop_assert!(got.is_ok(), "{:?}: {:?}", op, got);
                            let (start, end) = (offset as usize, end as usize);
                            if model.len() < end {
                                model.resize(end, 0);
                            }
                            model[start..end].copy_from_slice(&data);
                        }
                        None => prop_assert!(
                            matches!(got, Err(PfsError::OutOfBounds { .. })),
                            "{:?}: {:?}", op, got
                        ),
                    }
                }
                Op::Read { offset, len } => {
                    let mut buf = vec![0xAB; len];
                    let got = storage.read_at(offset, &mut buf, "m");
                    let vec = storage.read_vec(offset, len, "m");
                    match offset.checked_add(len as u64).filter(|&e| e <= model.len() as u64) {
                        Some(end) => {
                            let want = &model[offset as usize..end as usize];
                            prop_assert!(got.is_ok(), "{:?}: {:?}", op, got);
                            prop_assert!(buf == want, "{:?}: read_at bytes differ", op);
                            prop_assert!(vec.ok().as_deref() == Some(want), "{:?}: read_vec", op);
                        }
                        None => {
                            prop_assert!(
                                matches!(got, Err(PfsError::OutOfBounds { .. })),
                                "{:?}: {:?}", op, got
                            );
                            let oob = matches!(vec, Err(PfsError::OutOfBounds { .. }));
                            prop_assert!(oob, "{:?}: read_vec {:?}", op, vec);
                        }
                    }
                }
                Op::Truncate(len) => {
                    storage.truncate_to(len).unwrap();
                    model.truncate(len.min(model.len() as u64) as usize);
                }
                Op::Len => {}
            }
            prop_assert_eq!(storage.len(), model.len() as u64, "after {:?}", op);
        }
        let image = storage.read_vec(0, model.len(), "m").unwrap();
        prop_assert!(image == model, "final image differs from the model");
    }
}

/// Four writers land disjoint blocks of uneven sizes, most straddling a
/// page boundary, each in its own shuffled order and all at once: the
/// image must equal the serial result.
#[test]
fn concurrent_disjoint_writers_equal_the_serial_image() {
    let sizes = [
        PAGE / 2 + 13,
        PAGE + 777,
        3,
        2 * PAGE - 5,
        0,
        PAGE,
        PAGE / 3,
        5 * PAGE / 4,
        1,
        PAGE - 1,
        PAGE / 2,
        7 * PAGE / 5,
    ];
    let mut blocks = Vec::new();
    let mut offset = 0u64;
    for (i, &len) in sizes.iter().enumerate() {
        blocks.push((offset, pattern(len, i as u8 * 17 + 1)));
        offset += len as u64;
    }
    let serial: Vec<u8> = blocks.iter().flat_map(|(_, b)| b.iter().copied()).collect();
    for seed in 0..6u64 {
        let storage = Storage::new_mem_in(&dirty_pool());
        let start = Barrier::new(4);
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let (storage, start) = (&storage, &start);
                let mut mine: Vec<_> = blocks.iter().skip(writer).step_by(4).collect();
                let mut rng = StdRng::seed_from_u64(seed * 4 + writer as u64);
                for i in (1..mine.len()).rev() {
                    mine.swap(i, rng.gen_range(0..=i));
                }
                scope.spawn(move || {
                    start.wait();
                    for (offset, bytes) in mine {
                        storage.write_at(*offset, bytes, "c").unwrap();
                    }
                });
            }
        });
        assert_eq!(storage.len(), serial.len() as u64, "seed {seed}");
        let image = storage.read_vec(0, serial.len(), "c").unwrap();
        assert!(image == serial, "seed {seed}: concurrent image differs");
    }
}
