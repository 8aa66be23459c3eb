//! End-to-end write → read roundtrips through the full stack
//! (machine + pfs + collections + d/streams), including the paper's
//! headline feature: reading back under a different processor count and
//! distribution.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::MetaMode;
use dstreams_core::{
    impl_stream_data, FileHeader, IStream, MetaPolicy, OStream, ReadStrategy, RecordHeader,
    StreamError, StreamOptions,
};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{OpenMode, Pfs};

/// The paper's running example: a particle list of variable size.
#[derive(Debug, Default, Clone, PartialEq)]
struct ParticleList {
    number_of_particles: i64,
    mass: Vec<f64>,
    position: Vec<f64>, // 3 per particle
}

impl_stream_data!(ParticleList {
    prim number_of_particles,
    slice mass: f64 [number_of_particles],
    vec position,
});

fn make_particles(g: usize) -> ParticleList {
    // Deterministic variable sizes: element g holds (g % 5) + 1 particles.
    let n = (g % 5) + 1;
    ParticleList {
        number_of_particles: n as i64,
        mass: (0..n).map(|k| (g * 10 + k) as f64).collect(),
        position: (0..3 * n).map(|k| (g * 100 + k) as f64 * 0.5).collect(),
    }
}

fn write_grid(pfs: &Pfs, nprocs: usize, kind: DistKind, n: usize, file: &str, checked: bool) {
    let p = pfs.clone();
    let file = file.to_string();
    Machine::run(MachineConfig::functional(nprocs), move |ctx| {
        let layout = Layout::dense(n, nprocs, kind).unwrap();
        let g = Collection::new(ctx, layout.clone(), make_particles).unwrap();
        let opts = StreamOptions {
            checked,
            ..Default::default()
        };
        let mut s = OStream::create_with(ctx, &p, &layout, &file, opts).unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();
}

fn read_grid_sorted(pfs: &Pfs, nprocs: usize, kind: DistKind, n: usize, file: &str) {
    let p = pfs.clone();
    let file = file.to_string();
    Machine::run(MachineConfig::functional(nprocs), move |ctx| {
        let layout = Layout::dense(n, nprocs, kind).unwrap();
        let mut g = Collection::new(ctx, layout.clone(), |_| ParticleList::default()).unwrap();
        let mut s = IStream::open(ctx, &p, &layout, &file).unwrap();
        s.read().unwrap();
        s.extract_collection(&mut g).unwrap();
        s.close().unwrap();
        // Sorted read: every element must be back at its own index.
        for (gid, e) in g.iter() {
            assert_eq!(e, &make_particles(gid), "element {gid}");
        }
    })
    .unwrap();
}

#[test]
fn same_machine_same_distribution_roundtrip() {
    for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
        let pfs = Pfs::in_memory(4);
        write_grid(&pfs, 4, kind, 13, "grid", false);
        read_grid_sorted(&pfs, 4, kind, 13, "grid");
    }
}

#[test]
fn checked_mode_roundtrips_too() {
    let pfs = Pfs::in_memory(3);
    write_grid(&pfs, 3, DistKind::Cyclic, 9, "grid", true);
    read_grid_sorted(&pfs, 3, DistKind::Cyclic, 9, "grid");
}

#[test]
fn read_across_processor_counts_and_distributions() {
    // The paper: "reading it in correctly regardless of differences in the
    // number of processors and distribution of the reading and writing
    // arrays."
    let cases = [
        (4, DistKind::Block, 2, DistKind::Cyclic),
        (2, DistKind::Cyclic, 5, DistKind::Block),
        (3, DistKind::BlockCyclic(2), 4, DistKind::Block),
        (1, DistKind::Block, 6, DistKind::BlockCyclic(3)),
        (6, DistKind::Cyclic, 1, DistKind::Cyclic),
    ];
    for (wp, wk, rp, rk) in cases {
        let pfs = Pfs::in_memory(wp.max(rp));
        write_grid(&pfs, wp, wk, 17, "xgrid", false);
        read_grid_sorted(&pfs, rp, rk, 17, "xgrid");
    }
}

#[test]
fn unsorted_read_preserves_the_multiset_of_elements() {
    let pfs = Pfs::in_memory(4);
    write_grid(&pfs, 4, DistKind::Block, 12, "ugrid", false);

    // Read on 3 procs, CYCLIC: unsortedRead must deliver every element
    // exactly once, at *some* index.
    let p = pfs.clone();
    let collected = Machine::run(MachineConfig::functional(3), move |ctx| {
        let layout = Layout::dense(12, 3, DistKind::Cyclic).unwrap();
        let mut g = Collection::new(ctx, layout.clone(), |_| ParticleList::default()).unwrap();
        let mut s = IStream::open(ctx, &p, &layout, "ugrid").unwrap();
        s.unsorted_read().unwrap();
        s.extract_collection(&mut g).unwrap();
        s.close().unwrap();
        g.local().to_vec()
    })
    .unwrap();

    let mut got: Vec<ParticleList> = collected.into_iter().flatten().collect();
    let mut want: Vec<ParticleList> = (0..12).map(make_particles).collect();
    let key = |p: &ParticleList| {
        (
            p.number_of_particles,
            p.mass.clone().iter().map(|m| *m as i64).collect::<Vec<_>>(),
        )
    };
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(got, want);
}

#[test]
fn field_insertion_and_interleaving_roundtrip() {
    // s << g.numberOfParticles; s << g2.particleDensity; s.write();
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let layout = Layout::dense(8, 2, DistKind::Block).unwrap();
        let g = Collection::new(ctx, layout.clone(), make_particles).unwrap();
        let g2 = Collection::new(ctx, layout.clone(), |i| i as f64 * 1.5).unwrap();

        let mut s = OStream::create(ctx, &p, &layout, "fields").unwrap();
        s.insert_with(&g, |e, ins| ins.prim(e.number_of_particles))
            .unwrap();
        s.insert_with(&g2, |e, ins| ins.prim(*e)).unwrap();
        s.write().unwrap();
        s.close().unwrap();

        let mut h = Collection::new(ctx, layout.clone(), |_| ParticleList::default()).unwrap();
        let mut h2 = Collection::new(ctx, layout.clone(), |_| 0.0f64).unwrap();
        let mut r = IStream::open(ctx, &p, &layout, "fields").unwrap();
        r.read().unwrap();
        r.extract_with(&mut h, |e, ext| {
            e.number_of_particles = ext.prim()?;
            Ok(())
        })
        .unwrap();
        r.extract_with(&mut h2, |e, ext| {
            *e = ext.prim()?;
            Ok(())
        })
        .unwrap();
        r.close().unwrap();

        for (gid, e) in h.iter() {
            assert_eq!(
                e.number_of_particles,
                make_particles(gid).number_of_particles
            );
        }
        for (gid, v) in h2.iter() {
            assert_eq!(*v, gid as f64 * 1.5);
        }
    })
    .unwrap();
}

#[test]
fn multiple_records_read_in_write_order() {
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let layout = Layout::dense(6, 2, DistKind::Cyclic).unwrap();
        let mut g = Collection::new(ctx, layout.clone(), |i| i as u64).unwrap();

        let mut s = OStream::create(ctx, &p, &layout, "ts").unwrap();
        for step in 0..4u64 {
            g.apply(|v| *v += 1000 * u64::from(step == 0)); // mutate once
            s.insert_collection(&g).unwrap();
            s.insert_with(&g, |e, ins| ins.prim(*e * 2)).unwrap();
            s.write().unwrap();
        }
        s.close().unwrap();

        let mut h = Collection::new(ctx, layout.clone(), |_| 0u64).unwrap();
        let mut dbl = Collection::new(ctx, layout.clone(), |_| 0u64).unwrap();
        let mut r = IStream::open(ctx, &p, &layout, "ts").unwrap();
        for _step in 0..4 {
            r.read().unwrap();
            r.extract_collection(&mut h).unwrap();
            r.extract_with(&mut dbl, |e, ext| {
                *e = ext.prim()?;
                Ok(())
            })
            .unwrap();
            for ((gid, a), (_, b)) in h.iter().zip(dbl.iter()) {
                assert_eq!(*a, gid as u64 + 1000);
                assert_eq!(*b, 2 * *a);
            }
        }
        // Fifth read: end of stream, on every rank.
        assert!(matches!(r.read(), Err(StreamError::EndOfStream)));
        r.close().unwrap();
    })
    .unwrap();
}

#[test]
fn writer_layout_disagreeing_with_the_size_table_is_corrupt() {
    // A record whose header counts 12 elements (and holds 12 sizes) but
    // whose writer-layout descriptor claims 11 cannot be mapped to file
    // positions: every read strategy must call it corrupt.
    for (strategy, sorted) in [
        (ReadStrategy::Planned, true),
        (ReadStrategy::Naive, true),
        (ReadStrategy::Planned, false),
    ] {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let layout = Layout::dense(12, 2, DistKind::Cyclic).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u32).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "skew").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
            if ctx.is_root() {
                // The descriptor's element count opens the layout field,
                // 24 bytes into the record header after the file header.
                let fh = p.open(false, "skew", OpenMode::Read).unwrap();
                fh.write_at(ctx, (FileHeader::LEN + 24) as u64, &11u64.to_le_bytes())
                    .unwrap();
            }
            ctx.barrier().unwrap();

            let mut r = IStream::open_with(ctx, &p, &layout, "skew", strategy).unwrap();
            let got = if sorted { r.read() } else { r.unsorted_read() };
            assert!(
                matches!(got, Err(StreamError::CorruptRecord(_))),
                "{strategy:?} sorted={sorted}: {got:?}"
            );
        })
        .unwrap();
    }
}

#[test]
fn empty_and_tiny_collections_roundtrip() {
    // 0 elements and 1 element, with more ranks than elements.
    for n in [0usize, 1] {
        let pfs = Pfs::in_memory(3);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let layout = Layout::dense(n, 3, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| i as u32 + 7).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "tiny").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();

            let mut h = Collection::new(ctx, layout.clone(), |_| 0u32).unwrap();
            let mut r = IStream::open(ctx, &p, &layout, "tiny").unwrap();
            r.read().unwrap();
            r.extract_collection(&mut h).unwrap();
            for (gid, v) in h.iter() {
                assert_eq!(*v, gid as u32 + 7);
            }
            r.close().unwrap();
        })
        .unwrap();
    }
}

#[test]
fn both_meta_modes_read_back_identically() {
    for mode in [MetaMode::Gathered, MetaMode::Parallel] {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let layout = Layout::dense(10, 4, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), make_particles).unwrap();
            let opts = StreamOptions {
                checked: false,
                meta_policy: MetaPolicy::Force(mode),
                ..Default::default()
            };
            let mut s = OStream::create_with(ctx, &p, &layout, "mm", opts).unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        })
        .unwrap();
        read_grid_sorted(&pfs, 2, DistKind::Cyclic, 10, "mm");
    }
}

#[test]
fn aligned_sub_collection_roundtrips() {
    // Elements aligned to odd template cells only.
    use dstreams_collections::{Alignment, Distribution};
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let dist = Distribution::new(16, 2, DistKind::Cyclic).unwrap();
        let align = Alignment::affine(2, 1).unwrap();
        let layout = Layout::new(8, dist, align).unwrap();
        let g = Collection::new(ctx, layout.clone(), |i| i as i64 * 3).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, "al").unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();

        let mut h = Collection::new(ctx, layout.clone(), |_| 0i64).unwrap();
        let mut r = IStream::open(ctx, &p, &layout, "al").unwrap();
        r.read().unwrap();
        r.extract_collection(&mut h).unwrap();
        for (gid, v) in h.iter() {
            assert_eq!(*v, gid as i64 * 3);
        }
        r.close().unwrap();
    })
    .unwrap();
}

#[test]
fn writer_and_reader_streams_can_share_one_file_with_two_layouts() {
    // "Multiple d/streams may be set up and connected to the same file if
    // collections with differing distributions and alignments are to be
    // output." Two streams append records to one file; two input streams
    // read them back in order.
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let la = Layout::dense(6, 2, DistKind::Block).unwrap();
        let lb = Layout::dense(4, 2, DistKind::Cyclic).unwrap();
        let a = Collection::new(ctx, la.clone(), |i| i as u16).unwrap();
        let b = Collection::new(ctx, lb.clone(), |i| i as f32 * 0.25).unwrap();

        let mut sa = OStream::create(ctx, &p, &la, "mixed").unwrap();
        let mut sb = OStream::create(ctx, &p, &lb, "mixed").unwrap();
        sa.insert_collection(&a).unwrap();
        sa.write().unwrap();
        sb.insert_collection(&b).unwrap();
        sb.write().unwrap();
        sa.close().unwrap();
        sb.close().unwrap();

        // Read back in written order: stream ra takes record A; stream rb
        // skips record A (it belongs to the other stream) and takes B.
        let mut ha = Collection::new(ctx, la.clone(), |_| 0u16).unwrap();
        let mut ra = IStream::open(ctx, &p, &la, "mixed").unwrap();
        ra.read().unwrap();
        ra.extract_collection(&mut ha).unwrap();
        for (gid, v) in ha.iter() {
            assert_eq!(*v, gid as u16);
        }

        let mut hb = Collection::new(ctx, lb.clone(), |_| 0.0f32).unwrap();
        let mut rb = IStream::open(ctx, &p, &lb, "mixed").unwrap();
        // A direct read would find record A's element count:
        assert!(matches!(
            rb.read(),
            Err(StreamError::WrongElementCount { file: 6, stream: 4 })
        ));
        rb.skip_record().unwrap();
        rb.read().unwrap();
        rb.extract_collection(&mut hb).unwrap();
        for (gid, v) in hb.iter() {
            assert_eq!(*v, gid as f32 * 0.25);
        }
        ra.close().unwrap();
        rb.close().unwrap();
    })
    .unwrap();
}

/// A version-1 (unsealed) record header can claim any sizes: no seal and
/// no open-time chain scan stand between it and `skip_record`. A span
/// that overflows `u64` must be a typed `CorruptRecord` on every rank —
/// never an overflow panic, nor a wrapped cursor and `Ok`.
#[test]
fn skip_record_rejects_an_overflowing_v1_record_span_on_every_rank() {
    let nprocs = 2;
    let layout = Layout::dense(8, nprocs, DistKind::Block).unwrap();
    for (n_elements, data_len) in [(8, u64::MAX), (u64::MAX / 2, 0)] {
        let mut image = FileHeader {
            version: 1,
            flags: 0,
        }
        .encode();
        image.extend_from_slice(
            &RecordHeader {
                n_elements,
                n_inserts: 1,
                flags: 0,
                meta_mode: MetaMode::Parallel,
                layout: layout.descriptor(),
                data_len,
            }
            .encode(),
        );
        let pfs = Pfs::in_memory(nprocs);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "v1", OpenMode::Create).unwrap();
            fh.write_at(ctx, 0, &image).unwrap();
        })
        .unwrap();

        let l = layout.clone();
        let errors = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let mut s = IStream::open(ctx, &pfs, &l, "v1").unwrap();
            match s.skip_record() {
                Err(e @ StreamError::CorruptRecord(_)) => e.to_string(),
                other => panic!("rank {}: expected CorruptRecord, got {other:?}", ctx.rank()),
            }
        })
        .unwrap();
        assert_eq!(errors[0], errors[1], "ranks disagree on the error");
    }
}

/// A version-1 record whose size table and header agree on a data span
/// far past the file end (entry 5 claims 2^40 bytes) must be a typed
/// `CorruptRecord` on every rank, for `unsorted_read` and the planned
/// `read` alike — never a buffer sized from the claim.
#[test]
fn reads_reject_a_v1_data_span_past_the_file_end_on_every_rank() {
    let nprocs = 2;
    let layout = Layout::dense(8, nprocs, DistKind::Block).unwrap();
    let huge = 1u64 << 40;
    let mut image = FileHeader {
        version: 1,
        flags: 0,
    }
    .encode();
    image.extend_from_slice(
        &RecordHeader {
            n_elements: 8,
            n_inserts: 1,
            flags: 0,
            meta_mode: MetaMode::Parallel,
            layout: layout.descriptor(),
            data_len: huge,
        }
        .encode(),
    );
    for e in 0..8 {
        let size = if e == 5 { huge } else { 0 };
        image.extend_from_slice(&size.to_le_bytes());
    }
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = p.open(true, "v1", OpenMode::Create).unwrap();
        fh.write_at(ctx, 0, &image).unwrap();
    })
    .unwrap();

    for sorted in [false, true] {
        let (p, l) = (pfs.clone(), layout.clone());
        let errors = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let mut s = IStream::open(ctx, &p, &l, "v1").unwrap();
            let got = if sorted { s.read() } else { s.unsorted_read() };
            match got {
                Err(e @ StreamError::CorruptRecord(_)) => e.to_string(),
                other => panic!("rank {}: expected CorruptRecord, got {other:?}", ctx.rank()),
            }
        })
        .unwrap();
        assert_eq!(errors[0], errors[1], "ranks disagree on the error");
    }
}

/// A version-1 image of one 8-element BLOCK record over 2 ranks whose
/// stored alignment is `(stride, offset)`, one byte per element.
fn v1_image_with_alignment(stride: u64, offset: u64) -> Vec<u8> {
    let mut layout = Layout::dense(8, 2, DistKind::Block).unwrap().descriptor();
    layout.align_stride = stride;
    layout.align_offset = offset;
    let mut image = FileHeader {
        version: 1,
        flags: 0,
    }
    .encode();
    image.extend_from_slice(
        &RecordHeader {
            n_elements: 8,
            n_inserts: 1,
            flags: 0,
            meta_mode: MetaMode::Parallel,
            layout,
            data_len: 8,
        }
        .encode(),
    );
    for _ in 0..8 {
        image.extend_from_slice(&1u64.to_le_bytes());
    }
    image.extend_from_slice(&[7; 8]);
    image
}

/// A stored alignment whose last template cell passes 2^64 (offset
/// 2^64 - 2, or stride 2^63) is a typed error on every rank, never an
/// arithmetic overflow while rebuilding the writer's layout.
#[test]
fn reads_reject_an_overflowing_stored_alignment_on_every_rank() {
    let layout = Layout::dense(8, 2, DistKind::Block).unwrap();
    for (stride, offset) in [(1, u64::MAX - 1), (1 << 63, 0)] {
        let image = v1_image_with_alignment(stride, offset);
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "v1", OpenMode::Create).unwrap();
            fh.write_at(ctx, 0, &image).unwrap();
        })
        .unwrap();
        let l = layout.clone();
        let errors = Machine::run(MachineConfig::functional(2), move |ctx| {
            let mut s = IStream::open(ctx, &pfs, &l, "v1").unwrap();
            match s.read() {
                Err(e) => e.to_string(),
                Ok(()) => panic!(
                    "rank {}: accepted alignment ({stride}, {offset})",
                    ctx.rank()
                ),
            }
        })
        .unwrap();
        assert_eq!(errors[0], errors[1], "ranks disagree on the error");
        assert!(errors[0].contains("overflows"), "{}", errors[0]);
    }
}
