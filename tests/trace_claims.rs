//! Trace-based tests of the paper's communication claims (§4.1–§4.2),
//! checked against the recorded event stream rather than against timings:
//!
//! * **unsortedRead avoids communication** — reading without the sorting
//!   (routing) step emits zero point-to-point messages, no all-to-all and
//!   no route phase, while a sorted read under a different distribution
//!   demonstrably does route;
//! * **metadata strategies** — gathered-metadata mode performs the
//!   gather-to-node-0 and a single collective write per record (no
//!   parallel size-table write); parallel mode performs no gather and two
//!   collective writes per record, one of them inside the size-table
//!   phase;
//! * **SMP single-buffer mode** — one plain write per record, issued by
//!   one processor, and no collective writes at all;
//! * **determinism** — identical (seed, ranks, distribution, sizes)
//!   produce byte-identical merged traces across two runs, and the trace
//!   op counts agree exactly with the PFS statistics counters.

use dstreams::collections::{Collection, DistKind, Layout};
use dstreams::core::{
    IStream, LocalFile, MetaMode, MetaPolicy, OStream, ReadStrategy, StreamOptions,
};
use dstreams::machine::{Machine, MachineConfig};
use dstreams::pfs::Pfs;
use dstreams::trace::{CollOp, EventKind, PfsOp, StreamPhase, Trace, TraceSink};
use dstreams_core::impl_stream_data;
use proptest::prelude::*;

#[derive(Debug, Default, Clone, PartialEq)]
struct Blob {
    n: i64,
    payload: Vec<u8>,
}

impl_stream_data!(Blob {
    prim n,
    slice payload: u8 [n],
});

fn blob_for(gid: usize, seed: u8) -> Blob {
    let n = (gid * 5 + seed as usize) % 13;
    Blob {
        n: n as i64,
        payload: (0..n)
            .map(|k| (gid as u8).wrapping_mul(3) ^ (k as u8) ^ seed)
            .collect(),
    }
}

/// Write `n` blobs to `name` on a fresh functional machine, untraced.
fn write_blobs(pfs: &Pfs, nprocs: usize, n: usize, name: &'static str) {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(nprocs), move |ctx| {
        let layout = Layout::dense(n, nprocs, DistKind::Block).unwrap();
        let g = Collection::new(ctx, layout.clone(), |i| blob_for(i, 7)).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, name).unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();
}

fn p2p_sends(trace: &Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::MsgSend {
                    collective: false,
                    ..
                }
            )
        })
        .count()
}

fn collective_entries(trace: &Trace, which: CollOp) -> usize {
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Collective { op, .. } if op == which))
        .count()
}

fn phase_begins(trace: &Trace, which: StreamPhase) -> usize {
    trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PhaseBegin { phase } if phase == which))
        .count()
}

fn collective_writes(trace: &Trace) -> usize {
    trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::PfsCollective {
                    op: PfsOp::Write,
                    ..
                }
            )
        })
        .count()
}

#[test]
fn unsorted_read_moves_no_point_to_point_messages() {
    const NPROCS: usize = 4;
    const N: usize = 24;
    let pfs = Pfs::in_memory(NPROCS);
    write_blobs(&pfs, NPROCS, N, "unsorted_claim");

    // Unsorted read under the same element count but a different
    // distribution: elements are dealt to whoever holds buffer space,
    // so no routing is needed.
    let sink = TraceSink::new(NPROCS);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(NPROCS).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(N, NPROCS, DistKind::Cyclic).unwrap();
            let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut r = IStream::open(ctx, &p, &layout, "unsorted_claim").unwrap();
            r.unsorted_read().unwrap();
            r.extract_collection(&mut g).unwrap();
            r.close().unwrap();
        },
    )
    .unwrap();
    let unsorted = sink.take();
    assert!(!unsorted.is_empty(), "trace recorded nothing");
    assert_eq!(p2p_sends(&unsorted), 0, "unsortedRead sent p2p messages");
    assert_eq!(collective_entries(&unsorted, CollOp::AllToAll), 0);
    assert_eq!(phase_begins(&unsorted, StreamPhase::Route), 0);

    // Contrast: the sorted read under the changed distribution must
    // route, so the claim above is discriminating, not vacuous. Under
    // the default planned strategy routing appears as redistribution
    // shuttle traffic; under the naive baseline, as an all-to-all.
    for strategy in [ReadStrategy::Planned, ReadStrategy::Naive] {
        let sink = TraceSink::new(NPROCS);
        let p = pfs.clone();
        Machine::run(
            MachineConfig::functional(NPROCS).traced(sink.clone()),
            move |ctx| {
                let layout = Layout::dense(N, NPROCS, DistKind::Cyclic).unwrap();
                let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
                let mut r =
                    IStream::open_with(ctx, &p, &layout, "unsorted_claim", strategy).unwrap();
                r.read().unwrap();
                r.extract_collection(&mut g).unwrap();
                r.close().unwrap();
                for (gid, e) in g.iter() {
                    assert_eq!(e, &blob_for(gid, 7));
                }
            },
        )
        .unwrap();
        let sorted = sink.take();
        let shuttles = sorted
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RedistShuttle { outgoing: true, .. }))
            .count();
        match strategy {
            ReadStrategy::Planned => {
                assert_eq!(collective_entries(&sorted, CollOp::AllToAll), 0);
                assert!(shuttles > 0, "planned cross-distribution read must shuttle");
            }
            ReadStrategy::Naive => {
                assert_eq!(collective_entries(&sorted, CollOp::AllToAll), NPROCS);
                assert_eq!(shuttles, 0);
            }
        }
        assert_eq!(phase_begins(&sorted, StreamPhase::Route), NPROCS);
    }
}

/// Write `records` records of `n` blobs with the given metadata mode,
/// returning the merged trace.
fn traced_write(nprocs: usize, n: usize, records: usize, mode: MetaMode) -> Trace {
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(n, nprocs, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| blob_for(i, 3)).unwrap();
            let opts = StreamOptions {
                meta_policy: MetaPolicy::Force(mode),
                ..StreamOptions::default()
            };
            let mut s = OStream::create_with(ctx, &pfs, &layout, "meta_claim", opts).unwrap();
            for _ in 0..records {
                s.insert_collection(&g).unwrap();
                s.write().unwrap();
            }
            s.close().unwrap();
        },
    )
    .unwrap();
    sink.take()
}

#[test]
fn gathered_metadata_gathers_and_writes_once_per_record() {
    const NPROCS: usize = 4;
    const RECORDS: usize = 2;
    let t = traced_write(NPROCS, 24, RECORDS, MetaMode::Gathered);
    // The size tables travel to node 0 by gather — one rank-entry each...
    assert_eq!(collective_entries(&t, CollOp::Gather), NPROCS * RECORDS);
    // ...and there is no separate parallel size-table write:
    assert_eq!(phase_begins(&t, StreamPhase::SizeTable), 0);
    // a single collective write per record carries metadata and data.
    assert_eq!(collective_writes(&t), NPROCS * RECORDS);
}

#[test]
fn parallel_metadata_never_gathers_and_writes_twice_per_record() {
    const NPROCS: usize = 4;
    const RECORDS: usize = 2;
    let t = traced_write(NPROCS, 24, RECORDS, MetaMode::Parallel);
    // No gather-to-node-0 at all — the size table is written in parallel:
    assert_eq!(collective_entries(&t, CollOp::Gather), 0);
    assert_eq!(phase_begins(&t, StreamPhase::SizeTable), NPROCS * RECORDS);
    // two collective writes per record: size table, then data.
    assert_eq!(collective_writes(&t), 2 * NPROCS * RECORDS);

    // Per rank, exactly one of the two writes falls inside the size-table
    // phase (the merged trace keeps each rank's events in program order).
    for rank in 0..NPROCS {
        let lane: Vec<_> = t.events.iter().filter(|e| e.rank == rank).collect();
        let mut in_size_table = false;
        let mut inside = 0usize;
        let mut outside = 0usize;
        for e in &lane {
            match e.kind {
                EventKind::PhaseBegin {
                    phase: StreamPhase::SizeTable,
                } => in_size_table = true,
                EventKind::PhaseEnd {
                    phase: StreamPhase::SizeTable,
                } => in_size_table = false,
                EventKind::PfsCollective {
                    op: PfsOp::Write, ..
                } => {
                    if in_size_table {
                        inside += 1;
                    } else {
                        outside += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(inside, RECORDS, "rank {rank}: size-table writes");
        assert_eq!(outside, RECORDS, "rank {rank}: data writes");
    }
}

#[test]
fn smp_single_buffer_writes_each_record_exactly_once() {
    const NPROCS: usize = 4;
    const RECORDS: usize = 2;
    let sink = TraceSink::new(NPROCS);
    let pfs = Pfs::in_memory(NPROCS);
    Machine::run(
        MachineConfig::sgi_challenge(NPROCS).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(24, NPROCS, DistKind::Block).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| blob_for(i, 9)).unwrap();
            let opts = StreamOptions {
                smp_single_buffer: true,
                ..StreamOptions::default()
            };
            let mut s = OStream::create_with(ctx, &pfs, &layout, "smp_claim", opts).unwrap();
            for _ in 0..RECORDS {
                s.insert_collection(&g).unwrap();
                s.write().unwrap();
            }
            s.close().unwrap();
        },
    )
    .unwrap();
    let t = sink.take();

    // Every rank packed into the shared buffer, but the file saw exactly
    // one plain write per record, from one processor, and no collective
    // writes at all.
    let writes: Vec<_> = t
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                EventKind::PfsIndependent {
                    op: PfsOp::Write,
                    ..
                }
            )
        })
        .collect();
    assert_eq!(writes.len(), RECORDS, "one data write per record");
    assert!(writes.iter().all(|e| e.rank == 0), "lone writer is rank 0");
    for w in &writes {
        if let EventKind::PfsIndependent { bytes, .. } = w.kind {
            assert!(bytes > 0, "the single write carries the whole record");
        }
    }
    assert_eq!(collective_writes(&t), 0);
}

#[test]
fn replicated_local_io_has_one_writer_and_broadcast_reads() {
    const NPROCS: usize = 4;
    const PARAMS: &[u8] = b"nbody=1000;dt=0.01;steps=64";
    let sink = TraceSink::new(NPROCS);
    let pfs = Pfs::in_memory(NPROCS);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(NPROCS).traced(sink.clone()),
        move |ctx| {
            let mut f = LocalFile::create(ctx, &p, "params").unwrap();
            f.write(PARAMS).unwrap();
            let mut r = LocalFile::open(ctx, &p, "params").unwrap();
            assert_eq!(r.read(PARAMS.len()).unwrap(), PARAMS);
        },
    )
    .unwrap();
    let t = sink.take();

    // §4.2: "local data is output and input by only one node" — the
    // whole run performs exactly one physical write and one physical
    // read, both from rank 0, each moving the full replicated block.
    let ind: Vec<_> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::PfsIndependent { op, bytes, .. } => Some((e.rank, op, bytes)),
            _ => None,
        })
        .collect();
    assert_eq!(
        ind,
        vec![
            (0, PfsOp::Write, PARAMS.len() as u64),
            (0, PfsOp::Read, PARAMS.len() as u64),
        ],
        "replicated I/O must touch the file exactly twice, from rank 0 only"
    );
    assert_eq!(collective_writes(&t), 0, "no collective writes at all");

    // "For input, the data is broadcast to the rest of the nodes after
    // it is read": one broadcast (entered by every rank), whose payload
    // reaches each of the other NPROCS-1 ranks exactly once — the
    // binomial tree moves NPROCS-1 payload-sized messages in total.
    assert_eq!(collective_entries(&t, CollOp::Broadcast), NPROCS);
    let mut fed: Vec<usize> = t
        .events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MsgSend {
                to,
                bytes,
                collective: true,
                ..
            } if bytes as usize > PARAMS.len() => Some(to),
            _ => None,
        })
        .collect();
    fed.sort_unstable();
    assert_eq!(
        fed,
        (1..NPROCS).collect::<Vec<_>>(),
        "the broadcast must feed every non-root rank exactly once"
    );
}

/// One full traced write+read roundtrip on a fresh machine and PFS;
/// returns the merged trace and the PFS statistics it must agree with.
fn traced_roundtrip(
    n: usize,
    nprocs: usize,
    kind: DistKind,
    seed: u8,
) -> (Trace, dstreams::pfs::StatsSnapshot) {
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::paragon(nprocs).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(n, nprocs, kind).unwrap();
            let g = Collection::new(ctx, layout.clone(), |i| blob_for(i, seed)).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "det").unwrap();
            s.insert_collection(&g).unwrap();
            s.write().unwrap();
            s.close().unwrap();

            let mut h = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut r = IStream::open(ctx, &p, &layout, "det").unwrap();
            r.read().unwrap();
            r.extract_collection(&mut h).unwrap();
            r.close().unwrap();
        },
    )
    .unwrap();
    (sink.take(), pfs.stats())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    #[test]
    fn traces_are_deterministic_and_agree_with_pfs_stats(
        n in 1usize..32,
        nprocs in 1usize..5,
        kind in prop_oneof![
            Just(DistKind::Block),
            Just(DistKind::Cyclic),
            (1usize..4).prop_map(DistKind::BlockCyclic),
        ],
        seed in any::<u8>(),
    ) {
        let (a, stats) = traced_roundtrip(n, nprocs, kind, seed);
        let (b, _) = traced_roundtrip(n, nprocs, kind, seed);

        // Byte-identical merged event streams across two identical runs.
        prop_assert_eq!(&a, &b);

        // The aggregated op counts agree exactly with the PFS counters.
        let counts = a.op_counts();
        prop_assert_eq!(counts.pfs_independent_ops, stats.independent_ops);
        prop_assert_eq!(counts.pfs_independent_bytes, stats.independent_bytes);
        prop_assert_eq!(counts.pfs_disk_regime_ops, stats.disk_regime_ops);
        prop_assert_eq!(counts.pfs_collective_ops, stats.collective_ops);
        prop_assert_eq!(counts.pfs_collective_bytes, stats.collective_bytes);
    }
}
