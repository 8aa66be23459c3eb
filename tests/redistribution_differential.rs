//! Differential tests of the two-phase redistribution planner: a file
//! written under any (machine size, distribution) must read back
//! element-exact under any other, while the planned read path moves
//! *exactly* the analytic minimum number of bytes over the message
//! layer.
//!
//! * **exhaustive small-shape sweep** — every writer/reader rank-count
//!   pair in 1..=6, every distribution-kind pair over BLOCK, CYCLIC(1),
//!   CYCLIC(3), and a composed 2-D pattern, with ragged element sizes:
//!   readback is element-exact and measured `RedistShuttle` bytes equal
//!   the plan's lower bound;
//! * **conservation** — live traces of random cross-shape reads pass the
//!   dsverify redist-conservation rule;
//! * **idempotence** — reading under the writer's own layout schedules
//!   zero transfers;
//! * **round-trip** — redistributing A→B and back B→A reproduces the
//!   original file image byte-for-byte;
//! * **chaos** — crashing any reader rank at any PFS op never hangs the
//!   machine, never damages the (read-only) file, and replays
//!   byte-identical traces under a fixed fault seed. The fault seed
//!   honors `DSTREAMS_FAULT_SEED` so CI can sweep its seed matrix.

use dstreams::collections::{Collection, Composed2d, DistKind, Layout};
use dstreams::core::{to_bytes, IStream, OStream, ReadStrategy};
use dstreams::machine::{FaultPlan, Machine, MachineConfig};
use dstreams::pfs::{OpenMode, Pfs};
use dstreams::redist::RedistPlan;
use dstreams::trace::{EventKind, TraceSink};
use dstreams::verify::analyze;
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

/// Ragged reference element: sizes vary per gid (8..=8+size_class bytes
/// on the wire), contents are gid- and seed-dependent.
fn blob_for(gid: usize, seed: u8, size_class: usize) -> Blob {
    let n = (gid * 11 + seed as usize) % (size_class + 1);
    Blob {
        n: n as i64,
        payload: (0..n)
            .map(|k| (gid as u8).wrapping_mul(7) ^ (k as u8) ^ seed)
            .collect(),
    }
}

/// The four sweep kinds for a given machine size: BLOCK, CYCLIC(1),
/// CYCLIC(3), and a composed 2-D pattern (row-cyclic x column-block on
/// the widest processor grid that divides `nprocs`).
fn sweep_kinds(nprocs: usize) -> [DistKind; 4] {
    [
        DistKind::Block,
        DistKind::Cyclic,
        DistKind::BlockCyclic(3),
        DistKind::Composed2d(Composed2d {
            rows: 4,
            grid_rows: if nprocs.is_multiple_of(2) { 2 } else { 1 },
            row_k: 1,
            col_k: 0,
        }),
    ]
}

/// The exact minimum the planner must hit for this shape: element sizes
/// and destination owners in file order (writer-rank-major), fed through
/// the same DP the readers run.
fn analytic_min(
    n: usize,
    wprocs: usize,
    wkind: DistKind,
    rprocs: usize,
    rkind: DistKind,
    seed: u8,
    size_class: usize,
) -> u64 {
    let wl = Layout::dense(n, wprocs, wkind).unwrap();
    let rl = Layout::dense(n, rprocs, rkind).unwrap();
    let mut sizes = Vec::with_capacity(n);
    let mut dst = Vec::with_capacity(n);
    for gid in wl.file_order() {
        sizes.push(to_bytes(&blob_for(gid, seed, size_class), false).len() as u64);
        dst.push(rl.owner(gid).unwrap());
    }
    RedistPlan::new(rprocs, &sizes, &dst).lower_bound()
}

fn write_file(pfs: &Pfs, n: usize, wprocs: usize, wkind: DistKind, seed: u8, size_class: usize) {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(wprocs), move |ctx| {
        let layout = Layout::dense(n, wprocs, wkind).unwrap();
        let g = Collection::new(ctx, layout.clone(), |i| blob_for(i, seed, size_class)).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, "diff").unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();
}

/// Planned read under `(rprocs, rkind)`, asserting element-exact
/// readback against the generator. Returns the run's trace.
fn read_exact(
    pfs: &Pfs,
    n: usize,
    rprocs: usize,
    rkind: DistKind,
    seed: u8,
    size_class: usize,
) -> dstreams::trace::Trace {
    let sink = TraceSink::new(rprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(rprocs).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(n, rprocs, rkind).unwrap();
            let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut s =
                IStream::open_with(ctx, &p, &layout, "diff", ReadStrategy::Planned).unwrap();
            s.read().unwrap();
            s.extract_collection(&mut g).unwrap();
            s.close().unwrap();
            for (gid, v) in g.iter() {
                assert_eq!(
                    *v,
                    blob_for(gid, seed, size_class),
                    "element {gid} corrupted crossing shapes"
                );
            }
        },
    )
    .unwrap();
    sink.take()
}

/// Raw on-PFS image of `name`, for byte-identity comparisons.
fn file_image(pfs: &Pfs, name: &'static str) -> Vec<u8> {
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

/// Every (writer ranks, reader ranks) in 1..=6, every kind pair, ragged
/// sizes: element-exact readback and measured shuttle bytes exactly at
/// the analytic lower bound. The same-layout diagonal doubles as an
/// idempotence check (zero bytes moved).
#[test]
fn cross_shape_sweep_is_element_exact_and_minimal() {
    const N: usize = 24;
    const SIZE_CLASS: usize = 5;
    for wprocs in 1..=6usize {
        for rprocs in 1..=6usize {
            for (wi, &wkind) in sweep_kinds(wprocs).iter().enumerate() {
                for (ri, &rkind) in sweep_kinds(rprocs).iter().enumerate() {
                    let seed = (wprocs * 41 + rprocs * 7 + wi * 3 + ri) as u8;
                    let pfs = Pfs::in_memory(wprocs.max(rprocs));
                    write_file(&pfs, N, wprocs, wkind, seed, SIZE_CLASS);
                    let trace = read_exact(&pfs, N, rprocs, rkind, seed, SIZE_CLASS);
                    let moved = trace.op_counts().redist_shuttle_bytes;
                    let min = analytic_min(N, wprocs, wkind, rprocs, rkind, seed, SIZE_CLASS);
                    assert_eq!(
                        moved, min,
                        "{wprocs}x{wkind:?} -> {rprocs}x{rkind:?}: moved {moved} B, \
                         analytic minimum is {min} B"
                    );
                }
            }
        }
    }
}

/// The all-pairs sweep above fixes one seed per combination; here the
/// sizes themselves are adversarial, including the all-empty and
/// single-element edges.
#[test]
fn sweep_covers_degenerate_element_counts() {
    for n in [1usize, 2, 5] {
        for (wprocs, rprocs) in [(6, 1), (1, 6), (5, 3)] {
            let pfs = Pfs::in_memory(wprocs.max(rprocs));
            write_file(&pfs, n, wprocs, DistKind::Cyclic, 9, 4);
            let trace = read_exact(&pfs, n, rprocs, DistKind::Block, 9, 4);
            assert_eq!(
                trace.op_counts().redist_shuttle_bytes,
                analytic_min(n, wprocs, DistKind::Cyclic, rprocs, DistKind::Block, 9, 4),
                "degenerate n={n}, {wprocs}->{rprocs}"
            );
        }
    }
}

fn dist_strategy() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (1usize..5).prop_map(DistKind::BlockCyclic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Random cross-shape reads conserve every byte and element per
    /// directed rank pair: the live trace passes every dsverify rule,
    /// including redist-conservation.
    #[test]
    fn random_cross_shape_reads_conserve_through_dsverify(
        wprocs in 1usize..6,
        rprocs in 1usize..6,
        wkind in dist_strategy(),
        rkind in dist_strategy(),
        n in 1usize..40,
        seed in 0u8..=255,
    ) {
        let pfs = Pfs::in_memory(wprocs.max(rprocs));
        write_file(&pfs, n, wprocs, wkind, seed, 6);
        let trace = read_exact(&pfs, n, rprocs, rkind, seed, 6);
        let moved = trace.op_counts().redist_shuttle_bytes;
        prop_assert_eq!(moved, analytic_min(n, wprocs, wkind, rprocs, rkind, seed, 6));
        let report = analyze(&trace);
        prop_assert!(report.clean(), "dsverify flagged a healthy shuffle: {report}");
    }

    /// Reading under the writer's own layout is a no-op plan: zero
    /// transfers, zero shuttle events, zero bytes.
    #[test]
    fn same_layout_read_schedules_nothing(
        nprocs in 1usize..6,
        kind in dist_strategy(),
        n in 1usize..40,
        seed in 0u8..=255,
    ) {
        let pfs = Pfs::in_memory(nprocs);
        write_file(&pfs, n, nprocs, kind, seed, 6);
        let trace = read_exact(&pfs, n, nprocs, kind, seed, 6);
        let shuttles = trace
            .events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::RedistShuttle { .. }))
            .count();
        prop_assert_eq!(shuttles, 0, "same-layout read still shuttled data");
        prop_assert_eq!(trace.op_counts().redist_shuttle_bytes, 0);
    }

    /// A->B->A round trip: redistribute to a foreign shape, write from
    /// there, redistribute back, write again under the original shape —
    /// the final file image is byte-identical to the original.
    #[test]
    fn round_trip_reproduces_the_original_image(
        aprocs in 1usize..6,
        bprocs in 1usize..6,
        akind in dist_strategy(),
        bkind in dist_strategy(),
        n in 1usize..32,
        seed in 0u8..=255,
    ) {
        let pfs = Pfs::in_memory(aprocs.max(bprocs));
        write_file(&pfs, n, aprocs, akind, seed, 6);
        let original = file_image(&pfs, "diff");

        // A -> B: read under B, persist under B.
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(bprocs), move |ctx| {
            let layout = Layout::dense(n, bprocs, bkind).unwrap();
            let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut s = IStream::open(ctx, &p, &layout, "diff").unwrap();
            s.read().unwrap();
            s.extract_collection(&mut g).unwrap();
            s.close().unwrap();
            let mut o = OStream::create(ctx, &p, &layout, "hop").unwrap();
            o.insert_collection(&g).unwrap();
            o.write().unwrap();
            o.close().unwrap();
        })
        .unwrap();

        // B -> A: read the hop under A, persist under A.
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(aprocs), move |ctx| {
            let layout = Layout::dense(n, aprocs, akind).unwrap();
            let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut s = IStream::open(ctx, &p, &layout, "hop").unwrap();
            s.read().unwrap();
            s.extract_collection(&mut g).unwrap();
            s.close().unwrap();
            let mut o = OStream::create(ctx, &p, &layout, "back").unwrap();
            o.insert_collection(&g).unwrap();
            o.write().unwrap();
            o.close().unwrap();
        })
        .unwrap();

        prop_assert_eq!(
            file_image(&pfs, "back"),
            original,
            "A->B->A round trip altered the file image"
        );
    }
}

// ---------------------------------------------------------------------
// Chaos: crash injection into the cross-shape read path.
// ---------------------------------------------------------------------

const CHAOS_W: usize = 4;
const CHAOS_R: usize = 3;
const CHAOS_N: usize = 24;
const CHAOS_SEED: u8 = 17;

fn fault_seed() -> u64 {
    std::env::var("DSTREAMS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00D5_EA11)
}

/// Cross-shape planned read tolerating injected failures. Per rank:
/// (PFS ops issued, error that stopped it, if any).
fn chaos_read(pfs: &Pfs, config: MachineConfig) -> Vec<(u64, Option<String>)> {
    let p = pfs.clone();
    Machine::run(config, move |ctx| {
        let layout = Layout::dense(CHAOS_N, CHAOS_R, DistKind::Block).unwrap();
        let res = (|| -> Result<(), dstreams::core::StreamError> {
            let mut g = Collection::new(ctx, layout.clone(), |_| Blob::default()).unwrap();
            let mut s = IStream::open_with(ctx, &p, &layout, "diff", ReadStrategy::Planned)?;
            s.read()?;
            s.extract_collection(&mut g)?;
            s.close()?;
            for (gid, v) in g.iter() {
                assert_eq!(*v, blob_for(gid, CHAOS_SEED, 5), "element {gid} corrupt");
            }
            Ok(())
        })();
        (ctx.pfs_op_count(), res.err().map(|e| e.to_string()))
    })
    .unwrap()
}

/// Crash every reader rank at every PFS op index: the machine always
/// terminates (peers observe the crash instead of hanging), the
/// read-only file survives with its full sealed prefix intact, and a
/// clean re-read is element-exact.
#[test]
fn chaos_crash_sweep_never_hangs_and_preserves_the_file() {
    let pfs = Pfs::in_memory(CHAOS_W.max(CHAOS_R));
    write_file(
        &pfs,
        CHAOS_N,
        CHAOS_W,
        DistKind::BlockCyclic(3),
        CHAOS_SEED,
        5,
    );
    let clean = chaos_read(&pfs, MachineConfig::functional(CHAOS_R));
    assert!(clean.iter().all(|(_, e)| e.is_none()), "{clean:?}");
    let total_ops = clean.iter().map(|(n, _)| *n).max().unwrap();
    assert!(total_ops > 0);

    let seed = fault_seed();
    let mut crashed_runs = 0;
    for rank in 0..CHAOS_R {
        for k in 0..total_ops {
            let plan = FaultPlan::seeded(seed ^ ((rank as u64) << 32) ^ k).crash_at(rank, k);
            let out = chaos_read(&pfs, MachineConfig::functional(CHAOS_R).with_faults(plan));
            if out.iter().any(|(_, e)| e.is_some()) {
                crashed_runs += 1;
            }
            // Reads never write: the image must still scan as fully
            // sealed, nothing torn.
            let image = file_image(&pfs, "diff");
            let report = dstreams::core::recovery_scan(&image)
                .unwrap_or_else(|e| panic!("crash of rank {rank} at op {k}: scan failed: {e}"));
            assert!(
                !report.torn,
                "crash of rank {rank} at op {k} tore a read-only file"
            );
            // And the survivors' next read sees everything.
            let reread = chaos_read(&pfs, MachineConfig::functional(CHAOS_R));
            assert!(
                reread.iter().all(|(_, e)| e.is_none()),
                "crash of rank {rank} at op {k}: clean re-read failed: {reread:?}"
            );
        }
    }
    assert!(crashed_runs > 0, "the sweep never actually crashed a run");
}

/// Two runs under the same fault seed replay byte-identical traces, and
/// the trace shows both the shuttle traffic and the injected crash.
#[test]
fn chaos_cross_shape_traces_byte_identically_per_seed() {
    let pfs = Pfs::in_memory(CHAOS_W.max(CHAOS_R));
    write_file(
        &pfs,
        CHAOS_N,
        CHAOS_W,
        DistKind::BlockCyclic(3),
        CHAOS_SEED,
        5,
    );
    // A clean traced read crosses shapes, so it must shuttle elements.
    let sink = TraceSink::new(CHAOS_R);
    let clean = chaos_read(
        &pfs,
        MachineConfig::functional(CHAOS_R).traced(sink.clone()),
    );
    assert!(
        sink.take().op_counts().redist_shuttles > 0,
        "the cross-shape read never shuttled an element"
    );

    let k = clean[1].0 / 2;
    let seed = fault_seed();
    let run = || {
        let sink = TraceSink::new(CHAOS_R);
        let plan = FaultPlan::seeded(seed).crash_at(1, k);
        let _ = chaos_read(
            &pfs,
            MachineConfig::functional(CHAOS_R)
                .with_faults(plan)
                .traced(sink.clone()),
        );
        sink.take()
    };
    let a = run();
    assert_eq!(a, run(), "same fault seed must replay bit-identically");
    assert!(
        a.op_counts().faults_injected.contains_key("crash"),
        "the injected crash never reached the trace layer"
    );
}
