//! Every collective write runs its machine collectives either in the
//! collective cell (fault-free machine) or on the wire (any fault plan,
//! even an empty one). The two must be indistinguishable: the same file
//! bytes, offsets, digests, virtual clocks, trace and operation counts,
//! for every write variant, direct and aggregated, after independent
//! writes and with empty blocks. The cell path must also meet once per
//! fused step: two rendezvous per fault-free collective write.

use dstreams_machine::{CollectiveConfig, FaultPlan, Machine, MachineConfig, VTime};
use dstreams_pfs::{Backend, ChunkSum, DiskModel, OpenMode, Pfs};
use dstreams_trace::{OpCounts, TraceSink};
use proptest::prelude::*;

/// One generated workload: per-rank independent writes, then rounds of
/// collective writes (a variant code and one block length per rank).
#[derive(Debug, Clone)]
struct Workload {
    nprocs: usize,
    /// Aggregators of the aggregated path; `None` writes directly.
    aggregators: Option<usize>,
    /// Per rank: bytes written independently before the collectives.
    prior: Vec<usize>,
    /// Per round: the variant and each rank's block length.
    rounds: Vec<(u8, Vec<usize>)>,
}

/// Per rank: every round's (offset, digests), and the final clock.
type RankOut = (Vec<(u64, Vec<ChunkSum>)>, VTime);

struct Run {
    ranks: Vec<RankOut>,
    image: Vec<u8>,
    trace: String,
    counts: OpCounts,
}

fn block(rank: usize, round: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(13) ^ (rank as u8 * 41) ^ round as u8)
        .collect()
}

fn run(w: &Workload, wire: bool) -> Run {
    let pfs = Pfs::new(w.nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let sink = TraceSink::new(w.nprocs);
    let mut cfg = MachineConfig::paragon(w.nprocs).traced(sink.clone());
    cfg.collective = w.aggregators.map(|aggregators| CollectiveConfig {
        aggregators: aggregators.min(w.nprocs),
        stripe_align: aggregators % 2 == 0,
    });
    if wire {
        cfg = cfg.with_faults(FaultPlan::seeded(7));
    }
    let p = pfs.clone();
    let ranks = Machine::run(cfg, |ctx| {
        let me = ctx.rank();
        let fh = p.open(ctx.is_root(), "w", OpenMode::Create).unwrap();
        // Independent writes into disjoint 64-byte slots; the first
        // collective appends after the highest of them.
        fh.write_at(ctx, 64 * me as u64, &block(me, 99, w.prior[me]))
            .unwrap();
        let mut out = Vec::new();
        for (round, (variant, lens)) in w.rounds.iter().enumerate() {
            let data = block(me, round, lens[me]);
            out.push(match variant % 3 {
                0 => (fh.write_ordered(ctx, &data).unwrap(), Vec::new()),
                1 => fh.write_ordered_summed(ctx, &data).unwrap(),
                _ => {
                    let (off, digests, h) = fh.write_ordered_begin_summed(ctx, &data).unwrap();
                    h.wait(ctx).unwrap();
                    (off, digests)
                }
            });
        }
        (out, ctx.now())
    })
    .unwrap();
    let image = Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = pfs.open(false, "w", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; fh.len() as usize];
        fh.read_at(ctx, 0, &mut buf).unwrap();
        buf
    })
    .unwrap()
    .remove(0);
    let trace = sink.take();
    Run {
        ranks,
        image,
        counts: trace.op_counts(),
        trace: trace.to_events_json(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn cell_and_wire_writes_are_indistinguishable(
        nprocs in 1usize..=6,
        agg in 0usize..4,
        prior in proptest::collection::vec(0usize..64, 6),
        variants in proptest::collection::vec(any::<u8>(), 1..5),
        lens in proptest::collection::vec(0usize..300, 24),
    ) {
        // Every workload has at least one empty block.
        let mut lens = lens;
        lens[variants[0] as usize % nprocs] = 0;
        let w = Workload {
            nprocs,
            aggregators: (agg > 0).then_some(agg),
            prior: prior[..nprocs].to_vec(),
            rounds: variants
                .iter()
                .enumerate()
                .map(|(k, &v)| (v, lens[k * 6..k * 6 + nprocs].to_vec()))
                .collect(),
        };
        let cell = run(&w, false);
        let wire = run(&w, true);
        prop_assert_eq!(&cell.image, &wire.image, "file bytes differ");
        prop_assert_eq!(&cell.ranks, &wire.ranks, "offsets, digests or clocks differ");
        prop_assert_eq!(&cell.trace, &wire.trace, "traces differ");
        prop_assert_eq!(&cell.counts, &wire.counts, "operation counts differ");
    }
}

/// Rendezvous a rank makes in the collective cell for one call of
/// `write`, after a warm-up write.
fn rendezvous_per_write(
    collective: Option<CollectiveConfig>,
    write: impl Fn(&dstreams_pfs::FileHandle, &dstreams_machine::NodeCtx) + Sync,
) -> Vec<u64> {
    let pfs = Pfs::new(4, DiskModel::paragon_pfs(), Backend::Memory);
    let mut cfg = MachineConfig::paragon(4);
    cfg.collective = collective;
    Machine::run(cfg, |ctx| {
        let fh = pfs.open(ctx.is_root(), "count", OpenMode::Create).unwrap();
        write(&fh, ctx);
        let before = ctx.rendezvous_count();
        write(&fh, ctx);
        ctx.rendezvous_count() - before
    })
    .unwrap()
}

#[test]
fn a_fault_free_collective_write_is_two_rendezvous() {
    let data = |ctx: &dstreams_machine::NodeCtx| vec![ctx.rank() as u8; 100];
    // The barrier and plan exchange are one rendezvous; the closing
    // barrier (blocking) or crash-flag reduction (begin) is the other.
    let blocking = rendezvous_per_write(None, |fh, ctx| {
        fh.write_ordered(ctx, &data(ctx)).unwrap();
    });
    assert_eq!(blocking, vec![2; 4]);
    let begin = rendezvous_per_write(None, |fh, ctx| {
        let (_, _, h) = fh.write_ordered_begin_summed(ctx, &data(ctx)).unwrap();
        h.wait(ctx).unwrap();
    });
    assert_eq!(begin, vec![2; 4]);
}
