//! The unsummed collectives (`write_ordered`/`read_ordered`) skip hashing
//! but must otherwise be indistinguishable from the `_summed` variants:
//! the same file bytes, the same virtual clock on every rank and the same
//! trace, on the direct and on the aggregated path. The summed digests
//! must fold to the digest of the whole region. The split-collective
//! twins (`_begin_summed`, waited at once) share that implementation:
//! the same file bytes, offsets and digests as the blocking summed run.

use dstreams_machine::{CollectiveConfig, Machine, MachineConfig, VTime};
use dstreams_pfs::{Backend, ChunkSum, DiskModel, OpenMode, Pfs};
use dstreams_trace::{Trace, TraceSink};

const NPROCS: usize = 4;
const ROUNDS: usize = 3;

/// Uneven per-rank block lengths, one of them empty.
fn block_len(rank: usize, round: usize) -> usize {
    if rank == 2 && round == 1 {
        0
    } else {
        37 * (rank + 1) + 11 * round
    }
}

fn block(rank: usize, round: usize) -> Vec<u8> {
    (0..block_len(rank, round))
        .map(|i| (i as u8).wrapping_mul(31) ^ (rank as u8) ^ ((round as u8) << 4))
        .collect()
}

/// The rank-order image the writes append.
fn expected_image() -> Vec<u8> {
    (0..ROUNDS)
        .flat_map(|k| (0..NPROCS).flat_map(move |r| block(r, k)))
        .collect()
}

/// Per-rank read span `[lo, hi)`: an uneven tiling of `[0, size)` that
/// gives rank 1 nothing.
fn read_span(rank: usize, size: u64) -> (u64, u64) {
    let cuts = [0, size / 3 + 5, size / 3 + 5, size - 17, size];
    (cuts[rank], cuts[rank + 1])
}

/// Which variant of the collectives a run calls.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// `write_ordered` / `read_ordered`.
    Plain,
    /// `write_ordered_summed` / `read_ordered_summed`.
    Summed,
    /// `write_ordered_begin_summed` / `read_ordered_begin_summed`, each
    /// handle waited at once.
    Begin,
}

struct Run {
    image: Vec<u8>,
    clocks: Vec<VTime>,
    trace: Trace,
    /// Per rank: the block offset of every write round.
    offsets: Vec<Vec<u64>>,
    /// Per rank: the write digests of every round, then the read digests.
    digests: Vec<(Vec<Vec<ChunkSum>>, Vec<ChunkSum>)>,
}

fn run(collective: Option<CollectiveConfig>, mode: Mode) -> Run {
    let pfs = Pfs::new(NPROCS, DiskModel::paragon_pfs(), Backend::Memory);
    let sink = TraceSink::new(NPROCS);
    let mut cfg = MachineConfig::paragon(NPROCS).traced(sink.clone());
    cfg.collective = collective;
    let p = pfs.clone();
    let size = expected_image().len() as u64;
    let out = Machine::run(cfg, move |ctx| {
        let fh = p.open(ctx.is_root(), "parity", OpenMode::Create).unwrap();
        let mut offsets = Vec::new();
        let mut writes = Vec::new();
        for round in 0..ROUNDS {
            let data = block(ctx.rank(), round);
            let off = match mode {
                Mode::Plain => fh.write_ordered(ctx, &data).unwrap(),
                Mode::Summed => {
                    let (off, digests) = fh.write_ordered_summed(ctx, &data).unwrap();
                    writes.push(digests);
                    off
                }
                Mode::Begin => {
                    let (off, digests, h) = fh.write_ordered_begin_summed(ctx, &data).unwrap();
                    assert!(!h.peer_crashed());
                    h.wait(ctx).unwrap();
                    writes.push(digests);
                    off
                }
            };
            offsets.push(off);
        }
        let (lo, hi) = read_span(ctx.rank(), size);
        let len = (hi - lo) as usize;
        let (bytes, reads) = match mode {
            Mode::Plain => (fh.read_ordered(ctx, lo, len).unwrap(), Vec::new()),
            Mode::Summed => fh.read_ordered_summed(ctx, lo, len).unwrap(),
            Mode::Begin => {
                let (bytes, digests, h) = fh.read_ordered_begin_summed(ctx, lo, len).unwrap();
                h.wait(ctx).unwrap();
                (bytes, digests)
            }
        };
        assert_eq!(bytes, expected_image()[lo as usize..hi as usize]);
        (ctx.now(), (offsets, (writes, reads)))
    })
    .unwrap();
    let image = Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = pfs.open(false, "parity", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; fh.len() as usize];
        fh.read_at(ctx, 0, &mut buf).unwrap();
        buf
    })
    .unwrap()
    .remove(0);
    let (clocks, results): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    let (offsets, digests) = results.into_iter().unzip();
    Run {
        image,
        clocks,
        trace: sink.take(),
        offsets,
        digests,
    }
}

fn fold(digests: &[ChunkSum]) -> ChunkSum {
    digests.iter().fold(ChunkSum::EMPTY, |acc, &d| acc.then(d))
}

fn check_parity(collective: Option<CollectiveConfig>) {
    let plain = run(collective, Mode::Plain);
    let summed = run(collective, Mode::Summed);
    let begin = run(collective, Mode::Begin);
    let image = expected_image();
    assert_eq!(plain.image, image);
    assert_eq!(summed.image, image);
    assert_eq!(begin.image, image, "begin mode wrote another image");
    assert_eq!(plain.offsets, summed.offsets, "block offsets diverged");
    assert_eq!(begin.offsets, summed.offsets, "begin-mode offsets diverged");
    assert_eq!(begin.digests, summed.digests, "begin-mode digests diverged");
    assert_eq!(plain.clocks, summed.clocks, "virtual clocks diverged");
    assert!(plain.clocks.iter().all(|&t| t > VTime::ZERO));
    assert!(!plain.trace.is_empty());
    assert_eq!(plain.trace, summed.trace, "traces diverged");

    // Every rank learns every rank's digests; they fold to the region's.
    for run in [&summed, &begin] {
        let mut round_start = 0;
        for round in 0..ROUNDS {
            let round_len: usize = (0..NPROCS).map(|r| block_len(r, round)).sum();
            let region = ChunkSum::of(&image[round_start..round_start + round_len]);
            for (writes, _) in &run.digests {
                assert_eq!(writes[round].len(), NPROCS);
                assert_eq!(fold(&writes[round]), region, "write round {round}");
            }
            round_start += round_len;
        }
        for (_, reads) in &run.digests {
            assert_eq!(reads.len(), NPROCS);
            assert_eq!(fold(reads), ChunkSum::of(&image), "read digests");
        }
    }
}

#[test]
fn unsummed_direct_collectives_match_summed() {
    check_parity(None);
}

#[test]
fn unsummed_aggregated_collectives_match_summed() {
    for aggregators in [1, 2, NPROCS] {
        check_parity(Some(CollectiveConfig {
            aggregators,
            stripe_align: true,
        }));
    }
}
