//! The schedule executor under an unreliable transport: the plan runs
//! over `NodeCtx::send`/`recv`, so it inherits the machine's reliable
//! delivery layer (retransmit, dedup, reordering repair) for free. These
//! tests pin that inheritance: element-exact delivery under message
//! chaos, bit-identical replays per seed, and fail-fast `PeerGone`
//! instead of a hang when an edge is cut for good.

use std::collections::BTreeMap;

use dstreams_collections::{DistKind, Layout};
use dstreams_machine::{FaultPlan, Machine, MachineConfig, MachineError, MsgFaultPlan, VTime};
use dstreams_redist::{execute, plan_for_layouts, ExecError, Interval};

const ELEMENTS: usize = 40;
const NPROCS: usize = 4;

/// File-order sizes of a record written under `layout`, with
/// `1 + gid % 5`-byte elements.
fn file_sizes(layout: &Layout) -> Vec<u64> {
    layout
        .file_order()
        .map(|gid| 1 + (gid % 5) as u64)
        .collect()
}

/// Split each placed interval back into its elements, keyed by
/// file-order index.
fn per_element<'a>(
    sizes: &'a [u64],
    mut place: impl FnMut(usize, &[u8]) + 'a,
) -> impl FnMut(&Interval, &[u8]) + 'a {
    move |iv, bytes| {
        let mut cursor = 0usize;
        for (e, &size) in sizes.iter().enumerate().skip(iv.start).take(iv.len) {
            place(e, &bytes[cursor..cursor + size as usize]);
            cursor += size as usize;
        }
    }
}

/// Deterministic payload byte for file-order element `e`.
fn fill(e: usize) -> u8 {
    (e * 37 + 11) as u8
}

/// Run a cross-shape shuffle on `config` and return, per rank, the
/// `(file_index -> payload)` map it ended up owning plus its final
/// virtual clock.
fn shuffle(config: MachineConfig) -> Vec<(BTreeMap<usize, Vec<u8>>, VTime)> {
    let writer = Layout::dense(ELEMENTS, NPROCS, DistKind::BlockCyclic(3)).unwrap();
    let target = Layout::dense(ELEMENTS, NPROCS, DistKind::Cyclic).unwrap();
    Machine::run(config, move |ctx| {
        let sizes = file_sizes(&writer);
        let (plan, _) = plan_for_layouts(NPROCS, &writer, &target, &sizes, ctx.rank()).unwrap();
        let (lo, hi) = plan.span(ctx.rank());
        let mut raw = Vec::new();
        for (e, size) in sizes.iter().enumerate().take(hi).skip(lo) {
            raw.extend(std::iter::repeat_n(fill(e), *size as usize));
        }
        let mut got: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
        let place = per_element(&sizes, |e, bytes| {
            assert!(
                got.insert(e, bytes.to_vec()).is_none(),
                "element {e} placed twice"
            );
        });
        execute(ctx, &plan, &raw, "chaos", place).unwrap();
        (got, ctx.now())
    })
    .unwrap()
}

fn chaos(seed: u64) -> MsgFaultPlan {
    MsgFaultPlan::seeded(seed)
        .drop_ppm(150_000)
        .dup_ppm(100_000)
        .delay_ppm(100_000)
        .reorder_ppm(100_000)
}

#[test]
fn shuffle_is_element_exact_under_message_chaos() {
    let clean = shuffle(MachineConfig::functional(NPROCS));
    for seed in [1u64, 424242, 0xDEAD_BEEF] {
        let noisy = shuffle(
            MachineConfig::functional(NPROCS)
                .with_faults(FaultPlan::default().with_msg(chaos(seed))),
        );
        for (rank, ((clean_map, _), (noisy_map, _))) in clean.iter().zip(&noisy).enumerate() {
            assert_eq!(
                clean_map, noisy_map,
                "rank {rank} diverged under seed {seed}"
            );
        }
        // Every element lands exactly once, with the bytes it was filled
        // with, on exactly one rank.
        let mut seen = [0u32; ELEMENTS + NPROCS];
        for (map, _) in &noisy {
            for (e, bytes) in map {
                seen[*e] += 1;
                assert!(
                    bytes.iter().all(|b| *b == fill(*e)),
                    "element {e} corrupted"
                );
            }
        }
        let placed: u32 = seen.iter().sum();
        assert_eq!(
            placed as usize, ELEMENTS,
            "seed {seed} lost or invented elements"
        );
        assert!(seen.iter().all(|&c| c <= 1));
    }
}

#[test]
fn shuffle_replays_bit_identically_per_seed() {
    let config = || {
        MachineConfig::functional(NPROCS).with_faults(FaultPlan::default().with_msg(chaos(424242)))
    };
    let a = shuffle(config());
    let b = shuffle(config());
    assert_eq!(
        a, b,
        "same seed must replay bit-identically (clocks included)"
    );
}

#[test]
fn cut_edge_surfaces_peer_gone_instead_of_hanging() {
    let writer = Layout::dense(ELEMENTS, NPROCS, DistKind::BlockCyclic(3)).unwrap();
    let target = Layout::dense(ELEMENTS, NPROCS, DistKind::Cyclic).unwrap();
    // Sever both directions of the 0 <-> 1 data-plane edge from the
    // first message on; the executor must error out, not deadlock.
    let plan =
        FaultPlan::default().with_msg(MsgFaultPlan::seeded(7).cut_edge(0, 1, 0).cut_edge(1, 0, 0));
    let results = Machine::run(
        MachineConfig::functional(NPROCS).with_faults(plan),
        move |ctx| {
            let sizes = file_sizes(&writer);
            let (plan, _) = plan_for_layouts(NPROCS, &writer, &target, &sizes, ctx.rank()).unwrap();
            let (lo, hi) = plan.span(ctx.rank());
            let mut raw = Vec::new();
            for (e, size) in sizes.iter().enumerate().take(hi).skip(lo) {
                raw.extend(std::iter::repeat_n(fill(e), *size as usize));
            }
            execute(ctx, &plan, &raw, "cut", |_, _| {})
        },
    )
    .unwrap();
    // The cross-shape plan ships traffic on the cut edge, so at least
    // one of its endpoints must observe PeerGone.
    assert!(
        results
            .iter()
            .any(|r| matches!(r, Err(ExecError::Machine(MachineError::PeerGone { .. })))),
        "no rank observed the cut: {results:?}"
    );
}
