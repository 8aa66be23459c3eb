//! Chaos soup: end-to-end survival of the full stack on an unreliable
//! transport.
//!
//! Where `chaos_sweep.rs` injects *storage* faults (power cuts, torn
//! writes), this sweep injects *message* faults: seeded drop, duplicate,
//! delay and reorder on every edge of the simulated interconnect, plus
//! deterministic data-plane kills of aggregator ranks mid-write. The
//! reliable-delivery layer (retransmit under virtual-time backoff,
//! receive-side dedup and resequencing, timeout-based failure detection)
//! plus aggregator failover must keep the durable bytes exactly what a
//! fault-free run produces — or, when data is genuinely unreachable,
//! leave records unsealed so recovery truncates to the newest sealed
//! generation instead of serving torn data.
//!
//! The message-fault seed honors `DSTREAMS_MSG_SEED` so CI can soak a
//! seed matrix over the same tests and archive failing seeds.

use dstreams::collections::{Collection, DistKind, Layout};
use dstreams::core::CheckpointManager;
use dstreams::machine::{CollectiveConfig, FaultPlan, Machine, MachineConfig, MsgFaultPlan};
use dstreams::pfs::Pfs;
use dstreams::trace::TraceSink;
use dstreams::verify::analyze;

const NPROCS: usize = 4;
const N: usize = 16;

fn layout() -> Layout {
    Layout::dense(N, NPROCS, DistKind::Block).unwrap()
}

fn msg_seed() -> u64 {
    std::env::var("DSTREAMS_MSG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC4A0_55ED)
}

/// Combined drop + duplicate + delay + reorder soup at rates high enough
/// that every mechanism fires on every run of the checkpoint workload.
fn soup(seed: u64) -> MsgFaultPlan {
    MsgFaultPlan::seeded(seed)
        .drop_ppm(100_000)
        .dup_ppm(80_000)
        .delay_ppm(80_000)
        .reorder_ppm(80_000)
}

fn aggregated() -> CollectiveConfig {
    CollectiveConfig {
        aggregators: 2,
        stripe_align: true,
    }
}

/// The three-generation checkpoint workload. Per rank: (generations
/// whose save completed on that rank, error that stopped it, if any).
fn checkpoint_run(pfs: &Pfs, config: MachineConfig) -> Vec<(Vec<u64>, Option<String>)> {
    let p = pfs.clone();
    Machine::run(config, move |ctx| {
        let l = layout();
        let mgr = CheckpointManager::new("ck", 2);
        let mut g = Collection::new(ctx, l.clone(), |i| i as u64).unwrap();
        let mut completed = Vec::new();
        let mut err = None;
        for step in 1..=3u64 {
            g.apply(|v| *v += 100);
            match mgr.save(ctx, &p, &g, step) {
                Ok(()) => completed.push(step),
                Err(e) => {
                    err = Some(e.to_string());
                    break;
                }
            }
        }
        (completed, err)
    })
    .unwrap()
}

/// Restart on whatever survived; per rank, the restored generation
/// (element-exactness asserted inside).
fn restore_run(pfs: &Pfs, label: &str) -> Vec<Option<u64>> {
    let p = pfs.clone();
    let label = label.to_string();
    Machine::run(MachineConfig::functional(NPROCS), move |ctx| {
        let l = layout();
        let mgr = CheckpointManager::new("ck", 2);
        let mut g = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
        match mgr.restore_latest(ctx, &p, &l, &mut g) {
            Ok(generation) => {
                for (gid, v) in g.iter() {
                    assert_eq!(
                        *v,
                        gid as u64 + 100 * generation,
                        "{label}: generation {generation} not element-exact"
                    );
                }
                Some(generation)
            }
            Err(_) => None,
        }
    })
    .unwrap()
}

/// Serialize every surviving file so durable bytes can be compared
/// across runs.
fn freeze(pfs: &Pfs) -> Vec<(String, Vec<u8>)> {
    let p = pfs.clone();
    let mut out = Machine::run(MachineConfig::functional(1), move |ctx| {
        let mut files = Vec::new();
        for name in p.list() {
            let fh = p.open(false, &name, dstreams::pfs::OpenMode::Read).unwrap();
            let mut bytes = vec![0u8; fh.len() as usize];
            fh.read_at(ctx, 0, &mut bytes).unwrap();
            files.push((name, bytes));
        }
        files
    })
    .unwrap()
    .remove(0);
    out.sort();
    out
}

#[test]
fn chaos_soup_preserves_every_durable_byte() {
    // Fault-free reference: the exact bytes a healthy run persists.
    let clean_pfs = Pfs::in_memory(NPROCS);
    let clean = checkpoint_run(
        &clean_pfs,
        MachineConfig::functional(NPROCS).with_collective(aggregated()),
    );
    assert!(clean
        .iter()
        .all(|(c, e)| c == &vec![1, 2, 3] && e.is_none()));
    let reference = freeze(&clean_pfs);

    let base = msg_seed();
    for k in 0..5u64 {
        let seed = base.wrapping_add(k.wrapping_mul(0x9E37_79B9));
        // Direct and aggregated layouts both have to survive the soup.
        for (label, cc) in [("direct", None), ("aggregated", Some(aggregated()))] {
            let pfs = Pfs::in_memory(NPROCS);
            let mut config = MachineConfig::functional(NPROCS)
                .with_faults(FaultPlan::default().with_msg(soup(seed)));
            if let Some(cc) = cc {
                config = config.with_collective(cc);
            }
            let out = checkpoint_run(&pfs, config);
            for (rank, (completed, err)) in out.iter().enumerate() {
                assert_eq!(
                    err, &None,
                    "{label} seed {seed:#x}: rank {rank} failed under chaos"
                );
                assert_eq!(
                    completed,
                    &vec![1, 2, 3],
                    "{label} seed {seed:#x}: rank {rank} lost generations"
                );
            }
            if label == "aggregated" {
                assert_eq!(
                    freeze(&pfs),
                    reference,
                    "{label} seed {seed:#x}: durable bytes diverged from the \
                     fault-free run"
                );
            }
            let restored = restore_run(&pfs, &format!("{label} seed {seed:#x}"));
            assert_eq!(restored, vec![Some(3); NPROCS], "{label} seed {seed:#x}");
        }
    }
}

#[test]
fn chaos_soup_replays_bit_identically_per_seed() {
    let seed = msg_seed();
    let run = || {
        let sink = TraceSink::new(NPROCS);
        let pfs = Pfs::in_memory(NPROCS);
        let _ = checkpoint_run(
            &pfs,
            MachineConfig::functional(NPROCS)
                .with_faults(FaultPlan::default().with_msg(soup(seed)))
                .with_collective(aggregated())
                .traced(sink.clone()),
        );
        sink.take()
    };
    let a = run();
    assert_eq!(a, run(), "same message seed must replay bit-identically");
    let counts = a.op_counts();
    assert!(
        counts.retransmits > 0,
        "the soup never dropped a message — rates too low to be a test"
    );
    assert!(
        counts.dup_dropped > 0,
        "the soup never duplicated a message"
    );
}

#[test]
fn live_chaos_traces_pass_all_analyzer_rules() {
    let sink = TraceSink::new(NPROCS);
    let pfs = Pfs::in_memory(NPROCS);
    let out = checkpoint_run(
        &pfs,
        MachineConfig::functional(NPROCS)
            .with_faults(FaultPlan::default().with_msg(soup(msg_seed())))
            .with_collective(aggregated())
            .traced(sink.clone()),
    );
    assert!(out.iter().all(|(_, e)| e.is_none()), "{out:?}");
    // Round-trip through the portable format, then run every analyzer
    // rule — including duplicate-suppression and retransmit-accounting,
    // which exist precisely to catch a broken reliability layer.
    let json = sink.take().to_events_json();
    let trace = dstreams::trace::Trace::from_events_json(&json).unwrap();
    let report = analyze(&trace);
    assert!(report.clean(), "chaos trace flagged: {report}");
}

#[test]
fn killed_aggregator_mid_write_truncates_to_newest_sealed_generation() {
    // Baseline for one aggregator rank (rank 0 is always an aggregator
    // under `aggregated()`): kill its data plane at increasing message
    // indices so the cut lands before, inside, and after each of the
    // three generation writes.
    let base = msg_seed();
    let mut degraded_runs = 0;
    let mut recovered_runs = 0;
    for k in [0u64, 2, 4, 6, 8, 12, 16, 24, 48] {
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::default().with_msg(MsgFaultPlan::seeded(base ^ k).kill_at(0, k));
        let out = checkpoint_run(
            &pfs,
            MachineConfig::functional(NPROCS)
                .with_faults(plan)
                .with_collective(aggregated()),
        );
        // A data-plane kill must never hang or corrupt — ranks either
        // complete (with the record left unsealed) or fail loudly.
        let restored = restore_run(&pfs, &format!("kill at {k}"));
        assert!(
            restored.windows(2).all(|w| w[0] == w[1]),
            "kill at {k}: ranks disagree on the restored generation: {restored:?}"
        );
        match restored[0] {
            Some(3) => recovered_runs += 1,
            _ => degraded_runs += 1,
        }
        // Whatever was restored is element-exact (asserted inside
        // restore_run); additionally it can never exceed what completed.
        if let Some(r) = restored[0] {
            let max_completed = out
                .iter()
                .map(|(c, _)| c.last().copied().unwrap_or(0))
                .max()
                .unwrap();
            assert!(
                r <= max_completed.max(1),
                "kill at {k}: restored generation {r} was never written"
            );
        }
    }
    assert!(
        degraded_runs > 0,
        "no kill ever cost a generation — the sweep is vacuous"
    );
    assert!(
        recovered_runs > 0,
        "no kill was ever absorbed — the sweep only tested total loss"
    );
}
