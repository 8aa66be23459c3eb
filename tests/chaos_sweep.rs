//! Chaos sweep: crash-consistency of checkpointing under exhaustive
//! power-cut injection.
//!
//! The sweep learns how many PFS operations rank 0 issues during a small
//! three-generation checkpoint run, then replays the run once per
//! operation index K with a seeded "power cut" at K. Every replay must
//! terminate (no hangs — the dead rank's peers observe `PeerGone`
//! instead of blocking forever), and a restart on the surviving files
//! must restore the newest commit-sealed generation element-exact.
//!
//! Companion tests cover the other injectables end-to-end: transient
//! faults are retried to success under the PFS backoff policy, torn
//! writes are always caught by the commit seal (never silent
//! corruption), and two runs under the same fault seed produce
//! byte-identical traces.
//!
//! The fault seed honors `DSTREAMS_FAULT_SEED` so CI can sweep a small
//! seed matrix over the same tests.

use dstreams::collections::{Collection, DistKind, Layout};
use dstreams::core::{CheckpointManager, IStream, OStream};
use dstreams::machine::{CollectiveConfig, FaultPlan, Machine, MachineConfig};
use dstreams::pfs::Pfs;
use dstreams::trace::{EventKind, TraceSink};

const NPROCS: usize = 2;
const N: usize = 8;

fn layout() -> Layout {
    Layout::dense(N, NPROCS, DistKind::Block).unwrap()
}

fn fault_seed() -> u64 {
    std::env::var("DSTREAMS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00D5_EA11)
}

/// Run the three-generation checkpoint workload, tolerating injected
/// failures. Per rank: (generations whose save completed on that rank,
/// PFS ops the rank issued, error that stopped it, if any).
fn checkpoint_run(pfs: &Pfs, config: MachineConfig) -> Vec<(Vec<u64>, u64, Option<String>)> {
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
        (completed, ctx.pfs_op_count(), err)
    })
    .unwrap()
}

/// Restart on whatever files survived; per rank, the generation restored
/// (element-exactness is asserted inside).
fn restore_run(pfs: &Pfs, k: u64) -> Vec<Option<u64>> {
    let p = pfs.clone();
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
                        "crash at op {k}: generation {generation} not element-exact"
                    );
                }
                Some(generation)
            }
            Err(_) => None,
        }
    })
    .unwrap()
}

#[test]
fn crash_sweep_recovers_newest_sealed_generation() {
    // Clean run: establish the baseline and rank 0's operation count.
    let clean = checkpoint_run(&Pfs::in_memory(NPROCS), MachineConfig::functional(NPROCS));
    assert_eq!(clean[0].0, vec![1, 2, 3]);
    assert!(clean[0].2.is_none(), "clean run failed: {:?}", clean[0].2);
    let total_ops = clean[0].1;
    assert!(total_ops > 0);

    let seed = fault_seed();
    let mut crashed_runs = 0;
    for k in 0..total_ops {
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::seeded(seed ^ k).crash_at(0, k);
        let out = checkpoint_run(&pfs, MachineConfig::functional(NPROCS).with_faults(plan));
        let (completed, _, err) = &out[0];
        if err.is_some() {
            crashed_runs += 1;
        }

        let restored = restore_run(&pfs, k);
        assert!(
            restored.windows(2).all(|w| w[0] == w[1]),
            "crash at op {k}: ranks disagree on the restored generation: {restored:?}"
        );
        // Saves that completed on rank 0 (the root does the physical
        // writes) are durable: restart must recover one at least as new.
        if let Some(&gen) = completed.last() {
            match restored[0] {
                Some(r) => assert!(
                    r >= gen,
                    "crash at op {k}: restored generation {r} is older than completed {gen}"
                ),
                None => {
                    panic!("crash at op {k}: nothing restored though generation {gen} completed")
                }
            }
        }
    }
    assert!(crashed_runs > 0, "the sweep never actually crashed a run");
}

#[test]
fn same_fault_seed_traces_byte_identically() {
    let clean = checkpoint_run(&Pfs::in_memory(NPROCS), MachineConfig::functional(NPROCS));
    let k = clean[0].1 / 2;
    let seed = fault_seed();
    let run = || {
        let sink = TraceSink::new(NPROCS);
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::seeded(seed).crash_at(0, k);
        let _ = checkpoint_run(
            &pfs,
            MachineConfig::functional(NPROCS)
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

#[test]
fn transient_faults_are_retried_to_success() {
    let sink = TraceSink::new(NPROCS);
    let pfs = Pfs::in_memory(NPROCS);
    // Transient failures sprinkled across both ranks' op streams: each
    // fails exactly once and succeeds on retry, so the workload must
    // complete as if nothing happened.
    let plan = FaultPlan::seeded(fault_seed())
        .transient_at(0, 1)
        .transient_at(0, 4)
        .transient_at(1, 2);
    let out = checkpoint_run(
        &pfs,
        MachineConfig::functional(NPROCS)
            .with_faults(plan)
            .traced(sink.clone()),
    );
    for (rank, (completed, _, err)) in out.iter().enumerate() {
        assert_eq!(err, &None, "rank {rank} failed despite retries");
        assert_eq!(completed, &vec![1, 2, 3], "rank {rank} lost generations");
    }
    let restored = restore_run(&pfs, u64::MAX);
    assert_eq!(restored, vec![Some(3); NPROCS]);
    let counts = sink.take().op_counts();
    assert!(
        counts.faults_injected.contains_key("transient"),
        "no transient fault fired"
    );
    assert!(counts.pfs_retries > 0, "no retry was traced");
}

#[test]
fn torn_writes_never_pass_off_corrupt_data_as_good() {
    // Baseline: count rank 0's ops for a single-record write, and the
    // expected contents.
    let write_file = |pfs: &Pfs, plan: Option<FaultPlan>| -> Vec<(u64, Option<String>)> {
        let p = pfs.clone();
        let config = match plan {
            Some(plan) => MachineConfig::functional(NPROCS).with_faults(plan),
            None => MachineConfig::functional(NPROCS),
        };
        Machine::run(config, move |ctx| {
            let l = layout();
            let g = Collection::new(ctx, l.clone(), |i| i as u32 * 3).unwrap();
            let res = (|| {
                let mut s = OStream::create(ctx, &p, &l, "t")?;
                s.insert_collection(&g)?;
                s.write()?;
                s.close()
            })();
            (ctx.pfs_op_count(), res.err().map(|e| e.to_string()))
        })
        .unwrap()
    };
    let clean = write_file(&Pfs::in_memory(NPROCS), None);
    let total_ops = clean.iter().map(|(n, _)| *n).max().unwrap();
    assert!(clean.iter().all(|(_, e)| e.is_none()));

    let seed = fault_seed();
    let mut caught = 0;
    for rank in 0..NPROCS {
        for k in 0..total_ops {
            let pfs = Pfs::in_memory(NPROCS);
            let plan = FaultPlan::seeded(seed ^ (rank as u64) << 32 ^ k).torn_at(rank, k);
            let wrote = write_file(&pfs, Some(plan));
            if wrote.iter().any(|(_, e)| e.is_some()) {
                // A torn metadata write can surface already at write time
                // (e.g. a short file seen by a later step) — acceptable,
                // as long as it surfaces.
                caught += 1;
                continue;
            }
            // The write "succeeded". Reading back must either produce
            // exactly the written data or fail loudly — never succeed
            // with corrupt contents.
            let p = pfs.clone();
            let verdicts = Machine::run(MachineConfig::functional(NPROCS), move |ctx| {
                let l = layout();
                let mut g = Collection::new(ctx, l.clone(), |_| 0u32).unwrap();
                let res = (|| {
                    let mut r = IStream::open(ctx, &p, &l, "t")?;
                    r.read()?;
                    r.extract_collection(&mut g)?;
                    r.close()
                })();
                match res {
                    Ok(()) => {
                        for (gid, v) in g.iter() {
                            assert_eq!(
                                *v,
                                gid as u32 * 3,
                                "torn write at rank {}, op {k}: corrupt data passed \
                                 verification",
                                ctx.rank()
                            );
                        }
                        false
                    }
                    Err(_) => true,
                }
            })
            .unwrap();
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "torn write at rank {rank}, op {k}: ranks disagree"
            );
            if verdicts[0] {
                caught += 1;
            }
        }
    }
    assert!(
        caught > 0,
        "no torn write was ever detected — vacuous sweep"
    );
}

/// With two ranks and one aggregator, rank 0 is the aggregator (and
/// root) and rank 1 a pure compute rank — the sweep crashes both kinds.
fn aggregated() -> CollectiveConfig {
    CollectiveConfig {
        aggregators: 1,
        stripe_align: true,
    }
}

#[test]
fn aggregated_crash_sweep_recovers_newest_sealed_generation() {
    let clean = checkpoint_run(
        &Pfs::in_memory(NPROCS),
        MachineConfig::functional(NPROCS).with_collective(aggregated()),
    );
    assert_eq!(clean[0].0, vec![1, 2, 3]);
    assert!(clean[0].2.is_none(), "clean run failed: {:?}", clean[0].2);
    let total_ops = clean.iter().map(|(_, n, _)| *n).max().unwrap();
    assert!(total_ops > 0);

    let seed = fault_seed();
    let mut crashed_runs = 0;
    for rank in 0..NPROCS {
        for k in 0..total_ops {
            let pfs = Pfs::in_memory(NPROCS);
            let plan = FaultPlan::seeded(seed ^ ((rank as u64) << 32) ^ k).crash_at(rank, k);
            let out = checkpoint_run(
                &pfs,
                MachineConfig::functional(NPROCS)
                    .with_faults(plan)
                    .with_collective(aggregated()),
            );
            if out.iter().any(|(_, _, e)| e.is_some()) {
                crashed_runs += 1;
            }

            let restored = restore_run(&pfs, k);
            assert!(
                restored.windows(2).all(|w| w[0] == w[1]),
                "aggregated crash of rank {rank} at op {k}: ranks disagree on the \
                 restored generation: {restored:?}"
            );
            // A generation is durable only once *every* rank finished its
            // save: a peer crash makes survivors complete the collective
            // but suppresses the commit seal, so a save that returned Ok
            // on the survivors alone may legitimately be truncated away.
            let durable = out
                .iter()
                .map(|(completed, _, _)| completed.last().copied())
                .min()
                .flatten();
            if let Some(gen) = durable {
                match restored[0] {
                    Some(r) => assert!(
                        r >= gen,
                        "crash of rank {rank} at op {k}: restored generation {r} is \
                         older than the everywhere-completed {gen}"
                    ),
                    None => panic!(
                        "crash of rank {rank} at op {k}: nothing restored though \
                         generation {gen} completed on every rank"
                    ),
                }
            }
        }
    }
    assert!(crashed_runs > 0, "the sweep never actually crashed a run");
}

#[test]
fn aggregated_runs_trace_byte_identically_per_seed() {
    let clean = checkpoint_run(
        &Pfs::in_memory(NPROCS),
        MachineConfig::functional(NPROCS).with_collective(aggregated()),
    );
    // Crash the *compute* rank mid-run: the aggregator survives and must
    // deterministically absorb the zero-padded shuttle traffic.
    let k = clean[1].1 / 2;
    let seed = fault_seed();
    let run = || {
        let sink = TraceSink::new(NPROCS);
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::seeded(seed).crash_at(1, k);
        let _ = checkpoint_run(
            &pfs,
            MachineConfig::functional(NPROCS)
                .with_faults(plan)
                .with_collective(aggregated())
                .traced(sink.clone()),
        );
        sink.take()
    };
    let a = run();
    assert_eq!(a, run(), "same fault seed must replay bit-identically");
    let shuttled = |out: bool| {
        a.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::AggShuttle { outgoing, .. } if outgoing == out))
    };
    assert!(
        shuttled(true) && shuttled(false),
        "the aggregated path never shipped a shuttle"
    );
    assert!(
        a.op_counts().faults_injected.contains_key("crash"),
        "the injected crash never reached the trace layer"
    );
}

/// The pipelined (write-behind) checkpoint workload: three records
/// through `pipeline::OStream`, so a crash can land while a flush is
/// still in flight. Per rank: (PFS ops issued, error, if any).
fn pipelined_write_run(pfs: &Pfs, config: MachineConfig) -> Vec<(u64, Option<String>)> {
    let p = pfs.clone();
    Machine::run(config, move |ctx| {
        let l = layout();
        let res = (|| -> Result<(), dstreams::core::StreamError> {
            let mut s = dstreams::pipeline::OStream::create(ctx, &p, &l, "pp")?;
            for step in 0..3u64 {
                let g = Collection::new(ctx, l.clone(), |i| i as u64 + 1000 * step)?;
                s.insert_collection(&g)?;
                s.write()?;
            }
            s.close()
        })();
        (ctx.pfs_op_count(), res.err().map(|e| e.to_string()))
    })
    .unwrap()
}

#[test]
fn pipelined_crash_sweep_recovers_a_sealed_prefix() {
    let clean = pipelined_write_run(&Pfs::in_memory(NPROCS), MachineConfig::functional(NPROCS));
    assert!(clean.iter().all(|(_, e)| e.is_none()), "{clean:?}");
    let total_ops = clean.iter().map(|(n, _)| *n).max().unwrap();
    assert!(total_ops > 0);

    let seed = fault_seed();
    let mut crashed_runs = 0;
    let mut partial_prefixes = 0;
    for k in 0..total_ops {
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::seeded(seed ^ k).crash_at(0, k);
        let out = pipelined_write_run(&pfs, MachineConfig::functional(NPROCS).with_faults(plan));
        if out.iter().any(|(_, e)| e.is_some()) {
            crashed_runs += 1;
        }

        // Recover whatever survived: the sealed prefix must scan cleanly
        // and read back element-exact, record by record.
        if pfs.file_size("pp").is_err() {
            continue; // crashed before the file header landed
        }
        let p = pfs.clone();
        let sealed = Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(false, "pp", dstreams::pfs::OpenMode::Read).unwrap();
            let mut bytes = vec![0u8; fh.len() as usize];
            fh.read_at(ctx, 0, &mut bytes).unwrap();
            let report = dstreams::core::recovery_scan(&bytes)
                .unwrap_or_else(|e| panic!("crash at op {k}: recovery scan failed: {e}"));
            bytes.truncate(report.sealed_bytes as usize);
            (report.sealed_records, bytes)
        })
        .unwrap()
        .remove(0);
        let (sealed_records, bytes) = sealed;
        if sealed_records < 3 {
            partial_prefixes += 1;
        }

        let p2 = Pfs::in_memory(NPROCS);
        let pc = p2.clone();
        Machine::run(MachineConfig::functional(NPROCS), move |ctx| {
            if ctx.is_root() {
                let fh = pc
                    .open(true, "rec", dstreams::pfs::OpenMode::Create)
                    .unwrap();
                fh.write_at(ctx, 0, &bytes).unwrap();
            }
            ctx.barrier().unwrap();
            if sealed_records == 0 {
                return; // header-only prefix: nothing to read back
            }
            let l = layout();
            let mut r = IStream::open(ctx, &pc, &l, "rec")
                .unwrap_or_else(|e| panic!("crash at op {k}: sealed prefix unreadable: {e}"));
            for step in 0..sealed_records {
                let mut g = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
                r.read().unwrap();
                r.extract_collection(&mut g).unwrap();
                for (gid, v) in g.iter() {
                    assert_eq!(
                        *v,
                        gid as u64 + 1000 * step as u64,
                        "crash at op {k}: sealed record {step} corrupt"
                    );
                }
            }
            r.close().unwrap();
        })
        .unwrap();
    }
    assert!(crashed_runs > 0, "the sweep never actually crashed a run");
    assert!(
        partial_prefixes > 0,
        "no crash ever landed mid-stream — vacuous sweep"
    );
}

#[test]
fn pipelined_runs_trace_byte_identically_per_seed() {
    let clean = pipelined_write_run(&Pfs::in_memory(NPROCS), MachineConfig::functional(NPROCS));
    let k = clean[0].0 / 2;
    let seed = fault_seed();
    let run = || {
        let sink = TraceSink::new(NPROCS);
        let pfs = Pfs::in_memory(NPROCS);
        let plan = FaultPlan::seeded(seed).crash_at(0, k);
        let _ = pipelined_write_run(
            &pfs,
            MachineConfig::functional(NPROCS)
                .with_faults(plan)
                .traced(sink.clone()),
        );
        sink.take()
    };
    let a = run();
    assert_eq!(a, run(), "same fault seed must replay bit-identically");
    assert!(
        a.op_counts().async_ops > 0,
        "the pipelined workload never submitted an async op"
    );
}
