//! The checkpoint manager's replicated-local steps (paper §4.2) each run
//! as one rendezvous: the fresh-file create at the head of `save`, the
//! prune + manifest rewrite at its tail, and `generations()`. These
//! properties hold them to the separate calls they stand for, written
//! out below from public calls (barriers, broadcasts, `OStream::create`,
//! `LocalFile`):
//!
//! * fused and separate runs give identical results, clocks, traces,
//!   operation counts and durable bytes, on the collective cell, on the
//!   wire, and on the wire under a power cut, a torn write or a transient
//!   fault at every PFS operation of rank 0 (the manifest write among
//!   them);
//! * the cell and the wire give identical results for the fused steps;
//! * the fused run makes exactly the rendezvous the fusion predicts
//!   fewer than the separate calls (and none on the wire).
//!
//! Scenarios cover a saved generation whose file existed or not, 0–4
//! pruned generations, and an intact, missing, torn or corrupt manifest.
//! The fault plans' seeds honour `DSTREAMS_FAULT_SEED`.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{CheckpointManager, LocalFile, OStream, StreamError};
use dstreams_machine::{FaultPlan, Machine, MachineConfig, MsgFaultPlan, NodeCtx};
use dstreams_pfs::{OpenMode, Pfs};
use dstreams_trace::{OpCounts, TraceSink};
use proptest::prelude::*;

const PREFIX: &str = "ck";
const MANIFEST: &str = "ck.manifest";
const MAGIC: &[u8; 8] = b"DSCKPT1\0";

fn fault_seed() -> u64 {
    std::env::var("DSTREAMS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x00D5_EA11)
}

/// What happens to the manifest before the measured step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Manifest {
    Intact,
    Missing,
    /// Cut to this many bytes (of 16 + 8 per generation).
    Torn(u64),
    /// Its count claims `u64::MAX / 16` generations.
    Corrupt,
}

#[derive(Debug, Clone)]
struct Scenario {
    nprocs: usize,
    elements: usize,
    /// Generations saved before the measured step, by a manager that
    /// keeps them all.
    before: Vec<u64>,
    /// The measured save's retention.
    keep: usize,
    /// The generation it saves; its file exists when `before` has it.
    generation: u64,
    manifest: Manifest,
}

impl Scenario {
    fn from_bits(nprocs: usize, bits: u64) -> Self {
        let before: Vec<u64> = (1..=6).filter(|g| bits >> g & 1 == 1).collect();
        let manifest = match (bits >> 8) % 4 {
            _ if before.is_empty() => Manifest::Missing,
            0 => Manifest::Intact,
            1 => Manifest::Missing,
            2 => Manifest::Torn((bits >> 12) % (16 + 8 * before.len() as u64)),
            _ => Manifest::Corrupt,
        };
        Scenario {
            nprocs,
            elements: 1 + (bits >> 20) as usize % 12,
            before,
            keep: 1 + (bits >> 28) as usize % 4,
            generation: 1 + (bits >> 32) % 7,
            manifest,
        }
    }

    fn layout(&self) -> Layout {
        Layout::dense(self.elements, self.nprocs, DistKind::Block).unwrap()
    }

    /// Rendezvous the fused steps save over the separate calls, for the
    /// measured step (generations, save, generations).
    fn rendezvous_saved(&self) -> u64 {
        let existed = u64::from(self.before.contains(&self.generation));
        let mut gens = self.before.clone();
        gens.push(self.generation);
        gens.sort_unstable();
        gens.dedup();
        let pruned = gens.len().saturating_sub(self.keep) as u64;
        let manifest_existed = u64::from(self.manifest != Manifest::Missing);
        // Each of the three generations(): barrier, broadcast -> 1. The
        // save head: barrier, broadcast (the probe), [stale-remove
        // barrier], create barrier -> 1. The tail: two barriers per
        // pruned file, then the probe's two, [remove barrier], create
        // barrier, write barrier -> 1.
        3 + (2 + existed) + (2 * pruned + 3 + manifest_existed)
    }
}

/// The PFS state before the measured step.
fn setup(s: &Scenario) -> Pfs {
    let pfs = Pfs::in_memory(s.nprocs);
    let p = pfs.clone();
    let s2 = s.clone();
    Machine::run(MachineConfig::functional(s.nprocs), move |ctx| {
        let mgr = CheckpointManager::new(PREFIX, 100);
        for &g in &s2.before {
            let grid = Collection::new(ctx, s2.layout(), |i| i as u64 * 10 + g).unwrap();
            mgr.save(ctx, &p, &grid, g).unwrap();
        }
        ctx.barrier().unwrap();
        if ctx.is_root() {
            match s2.manifest {
                Manifest::Intact => {}
                Manifest::Missing => {
                    let _ = p.remove(MANIFEST);
                }
                Manifest::Torn(len) => p.truncate_file(MANIFEST, len).unwrap(),
                Manifest::Corrupt => {
                    let fh = p.open(false, MANIFEST, OpenMode::Read).unwrap();
                    fh.write_at(ctx, 8, &(u64::MAX / 16).to_le_bytes()).unwrap();
                }
            }
        }
        ctx.barrier().unwrap();
    })
    .unwrap();
    pfs
}

/// Every file's name and bytes.
fn freeze(pfs: &Pfs) -> Vec<(String, Vec<u8>)> {
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        p.list()
            .into_iter()
            .map(|name| {
                let fh = p.open(false, &name, OpenMode::Read).unwrap();
                let mut bytes = vec![0u8; fh.len() as usize];
                fh.read_at(ctx, 0, &mut bytes).unwrap();
                (name, bytes)
            })
            .collect()
    })
    .unwrap()
    .remove(0)
}

/// The calls the fused steps stand for, made separately.
mod separate {
    use super::*;

    /// Rank 0 samples after a barrier and broadcasts the verdict.
    fn exists_consistent(ctx: &NodeCtx, pfs: &Pfs, name: &str) -> Result<bool, StreamError> {
        ctx.barrier()?;
        let verdict = if ctx.is_root() {
            vec![u8::from(pfs.exists(name))]
        } else {
            Vec::new()
        };
        Ok(ctx.broadcast(0, verdict)? == [1])
    }

    fn remove_if_present(ctx: &NodeCtx, pfs: &Pfs, name: &str) -> Result<(), StreamError> {
        if exists_consistent(ctx, pfs, name)? {
            if ctx.is_root() {
                let _ = pfs.remove(name);
            }
            ctx.barrier()?;
        }
        Ok(())
    }

    fn manifest_root(ctx: &NodeCtx, pfs: &Pfs) -> Option<Vec<u64>> {
        let fh = pfs.open(false, MANIFEST, OpenMode::Read).ok()?;
        let mut head = vec![0u8; 16];
        fh.read_at(ctx, 0, &mut head).ok()?;
        if &head[..8] != MAGIC {
            return None;
        }
        let count = u64::from_le_bytes(head[8..].try_into().unwrap());
        let entries = count.min(fh.len().saturating_sub(16) / 8 + 1);
        let mut body = vec![0u8; entries as usize * 8];
        fh.read_at(ctx, 16, &mut body).ok()?;
        (entries == count).then(|| {
            body.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        })
    }

    pub fn generations(ctx: &NodeCtx, pfs: &Pfs) -> Result<Vec<u64>, StreamError> {
        ctx.barrier()?;
        let blob = if ctx.is_root() {
            let mut gens: Vec<u64> = pfs
                .list()
                .iter()
                .filter_map(|n| n.strip_prefix("ck.")?.parse().ok())
                .collect();
            gens.extend(manifest_root(ctx, pfs).unwrap_or_default());
            gens.sort_unstable();
            gens.dedup();
            gens.iter().flat_map(|g| g.to_le_bytes()).collect()
        } else {
            Vec::new()
        };
        Ok(ctx
            .broadcast(0, blob)?
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    pub fn save(
        ctx: &NodeCtx,
        pfs: &Pfs,
        grid: &Collection<u64>,
        generation: u64,
        keep: usize,
    ) -> Result<(), StreamError> {
        let name = format!("ck.{generation}");
        remove_if_present(ctx, pfs, &name)?;
        let mut s = OStream::create(ctx, pfs, grid.layout(), &name)?;
        s.insert_collection(grid)?;
        s.write()?;
        s.close()?;
        let mut gens = generations(ctx, pfs)?;
        gens.retain(|&g| g != generation);
        gens.push(generation);
        gens.sort_unstable();
        while gens.len() > keep {
            let old = gens.remove(0);
            ctx.barrier()?;
            if ctx.is_root() {
                let _ = pfs.remove(&format!("ck.{old}"));
            }
            ctx.barrier()?;
        }
        remove_if_present(ctx, pfs, MANIFEST)?;
        let mut f = LocalFile::create(ctx, pfs, MANIFEST)?;
        let mut image = MAGIC.to_vec();
        image.extend_from_slice(&(gens.len() as u64).to_le_bytes());
        image.extend(gens.iter().flat_map(|g| g.to_le_bytes()));
        f.write(&image)
    }
}

/// One rank's outcome: what each call returned (errors as text), its
/// final clock, the rendezvous it made and the PFS operations it issued.
type RankOut = (Vec<String>, u64, u64, u64);

struct Run {
    ranks: Vec<RankOut>,
    trace: String,
    counts: OpCounts,
    files: Vec<(String, Vec<u8>)>,
}

/// The measured step, fused (the manager) or separate, traced on a
/// paragon machine: on the cell when `plan` is `None`.
fn measured(s: &Scenario, fused: bool, plan: Option<FaultPlan>) -> Run {
    let pfs = setup(s);
    let sink = TraceSink::new(s.nprocs);
    let mut config = MachineConfig::paragon(s.nprocs).traced(sink.clone());
    if let Some(plan) = plan {
        config = config.with_faults(plan);
    }
    let p = pfs.clone();
    let ranks = Machine::run(config, |ctx| {
        let mgr = CheckpointManager::new(PREFIX, s.keep);
        let g = s.generation;
        let grid = Collection::new(ctx, s.layout(), |i| i as u64 * 10 + g).unwrap();
        let gens = |ctx| match fused {
            true => mgr.generations(ctx, &p),
            false => separate::generations(ctx, &p),
        };
        let mut out = vec![format!("{:?}", gens(ctx))];
        let saved = match fused {
            true => mgr.save(ctx, &p, &grid, g),
            false => separate::save(ctx, &p, &grid, g, s.keep),
        };
        out.push(format!("{saved:?}"));
        if saved.is_ok() {
            out.push(format!("{:?}", gens(ctx)));
        }
        let clock = ctx.now().as_nanos();
        (out, clock, ctx.rendezvous_count(), ctx.pfs_op_count())
    })
    .unwrap();
    let trace = sink.take();
    Run {
        ranks,
        counts: trace.op_counts(),
        trace: trace.to_events_json(),
        files: freeze(&pfs),
    }
}

/// Assert two runs agree on everything but their rendezvous.
fn assert_same(what: &str, a: &Run, b: &Run) {
    let strip = |r: &Run| -> Vec<(Vec<String>, u64, u64)> {
        r.ranks
            .iter()
            .map(|(o, c, _, ops)| (o.clone(), *c, *ops))
            .collect()
    };
    assert_eq!(
        strip(a),
        strip(b),
        "{what}: results, clocks or PFS op counts differ"
    );
    assert!(a.trace == b.trace, "{what}: traces differ");
    assert_eq!(a.counts, b.counts, "{what}: operation counts differ");
    assert_eq!(a.files, b.files, "{what}: durable bytes differ");
}

fn inert_wire() -> FaultPlan {
    FaultPlan::default().with_msg(MsgFaultPlan::seeded(fault_seed()))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Fused steps equal their separate calls on both executors, the two
    /// executors agree, and the fusion saves exactly the predicted
    /// rendezvous.
    #[test]
    fn fused_checkpoint_steps_equal_their_separate_calls(
        nprocs in 1usize..5,
        bits in any::<u64>(),
    ) {
        let s = Scenario::from_bits(nprocs, bits);
        let cell = measured(&s, true, None);
        let cell_separate = measured(&s, false, None);
        let wire = measured(&s, true, Some(inert_wire()));
        let wire_separate = measured(&s, false, Some(inert_wire()));
        assert_same(&format!("cell {s:?}"), &cell, &cell_separate);
        assert_same(&format!("wire {s:?}"), &wire, &wire_separate);
        assert_same(&format!("cell vs wire {s:?}"), &cell, &wire);
        for (rank, (fused, separate)) in cell.ranks.iter().zip(&cell_separate.ranks).enumerate() {
            prop_assert_eq!(separate.2 - fused.2, s.rendezvous_saved(), "rank {} {:?}", rank, &s);
        }
        for r in wire.ranks.iter().chain(&wire_separate.ranks) {
            prop_assert_eq!(r.2, 0, "the wire makes no rendezvous");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Under a power cut, a torn write or a transient fault at any PFS
    /// operation of rank 0 (its manifest write among them), the fused
    /// steps on the wire fail, tear and retry exactly like the separate
    /// calls: a crashed rank 0's peers see it gone.
    #[test]
    fn faults_at_every_root_operation_hit_fused_and_separate_steps_alike(
        nprocs in 1usize..4,
        bits in any::<u64>(),
    ) {
        let s = Scenario::from_bits(nprocs, bits);
        let clean = measured(&s, true, Some(inert_wire()));
        let ops = clean.ranks[0].3;
        prop_assert!(ops > 0);
        let seed = fault_seed();
        for k in 0..ops {
            let plans = [
                ("crash", FaultPlan::seeded(seed ^ k).crash_at(0, k)),
                ("torn", FaultPlan::seeded(seed ^ k).torn_at(0, k)),
                ("transient", FaultPlan::seeded(seed ^ k).transient_at(0, k)),
            ];
            for (kind, plan) in plans {
                let fused = measured(&s, true, Some(plan.clone()));
                let separate = measured(&s, false, Some(plan));
                assert_same(&format!("{kind} at op {k} {s:?}"), &fused, &separate);
            }
        }
    }
}

/// A manifest whose count claims far more generations than the file
/// holds is unreadable, not an allocation of that size: every rank gets
/// the namespace scan's list, on 2 and 4 ranks and on both executors.
#[test]
fn a_corrupt_manifest_count_falls_back_to_the_namespace_scan() {
    for nprocs in [2, 4] {
        let executors = [
            ("cell", MachineConfig::functional(nprocs)),
            (
                "wire",
                MachineConfig::functional(nprocs).with_faults(inert_wire()),
            ),
        ];
        for (name, config) in executors {
            let pfs = Pfs::in_memory(nprocs);
            let p = pfs.clone();
            let out = Machine::run(config, move |ctx| {
                let mgr = CheckpointManager::new(PREFIX, 5);
                let layout = Layout::dense(8, nprocs, DistKind::Block).unwrap();
                let grid = Collection::new(ctx, layout, |i| i as u64).unwrap();
                for g in [3, 4, 7] {
                    mgr.save(ctx, &p, &grid, g).unwrap();
                }
                ctx.barrier().unwrap();
                if ctx.is_root() {
                    let fh = p.open(false, MANIFEST, OpenMode::Read).unwrap();
                    fh.write_at(ctx, 8, &(u64::MAX / 16).to_le_bytes()).unwrap();
                }
                ctx.barrier().unwrap();
                mgr.generations(ctx, &p).unwrap()
            })
            .unwrap();
            assert_eq!(out, vec![vec![3, 4, 7]; nprocs], "{name} on {nprocs} ranks");
        }
    }
}
