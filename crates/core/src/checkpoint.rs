//! Rotating checkpoint management on top of d/streams.
//!
//! Checkpointing is the paper's first motivating task: "Many long-running
//! parallel applications need to save the state of complex distributed
//! data-sets periodically so that computation can be resumed at a later
//! point. Periodically saving data-sets provides insurance against program
//! termination by software bugs and job-control facilities."
//!
//! [`CheckpointManager`] packages the idiom: numbered checkpoint files, a
//! replicated manifest recording which generations exist, bounded
//! retention, and restart from the *newest readable* generation (a
//! generation whose write was interrupted simply fails validation and the
//! previous one is used).
//!
//! # Recovery API
//!
//! Crash recovery is a first-class, fully public entry point (it used to
//! be reachable only through the `dsdump --recover` binary on real
//! files). [`CheckpointManager::recover`] scans every generation under
//! the manager's prefix with [`crate::recovery_scan`], truncates torn
//! tail records back to their sealed prefix in place, removes
//! generations with no sealed data at all, and reseats the manifest on
//! the survivors. It is collective (every rank must call it) and
//! deterministic: rank 0 does the scanning and repair, then broadcasts
//! one verdict per generation so all ranks return an identical
//! [`RecoveryOutcome`]. Multi-tenant services drive this per tenant
//! prefix — one tenant's recovery never touches another's files.

use dstreams_collections::{Collection, Layout};
use dstreams_machine::wire::Reader;
use dstreams_machine::{NodeCtx, RankIo, Step};
use dstreams_pfs::{OpenMode, Pfs};

use crate::data::StreamData;
use crate::error::StreamError;
use crate::istream::IStream;
use crate::ostream::{OStream, StreamOptions};

/// Manages a rotating series of checkpoint files `<prefix>.<generation>`.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    prefix: String,
    /// How many recent generations to keep (older files are removed).
    keep: usize,
    opts: StreamOptions,
}

const MANIFEST_MAGIC: &[u8; 8] = b"DSCKPT1\0";

/// Per-generation verdicts broadcast by [`CheckpointManager::recover`].
const VERDICT_INTACT: u8 = 0;
const VERDICT_TRUNCATED: u8 = 1;
const VERDICT_REMOVED: u8 = 2;
const VERDICT_UNREADABLE: u8 = 3;

/// What a [`CheckpointManager::recover`] pass found and did. Identical
/// on every rank.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryOutcome {
    /// Every generation examined, oldest first.
    pub scanned: Vec<u64>,
    /// Generations whose torn tail was truncated back to the sealed
    /// prefix (the committed records survive).
    pub truncated: Vec<u64>,
    /// Generations removed because nothing in them was ever sealed.
    pub removed: Vec<u64>,
    /// Generations the scanner could not interpret; left untouched.
    pub unreadable: Vec<u64>,
    /// Newest generation known to hold sealed data after the pass.
    pub newest_sealed: Option<u64>,
}

impl RecoveryOutcome {
    /// True when no generation needed repair (and none was unreadable).
    pub fn clean(&self) -> bool {
        self.truncated.is_empty() && self.removed.is_empty() && self.unreadable.is_empty()
    }
}

/// What rank 0 does at one act of a replicated-local checkpoint step.
enum RootAct<'a> {
    /// Answer whether the file exists: the verdict the next broadcast
    /// carries.
    Probe(&'a str),
    /// Remove the file if it is there.
    Remove(&'a str),
    /// Create the file, empty.
    Create(&'a str),
    /// Write bytes at the start of the file, charged to rank 0.
    Write(&'a str, &'a [u8]),
}

impl RootAct<'_> {
    fn run(&self, io: &dyn RankIo, pfs: &Pfs) -> Result<Vec<u8>, StreamError> {
        match *self {
            RootAct::Probe(name) => return Ok(vec![u8::from(pfs.exists(name))]),
            RootAct::Remove(name) => {
                let _ = pfs.remove(name);
            }
            RootAct::Create(name) => {
                pfs.open(true, name, OpenMode::Create)?;
            }
            RootAct::Write(name, bytes) => {
                pfs.open(false, name, OpenMode::Read)?
                    .write_at(io, 0, bytes)?;
            }
        }
        Ok(Vec::new())
    }
}

/// A replicated-local checkpoint step (paper §4.2) under construction:
/// the barriers and broadcasts every rank runs in one rendezvous, and
/// what rank 0 does between them. The clocks, tags and trace are those of
/// the separate calls.
#[derive(Default)]
struct RootSteps<'a> {
    steps: Vec<Step>,
    acts: Vec<RootAct<'a>>,
}

impl<'a> RootSteps<'a> {
    fn barrier(&mut self) {
        self.steps.push(Step::Barrier);
    }

    fn act(&mut self, act: RootAct<'a>) {
        self.steps.push(Step::Act);
        self.acts.push(act);
    }

    /// Remove the pruned generation file `name` between two barriers.
    fn prune(&mut self, name: &'a str) {
        self.barrier();
        self.act(RootAct::Remove(name));
        self.barrier();
    }

    /// Leave `name` a fresh, empty file. `Pfs::exists` alone is racy in
    /// SPMD code (a fast rank's create could answer a slow rank's
    /// question), so rank 0 probes after a barrier and broadcasts the
    /// verdict; if the file existed, rank 0 removes it and every rank
    /// meets again; then rank 0 creates it and every rank meets once
    /// more, after which each may open it.
    fn fresh(&mut self, name: &'a str) {
        self.barrier();
        self.act(RootAct::Probe(name));
        self.steps.extend([Step::Broadcast, Step::IfSet(2)]);
        self.act(RootAct::Remove(name));
        self.barrier();
        self.act(RootAct::Create(name));
        self.barrier();
    }

    /// Rank 0 writes `bytes` at the start of `name`; then every rank
    /// meets, so no rank reads before the write (a [`LocalFile`] write).
    ///
    /// [`LocalFile`]: crate::LocalFile
    fn write(&mut self, name: &'a str, bytes: &'a [u8]) {
        self.act(RootAct::Write(name, bytes));
        self.barrier();
    }

    fn run(&self, ctx: &NodeCtx, pfs: &Pfs) -> Result<(), StreamError> {
        ctx.program(&self.steps, Vec::new(), |k, io, _| {
            self.acts[k].run(io, pfs)
        })
        .map(drop)
    }
}

impl CheckpointManager {
    /// A manager for checkpoints named `<prefix>.<generation>`, retaining
    /// the newest `keep` generations (minimum 1).
    pub fn new(prefix: &str, keep: usize) -> Self {
        CheckpointManager {
            prefix: prefix.to_string(),
            keep: keep.max(1),
            opts: StreamOptions::default(),
        }
    }

    /// Use non-default stream options (e.g. checked mode) for checkpoints.
    pub fn with_options(mut self, opts: StreamOptions) -> Self {
        self.opts = opts;
        self
    }

    fn file_for(&self, generation: u64) -> String {
        format!("{}.{}", self.prefix, generation)
    }

    fn manifest_name(&self) -> String {
        format!("{}.manifest", self.prefix)
    }

    /// Generations visible on disk, oldest first. The replicated manifest
    /// is the primary source, but recovery must not depend on it having
    /// survived a crash: `write_manifest` removes and recreates the file,
    /// so a power cut between the two leaves no manifest at all. Rank 0
    /// therefore *also* scans the PFS namespace for `<prefix>.<number>`
    /// files, unions the two views, and broadcasts the result — every rank
    /// sees the same list even when the manifest is missing or torn.
    pub fn generations(&self, ctx: &NodeCtx, pfs: &Pfs) -> Result<Vec<u64>, StreamError> {
        let steps = [Step::Barrier, Step::Act, Step::Broadcast];
        let blob = ctx.program(&steps, Vec::new(), |_, io, _| {
            let mut gens = self.scan_generations(pfs);
            if let Some(listed) = self.read_manifest_root(io, pfs) {
                gens.extend(listed);
            }
            gens.sort_unstable();
            gens.dedup();
            Ok::<_, StreamError>(gens.iter().flat_map(|g| g.to_le_bytes()).collect())
        })?;
        Reader::parse(&blob, |r| Ok(r.u64s(r.remaining() / 8)?.collect())).map_err(|e| {
            StreamError::CorruptRecord(format!("checkpoint generations: malformed list: {e}"))
        })
    }

    /// Root-only namespace scan for `<prefix>.<number>` checkpoint files.
    fn scan_generations(&self, pfs: &Pfs) -> Vec<u64> {
        let dot_prefix = format!("{}.", self.prefix);
        pfs.list()
            .iter()
            .filter_map(|name| name.strip_prefix(&dot_prefix))
            .filter_map(|suffix| suffix.parse::<u64>().ok())
            .collect()
    }

    /// Root-only manifest parse; `None` when missing or unreadable (the
    /// caller falls back to the namespace scan).
    fn read_manifest_root(&self, io: &dyn RankIo, pfs: &Pfs) -> Option<Vec<u64>> {
        let fh = pfs
            .open(false, &self.manifest_name(), OpenMode::Read)
            .ok()?;
        let mut head = [0u8; MANIFEST_MAGIC.len() + 8];
        fh.read_at(io, 0, &mut head).ok()?;
        let mut r = Reader::new(&head);
        if r.array().ok()? != *MANIFEST_MAGIC {
            return None;
        }
        let count = r.u64().ok()?;
        // A count the file cannot hold is unreadable. Reading one entry
        // more than fits fails at the storage exactly as reading all of
        // them would, without allocating them.
        let fits = fh.len().saturating_sub(head.len() as u64) / 8;
        let entries = count.min(fits + 1);
        let mut body = vec![0u8; usize::try_from(entries * 8).ok()?];
        fh.read_at(io, head.len() as u64, &mut body).ok()?;
        let listed = Reader::parse(&body, |r| r.u64s(r.remaining() / 8)).ok()?;
        (entries == count).then(|| listed.collect())
    }

    /// Remove the `pruned` generation files, then rewrite the manifest
    /// from scratch (manifests are tiny) to list `gens`: one
    /// replicated-local step.
    fn write_manifest(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        pruned: &[u64],
        gens: &[u64],
    ) -> Result<(), StreamError> {
        let pruned: Vec<String> = pruned.iter().map(|&g| self.file_for(g)).collect();
        let manifest = self.manifest_name();
        let mut image = Vec::with_capacity(16 + gens.len() * 8);
        image.extend_from_slice(MANIFEST_MAGIC);
        image.extend_from_slice(&(gens.len() as u64).to_le_bytes());
        for g in gens {
            image.extend_from_slice(&g.to_le_bytes());
        }
        let mut steps = RootSteps::default();
        for name in &pruned {
            steps.prune(name);
        }
        steps.fresh(&manifest);
        steps.write(&manifest, &image);
        steps.run(ctx, pfs)
    }

    /// Save a checkpoint of `grid` as `generation`. Prunes generations
    /// beyond the retention limit. Collective.
    pub fn save<T: StreamData>(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        grid: &Collection<T>,
        generation: u64,
    ) -> Result<(), StreamError> {
        let name = self.file_for(generation);
        // A fresh file per generation: drop any stale leftover first.
        let open = || {
            let mut steps = RootSteps::default();
            steps.fresh(&name);
            steps.run(ctx, pfs)?;
            Ok(pfs.open(ctx.is_root(), &name, OpenMode::Create)?)
        };
        let opts = self.opts.clone();
        let mut s = OStream::create_via(ctx, pfs, grid.layout(), &name, opts, open)?;
        s.insert_collection(grid)?;
        s.write()?;
        s.close()?;

        let mut gens = self.generations(ctx, pfs)?;
        gens.retain(|&g| g != generation);
        gens.push(generation);
        gens.sort_unstable();
        let pruned: Vec<u64> = gens.drain(..gens.len().saturating_sub(self.keep)).collect();
        self.write_manifest(ctx, pfs, &pruned, &gens)
    }

    /// Restore the newest generation that reads back successfully into a
    /// collection placed by `layout` (which may differ from the writer's in
    /// processor count and distribution — checkpoints are self-describing).
    /// Returns the generation restored.
    pub fn restore_latest<T: StreamData + Default>(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        grid: &mut Collection<T>,
    ) -> Result<u64, StreamError> {
        let gens = self.generations(ctx, pfs)?;
        for &generation in gens.iter().rev() {
            match self.try_restore(ctx, pfs, layout, grid, generation) {
                Ok(()) => return Ok(generation),
                Err(_) => continue, // damaged generation: fall back
            }
        }
        Err(StreamError::violation(
            "restore",
            format!("no readable checkpoint under prefix {:?}", self.prefix),
        ))
    }

    /// Scan every generation under this prefix for crash damage and
    /// repair it in place. Collective; returns the same
    /// [`RecoveryOutcome`] on every rank.
    ///
    /// Per generation, rank 0 reads the file image and runs
    /// [`crate::recovery_scan`]:
    ///
    /// * intact (no torn tail) — left alone;
    /// * torn tail after at least one sealed record — truncated back to
    ///   `sealed_bytes`, restoring the committed prefix;
    /// * torn with *zero* sealed records — removed (nothing in it ever
    ///   committed);
    /// * unreadable (bad magic / foreign version) — left alone and
    ///   reported, never destroyed on a guess.
    ///
    /// The manifest is then rewritten to list only the surviving
    /// generations, so a stale manifest cannot resurrect a removed file.
    pub fn recover(&self, ctx: &NodeCtx, pfs: &Pfs) -> Result<RecoveryOutcome, StreamError> {
        let scanned = self.generations(ctx, pfs)?;
        // Rank 0 scans and repairs, then broadcasts one verdict byte per
        // generation so every rank derives the identical outcome.
        let verdicts = if ctx.is_root() {
            scanned
                .iter()
                .map(|&g| self.recover_one_root(ctx, pfs, g))
                .collect()
        } else {
            Vec::new()
        };
        let verdicts = ctx.broadcast(0, verdicts)?;
        let mut out = RecoveryOutcome {
            scanned: scanned.clone(),
            ..RecoveryOutcome::default()
        };
        let mut survivors = Vec::new();
        for (&generation, &verdict) in scanned.iter().zip(&verdicts) {
            match verdict {
                VERDICT_INTACT | VERDICT_TRUNCATED => {
                    if verdict == VERDICT_TRUNCATED {
                        out.truncated.push(generation);
                    }
                    survivors.push(generation);
                    out.newest_sealed = Some(out.newest_sealed.unwrap_or(0).max(generation));
                }
                VERDICT_REMOVED => out.removed.push(generation),
                _ => out.unreadable.push(generation),
            }
        }
        self.write_manifest(ctx, pfs, &[], &survivors)?;
        Ok(out)
    }

    /// Root-only: scan and repair one generation, returning its verdict.
    fn recover_one_root(&self, ctx: &NodeCtx, pfs: &Pfs, generation: u64) -> u8 {
        let name = self.file_for(generation);
        let bytes = match self.read_image_root(ctx, pfs, &name) {
            Some(b) => b,
            None => return VERDICT_UNREADABLE,
        };
        match crate::inspect::recovery_scan(&bytes) {
            Ok(report) if !report.torn => VERDICT_INTACT,
            Ok(report) if report.sealed_records > 0 => {
                match pfs.truncate_file(&name, report.sealed_bytes) {
                    Ok(()) => VERDICT_TRUNCATED,
                    Err(_) => VERDICT_UNREADABLE,
                }
            }
            Ok(_) => match pfs.remove(&name) {
                Ok(()) => VERDICT_REMOVED,
                Err(_) => VERDICT_UNREADABLE,
            },
            Err(_) => VERDICT_UNREADABLE,
        }
    }

    /// Root-only whole-file read (None when missing or unreadable).
    fn read_image_root(&self, ctx: &NodeCtx, pfs: &Pfs, name: &str) -> Option<Vec<u8>> {
        let fh = pfs.open(false, name, OpenMode::Read).ok()?;
        let size = pfs.file_size(name).ok()?;
        let mut buf = vec![0u8; usize::try_from(size).ok()?];
        fh.read_at(ctx, 0, &mut buf).ok()?;
        Some(buf)
    }

    /// Restore one specific generation.
    pub fn try_restore<T: StreamData + Default>(
        &self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        layout: &Layout,
        grid: &mut Collection<T>,
        generation: u64,
    ) -> Result<(), StreamError> {
        let mut r = IStream::open(ctx, pfs, layout, &self.file_for(generation))?;
        r.read()?;
        r.extract_collection(grid)?;
        r.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_collections::DistKind;
    use dstreams_machine::{Machine, MachineConfig};
    use dstreams_pfs::OpenMode;

    fn layout(n: usize, np: usize) -> Layout {
        Layout::dense(n, np, DistKind::Block).unwrap()
    }

    #[test]
    fn save_restore_roundtrips_latest_generation() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(8, 2);
            let mgr = CheckpointManager::new("ck", 3);
            let mut g = Collection::new(ctx, l.clone(), |i| i as u64).unwrap();
            for step in 1..=4u64 {
                g.apply(|v| *v += 100);
                mgr.save(ctx, &p, &g, step).unwrap();
            }
            let mut restored = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
            let generation = mgr.restore_latest(ctx, &p, &l, &mut restored).unwrap();
            assert_eq!(generation, 4);
            for (gid, v) in restored.iter() {
                assert_eq!(*v, gid as u64 + 400);
            }
        })
        .unwrap();
    }

    #[test]
    fn retention_prunes_old_generations() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(4, 2);
            let mgr = CheckpointManager::new("ck", 2);
            let g = Collection::new(ctx, l.clone(), |i| i as u32).unwrap();
            for step in 1..=5u64 {
                mgr.save(ctx, &p, &g, step).unwrap();
            }
            assert_eq!(mgr.generations(ctx, &p).unwrap(), vec![4, 5]);
        })
        .unwrap();
        assert!(!pfs.exists("ck.1"));
        assert!(!pfs.exists("ck.3"));
        assert!(pfs.exists("ck.4") && pfs.exists("ck.5"));
    }

    #[test]
    fn a_fresh_file_step_is_one_rendezvous_and_leaves_an_empty_file() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        let out = Machine::run(MachineConfig::functional(4), move |ctx| {
            let mut steps = RootSteps::default();
            steps.fresh("probe");
            let mut rendezvous = Vec::new();
            for stale in [false, true] {
                if stale && ctx.is_root() {
                    let fh = p.open(false, "probe", OpenMode::Read).unwrap();
                    fh.write_at(ctx, 0, b"stale bytes").unwrap();
                }
                let before = ctx.rendezvous_count();
                steps.run(ctx, &p).unwrap();
                rendezvous.push(ctx.rendezvous_count() - before);
                assert_eq!(p.file_size("probe").unwrap(), 0, "stale = {stale}");
                ctx.barrier().unwrap();
            }
            rendezvous
        })
        .unwrap();
        assert_eq!(out, vec![vec![1, 1]; 4]);
    }

    #[test]
    fn damaged_latest_falls_back_to_previous() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(6, 2);
            let mgr = CheckpointManager::new("ck", 3);
            let g = Collection::new(ctx, l.clone(), |i| i as u64 * 7).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();
            mgr.save(ctx, &p, &g, 2).unwrap();

            // Corrupt generation 2's magic in place (an interrupted write).
            ctx.barrier().unwrap();
            if ctx.is_root() {
                let fh = p.open(false, "ck.2", OpenMode::Read).unwrap();
                fh.write_at(ctx, 0, b"XXXX").unwrap();
            }
            ctx.barrier().unwrap();

            let mut restored = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
            let generation = mgr.restore_latest(ctx, &p, &l, &mut restored).unwrap();
            assert_eq!(generation, 1, "fallback to the readable generation");
            for (gid, v) in restored.iter() {
                assert_eq!(*v, gid as u64 * 7);
            }
        })
        .unwrap();
    }

    #[test]
    fn lost_manifest_recovers_via_namespace_scan() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(6, 2);
            let mgr = CheckpointManager::new("ck", 3);
            let g = Collection::new(ctx, l.clone(), |i| i as u64 + 3).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();
            mgr.save(ctx, &p, &g, 2).unwrap();

            // A crash between the manifest's removal and its rewrite
            // leaves no manifest at all; recovery must not depend on it.
            ctx.barrier().unwrap();
            if ctx.is_root() {
                p.remove("ck.manifest").unwrap();
            }
            ctx.barrier().unwrap();

            assert_eq!(mgr.generations(ctx, &p).unwrap(), vec![1, 2]);
            let mut restored = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
            let generation = mgr.restore_latest(ctx, &p, &l, &mut restored).unwrap();
            assert_eq!(generation, 2);
            for (gid, v) in restored.iter() {
                assert_eq!(*v, gid as u64 + 3);
            }
        })
        .unwrap();
    }

    #[test]
    fn restore_works_across_machine_shapes() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let l = layout(12, 4);
            let mgr = CheckpointManager::new("xk", 2);
            let g = Collection::new(ctx, l.clone(), |i| i as i64 - 5).unwrap();
            mgr.save(ctx, &p, &g, 9).unwrap();
        })
        .unwrap();
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let l = Layout::dense(12, 3, DistKind::Cyclic).unwrap();
            let mgr = CheckpointManager::new("xk", 2);
            let mut g = Collection::new(ctx, l.clone(), |_| 0i64).unwrap();
            assert_eq!(mgr.restore_latest(ctx, &p, &l, &mut g).unwrap(), 9);
            for (gid, v) in g.iter() {
                assert_eq!(*v, gid as i64 - 5);
            }
        })
        .unwrap();
    }

    #[test]
    fn recover_truncates_a_torn_tail_in_place() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(8, 2);
            let mgr = CheckpointManager::new("rk", 3);
            let g = Collection::new(ctx, l.clone(), |i| i as u64 * 3).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();
            mgr.save(ctx, &p, &g, 2).unwrap();

            // Simulate a crash mid-write: append torn garbage past the
            // sealed records of generation 2.
            ctx.barrier().unwrap();
            if ctx.is_root() {
                let size = p.file_size("rk.2").unwrap();
                let fh = p.open(false, "rk.2", OpenMode::Read).unwrap();
                fh.write_at(ctx, size, b"torn-garbage-tail").unwrap();
            }
            ctx.barrier().unwrap();

            let out = mgr.recover(ctx, &p).unwrap();
            assert_eq!(out.scanned, vec![1, 2]);
            assert_eq!(out.truncated, vec![2]);
            assert!(out.removed.is_empty() && out.unreadable.is_empty());
            assert_eq!(out.newest_sealed, Some(2));
            assert!(!out.clean());

            // The truncated generation restores byte-exact.
            let mut restored = Collection::new(ctx, l.clone(), |_| 0u64).unwrap();
            assert_eq!(mgr.restore_latest(ctx, &p, &l, &mut restored).unwrap(), 2);
            for (gid, v) in restored.iter() {
                assert_eq!(*v, gid as u64 * 3);
            }
        })
        .unwrap();
    }

    #[test]
    fn recover_removes_generations_with_nothing_sealed() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(4, 2);
            let mgr = CheckpointManager::new("rz", 3);
            let g = Collection::new(ctx, l.clone(), |i| i as u32).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();

            // Generation 2 crashed after the header, before any record
            // sealed: a sealed-format header followed by torn bytes.
            ctx.barrier().unwrap();
            if ctx.is_root() {
                let fh = p.open(false, "rz.1", OpenMode::Read).unwrap();
                let mut header = vec![0u8; crate::format::FileHeader::LEN];
                fh.read_at(ctx, 0, &mut header).unwrap();
                let fh2 = p
                    .open(true, "rz.2", dstreams_pfs::OpenMode::Create)
                    .unwrap();
                header.extend_from_slice(b"half-a-record");
                fh2.write_at(ctx, 0, &header).unwrap();
            }
            ctx.barrier().unwrap();

            let out = mgr.recover(ctx, &p).unwrap();
            assert_eq!(out.scanned, vec![1, 2]);
            assert_eq!(out.removed, vec![2]);
            assert_eq!(out.newest_sealed, Some(1));
            assert!(!p.exists("rz.2"));
            // The reseated manifest no longer lists the removed file.
            assert_eq!(mgr.generations(ctx, &p).unwrap(), vec![1]);
        })
        .unwrap();
    }

    #[test]
    fn recover_leaves_unreadable_files_alone() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(4, 2);
            let mgr = CheckpointManager::new("ru", 3);
            let g = Collection::new(ctx, l.clone(), |i| i as u16).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();

            // A file under the prefix with a foreign magic: not ours to
            // destroy on a guess.
            ctx.barrier().unwrap();
            if ctx.is_root() {
                let fh = p
                    .open(true, "ru.2", dstreams_pfs::OpenMode::Create)
                    .unwrap();
                fh.write_at(ctx, 0, b"NOTADSTREAMFILE").unwrap();
            }
            ctx.barrier().unwrap();

            let out = mgr.recover(ctx, &p).unwrap();
            assert_eq!(out.unreadable, vec![2]);
            assert!(p.exists("ru.2"), "unreadable files are preserved");
            assert_eq!(out.newest_sealed, Some(1));
        })
        .unwrap();
    }

    #[test]
    fn recover_on_a_clean_namespace_is_a_no_op() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(4, 2);
            let mgr = CheckpointManager::new("rc", 2);
            let g = Collection::new(ctx, l.clone(), |i| i as u64).unwrap();
            mgr.save(ctx, &p, &g, 1).unwrap();
            mgr.save(ctx, &p, &g, 2).unwrap();
            let out = mgr.recover(ctx, &p).unwrap();
            assert!(out.clean());
            assert_eq!(out.scanned, vec![1, 2]);
            assert_eq!(out.newest_sealed, Some(2));
        })
        .unwrap();
    }

    #[test]
    fn empty_manifest_restores_nothing() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let l = layout(4, 2);
            let mgr = CheckpointManager::new("none", 2);
            assert!(mgr.generations(ctx, &p).unwrap().is_empty());
            let mut g = Collection::new(ctx, l.clone(), |_| 0u8).unwrap();
            assert!(mgr.restore_latest(ctx, &p, &l, &mut g).is_err());
        })
        .unwrap();
    }
}
