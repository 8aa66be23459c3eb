//! The PFS registry: a namespace of files shared by every rank of a
//! machine run.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use dstreams_machine::SharedBuffer;
use parking_lot::Mutex;

use crate::error::PfsError;
use crate::file::{FileHandle, FileObj, Stats, StatsSnapshot};
use crate::model::DiskModel;
use crate::retry::RetryPolicy;
use crate::storage::{Backend, PagePool, Storage};

/// How [`Pfs::open`] treats existing / missing files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Attach to the file, creating it empty if missing. Never truncates —
    /// SPMD ranks race to open, so creation must be idempotent. Use
    /// [`Pfs::remove`] to start over.
    Create,
    /// Attach to an existing file; error if missing.
    Read,
}

pub(crate) struct PfsShared {
    pub(crate) model: DiskModel,
    pub(crate) backend: Backend,
    /// Transient-failure retry policy for the client path.
    pub(crate) retry: RetryPolicy,
    pub(crate) files: Mutex<HashMap<String, Arc<FileObj>>>,
    /// Pages freed by removed and truncated in-memory files, reused by
    /// the files created after them.
    pub(crate) pages: Arc<PagePool>,
    pub(crate) stats: Stats,
    /// Per-rank cumulative traffic, used by the cache-regime estimate.
    pub(crate) rank_traffic: Vec<AtomicU64>,
    /// Named shared staging buffers (shared-memory machines only): the
    /// "single buffer" a pC++/streams SMP stream packs into.
    pub(crate) scratch: Mutex<HashMap<String, SharedBuffer>>,
}

/// A simulated parallel file system.
///
/// Create one `Pfs` per experiment, clone it into the machine closure, and
/// open files from each rank:
///
/// ```
/// use dstreams_machine::{Machine, MachineConfig};
/// use dstreams_pfs::{Backend, DiskModel, OpenMode, Pfs};
///
/// let pfs = Pfs::new(4, DiskModel::instant(), Backend::Memory);
/// let p = pfs.clone();
/// Machine::run(MachineConfig::functional(4), move |ctx| {
///     let fh = p.open(ctx.rank() == 0, "data", OpenMode::Create).unwrap();
///     let block = vec![ctx.rank() as u8; 4];
///     let off = fh.write_ordered(ctx, &block).unwrap();
///     assert_eq!(off, ctx.rank() as u64 * 4);
/// })
/// .unwrap();
/// assert_eq!(pfs.file_size("data").unwrap(), 16);
/// ```
#[derive(Clone)]
pub struct Pfs {
    shared: Arc<PfsShared>,
}

impl Pfs {
    /// Create a PFS for a machine of `nprocs` ranks with the given cost
    /// model and backend.
    pub fn new(nprocs: usize, model: DiskModel, backend: Backend) -> Self {
        Pfs {
            shared: Arc::new(PfsShared {
                model,
                backend,
                retry: RetryPolicy::default(),
                files: Mutex::new(HashMap::new()),
                pages: Arc::default(),
                stats: Stats::default(),
                rank_traffic: (0..nprocs.max(1)).map(|_| AtomicU64::new(0)).collect(),
                scratch: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// A memory-backed, cost-free PFS for functional tests.
    pub fn in_memory(nprocs: usize) -> Self {
        Pfs::new(nprocs, DiskModel::instant(), Backend::Memory)
    }

    /// Replace the transient-failure retry policy (builder style).
    ///
    /// Call right after construction, before the instance is cloned into
    /// a machine closure — once clones exist the policy is frozen.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        if let Some(shared) = Arc::get_mut(&mut self.shared) {
            shared.retry = policy;
        }
        self
    }

    /// The transient-failure retry policy in force.
    pub fn retry(&self) -> RetryPolicy {
        self.shared.retry
    }

    /// Attach to an existing disk-backed PFS directory from an earlier
    /// process: every regular file in `dir` is registered (without
    /// truncation) under its on-disk name. Call *before* the machine run.
    pub fn attach_disk(
        nprocs: usize,
        model: DiskModel,
        dir: std::path::PathBuf,
    ) -> Result<Self, PfsError> {
        let pfs = Pfs::new(nprocs, model, Backend::Disk(dir.clone()));
        if dir.is_dir() {
            let mut files = pfs.shared.files.lock();
            for entry in std::fs::read_dir(&dir)? {
                let entry = entry?;
                if !entry.file_type()?.is_file() {
                    continue;
                }
                let name = entry.file_name().to_string_lossy().into_owned();
                let storage = Storage::attach_disk(&dir, &name)?;
                files.insert(
                    name.clone(),
                    Arc::new(FileObj {
                        name,
                        storage,
                        log_cursor: std::sync::atomic::AtomicU64::new(0),
                    }),
                );
            }
        }
        Ok(pfs)
    }

    /// Open (or idempotently create) a file.
    ///
    /// `is_creator` disambiguates the backend allocation: on a Disk backend
    /// exactly one rank should pass `true` (conventionally rank 0) so the
    /// real file is truncated once, not once per rank. On the Memory
    /// backend the flag is irrelevant. With `OpenMode::Read` the flag is
    /// ignored entirely.
    pub fn open(
        &self,
        is_creator: bool,
        name: &str,
        mode: OpenMode,
    ) -> Result<FileHandle, PfsError> {
        let mut files = self.shared.files.lock();
        let file = match files.get(name) {
            Some(f) => Arc::clone(f),
            None => match mode {
                OpenMode::Read => return Err(PfsError::NotFound(name.to_string())),
                OpenMode::Create => {
                    let storage = match &self.shared.backend {
                        Backend::Memory => Storage::new_mem_in(&self.shared.pages),
                        Backend::Disk(dir) => {
                            // First opener allocates; concurrent openers of
                            // the same name are serialized by the registry
                            // lock, so only one allocation happens even if
                            // several ranks pass is_creator = true.
                            let _ = is_creator;
                            Storage::new_disk(dir, name)?
                        }
                    };
                    let obj = Arc::new(FileObj {
                        name: name.to_string(),
                        storage,
                        log_cursor: std::sync::atomic::AtomicU64::new(0),
                    });
                    files.insert(name.to_string(), Arc::clone(&obj));
                    obj
                }
            },
        };
        Ok(FileHandle {
            pfs: Arc::clone(&self.shared),
            file,
            pos: Cell::new(0),
            record_seq: Cell::new(0),
            agg_peer_crash: Cell::new(false),
            _not_send: std::marker::PhantomData,
        })
    }

    /// Remove a file from the namespace and unlink its disk backing.
    /// Handles still open keep reading and writing the old bytes (POSIX
    /// unlink semantics), and a later `open(Create)` of the same name
    /// starts a new, empty file. In-memory pages return to the pool when
    /// the last handle drops.
    pub fn remove(&self, name: &str) -> Result<(), PfsError> {
        let obj = self
            .shared
            .files
            .lock()
            .remove(name)
            .ok_or_else(|| PfsError::NotFound(name.to_string()))?;
        obj.storage.unlink()
    }

    /// Truncate a file to `len` bytes, dropping everything past that
    /// point. Lengths at or beyond the current size are a no-op — this
    /// never grows a file.
    ///
    /// This is the crash-recovery primitive: after `recovery_scan` finds
    /// a torn tail record, truncating back to `sealed_bytes` restores the
    /// committed prefix (what `dsdump --recover` does to real files).
    /// Like [`Pfs::remove`] it is a namespace-level metadata operation —
    /// no model cost is charged. SPMD caveat: have one rank decide and
    /// truncate, then broadcast the outcome (the
    /// `dstreams_core::checkpoint` recovery driver does exactly that).
    pub fn truncate_file(&self, name: &str, len: u64) -> Result<(), PfsError> {
        let obj = self
            .shared
            .files
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| PfsError::NotFound(name.to_string()))?;
        obj.storage.truncate_to(len)
    }

    /// Whether a file exists.
    ///
    /// SPMD caveat: this samples shared state without synchronization. If
    /// different ranks may race against another rank's `open(Create)`,
    /// have rank 0 decide and broadcast the verdict (see
    /// `dstreams_core::checkpoint` for the pattern) — otherwise ranks can
    /// take different branches and desynchronize their collectives.
    pub fn exists(&self, name: &str) -> bool {
        self.shared.files.lock().contains_key(name)
    }

    /// Size of a named file.
    pub fn file_size(&self, name: &str) -> Result<u64, PfsError> {
        self.shared
            .files
            .lock()
            .get(name)
            .map(|f| f.len())
            .ok_or_else(|| PfsError::NotFound(name.to_string()))
    }

    /// Sorted list of file names.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.shared.files.lock().keys().cloned().collect();
        names.sort();
        names
    }

    /// Operation counters (for ablation reporting).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The cost model in force.
    pub fn model(&self) -> &DiskModel {
        &self.shared.model
    }

    /// The named shared staging buffer, created on first request. All
    /// ranks asking for the same name receive clones of one buffer —
    /// the substrate for the shared-memory single-buffer stream variant.
    pub fn scratch(&self, name: &str) -> SharedBuffer {
        self.shared
            .scratch
            .lock()
            .entry(name.to_string())
            .or_default()
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_machine::{Machine, MachineConfig, VTime};

    #[test]
    fn open_read_of_missing_file_fails() {
        let pfs = Pfs::in_memory(1);
        assert!(matches!(
            pfs.open(true, "nope", OpenMode::Read),
            Err(PfsError::NotFound(_))
        ));
    }

    #[test]
    fn create_is_idempotent_across_ranks() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let fh = p.open(ctx.is_root(), "shared", OpenMode::Create).unwrap();
            ctx.barrier().unwrap();
            // All ranks see the same object.
            if ctx.is_root() {
                fh.write_at(ctx, 0, b"root wrote").unwrap();
            }
            ctx.barrier().unwrap();
            let mut buf = vec![0u8; 10];
            fh.read_at(ctx, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"root wrote");
        })
        .unwrap();
        assert_eq!(pfs.list(), vec!["shared".to_string()]);
    }

    #[test]
    fn independent_write_read_with_private_positions() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "f", OpenMode::Create).unwrap();
            // Each rank streams through its own region.
            fh.seek(ctx.rank() as u64 * 8);
            fh.write(ctx, &[ctx.rank() as u8; 4]).unwrap();
            fh.write(ctx, &[0xAA; 4]).unwrap();
            assert_eq!(fh.pos(), ctx.rank() as u64 * 8 + 8);
            ctx.barrier().unwrap();
            fh.seek(ctx.rank() as u64 * 8);
            let mut buf = [0u8; 4];
            fh.read(ctx, &mut buf).unwrap();
            assert_eq!(buf, [ctx.rank() as u8; 4]);
        })
        .unwrap();
        assert_eq!(pfs.file_size("f").unwrap(), 16);
        assert_eq!(pfs.stats().independent_ops, 2 * 3);
    }

    #[test]
    fn write_ordered_lands_blocks_in_rank_order() {
        let pfs = Pfs::in_memory(4);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(4), move |ctx| {
            let fh = p.open(ctx.is_root(), "ordered", OpenMode::Create).unwrap();
            // Variable block sizes: rank r writes r+1 bytes of value r.
            let block = vec![ctx.rank() as u8; ctx.rank() + 1];
            let off = fh.write_ordered(ctx, &block).unwrap();
            let expect: u64 = (0..ctx.rank()).map(|r| r as u64 + 1).sum();
            assert_eq!(off, expect);
            // Second collective appends after the first.
            let off2 = fh.write_ordered(ctx, &[0xFF]).unwrap();
            assert_eq!(off2, 10 + ctx.rank() as u64);
        })
        .unwrap();
        let p2 = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p2.open(false, "ordered", OpenMode::Read).unwrap();
            let mut buf = vec![0u8; 14];
            fh.read_at(ctx, 0, &mut buf).unwrap();
            assert_eq!(
                buf,
                vec![0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 0xFF, 0xFF, 0xFF, 0xFF]
            );
        })
        .unwrap();
    }

    #[test]
    fn read_ordered_returns_each_ranks_slice() {
        let pfs = Pfs::in_memory(3);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let fh = p.open(ctx.is_root(), "r", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, &[ctx.rank() as u8 + 1; 5]).unwrap();
            let got = fh.read_ordered(ctx, ctx.rank() as u64 * 5, 5).unwrap();
            assert_eq!(got, vec![ctx.rank() as u8 + 1; 5]);
            // Zero-length participation is legal.
            let empty = fh.read_ordered(ctx, 0, 0).unwrap();
            assert!(empty.is_empty());
        })
        .unwrap();
    }

    #[test]
    fn collective_cost_reaches_all_ranks() {
        let mut model = DiskModel::instant();
        model.coll_latency = VTime::from_millis(100);
        let pfs = Pfs::new(2, model, Backend::Memory);
        let p = pfs.clone();
        let times = Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "c", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, b"xx").unwrap();
            ctx.now()
        })
        .unwrap();
        for t in times {
            assert!(t >= VTime::from_millis(100));
        }
    }

    #[test]
    fn unbuffered_ops_cost_more_than_one_bulk_op() {
        // The benchmark's core claim, at the PFS level: many small
        // independent ops are slower than one ordered write of the same
        // bytes under the Paragon model.
        let model = DiskModel::paragon_pfs();
        // Paper-scale sizes: ~700 segments of 5.6 KB per rank (the 2.8 MB
        // row of Table 1). At small sizes the collective startup latency
        // can exceed the unbuffered cost; the paper's tables start at
        // 1.4 MB where buffering already wins.
        let nops = 700usize;
        let chunk = 5600usize;

        let pfs_a = Pfs::new(2, model.clone(), Backend::Memory);
        let pa = pfs_a.clone();
        let t_unbuf = Machine::run(MachineConfig::paragon(2), move |ctx| {
            let fh = pa.open(ctx.is_root(), "u", OpenMode::Create).unwrap();
            fh.seek((ctx.rank() * nops * chunk) as u64);
            for _ in 0..nops {
                fh.write(ctx, &vec![7u8; chunk]).unwrap();
            }
            ctx.now()
        })
        .unwrap();

        let pfs_b = Pfs::new(2, model, Backend::Memory);
        let pb = pfs_b.clone();
        let t_bulk = Machine::run(MachineConfig::paragon(2), move |ctx| {
            let fh = pb.open(ctx.is_root(), "b", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, &vec![7u8; nops * chunk]).unwrap();
            ctx.now()
        })
        .unwrap();

        assert_eq!(pfs_a.file_size("u").unwrap(), pfs_b.file_size("b").unwrap());
        assert!(
            t_unbuf[0] > t_bulk[0],
            "unbuffered {} should exceed bulk {}",
            t_unbuf[0],
            t_bulk[0]
        );
    }

    #[test]
    fn remove_then_reopen_starts_empty() {
        let pfs = Pfs::in_memory(1);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let fh = p.open(true, "tmp", OpenMode::Create).unwrap();
            fh.write(ctx, b"data").unwrap();
        })
        .unwrap();
        assert_eq!(pfs.file_size("tmp").unwrap(), 4);
        pfs.remove("tmp").unwrap();
        assert!(!pfs.exists("tmp"));
        assert!(matches!(pfs.remove("tmp"), Err(PfsError::NotFound(_))));
    }

    #[test]
    fn disk_backend_roundtrips_through_real_files() {
        let dir = std::env::temp_dir().join(format!("dstreams-pfs-int-{}", std::process::id()));
        let pfs = Pfs::new(2, DiskModel::instant(), Backend::Disk(dir.clone()));
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p.open(ctx.is_root(), "real.bin", OpenMode::Create).unwrap();
            fh.write_ordered(ctx, &[ctx.rank() as u8; 8]).unwrap();
            let got = fh.read_ordered(ctx, ctx.rank() as u64 * 8, 8).unwrap();
            assert_eq!(got, vec![ctx.rank() as u8; 8]);
        })
        .unwrap();
        pfs.remove("real.bin").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
