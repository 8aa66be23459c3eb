//! The benchmark's three I/O implementations (paper §4.3):
//!
//! 1. **unbuffered** — operating-system primitives directly, one call per
//!    field per segment, no buffering;
//! 2. **manual buffering** — hand-packed per-node buffers moved with the
//!    parallel file system's collective primitives, storing *no* size or
//!    distribution information (legal because the benchmark's segments
//!    are fixed-size, the paper's stated condition for this baseline);
//! 3. **pC++/streams** — the d/streams library, with its automatic
//!    bookkeeping of distribution and per-element sizes.
//!
//! Each implementation provides `output` and `input`; the benchmark runs
//! an output followed by an input (`unsortedRead` on the streams path).

use dstreams_collections::Collection;
use dstreams_core::{IStream, MetaMode, MetaPolicy, OStream, StreamError, StreamOptions};
use dstreams_machine::wire::{ReadError, Reader};
use dstreams_machine::NodeCtx;
use dstreams_pfs::{OpenMode, Pfs};

use crate::segment::{Segment, ARRAYS_PER_SEGMENT};
use crate::ScfError;

/// Which I/O implementation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoMethod {
    /// OS primitives, one call per field per segment.
    Unbuffered,
    /// Hand-packed buffers, collective transfer, no metadata.
    ManualBuffered,
    /// The pC++/streams library.
    DStreams,
}

impl IoMethod {
    /// All three methods, in the tables' row order.
    pub const ALL: [IoMethod; 3] = [
        IoMethod::Unbuffered,
        IoMethod::ManualBuffered,
        IoMethod::DStreams,
    ];

    /// Row label used in the tables.
    pub fn label(self) -> &'static str {
        match self {
            IoMethod::Unbuffered => "Unbuffered I/O",
            IoMethod::ManualBuffered => "Manual Buffering",
            IoMethod::DStreams => "pC++/streams",
        }
    }

    /// One benchmark measurement with this method: output `grid` to
    /// `file`, then input it into `back`. The streams path writes its
    /// metadata as a separate parallel operation at every size, as the
    /// measured 1995 implementation did, and reads with `unsortedRead`.
    pub fn out_and_in(
        self,
        ctx: &NodeCtx,
        pfs: &Pfs,
        grid: &Collection<Segment>,
        back: &mut Collection<Segment>,
        file: &str,
        particles_per_segment: usize,
    ) -> Result<(), ScfError> {
        match self {
            IoMethod::Unbuffered => {
                output_unbuffered(ctx, pfs, grid, file)?;
                input_unbuffered(ctx, pfs, back, file)
            }
            IoMethod::ManualBuffered => {
                output_manual(ctx, pfs, grid, file)?;
                input_manual(ctx, pfs, back, file, particles_per_segment)
            }
            IoMethod::DStreams => {
                output_dstreams(ctx, pfs, grid, file, MetaMode::Parallel)?;
                input_dstreams_unsorted(ctx, pfs, back, file)
            }
        }
    }
}

fn pack_f64s(out: &mut Vec<u8>, vals: &[f64]) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

fn unpack_f64s(r: &mut Reader<'_>, out: &mut [f64]) -> Result<(), ScfError> {
    let words = r.u64s(out.len()).map_err(short)?;
    for (v, w) in out.iter_mut().zip(words) {
        *v = f64::from_bits(w);
    }
    Ok(())
}

/// The error for a segment buffer shorter than its counts claim.
fn short(e: ReadError) -> ScfError {
    ScfError::Stream(StreamError::CorruptRecord(format!("segment buffer: {e}")))
}

// ---------------------------------------------------------------------------
// 1. Unbuffered
// ---------------------------------------------------------------------------

/// Unbuffered output: every rank streams its segments field by field into
/// its own file (`base.rN`) with one OS call each — the coding style the
/// paper observes application developers falling into.
pub fn output_unbuffered(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &Collection<Segment>,
    base: &str,
) -> Result<(), ScfError> {
    let fh = pfs.open(true, &format!("{base}.r{}", ctx.rank()), OpenMode::Create)?;
    for (_g, s) in grid.iter() {
        fh.write(ctx, &s.n_particles.to_le_bytes())?;
        for arr in s.arrays() {
            let mut raw = Vec::with_capacity(arr.len() * 8);
            pack_f64s(&mut raw, arr);
            fh.write(ctx, &raw)?;
        }
    }
    ctx.barrier()?;
    Ok(())
}

/// Unbuffered input: mirror of [`output_unbuffered`].
pub fn input_unbuffered(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &mut Collection<Segment>,
    base: &str,
) -> Result<(), ScfError> {
    let fh = pfs.open(false, &format!("{base}.r{}", ctx.rank()), OpenMode::Read)?;
    fh.seek(0);
    // Iterate local slots without holding a borrow across fh calls.
    for slot in 0..grid.local_len() {
        let mut count_buf = [0u8; 8];
        fh.read(ctx, &mut count_buf)?;
        // A count the rest of the file cannot hold is damage: refuse it
        // before allocating its arrays.
        let n = u64::from_le_bytes(count_buf);
        let left = fh.len().saturating_sub(fh.pos());
        if n.checked_mul(8 * ARRAYS_PER_SEGMENT as u64)
            .is_none_or(|b| b > left)
        {
            return Err(ScfError::Stream(StreamError::CorruptRecord(format!(
                "unbuffered segment claims {n} particles, {left} bytes remain"
            ))));
        }
        let n = n as usize;
        let s = &mut grid.local_mut()[slot];
        *s = Segment::zeroed(n);
        for arr in s.arrays_mut() {
            let mut raw = vec![0u8; n * 8];
            fh.read(ctx, &mut raw)?;
            unpack_f64s(&mut Reader::new(&raw), arr)?;
        }
    }
    ctx.barrier()?;
    Ok(())
}

// ---------------------------------------------------------------------------
// 2. Manual buffering
// ---------------------------------------------------------------------------

/// Manually buffered output: pack all local segments into one buffer and
/// move it with a single collective write. Stores no size or distribution
/// information — the reader must know the fixed segment size.
pub fn output_manual(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &Collection<Segment>,
    file: &str,
) -> Result<(), ScfError> {
    let total: usize = grid.iter().map(|(_g, s)| s.serialized_len()).sum();
    let mut buf = Vec::with_capacity(total);
    for (_g, s) in grid.iter() {
        buf.extend_from_slice(&s.n_particles.to_le_bytes());
        for arr in s.arrays() {
            pack_f64s(&mut buf, arr);
        }
    }
    ctx.charge_memcpy(buf.len());
    let fh = pfs.open(ctx.is_root(), file, OpenMode::Create)?;
    fh.write_ordered(ctx, &buf)?;
    Ok(())
}

/// Manually buffered input. `particles_per_segment` must match the writer
/// exactly — this baseline has no metadata to consult (the paper's point).
pub fn input_manual(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &mut Collection<Segment>,
    file: &str,
    particles_per_segment: usize,
) -> Result<(), ScfError> {
    let seg_bytes = Segment::serialized_len_for(particles_per_segment);
    // Offsets are *computed*, not read: contiguous blocks in rank order,
    // local_count segments each.
    let nprocs = ctx.nprocs();
    let counts: Vec<usize> = (0..nprocs).map(|r| grid.layout().local_count(r)).collect();
    let my_off: usize = counts[..ctx.rank()].iter().sum::<usize>() * seg_bytes;
    let my_len = counts[ctx.rank()] * seg_bytes;

    let fh = pfs.open(false, file, OpenMode::Read)?;
    let raw = fh.read_ordered(ctx, my_off as u64, my_len)?;
    ctx.charge_memcpy(raw.len());

    let mut r = Reader::new(&raw);
    for slot in 0..grid.local_len() {
        let n = r.u64().map_err(short)? as usize;
        if n != particles_per_segment {
            return Err(ScfError::ManualSizeMismatch {
                expected: particles_per_segment,
                found: n,
            });
        }
        let s = &mut grid.local_mut()[slot];
        *s = Segment::zeroed(n);
        for arr in s.arrays_mut() {
            unpack_f64s(&mut r, arr)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// 3. pC++/streams
// ---------------------------------------------------------------------------

/// d/streams output: `s << g; s.write();`.
///
/// `meta_mode` selects the metadata strategy; the paper's measured
/// implementation writes metadata as a separate parallel operation, so
/// the table driver forces [`MetaMode::Parallel`].
pub fn output_dstreams(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &Collection<Segment>,
    file: &str,
    meta_mode: MetaMode,
) -> Result<(), ScfError> {
    let opts = StreamOptions {
        checked: false,
        meta_policy: MetaPolicy::Force(meta_mode),
        ..Default::default()
    };
    let mut s = OStream::create_with(ctx, pfs, grid.layout(), file, opts)?;
    s.insert_collection(grid)?;
    s.write()?;
    s.close()?;
    Ok(())
}

/// d/streams input with `unsortedRead` (the primitive used in all the
/// paper's measurements — the SCF data is index-free).
pub fn input_dstreams_unsorted(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &mut Collection<Segment>,
    file: &str,
) -> Result<(), ScfError> {
    let mut s = IStream::open(ctx, pfs, grid.layout(), file)?;
    s.unsorted_read()?;
    s.extract_collection(grid)?;
    s.close()?;
    Ok(())
}

/// d/streams input with the sorted `read` (elements back at their own
/// indices, with redistribution if needed). Used by the read-vs-unsorted
/// ablation.
pub fn input_dstreams_sorted(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &mut Collection<Segment>,
    file: &str,
) -> Result<(), ScfError> {
    let mut s = IStream::open(ctx, pfs, grid.layout(), file)?;
    s.read()?;
    s.extract_collection(grid)?;
    s.close()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physics::global_checksum;
    use crate::workload::ScfConfig;
    use dstreams_collections::{DistKind, Layout};
    use dstreams_machine::{Machine, MachineConfig};

    fn grid_and_checksum(ctx: &NodeCtx, cfg: &ScfConfig, np: usize) -> (Collection<Segment>, f64) {
        let layout = Layout::dense(cfg.n_segments, np, DistKind::Block).unwrap();
        let grid = Collection::new(ctx, layout, |g| cfg.make_segment(g)).unwrap();
        let sum = global_checksum(ctx, &grid).unwrap();
        (grid, sum)
    }

    fn roundtrip(method: IoMethod) {
        let np = 4;
        let pfs = Pfs::in_memory(np);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(np), move |ctx| {
            let cfg = ScfConfig::paper(16);
            let (grid, want) = grid_and_checksum(ctx, &cfg, np);
            let layout = grid.layout().clone();
            let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
            method
                .out_and_in(ctx, &p, &grid, &mut back, "f", cfg.particles_per_segment)
                .unwrap();
            let got = global_checksum(ctx, &back).unwrap();
            assert!((got - want).abs() < 1e-9, "{method:?}: {got} vs {want}");
            // Unbuffered and manual preserve index order exactly.
            if method != IoMethod::DStreams {
                for ((ga, a), (gb, b)) in grid.iter().zip(back.iter()) {
                    assert_eq!(ga, gb);
                    assert_eq!(a, b);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn unbuffered_roundtrips() {
        roundtrip(IoMethod::Unbuffered);
    }

    #[test]
    fn manual_roundtrips() {
        roundtrip(IoMethod::ManualBuffered);
    }

    #[test]
    fn dstreams_roundtrips() {
        roundtrip(IoMethod::DStreams);
    }

    #[test]
    fn dstreams_sorted_read_restores_indices() {
        let np = 3;
        let pfs = Pfs::in_memory(np);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(np), move |ctx| {
            let cfg = ScfConfig::variable(9, 50, 20);
            let layout = Layout::dense(9, np, DistKind::Cyclic).unwrap();
            let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
            output_dstreams(ctx, &p, &grid, "s", MetaMode::Parallel).unwrap();
            let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
            input_dstreams_sorted(ctx, &p, &mut back, "s").unwrap();
            for (g, s) in back.iter() {
                assert_eq!(s, &cfg.make_segment(g), "segment {g}");
            }
        })
        .unwrap();
    }

    #[test]
    fn manual_input_detects_wrong_segment_size() {
        let np = 2;
        let pfs = Pfs::in_memory(np);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(np), move |ctx| {
            let cfg = ScfConfig::paper(4);
            let (grid, _) = grid_and_checksum(ctx, &cfg, np);
            output_manual(ctx, &p, &grid, "m").unwrap();
            let mut back =
                Collection::new(ctx, grid.layout().clone(), |_| Segment::default()).unwrap();
            // Claim 50 particles per segment: the manual baseline has no
            // metadata to catch this except the embedded counts.
            let err = input_manual(ctx, &p, &mut back, "m", 50).unwrap_err();
            assert!(matches!(err, ScfError::ManualSizeMismatch { .. }));
        })
        .unwrap();
    }

    #[test]
    fn dstreams_handles_variable_sizes_where_manual_cannot() {
        let np = 2;
        let pfs = Pfs::in_memory(np);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(np), move |ctx| {
            let cfg = ScfConfig::variable(8, 60, 40);
            let layout = Layout::dense(8, np, DistKind::Block).unwrap();
            let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
            let want = global_checksum(ctx, &grid).unwrap();
            output_dstreams(ctx, &p, &grid, "v", MetaMode::Parallel).unwrap();
            let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
            input_dstreams_unsorted(ctx, &p, &mut back, "v").unwrap();
            let got = global_checksum(ctx, &back).unwrap();
            assert!((got - want).abs() < 1e-9);
        })
        .unwrap();
    }
}
