//! The benchmark driver: run one (platform, processors, size, method)
//! cell of the paper's tables and report simulated platform seconds.
//!
//! A measurement is "an output operation followed by an input operation on
//! a distributed data structure" (paper Figure 5 caption), timed from a
//! synchronized start to the slowest rank's finish, with `unsortedRead`
//! used for the streams input. Every cell runs on a fresh machine and a
//! fresh PFS so file-cache state cannot leak between cells.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_machine::{Machine, MachineConfig, VTime};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_trace::json::Value;
use dstreams_trace::{OpCounts, Trace, TraceSink};

use crate::methods::IoMethod;
use crate::physics::global_checksum;
use crate::segment::Segment;
use crate::workload::ScfConfig;
use crate::ScfError;

/// The paper's evaluation platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Intel Paragon (distributed memory, Paragon PFS).
    Paragon,
    /// SGI Challenge (shared memory, local XFS-class file system).
    SgiChallenge,
    /// TMC CM-5 (ran the library; no numbers in the paper).
    Cm5,
}

impl Platform {
    /// Machine cost preset.
    pub fn machine(self, nprocs: usize) -> MachineConfig {
        match self {
            Platform::Paragon => MachineConfig::paragon(nprocs),
            Platform::SgiChallenge => MachineConfig::sgi_challenge(nprocs),
            Platform::Cm5 => MachineConfig::cm5(nprocs),
        }
    }

    /// Storage cost preset.
    pub fn disk(self) -> DiskModel {
        match self {
            Platform::Paragon => DiskModel::paragon_pfs(),
            Platform::SgiChallenge => DiskModel::sgi_challenge_fs(),
            Platform::Cm5 => DiskModel::cm5_sfs(),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Paragon => "Intel Paragon",
            Platform::SgiChallenge => "SGI Challenge",
            Platform::Cm5 => "TMC CM-5",
        }
    }
}

/// One benchmark cell: out + in with one method.
#[derive(Debug, Clone, Copy)]
pub struct CellSpec {
    /// Platform preset.
    pub platform: Platform,
    /// Processor count.
    pub nprocs: usize,
    /// Segments in the collection.
    pub n_segments: usize,
    /// Method under test.
    pub method: IoMethod,
}

/// Run one cell; returns simulated seconds (slowest rank, out + in).
pub fn run_cell(spec: CellSpec) -> Result<f64, ScfError> {
    run_cell_inner(spec, None)
}

/// [`run_cell`] with tracing: additionally returns the merged event
/// trace of the timed region's machine run. Tracing never perturbs the
/// virtual clock, so the seconds are bit-identical to an untraced run.
pub fn run_cell_traced(spec: CellSpec) -> Result<(f64, Trace), ScfError> {
    let sink = TraceSink::new(spec.nprocs);
    let secs = run_cell_inner(spec, Some(sink.clone()))?;
    Ok((secs, sink.take()))
}

fn run_cell_inner(spec: CellSpec, trace: Option<TraceSink>) -> Result<f64, ScfError> {
    let pfs = Pfs::new(spec.nprocs, spec.platform.disk(), Backend::Memory);
    let mut config = spec.platform.machine(spec.nprocs);
    config.trace = trace;
    let times = Machine::run(config, |ctx| -> Result<VTime, ScfError> {
        let cfg = ScfConfig::paper(spec.n_segments);
        let layout = Layout::dense(cfg.n_segments, spec.nprocs, DistKind::Block)?;
        let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g))?;
        let want = global_checksum(ctx, &grid)?;
        let mut back = Collection::new(ctx, layout, |_| Segment::default())?;

        // Timed region: output followed by input.
        ctx.barrier()?;
        let t0 = ctx.now();
        spec.method.out_and_in(
            ctx,
            &pfs,
            &grid,
            &mut back,
            "bench",
            cfg.particles_per_segment,
        )?;
        ctx.barrier()?;
        let elapsed = ctx.now() - t0;

        // The benchmark is only valid if the data survived.
        let got = global_checksum(ctx, &back)?;
        if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
            return Err(ScfError::Validation(format!(
                "roundtrip checksum {got} != {want}"
            )));
        }
        Ok(elapsed)
    })
    .map_err(ScfError::from)?;

    let mut worst = VTime::ZERO;
    for t in times {
        worst = worst.max(t?);
    }
    Ok(worst.as_secs_f64())
}

/// Per-phase decomposition of one d/streams benchmark cell — where the
/// time (and the library overhead) actually goes. The paper reports only
/// the combined out+in number; this extension splits it into every call
/// the cell makes, so the phases account for the whole cell.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Segment count.
    pub n_segments: usize,
    /// `OStream::create_with` plus `IStream::open`.
    pub open_s: f64,
    /// Serializing elements into per-element chunks (`s << g`).
    pub insert_s: f64,
    /// The `write()` primitive: metadata + data parallel operations.
    pub write_s: f64,
    /// The `unsortedRead()` primitive: metadata + data parallel reads.
    pub read_s: f64,
    /// Transferring buffered data into the collection (`s >> g`).
    pub extract_s: f64,
    /// The output and input streams' `close` calls.
    pub close_s: f64,
}

impl PhaseBreakdown {
    /// Sum of the phases.
    pub fn total_s(&self) -> f64 {
        self.open_s + self.insert_s + self.write_s + self.read_s + self.extract_s + self.close_s
    }

    /// Render as a JSON object (stable key order).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("n_segments".into(), Value::Int(self.n_segments as i64)),
            ("open_s".into(), Value::Num(self.open_s)),
            ("insert_s".into(), Value::Num(self.insert_s)),
            ("write_s".into(), Value::Num(self.write_s)),
            ("read_s".into(), Value::Num(self.read_s)),
            ("extract_s".into(), Value::Num(self.extract_s)),
            ("close_s".into(), Value::Num(self.close_s)),
        ])
    }
}

/// Profile the d/streams path phase by phase (simulated seconds, slowest
/// rank per phase): the calls of [`IoMethod::DStreams`]'s cell, with a
/// barrier after each.
pub fn profile_dstreams_phases(
    platform: Platform,
    nprocs: usize,
    n_segments: usize,
) -> Result<PhaseBreakdown, ScfError> {
    use dstreams_core::{IStream, MetaPolicy, OStream, StreamOptions};

    let pfs = Pfs::new(nprocs, platform.disk(), Backend::Memory);
    let times = Machine::run(
        platform.machine(nprocs),
        |ctx| -> Result<[VTime; 6], ScfError> {
            let cfg = ScfConfig::paper(n_segments);
            let layout = Layout::dense(cfg.n_segments, nprocs, DistKind::Block)?;
            let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g))?;
            let mut back = Collection::new(ctx, layout.clone(), |_| Segment::default())?;
            let opts = StreamOptions {
                meta_policy: MetaPolicy::Force(dstreams_core::MetaMode::Parallel),
                ..Default::default()
            };

            // Time since the last lap, ending at a barrier.
            let mut t0 = VTime::ZERO;
            let mut lap = || -> Result<VTime, ScfError> {
                ctx.barrier()?;
                let now = ctx.now();
                let d = now - t0;
                t0 = now;
                Ok(d)
            };
            lap()?;
            let mut s = OStream::create_with(ctx, &pfs, &layout, "phase", opts)?;
            let mut open = lap()?;
            s.insert_collection(&grid)?;
            let insert = lap()?;
            s.write()?;
            let write = lap()?;
            s.close()?;
            let mut close = lap()?;
            let mut r = IStream::open(ctx, &pfs, &layout, "phase")?;
            open += lap()?;
            r.unsorted_read()?;
            let read = lap()?;
            r.extract_collection(&mut back)?;
            let extract = lap()?;
            r.close()?;
            close += lap()?;
            Ok([open, insert, write, read, extract, close])
        },
    )
    .map_err(ScfError::from)?;

    let mut worst = [VTime::ZERO; 6];
    for t in times {
        let t = t?;
        for (w, v) in worst.iter_mut().zip(t) {
            *w = (*w).max(v);
        }
    }
    let [open, insert, write, read, extract, close] = worst.map(VTime::as_secs_f64);
    Ok(PhaseBreakdown {
        n_segments,
        open_s: open,
        insert_s: insert,
        write_s: write,
        read_s: read,
        extract_s: extract,
        close_s: close,
    })
}

/// A complete table row set for one I/O size.
#[derive(Debug, Clone)]
pub struct SizeResult {
    /// Segment count.
    pub n_segments: usize,
    /// Dataset megabytes (binary).
    pub mb: f64,
    /// Seconds per method, in [`IoMethod::ALL`] order.
    pub seconds: [f64; 3],
    /// Per-method trace op counts, in the same order. Present when the
    /// cells were run through [`run_sizes_traced`].
    pub op_counts: Option<Box<[OpCounts; 3]>>,
}

impl SizeResult {
    /// pC++/streams performance as a percentage of manual buffering
    /// (the tables' last row: `manual / streams * 100`).
    pub fn pct_of_manual(&self) -> f64 {
        100.0 * self.seconds[1] / self.seconds[2]
    }

    /// Render as a JSON object (stable key order).
    pub fn to_json(&self) -> Value {
        let mut m = vec![
            ("n_segments".into(), Value::Int(self.n_segments as i64)),
            ("mb".into(), Value::Num(self.mb)),
            (
                "seconds".into(),
                Value::Arr(self.seconds.iter().map(|s| Value::Num(*s)).collect()),
            ),
        ];
        if let Some(counts) = &self.op_counts {
            m.push((
                "op_counts".into(),
                Value::Arr(counts.iter().map(OpCounts::to_json).collect()),
            ));
        }
        Value::Obj(m)
    }
}

/// Run all three methods for each size of a table column set.
pub fn run_sizes(
    platform: Platform,
    nprocs: usize,
    sizes: &[usize],
) -> Result<Vec<SizeResult>, ScfError> {
    run_sizes_impl(platform, nprocs, sizes, false)
}

/// [`run_sizes`] with tracing: every cell additionally aggregates its
/// event trace into [`SizeResult::op_counts`].
pub fn run_sizes_traced(
    platform: Platform,
    nprocs: usize,
    sizes: &[usize],
) -> Result<Vec<SizeResult>, ScfError> {
    run_sizes_impl(platform, nprocs, sizes, true)
}

fn run_sizes_impl(
    platform: Platform,
    nprocs: usize,
    sizes: &[usize],
    traced: bool,
) -> Result<Vec<SizeResult>, ScfError> {
    sizes
        .iter()
        .map(|&n_segments| {
            let mut seconds = [0.0f64; 3];
            let mut counts: [OpCounts; 3] = Default::default();
            for (k, method) in IoMethod::ALL.into_iter().enumerate() {
                let spec = CellSpec {
                    platform,
                    nprocs,
                    n_segments,
                    method,
                };
                if traced {
                    let (secs, trace) = run_cell_traced(spec)?;
                    seconds[k] = secs;
                    counts[k] = trace.op_counts();
                } else {
                    seconds[k] = run_cell(spec)?;
                }
            }
            Ok(SizeResult {
                n_segments,
                mb: ScfConfig::paper(n_segments).dataset_mb(),
                seconds,
                op_counts: traced.then(|| Box::new(counts)),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_cell_runs_and_validates() {
        let secs = run_cell(CellSpec {
            platform: Platform::Paragon,
            nprocs: 2,
            n_segments: 32,
            method: IoMethod::DStreams,
        })
        .unwrap();
        assert!(secs > 0.0 && secs.is_finite());
    }

    #[test]
    fn determinism_cell_times_are_bit_identical() {
        let spec = CellSpec {
            platform: Platform::SgiChallenge,
            nprocs: 4,
            n_segments: 64,
            method: IoMethod::ManualBuffered,
        };
        let a = run_cell(spec).unwrap();
        let b = run_cell(spec).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn phase_breakdown_accounts_for_the_io_dominance() {
        let p = profile_dstreams_phases(Platform::Paragon, 2, 64).unwrap();
        let total = p.total_s();
        assert!(total > 0.0);
        // The parallel file operations dominate; the library's buffer
        // passes are marginal (the paper's design rationale).
        assert!(p.write_s + p.read_s > 0.9 * total, "{p:?}");
        assert!(p.insert_s > 0.0 && p.extract_s > 0.0);
    }

    #[test]
    fn phases_account_for_the_whole_table1_streams_cell() {
        // The phases time every call of the cell, so only the barriers
        // between them separate their sum from it.
        for column in crate::tables::table1().columns {
            let n_segments = column.n_segments;
            let cell = run_cell(CellSpec {
                platform: Platform::Paragon,
                nprocs: 4,
                n_segments,
                method: IoMethod::DStreams,
            })
            .unwrap();
            let phases = profile_dstreams_phases(Platform::Paragon, 4, n_segments).unwrap();
            let total = phases.total_s();
            assert!(
                (total - cell).abs() <= 0.01 * cell,
                "{n_segments} segments: phases sum to {total} s, cell is {cell} s"
            );
        }
    }

    #[test]
    fn buffered_beats_unbuffered_at_paper_scale() {
        // Table 1's 1.4 MB column, scaled shape check.
        let r = run_sizes(Platform::Paragon, 4, &[256]).unwrap();
        let [unbuf, manual, streams] = r[0].seconds;
        assert!(unbuf > manual, "unbuffered {unbuf} <= manual {manual}");
        assert!(unbuf > streams, "unbuffered {unbuf} <= streams {streams}");
        assert!(streams >= manual, "streams {streams} < manual {manual}");
        let pct = r[0].pct_of_manual();
        assert!(pct > 50.0 && pct <= 100.0, "pct {pct}");
    }
}
