//! Compute/I-O overlap in the SCF skeleton: a checkpointing solver loop
//! whose record flushes hide behind the *next* iteration's compute.
//!
//! The paper's benchmark times a bare out+in pair; a real SCF run
//! interleaves solver steps with periodic checkpoints, and that is where
//! split-collective I/O pays off. [`run_checkpoint`] drives the same
//! solver + checkpoint loop two ways, chosen by [`OverlapSpec::depth`]:
//!
//! * **synchronous** (depth 0) — each iteration computes, then blocks in
//!   `OStream::write` until the record's collective flush completes;
//! * **pipelined** (depth ≥ 1) — `write_begin` submits the flush and the *next*
//!   iteration's compute (field reductions + the modeled particle
//!   update) elapses while the flush's deferred cost drains on each
//!   rank's async queue; `write_end` only charges whatever cost compute
//!   did not already cover.
//!
//! The two variants execute the same solver steps and write
//! byte-identical checkpoint files; only virtual time differs. With
//! compute per iteration ≈ flush cost, the pipelined loop approaches 2×.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_machine::{CollectiveConfig, Machine, VTime};
use dstreams_pfs::{Backend, Pfs};
use dstreams_pipeline::WriteWindow;
use dstreams_trace::{Trace, TraceSink};

use crate::driver::Platform;
use crate::physics::global_checksum;
use crate::segment::Segment;
use crate::solver::ScfSolver;
use crate::workload::ScfConfig;
use crate::ScfError;

/// One overlap experiment: a solver loop with per-iteration checkpoints.
#[derive(Debug, Clone, Copy)]
pub struct OverlapSpec {
    /// Platform preset (machine + disk model).
    pub platform: Platform,
    /// Processor count.
    pub nprocs: usize,
    /// Segments in the collection.
    pub n_segments: usize,
    /// Solver iterations, one checkpoint record each.
    pub iterations: usize,
    /// Modeled per-iteration particle-update cost charged to the virtual
    /// clock (the solver's host arithmetic is not, so the overlap window
    /// is explicit and calibratable).
    pub compute: VTime,
    /// Write-behind pool depth: flushes in flight per rank. 0 writes
    /// synchronously.
    pub depth: usize,
    /// Route the checkpoint collectives through this many aggregator
    /// ranks (stripe-aligned collective buffering); `None` keeps the
    /// direct one-operation-per-rank path.
    pub aggregators: Option<usize>,
}

impl OverlapSpec {
    /// A small default: Paragon, double-buffered write-behind.
    pub fn paragon(nprocs: usize, n_segments: usize, iterations: usize) -> Self {
        OverlapSpec {
            platform: Platform::Paragon,
            nprocs,
            n_segments,
            iterations,
            compute: VTime::ZERO,
            depth: 2,
            aggregators: None,
        }
    }
}

/// Run the checkpointing solver loop; returns simulated seconds of the
/// timed region (slowest rank, loop + drain). The checkpoint file is
/// validated by reading the final record back and comparing checksums.
pub fn run_checkpoint(spec: OverlapSpec) -> Result<f64, ScfError> {
    run_checkpoint_inner(spec, None)
}

/// [`run_checkpoint`] with tracing: additionally returns the merged
/// event trace, from which [`dstreams_trace::OpCounts`] yields the
/// per-run `overlap_efficiency`. Tracing never perturbs virtual time.
pub fn run_checkpoint_traced(spec: OverlapSpec) -> Result<(f64, Trace), ScfError> {
    let sink = TraceSink::new(spec.nprocs);
    let secs = run_checkpoint_inner(spec, Some(sink.clone()))?;
    Ok((secs, sink.take()))
}

fn run_checkpoint_inner(spec: OverlapSpec, trace: Option<TraceSink>) -> Result<f64, ScfError> {
    let pfs = Pfs::new(spec.nprocs, spec.platform.disk(), Backend::Memory);
    let mut config = spec.platform.machine(spec.nprocs);
    config.trace = trace;
    if let Some(aggregators) = spec.aggregators {
        config = config.with_collective(CollectiveConfig {
            aggregators,
            stripe_align: true,
        });
    }
    let times = Machine::run(config, |ctx| -> Result<VTime, ScfError> {
        let cfg = ScfConfig::paper(spec.n_segments);
        let layout = Layout::dense(cfg.n_segments, spec.nprocs, DistKind::Block)?;
        let mut grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g))?;
        let solver = ScfSolver::default();
        let dt = 0.01;

        ctx.barrier()?;
        let t0 = ctx.now();
        let mut s = dstreams_core::OStream::create(ctx, &pfs, &layout, "ckpt")?;
        let mut window = match spec.depth {
            0 => None,
            depth => Some(WriteWindow::new(depth)?),
        };
        for _ in 0..spec.iterations {
            solver.step(ctx, &mut grid, dt)?;
            ctx.advance(spec.compute);
            s.insert_collection(&grid)?;
            match window.as_mut() {
                // The flush rides behind the next iteration.
                Some(w) => {
                    w.make_room(|p| s.write_end(p))?;
                    let pending = s.write_begin()?;
                    w.push(pending);
                }
                None => s.write()?,
            }
        }
        if let Some(w) = window.as_mut() {
            w.drain(|p| s.write_end(p))?; // drain the pool
        }
        s.close()?;
        ctx.barrier()?;
        let elapsed = ctx.now() - t0;

        // Untimed validation: the final checkpoint record must hold the
        // final state of the simulation.
        let want = global_checksum(ctx, &grid)?;
        let mut back = Collection::new(ctx, layout.clone(), |_| Segment::default())?;
        let mut r = dstreams_core::IStream::open(ctx, &pfs, &layout, "ckpt")?;
        for _ in 1..spec.iterations {
            r.skip_record()?;
        }
        r.unsorted_read()?;
        r.extract_collection(&mut back)?;
        r.close()?;
        let got = global_checksum(ctx, &back)?;
        if (got - want).abs() > 1e-6 * want.abs().max(1.0) {
            return Err(ScfError::Validation(format!(
                "final checkpoint checksum {got} != live state {want}"
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

/// Calibrate [`OverlapSpec::compute`] so per-iteration compute roughly
/// matches the flush cost — the sweet spot where write-behind approaches
/// its 2× bound. Probes two short runs (synchronous, and pipelined at
/// `spec.depth`, with zero modeled compute): the pipelined probe's per-iteration time is
/// dominated by the flush, and the probes' difference estimates the
/// solver's collective cost, so `compute ≈ flush − solver`.
pub fn calibrate_compute(spec: OverlapSpec) -> Result<VTime, ScfError> {
    let probe_iters = spec.iterations.clamp(2, 4);
    let sync = run_checkpoint(OverlapSpec {
        depth: 0,
        compute: VTime::ZERO,
        iterations: probe_iters,
        ..spec
    })?;
    let pipe = run_checkpoint(OverlapSpec {
        compute: VTime::ZERO,
        iterations: probe_iters,
        ..spec
    })?;
    // Per iteration: sync ≈ solver + flush, pipelined ≈ max(solver,
    // flush) ≈ flush for I/O-bound checkpoints. compute = flush − solver
    // = 2·pipe − sync (clamped; fall back to the flush estimate if the
    // loop turned out compute-bound).
    let per_pipe = pipe / probe_iters as f64;
    let per_sync = sync / probe_iters as f64;
    let target = (2.0 * per_pipe - per_sync).max(per_pipe * 0.5);
    Ok(VTime::from_nanos((target * 1e9) as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_variants_validate_and_pipelining_never_loses() {
        let mut spec = OverlapSpec::paragon(2, 32, 4);
        spec.compute = VTime::from_millis(5);
        let sync = run_checkpoint(OverlapSpec { depth: 0, ..spec }).unwrap();
        let pipe = run_checkpoint(spec).unwrap();
        assert!(sync > 0.0 && pipe > 0.0);
        assert!(pipe <= sync, "pipelined {pipe} slower than sync {sync}");
    }

    #[test]
    fn calibrated_overlap_hits_the_speedup_bound() {
        let mut spec = OverlapSpec::paragon(2, 64, 8);
        spec.compute = calibrate_compute(spec).unwrap();
        let sync = run_checkpoint(OverlapSpec { depth: 0, ..spec }).unwrap();
        let pipe = run_checkpoint(spec).unwrap();
        let speedup = sync / pipe;
        assert!(
            speedup >= 1.5,
            "speedup {speedup} (sync {sync}, pipe {pipe})"
        );
    }

    #[test]
    fn aggregated_checkpoints_validate_with_fewer_pfs_ops() {
        let mut spec = OverlapSpec::paragon(4, 32, 3);
        spec.compute = VTime::from_millis(5);
        spec.depth = 0;
        let (_, direct) = run_checkpoint_traced(spec).unwrap();
        spec.aggregators = Some(1);
        let (_, agg) = run_checkpoint_traced(spec).unwrap();
        let d = direct.op_counts();
        let a = agg.op_counts();
        assert!(
            a.pfs_collective_ops < d.pfs_collective_ops,
            "aggregation must shrink the physical op count ({} vs {})",
            a.pfs_collective_ops,
            d.pfs_collective_ops
        );
        assert!(a.agg_shuttles > 0, "no shuttle traffic was recorded");
    }

    #[test]
    fn traced_run_reports_overlap_and_same_time() {
        let mut spec = OverlapSpec::paragon(2, 32, 4);
        spec.compute = VTime::from_millis(5);
        let plain = run_checkpoint(spec).unwrap();
        let (traced, trace) = run_checkpoint_traced(spec).unwrap();
        assert_eq!(plain.to_bits(), traced.to_bits());
        let counts = trace.op_counts();
        assert!(counts.async_ops > 0);
        let eff = counts.overlap_efficiency();
        assert!(eff > 0.0 && eff <= 1.0, "overlap efficiency {eff}");
    }
}
