//! `cross_shape_restart`: a checkpoint written by 16 ranks under
//! BLOCK-CYCLIC(3) is re-read every round by 4 ranks under BLOCK through
//! the planned two-phase read. A small file with many small transfers:
//! `redist` plan/exec and `machine` point-to-point and collectives
//! dominate, while `pfs` bytes and `core` packing stay small.

use std::time::Instant;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{IStream, OStream};
use dstreams_machine::{Machine, MachineConfig, NodeCtx};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_redist::RedistPlan;
use dstreams_trace::TraceSink;

use crate::common::{count_layers, mix, ms, span_layers, BoxError, Clock, Opts, Report};
use crate::spans::{Span, SpanLog};

/// Ranks that write the checkpoint (set-up only).
pub const WRITERS: usize = 16;
/// Ranks that re-read it every round.
pub const READERS: usize = 4;
/// Elements in the checkpoint, 8 bytes each.
pub const ELEMENTS: usize = 65_536;
const WRITER_KIND: DistKind = DistKind::BlockCyclic(3);
const READER_KIND: DistKind = DistKind::Block;
const ELEMENT_BYTES: u64 = 8;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
const FILE: &str = "restart";

/// The plan the readers compute: file order is writer-rank-major.
fn plan() -> Result<RedistPlan, BoxError> {
    let wlayout = Layout::dense(ELEMENTS, WRITERS, WRITER_KIND)?;
    let rlayout = Layout::dense(ELEMENTS, READERS, READER_KIND)?;
    let mut dst_owner = Vec::with_capacity(ELEMENTS);
    for r in 0..WRITERS {
        for gid in wlayout.local_elements(r) {
            dst_owner.push(rlayout.owner(gid)?);
        }
    }
    let sizes = vec![ELEMENT_BYTES; ELEMENTS];
    Ok(RedistPlan::new(READERS, &sizes, &dst_owner))
}

/// Write the checkpoint on a fresh 16-rank machine.
fn setup(seed: u64) -> Result<Pfs, BoxError> {
    let pfs = Pfs::new(WRITERS, DiskModel::paragon_pfs(), Backend::Memory);
    Machine::run(
        MachineConfig::paragon(WRITERS),
        |ctx| -> Result<(), BoxError> {
            let layout = Layout::dense(ELEMENTS, WRITERS, WRITER_KIND)?;
            let g = Collection::new(ctx, layout.clone(), |i| mix(seed, i as u64))?;
            let mut s = OStream::create(ctx, &pfs, &layout, FILE)?;
            s.insert_collection(&g)?;
            s.write()?;
            s.close()?;
            Ok(())
        },
    )?
    .into_iter()
    .collect::<Result<Vec<()>, _>>()?;
    Ok(pfs)
}

struct RoundRec {
    host_ms: f64,
    vtime_ns: u64,
    exact: bool,
}

struct RankOut {
    rounds: Vec<RoundRec>,
    spans: Vec<Span>,
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report {
        round_bytes: ELEMENTS as u64 * ELEMENT_BYTES,
        ..Report::default()
    };
    let mut pfs = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        // Write the checkpoint, plan its lower bound, and warm up with one
        // restart read.
        let built = setup(opts.seed).and_then(|p| {
            session(&p, opts.seed, &Clock::rounds(1), None, false)?;
            Ok((p, plan()?.lower_bound()))
        });
        rep.setup_s.push(t.elapsed().as_secs_f64());
        match built {
            Ok(b) => pfs = Some(b),
            Err(e) => rep.error("set-up", e),
        }
    }
    let Some((pfs, lower_bound)) = pfs else {
        return rep;
    };
    if lower_bound == 0 {
        rep.error("set-up", "the shape needs no redistribution");
    }

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    match session(&pfs, opts.seed, &Clock::for_seconds(seconds), None, false) {
        Ok(outs) => absorb(&mut rep, &outs, false),
        Err(e) => rep.error("untraced session", e),
    }
    let sink = TraceSink::new(READERS);
    let clock = if opts.trace {
        Clock::for_seconds(seconds)
    } else {
        Clock::rounds(1)
    };
    match session(&pfs, opts.seed, &clock, Some(sink.clone()), opts.trace) {
        Ok(outs) => {
            absorb(&mut rep, &outs, true);
            let trace = sink.take();
            let rounds = outs[0].rounds.len().max(1);
            rep.round_events = trace.len() as u64 / rounds as u64;
            let moved = trace.op_counts().redist_shuttle_bytes;
            if moved != lower_bound * rounds as u64 {
                rep.tally.violation(format!(
                    "{rounds} round(s) shuttled {moved} B, plan lower bound is {lower_bound} B per round"
                ));
            }
            if opts.trace {
                count_layers(&mut rep.layers, &trace, rounds);
                rep.layers.insert(
                    "redist.bytes_over_bound",
                    moved as f64 / (lower_bound * rounds as u64) as f64,
                );
                rep.spans = outs.into_iter().map(|o| o.spans).collect();
                span_layers(
                    &mut rep.layers,
                    &rep.spans,
                    rounds,
                    &[
                        ("core.open", "core.open_ms"),
                        ("core.read", "core.read_ms"),
                        ("core.extract", "core.extract_ms"),
                        ("core.close", "core.close_ms"),
                        ("machine.barrier", "machine.barrier_wait_ms"),
                    ],
                );
                // The plan is timed once per round on rank 0 only.
                let t = crate::spans::totals(&rep.spans);
                if let Some(p) = t.get("redist.plan") {
                    rep.layers
                        .insert("redist.plan_ms", p.total_ns as f64 / 1e6 / p.count as f64);
                }
            }
        }
        Err(e) => rep.error("traced session", e),
    }
    rep
}

fn absorb(rep: &mut Report, outs: &[RankOut], traced: bool) {
    for (k, r) in outs[0].rounds.iter().enumerate() {
        let vt = outs
            .iter()
            .filter_map(|o| o.rounds.get(k))
            .map(|r| r.vtime_ns)
            .max()
            .unwrap_or(0);
        rep.vtime.check("vtime_ns", vt, &mut rep.tally);
        rep.premium.check("premium_vlat_ns", vt, &mut rep.tally);
        rep.tally.op(r.exact, || {
            format!("round {k}: restart read not element-exact")
        });
        if traced {
            rep.traced_rounds_ms.push(r.host_ms);
        } else {
            rep.rounds_ms.push(r.host_ms);
            rep.ops += u64::from(r.exact);
        }
    }
}

fn session(
    pfs: &Pfs,
    seed: u64,
    clock: &Clock,
    sink: Option<TraceSink>,
    spans: bool,
) -> Result<Vec<RankOut>, BoxError> {
    let mut config = MachineConfig::paragon(READERS);
    config.trace = sink;
    let origin = Instant::now();
    Machine::run(config, |ctx| {
        rank_main(ctx, pfs, seed, clock, SpanLog::new(origin, spans))
    })?
    .into_iter()
    .collect()
}

fn rank_main(
    ctx: &NodeCtx,
    pfs: &Pfs,
    seed: u64,
    clock: &Clock,
    log: SpanLog,
) -> Result<RankOut, BoxError> {
    let layout = Layout::dense(ELEMENTS, READERS, READER_KIND)?;
    let mut g = Collection::new(ctx, layout.clone(), |_| 0u64)?;
    let mut rounds = Vec::new();
    while clock.next(ctx, rounds.len())? {
        g.apply(|v| *v = 0);
        ctx.barrier()?;
        log.set_round(rounds.len() as u32);
        let t0 = Instant::now();
        let v0 = ctx.now();
        log.time("round", || -> Result<(), BoxError> {
            let mut s = log.time("core.open", || IStream::open(ctx, pfs, &layout, FILE))?;
            log.time("core.read", || s.read())?;
            log.time("core.extract", || s.extract_collection(&mut g))?;
            log.time("core.close", || s.close())?;
            log.time("machine.barrier", || ctx.barrier())?;
            Ok(())
        })?;
        let host_ms = ms(t0.elapsed());
        let vtime_ns = (ctx.now() - v0).as_nanos();

        let wrong = g
            .iter()
            .filter(|&(gid, v)| *v != mix(seed, gid as u64))
            .count() as u64;
        let wrong = ctx.all_reduce(wrong, |a, b| a + b)?;
        if ctx.is_root() && log.enabled() {
            // Re-run the readers' planner on the round's inputs: the
            // library plans inside `read`, out of reach of an outer span.
            log.time("redist.plan", plan)?;
        }
        rounds.push(RoundRec {
            host_ms,
            vtime_ns,
            exact: wrong == 0,
        });
    }
    Ok(RankOut {
        rounds,
        spans: log.into_spans(),
    })
}
