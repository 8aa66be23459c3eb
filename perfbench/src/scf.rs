//! `scf_checkpoint`: the paper's SCF I/O skeleton on the Paragon preset.
//! Each round writes the particle collection through d/streams (parallel
//! metadata) and reads it back with `unsortedRead`, then does the same
//! with the hand-packed manual-buffering baseline. Large payloads and few
//! messages: `core` pack/unpack and `pfs` bulk copies dominate.

use std::time::Instant;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{IStream, MetaMode, MetaPolicy, OStream, StreamOptions};
use dstreams_machine::{Machine, NodeCtx};
use dstreams_pfs::{Backend, OpenMode, Pfs};
use dstreams_scf::physics::global_checksum;
use dstreams_scf::{Platform, ScfConfig, Segment};
use dstreams_trace::TraceSink;

use crate::common::{count_layers, ms, span_layers, BoxError, Clock, Opts, Report};
use crate::spans::{totals, Span, SpanLog};

/// Ranks of the timed machine.
pub const NPROCS: usize = 4;
/// Segments in the collection: 2000 x 100 particles is ~10.7 MB, past
/// the Paragon cache knee.
pub const SEGMENTS: usize = 2000;
/// Particles per segment.
pub const PARTICLES: usize = 100;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

const STREAMS_FILE: &str = "scf.streams";
const MANUAL_FILE: &str = "scf.manual";

struct RoundRec {
    host_ms: f64,
    vtime_ns: u64,
    streams_ok: bool,
    manual_ok: bool,
}

struct RankOut {
    setup_s: Vec<f64>,
    rounds: Vec<RoundRec>,
    spans: Vec<Span>,
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let cfg = ScfConfig {
        n_segments: SEGMENTS,
        particles_per_segment: PARTICLES,
        jitter: 0,
        seed: opts.seed,
    };
    let mut rep = Report {
        // Streams out + in, manual out + in.
        round_bytes: 4 * cfg.dataset_bytes() as u64,
        ..Report::default()
    };
    let (setups, seconds) = if opts.trace {
        (1, opts.seconds / 2.0)
    } else {
        (SETUPS, opts.seconds)
    };
    match session(cfg, setups, &Clock::for_seconds(seconds), None, false) {
        Ok(outs) => absorb(&mut rep, &outs, false),
        Err(e) => rep.error("untraced session", e),
    }
    // Traced: the per-layer run. Untraced: one traced round pins virtual
    // time against the untraced rounds and counts the events per round.
    let sink = TraceSink::new(NPROCS);
    let clock = if opts.trace {
        Clock::for_seconds(seconds)
    } else {
        Clock::rounds(1)
    };
    match session(cfg, 1, &clock, Some(sink.clone()), opts.trace) {
        Ok(outs) => {
            absorb(&mut rep, &outs, true);
            let trace = sink.take();
            let rounds = outs[0].rounds.len();
            rep.round_events = trace.len() as u64 / rounds.max(1) as u64;
            if opts.trace {
                count_layers(&mut rep.layers, &trace, rounds);
                rep.spans = outs.into_iter().map(|o| o.spans).collect();
                layers(&mut rep, rounds);
            }
        }
        Err(e) => rep.error("traced session", e),
    }
    rep
}

fn layers(rep: &mut Report, rounds: usize) {
    span_layers(
        &mut rep.layers,
        &rep.spans,
        rounds,
        &[
            ("core.open", "core.open_ms"),
            ("core.insert", "core.insert_ms"),
            ("core.write", "core.write_ms"),
            ("core.read", "core.read_ms"),
            ("core.extract", "core.extract_ms"),
            ("core.close", "core.close_ms"),
            ("pfs.write_ordered", "pfs.write_ordered_ms"),
            ("pfs.read_ordered", "pfs.read_ordered_ms"),
            ("machine.barrier", "machine.barrier_wait_ms"),
        ],
    );
    let t = totals(&rep.spans);
    let total = |name: &str| t.get(name).map_or(0, |t| t.total_ns) as f64;
    if total("scf.manual") > 0.0 {
        rep.layers.insert(
            "core.overhead_ratio",
            total("scf.streams") / total("scf.manual"),
        );
    }
    if let Some(b) = t.get("collections.build") {
        rep.layers.insert(
            "collections.build_ms",
            b.total_ns as f64 / 1e6 / b.count as f64,
        );
    }
}

/// Fold one session's per-rank records into the report.
fn absorb(rep: &mut Report, outs: &[RankOut], traced: bool) {
    let root = &outs[0];
    if !traced {
        rep.setup_s.extend(&root.setup_s);
    }
    for (k, r) in root.rounds.iter().enumerate() {
        let vt = outs
            .iter()
            .filter_map(|o| o.rounds.get(k))
            .map(|r| r.vtime_ns)
            .max()
            .unwrap_or(0);
        rep.vtime.check("vtime_ns", vt, &mut rep.tally);
        // One class, one request per round: its latency is the round's.
        rep.premium.check("premium_vlat_ns", vt, &mut rep.tally);
        rep.tally.op(r.streams_ok, || {
            format!("round {k}: streams checksum mismatch")
        });
        rep.tally.op(r.manual_ok, || {
            format!("round {k}: manual checksum mismatch")
        });
        if traced {
            rep.traced_rounds_ms.push(r.host_ms);
        } else {
            rep.rounds_ms.push(r.host_ms);
            rep.ops += u64::from(r.streams_ok) + u64::from(r.manual_ok);
        }
    }
}

fn session(
    cfg: ScfConfig,
    setups: usize,
    clock: &Clock,
    sink: Option<TraceSink>,
    spans: bool,
) -> Result<Vec<RankOut>, BoxError> {
    let pfs = Pfs::new(NPROCS, Platform::Paragon.disk(), Backend::Memory);
    let mut config = Platform::Paragon.machine(NPROCS);
    config.trace = sink;
    let origin = Instant::now();
    Machine::run(config, |ctx| {
        rank_main(ctx, &pfs, cfg, setups, clock, SpanLog::new(origin, spans))
    })?
    .into_iter()
    .collect()
}

/// The written collection, its checksum, and the two collections the
/// streams and manual paths read back into.
struct Data {
    grid: Collection<Segment>,
    want: f64,
    back_s: Collection<Segment>,
    back_m: Collection<Segment>,
}

fn rank_main(
    ctx: &NodeCtx,
    pfs: &Pfs,
    cfg: ScfConfig,
    setups: usize,
    clock: &Clock,
    log: SpanLog,
) -> Result<RankOut, BoxError> {
    let layout = Layout::dense(cfg.n_segments, NPROCS, DistKind::Block)?;
    // Untraced sessions finish each set-up with one warm-up round; traced
    // sessions keep every round they run in the trace.
    let warm = !ctx.tracing();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups {
        ctx.barrier()?;
        let t = Instant::now();
        let grid = log.time("collections.build", || {
            Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g))
        })?;
        let mut d = Data {
            want: global_checksum(ctx, &grid)?,
            grid,
            back_s: Collection::new(ctx, layout.clone(), |_| Segment::default())?,
            back_m: Collection::new(ctx, layout.clone(), |_| Segment::default())?,
        };
        if warm {
            round(ctx, pfs, &mut d, &log)?;
        }
        ctx.barrier()?;
        setup_s.push(t.elapsed().as_secs_f64());
        built = Some(d);
    }
    let mut d = built.ok_or("no set-up ran")?;

    let mut rounds = Vec::new();
    while clock.next(ctx, rounds.len())? {
        log.set_round(rounds.len() as u32);
        rounds.push(round(ctx, pfs, &mut d, &log)?);
    }
    Ok(RankOut {
        setup_s,
        rounds,
        spans: log.into_spans(),
    })
}

/// One round: the timed streams and manual round trips, then the
/// untimed output checks and clean-up.
fn round(ctx: &NodeCtx, pfs: &Pfs, d: &mut Data, log: &SpanLog) -> Result<RoundRec, BoxError> {
    d.back_s.apply(|s| *s = Segment::default());
    d.back_m.apply(|s| *s = Segment::default());
    ctx.barrier()?;
    let t0 = Instant::now();
    let v0 = ctx.now();
    log.time("round", || -> Result<(), BoxError> {
        log.time("scf.streams", || {
            streams(ctx, pfs, &d.grid, &mut d.back_s, log)
        })?;
        log.time("scf.manual", || {
            manual(ctx, pfs, &d.grid, &mut d.back_m, log)
        })?;
        log.time("machine.barrier", || ctx.barrier())?;
        Ok(())
    })?;
    let host_ms = ms(t0.elapsed());
    let vtime_ns = (ctx.now() - v0).as_nanos();

    let close = |got: f64| (got - d.want).abs() <= 1e-6 * d.want.abs().max(1.0);
    let streams_ok = close(global_checksum(ctx, &d.back_s)?);
    let manual_ok = close(global_checksum(ctx, &d.back_m)?);
    if ctx.is_root() {
        pfs.remove(STREAMS_FILE)?;
        pfs.remove(MANUAL_FILE)?;
    }
    Ok(RoundRec {
        host_ms,
        vtime_ns,
        streams_ok,
        manual_ok,
    })
}

/// `s << g; s.write();` then `unsortedRead` and `s >> g`, with the
/// paper's measured metadata mode.
fn streams(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &Collection<Segment>,
    back: &mut Collection<Segment>,
    log: &SpanLog,
) -> Result<(), BoxError> {
    let opts = StreamOptions {
        checked: false,
        meta_policy: MetaPolicy::Force(MetaMode::Parallel),
        ..Default::default()
    };
    let mut s = log.time("core.open", || {
        OStream::create_with(ctx, pfs, grid.layout(), STREAMS_FILE, opts)
    })?;
    log.time("core.insert", || s.insert_collection(grid))?;
    log.time("core.write", || s.write())?;
    log.time("core.close", || s.close())?;
    let mut r = log.time("core.open", || {
        IStream::open(ctx, pfs, back.layout(), STREAMS_FILE)
    })?;
    log.time("core.read", || r.unsorted_read())?;
    log.time("core.extract", || r.extract_collection(back))?;
    log.time("core.close", || r.close())?;
    Ok(())
}

/// The manual-buffering baseline: pack every local segment into one
/// buffer, one collective write, one collective read at computed offsets.
fn manual(
    ctx: &NodeCtx,
    pfs: &Pfs,
    grid: &Collection<Segment>,
    back: &mut Collection<Segment>,
    log: &SpanLog,
) -> Result<(), BoxError> {
    let buf = log.time("scf.manual_pack", || {
        let mut buf = Vec::with_capacity(grid.iter().map(|(_, s)| s.serialized_len()).sum());
        for (_, s) in grid.iter() {
            buf.extend_from_slice(&s.n_particles.to_le_bytes());
            for arr in s.arrays() {
                for v in arr {
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
        }
        buf
    });
    ctx.charge_memcpy(buf.len());
    let fh = pfs.open(ctx.is_root(), MANUAL_FILE, OpenMode::Create)?;
    log.time("pfs.write_ordered", || fh.write_ordered(ctx, &buf))?;

    let seg_bytes = Segment::serialized_len_for(PARTICLES);
    let layout = back.layout();
    let before: usize = (0..ctx.rank()).map(|r| layout.local_count(r)).sum();
    let len = layout.local_count(ctx.rank()) * seg_bytes;
    let fh = pfs.open(false, MANUAL_FILE, OpenMode::Read)?;
    let raw = log.time("pfs.read_ordered", || {
        fh.read_ordered(ctx, (before * seg_bytes) as u64, len)
    })?;
    ctx.charge_memcpy(raw.len());
    log.time("scf.manual_unpack", || unpack(&raw, back))
}

fn unpack(raw: &[u8], back: &mut Collection<Segment>) -> Result<(), BoxError> {
    let mut words = raw
        .chunks_exact(8)
        .map(|c| c.try_into().map(u64::from_le_bytes));
    let mut next = || -> Result<u64, BoxError> { Ok(words.next().ok_or("short read")??) };
    for s in back.local_mut() {
        let n = next()? as usize;
        if n != PARTICLES {
            return Err(format!("segment holds {n} particles, expected {PARTICLES}").into());
        }
        *s = Segment::zeroed(n);
        for arr in s.arrays_mut() {
            for v in arr.iter_mut() {
                *v = f64::from_bits(next()?);
            }
        }
    }
    Ok(())
}
