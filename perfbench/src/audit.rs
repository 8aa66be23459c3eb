//! `trace_audit`: what `dsverify FILE` does to a captured trace. Set-up
//! runs a small `service_mix` with tracing on and serializes the trace;
//! each round parses it back and analyzes it. Only `trace` and `verify`
//! work here, so changes to `machine`, `pfs` or `core` must read as no
//! change on this workload.
//!
//! BENCHMARK.json does not list this workload: its round time follows the
//! host's cache contention more than the program (see README.md). The
//! traced `service_mix` run reports its layer metrics instead, through
//! [`add_layers`].
//!
//! The parser is quadratic in the length of the input today (it
//! re-validates the whole remaining input as UTF-8 for every string
//! character), so the trace is sized for rounds of a few hundred
//! milliseconds, and its shape is the same for every seed: the traffic
//! is fixed and the seed draws the tenant ids, which changes the trace's
//! contents but not its length. A seed-dependent length would swing the
//! round time quadratically from seed to seed.

use std::time::Instant;

use dstreams_serve::QosLevel;
use dstreams_trace::{EventKind, Trace, TraceSink};
use dstreams_verify::analyze;

use crate::common::{mix, ms, BoxError, Clock, Opts, Report};
use crate::service::{self, premium_p99_ns};
use crate::spans::{totals, SpanLog};
use crate::stats::Tally;

/// Sessions of the captured service run.
pub const SESSIONS: usize = 2;
/// Traffic seed of the captured run.
const TRAFFIC_SEED: u64 = 0xA0D1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The captured trace and what a correct audit must find in it.
struct Captured {
    json: String,
    trace: Trace,
    vtime_ns: u64,
    premium_p99_ns: u64,
}

/// Two-digit tenant ids drawn from `seed`, ascending by class so the
/// tenants keep their order.
fn tenant_ids(seed: u64) -> [u32; 3] {
    let r = mix(seed, 0);
    let pick = |shift: u32, base: u32| base + ((r >> shift) % 30) as u32;
    [pick(0, 10), pick(16, 40), pick(32, 70)]
}

fn capture(seed: u64) -> Result<Captured, BoxError> {
    let tenants = service::tenants(tenant_ids(seed));
    let arrivals = service::schedule(TRAFFIC_SEED, SESSIONS, &tenants);
    let sink = TraceSink::new(service::NPROCS);
    let out = service::run_once(&tenants, &arrivals, Some(sink.clone()), None)?;
    let mut tally = Tally::default();
    service::account(&out.report, arrivals.len(), &mut tally);
    if !tally.correct() {
        return Err(format!("captured service run failed: {:?}", tally.notes).into());
    }
    let trace = sink.take();
    Ok(Captured {
        json: trace.to_events_json(),
        vtime_ns: last_vtime(&trace),
        premium_p99_ns: premium_p99_ns(out.report.latencies_ns(QosLevel::Premium)),
        trace,
    })
}

/// Latest virtual time any rank reached in the trace.
fn last_vtime(trace: &Trace) -> u64 {
    trace.events.iter().map(|e| e.vtime_ns).max().unwrap_or(0)
}

/// Premium completion latencies recorded in the trace (rank 0's copy;
/// every rank records each request).
fn premium_latencies(trace: &Trace) -> Vec<u64> {
    trace
        .events
        .iter()
        .filter(|e| e.rank == 0)
        .filter_map(|e| match e.kind {
            EventKind::SessionDone {
                class: QosLevel::Premium,
                latency_ns,
                ..
            } => Some(latency_ns),
            _ => None,
        })
        .collect()
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut cap = None;
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        // Capture the trace and warm up with one audit of it.
        let c = capture(opts.seed).and_then(|c| {
            analyze(&Trace::from_events_json(&c.json)?);
            Ok(c)
        });
        rep.setup_s.push(t.elapsed().as_secs_f64());
        match c {
            Ok(c) => cap = Some(c),
            Err(e) => rep.error("set-up", e),
        }
    }
    let Some(cap) = cap else {
        return rep;
    };
    rep.round_bytes = cap.json.len() as u64;
    rep.round_events = cap.trace.len() as u64;

    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let origin = Instant::now();
    let untraced = SpanLog::new(origin, false);
    rounds(
        &mut rep,
        &cap,
        &Clock::for_seconds(seconds),
        &untraced,
        false,
    );
    if opts.trace {
        traced(&mut rep, &cap, &Clock::for_seconds(seconds), origin);
        rep.layers.insert("trace.events", cap.trace.len() as f64);
    }
    rep
}

/// Audits of the captured trace a `service_mix` traced run adds.
pub const SERVICE_AUDITS: usize = 5;

/// Capture the trace for `seed`, audit it `audits` times with spans on,
/// and fold the audits' checks, spans (as one more lane) and the `trace`
/// and `verify` layer metrics into `rep`, a traced run of another
/// workload.
pub fn add_layers(rep: &mut Report, seed: u64, audits: usize, origin: Instant) {
    let mut sub = Report::default();
    match capture(seed) {
        Ok(cap) => traced(&mut sub, &cap, &Clock::rounds(audits), origin),
        Err(e) => sub.error("audit set-up", e),
    }
    for name in [
        "trace.parse_ms",
        "verify.analyze_ms",
        "verify.hazards",
        "verify.forced_hb_edges",
    ] {
        if let Some(&v) = sub.layers.get(name) {
            rep.layers.insert(name, v);
        }
    }
    rep.tally.absorb(sub.tally);
    rep.spans.extend(sub.spans);
}

/// Traced audit rounds: their spans and the mean host ms per round of the
/// parse and of the analysis.
fn traced(rep: &mut Report, cap: &Captured, clock: &Clock, origin: Instant) {
    let log = SpanLog::new(origin, true);
    rounds(rep, cap, clock, &log, true);
    let spans = vec![log.into_spans()];
    let t = totals(&spans);
    let n = rep.traced_rounds_ms.len().max(1) as f64;
    let mean = |name: &str| t.get(name).map_or(0, |t| t.total_ns) as f64 / 1e6 / n;
    rep.layers.insert("trace.parse_ms", mean("trace.parse"));
    rep.layers
        .insert("verify.analyze_ms", mean("verify.analyze"));
    rep.spans = spans;
}

fn rounds(rep: &mut Report, cap: &Captured, clock: &Clock, log: &SpanLog, traced: bool) {
    let mut done = 0;
    while clock.more(done) {
        log.set_round(done as u32);
        let t0 = Instant::now();
        let audit = log.time("round", || {
            let parsed = log.time("trace.parse", || Trace::from_events_json(&cap.json))?;
            let report = log.time("verify.analyze", || analyze(&parsed));
            Ok::<_, BoxError>((parsed, report))
        });
        let host_ms = ms(t0.elapsed());
        done += 1;
        let (parsed, report) = match audit {
            Ok(a) => a,
            Err(e) => {
                rep.tally
                    .op(false, || format!("round {done}: parse failed: {e}"));
                continue;
            }
        };
        let vt = last_vtime(&parsed);
        rep.vtime.check("vtime_ns", vt, &mut rep.tally);
        let p99 = premium_p99_ns(premium_latencies(&parsed));
        rep.premium.check("premium_vlat_ns", p99, &mut rep.tally);
        let ok = parsed == cap.trace
            && vt == cap.vtime_ns
            && p99 == cap.premium_p99_ns
            && report.hazards.is_empty()
            && report.forced_hb_edges == 0;
        rep.tally.op(ok, || {
            format!(
                "round {done}: round trip {}, {} hazard(s), {} forced HB edge(s)",
                if parsed == cap.trace {
                    "exact"
                } else {
                    "lossy"
                },
                report.hazards.len(),
                report.forced_hb_edges
            )
        });
        if traced {
            rep.traced_rounds_ms.push(host_ms);
            rep.layers
                .insert("verify.hazards", report.hazards.len() as f64);
            rep.layers
                .insert("verify.forced_hb_edges", report.forced_hb_edges as f64);
        } else {
            rep.rounds_ms.push(host_ms);
            rep.ops += u64::from(ok);
        }
    }
}
