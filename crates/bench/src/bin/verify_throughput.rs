//! Throughput smoke for the `dsverify` analyzer: the happens-before
//! engine (vector clocks, interval race detection, HB coherence) plus
//! the ten protocol rules must stay effectively linear in trace length.
//!
//! The guard generates a service-style trace in-process (the same
//! multi-tenant workload the service bench traces for CI), times
//! [`dstreams_verify::analyze`] over the full trace and over its first
//! half, and enforces two claims:
//!
//! * **anti-quadratic** — analyzing the full trace may cost at most
//!   [`QUADRATIC_CEILING`] times the half-trace analysis. A linear
//!   engine doubles (~2x); a quadratic one quadruples (~4x). The
//!   ceiling sits between, with slack for timer noise.
//! * **throughput floor** — the full analysis must sustain at least
//!   [`FLOOR_EVENTS_PER_SEC`] events/second. The floor is deliberately
//!   lenient (release builds sustain far more); it exists to catch an
//!   accidental order-of-magnitude regression, not to benchmark.
//!
//! Usage:
//!   verify_throughput [--smoke] [--out PATH]
//!
//! Writes machine-readable results (default `BENCH_dsverify.json`) and
//! exits nonzero if a claim is violated or the service shed or aborted
//! any request while generating the trace.

use std::io::Write as _;
use std::time::Instant;

use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_serve::{
    generate, run_service, OpMix, QosLevel, ServiceConfig, ServiceReport, TenantProfile,
    TrafficSpec,
};
use dstreams_trace::json::Value;
use dstreams_trace::{Trace, TraceSink};
use dstreams_verify::analyze;

/// Seed for the workload schedule; the trace is deterministic.
const SEED: u64 = 0xD5_7EAD;

/// Full-trace analysis may cost at most this multiple of the
/// half-trace analysis (linear ~2x, quadratic ~4x).
const QUADRATIC_CEILING: f64 = 3.0;

/// Minimum sustained full-trace analysis rate, events per second.
const FLOOR_EVENTS_PER_SEC: f64 = 50_000.0;

/// Timing repetitions; the best (least-interfered) run is kept.
const REPS: usize = 3;

/// Mean virtual gap between session starts. A saturated service sheds
/// most sessions at once, which made the full run analyze fewer events
/// than the smoke run. With 2 ms between a session's operations, a
/// 300 ms gap still sheds 286 of the full run's 3,200 requests and
/// 500 ms sheds none; this sits at twice that.
const SESSION_GAP_NS: u64 = 1_000_000_000;

/// Generate the service-style trace the analyzer is timed against, and
/// rank 0's service report. Nothing is shed, so the full trace (640
/// sessions) holds about four times the events of the smoke trace (160).
fn service_trace(smoke: bool) -> (Trace, ServiceReport) {
    let nprocs = 4;
    let sessions = if smoke { 160 } else { 640 };
    let tenants: Vec<TenantProfile> = [
        (1, QosLevel::Premium),
        (2, QosLevel::Standard),
        (3, QosLevel::BestEffort),
    ]
    .into_iter()
    .map(|(tenant, class)| TenantProfile {
        tenant,
        class,
        elements: 8,
    })
    .collect();
    let arrivals = generate(
        &TrafficSpec {
            seed: SEED,
            sessions,
            ops_per_session: 4,
            mean_session_gap_ns: SESSION_GAP_NS,
            mean_interarrival_ns: 2_000_000,
            zipf_s: 0.6,
            mix: OpMix::read_mostly(),
        },
        &tenants,
    );
    let pfs = Pfs::new(nprocs, DiskModel::paragon_pfs(), Backend::Memory);
    let cfg = ServiceConfig::for_model(pfs.model());
    let sink = TraceSink::new(nprocs);
    let config = MachineConfig::paragon(nprocs).traced(sink.clone());
    let p = pfs.clone();
    let mut reports = Machine::run(config, move |ctx| {
        run_service(ctx, &p, &cfg, &tenants, &arrivals).expect("service loop")
    })
    .expect("service run");
    (sink.take(), reports.swap_remove(0))
}

/// The first `n` events of a trace, as a standalone trace. Orphaned
/// receives and partial collective rounds at the cut are legal inputs
/// to the analyzer; only the wall-clock cost matters here.
fn prefix(trace: &Trace, n: usize) -> Trace {
    Trace {
        nprocs: trace.nprocs,
        events: trace.events[..n].to_vec(),
    }
}

/// Best-of-[`REPS`] wall-clock seconds to analyze `trace`.
fn time_analyze(trace: &Trace) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        let report = analyze(trace);
        let dt = start.elapsed().as_secs_f64();
        // Keep the report observable so the work cannot be elided.
        assert!(report.hazards.len() < usize::MAX);
        best = best.min(dt);
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_dsverify.json".to_string());

    let (trace, report) = service_trace(smoke);
    let total = trace.events.len();
    let half = prefix(&trace, total / 2);

    let t_half = time_analyze(&half);
    let t_full = time_analyze(&trace);
    let ratio = t_full / t_half.max(1e-9);
    let events_per_sec = total as f64 / t_full.max(1e-9);

    println!(
        "service workload: {} requests served, {} shed, {} failed, {} aborted",
        report.served, report.shed, report.failed, report.aborted
    );
    println!(
        "dsverify throughput: {total} events analyzed in {:.1} ms \
         ({:.0}k events/s); half-trace {:.1} ms -> full/half x{ratio:.2}",
        t_full * 1e3,
        events_per_sec / 1e3,
        t_half * 1e3,
    );

    let mut violations = Vec::new();
    if report.shed + report.aborted > 0 {
        violations.push(format!(
            "the workload shed {} and aborted {} requests — the trace comes from a \
             saturated or failing service, not the calibrated load",
            report.shed, report.aborted
        ));
    }
    if total < 1_000 {
        violations.push(format!(
            "workload produced only {total} events — the timing is vacuous"
        ));
    }
    if ratio > QUADRATIC_CEILING {
        violations.push(format!(
            "full/half analysis cost x{ratio:.2} exceeds the x{QUADRATIC_CEILING} \
             anti-quadratic ceiling — the HB engine is superlinear"
        ));
    }
    if events_per_sec < FLOOR_EVENTS_PER_SEC {
        violations.push(format!(
            "analysis sustained {events_per_sec:.0} events/s, below the \
             {FLOOR_EVENTS_PER_SEC:.0} floor"
        ));
    }

    let json = Value::Obj(vec![
        ("bench".into(), Value::Str("dsverify_throughput".into())),
        (
            "mode".into(),
            Value::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("events".into(), Value::Int(total as i64)),
        ("nprocs".into(), Value::Int(trace.nprocs as i64)),
        ("full_ms".into(), Value::Num(t_full * 1e3)),
        ("half_ms".into(), Value::Num(t_half * 1e3)),
        ("full_over_half".into(), Value::Num(ratio)),
        ("events_per_sec".into(), Value::Num(events_per_sec)),
        ("quadratic_ceiling".into(), Value::Num(QUADRATIC_CEILING)),
        (
            "floor_events_per_sec".into(),
            Value::Num(FLOOR_EVENTS_PER_SEC),
        ),
    ])
    .to_json_pretty();
    let mut f = std::fs::File::create(&out_path).expect("create json output");
    f.write_all(json.as_bytes()).expect("write json output");
    f.write_all(b"\n").expect("write json output");
    eprintln!("wrote {out_path}");

    if violations.is_empty() {
        println!(
            "dsverify throughput claims hold: sub-quadratic scaling and >= \
             {FLOOR_EVENTS_PER_SEC:.0} events/s"
        );
    } else {
        for v in &violations {
            println!("VIOLATED: {v}");
        }
        std::process::exit(1);
    }
}
