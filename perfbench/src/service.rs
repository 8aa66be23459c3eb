//! `service_mix`: the multi-tenant stream service with three tenants
//! (premium, standard, best-effort) on 4 ranks, fed Zipf read-mostly
//! traffic. Thousands of tiny requests: the `serve` scheduler and cache
//! dominate, every decision is a `sync_clocks` collective, and there are
//! no large copies.

use std::collections::BTreeSet;
use std::time::Instant;

use dstreams_bench::percentile::Percentiles;
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_serve::{
    generate, run_service, Arrival, Disposition, OpMix, QosLevel, ServeOp, ServiceConfig,
    ServiceReport, TenantProfile, TrafficSpec,
};
use dstreams_trace::{Trace, TraceSink};

use crate::audit;
use crate::common::{count_layers, ms, BoxError, Clock, Opts, Report};
use crate::spans::{totals, Span, SpanLog};
use crate::stats::Tally;

/// Ranks of the service machine.
pub const NPROCS: usize = 4;
/// Sessions per round; each opens and then issues [`OPS_PER_SESSION`].
pub const SESSIONS: usize = 512;
/// Tenant ids of the premium, standard and best-effort tenants.
pub const TENANTS: [u32; 3] = [1, 2, 3];
/// Operations per session after its `Open`.
pub const OPS_PER_SESSION: usize = 4;
/// Mean virtual gap between session starts. With [`INTERARRIVAL_NS`] it
/// keeps the parent from shedding on any seed (see the README), so
/// shedding shows up as failed operations instead of hiding in a
/// saturated baseline.
pub const SESSION_GAP_NS: u64 = 2_000_000_000;
/// Mean virtual gap between a session's operations: longer than most
/// operations take, so a session's requests rarely queue behind each
/// other and the premium p99 is stable across seeds.
pub const INTERARRIVAL_NS: u64 = 500_000_000;
/// Elements in each tenant's collection (8 bytes each).
pub const ELEMENTS: usize = 16;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Three tenants with the given ids: premium, standard, best-effort.
pub fn tenants(ids: [u32; 3]) -> Vec<TenantProfile> {
    ids.into_iter()
        .zip([QosLevel::Premium, QosLevel::Standard, QosLevel::BestEffort])
        .map(|(tenant, class)| TenantProfile {
            tenant,
            class,
            elements: ELEMENTS,
        })
        .collect()
}

/// The arrival schedule of `sessions` sessions for `seed`.
pub fn schedule(seed: u64, sessions: usize, tenants: &[TenantProfile]) -> Vec<Arrival> {
    generate(
        &TrafficSpec {
            seed,
            sessions,
            ops_per_session: OPS_PER_SESSION,
            mean_session_gap_ns: SESSION_GAP_NS,
            mean_interarrival_ns: INTERARRIVAL_NS,
            zipf_s: 0.6,
            mix: OpMix::read_mostly(),
        },
        tenants,
    )
}

/// One service run on a fresh machine and PFS.
pub struct RunOut {
    /// Rank 0's report (identical on every rank but for cache internals).
    pub report: ServiceReport,
    /// Virtual ns at the end of the run, slowest rank.
    pub vtime_ns: u64,
    /// Each rank's spans.
    pub spans: Vec<Vec<Span>>,
}

/// Run the service once over `arrivals`.
pub fn run_once(
    tenants: &[TenantProfile],
    arrivals: &[Arrival],
    sink: Option<TraceSink>,
    log_origin: Option<Instant>,
) -> Result<RunOut, BoxError> {
    let pfs = Pfs::new(NPROCS, DiskModel::paragon_pfs(), Backend::Memory);
    let cfg = ServiceConfig::for_model(pfs.model());
    let mut config = MachineConfig::paragon(NPROCS);
    config.trace = sink;
    let outs = Machine::run(config, |ctx| {
        let log = SpanLog::new(
            log_origin.unwrap_or_else(Instant::now),
            log_origin.is_some(),
        );
        let report = log.time("serve.run_service", || {
            run_service(ctx, &pfs, &cfg, tenants, arrivals)
        });
        (report, ctx.now().as_nanos(), log.into_spans())
    })?;
    let vtime_ns = outs.iter().map(|o| o.1).max().unwrap_or(0);
    let mut reports = Vec::new();
    let mut spans = Vec::new();
    for (r, _, s) in outs {
        reports.push(r?);
        spans.push(s);
    }
    Ok(RunOut {
        report: reports.swap_remove(0),
        vtime_ns,
        spans,
    })
}

/// Virtual p99 completion latency of the premium class, ns.
pub fn premium_p99_ns(latencies: Vec<u64>) -> u64 {
    let mut p = Percentiles::new();
    p.extend(latencies);
    p.p99().unwrap_or(0)
}

/// Count every request of a run: shed, aborted and wrong-output requests
/// fail. A read or recover that finds nothing before its tenant's first
/// sealed write is the expected answer, not a failure. Returns the
/// requests that succeeded.
pub fn account(report: &ServiceReport, arrivals: usize, tally: &mut Tally) -> u64 {
    if report.outcomes.len() != arrivals {
        tally.violation(format!(
            "{} outcomes for {arrivals} arrivals",
            report.outcomes.len()
        ));
    }
    let mut sealed = BTreeSet::new();
    let mut ok_count = 0;
    for o in &report.outcomes {
        let ok = match o.disposition {
            Disposition::Shed(_) | Disposition::Aborted => false,
            Disposition::Done { ok: true, .. } => {
                if o.op == ServeOp::Write {
                    sealed.insert(o.tenant);
                }
                true
            }
            Disposition::Done { ok: false, .. } => {
                matches!(o.op, ServeOp::Read | ServeOp::Recover) && !sealed.contains(&o.tenant)
            }
        };
        ok_count += u64::from(ok);
        tally.op(ok, || {
            format!(
                "request {} ({:?} by tenant {}): {:?}",
                o.request_id, o.op, o.tenant, o.disposition
            )
        });
    }
    ok_count
}

/// Run the workload.
pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let tenants = tenants(TENANTS);
    let mut arrivals = Vec::new();
    for _ in 0..if opts.trace { 1 } else { SETUPS } {
        let t = Instant::now();
        // Generate the schedule and warm up with one run of it.
        arrivals = schedule(opts.seed, SESSIONS, &tenants);
        let warm = run_once(&tenants, &arrivals, None, None);
        rep.setup_s.push(t.elapsed().as_secs_f64());
        if let Err(e) = warm {
            rep.error("warm-up run", e);
            return rep;
        }
    }
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };

    let clock = Clock::for_seconds(seconds);
    while clock.more(rep.rounds_ms.len()) {
        let t0 = Instant::now();
        let out = run_once(&tenants, &arrivals, None, None);
        let host_ms = ms(t0.elapsed());
        match out {
            Ok(out) => {
                rep.rounds_ms.push(host_ms);
                rep.ops += check(&mut rep, &out, arrivals.len());
            }
            Err(e) => {
                rep.error("service run", e);
                return rep;
            }
        }
    }

    // Traced rounds: every round of one seed is the same run, so one
    // round's trace gives the per-round counts.
    let clock = if opts.trace {
        Clock::for_seconds(seconds)
    } else {
        Clock::rounds(1)
    };
    let mut last: Option<(Trace, RunOut)> = None;
    let mut spans: Vec<Vec<Span>> = Vec::new();
    let origin = Instant::now();
    while clock.more(rep.traced_rounds_ms.len()) {
        let sink = TraceSink::new(NPROCS);
        let t0 = Instant::now();
        let out = run_once(
            &tenants,
            &arrivals,
            Some(sink.clone()),
            opts.trace.then_some(origin),
        );
        let host_ms = ms(t0.elapsed());
        match out {
            Ok(mut out) => {
                rep.traced_rounds_ms.push(host_ms);
                check(&mut rep, &out, arrivals.len());
                let round = rep.traced_rounds_ms.len() as u32 - 1;
                for (rank, s) in out.spans.drain(..).enumerate() {
                    if spans.len() <= rank {
                        spans.push(Vec::new());
                    }
                    let base = spans[rank].len();
                    spans[rank].extend(s.into_iter().map(|mut sp| {
                        sp.round = round;
                        sp.parent = sp.parent.map(|p| p + base);
                        sp
                    }));
                }
                last = Some((sink.take(), out));
            }
            Err(e) => {
                rep.error("traced service run", e);
                return rep;
            }
        }
    }
    if let Some((trace, out)) = last {
        rep.round_events = trace.len() as u64;
        rep.round_bytes = payload_bytes(&out.report);
        if opts.trace {
            layers(&mut rep, &trace, &out.report, &spans, arrivals.len());
            rep.spans = spans;
            // No listed workload audits a trace, so this run reports the
            // `trace` and `verify` layers too.
            audit::add_layers(&mut rep, opts.seed, audit::SERVICE_AUDITS, origin);
        }
    }
    rep
}

/// Bytes of tenant data moved by one run's served writes and reads.
fn payload_bytes(report: &ServiceReport) -> u64 {
    let moved = report
        .outcomes
        .iter()
        .filter(|o| {
            matches!(o.op, ServeOp::Write | ServeOp::Read)
                && matches!(o.disposition, Disposition::Done { ok: true, .. })
        })
        .count() as u64;
    moved * ELEMENTS as u64 * 8
}

/// Check one run's outputs and pin its virtual numbers; returns the
/// requests that succeeded.
fn check(rep: &mut Report, out: &RunOut, arrivals: usize) -> u64 {
    rep.vtime.check("vtime_ns", out.vtime_ns, &mut rep.tally);
    let p99 = premium_p99_ns(out.report.latencies_ns(QosLevel::Premium));
    rep.premium.check("premium_vlat_ns", p99, &mut rep.tally);
    if out.report.cache.hits == 0 {
        rep.tally
            .violation("the working-set cache never hit: the read path is cold".into());
    }
    account(&out.report, arrivals, &mut rep.tally)
}

fn layers(
    rep: &mut Report,
    trace: &Trace,
    report: &ServiceReport,
    spans: &[Vec<Span>],
    requests: usize,
) {
    count_layers(&mut rep.layers, trace, 1);
    let counts = trace.op_counts();
    let l = &mut rep.layers;
    let t = totals(spans);
    if let Some(run) = t.get("serve.run_service") {
        let per_run_ms = run.total_ns as f64 / 1e6 / run.count as f64;
        l.insert(
            "serve.run_ms_per_kreq",
            per_run_ms * 1000.0 / requests as f64,
        );
    }
    l.insert(
        "serve.admitted",
        (report.outcomes.len() as u64 - report.shed) as f64,
    );
    l.insert("serve.shed", report.shed as f64);
    let lookups = report.cache.hits + report.cache.misses;
    if lookups > 0 {
        l.insert(
            "serve.cache_hit_ratio",
            report.cache.hits as f64 / lookups as f64,
        );
    }
    l.insert(
        "serve.cache_invalidations",
        report.cache.invalidations as f64,
    );
    l.insert(
        "serve.collectives_per_req",
        counts.total_collectives() as f64 / NPROCS as f64 / requests as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use dstreams_serve::RequestOutcome;
    use dstreams_trace::ShedReason;

    fn outcome(
        request_id: u64,
        tenant: u32,
        op: ServeOp,
        disposition: Disposition,
    ) -> RequestOutcome {
        RequestOutcome {
            request_id,
            tenant,
            class: QosLevel::Premium,
            op,
            arrival_ns: 0,
            disposition,
        }
    }

    fn done(ok: bool) -> Disposition {
        Disposition::Done { latency_ns: 1, ok }
    }

    fn report(outcomes: Vec<RequestOutcome>) -> ServiceReport {
        ServiceReport {
            outcomes,
            served: 0,
            shed: 0,
            failed: 0,
            aborted: 0,
            peak_queue_depth: 0,
            cache: Default::default(),
            end_ns: 0,
        }
    }

    #[test]
    fn empty_reads_before_the_first_sealed_write_are_not_failures() {
        let r = report(vec![
            outcome(0, 1, ServeOp::Read, done(false)),
            outcome(1, 1, ServeOp::Recover, done(false)),
            outcome(2, 2, ServeOp::Write, done(true)),
            // Tenant 1 has sealed nothing yet; tenant 2 has.
            outcome(3, 1, ServeOp::Read, done(false)),
            outcome(4, 2, ServeOp::Read, done(true)),
        ]);
        let mut t = Tally::default();
        assert_eq!(account(&r, 5, &mut t), 5);
        assert!(t.correct());
    }

    #[test]
    fn shed_aborted_and_wrong_outputs_fail() {
        let r = report(vec![
            outcome(0, 1, ServeOp::Write, done(true)),
            outcome(1, 1, ServeOp::Read, done(false)),
            outcome(
                2,
                1,
                ServeOp::Read,
                Disposition::Shed(ShedReason::QueueFull),
            ),
            outcome(3, 2, ServeOp::Open, Disposition::Aborted),
            outcome(4, 2, ServeOp::Write, done(false)),
            outcome(5, 1, ServeOp::Read, done(true)),
        ]);
        let mut t = Tally::default();
        assert_eq!(account(&r, 6, &mut t), 2);
        assert_eq!((t.attempted, t.failed, t.violations), (6, 4, 0));
        assert!((t.failed_share() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn a_lost_request_is_a_violation() {
        let r = report(vec![outcome(0, 1, ServeOp::Open, done(true))]);
        let mut t = Tally::default();
        account(&r, 2, &mut t);
        assert_eq!(t.violations, 1);
        assert!(!t.correct());
    }
}
