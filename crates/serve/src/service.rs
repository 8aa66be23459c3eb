//! The deterministic service loop: every rank runs it in lockstep over
//! the same arrival schedule and makes the identical admission,
//! scheduling, and cache decisions at the identical virtual times.
//!
//! The loop alternates two steps. First it admits every arrival whose
//! time has come, shedding (never blocking) whatever the per-tenant
//! token buckets or the bounded class queues refuse — an overloaded
//! service answers `Overloaded`, it does not hang. Then it dequeues one
//! request under deficit-round-robin and executes it through the
//! tenant's typestate [`Session`]. After each request the ranks
//! synchronize clocks ([`NodeCtx::sync_clocks`]) so the next decision
//! happens at the same instant everywhere.
//!
//! A fatal machine fault (a crashed peer, a dead channel) aborts the
//! remaining work and returns the partial report instead of wedging the
//! loop: shed or recover, never hang.

use dstreams_core::StreamError;
use dstreams_machine::{NodeCtx, VTime};
use dstreams_pfs::{Pfs, PfsError};
use dstreams_trace::{EventKind, QosLevel, ServeOp, ShedReason};
use std::collections::BTreeMap;

use crate::cache::{CacheStats, WorkingSetCache};
use crate::qos::{ServiceConfig, TenantProfile};
use crate::sched::{Request, Scheduler};
use crate::session::{element_value, Attached, Session};
use crate::traffic::Arrival;

/// What finally happened to one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// The request was executed.
    Done {
        /// Virtual nanoseconds from arrival to completion.
        latency_ns: u64,
        /// False when the operation failed non-fatally (e.g. nothing to
        /// read, a damaged generation, a stale value from the cache).
        ok: bool,
    },
    /// Admission control refused the request.
    Shed(ShedReason),
    /// The service aborted before reaching the request (fatal fault).
    Aborted,
}

/// One request's journey through the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestOutcome {
    /// Id from the arrival schedule.
    pub request_id: u64,
    /// Tenant that issued it.
    pub tenant: u32,
    /// QoS class it ran under.
    pub class: QosLevel,
    /// Operation requested.
    pub op: ServeOp,
    /// Scheduled arrival time, ns.
    pub arrival_ns: u64,
    /// Final disposition.
    pub disposition: Disposition,
}

/// Everything a service run produced, identical on every rank except
/// for the rank-local values inside the cache.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Per-request outcomes, in execution/shed order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests executed successfully.
    pub served: u64,
    /// Requests shed at admission.
    pub shed: u64,
    /// Requests executed but failed non-fatally.
    pub failed: u64,
    /// Requests abandoned after a fatal fault.
    pub aborted: u64,
    /// Highest total queue depth observed.
    pub peak_queue_depth: usize,
    /// Working-set cache counters.
    pub cache: CacheStats,
    /// Virtual time when the loop finished, ns.
    pub end_ns: u64,
}

impl ServiceReport {
    /// Completion latencies (ns) of executed requests in `class`, in
    /// completion order.
    pub fn latencies_ns(&self, class: QosLevel) -> Vec<u64> {
        self.outcomes
            .iter()
            .filter(|o| o.class == class)
            .filter_map(|o| match o.disposition {
                Disposition::Done { latency_ns, .. } => Some(latency_ns),
                _ => None,
            })
            .collect()
    }

    /// Requests of `class` shed at admission.
    pub fn shed_of(&self, class: QosLevel) -> u64 {
        self.outcomes
            .iter()
            .filter(|o| o.class == class && matches!(o.disposition, Disposition::Shed(_)))
            .count() as u64
    }
}

/// True for errors that mean the machine itself is broken (a peer is
/// gone, a channel is dead): no further collective can succeed, so the
/// loop must abort rather than retry.
fn fatal(err: &StreamError) -> bool {
    matches!(
        err,
        StreamError::Machine(_) | StreamError::Pfs(PfsError::Machine(_))
    )
}

/// Run the service loop over `arrivals` (which must be time-sorted, as
/// [`crate::traffic::generate`] produces them). Every rank must call
/// this with identical arguments.
pub fn run_service(
    ctx: &NodeCtx,
    pfs: &Pfs,
    cfg: &ServiceConfig,
    tenants: &[TenantProfile],
    arrivals: &[Arrival],
) -> Result<ServiceReport, StreamError> {
    let profiles: BTreeMap<u32, TenantProfile> = tenants.iter().map(|t| (t.tenant, *t)).collect();
    let mut sessions: BTreeMap<u32, Session<Attached>> = BTreeMap::new();
    let mut cache = WorkingSetCache::new(cfg.cache);
    let mut sched = Scheduler::new(cfg);
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(arrivals.len());
    let (mut served, mut shed, mut failed, mut aborted) = (0u64, 0u64, 0u64, 0u64);

    // The *decision clock*: every admission, rate-limit, and scheduling
    // decision uses this value, which only ever takes on collectively
    // agreed times (sync_clocks maxima and arrival instants). The raw
    // `ctx.now()` is NOT safe here — under a cost-modeled machine the
    // rendezvous itself charges each rank a slightly different message
    // cost, so local clocks sit a hair apart even right after a sync,
    // and any decision read off them would diverge across ranks.
    let mut now_ns = ctx.sync_clocks()?.as_nanos();
    let mut next = 0usize;
    loop {
        // Admit (or shed) everything whose arrival time has passed.
        while next < arrivals.len() && arrivals[next].at_ns <= now_ns {
            let a = arrivals[next];
            next += 1;
            let req = Request {
                request_id: a.request_id,
                tenant: a.tenant,
                class: a.class,
                op: a.op,
                arrival_ns: a.at_ns,
            };
            match sched.offer(req, now_ns) {
                Ok(_) => {
                    ctx.emit_with(|| EventKind::SessionAdmit {
                        request_id: a.request_id,
                        tenant: a.tenant,
                        class: a.class,
                        op: a.op,
                        queue_depth: sched.len() as u32,
                    });
                }
                Err(reason) => {
                    shed += 1;
                    ctx.emit_with(|| EventKind::SessionShed {
                        request_id: a.request_id,
                        tenant: a.tenant,
                        class: a.class,
                        op: a.op,
                        reason,
                    });
                    outcomes.push(RequestOutcome {
                        request_id: a.request_id,
                        tenant: a.tenant,
                        class: a.class,
                        op: a.op,
                        arrival_ns: a.at_ns,
                        disposition: Disposition::Shed(reason),
                    });
                }
            }
        }

        let Some(req) = sched.dequeue() else {
            if next >= arrivals.len() {
                break;
            }
            // Idle: jump (locally, identically on all ranks) to the next
            // arrival instant.
            now_ns = now_ns.max(arrivals[next].at_ns);
            ctx.sync_to(VTime::from_nanos(now_ns));
            continue;
        };

        match execute(ctx, pfs, cfg, &profiles, &mut sessions, &mut cache, &req) {
            Ok(ok) => {
                now_ns = now_ns.max(ctx.sync_clocks()?.as_nanos());
                let latency_ns = now_ns.saturating_sub(req.arrival_ns);
                if ok {
                    served += 1;
                } else {
                    failed += 1;
                }
                ctx.emit_with(|| EventKind::SessionDone {
                    request_id: req.request_id,
                    tenant: req.tenant,
                    class: req.class,
                    op: req.op,
                    latency_ns,
                    ok,
                });
                outcomes.push(RequestOutcome {
                    request_id: req.request_id,
                    tenant: req.tenant,
                    class: req.class,
                    op: req.op,
                    arrival_ns: req.arrival_ns,
                    disposition: Disposition::Done { latency_ns, ok },
                });
            }
            Err(err) if fatal(&err) => {
                // Abandon the in-flight request, everything queued, and
                // everything not yet admitted; report instead of hanging.
                let mut doomed = vec![req];
                while let Some(r) = sched.dequeue() {
                    doomed.push(r);
                }
                doomed.extend(arrivals[next..].iter().map(|a| Request {
                    request_id: a.request_id,
                    tenant: a.tenant,
                    class: a.class,
                    op: a.op,
                    arrival_ns: a.at_ns,
                }));
                for r in doomed {
                    aborted += 1;
                    outcomes.push(RequestOutcome {
                        request_id: r.request_id,
                        tenant: r.tenant,
                        class: r.class,
                        op: r.op,
                        arrival_ns: r.arrival_ns,
                        disposition: Disposition::Aborted,
                    });
                }
                // No collective is possible on a broken machine; the last
                // agreed decision time is the only end stamp every
                // surviving rank can report identically.
                return Ok(ServiceReport {
                    outcomes,
                    served,
                    shed,
                    failed,
                    aborted,
                    peak_queue_depth: sched.peak_depth(),
                    cache: cache.stats(),
                    end_ns: now_ns,
                });
            }
            Err(err) => return Err(err),
        }
    }

    let end_ns = now_ns.max(ctx.sync_clocks()?.as_nanos());
    Ok(ServiceReport {
        outcomes,
        served,
        shed,
        failed,
        aborted,
        peak_queue_depth: sched.peak_depth(),
        cache: cache.stats(),
        end_ns,
    })
}

/// Execute one admitted request through its tenant's session. Returns
/// `Ok(true)` on success, `Ok(false)` on a non-fatal application
/// failure, and `Err` on machine faults or logic errors.
fn execute(
    ctx: &NodeCtx,
    pfs: &Pfs,
    cfg: &ServiceConfig,
    profiles: &BTreeMap<u32, TenantProfile>,
    sessions: &mut BTreeMap<u32, Session<Attached>>,
    cache: &mut WorkingSetCache,
    req: &Request,
) -> Result<bool, StreamError> {
    let Some(profile) = profiles.get(&req.tenant) else {
        return Ok(false);
    };
    if req.op == ServeOp::Open || !sessions.contains_key(&req.tenant) {
        // (Re)attach — also the auto-attach path when a tenant's `Open`
        // was shed but a later op of the same session was admitted.
        let s = Session::new(profile, cfg.keep).attach(ctx, pfs)?;
        sessions.insert(req.tenant, s);
        if req.op == ServeOp::Open {
            return Ok(true);
        }
    }
    let session = sessions.get_mut(&req.tenant).expect("attached above");
    match req.op {
        ServeOp::Open => Ok(true),
        ServeOp::Write => match session.write(ctx, pfs, cache) {
            Ok(_) => Ok(true),
            Err(e) if fatal(&e) => Err(e),
            Err(_) => Ok(false),
        },
        ServeOp::Read => match session.read(ctx, pfs, cache) {
            // Every read — cached or not — must return the exact values
            // of the generation it claims: the byte-identity invariant.
            Ok(Some(r)) => Ok(verify_read(ctx, profile, r.generation, &r.local_values)),
            Ok(None) => Ok(false),
            Err(e) if fatal(&e) => Err(e),
            Err(_) => Ok(false),
        },
        ServeOp::Recover => match session.recover(ctx, pfs, cache) {
            Ok(_) => Ok(true),
            Err(e) if fatal(&e) => Err(e),
            Err(_) => Ok(false),
        },
    }
}

/// Check a read's payload against the deterministic contents of the
/// generation it came from.
fn verify_read(ctx: &NodeCtx, profile: &TenantProfile, generation: u64, got: &[u64]) -> bool {
    use dstreams_collections::{DistKind, Layout};
    let Ok(layout) = Layout::dense(profile.elements, ctx.nprocs(), DistKind::Block) else {
        return false;
    };
    let mine = layout.local_elements(ctx.rank());
    mine.len() == got.len()
        && mine
            .iter()
            .zip(got)
            .all(|(&g, &v)| v == element_value(profile.tenant, generation, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qos::ServiceConfig;
    use crate::traffic::{generate, OpMix, TrafficSpec};
    use dstreams_machine::{Machine, MachineConfig};
    use dstreams_pfs::DiskModel;

    fn tenants() -> Vec<TenantProfile> {
        vec![
            TenantProfile {
                tenant: 1,
                class: QosLevel::Premium,
                elements: 8,
            },
            TenantProfile {
                tenant: 2,
                class: QosLevel::Standard,
                elements: 8,
            },
            TenantProfile {
                tenant: 3,
                class: QosLevel::BestEffort,
                elements: 8,
            },
        ]
    }

    fn workload(sessions: usize) -> Vec<Arrival> {
        generate(
            &TrafficSpec {
                seed: 7,
                sessions,
                ops_per_session: 3,
                mean_session_gap_ns: 50_000,
                mean_interarrival_ns: 50_000,
                zipf_s: 0.8,
                mix: OpMix::read_mostly(),
            },
            &tenants(),
        )
    }

    #[test]
    fn every_request_gets_exactly_one_outcome() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let cfg = ServiceConfig::for_model(&DiskModel::instant());
            let arrivals = workload(20);
            let report = run_service(ctx, &p, &cfg, &tenants(), &arrivals).unwrap();
            assert_eq!(report.outcomes.len(), arrivals.len());
            let mut ids: Vec<u64> = report.outcomes.iter().map(|o| o.request_id).collect();
            ids.sort_unstable();
            let want: Vec<u64> = (0..arrivals.len() as u64).collect();
            assert_eq!(ids, want, "each request resolved exactly once");
            assert_eq!(
                report.served + report.shed + report.failed + report.aborted,
                arrivals.len() as u64
            );
            assert_eq!(report.aborted, 0);
            // A read-mostly workload against a warm tenant set must hit.
            assert!(report.cache.hits > 0, "expected cache hits");
        })
        .unwrap();
    }

    #[test]
    fn reads_are_byte_identical_even_when_cached() {
        let pfs = Pfs::in_memory(2);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let cfg = ServiceConfig::for_model(&DiskModel::instant());
            let arrivals = workload(30);
            let report = run_service(ctx, &p, &cfg, &tenants(), &arrivals).unwrap();
            // `verify_read` marks any mismatching read as failed; the
            // only tolerated failures are reads before the first write.
            for o in &report.outcomes {
                if let Disposition::Done { ok: false, .. } = o.disposition {
                    assert!(
                        matches!(o.op, ServeOp::Read),
                        "only empty-namespace reads may fail, got {:?}",
                        o
                    );
                }
            }
            assert!(report.cache.hits > 0);
        })
        .unwrap();
    }

    #[test]
    fn report_is_identical_on_every_rank() {
        let pfs = Pfs::in_memory(3);
        let p = pfs.clone();
        let reports = std::sync::Arc::new(parking_lot_free_collect(3));
        let sink = reports.clone();
        Machine::run(MachineConfig::functional(3), move |ctx| {
            let cfg = ServiceConfig::for_model(&DiskModel::paragon_pfs());
            let arrivals = workload(15);
            let report = run_service(ctx, &p, &cfg, &tenants(), &arrivals).unwrap();
            let digest: Vec<(u64, bool)> = report
                .outcomes
                .iter()
                .map(|o| {
                    (
                        o.request_id,
                        matches!(o.disposition, Disposition::Done { ok: true, .. }),
                    )
                })
                .collect();
            sink.lock().unwrap()[ctx.rank()] = Some((digest, report.end_ns));
        })
        .unwrap();
        let collected = reports.lock().unwrap();
        let first = collected[0].clone().unwrap();
        for r in collected.iter() {
            assert_eq!(r.clone().unwrap(), first, "ranks disagreed");
        }
    }

    /// The exact number of collective-cell rendezvous a small fixed run
    /// makes per rank. A change that adds a rendezvous to any request
    /// path moves it; a timing check would not notice.
    #[test]
    fn a_fixed_run_makes_a_pinned_number_of_rendezvous() {
        let pfs = Pfs::new(4, DiskModel::paragon_pfs(), dstreams_pfs::Backend::Memory);
        let counts = Machine::run(MachineConfig::paragon(4), |ctx| {
            let cfg = ServiceConfig::for_model(pfs.model());
            let report = run_service(ctx, &pfs, &cfg, &tenants(), &workload(16)).unwrap();
            assert_eq!(report.aborted, 0);
            ctx.rendezvous_count()
        })
        .unwrap();
        assert_eq!(counts, vec![RENDEZVOUS_16_SESSIONS; 4]);
    }

    const RENDEZVOUS_16_SESSIONS: u64 = 302;

    /// Rendezvous per request kind on one rank: the request's own
    /// collectives plus the `sync_clocks` that closes it in
    /// `run_service`. Each replicated-local checkpoint step is one
    /// rendezvous whatever it finds (a stale file, pruned generations, a
    /// missing manifest), so every kind makes a fixed number.
    const RENDEZVOUS_PER_REQUEST: [(&str, u64); 5] = [
        ("attach", 2),
        ("write", 9),
        ("read miss", 8),
        ("read hit", 1),
        ("recover", 4),
    ];

    /// The pins of [`RENDEZVOUS_PER_REQUEST`]: one tenant attaches,
    /// writes three generations (the third prunes one), reads (a miss,
    /// then a hit) and recovers.
    #[test]
    fn each_request_kind_makes_a_pinned_number_of_rendezvous() {
        let pfs = Pfs::new(4, DiskModel::paragon_pfs(), dstreams_pfs::Backend::Memory);
        let counts = Machine::run(MachineConfig::paragon(4), |ctx| {
            let mut cfg = ServiceConfig::for_model(pfs.model());
            cfg.keep = 2;
            let tenants = tenants();
            let profiles = tenants.iter().map(|t| (t.tenant, *t)).collect();
            let (mut sessions, mut cache) = (BTreeMap::new(), WorkingSetCache::new(cfg.cache));
            let script = [
                ("attach", ServeOp::Open),
                ("write", ServeOp::Write),
                ("write", ServeOp::Write),
                ("write", ServeOp::Write),
                ("read miss", ServeOp::Read),
                ("read hit", ServeOp::Read),
                ("recover", ServeOp::Recover),
            ];
            let mut counts = Vec::new();
            for (request_id, (kind, op)) in (0..).zip(script) {
                let req = Request {
                    request_id,
                    tenant: 1,
                    class: QosLevel::Premium,
                    op,
                    arrival_ns: 0,
                };
                let before = ctx.rendezvous_count();
                let ok = execute(ctx, &pfs, &cfg, &profiles, &mut sessions, &mut cache, &req);
                assert!(matches!(ok, Ok(true)), "{kind}: {ok:?}");
                ctx.sync_clocks().unwrap();
                counts.push((kind, ctx.rendezvous_count() - before));
            }
            counts
        })
        .unwrap();
        for rank in counts {
            for (kind, count) in rank {
                let pin = RENDEZVOUS_PER_REQUEST.iter().find(|(k, _)| *k == kind);
                assert_eq!(Some(count), pin.map(|p| p.1), "{kind}");
            }
        }
    }

    type RankDigest = Option<(Vec<(u64, bool)>, u64)>;

    fn parking_lot_free_collect(n: usize) -> std::sync::Mutex<Vec<RankDigest>> {
        std::sync::Mutex::new(vec![None; n])
    }
}
