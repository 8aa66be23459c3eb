//! End-to-end tests of the `dsverify` binary and the analyzer over
//! negative trace fixtures and real runtime traces.

use std::process::Command;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{IStream, OStream};
use dstreams_machine::{CollectiveConfig, Machine, MachineConfig};
use dstreams_pfs::Pfs;
use dstreams_trace::{Trace, TraceSink};
use dstreams_verify::{analyze, Rule};

fn fixture(name: &str) -> String {
    format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"))
}

fn load(name: &str) -> Trace {
    let text = std::fs::read_to_string(fixture(name)).unwrap();
    Trace::from_events_json(&text).unwrap()
}

#[test]
fn mismatched_collective_fixture_is_flagged() {
    let report = analyze(&load("mismatched_collective.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::CollectiveMatching);
    assert!(h.detail.contains("all_reduce on ranks [0, 2]"), "{h}");
    assert!(h.detail.contains("broadcast(root=0) on ranks [1]"), "{h}");
}

#[test]
fn unmatched_write_begin_fixture_is_flagged() {
    let report = analyze(&load("unmatched_write_begin.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::AsyncPairing);
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("never retired"), "{h}");
    // Rank 1 retired its flush, so exactly one pair was counted.
    assert_eq!(report.async_pairs, 1);
}

#[test]
fn leaked_agg_shuttle_fixture_is_flagged() {
    let report = analyze(&load("leaked_agg_shuttle.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::ShuttleConservation);
    // The hazard points at the aggregator that dropped the payload.
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("1->0"), "{h}");
    assert!(h.detail.contains("4096 B shipped"), "{h}");
}

#[test]
fn lost_redist_transfer_fixture_is_flagged() {
    let report = analyze(&load("lost_redist_transfer.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::RedistConservation);
    // The hazard points at the receiver whose claim disagrees: rank 2
    // shipped 4 elements toward rank 0, which claimed only 3.
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("2->0"), "{h}");
    assert!(h.detail.contains("4 element(s)/512 B"), "{h}");
    assert!(h.detail.contains("3 element(s)/512 B"), "{h}");
}

#[test]
fn duplicate_shuttle_delivery_fixture_is_flagged() {
    let report = analyze(&load("duplicate_shuttle_delivery.dstrace.json"));
    // The double claim trips the dedup rule, and its knock-on effects
    // (surplus point-to-point receive, non-conserved shuttle bytes) trip
    // the pairing and conservation rules too.
    let dup: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.rule == Rule::DuplicateSuppression)
        .collect();
    assert_eq!(dup.len(), 1, "{report}");
    assert_eq!(dup[0].rank, Some(0));
    assert!(dup[0].detail.contains("1->0"), "{}", dup[0]);
    assert!(dup[0].detail.contains("2 receives"), "{}", dup[0]);
    assert!(
        report
            .hazards
            .iter()
            .any(|h| h.rule == Rule::ShuttleConservation),
        "{report}"
    );
}

#[test]
fn unacked_retransmit_fixture_is_flagged() {
    let report = analyze(&load("unacked_retransmit.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::RetransmitAccounting);
    assert_eq!(h.rank, Some(1));
    assert!(h.detail.contains("1->0"), "{h}");
    assert!(h.detail.contains("3 retransmit(s)"), "{h}");
}

#[test]
fn shed_request_served_fixture_is_flagged() {
    let report = analyze(&load("shed_request_served.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::SessionIsolation);
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("request 7"), "{h}");
    assert!(h.detail.contains("served anyway"), "{h}");
    // The legitimately admitted request balanced.
    assert_eq!(report.session_requests, 1);
}

#[test]
fn stale_cache_hit_fixture_is_flagged() {
    let report = analyze(&load("stale_cache_hit.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::CacheCoherence);
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("t4.2"), "{h}");
    assert!(h.detail.contains("no live entry"), "{h}");
}

#[test]
fn dsverify_flags_fixtures_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(fixture("mismatched_collective.dstrace.json"))
        .arg(fixture("unmatched_write_begin.dstrace.json"))
        .arg(fixture("leaked_agg_shuttle.dstrace.json"))
        .arg(fixture("lost_redist_transfer.dstrace.json"))
        .arg(fixture("duplicate_shuttle_delivery.dstrace.json"))
        .arg(fixture("unacked_retransmit.dstrace.json"))
        .arg(fixture("shed_request_served.dstrace.json"))
        .arg(fixture("stale_cache_hit.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("collective-matching"), "{stdout}");
    assert!(stdout.contains("async-pairing"), "{stdout}");
    assert!(stdout.contains("shuttle-conservation"), "{stdout}");
    assert!(stdout.contains("redist-conservation"), "{stdout}");
    assert!(stdout.contains("duplicate-suppression"), "{stdout}");
    assert!(stdout.contains("retransmit-accounting"), "{stdout}");
    assert!(stdout.contains("session-isolation"), "{stdout}");
    assert!(stdout.contains("cache-coherence"), "{stdout}");
}

#[test]
fn dsverify_usage_and_bad_input_exit_2() {
    let no_args = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .output()
        .unwrap();
    assert_eq!(no_args.status.code(), Some(2));

    let dir = std::env::temp_dir().join("dsverify-bad-input");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.dstrace.json");
    std::fs::write(&bad, "{\"format\": \"other\"}").unwrap();
    let parse_err = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(&bad)
        .output()
        .unwrap();
    assert_eq!(parse_err.status.code(), Some(2), "{parse_err:?}");
}

#[test]
fn dsverify_rejects_events_on_ranks_the_trace_lacks() {
    // A 2-rank trace with a barrier on rank 5: skipping the event would
    // report the trace clean and miss any hazard on that rank.
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(fixture("rank_out_of_range.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("event 2: rank 5 is out of range for a trace of 2 rank(s)"),
        "{stderr}"
    );
    assert!(!stderr.contains("at byte"), "{stderr}");
}

/// A real traced run, exported through the portable JSON format and
/// re-analyzed: the runtime's own protocol discipline must be clean.
#[test]
fn real_traced_run_round_trips_clean_through_dsverify() {
    let nprocs = 2;
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(8, ctx.nprocs(), DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g as u64).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "clean").unwrap();
            // One blocking and one split-collective record.
            s.insert_collection(&c).unwrap();
            s.write().unwrap();
            s.insert_collection(&c).unwrap();
            let pending = s.write_begin().unwrap();
            s.write_end(pending).unwrap();
            s.close().unwrap();
        },
    )
    .unwrap();
    let json = sink.take().to_events_json();

    let dir = std::env::temp_dir().join("dsverify-clean-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("clean.dstrace.json");
    std::fs::write(&path, &json).unwrap();

    let reparsed = Trace::from_events_json(&json).unwrap();
    let report = analyze(&reparsed);
    assert!(report.clean(), "{report}");
    assert!(report.async_pairs >= 1, "{report}");

    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

/// The aggregated (collective-buffering) runtime path, traced and
/// re-analyzed: real shuttle traffic is conserved, so the new rule stays
/// silent on a healthy run — the leak fixture above is discriminating.
#[test]
fn aggregated_traced_run_round_trips_clean_through_dsverify() {
    let nprocs = 4;
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs)
            .traced(sink.clone())
            .with_collective(CollectiveConfig {
                aggregators: 2,
                stripe_align: true,
            }),
        move |ctx| {
            let layout = Layout::dense(16, ctx.nprocs(), DistKind::Block).unwrap();
            let c = Collection::new(ctx, layout.clone(), |g| g as u64).unwrap();
            let mut s = OStream::create(ctx, &p, &layout, "agg_clean").unwrap();
            s.insert_collection(&c).unwrap();
            s.write().unwrap();
            s.close().unwrap();
        },
    )
    .unwrap();
    let json = sink.take().to_events_json();
    let reparsed = Trace::from_events_json(&json).unwrap();
    assert!(
        reparsed
            .events
            .iter()
            .any(|e| matches!(e.kind, dstreams_trace::EventKind::AggShuttle { .. })),
        "the aggregated run never shipped a shuttle"
    );
    let report = analyze(&reparsed);
    assert!(report.clean(), "{report}");
}

/// A cross-distribution planned read, traced and re-analyzed: live
/// redistribution shuttle traffic conserves per pair, so the new rule
/// stays silent on a healthy run — the lost-transfer fixture above is
/// discriminating, not vacuous.
#[test]
fn cross_shape_read_round_trips_clean_through_dsverify() {
    let nprocs = 4;
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| {
            let wlayout = Layout::dense(24, ctx.nprocs(), DistKind::Block).unwrap();
            let c = Collection::new(ctx, wlayout.clone(), |g| g as u64).unwrap();
            let mut s = OStream::create(ctx, &p, &wlayout, "xshape").unwrap();
            s.insert_collection(&c).unwrap();
            s.write().unwrap();
            s.close().unwrap();

            let rlayout = Layout::dense(24, ctx.nprocs(), DistKind::Cyclic).unwrap();
            let mut g = Collection::new(ctx, rlayout.clone(), |_| 0u64).unwrap();
            let mut r = IStream::open(ctx, &p, &rlayout, "xshape").unwrap();
            r.read().unwrap();
            r.extract_collection(&mut g).unwrap();
            r.close().unwrap();
            for (gid, v) in g.iter() {
                assert_eq!(*v, gid as u64);
            }
        },
    )
    .unwrap();
    let json = sink.take().to_events_json();
    let reparsed = Trace::from_events_json(&json).unwrap();
    assert!(
        reparsed
            .events
            .iter()
            .any(|e| matches!(e.kind, dstreams_trace::EventKind::RedistShuttle { .. })),
        "the cross-distribution read never shuttled an element"
    );
    let report = analyze(&reparsed);
    assert!(report.clean(), "{report}");
}

/// A live multi-tenant service run, traced and re-analyzed: the session
/// ledger balances and every cache hit is live, so the two new rules
/// stay silent on a healthy run — the shed-served and stale-hit fixtures
/// above are discriminating, not vacuous.
#[test]
fn live_service_trace_round_trips_clean_through_dsverify() {
    use dstreams_pfs::DiskModel;
    use dstreams_serve::{run_service, OpMix, QosLevel, ServiceConfig, TenantProfile, TrafficSpec};

    let nprocs = 2;
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| {
            let cfg = ServiceConfig::for_model(&DiskModel::instant());
            let tenants = vec![
                TenantProfile {
                    tenant: 1,
                    class: QosLevel::Premium,
                    elements: 8,
                },
                TenantProfile {
                    tenant: 2,
                    class: QosLevel::BestEffort,
                    elements: 8,
                },
            ];
            let arrivals = dstreams_serve::traffic::generate(
                &TrafficSpec {
                    seed: 11,
                    sessions: 25,
                    ops_per_session: 4,
                    mean_session_gap_ns: 20_000,
                    mean_interarrival_ns: 20_000,
                    zipf_s: 1.0,
                    mix: OpMix::read_mostly(),
                },
                &tenants,
            );
            let report = run_service(ctx, &p, &cfg, &tenants, &arrivals).unwrap();
            assert_eq!(report.aborted, 0);
            assert!(report.cache.hits > 0, "warm reads must hit");
        },
    )
    .unwrap();
    let json = sink.take().to_events_json();
    let reparsed = Trace::from_events_json(&json).unwrap();
    assert!(
        reparsed
            .events
            .iter()
            .any(|e| matches!(e.kind, dstreams_trace::EventKind::SessionAdmit { .. })),
        "the service run never admitted a session"
    );
    let report = analyze(&reparsed);
    assert!(report.clean(), "{report}");
    assert!(report.session_requests > 0, "{report}");
    assert!(report.cache_hits_checked > 0, "{report}");

    let dir = std::env::temp_dir().join("dsverify-service-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.dstrace.json");
    std::fs::write(&path, &json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn unordered_overlap_write_fixture_is_flagged() {
    let report = analyze(&load("unordered_overlap_write.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::HbIntervalRace);
    assert!(h.detail.contains("write/write race"), "{h}");
    assert!(h.detail.contains("[50, 100)"), "{h}");
    assert!(h.witness.is_some(), "{h}");
}

#[test]
fn hb_stale_cache_hit_fixture_is_flagged() {
    let report = analyze(&load("hb_stale_cache_hit.dstrace.json"));
    assert_eq!(report.hazards.len(), 1, "{report}");
    let h = &report.hazards[0];
    assert_eq!(h.rule, Rule::HbCoherence);
    assert_eq!(h.rank, Some(0));
    assert!(h.detail.contains("t1.0"), "{h}");
    assert!(h.witness.is_some(), "{h}");
}

#[test]
fn dsverify_explain_prints_witness_chain() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--explain")
        .arg(fixture("unordered_overlap_write.dstrace.json"))
        .arg(fixture("hb_stale_cache_hit.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("hb-interval-race"), "{stdout}");
    assert!(stdout.contains("hb-coherence"), "{stdout}");
    assert!(
        stdout.contains("witness (incomparable vector clocks)"),
        "{stdout}"
    );
    // Both conflicting events are shown with their vector clocks.
    assert!(stdout.contains("clock ["), "{stdout}");
}

#[test]
fn dsverify_rules_subset_selects_rules() {
    // With only collective-matching selected, the race fixture is clean.
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--rules")
        .arg("collective-matching")
        .arg(fixture("unordered_overlap_write.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // The race rule alone still flags it.
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--rules")
        .arg("hb-interval-race")
        .arg(fixture("unordered_overlap_write.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Unknown rule names are a usage error listing the vocabulary.
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--rules")
        .arg("no-such-rule")
        .arg(fixture("unordered_overlap_write.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown rule"), "{stderr}");
    assert!(stderr.contains("hb-interval-race"), "{stderr}");
}

#[test]
fn dsverify_empty_trace_exits_2_nothing_analyzed() {
    let dir = std::env::temp_dir().join("dsverify-empty-trace");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("empty.dstrace.json");
    std::fs::write(
        &path,
        "{\"format\": \"dstrace\", \"version\": 1, \"nprocs\": 2, \"events\": []}",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nothing analyzed"), "{stderr}");
}

#[test]
fn dsverify_diff_identical_traces_exits_0() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--diff")
        .arg(fixture("diff_seed_a.dstrace.json"))
        .arg(fixture("diff_seed_a.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("causally identical"), "{stdout}");
}

#[test]
fn dsverify_diff_seeded_divergence_pinpoints_origin() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--diff")
        .arg(fixture("diff_seed_a.dstrace.json"))
        .arg(fixture("diff_seed_b.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The only divergent lane is rank 1's, at its second event (the
    // write whose byte count differs between the seeds).
    assert!(
        stdout.contains("first causally-divergent event: rank 1 at lane position 1"),
        "{stdout}"
    );
    // The causal frontier names rank 0's barrier — the last event the
    // origin depends on, provably inside the shared prefix.
    assert!(stdout.contains("causal frontier"), "{stdout}");
    assert!(stdout.contains("collective barrier"), "{stdout}");
}

#[test]
fn unsealed_tail_read_fixture_is_flagged() {
    let report = analyze(&load("unsealed_tail_read.dstrace.json"));
    let hits: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.rule == Rule::UnsealedTailRead)
        .collect();
    assert_eq!(hits.len(), 1, "{report}");
    assert_eq!(hits[0].rank, Some(1));
    assert!(
        hits[0].detail.contains("no happens-before path"),
        "{report}"
    );
    assert!(hits[0].witness.is_some(), "{report}");
    assert_eq!(report.tail_reads_checked, 1);
}

#[test]
fn compacted_under_reader_fixture_is_flagged() {
    let report = analyze(&load("compacted_under_reader.dstrace.json"));
    let hits: Vec<_> = report
        .hazards
        .iter()
        .filter(|h| h.rule == Rule::CompactedUnderReader)
        .collect();
    assert_eq!(hits.len(), 1, "{report}");
    assert_eq!(hits[0].rank, Some(0));
    assert!(hits[0].detail.contains("reader 1"), "{report}");
    assert!(hits[0].witness.is_some(), "{report}");
    assert_eq!(report.compactions_checked, 1);
}

#[test]
fn dsverify_flags_streaming_fixtures_and_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg("--explain")
        .arg(fixture("unsealed_tail_read.dstrace.json"))
        .arg(fixture("compacted_under_reader.dstrace.json"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("unsealed-tail-read"), "{stdout}");
    assert!(stdout.contains("compacted-under-reader"), "{stdout}");
    // --explain prints the incomparable clocks of each witness pair.
    assert!(stdout.contains("witness"), "{stdout}");
}

/// A live append-stream run with a tailing reader and retention, traced
/// and re-analyzed: every tail read has a happens-before path from its
/// seal and every compact is behind all cursors, so the two streaming
/// rules stay silent on a healthy run — the fixtures above are
/// discriminating, not vacuous.
#[test]
fn live_streaming_trace_round_trips_clean_through_dsverify() {
    use dstreams_unbounded::{AppendOptions, AppendStream, TailReader};

    let nprocs = 2;
    let sink = TraceSink::new(nprocs);
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| {
            let lo = Layout::dense(8, ctx.nprocs(), DistKind::Block).unwrap();
            let opts = AppendOptions {
                retention_bytes: Some(1),
                ..Default::default()
            };
            let mut s = AppendStream::create_with(ctx, &p, &lo, "live", opts).unwrap();
            let mut r = TailReader::attach(ctx, &p, &lo, "live").unwrap();
            for seg in 0..3u64 {
                let c = Collection::new(ctx, lo.clone(), move |g| seg + g as u64).unwrap();
                s.insert_collection(&c).unwrap();
                s.append().unwrap();
                s.seal().unwrap();
                assert!(r
                    .poll(|is, _| {
                        let mut g = Collection::new(ctx, lo.clone(), |_| 0u64).unwrap();
                        is.read()?;
                        is.extract_collection(&mut g)?;
                        Ok(())
                    })
                    .unwrap());
            }
            r.detach().unwrap();
            s.close().unwrap();
        },
    )
    .unwrap();
    let json = sink.take().to_events_json();

    let reparsed = Trace::from_events_json(&json).unwrap();
    let report = analyze(&reparsed);
    assert!(report.clean(), "{report}");
    assert!(report.tail_reads_checked > 0, "{report}");
    assert!(report.compactions_checked > 0, "{report}");

    let dir = std::env::temp_dir().join("dsverify-streaming-run");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("streaming.dstrace.json");
    std::fs::write(&path, &json).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsverify"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
