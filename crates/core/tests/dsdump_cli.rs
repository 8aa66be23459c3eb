//! End-to-end test of the `dsdump` CLI against a real on-disk d/stream
//! file written through the Disk backend.

use std::process::Command;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{FileHeader, MetaMode, OStream, RecordHeader, RecordSeal};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, ChunkSum, DiskModel, Pfs};

#[test]
fn dsdump_reads_real_files() {
    let dir = std::env::temp_dir().join(format!("dsdump-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pfs = Pfs::new(2, DiskModel::instant(), Backend::Disk(dir.clone()));
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let layout = Layout::dense(6, 2, DistKind::Cyclic).unwrap();
        let g = Collection::new(ctx, layout.clone(), |i| vec![i as u8; i + 1]).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, "dump.dstream").unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();

    let path = dir.join("dump.dstream");
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("1 record(s)"), "{report}");
    assert!(report.contains("6 elements"), "{report}");
    assert!(report.contains("Cyclic"), "{report}");
    assert!(report.contains("2 procs"), "{report}");

    // A torn tail (crash mid-write): --recover truncates back to the
    // sealed prefix and a plain dsdump succeeds again.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "detected torn tail must exit 3, stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--recover"),
        "torn-tail diagnostic must point at --recover"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--recover")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("truncated"), "{report}");
    assert!(report.contains("0 sealed record(s)"), "{report}");
    // Recovery is idempotent.
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--recover")
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8(out.stdout).unwrap().contains("intact"));
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "recovered file must dump cleanly: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("0 record(s)"));

    // Corrupt the magic: dsdump must fail loudly.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[0] = b'X';
    std::fs::write(&path, &bytes).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "plain corruption (not a torn tail) must exit 1"
    );
    assert!(String::from_utf8(out.stderr).unwrap().contains("magic"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_layout_prints_descriptors_and_rejects_inconsistent_headers() {
    let dir = std::env::temp_dir().join(format!("dsdump-layout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let pfs = Pfs::new(2, DiskModel::instant(), Backend::Disk(dir.clone()));
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let layout = Layout::dense(6, 2, DistKind::BlockCyclic(2)).unwrap();
        let g = Collection::new(ctx, layout.clone(), |i| i as u64).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, "layout.dstream").unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();

    let path = dir.join("layout.dstream");
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--layout")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("stored writer layout(s)"), "{report}");
    assert!(report.contains("6 elements"), "{report}");
    assert!(report.contains("6-cell template"), "{report}");
    assert!(report.contains("BlockCyclic(2)"), "{report}");
    assert!(report.contains("2 procs"), "{report}");
    assert!(report.contains("align stride 1 offset 0"), "{report}");

    // Corrupt-header fixture: shrink the descriptor's element count (a
    // still-decodable layout) and re-seal so only the layout/record-table
    // inconsistency can be the reason for rejection.
    let mut bytes = std::fs::read(&path).unwrap();
    let desc_n = FileHeader::LEN + 24;
    bytes[desc_n..desc_n + 8].copy_from_slice(&5u64.to_le_bytes());
    let data_end = bytes.len() - RecordSeal::LEN;
    let digest = ChunkSum::of(&bytes[FileHeader::LEN..data_end]);
    bytes[data_end + 12..data_end + 20].copy_from_slice(&digest.hash().to_le_bytes());
    let bad = dir.join("inconsistent.dstream");
    std::fs::write(&bad, &bytes).unwrap();
    for flags in [&["--layout"][..], &[][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
            .args(flags)
            .arg(&bad)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(1),
            "layout inconsistent with the record table must exit 1 ({flags:?})"
        );
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains("layout descriptor"), "{err}");
        assert!(err.contains("5 element(s)"), "{err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_dstrace_surfaces_reliability_counters() {
    use dstreams_machine::{FaultPlan, MsgFaultPlan};
    use dstreams_trace::TraceSink;

    // A fault-free trace summary must stay free of reliability noise.
    let quiet = TraceSink::new(2);
    Machine::run(MachineConfig::functional(2).traced(quiet.clone()), |ctx| {
        if ctx.rank() == 0 {
            ctx.send(1, 5, b"hello").unwrap();
        } else {
            ctx.recv(0, 5).unwrap();
        }
        ctx.barrier().unwrap();
    })
    .unwrap();

    // A chaos run exercises retransmits and dedup; the summary must
    // surface both the totals and the per-rank breakdown.
    let noisy = TraceSink::new(2);
    let plan =
        FaultPlan::default().with_msg(MsgFaultPlan::seeded(7).drop_ppm(200_000).dup_ppm(200_000));
    Machine::run(
        MachineConfig::functional(2)
            .with_faults(plan)
            .traced(noisy.clone()),
        |ctx| {
            for round in 0..32u32 {
                if ctx.rank() == 0 {
                    ctx.send(1, round, b"payload").unwrap();
                } else {
                    ctx.recv(0, round).unwrap();
                }
            }
            ctx.barrier().unwrap();
        },
    )
    .unwrap();

    let dir = std::env::temp_dir().join(format!("dsdump-dstrace-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let quiet_path = dir.join("quiet.dstrace.json");
    let noisy_path = dir.join("noisy.dstrace.json");
    std::fs::write(&quiet_path, quiet.take().to_events_json()).unwrap();
    std::fs::write(&noisy_path, noisy.take().to_events_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--dstrace")
        .arg(&quiet_path)
        .arg(&noisy_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    let (quiet_part, noisy_part) = report.split_once("noisy.dstrace.json").unwrap();
    assert!(
        !quiet_part.contains("reliability:"),
        "fault-free summary grew a reliability line: {quiet_part}"
    );
    // Pinned: totals and the per-rank breakdown, and no tenant section
    // (the trace did not come from the serving layer).
    assert_eq!(
        noisy_part,
        r#":
  89 events across 2 ranks
  rank    events  p2p_send   p2p_bytes   coll_msgs     colls   pfs_ops   pfs_bytes      end_ms
  0           41        32         224           1         1         0           0       0.800
  1           48         0           0           1         1         0           0       0.800
  reliability: 7 retransmit(s), 12 duplicate(s) dropped, 0 peer suspicion(s)
    rank 0: 6 retransmit(s), 0 dup(s) dropped, 0 suspicion(s)
    rank 1: 1 retransmit(s), 12 dup(s) dropped, 0 suspicion(s)
  events by name:
    send                          32
    msg.retransmit                 7
    barrier                        2
    recv(coll)                     2
    send(coll)                     2
    recv                          32
    msg.dup_dropped               12
"#
    );
    assert!(!quiet_part.contains("sessions by tenant"), "{quiet_part}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_dstrace_summarizes_service_sessions_per_tenant() {
    use dstreams_serve::{
        generate, run_service, OpMix, QosLevel, ServiceConfig, TenantProfile, TrafficSpec,
    };
    use dstreams_trace::TraceSink;

    let nprocs = 2;
    let pfs = Pfs::in_memory(nprocs);
    let sink = TraceSink::new(nprocs);
    let cfg = ServiceConfig::for_model(pfs.model());
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
    let arrivals = generate(
        &TrafficSpec {
            seed: 0xD5D0,
            sessions: 8,
            ops_per_session: 4,
            mean_session_gap_ns: 10_000,
            mean_interarrival_ns: 40_000,
            zipf_s: 0.8,
            mix: OpMix::read_mostly(),
        },
        &tenants,
    );
    let p = pfs.clone();
    Machine::run(
        MachineConfig::functional(nprocs).traced(sink.clone()),
        move |ctx| run_service(ctx, &p, &cfg, &tenants, &arrivals).unwrap(),
    )
    .unwrap();

    let dir = std::env::temp_dir().join(format!("dsdump-sessions-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("service.dstrace.json");
    std::fs::write(&path, sink.take().to_events_json()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--dstrace")
        .arg(&path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    // Pinned: the tenant lines account for real work (ops ran, the cache
    // saw lookups), read from rank 0's lane.
    assert_eq!(
        report.split_once('\n').unwrap().1,
        r#"  1474 events across 2 ranks
  rank    events  p2p_send   p2p_bytes   coll_msgs     colls   pfs_ops   pfs_bytes      end_ms
  0          766         0           0         194       164        73        4372       0.281
  1          708         0           0         157       164        15         480       0.281
  sessions by tenant (rank 0 lane; identical on every rank):
    tenant 1 (premium): 30 admitted, 28 ok, 2 failed, 0 shed; ops open=6 read=17 write=4 recover=3; cache 11/15 hits (73.3%)
    tenant 2 (best_effort): 10 admitted, 8 ok, 2 failed, 0 shed; ops open=2 read=7 write=1; cache 4/5 hits (80.0%)
  events by name:
    max_time                      84
    recv(coll)                   351
    send(coll)                   351
    session.admit                 80
    barrier                      130
    broadcast                     84
    session.done                  80
    all_reduce                    10
    pack                          10
    metadata                      20
    gather                        10
    data                          20
    pfs.coll_write                10
    pfs.write                     13
    cache.miss                    10
    pfs.read                      45
    size_table                    10
    pfs.coll_read                 20
    all_gather                    10
    route                         10
    cache.insert                  10
    cache.hit                     30
    cache.invalidate               6
"#
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_dstrace_rejects_chrome_exports_and_unknown_ranks() {
    use dstreams_trace::TraceSink;

    let sink = TraceSink::new(2);
    Machine::run(MachineConfig::functional(2).traced(sink.clone()), |ctx| {
        ctx.barrier().unwrap();
    })
    .unwrap();
    let dir = std::env::temp_dir().join(format!("dsdump-reject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let chrome = dir.join("barrier.chrome.json");
    std::fs::write(&chrome, sink.take().to_chrome_json()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--dstrace")
        .arg(&chrome)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("native .dstrace.json format"), "{err}");

    // A 2-rank trace with a barrier on rank 5 (the dsverify fixture).
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../verify/tests/fixtures/rank_out_of_range.dstrace.json"
    );
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--dstrace")
        .arg(fixture)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(
        err.contains("event 2: rank 5 is out of range for a trace of 2 rank(s)"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_tail_summarizes_manifests_and_cross_checks_headers() {
    use dstreams_core::{segment_file_name, ReaderEntry, SegmentEntry, StreamManifest};

    let dir = std::env::temp_dir().join(format!("dsdump-tail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let manifest = StreamManifest {
        compacted_before: 1,
        open_segment: Some(3),
        sealed: vec![
            SegmentEntry {
                index: 1,
                records: 2,
                bytes: 100,
            },
            SegmentEntry {
                index: 2,
                records: 1,
                bytes: 40,
            },
        ],
        readers: vec![
            ReaderEntry {
                id: 1,
                next_segment: 2,
                detached: false,
            },
            ReaderEntry {
                id: 2,
                next_segment: 3,
                detached: true,
            },
        ],
    };
    let stream = dir.join("log").to_str().unwrap().to_string();
    let manifest_path = dir.join("log.stream");
    std::fs::write(&manifest_path, manifest.encode()).unwrap();
    // Sibling segment files: sealed ones carry a plain v2 header, the
    // open one the active-append flag.
    let sealed_header = FileHeader {
        version: 2,
        flags: 0,
    };
    let open_header = FileHeader {
        version: 2,
        flags: FileHeader::FLAG_ACTIVE_APPEND,
    };
    std::fs::write(segment_file_name(&stream, 1), sealed_header.encode()).unwrap();
    std::fs::write(segment_file_name(&stream, 2), sealed_header.encode()).unwrap();
    std::fs::write(segment_file_name(&stream, 3), open_header.encode()).unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--tail")
        .arg(&manifest_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("2 sealed segment(s)"), "{report}");
    assert!(report.contains("140 bytes"), "{report}");
    assert!(report.contains("1 open"), "{report}");
    assert!(report.contains("1 compacted"), "{report}");
    assert!(report.contains("open segment 3"), "{report}");
    // Reader 1 is one sealed segment behind the frontier (sealed_end 3);
    // reader 2 is caught up and detached.
    assert!(
        report.contains("reader 1: next segment 2, lag 1 segment(s)"),
        "{report}"
    );
    assert!(
        report.contains("reader 2: next segment 3, lag 0 segment(s) (detached)"),
        "{report}"
    );
    assert!(!report.contains("WARNING"), "{report}");

    // A sealed segment whose file still claims active-append is an
    // integrity violation: warn and exit 1.
    std::fs::write(segment_file_name(&stream, 2), open_header.encode()).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--tail")
        .arg(&manifest_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let report = String::from_utf8(out.stdout).unwrap();
    assert!(report.contains("WARNING"), "{report}");
    assert!(report.contains("active-append flag"), "{report}");

    // Not a manifest at all: exit 1 with a decode diagnostic.
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--tail")
        .arg(segment_file_name(&stream, 1))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr).unwrap().contains("magic"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_recover_refuses_active_append_segments() {
    let dir = std::env::temp_dir().join(format!("dsdump-active-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // An open segment mid-append: header flags it active, and the file
    // tail holds bytes a producer may still be committing. Recovery must
    // refuse to touch it rather than truncate a live stream.
    let header = FileHeader {
        version: 2,
        flags: FileHeader::FLAG_ACTIVE_APPEND,
    };
    let mut bytes = header.encode();
    bytes.extend_from_slice(b"half-written record bytes");
    let path = dir.join("live.seg000000");
    std::fs::write(&path, &bytes).unwrap();
    let before = std::fs::read(&path).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--recover")
        .arg(&path)
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "recovery of an active-append segment must fail"
    );
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("active-append"), "{err}");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        before,
        "refused recovery must leave the file untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dsdump_usage_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump")).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .arg("--help")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
    // Modes are mutually exclusive.
    let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
        .args(["--tail", "--recover", "x.stream"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

/// A stored alignment whose last template cell passes 2^64 (offset
/// 2^64 - 2, or stride 2^63) makes `dsdump` exit 1 with a message, not
/// panic on the overflow.
#[test]
fn dsdump_rejects_an_overflowing_stored_alignment() {
    let dir = std::env::temp_dir().join(format!("dsdump-align-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (stride, offset) in [(1, u64::MAX - 1), (1 << 63, 0)] {
        let mut layout = Layout::dense(8, 2, DistKind::Block).unwrap().descriptor();
        layout.align_stride = stride;
        layout.align_offset = offset;
        let mut image = FileHeader {
            version: 1,
            flags: 0,
        }
        .encode();
        image.extend_from_slice(
            &RecordHeader {
                n_elements: 8,
                n_inserts: 1,
                flags: 0,
                meta_mode: MetaMode::Parallel,
                layout,
                data_len: 8,
            }
            .encode(),
        );
        for _ in 0..8 {
            image.extend_from_slice(&1u64.to_le_bytes());
        }
        image.extend_from_slice(&[7; 8]);
        let path = dir.join(format!("align-{stride}-{offset}.dstream"));
        std::fs::write(&path, &image).unwrap();
        let out = Command::new(env!("CARGO_BIN_EXE_dsdump"))
            .arg(&path)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "({stride}, {offset}): {err}");
        assert!(err.contains("overflows"), "({stride}, {offset}): {err}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
