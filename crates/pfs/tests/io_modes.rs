//! Tests of the Paragon NX-style shared-file modes (M_LOG / M_RECORD),
//! and of removing files that are still open.

use std::collections::HashSet;

use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{OpenMode, Pfs, PfsError};

#[test]
fn m_log_appends_every_record_exactly_once() {
    let pfs = Pfs::in_memory(4);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(4), move |ctx| {
        let fh = p.open(ctx.is_root(), "log", OpenMode::Create).unwrap();
        // Each rank appends 5 distinct 8-byte records, concurrently.
        for k in 0..5u32 {
            let rec = ((ctx.rank() as u64) << 32 | k as u64).to_le_bytes();
            let off = fh.append_shared(ctx, &rec).unwrap();
            assert_eq!(off % 8, 0, "log records must pack without gaps");
        }
        ctx.barrier().unwrap();
    })
    .unwrap();

    // All 20 records present, each exactly once (order unspecified).
    assert_eq!(pfs.file_size("log").unwrap(), 20 * 8);
    let p = pfs.clone();
    let seen = Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = p.open(false, "log", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; 160];
        fh.read_at(ctx, 0, &mut buf).unwrap();
        buf.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect::<HashSet<u64>>()
    })
    .unwrap()
    .remove(0);
    let want: HashSet<u64> = (0..4u64)
        .flat_map(|r| (0..5u64).map(move |k| r << 32 | k))
        .collect();
    assert_eq!(seen, want);
}

#[test]
fn m_record_layout_is_round_robin_and_deterministic() {
    let pfs = Pfs::in_memory(3);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(3), move |ctx| {
        let fh = p.open(ctx.is_root(), "rec", OpenMode::Create).unwrap();
        for k in 0..4u8 {
            let slot = fh
                .write_record(ctx, 16, &[ctx.rank() as u8 * 10 + k])
                .unwrap();
            assert_eq!(slot, k as u64 * 3 + ctx.rank() as u64);
        }
        ctx.barrier().unwrap();
        // Any rank can read any slot: check rank 1's 3rd record.
        let rec = fh.read_record(ctx, 16, 2 * 3 + 1).unwrap();
        assert_eq!(rec[0], 12);
        assert!(rec[1..].iter().all(|&b| b == 0), "zero padding");
    })
    .unwrap();
    assert_eq!(pfs.file_size("rec").unwrap(), 12 * 16);
}

#[test]
fn m_record_rejects_oversized_records() {
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let fh = p.open(ctx.is_root(), "r", OpenMode::Create).unwrap();
        let err = fh.write_record(ctx, 4, &[0u8; 5]).unwrap_err();
        assert!(matches!(err, PfsError::CollectiveMismatch(_)));
    })
    .unwrap();
}

#[test]
fn m_record_files_reconstruct_rank_streams() {
    // The classic M_RECORD use: per-rank record streams in one file, read
    // back by a post-processor that walks one rank's slots.
    let pfs = Pfs::in_memory(2);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(2), move |ctx| {
        let fh = p.open(ctx.is_root(), "s", OpenMode::Create).unwrap();
        for k in 0..3u64 {
            fh.write_record(ctx, 8, &(ctx.rank() as u64 * 100 + k).to_le_bytes())
                .unwrap();
        }
        ctx.barrier().unwrap();
        // Walk rank 1's stream from any rank.
        let vals: Vec<u64> = (0..3u64)
            .map(|k| {
                let rec = fh.read_record(ctx, 8, k * 2 + 1).unwrap();
                u64::from_le_bytes(rec.as_slice().try_into().unwrap())
            })
            .collect();
        assert_eq!(vals, vec![100, 101, 102]);
    })
    .unwrap();
}

#[test]
fn disk_backed_pfs_persists_across_instances() {
    use dstreams_pfs::{Backend, DiskModel};
    let dir = std::env::temp_dir().join(format!("dstreams-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First "process": write a file.
    {
        let pfs = Pfs::new(2, DiskModel::instant(), Backend::Disk(dir.clone()));
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(2), move |ctx| {
            let fh = p
                .open(ctx.is_root(), "state.bin", OpenMode::Create)
                .unwrap();
            fh.write_ordered(ctx, &[ctx.rank() as u8 + 1; 6]).unwrap();
        })
        .unwrap();
    }

    // Second "process": attach without truncation and read back.
    let pfs = Pfs::attach_disk(2, DiskModel::instant(), dir.clone()).unwrap();
    assert_eq!(pfs.file_size("state.bin").unwrap(), 12);
    let p = pfs.clone();
    Machine::run(MachineConfig::functional(1), move |ctx| {
        let fh = p.open(false, "state.bin", OpenMode::Read).unwrap();
        let mut buf = vec![0u8; 12];
        fh.read_at(ctx, 0, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
    })
    .unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Removing a file a handle still has open drops only the name: the
/// handle keeps reading its bytes, and creating the name again starts a
/// new, empty file. Both backends.
#[test]
fn removed_open_file_keeps_its_bytes_when_the_name_is_recreated() {
    use dstreams_pfs::{Backend, DiskModel};
    let dir = std::env::temp_dir().join(format!("dstreams-unlink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for backend in [Backend::Memory, Backend::Disk(dir.clone())] {
        let label = format!("{backend:?}");
        let pfs = Pfs::new(1, DiskModel::instant(), backend);
        let p = pfs.clone();
        Machine::run(MachineConfig::functional(1), move |ctx| {
            let old = p.open(true, "f", OpenMode::Create).unwrap();
            old.write_at(ctx, 0, b"old bytes").unwrap();
            p.remove("f").unwrap();
            assert!(!p.exists("f"), "{label}");
            let new = p.open(true, "f", OpenMode::Create).unwrap();
            assert_eq!(new.len(), 0, "{label}: the recreated name starts empty");
            new.write_at(ctx, 0, b"new").unwrap();
            let mut buf = [0u8; 9];
            old.read_at(ctx, 0, &mut buf).unwrap();
            assert_eq!(
                &buf, b"old bytes",
                "{label}: the open handle lost its bytes"
            );
            let mut buf = [0u8; 3];
            new.read_at(ctx, 0, &mut buf).unwrap();
            assert_eq!(&buf, b"new", "{label}");
        })
        .unwrap();
        assert_eq!(pfs.file_size("f").unwrap(), 3);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
