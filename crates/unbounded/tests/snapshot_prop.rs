//! Property: sealed-snapshot isolation holds over *arbitrary*
//! interleavings of producer and reader operations.
//!
//! A generated program mixes append / seal / attach / poll / detach in
//! any order, under any retention budget, on 1 or 2 ranks. A model
//! interpreter runs the same program against plain counters and checks,
//! at every step, the subsystem's three isolation claims:
//!
//! * a reader attached with its cursor at segment `k` consumes exactly
//!   `k..sealed_at_read` — contiguous, in order, element-exact, with no
//!   segment skipped, repeated, torn, or resurrected;
//! * a poll past the sealed frontier consumes nothing (open segments
//!   are invisible);
//! * retention never compacts a segment at or above a live reader's
//!   cursor, and always retains the newest sealed segment.

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{manifest_file_name, StreamError, StreamManifest};
use dstreams_machine::{Machine, MachineConfig, NodeCtx};
use dstreams_pfs::{OpenMode, Pfs};
use dstreams_unbounded::{AppendOptions, AppendStream, TailReader};
use proptest::prelude::*;

const STREAM: &str = "prop";
const ELEMENTS: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Append one record to the open segment.
    Append,
    /// Seal the open segment (a no-record seal must be rejected).
    Seal,
    /// Attach a tail reader into the first free slot (skip if both busy).
    Attach,
    /// Poll reader in the given slot once (skip if empty).
    Poll(usize),
    /// Detach the reader in the given slot (skip if empty).
    Detach(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Append),
        Just(Op::Append),
        Just(Op::Append),
        Just(Op::Seal),
        Just(Op::Seal),
        Just(Op::Attach),
        (0usize..2).prop_map(Op::Poll),
        (0usize..2).prop_map(Op::Poll),
        (0usize..2).prop_map(Op::Detach),
    ]
}

/// The unique payload of element `gid` in record `rec` of segment `seg`.
fn val(seg: u64, rec: u64, gid: usize) -> u64 {
    seg * 10_000 + rec * 100 + gid as u64
}

/// Read the on-disk manifest directly, so invariants are checked against
/// what is actually durable rather than any in-memory state. Like the
/// library's own manifest load, root checks for the file, reads it and
/// broadcasts the bytes: an independent read on every rank could race
/// root already rewriting the manifest in the next collective.
fn read_manifest(ctx: &NodeCtx, pfs: &Pfs) -> StreamManifest {
    let name = manifest_file_name(STREAM);
    let bytes = if ctx.is_root() && pfs.exists(&name) {
        let fh = pfs.open(false, &name, OpenMode::Read).unwrap();
        let mut b = vec![0u8; fh.len() as usize];
        fh.read_at(ctx, 0, &mut b).unwrap();
        b
    } else {
        Vec::new()
    };
    let bytes = ctx.broadcast(0, bytes).unwrap();
    if bytes.is_empty() {
        StreamManifest::default()
    } else {
        StreamManifest::decode(&bytes).unwrap()
    }
}

/// One model reader: the live handle plus where the model says its
/// cursor is and where it attached.
struct ModelReader<'a> {
    handle: TailReader<'a>,
    cursor: u64,
    attached_at: u64,
    consumed: Vec<u64>,
}

/// Poll `r` once; the model predicts whether a segment is available and
/// exactly which one, and the closure verifies it element-exactly.
fn checked_poll(
    ctx: &NodeCtx,
    l: &Layout,
    r: &mut ModelReader<'_>,
    sealed_end: u64,
    records_of: &[u64],
) {
    let expect = r.cursor < sealed_end;
    let cursor = r.cursor;
    let advanced = r
        .handle
        .poll(|is, entry| {
            assert_eq!(entry.index, cursor, "reader consumed out of order");
            assert_eq!(
                entry.records, records_of[entry.index as usize],
                "segment {} torn: record count changed after seal",
                entry.index
            );
            let mut g = Collection::new(ctx, l.clone(), |_| 0u64)?;
            for rec in 0..entry.records {
                is.read()?;
                is.extract_collection(&mut g)?;
                for (gid, v) in g.iter() {
                    assert_eq!(
                        *v,
                        val(entry.index, rec, gid),
                        "segment {} record {rec} not element-exact",
                        entry.index
                    );
                }
            }
            Ok(())
        })
        .unwrap();
    assert_eq!(
        advanced, expect,
        "poll at cursor {cursor} with sealed frontier {sealed_end}"
    );
    if advanced {
        r.consumed.push(cursor);
        r.cursor += 1;
    }
}

/// Interpret `ops` against the live subsystem and the model in lockstep.
fn interpret(nprocs: usize, retention: Option<u64>, ops: &[Op]) {
    let pfs = Pfs::in_memory(nprocs);
    let p = pfs.clone();
    let ops = ops.to_vec();
    Machine::run(MachineConfig::functional(nprocs), move |ctx| {
        let l = Layout::dense(ELEMENTS, ctx.nprocs(), DistKind::Block).unwrap();
        let opts = AppendOptions {
            window_depth: 2,
            retention_bytes: retention,
            ..Default::default()
        };
        let mut s = AppendStream::create_with(ctx, &p, &l, STREAM, opts).unwrap();
        // Model state: the open segment's record count, the sealed
        // frontier (== the next segment index; indices never reuse), and
        // per-segment record counts for torn-read detection.
        let mut open_records = 0u64;
        let mut next_seg = 0u64;
        let mut records_of: Vec<u64> = Vec::new();
        let mut readers: [Option<ModelReader>; 2] = [None, None];
        for op in &ops {
            match op {
                Op::Append => {
                    let c = {
                        let (seg, rec) = (next_seg, open_records);
                        Collection::new(ctx, l.clone(), move |g| val(seg, rec, g)).unwrap()
                    };
                    s.insert_collection(&c).unwrap();
                    s.append().unwrap();
                    open_records += 1;
                    assert_eq!(s.open_segment(), Some(next_seg));
                }
                Op::Seal => {
                    if open_records == 0 {
                        assert!(
                            matches!(s.seal(), Err(StreamError::StateViolation { .. })),
                            "empty seal must be rejected"
                        );
                        continue;
                    }
                    s.seal().unwrap();
                    records_of.push(open_records);
                    open_records = 0;
                    next_seg += 1;
                    // Retention invariants, read back from disk: never
                    // past a live reader, never the newest sealed.
                    let m = read_manifest(ctx, &p);
                    assert_eq!(m.sealed_end(), next_seg);
                    assert!(
                        !m.sealed.is_empty(),
                        "the newest sealed segment must always be retained"
                    );
                    let floor = readers.iter().flatten().map(|r| r.cursor).min();
                    if let Some(f) = floor {
                        assert!(
                            m.compacted_before <= f,
                            "compacted_before {} ran past live reader cursor {f}",
                            m.compacted_before
                        );
                    }
                }
                Op::Attach => {
                    let Some(slot) = readers.iter().position(Option::is_none) else {
                        continue;
                    };
                    let m = read_manifest(ctx, &p);
                    let expected = m.sealed.first().map_or(m.sealed_end(), |e| e.index);
                    let handle = TailReader::attach(ctx, &p, &l, STREAM).unwrap();
                    assert_eq!(
                        handle.next_segment(),
                        expected,
                        "attach must start at the oldest retained segment \
                         (or the frontier when nothing is retained)"
                    );
                    readers[slot] = Some(ModelReader {
                        cursor: expected,
                        attached_at: expected,
                        handle,
                        consumed: Vec::new(),
                    });
                }
                Op::Poll(slot) => {
                    if let Some(r) = readers[*slot].as_mut() {
                        checked_poll(ctx, &l, r, next_seg, &records_of);
                    }
                }
                Op::Detach(slot) => {
                    if let Some(r) = readers[*slot].take() {
                        r.handle.detach().unwrap();
                    }
                }
            }
        }
        // Drain every surviving reader to the frontier: each must have
        // seen exactly `attached_at..sealed_end`, nothing else, ever.
        for slot in readers.iter_mut() {
            if let Some(r) = slot.as_mut() {
                while r.cursor < next_seg {
                    checked_poll(ctx, &l, r, next_seg, &records_of);
                }
                checked_poll(ctx, &l, r, next_seg, &records_of); // one past: no-op
                let expected: Vec<u64> = (r.attached_at..next_seg).collect();
                assert_eq!(
                    r.consumed, expected,
                    "reader attached at {} did not see exactly its suffix \
                     of the sealed prefix",
                    r.attached_at
                );
            }
            if let Some(r) = slot.take() {
                r.handle.detach().unwrap();
            }
        }
        s.close().unwrap();
    })
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn arbitrary_interleavings_preserve_snapshot_isolation(
        nprocs in 1usize..3,
        retention in prop_oneof![
            Just(None),
            Just(Some(1u64)),
            Just(Some(4096u64)),
        ],
        ops in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        interpret(nprocs, retention, &ops);
    }
}
