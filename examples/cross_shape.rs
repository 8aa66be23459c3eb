//! Cross-shape read: a checkpoint written by 64 ranks is read back on 8.
//!
//! The writer machine lays a 4096-element grid out BLOCK-CYCLIC(3) over
//! 64 processors and checkpoints it. The reader machine — a quarter the
//! size, BLOCK-distributed — just calls `read()`: the file is
//! self-describing, so the two-phase redistribution planner computes,
//! from the stored layout and the size table alone, the exact minimum
//! set of bytes that must change ranks, and ships only those. The run
//! prints the measured shuttle traffic next to the plan's analytic lower
//! bound; they are equal by construction, and this program asserts it.
//!
//! Run with: `cargo run --example cross_shape`
//!
//! Set `DSTREAMS_TRACE_OUT=<prefix>` to dump the reader's event log as
//! `<prefix>.dstrace.json`, ready for `dsverify` (whose
//! redist-conservation rule re-checks every transfer in the trace).

use dstreams::prelude::*;
use dstreams::trace::TraceSink;
use dstreams_core::to_bytes;

const WRITERS: usize = 64;
const READERS: usize = 8;
const N: usize = 4096;

/// Variable-sized grid element: gid-dependent length and contents.
fn element(g: usize) -> Vec<u8> {
    (0..(g % 7) + 1).map(|k| (g * 31 + k) as u8).collect()
}

fn main() {
    let pfs = Pfs::in_memory(WRITERS.max(READERS));

    // ---- 64 writers, BLOCK-CYCLIC(3) ------------------------------------
    let p = pfs.clone();
    Machine::run(MachineConfig::paragon(WRITERS), move |ctx| {
        let layout = Layout::dense(N, WRITERS, DistKind::BlockCyclic(3)).unwrap();
        let g = Collection::new(ctx, layout.clone(), element).unwrap();
        let mut s = OStream::create(ctx, &p, &layout, "ckpt").unwrap();
        s.insert_collection(&g).unwrap();
        s.write().unwrap();
        s.close().unwrap();
        if ctx.is_root() {
            println!(
                "wrote ckpt: {N} elements, {} ranks, BLOCK-CYCLIC(3), {} bytes",
                WRITERS,
                p.file_size("ckpt").unwrap()
            );
        }
    })
    .unwrap();

    // The plan's lower bound, computed exactly as the readers will:
    // element sizes in file order, destination owners from the new shape.
    let wlayout = Layout::dense(N, WRITERS, DistKind::BlockCyclic(3)).unwrap();
    let rlayout = Layout::dense(N, READERS, DistKind::Block).unwrap();
    let mut sizes = Vec::with_capacity(N);
    let mut dst = Vec::with_capacity(N);
    for gid in wlayout.file_order() {
        sizes.push(to_bytes(&element(gid), false).len() as u64);
        dst.push(rlayout.owner(gid).unwrap());
    }
    let lower_bound = RedistPlan::new(READERS, &sizes, &dst).lower_bound();

    // ---- 8 readers, BLOCK -----------------------------------------------
    let sink = TraceSink::new(READERS);
    let p = pfs.clone();
    Machine::run(
        MachineConfig::paragon(READERS).traced(sink.clone()),
        move |ctx| {
            let layout = Layout::dense(N, READERS, DistKind::Block).unwrap();
            let mut g = Collection::new(ctx, layout.clone(), |_| Vec::<u8>::new()).unwrap();
            let mut r = IStream::open(ctx, &p, &layout, "ckpt").unwrap();
            r.read().unwrap();
            r.extract_collection(&mut g).unwrap();
            r.close().unwrap();
            for (gid, v) in g.iter() {
                assert_eq!(*v, element(gid), "element {gid} corrupted crossing shapes");
            }
            if ctx.is_root() {
                println!(
                    "read ckpt on {READERS} ranks (BLOCK): element-exact, \
                     simulated time {}",
                    ctx.now()
                );
            }
        },
    )
    .unwrap();

    let trace = sink.take();
    let counts = trace.op_counts();
    println!(
        "redistribution: {} transfers, {} elements, {} bytes shuttled \
         (analytic minimum: {lower_bound} bytes)",
        counts.redist_shuttles, counts.redist_shuttle_elements, counts.redist_shuttle_bytes
    );
    assert_eq!(
        counts.redist_shuttle_bytes, lower_bound,
        "planner moved more than the analytic minimum"
    );

    if let Ok(prefix) = std::env::var("DSTREAMS_TRACE_OUT") {
        let path = format!("{prefix}.dstrace.json");
        std::fs::write(&path, trace.to_events_json()).unwrap();
        println!("  trace: {path}");
    }
}
