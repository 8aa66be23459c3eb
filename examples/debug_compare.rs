//! Debugging — the paper's third motivating task.
//!
//! "During the parallelization process application developers often need
//! to compare results of parallel and sequential runs on the same
//! problem, to confirm that parallelization has not introduced bugs."
//!
//! A reference computation runs sequentially (1 rank) and dumps its
//! distributed result through a d/stream; the parallelized version runs
//! on 6 ranks with a different distribution and dumps to a second file.
//! A comparison pass then reads *both* files on yet another machine shape
//! and diffs them element by element — the sorted `read` guarantees
//! index-faithful comparison no matter who wrote what where. A deliberate
//! bug can be injected to show the diff catching it.
//!
//! Run with: `cargo run --example debug_compare [--inject-bug]`

use dstreams::prelude::*;
use dstreams_core::impl_stream_data;
use dstreams_machine::wire::Reader;

const N: usize = 18;
const STEPS: usize = 4;

/// A cell of a 1-D stencil computation with a variable-length history.
#[derive(Debug, Default, Clone, PartialEq)]
struct Cell {
    value: f64,
    n_history: i64,
    history: Vec<f64>,
}

impl_stream_data!(Cell {
    prim value,
    prim n_history,
    slice history: f64 [n_history],
});

fn init(i: usize) -> Cell {
    Cell {
        value: (i as f64 * 0.37).sin(),
        n_history: 0,
        history: Vec::new(),
    }
}

/// One Jacobi-ish relaxation step. Needs neighbor values, which ranks
/// exchange through a gather (simple, fine at this scale).
fn step(ctx: &NodeCtx, grid: &mut Collection<Cell>, inject_bug: bool) {
    // Snapshot all values everywhere (tiny N).
    let mut mine = Vec::new();
    for (g, c) in grid.iter() {
        mine.extend_from_slice(&(g as u64).to_le_bytes());
        mine.extend_from_slice(&c.value.to_le_bytes());
    }
    let all = ctx.all_gather(mine).unwrap();
    let mut values = [0.0f64; N];
    for buf in &all {
        let mut r = Reader::new(buf);
        while r.remaining() > 0 {
            let g = r.u64().unwrap() as usize;
            values[g] = f64::from_bits(r.u64().unwrap());
        }
    }
    grid.apply_indexed(|g, c| {
        let left = if g == 0 { 0.0 } else { values[g - 1] };
        let right = if g == N - 1 { 0.0 } else { values[g + 1] };
        c.history.push(c.value);
        c.n_history += 1;
        let mut next = 0.25 * left + 0.5 * values[g] + 0.25 * right;
        if inject_bug && g == 7 {
            next += 1e-3; // the "parallelization bug"
        }
        c.value = next;
    });
}

fn run_and_dump(nprocs: usize, kind: DistKind, pfs: &Pfs, file: &str, inject_bug: bool) {
    let p = pfs.clone();
    let file = file.to_string();
    Machine::run(MachineConfig::sgi_challenge(nprocs), move |ctx| {
        let layout = Layout::dense(N, nprocs, kind).unwrap();
        let mut grid = Collection::new(ctx, layout.clone(), init).unwrap();
        for _ in 0..STEPS {
            step(ctx, &mut grid, inject_bug);
        }
        let mut s = OStream::create(ctx, &p, &layout, &file).unwrap();
        s.insert_collection(&grid).unwrap();
        s.write().unwrap();
        s.close().unwrap();
    })
    .unwrap();
}

fn main() {
    let inject_bug = std::env::args().any(|a| a == "--inject-bug");
    let pfs = Pfs::in_memory(6);

    // Sequential reference, then the parallel version under test.
    run_and_dump(1, DistKind::Block, &pfs, "seq.dstream", false);
    run_and_dump(6, DistKind::Cyclic, &pfs, "par.dstream", inject_bug);
    println!(
        "dumped sequential (1 rank) and parallel (6 ranks) results{}",
        if inject_bug {
            " — with an injected bug"
        } else {
            ""
        }
    );

    // Compare on a third machine shape: 3 ranks, BLOCK-CYCLIC.
    let p = pfs.clone();
    let diffs = Machine::run(MachineConfig::sgi_challenge(3), move |ctx| {
        let layout = Layout::dense(N, 3, DistKind::BlockCyclic(2)).unwrap();
        let mut a = Collection::new(ctx, layout.clone(), |_| Cell::default()).unwrap();
        let mut b = Collection::new(ctx, layout.clone(), |_| Cell::default()).unwrap();
        for (file, c) in [("seq.dstream", &mut a), ("par.dstream", &mut b)] {
            let mut r = IStream::open(ctx, &p, &layout, file).unwrap();
            r.read().unwrap();
            r.extract_collection(c).unwrap();
            r.close().unwrap();
        }
        let mut local_diffs = 0usize;
        for ((g, ca), (_, cb)) in a.iter().zip(b.iter()) {
            if ca != cb {
                println!(
                    "  cell {g}: sequential value {:.9} vs parallel {:.9}",
                    ca.value, cb.value
                );
                local_diffs += 1;
            }
        }
        ctx.all_reduce(local_diffs as u64, |x, y| x + y).unwrap()
    })
    .unwrap()[0];

    if diffs == 0 {
        println!("debug_compare: parallel run matches the sequential reference exactly");
        assert!(!inject_bug, "the injected bug should have been caught");
    } else {
        println!("debug_compare: {diffs} cell(s) differ — parallelization bug detected");
        assert!(inject_bug, "found differences without an injected bug!");
        std::process::exit(1);
    }
}
