//! Property tests on the machine's collective operations: they must agree
//! with their sequential definitions for arbitrary machine sizes, payload
//! sizes, and roots, and the collective cell must be indistinguishable
//! from the wire path it replaces on fault-free machines.

use dstreams_machine::wire::frame_blocks;
use dstreams_machine::{
    FaultPlan, Gathered, Local, Machine, MachineConfig, MachineError, MsgFaultPlan, NodeCtx,
    RankIo, VTime, Wire,
};
use dstreams_trace::{EventKind, IndependentRegime, OpCounts, PfsOp, TraceSink};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn broadcast_delivers_the_roots_payload(
        nprocs in 1usize..7,
        root_pick in any::<usize>(),
        len in 0usize..200,
    ) {
        let root = root_pick % nprocs;
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let mine: Vec<u8> = (0..len).map(|k| (ctx.rank() + k) as u8).collect();
            ctx.broadcast(root, mine).unwrap()
        }).unwrap();
        let want: Vec<u8> = (0..len).map(|k| (root + k) as u8).collect();
        for got in out {
            prop_assert_eq!(&got, &want);
        }
    }

    #[test]
    fn all_to_all_is_a_transpose(
        nprocs in 1usize..7,
        salt in any::<u8>(),
    ) {
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            // parts[to] has a (from, to)-dependent length and content.
            let parts: Vec<Vec<u8>> = (0..nprocs)
                .map(|to| vec![salt ^ (ctx.rank() * 16 + to) as u8; (ctx.rank() + to) % 5])
                .collect();
            ctx.all_to_all(parts).unwrap()
        }).unwrap();
        for (me, got) in out.iter().enumerate() {
            for (from, buf) in got.iter().enumerate() {
                prop_assert_eq!(buf, &vec![salt ^ (from * 16 + me) as u8; (from + me) % 5]);
            }
        }
    }

    #[test]
    fn reduce_equals_the_sequential_fold(
        nprocs in 1usize..7,
        values in proptest::collection::vec(any::<u32>(), 7),
        root_pick in any::<usize>(),
    ) {
        let root = root_pick % nprocs;
        let vals = values.clone();
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let v = vals[ctx.rank() % vals.len()] as u64;
            (
                ctx.reduce(root, v, |a, b| a.wrapping_add(b)).unwrap(),
                ctx.all_reduce(v, |a: u64, b| a.wrapping_add(b)).unwrap(),
            )
        }).unwrap();
        let want: u64 = (0..nprocs)
            .map(|r| values[r % values.len()] as u64)
            .fold(0u64, |a, b| a.wrapping_add(b));
        for (rank, (red, allred)) in out.iter().enumerate() {
            prop_assert_eq!(*allred, want);
            if rank == root {
                prop_assert_eq!(*red, Some(want));
            } else {
                prop_assert!(red.is_none());
            }
        }
    }

    #[test]
    fn gather_scatter_are_inverses(
        nprocs in 1usize..7,
        salt in any::<u8>(),
    ) {
        Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let mine = vec![salt ^ ctx.rank() as u8; ctx.rank() + 1];
            let gathered = ctx.gather(0, mine.clone()).unwrap();
            let parts = gathered.map(|g| g.to_vec());
            let back = ctx.scatter(0, parts).unwrap();
            assert_eq!(back, mine);
        }).unwrap();
    }

    #[test]
    fn barrier_times_are_identical_across_ranks(
        nprocs in 2usize..7,
        work in proptest::collection::vec(0u64..10_000, 7),
    ) {
        let w = work.clone();
        let times = Machine::run(MachineConfig::paragon(nprocs), move |ctx| {
            ctx.advance(VTime::from_micros(w[ctx.rank() % w.len()]));
            ctx.barrier().unwrap();
            // After a barrier every clock is at least the slowest rank's.
            ctx.now()
        }).unwrap();
        let slowest = (0..nprocs)
            .map(|r| VTime::from_micros(work[r % work.len()]))
            .fold(VTime::ZERO, VTime::max);
        for t in times {
            prop_assert!(t >= slowest);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn scans_match_their_sequential_definitions(
        nprocs in 1usize..7,
        values in proptest::collection::vec(any::<u32>(), 7),
    ) {
        let vals = values.clone();
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let v = vals[ctx.rank() % vals.len()] as u64;
            (
                ctx.scan(v, |a, b| a.wrapping_add(*b)).unwrap(),
                ctx.exclusive_scan(v, 0u64, |a, b| a.wrapping_add(*b)).unwrap(),
            )
        })
        .unwrap();
        let mut acc = 0u64;
        for (r, (inc, exc)) in out.iter().enumerate() {
            let v = values[r % values.len()] as u64;
            prop_assert_eq!(*exc, acc, "exclusive prefix at rank {}", r);
            acc = acc.wrapping_add(v);
            prop_assert_eq!(*inc, acc, "inclusive prefix at rank {}", r);
        }
    }
}

/// A replicated-local program whose tail hangs on rank 0's verdict: a
/// probe, then (if it says yes) an act between barriers, then an act whose
/// bytes every rank receives.
const LOCAL_PROGRAM: [Local; 9] = [
    Local::Barrier,
    Local::Act,
    Local::Broadcast,
    Local::IfSet(2),
    Local::Act,
    Local::Barrier,
    Local::Barrier,
    Local::Act,
    Local::Broadcast,
];

/// Rank 0's `k`-th act of [`LOCAL_PROGRAM`] under `code`: it charges rank
/// 0's clock and records an event on its trace, as a PFS access would.
/// Act 0 is the verdict (bit 20 of `code`); the others return bytes.
fn act(io: &dyn RankIo, code: u64, k: usize) -> Result<Vec<u8>, MachineError> {
    let cost = VTime::from_nanos((code >> (4 * k)) % 9_000);
    io.advance(cost);
    let op = io.next_pfs_op();
    if io.tracing() {
        io.emit(EventKind::PfsIndependent {
            op: PfsOp::Write,
            file: "local".into(),
            offset: op,
            bytes: 8,
            regime: IndependentRegime::Cached,
            cost_ns: cost.as_nanos(),
        });
    }
    Ok(match k {
        0 => vec![u8::from(code >> 20 & 1 == 1)],
        k => vec![k as u8; (code >> 24) as usize % 20 + k],
    })
}

/// The calls [`LOCAL_PROGRAM`] stands for, made separately.
fn local_separately(ctx: &NodeCtx, code: u64) -> Vec<u8> {
    let root = ctx.is_root();
    let on_root = |k| {
        if root {
            act(ctx, code, k).unwrap()
        } else {
            Vec::new()
        }
    };
    ctx.barrier().unwrap();
    let verdict = on_root(0);
    if ctx.broadcast(0, verdict).unwrap() == [1] {
        on_root(1);
        ctx.barrier().unwrap();
    }
    ctx.barrier().unwrap();
    let last = on_root(2);
    ctx.broadcast(0, last).unwrap()
}

/// One generated SPMD program: a sequence of call codes (each picks a
/// collective or a point-to-point ring and derives its root, payload
/// length and operand from the code) and one clock skew per rank.
struct Program {
    nprocs: usize,
    paragon: bool,
    calls: Vec<u64>,
    skews: Vec<u64>,
}

/// A rank's results, one entry per call, and its final clock.
type RankOut = (Vec<Vec<Vec<u8>>>, VTime);

/// Run `prog` traced, on the collective cell (no fault plan) or on the
/// wire (an inert message plan seeded with `wire_seed`). Returns every
/// rank's results and clock, the merged trace and its operation counts.
fn run_program(prog: &Program, wire_seed: Option<u64>) -> (Vec<RankOut>, String, OpCounts) {
    let n = prog.nprocs;
    let sink = TraceSink::new(n);
    let mut config = if prog.paragon {
        MachineConfig::paragon(n)
    } else {
        MachineConfig::functional(n)
    }
    .traced(sink.clone());
    if let Some(seed) = wire_seed {
        config = config.with_faults(FaultPlan::default().with_msg(MsgFaultPlan::seeded(seed)));
    }
    let outs = Machine::run(config, |ctx| {
        let me = ctx.rank();
        let mut results = Vec::new();
        for (i, &code) in prog.calls.iter().enumerate() {
            ctx.advance(VTime::from_nanos(prog.skews[me] * ((i + me) % 3) as u64));
            let root = (code >> 8) as usize % n;
            let len = (code >> 16) as usize % 40;
            let payload = |salt: usize| -> Vec<u8> {
                (0..len + salt % 5)
                    .map(|k| (code as usize ^ salt ^ k) as u8)
                    .collect()
            };
            let operand_of = |r: usize| code.rotate_left(r as u32 * 7);
            let operand = operand_of(me);
            // Order-sensitive operators, so a fold in the wrong order shows.
            let fold = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
            let prefix = |a: &u64, b: &u64| a.wrapping_mul(7) ^ *b;
            // A root step that frames the gathered buffers behind a
            // code-dependent header: a pure function of its inputs.
            let plan = |frames: Gathered<'_>| {
                let mut blocks = vec![code.to_le_bytes().to_vec()];
                blocks.extend(frames.iter().map(<[u8]>::to_vec));
                Ok(frame_blocks(&blocks))
            };
            let res: Vec<Vec<u8>> = match code % 16 {
                0 => {
                    ctx.barrier().unwrap();
                    Vec::new()
                }
                1 => vec![ctx.broadcast(root, payload(me)).unwrap()],
                2 => ctx.gather(root, payload(me)).unwrap().unwrap_or_default(),
                3 => ctx.all_gather(payload(me)).unwrap(),
                4 => {
                    let parts = (me == root).then(|| (0..n).map(payload).collect());
                    vec![ctx.scatter(root, parts).unwrap()]
                }
                5 => ctx
                    .all_to_all((0..n).map(|to| payload(me * n + to)).collect())
                    .unwrap(),
                6 => ctx
                    .reduce(root, operand, fold)
                    .unwrap()
                    .iter()
                    .map(Wire::to_wire)
                    .collect(),
                7 => {
                    let got = ctx.all_reduce(operand, fold).unwrap();
                    // Rank 0's operand first, then the others in rank order.
                    assert_eq!(
                        got,
                        (1..n).fold(operand_of(0), |a, r| fold(a, operand_of(r)))
                    );
                    vec![got.to_wire()]
                }
                8 => vec![ctx.scan(operand, prefix).unwrap().to_wire()],
                9 => vec![ctx.exclusive_scan(operand, 5, prefix).unwrap().to_wire()],
                10 => vec![ctx.max_time().unwrap().to_wire()],
                11 => vec![ctx.sync_clocks().unwrap().to_wire()],
                12 => vec![ctx
                    .barrier_gather_plan_broadcast(root, payload(me), plan)
                    .unwrap()],
                13 => vec![ctx
                    .replicated_local(&LOCAL_PROGRAM, |io, k| act(io, code, k))
                    .unwrap()],
                14 => vec![ctx.gather_plan_broadcast(root, payload(me), plan).unwrap()],
                _ => {
                    // Point-to-point ring traffic between collectives.
                    if n == 1 {
                        Vec::new()
                    } else {
                        ctx.send((me + 1) % n, 3, &payload(me)).unwrap();
                        vec![ctx.recv((me + n - 1) % n, 3).unwrap()]
                    }
                }
            };
            results.push(res);
        }
        // Replicated-local acts number rank 0's PFS operations.
        results.push(vec![ctx.pfs_op_count().to_wire()]);
        (results, ctx.now())
    })
    .unwrap();
    let trace = sink.take();
    let counts = trace.op_counts();
    (outs, trace.to_events_json(), counts)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    /// The collective cell and the wire run one hop schedule: any program
    /// of collectives, fused programs among them, gives identical
    /// results, clocks, traces and operation counts on both paths.
    #[test]
    fn cell_and_wire_paths_are_indistinguishable(
        nprocs in 1usize..10,
        paragon in any::<bool>(),
        calls in proptest::collection::vec(any::<u64>(), 1..24),
        skews in proptest::collection::vec(0u64..50_000, 9),
        wire_seed in any::<u64>(),
    ) {
        let prog = Program { nprocs, paragon, calls, skews };
        let (cell_out, cell_trace, cell_counts) = run_program(&prog, None);
        let (wire_out, wire_trace, wire_counts) = run_program(&prog, Some(wire_seed));
        prop_assert_eq!(&cell_out, &wire_out, "results or clocks differ");
        prop_assert_eq!(&cell_trace, &wire_trace, "traces differ");
        prop_assert_eq!(&cell_counts, &wire_counts);
    }
}

/// Run `calls` fused programs, or the separate collectives each stands
/// for, traced on `nprocs` ranks (on the wire when `wire`). Returns every
/// rank's results and clock, and the merged trace.
fn run_fused(nprocs: usize, calls: &[u64], fused: bool, wire: bool) -> (Vec<RankOut>, String) {
    let sink = TraceSink::new(nprocs);
    let mut config = MachineConfig::paragon(nprocs).traced(sink.clone());
    if wire {
        config = config.with_faults(FaultPlan::default().with_msg(MsgFaultPlan::seeded(1)));
    }
    let outs = Machine::run(config, |ctx| {
        let me = ctx.rank();
        let mut results = Vec::new();
        for &code in calls {
            ctx.advance(VTime::from_nanos(code % 7_000 * me as u64));
            let root = (code >> 8) as usize % nprocs;
            let data = vec![me as u8; (code >> 16) as usize % 30];
            let plan = |frames: Vec<&[u8]>| {
                let mut blocks = vec![code.to_le_bytes().to_vec()];
                blocks.extend(frames.iter().map(|f| f.to_vec()));
                frame_blocks(&blocks)
            };
            let res = match (code % 3, fused) {
                (0, true) => ctx
                    .barrier_gather_plan_broadcast(root, data, |g| Ok(plan(g.iter().collect())))
                    .unwrap(),
                (1, true) => ctx
                    .gather_plan_broadcast(root, data, |g| Ok(plan(g.iter().collect())))
                    .unwrap(),
                (_, true) => ctx
                    .replicated_local(&LOCAL_PROGRAM, |io, k| act(io, code, k))
                    .unwrap(),
                (2, false) => local_separately(ctx, code),
                (head, false) => {
                    if head == 0 {
                        ctx.barrier().unwrap();
                    }
                    let gathered = ctx.gather(root, data).unwrap();
                    let mine = gathered
                        .map(|g| plan(g.iter().map(Vec::as_slice).collect()))
                        .unwrap_or_default();
                    ctx.broadcast(root, mine).unwrap()
                }
            };
            results.push(vec![res]);
        }
        results.push(vec![ctx.pfs_op_count().to_wire()]);
        (results, ctx.now())
    })
    .unwrap();
    (outs, sink.take().to_events_json())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A fused program is its separate collectives in one rendezvous:
    /// same results, clocks and trace, on either executor.
    #[test]
    fn fused_programs_equal_their_separate_calls(
        nprocs in 1usize..8,
        calls in proptest::collection::vec(any::<u64>(), 1..10),
        wire in any::<bool>(),
    ) {
        let fused = run_fused(nprocs, &calls, true, wire);
        let separate = run_fused(nprocs, &calls, false, wire);
        prop_assert_eq!(&fused.0, &separate.0, "results or clocks differ");
        prop_assert_eq!(&fused.1, &separate.1, "traces differ");
    }
}
