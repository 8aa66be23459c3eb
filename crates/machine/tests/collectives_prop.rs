//! Property tests on the machine's collective operations: they must agree
//! with their sequential definitions for arbitrary machine sizes, payload
//! sizes, and roots, and the collective cell must be indistinguishable
//! from the wire path it replaces on fault-free machines.

use dstreams_machine::wire::frame_blocks;
use dstreams_machine::{
    FaultPlan, Machine, MachineConfig, MachineError, MsgFaultPlan, NodeCtx, RankIo, Step, VTime,
    Wire,
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
    fn all_reduce_equals_the_sequential_fold(
        nprocs in 1usize..7,
        values in proptest::collection::vec(any::<u32>(), 7),
    ) {
        let vals = values.clone();
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            let v = vals[ctx.rank() % vals.len()] as u64;
            ctx.all_reduce(v, |a: u64, b| a.wrapping_add(b)).unwrap()
        }).unwrap();
        let want: u64 = (0..nprocs)
            .map(|r| values[r % values.len()] as u64)
            .fold(0u64, |a, b| a.wrapping_add(b));
        prop_assert_eq!(out, vec![want; nprocs]);
    }

    #[test]
    fn gather_delivers_every_buffer_in_rank_order(
        nprocs in 1usize..7,
        root_pick in any::<usize>(),
        salt in any::<u8>(),
    ) {
        let root = root_pick % nprocs;
        let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
            ctx.gather(root, vec![salt ^ ctx.rank() as u8; ctx.rank() + 1]).unwrap()
        }).unwrap();
        for (rank, got) in out.into_iter().enumerate() {
            let want = (rank == root)
                .then(|| (0..nprocs).map(|r| vec![salt ^ r as u8; r + 1]).collect());
            prop_assert_eq!(got, want);
        }
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

/// The message seed CI sweeps (`DSTREAMS_MSG_SEED`, 0 when unset). It is
/// mixed into every generated program and wire seed, so each CI seed runs
/// different machine programs.
fn msg_seed() -> u64 {
    std::env::var("DSTREAMS_MSG_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// A fused program drawn at random over every public step kind, one
/// block per pick: a barrier, an act, an act whose bytes are broadcast,
/// the plan exchange (gather, plan, broadcast, with or without a leading
/// barrier; at most one per program), or an act whose broadcast verdict
/// guards the next few steps. A first pick of 7 modulo 8 draws a program
/// of acts alone.
fn draw(picks: &[u8]) -> Vec<Step> {
    use Step::{Act, Barrier, Broadcast, Gather, IfSet, Plan};
    if picks[0] % 8 == 7 {
        return vec![Act; picks.len()];
    }
    let mut steps = Vec::new();
    let mut gathered = false;
    for &pick in picks {
        match pick % 6 {
            0 => steps.push(Barrier),
            1 => steps.push(Act),
            2 => steps.extend([Act, Broadcast]),
            3 | 4 if !gathered => {
                gathered = true;
                if pick % 6 == 3 {
                    steps.push(Barrier);
                }
                steps.extend([Gather, Plan, Broadcast]);
            }
            _ => {
                let guarded: &[Step] = match pick / 6 % 5 {
                    0 => &[Barrier],
                    1 => &[Act],
                    2 => &[Act, Barrier],
                    3 => &[Act, Broadcast],
                    _ => &[Barrier, Act, Barrier],
                };
                steps.extend([Act, Broadcast, IfSet(guarded.len())]);
                steps.extend_from_slice(guarded);
            }
        }
    }
    steps
}

/// Rank 0's `k`-th root step of a program run under `code`. A `Plan`
/// frames the gathered buffers behind a code-dependent header: a pure
/// function of its inputs. An `Act` charges rank 0's clock and records an
/// event on its trace, as a PFS access would, and returns the verdict `[1]`
/// or `[0]`, or bytes.
fn root_step(code: u64, k: usize, step: Step, io: &dyn RankIo, frames: Vec<&[u8]>) -> Vec<u8> {
    if step == Step::Plan {
        let mut blocks = vec![code.to_le_bytes().to_vec()];
        blocks.extend(frames.iter().map(|f| f.to_vec()));
        return frame_blocks(&blocks);
    }
    let bits = code.rotate_right(5 * k as u32);
    let cost = VTime::from_nanos(bits % 9_000);
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
    match bits >> 20 & 3 {
        0 => vec![1],
        1 => vec![0],
        _ => vec![k as u8; (bits >> 24) as usize % 20 + k],
    }
}

/// Run `steps` as one fused program ([`NodeCtx::program`]) under `code`.
fn fused(ctx: &NodeCtx, steps: &[Step], code: u64, data: Vec<u8>) -> Vec<u8> {
    let roots: Vec<Step> = steps
        .iter()
        .copied()
        .filter(|s| matches!(s, Step::Plan | Step::Act))
        .collect();
    ctx.program::<MachineError, _>(steps, data, |k, io, g| {
        Ok(root_step(code, k, roots[k], io, g.iter().collect()))
    })
    .unwrap()
}

/// The interpreter: run `steps` as the separate calls the fused program
/// stands for, with rank 0 running each root step between them on its own
/// context.
fn separately(ctx: &NodeCtx, steps: &[Step], code: u64, data: Vec<u8>) -> Vec<u8> {
    let (root, mut data) = (ctx.is_root(), Some(data));
    let (mut gathered, mut last) = (Vec::new(), Vec::new());
    let mut k = 0;
    let mut i = 0;
    while let Some(&step) = steps.get(i) {
        i += 1;
        match step {
            Step::Barrier => ctx.barrier().unwrap(),
            Step::Gather => {
                let mine = data.take().expect("one gather per program");
                gathered = ctx.gather(0, mine).unwrap().unwrap_or_default();
            }
            Step::Plan | Step::Act => {
                if root {
                    let frames = gathered.iter().map(Vec::as_slice).collect();
                    last = root_step(code, k, step, ctx, frames);
                }
                k += 1;
            }
            Step::Broadcast => {
                let mine = if root { last.clone() } else { Vec::new() };
                last = ctx.broadcast(0, mine).unwrap();
            }
            Step::IfSet(n) if last != [1] => {
                k += steps[i..i + n]
                    .iter()
                    .filter(|s| matches!(s, Step::Plan | Step::Act))
                    .count();
                i += n;
            }
            Step::IfSet(_) => {}
        }
    }
    last
}

/// One generated SPMD program: a sequence of call codes (each picks a
/// collective, a fused program or a point-to-point ring and derives its
/// root, payload length and operand from the code) and one clock skew
/// per rank.
struct Program {
    nprocs: usize,
    paragon: bool,
    calls: Vec<u64>,
    skews: Vec<u64>,
}

/// A rank's results, one entry per call, and its final clock.
type RankOut = (Vec<Vec<Vec<u8>>>, VTime);

/// A machine of `n` ranks, traced into `sink`: the collective cell (no
/// fault plan), or the wire (an inert message plan seeded with
/// `wire_seed`).
fn machine(n: usize, paragon: bool, sink: &TraceSink, wire_seed: Option<u64>) -> MachineConfig {
    let config = if paragon {
        MachineConfig::paragon(n)
    } else {
        MachineConfig::functional(n)
    }
    .traced(sink.clone());
    match wire_seed {
        Some(seed) => config.with_faults(FaultPlan::default().with_msg(MsgFaultPlan::seeded(seed))),
        None => config,
    }
}

/// Run `prog` traced, on the collective cell or on the wire. Returns
/// every rank's results and clock, the merged trace and its operation
/// counts.
fn run_program(prog: &Program, wire_seed: Option<u64>) -> (Vec<RankOut>, String, OpCounts) {
    let n = prog.nprocs;
    let sink = TraceSink::new(n);
    let outs = Machine::run(machine(n, prog.paragon, &sink, wire_seed), |ctx| {
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
            // An order-sensitive operator, so a fold in the wrong order
            // shows.
            let fold = |a: u64, b: u64| a.wrapping_mul(31).wrapping_add(b);
            let res: Vec<Vec<u8>> = match code % 10 {
                0 => {
                    ctx.barrier().unwrap();
                    Vec::new()
                }
                1 => vec![ctx.broadcast(root, payload(me)).unwrap()],
                2 => ctx.gather(root, payload(me)).unwrap().unwrap_or_default(),
                3 => ctx.all_gather(payload(me)).unwrap(),
                4 => ctx
                    .all_to_all((0..n).map(|to| payload(me * n + to)).collect())
                    .unwrap(),
                5 => {
                    let got = ctx.all_reduce(operand_of(me), fold).unwrap();
                    // Rank 0's operand first, then the others in rank order.
                    assert_eq!(
                        got,
                        (1..n).fold(operand_of(0), |a, r| fold(a, operand_of(r)))
                    );
                    vec![got.to_wire()]
                }
                6 => vec![ctx.max_time().unwrap().to_wire()],
                7 => vec![ctx.sync_clocks().unwrap().to_wire()],
                8 => {
                    let picks = &code.to_le_bytes()[3..4 + (code >> 61) as usize % 5];
                    vec![fused(ctx, &draw(picks), code, payload(me))]
                }
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
        // Root steps number rank 0's PFS operations.
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
        let seed = msg_seed();
        let calls = calls.iter().map(|c| c ^ seed).collect();
        let prog = Program { nprocs, paragon, calls, skews };
        let (cell_out, cell_trace, cell_counts) = run_program(&prog, None);
        let (wire_out, wire_trace, wire_counts) = run_program(&prog, Some(wire_seed ^ seed));
        prop_assert_eq!(&cell_out, &wire_out, "results or clocks differ");
        prop_assert_eq!(&cell_trace, &wire_trace, "traces differ");
        prop_assert_eq!(&cell_counts, &wire_counts);
    }
}

/// What a run of fused programs (or of their separate calls) shows: every
/// rank's results and clock, the merged trace, its operation counts, and
/// every rank's rendezvous per program.
type Run = (Vec<RankOut>, String, OpCounts, Vec<Vec<u64>>);

/// Run `programs` (each with its code) on `nprocs` ranks, traced, fused
/// or as their separate calls, on the cell or on the wire.
fn run_steps(
    nprocs: usize,
    programs: &[(Vec<Step>, u64)],
    fused_: bool,
    wire_seed: Option<u64>,
) -> Run {
    let sink = TraceSink::new(nprocs);
    let outs = Machine::run(machine(nprocs, true, &sink, wire_seed), |ctx| {
        let me = ctx.rank();
        let (mut results, mut rendezvous) = (Vec::new(), Vec::new());
        for (steps, code) in programs {
            ctx.advance(VTime::from_nanos(code % 7_000 * me as u64));
            let data = vec![me as u8; (code >> 16) as usize % 30];
            let before = ctx.rendezvous_count();
            let res = if fused_ {
                fused(ctx, steps, *code, data)
            } else {
                separately(ctx, steps, *code, data)
            };
            rendezvous.push(ctx.rendezvous_count() - before);
            results.push(vec![res]);
        }
        results.push(vec![ctx.pfs_op_count().to_wire()]);
        ((results, ctx.now()), rendezvous)
    })
    .unwrap();
    let (outs, rendezvous) = outs.into_iter().unzip();
    let trace = sink.take();
    (outs, trace.to_events_json(), trace.op_counts(), rendezvous)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A fused program is its separate calls in one rendezvous: programs
    /// drawn over every step kind give the same results, clocks, traces
    /// and operation counts as the interpreter's separate calls, on the
    /// cell and on the wire, and each is exactly 1 rendezvous on the cell.
    #[test]
    fn fused_programs_equal_their_separate_calls(
        nprocs in 1usize..8,
        programs in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 1..6), any::<u64>()),
            1..6,
        ),
        wire_seed in any::<u64>(),
    ) {
        let seed = msg_seed();
        let programs: Vec<(Vec<Step>, u64)> = programs
            .iter()
            .map(|(picks, code)| {
                let picks: Vec<u8> = picks.iter().map(|p| p ^ seed as u8).collect();
                (draw(&picks), code ^ seed)
            })
            .collect();
        let mut runs = Vec::new();
        for wire in [None, Some(wire_seed ^ seed)] {
            let fused = run_steps(nprocs, &programs, true, wire);
            let separate = run_steps(nprocs, &programs, false, wire);
            prop_assert_eq!(&fused.0, &separate.0, "results or clocks differ, wire {:?}", wire);
            prop_assert_eq!(&fused.1, &separate.1, "traces differ, wire {:?}", wire);
            prop_assert_eq!(&fused.2, &separate.2, "op counts differ, wire {:?}", wire);
            let once = if wire.is_some() { 0 } else { 1 };
            prop_assert_eq!(&fused.3, &vec![vec![once; programs.len()]; nprocs]);
            runs.push(fused);
        }
        let (cell, wire) = (&runs[0], &runs[1]);
        prop_assert_eq!(&cell.0, &wire.0, "cell and wire results or clocks differ");
        prop_assert_eq!(&cell.1, &wire.1, "cell and wire traces differ");
        prop_assert_eq!(&cell.2, &wire.2, "cell and wire op counts differ");
    }
}
