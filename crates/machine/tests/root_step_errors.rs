//! A root-side step that fails must fail its collective on every rank,
//! with the root's error and at once, on both executors: the collective
//! cell and the wire. No peer may be left waiting for a phase the root
//! never sends.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use dstreams_machine::{
    FaultPlan, Gathered, Machine, MachineConfig, MachineError, MsgFaultPlan, NodeCtx, RankIo, Step,
};

const NPROCS: usize = 4;

/// The fault-free machine (collective cell) and one with an inert
/// message plan (wire).
fn executors() -> [(&'static str, MachineConfig); 2] {
    let wire = FaultPlan::default().with_msg(MsgFaultPlan::seeded(9));
    [
        ("cell", MachineConfig::paragon(NPROCS)),
        ("wire", MachineConfig::paragon(NPROCS).with_faults(wire)),
    ]
}

/// Run `call` on every rank and return each rank's result and how long
/// the call took. No rank exits before every rank has returned, so a
/// stranded peer cannot be rescued by `PeerGone`.
fn run_all(
    config: MachineConfig,
    call: impl Fn(&NodeCtx) -> Result<(), MachineError> + Sync,
) -> Vec<(Result<(), MachineError>, Duration)> {
    let returned = Barrier::new(NPROCS);
    Machine::run(config, |ctx| {
        let start = Instant::now();
        let res = call(ctx);
        let took = start.elapsed();
        returned.wait();
        (res, took)
    })
    .unwrap()
}

fn assert_every_rank_fails_with(
    name: &str,
    out: &[(Result<(), MachineError>, Duration)],
    msg: &str,
) {
    for (rank, (res, took)) in out.iter().enumerate() {
        assert_eq!(
            res,
            &Err(MachineError::CollectiveMismatch(msg.into())),
            "{name}: rank {rank}"
        );
        assert!(
            *took < Duration::from_secs(1),
            "{name}: rank {rank} took {took:?}"
        );
    }
}

#[test]
fn an_undecodable_operand_fails_all_reduce_on_every_rank() {
    for (name, config) in executors() {
        // Rank 0 (the root) folds u64 operands, its peers u32 ones.
        let out = run_all(config, |ctx| {
            if ctx.is_root() {
                ctx.all_reduce(1u64, |a, b| a + b).map(drop)
            } else {
                ctx.all_reduce(1u32, |a, b| a + b).map(drop)
            }
        });
        assert_every_rank_fails_with(name, &out, "reduce: undecodable operand");
    }
}

#[test]
fn a_refused_plan_fails_the_plan_exchange_on_every_rank() {
    let exchange = [Step::Barrier, Step::Gather, Step::Plan, Step::Broadcast];
    for steps in [&exchange[..], &exchange[1..]] {
        for (name, config) in executors() {
            // Rank 2 sends a frame of the wrong size; the plan rejects it.
            let out = run_all(config, |ctx| {
                let frame = vec![0u8; if ctx.rank() == 2 { 3 } else { 8 }];
                let plan = |_, _: &dyn RankIo, frames: Gathered<'_>| {
                    if frames.iter().any(|f| f.len() != 8) {
                        return Err(MachineError::CollectiveMismatch("malformed frame".into()));
                    }
                    Ok(Vec::new())
                };
                ctx.program(steps, frame, plan).map(drop)
            });
            assert_every_rank_fails_with(name, &out, "malformed frame");
        }
    }
}

#[test]
fn the_machine_stays_usable_after_a_failed_root_step() {
    for (name, config) in executors() {
        let out = Machine::run(config, |ctx| {
            let steps = [Step::Gather, Step::Plan, Step::Broadcast];
            let bad = ctx.program(&steps, vec![ctx.rank() as u8], |_, _, _| {
                Err(MachineError::CollectiveMismatch("no plan".into()))
            });
            assert!(bad.is_err());
            ctx.all_reduce(ctx.rank() as u64, |a, b| a + b).unwrap()
        })
        .unwrap();
        assert_eq!(out, vec![6; NPROCS], "{name}");
    }
}

/// The error of a failing act: its own, or what the machine reported.
#[derive(Debug, Clone, PartialEq)]
enum ActError {
    PowerCut,
    Machine(MachineError),
}

impl From<MachineError> for ActError {
    fn from(e: MachineError) -> Self {
        ActError::Machine(e)
    }
}

impl std::fmt::Display for ActError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ActError::PowerCut => write!(f, "power cut in the act"),
            ActError::Machine(e) => write!(f, "{e}"),
        }
    }
}

/// A fused program's act that fails is the separate call failing. On the
/// wire rank 0 returns the act's own error at once and its peers learn of
/// it only when rank 0 departs, as `PeerGone`, never as an abort marker
/// (that is what a power cut inside a PFS write looks like). The cell,
/// where nothing crashes, hands every rank the act's error: a machine
/// error as it is, any other error as its text.
/// Every rank's result of a program whose act fails with `err`.
fn fail_an_act<E>(config: MachineConfig, err: E) -> Vec<Result<Vec<u8>, E>>
where
    E: From<MachineError> + std::fmt::Display + Clone + Send + Sync + 'static,
{
    let steps = [Step::Barrier, Step::Act, Step::Barrier];
    Machine::run(config, |ctx| {
        ctx.program(&steps, Vec::new(), |_, _, _| Err(err.clone()))
    })
    .unwrap()
}

#[test]
fn a_failing_act_fails_the_program_like_the_separate_call() {
    let crashed = MachineError::RankCrashed { rank: 0 };
    let gone = MachineError::PeerGone { rank: 0 };
    let cut = ActError::PowerCut;
    for (name, config) in executors() {
        let own = fail_an_act(config.clone(), cut.clone());
        let machine = fail_an_act(config, crashed.clone());
        for (rank, (own, machine)) in own.into_iter().zip(machine).enumerate() {
            let (want_own, want_machine) = match (name, rank) {
                ("wire", 0) => (cut.clone(), crashed.clone()),
                ("wire", _) => (ActError::Machine(gone.clone()), gone.clone()),
                _ => {
                    let text = MachineError::CollectiveMismatch(cut.to_string());
                    (ActError::Machine(text), crashed.clone())
                }
            };
            assert_eq!(own, Err(want_own), "{name}: rank {rank}");
            assert_eq!(machine, Err(want_machine), "{name}: rank {rank}");
        }
    }
}
