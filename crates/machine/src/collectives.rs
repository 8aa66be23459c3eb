//! Collective operations over all ranks of the machine.
//!
//! Every collective must be called by *all* ranks (SPMD discipline), in the
//! same order. Broadcast uses a binomial tree (O(log P) rounds);
//! gather/scatter are flat through the root, which is faithful to how
//! mid-90s runtimes on ≤ a few dozen nodes behaved and keeps virtual-time
//! accounting transparent.
//!
//! **Step programs.** Every collective runs as a short program of
//! private `Instr`s: phases (one message pattern each), root-side steps,
//! and, in a fused program, the `Collective` trace events of the
//! API-level calls it stands for. `barrier` is a gather then a release
//! scatter, `all_reduce` a gather, a fold and a broadcast, `all_gather` a
//! gather, a framing and a broadcast. A caller writes a fused program in
//! the public [`Step`] vocabulary (barrier, gather, rank 0's plan or act,
//! broadcast, and a guard on a broadcast verdict) and runs it with
//! [`NodeCtx::program`]: the plan exchange of a PFS collective write,
//! and the replicated-local steps of a checkpoint (paper §4.2). Its legs,
//! tags, clocks and trace events are those of the separate calls.
//!
//! **One hop schedule, two executors.** [`Pattern::hop`] lists, per rank,
//! the legs of each phase in program order: whom to send which slot to,
//! whom to receive which slot from. Both executors follow it:
//!
//! * the *wire* executor sends and receives real envelopes through the
//!   mailboxes. It runs whenever the machine carries a fault plan (even
//!   an inert one), so retransmits, tombstones and chaos fates apply to
//!   collective legs as to any other message;
//! * the *cell* executor runs on fault-free machines. Every rank deposits
//!   its entry clock and slots in its lane of the machine's
//!   `CollectiveCell` (see `cell.rs`), and the last to arrive replays the
//!   whole program for all ranks in one rendezvous. Each phase walks a
//!   *leg order*, derived once per cell and (pattern, root) from
//!   `Pattern::hop`: every rank's legs in program order, each receive
//!   after its send. Per leg it applies `send_overhead`, then the arrival
//!   `now + latency + transfer(len + 1)`, the arrival-max rule,
//!   `recv_overhead`. Those are the formulas of `NodeCtx::send`/`recv`,
//!   applied to the same legs with the same tags, so exit clocks and the
//!   `MsgSend`/`MsgRecv` events each rank records are identical to the
//!   wire path's by construction; only the host cost of the thread
//!   hand-offs is gone. Lanes and replay scratch are reused from round
//!   to round, and scalars travel inline, so a round allocates nothing.
//!
//! A root-side step runs on the root on the wire. In the cell it runs on
//! the combiner, with the combiner's own closure: SPMD programs pass
//! every rank the same step. It reaches the root through a [`RankIo`]:
//! on the wire the root's own context, in the cell the root's lane, whose
//! clock, events and PFS operation count the root takes back at exit, so
//! the combiner can act for the root without waking it. A *pure* step (a
//! fold, a framing, a [`Step::Plan`]) is a function of the root's slots
//! and of state every rank shares. `Wire` encodings round-trip exactly,
//! so folding decoded operands on either thread gives the same value. If
//! a pure step fails, its error is every rank's result: the cell hands it
//! to all ranks at once; on the wire the root sends an abort marker
//! carrying it down its remaining legs, and each rank that receives one
//! forwards it on its own remaining send legs. A *charged* step (a
//! [`Step::Act`]) may mutate shared state and charge the root's clock,
//! trace and PFS counters. A failing charged step fails like the separate
//! call it stands for: on the wire the root returns its error at once,
//! and its peers learn of it when it departs.
//!
//! Mismatched collectives are errors, never garbage. On the wire each
//! message carries a one-byte opcode, trailing the payload so a sender
//! appends it to a buffer it owns and a receiver strips it with a `pop`.
//! In the cell every rank deposits its program's key (its API-level
//! collectives, root and, for a program built at run time, a fingerprint
//! of its steps), and any disagreement fails the collective on
//! every rank with [`MachineError::CollectiveMismatch`].
//!
//! `all_to_all` stays on the wire path on every machine. Its callers are
//! the unplanned sorted read, `Collection::fetch_all` and
//! `Collection::redistribute`, none of them on a hot path: the perfbench
//! workloads never call it, while `service_mix` runs tens of thousands
//! of barriers and clock syncs per round.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::fmt::Display;
use std::sync::Arc;

use dstreams_trace::{CollOp, EventKind};

use crate::cell::{Key, Lane};
use crate::config::NetModel;
use crate::error::MachineError;
use crate::fault::FaultDecision;
use crate::message::Tag;
use crate::node::{NodeCtx, RankIo};
use crate::time::VTime;
use crate::wire::{frame_blocks, unframe_blocks, Wire};

/// Opcode trailing every collective wire message, for cross-rank sanity
/// checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    Barrier = 1,
    Broadcast = 2,
    Gather = 3,
    AllToAll = 5,
    Reduce = 6,
    /// Stands in for a leg's payload once the program failed at the root;
    /// the message carries the error's text.
    Abort = 7,
}

impl Op {
    fn from_byte(b: u8) -> Option<Op> {
        Some(match b {
            1 => Op::Barrier,
            2 => Op::Broadcast,
            3 => Op::Gather,
            5 => Op::AllToAll,
            6 => Op::Reduce,
            7 => Op::Abort,
            _ => return None,
        })
    }
}

/// `payload` with `op` appended, taking over the caller's buffer.
fn tagged(op: Op, mut payload: Vec<u8>) -> Vec<u8> {
    payload.push(op as u8);
    payload
}

/// Check and strip the trailing opcode in place.
fn untag(op: Op, mut payload: Vec<u8>) -> Result<Vec<u8>, MachineError> {
    let Some(byte) = payload.pop() else {
        return Err(MachineError::CollectiveMismatch(
            "empty collective payload".into(),
        ));
    };
    let got = Op::from_byte(byte);
    if got != Some(op) {
        return Err(MachineError::CollectiveMismatch(format!(
            "expected {:?}, peer sent {:?}",
            op, got
        )));
    }
    Ok(payload)
}

/// The text an abort marker carries: a mismatch's own message, else the
/// error's display. Receivers turn it into a `CollectiveMismatch`.
fn abort_text(e: &MachineError) -> String {
    match e {
        MachineError::CollectiveMismatch(msg) => msg.clone(),
        e => e.to_string(),
    }
}

/// Decode a `Wire` value, naming `what` failed otherwise.
fn decode<T: Wire>(bytes: &[u8], what: &str) -> Result<T, MachineError> {
    T::from_wire(bytes).ok_or_else(|| MachineError::CollectiveMismatch(what.into()))
}

/// Payloads up to this many bytes (reduction operands, flags) travel
/// inline.
const INLINE: usize = 16;

/// The bytes in one slot. A scalar sits inline; a part is owned and
/// moves along its leg; a broadcast whole is shared, so the cell hands
/// every rank the root's buffer without copying it on the combiner's
/// thread: each rank copies it (the last one takes it) on its own
/// thread, where a wire receive would have allocated it too.
#[derive(Debug, Clone)]
enum Payload {
    Inline(u8, [u8; INLINE]),
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Default for Payload {
    fn default() -> Self {
        Payload::Inline(0, [0; INLINE])
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        match self {
            Payload::Inline(len, buf) => &buf[..usize::from(*len)],
            Payload::Owned(v) => v,
            Payload::Shared(a) => a,
        }
    }
}

impl Payload {
    /// A copy of `bytes`, inline when it fits.
    fn copy_of(bytes: &[u8]) -> Self {
        if bytes.len() > INLINE {
            return Payload::Owned(bytes.to_vec());
        }
        let mut buf = [0; INLINE];
        buf[..bytes.len()].copy_from_slice(bytes);
        Payload::Inline(bytes.len() as u8, buf)
    }

    fn len(&self) -> usize {
        self.as_ref().len()
    }

    /// A copy that shares the buffer (an owned one becomes shared first):
    /// what a broadcast leg forwards while the sender keeps the whole.
    fn share(&mut self) -> Payload {
        if let Payload::Owned(v) = self {
            *self = Payload::Shared(Arc::new(std::mem::take(v)));
        }
        self.clone()
    }

    fn into_vec(self) -> Vec<u8> {
        match self {
            Payload::Owned(v) => v,
            Payload::Shared(a) => Arc::unwrap_or_clone(a),
            inline => inline.as_ref().to_vec(),
        }
    }

    /// The wire bytes of the payload: its own buffer, or a copy with one
    /// spare byte, with the opcode appended.
    fn into_tagged(self, op: Op) -> Vec<u8> {
        if let Payload::Owned(v) = self {
            return tagged(op, v);
        }
        let mut copy = Vec::with_capacity(self.len() + 1);
        copy.extend_from_slice(self.as_ref());
        tagged(op, copy)
    }
}

/// One rank's data in a collective: `parts` (indexed by rank) travel along
/// gather and scatter legs, `whole` along broadcast legs.
#[derive(Debug)]
pub(crate) struct Slots {
    parts: Vec<Payload>,
    whole: Payload,
}

impl Slots {
    /// Empty slots for a machine of `n` ranks.
    pub(crate) fn new(n: usize) -> Self {
        Slots {
            parts: vec![Payload::default(); n],
            whole: Payload::default(),
        }
    }

    /// Empty every slot, keeping the part table.
    pub(crate) fn clear(&mut self) {
        self.parts.fill(Payload::default());
        self.whole = Payload::default();
    }

    /// What a send leg ships: a part moves out, the whole is shared (a
    /// broadcast forwards it to several children and keeps it).
    fn ship(&mut self, slot: Slot) -> Payload {
        match slot {
            Slot::Part(i) => std::mem::take(&mut self.parts[i]),
            Slot::Whole => self.whole.share(),
        }
    }

    /// Store what a receive leg delivered.
    fn store(&mut self, slot: Slot, data: Payload) {
        match slot {
            Slot::Part(i) => self.parts[i] = data,
            Slot::Whole => self.whole = data,
        }
    }

    /// Every part, in rank order, as the caller's buffers.
    fn take_parts(&mut self) -> Vec<Vec<u8>> {
        self.parts
            .iter_mut()
            .map(|p| std::mem::take(p).into_vec())
            .collect()
    }

    fn take_whole(&mut self) -> Payload {
        std::mem::take(&mut self.whole)
    }
}

/// The buffers a gather delivered to its root, in rank order: what a
/// [`Step::Plan`] reads.
#[derive(Debug, Clone, Copy)]
pub struct Gathered<'a>(&'a [Payload]);

impl<'a> Gathered<'a> {
    /// Number of buffers (one per rank).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no buffers.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The buffers, in rank order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [u8]> + 'a {
        self.0.iter().map(AsRef::as_ref)
    }
}

/// One step of a fused program ([`NodeCtx::program`]), as every rank
/// calls it. Its root is rank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// A barrier, as [`NodeCtx::barrier`].
    Barrier,
    /// A gather of every rank's `data` to rank 0, as [`NodeCtx::gather`].
    Gather,
    /// A pure root step: rank 0's next bytes, computed from the gathered
    /// buffers and from state every rank shares. If it fails, every rank
    /// returns its error.
    Plan,
    /// A charged root step: rank 0 acts on state every rank shares (the
    /// PFS namespace, a file) and returns its next bytes. If it fails, it
    /// fails like the separate call it stands for.
    Act,
    /// A broadcast from rank 0 of what its last root step returned, as
    /// [`NodeCtx::broadcast`] with the other ranks passing nothing.
    Broadcast,
    /// Run the next `n` steps only if the broadcast just before delivered
    /// the single byte 1; skip them otherwise.
    IfSet(usize),
}

impl Step {
    /// How many instructions this step expands to.
    fn len(self) -> usize {
        match self {
            Step::Barrier => 3,
            Step::Gather | Step::Broadcast => 2,
            Step::Plan | Step::Act | Step::IfSet(_) => 1,
        }
    }
}

/// Which of a rank's [`Slots`] a leg reads or writes.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Part(usize),
    Whole,
}

/// One leg of a phase as one rank runs it.
#[derive(Debug, Clone, Copy)]
struct Hop {
    /// Send to `peer` (else receive from it).
    send: bool,
    peer: usize,
    slot: Slot,
}

/// The message pattern of one phase, with its root.
#[derive(Debug, Clone, Copy)]
enum Pattern {
    /// Every rank ships its own part to the root, which receives them in
    /// rank order.
    Gather(usize),
    /// The root ships part `r` to each rank `r`, in rank order.
    Scatter(usize),
    /// Binomial tree: each rank receives the whole from its parent (the
    /// lowest set bit of its rank relative to the root), then forwards it
    /// to its children at decreasing distances.
    Broadcast(usize),
}

impl Pattern {
    /// The `k`-th leg `rank` runs in this phase, or `None` past its last.
    /// This is the one definition of every collective's message
    /// schedule; both executors walk it.
    fn hop(self, rank: usize, n: usize, k: usize) -> Option<Hop> {
        let send = |peer, slot| Hop {
            send: true,
            peer,
            slot,
        };
        let recv = |peer, slot| Hop {
            send: false,
            peer,
            slot,
        };
        // The k-th rank other than `root`, in rank order.
        let kth_other = |root: usize| Some(k + usize::from(k >= root)).filter(|&p| p < n);
        match self {
            Pattern::Gather(root) if rank == root => {
                kth_other(root).map(|from| recv(from, Slot::Part(from)))
            }
            Pattern::Gather(root) => (k == 0).then(|| send(root, Slot::Part(rank))),
            Pattern::Scatter(root) if rank == root => {
                kth_other(root).map(|to| send(to, Slot::Part(to)))
            }
            Pattern::Scatter(root) => (k == 0).then(|| recv(root, Slot::Part(rank))),
            Pattern::Broadcast(root) => {
                let rel = (rank + n - root) % n;
                let parent_bit = rel & rel.wrapping_neg();
                let k = match (rel, k) {
                    (0, k) => k,
                    (_, 0) => return Some(recv((rel - parent_bit + root) % n, Slot::Whole)),
                    (_, k) => k - 1,
                };
                // Children sit at the distances below the parent bit (below
                // n for the root), minus those past the end of the machine.
                let top = if rel == 0 {
                    n.next_power_of_two()
                } else {
                    parent_bit
                };
                let mut mask = top >> 1;
                while mask > 0 && rel + mask >= n {
                    mask >>= 1;
                }
                let mask = mask.checked_shr(k as u32).unwrap_or(0);
                (mask > 0).then(|| send((rel + mask + root) % n, Slot::Whole))
            }
        }
    }

    /// This pattern's index among the cell's leg orders.
    fn index(self) -> usize {
        match self {
            Pattern::Gather(root) => 3 * root,
            Pattern::Scatter(root) => 3 * root + 1,
            Pattern::Broadcast(root) => 3 * root + 2,
        }
    }
}

/// One phase of a collective: its pattern and the opcode its wire
/// messages carry.
#[derive(Debug, Clone, Copy)]
struct Phase {
    pattern: Pattern,
    op: Op,
}

impl Phase {
    const fn new(pattern: Pattern, op: Op) -> Self {
        Phase { pattern, op }
    }

    /// What a send leg of this phase ships from `slots`. A barrier's legs
    /// carry nothing and leave the slots as they are, so a fused program
    /// can hold its later phases' payloads across its barrier.
    fn ship(self, slots: &mut Slots, slot: Slot) -> Payload {
        match self.op {
            Op::Barrier => Payload::default(),
            _ => slots.ship(slot),
        }
    }

    /// Store what a receive leg of this phase delivered.
    fn store(self, slots: &mut Slots, slot: Slot, data: Payload) {
        if self.op != Op::Barrier {
            slots.store(slot, data);
        }
    }
}

/// One instruction of a collective program.
#[derive(Debug, Clone, Copy)]
enum Instr {
    /// Record the `Collective` event of API-level collective `op` (with
    /// its root) where a separate call would have recorded it.
    Announce(CollOp, Option<usize>),
    /// Run the legs of a phase.
    Phase(Phase),
    /// Run the program's `k`-th root-side step on the root's slots, as a
    /// pure step that does not use its `RankIo` (in the cell it gets the
    /// combining rank's context).
    AtRoot(usize),
    /// [`Instr::AtRoot`] for a caller's [`Step::Plan`], which gets the
    /// root's `RankIo` as an act does.
    Plan(usize),
    /// Run the program's `k`-th root-side step as a charged step: on the
    /// wire a failing one fails the program the way the separate call
    /// fails (the root returns its error at once and its peers learn of
    /// it when it departs, with no abort marker).
    Act(usize),
    /// Run the next `n` instructions only if the whole slot holds the
    /// verdict `[1]` (every rank has it once a broadcast delivered it).
    IfSet(usize),
}

/// A barrier's two phases: gather tiny messages to rank 0, then scatter
/// the release. Clock synchronization falls out of the arrival-time max
/// rule.
const BARRIER: [Instr; 2] = [
    Instr::Phase(Phase::new(Pattern::Gather(0), Op::Barrier)),
    Instr::Phase(Phase::new(Pattern::Scatter(0), Op::Barrier)),
];

/// A collective program as each rank calls it.
struct Program<'a> {
    /// The API-level collectives it stands for, which the cell checks
    /// every rank agrees on.
    ops: &'static [CollOp],
    root: usize,
    instrs: &'a [Instr],
    /// Fingerprint of a program built at run time (0 for a fixed one).
    shape: u64,
}

impl<'a> Program<'a> {
    /// A fixed program.
    const fn new(ops: &'static [CollOp], root: usize, instrs: &'a [Instr]) -> Self {
        Program {
            ops,
            root,
            instrs,
            shape: 0,
        }
    }
}

/// The root-side step of a program that has none.
fn no_root_step(_: &dyn RankIo, _: usize, _: &mut Slots) -> Result<(), MachineError> {
    Ok(())
}

/// Whether `slots` hold the verdict `[1]`, which `Instr::IfSet` tests.
fn verdict_set(slots: &Slots) -> bool {
    slots.whole.as_ref() == [1]
}

/// The `Collective` event `rank` records for `op`, with the bytes a
/// separate call would have been passed.
fn announced(op: CollOp, root: Option<usize>, rank: usize, slots: &Slots) -> EventKind {
    let bytes = match op {
        CollOp::Barrier => 0,
        // Only the root has something to broadcast; the others pass
        // nothing.
        CollOp::Broadcast if root == Some(rank) => slots.whole.len(),
        CollOp::Broadcast => 0,
        _ => slots.parts[rank].len(),
    };
    EventKind::Collective {
        op,
        root,
        bytes: bytes as u64,
    }
}

/// The error of ranks that called different programs.
fn disagreement(rank: usize, got: Key, want: Key) -> MachineError {
    let name = |(ops, root, shape): Key| {
        let ops = ops.iter().map(|op| op.name()).collect::<Vec<_>>().join("+");
        match shape {
            0 => format!("{ops} (root {root})"),
            shape => format!("{ops} (root {root}, program {shape:#x})"),
        }
    };
    MachineError::CollectiveMismatch(format!(
        "rank {rank} called {} but rank 0 called {}",
        name(got),
        name(want)
    ))
}

/// One leg in a phase's replay order; `msg` numbers its message within
/// the phase.
#[derive(Debug, Clone, Copy)]
struct Leg {
    rank: usize,
    hop: Hop,
    msg: usize,
}

/// The cell's replay state: the leg order of each (pattern, root) the
/// run has used, and the messages in flight during a phase.
pub(crate) struct Replay {
    orders: Vec<Option<Box<[Leg]>>>,
    flight: Vec<(VTime, Payload)>,
}

impl Replay {
    /// Replay state for a machine of `n` ranks.
    pub(crate) fn new(n: usize) -> Self {
        Replay {
            orders: vec![None; 3 * n],
            // A phase sends exactly one message to each non-root rank or
            // from each, so n - 1 are ever in flight.
            flight: vec![(VTime::ZERO, Payload::default()); n.saturating_sub(1)],
        }
    }
}

/// Derive `pattern`'s leg order over `n` ranks: sweep the ranks, running
/// each rank's legs in program order until it reaches a receive whose
/// message has not been sent yet.
fn leg_order(pattern: Pattern, n: usize) -> Box<[Leg]> {
    let mut next = vec![0usize; n];
    // The message number of the send on each (from, to) edge; a phase
    // uses each edge once.
    let mut sent: Vec<Option<usize>> = vec![None; n * n];
    let mut order = Vec::new();
    let mut msgs = 0;
    let mut progressed = true;
    while progressed {
        progressed = false;
        for (rank, k) in next.iter_mut().enumerate() {
            while let Some(hop) = pattern.hop(rank, n, *k) {
                let msg = if hop.send {
                    sent[rank * n + hop.peer] = Some(msgs);
                    msgs += 1;
                    msgs - 1
                } else {
                    match sent[hop.peer * n + rank].take() {
                        Some(msg) => msg,
                        None => break,
                    }
                };
                order.push(Leg { rank, hop, msg });
                *k += 1;
                progressed = true;
            }
        }
    }
    assert!(
        (0..n).all(|r| pattern.hop(r, n, next[r]).is_none()),
        "collective schedule cannot make progress"
    );
    order.into_boxed_slice()
}

/// The cell executor: run `phase` for every lane at once, moving the
/// payloads along its legs in leg order and advancing each lane's clock
/// exactly as the wire legs would.
fn replay_phase(
    phase: Phase,
    tag: Tag,
    net: &NetModel,
    tracing: bool,
    lanes: &mut [Lane],
    replay: &mut Replay,
) {
    let n = lanes.len();
    let Replay { orders, flight } = replay;
    let order = orders[phase.pattern.index()].get_or_insert_with(|| leg_order(phase.pattern, n));
    for &Leg { rank, hop, msg } in order.iter() {
        let Hop { send, peer, slot } = hop;
        let lane = &mut lanes[rank];
        if send {
            let payload = phase.ship(&mut lane.slots, slot);
            let bytes = payload.len() + 1;
            lane.clock += net.send_overhead;
            if tracing {
                lane.events.push((
                    lane.clock,
                    EventKind::MsgSend {
                        to: peer,
                        tag,
                        bytes: bytes as u64,
                        collective: true,
                    },
                ));
            }
            flight[msg] = (lane.clock + net.latency + net.transfer(bytes), payload);
        } else {
            let arrival = flight[msg].0;
            let payload = std::mem::take(&mut flight[msg].1);
            lane.clock = lane.clock.max(arrival) + net.recv_overhead;
            if tracing {
                lane.events.push((
                    lane.clock,
                    EventKind::MsgRecv {
                        from: peer,
                        tag,
                        bytes: payload.len() as u64 + 1,
                        collective: true,
                    },
                ));
            }
            phase.store(&mut lane.slots, slot, payload);
        }
    }
}

/// Rank `rank`'s lane as the rank a root step acts for, on the
/// thread that combines the round: the step's charges go to the lane's
/// clock, its events to the lane's (which the rank records at exit, in
/// order) and its PFS operation numbers continue the rank's count. The
/// cell only runs fault-free, so no fault ever fires.
struct LaneIo<'a> {
    rank: usize,
    nprocs: usize,
    tracing: bool,
    clock: Cell<VTime>,
    pfs_ops: Cell<u64>,
    events: RefCell<&'a mut Vec<(VTime, EventKind)>>,
}

impl RankIo for LaneIo<'_> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn nprocs(&self) -> usize {
        self.nprocs
    }

    fn now(&self) -> VTime {
        self.clock.get()
    }

    fn advance(&self, d: VTime) {
        self.clock.set(self.clock.get() + d);
    }

    fn tracing(&self) -> bool {
        self.tracing
    }

    fn emit(&self, kind: EventKind) {
        if self.tracing {
            self.events.borrow_mut().push((self.clock.get(), kind));
        }
    }

    fn next_pfs_op(&self) -> u64 {
        let op = self.pfs_ops.get();
        self.pfs_ops.set(op + 1);
        op
    }

    fn fault_decision(&self, _: u64, _: u32, _: Option<usize>) -> FaultDecision {
        FaultDecision::Proceed
    }

    fn fault_is_dead(&self) -> bool {
        false
    }

    fn fault_mark_dead(&self) {}
}

impl NodeCtx {
    /// Run one collective program. `deposit` fills this rank's (empty)
    /// slots, `at_root(io, k, slots)` is the program's `k`-th root-side
    /// step, and `extract` takes this rank's results out of its slots at
    /// exit. `io` is the root's own context on the wire and the root's
    /// lane (a [`LaneIo`]) in the cell, but the combining rank's context
    /// for an [`Instr::AtRoot`], which must not use it.
    fn run_program<F, R>(
        &self,
        program: Program<'_>,
        mut at_root: F,
        deposit: impl FnOnce(&mut Slots),
        extract: impl FnOnce(&mut Slots) -> R,
    ) -> Result<R, MachineError>
    where
        F: FnMut(&dyn RankIo, usize, &mut Slots) -> Result<(), MachineError>,
    {
        let Program {
            ops,
            root,
            instrs,
            shape,
        } = program;
        let (rank, announce) = (self.rank(), self.announces_collectives());
        let Some(cell) = self.cell() else {
            let mut slots = Slots::new(self.nprocs());
            deposit(&mut slots);
            let mut failed = None;
            let mut next = 0;
            while let Some(&instr) = instrs.get(next) {
                next += 1;
                let on_root = rank == root && failed.is_none();
                match instr {
                    Instr::Announce(op, r) if announce => {
                        self.emit_at(self.now(), announced(op, r, rank, &slots));
                    }
                    Instr::Phase(phase) => {
                        let tag = self.next_coll_tag();
                        self.wire_phase(phase, tag, &mut slots, &mut failed)?;
                    }
                    Instr::AtRoot(k) | Instr::Plan(k) if on_root => {
                        failed = at_root(self, k, &mut slots).err();
                    }
                    Instr::Act(k) if on_root => at_root(self, k, &mut slots)?,
                    Instr::IfSet(n) if !verdict_set(&slots) => next += n,
                    Instr::Announce(..)
                    | Instr::AtRoot(_)
                    | Instr::Plan(_)
                    | Instr::Act(_)
                    | Instr::IfSet(_) => {}
                }
            }
            return match failed {
                Some(e) => Err(e),
                None => Ok(extract(&mut slots)),
            };
        };
        self.count_rendezvous();
        let (net, tracing, n) = (&self.config().net, self.tracing(), self.nprocs());
        let out = cell.rendezvous(
            rank,
            self.coll_tag(0),
            |lane| {
                lane.key = (ops, root, shape);
                lane.clock = self.now();
                lane.pfs_ops = self.pfs_op_count();
                lane.announce = announce;
                deposit(&mut lane.slots);
            },
            |lanes, replay| {
                let key = lanes[0].key;
                if let Some((r, lane)) = lanes.iter().enumerate().find(|(_, l)| l.key != key) {
                    return Err(disagreement(r, lane.key, key));
                }
                let mut tags = 0;
                let mut next = 0;
                while let Some(&instr) = instrs.get(next) {
                    next += 1;
                    match instr {
                        Instr::Announce(op, r) => {
                            for (me, lane) in lanes.iter_mut().enumerate() {
                                if lane.announce {
                                    let event = announced(op, r, me, &lane.slots);
                                    lane.events.push((lane.clock, event));
                                }
                            }
                        }
                        Instr::Phase(phase) => {
                            let tag = self.coll_tag(tags);
                            replay_phase(phase, tag, net, tracing, lanes, replay);
                            tags += 1;
                        }
                        Instr::AtRoot(k) => at_root(self, k, &mut lanes[root].slots)?,
                        Instr::Plan(k) | Instr::Act(k) => {
                            let Lane {
                                clock,
                                slots,
                                events,
                                pfs_ops,
                                ..
                            } = &mut lanes[root];
                            let io = LaneIo {
                                rank: root,
                                nprocs: n,
                                tracing,
                                clock: Cell::new(*clock),
                                pfs_ops: Cell::new(*pfs_ops),
                                events: RefCell::new(events),
                            };
                            let res = at_root(&io, k, slots);
                            (*clock, *pfs_ops) = (io.clock.get(), io.pfs_ops.get());
                            res?;
                        }
                        Instr::IfSet(n) if !verdict_set(&lanes[root].slots) => next += n,
                        Instr::IfSet(_) => {}
                    }
                }
                for lane in lanes.iter_mut() {
                    lane.tags = tags;
                }
                Ok(())
            },
            |lane| {
                self.stash_legs(&mut lane.events);
                let counts = (lane.tags, lane.pfs_ops);
                (lane.clock, counts, extract(&mut lane.slots))
            },
        );
        let (clock, (tags, pfs_ops), out) = match out {
            Ok(done) => done,
            Err(e) => {
                // The wire runs every phase of a failed program, carrying
                // abort markers.
                let phases = instrs.iter().filter(|i| matches!(i, Instr::Phase(_)));
                self.skip_coll_tags(phases.count() as u32);
                return Err(e);
            }
        };
        self.skip_coll_tags(tags);
        self.set_pfs_op_count(pfs_ops);
        self.emit_legs();
        self.sync_to(clock);
        Ok(out)
    }

    /// The wire executor: run this rank's legs of `phase` as real
    /// messages. Once `failed` holds the root step's error, each send leg
    /// carries an abort marker instead of its payload and receive legs
    /// are skipped; receiving a marker sets `failed`.
    fn wire_phase(
        &self,
        phase: Phase,
        tag: Tag,
        slots: &mut Slots,
        failed: &mut Option<MachineError>,
    ) -> Result<(), MachineError> {
        let (rank, n) = (self.rank(), self.nprocs());
        for Hop { send, peer, slot } in (0..).map_while(|k| phase.pattern.hop(rank, n, k)) {
            if send {
                let msg = match failed {
                    Some(e) => tagged(Op::Abort, abort_text(e).into_bytes()),
                    None => phase.ship(slots, slot).into_tagged(phase.op),
                };
                self.send_owned(peer, tag, msg)?;
            } else if failed.is_none() {
                let mut data = self.recv(peer, tag)?;
                if data.last() == Some(&(Op::Abort as u8)) {
                    data.pop();
                    let msg = String::from_utf8_lossy(&data).into_owned();
                    *failed = Some(MachineError::CollectiveMismatch(msg));
                } else {
                    phase.store(slots, slot, Payload::Owned(untag(phase.op, data)?));
                }
            }
        }
        Ok(())
    }

    /// Fail with `InvalidRank` unless `root` names a rank.
    fn check_root(&self, root: usize) -> Result<(), MachineError> {
        let n = self.nprocs();
        if root >= n {
            return Err(MachineError::InvalidRank {
                rank: root,
                nprocs: n,
            });
        }
        Ok(())
    }

    /// Synchronize all ranks; on return every rank's virtual clock is at
    /// least the maximum of the clocks at entry (plus the messaging cost of
    /// the rendezvous itself).
    pub fn barrier(&self) -> Result<(), MachineError> {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Barrier,
            root: None,
            bytes: 0,
        });
        let _scope = self.collective_scope();
        let program = Program::new(&[CollOp::Barrier], 0, &BARRIER);
        self.run_program(program, no_root_step, |_| {}, |_| ())
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree). Every
    /// rank passes its own `data`; only the root's is used. Returns the
    /// root's buffer on every rank.
    pub fn broadcast(&self, root: usize, data: Vec<u8>) -> Result<Vec<u8>, MachineError> {
        self.check_root(root)?;
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Broadcast,
            root: Some(root),
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        let instrs = [Instr::Phase(Phase::new(
            Pattern::Broadcast(root),
            Op::Broadcast,
        ))];
        let program = Program::new(&[CollOp::Broadcast], root, &instrs);
        let deposit = |s: &mut Slots| s.whole = Payload::Owned(data);
        let out = self.run_program(program, no_root_step, deposit, Slots::take_whole)?;
        Ok(out.into_vec())
    }

    /// Gather one buffer from every rank to `root`. Returns
    /// `Some(buffers_by_rank)` on the root, `None` elsewhere.
    pub fn gather(&self, root: usize, data: Vec<u8>) -> Result<Option<Vec<Vec<u8>>>, MachineError> {
        self.check_root(root)?;
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Gather,
            root: Some(root),
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        let instrs = [Instr::Phase(Phase::new(Pattern::Gather(root), Op::Gather))];
        let program = Program::new(&[CollOp::Gather], root, &instrs);
        let me = self.rank();
        self.run_program(
            program,
            no_root_step,
            |s| s.parts[me] = Payload::Owned(data),
            |s| (me == root).then(|| s.take_parts()),
        )
    }

    /// Gather to every rank: a gather to rank 0 followed by a broadcast of
    /// the framed result.
    pub fn all_gather(&self, data: Vec<u8>) -> Result<Vec<Vec<u8>>, MachineError> {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllGather,
            root: None,
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        let instrs = [
            Instr::Phase(Phase::new(Pattern::Gather(0), Op::Gather)),
            Instr::AtRoot(0),
            Instr::Phase(Phase::new(Pattern::Broadcast(0), Op::Broadcast)),
        ];
        let program = Program::new(&[CollOp::AllGather], 0, &instrs);
        let me = self.rank();
        let frame = |_: &dyn RankIo, _, s: &mut Slots| {
            s.whole = Payload::Owned(frame_blocks(&s.parts));
            Ok(())
        };
        // The root already holds every buffer; only the others unframe.
        let (parts, framed) = self.run_program(
            program,
            frame,
            |s| s.parts[me] = Payload::Owned(data),
            |s| match me {
                0 => (s.take_parts(), Payload::default()),
                _ => (Vec::new(), s.take_whole()),
            },
        )?;
        if me == 0 {
            return Ok(parts);
        }
        unframe_blocks(framed.as_ref()).map_err(|e| {
            MachineError::CollectiveMismatch(format!("all_gather: malformed framed payload: {e}"))
        })
    }

    /// Personalized all-to-all: `parts[to]` is sent to rank `to`; the
    /// return value's entry `from` is what rank `from` sent here.
    ///
    /// This is the primitive behind the d/stream `read` redistribution
    /// (PASSION-style two-phase I/O). It always runs on the wire path.
    pub fn all_to_all(&self, parts: Vec<Vec<u8>>) -> Result<Vec<Vec<u8>>, MachineError> {
        let n = self.nprocs();
        if parts.len() != n {
            return Err(MachineError::CollectiveMismatch(format!(
                "all_to_all: {} parts for {} ranks",
                parts.len(),
                n
            )));
        }
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllToAll,
            root: None,
            bytes: parts.iter().map(|p| p.len() as u64).sum(),
        });
        let _scope = self.collective_scope();
        let tag = self.next_coll_tag();
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        // Shifted exchange schedule: round k pairs rank r with r±k, which
        // avoids hot-spotting any single receiver.
        let mut parts = parts;
        out[self.rank()] = std::mem::take(&mut parts[self.rank()]);
        for k in 1..n {
            let to = (self.rank() + k) % n;
            let from = (self.rank() + n - k) % n;
            self.send_owned(
                to,
                tag,
                tagged(Op::AllToAll, std::mem::take(&mut parts[to])),
            )?;
            out[from] = untag(Op::AllToAll, self.recv(from, tag)?)?;
        }
        Ok(out)
    }

    /// Fold rank 0's gathered operands in the wire order (its own first,
    /// then every other rank's in rank order) into `slots.whole`.
    fn fold_at_root<T, F>(op: &F, slots: &mut Slots) -> Result<(), MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        const WHAT: &str = "reduce: undecodable operand";
        let (own, others) = slots.parts.split_first().expect("a rank");
        let mut acc: T = decode(own.as_ref(), WHAT)?;
        for raw in others {
            acc = op(acc, decode(raw.as_ref(), WHAT)?);
        }
        slots.whole = acc.with_wire(Payload::copy_of);
        Ok(())
    }

    /// Reduce `value` across all ranks with `op`, the result delivered to
    /// every rank: a gather to rank 0, the fold there, and a broadcast of
    /// the result.
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> Result<T, MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let mine = value.with_wire(Payload::copy_of);
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllReduce,
            root: None,
            bytes: mine.len() as u64,
        });
        let _scope = self.collective_scope();
        let instrs = [
            Instr::Phase(Phase::new(Pattern::Gather(0), Op::Reduce)),
            Instr::AtRoot(0),
            Instr::Phase(Phase::new(Pattern::Broadcast(0), Op::Broadcast)),
        ];
        let program = Program::new(&[CollOp::AllReduce], 0, &instrs);
        let me = self.rank();
        let out = self.run_program(
            program,
            |_, _, s| Self::fold_at_root(&op, s),
            |s| s.parts[me] = mine,
            Slots::take_whole,
        )?;
        decode(out.as_ref(), "all_reduce: undecodable result")
    }

    /// Run a fused program of `steps` rooted at rank 0 in one rendezvous:
    /// the plan exchange of a collective write (barrier, gather, plan,
    /// broadcast), or a replicated-local step (paper §4.2) in which rank
    /// 0 acts on state every rank shares (the PFS namespace, a file) and
    /// the others learn the outcome through the program's barriers and
    /// broadcasts. Legs, tags, clocks and trace events are those of the
    /// separate calls, with rank 0 running its root steps between them.
    ///
    /// `data` is what this rank's [`Step::Gather`] sends.
    /// `root_step(k, io, gathered)` runs the program's `k`-th
    /// [`Step::Plan`] or [`Step::Act`] (counting those an
    /// [`Step::IfSet`] skipped) once, for rank 0: on the wire on rank 0
    /// with `io` its own context, in the cell on the rank that completes
    /// the round with `io` rank 0's lane. Either way, PFS reads and writes
    /// made through `io` are charged to rank 0's clock, trace and
    /// operation count exactly as a separate call would charge them; so a
    /// root step must reach rank 0's state through `io` and `gathered`
    /// only, and otherwise only state every rank shares. Its bytes are
    /// what the next [`Step::Broadcast`] sends. Returns the bytes of the
    /// last broadcast on every rank (on rank 0, those of its last root
    /// step).
    ///
    /// A failing root step hands the other ranks its error (a
    /// [`MachineError`] as it is, any other error as a
    /// [`MachineError::CollectiveMismatch`] with its text). A failing
    /// `Plan` fails every rank at once; on the wire rank 0 returns its own
    /// error. A failing `Act` fails the way the separate calls fail: on
    /// the wire rank 0 returns its own error at once and its peers learn
    /// of it when rank 0 departs, as [`MachineError::PeerGone`] (that is
    /// what a power cut inside an act's write looks like); the cell,
    /// which runs fault-free, hands it to every rank at once.
    ///
    /// # Panics
    ///
    /// If an `IfSet` does not directly follow a `Broadcast` or reaches
    /// past the end of the program.
    pub fn program<E, F>(
        &self,
        steps: &[Step],
        data: Vec<u8>,
        mut root_step: F,
    ) -> Result<Vec<u8>, E>
    where
        E: From<MachineError> + Display + 'static,
        F: FnMut(usize, &dyn RankIo, Gathered<'_>) -> Result<Vec<u8>, E>,
    {
        let mut instrs = Vec::with_capacity(3 * steps.len());
        // FNV-1a over the step codes: ranks that built different programs
        // fail the rendezvous instead of replaying one of them.
        let mut shape: u64 = 0xcbf2_9ce4_8422_2325;
        let mut roots = 0;
        for (i, &step) in steps.iter().enumerate() {
            let code = match step {
                Step::Barrier => {
                    instrs.extend([
                        Instr::Announce(CollOp::Barrier, None),
                        BARRIER[0],
                        BARRIER[1],
                    ]);
                    1
                }
                Step::Gather => {
                    instrs.extend([
                        Instr::Announce(CollOp::Gather, Some(0)),
                        Instr::Phase(Phase::new(Pattern::Gather(0), Op::Gather)),
                    ]);
                    2
                }
                Step::Plan => {
                    instrs.push(Instr::Plan(roots));
                    roots += 1;
                    3
                }
                Step::Act => {
                    instrs.push(Instr::Act(roots));
                    roots += 1;
                    4
                }
                Step::Broadcast => {
                    instrs.extend([
                        Instr::Announce(CollOp::Broadcast, Some(0)),
                        Instr::Phase(Phase::new(Pattern::Broadcast(0), Op::Broadcast)),
                    ]);
                    5
                }
                Step::IfSet(n) => {
                    assert!(
                        i > 0 && steps[i - 1] == Step::Broadcast,
                        "IfSet must follow a Broadcast"
                    );
                    let guarded = steps
                        .get(i + 1..i + 1 + n)
                        .expect("IfSet reaches past the program's end");
                    instrs.push(Instr::IfSet(guarded.iter().map(|s| s.len()).sum()));
                    6 + n as u64
                }
            };
            shape = (shape ^ code).wrapping_mul(0x0100_0000_01b3);
        }
        let program = Program {
            ops: &[CollOp::Barrier, CollOp::Gather, CollOp::Broadcast],
            root: 0,
            instrs: &instrs,
            shape,
        };
        let mut failure = None;
        let run = |io: &dyn RankIo, k, s: &mut Slots| match root_step(k, io, Gathered(&s.parts)) {
            Ok(bytes) => {
                s.whole = Payload::Owned(bytes);
                Ok(())
            }
            Err(e) => {
                let shared = match (&e as &dyn Any).downcast_ref::<MachineError>() {
                    Some(e) => e.clone(),
                    None => MachineError::CollectiveMismatch(e.to_string()),
                };
                failure = Some(e);
                Err(shared)
            }
        };
        let me = self.rank();
        let deposit = |s: &mut Slots| s.parts[me] = Payload::Owned(data);
        match self.run_program(program, run, deposit, Slots::take_whole) {
            Ok(out) => Ok(out.into_vec()),
            Err(e) => Err(match failure {
                Some(own) if self.cell().is_none() => own,
                _ => e.into(),
            }),
        }
    }

    /// Maximum of all ranks' virtual clocks, visible on every rank — the
    /// natural "machine time" of a phase boundary. Does not itself
    /// synchronize the clocks (use [`NodeCtx::barrier`] for that).
    pub fn max_time(&self) -> Result<VTime, MachineError> {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::MaxTime,
            root: None,
            bytes: 0,
        });
        let _scope = self.collective_scope();
        self.all_reduce(self.now(), VTime::max)
    }

    /// Synchronize every rank's virtual clock to the machine-wide maximum
    /// and return it: [`NodeCtx::max_time`] followed by
    /// [`NodeCtx::sync_to`] on each rank.
    ///
    /// This is the scheduling hook session-oriented layers lean on: a
    /// deterministic scheduler that picks the next queued request from
    /// shared state must make that decision at an identical `now()` on
    /// every rank, or the ranks diverge and their collectives deadlock.
    /// Calling `sync_clocks` at each decision point restores lockstep
    /// after per-rank work (skewed PFS costs, uneven compute) without the
    /// extra message round a full barrier would add.
    pub fn sync_clocks(&self) -> Result<VTime, MachineError> {
        let t = self.max_time()?;
        self.sync_to(t);
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::machine::Machine;

    #[test]
    fn sync_clocks_aligns_every_rank_to_the_machine_max() {
        let times = Machine::run(MachineConfig::functional(4), |ctx| {
            ctx.advance(VTime::from_millis(ctx.rank() as u64));
            let t = ctx.sync_clocks().unwrap();
            assert_eq!(ctx.now(), t, "clock must land exactly on the max");
            t
        })
        .unwrap();
        // Functional config: collectives are free, so the max is exactly
        // the slowest rank's advance and all ranks agree on it.
        for t in &times {
            assert_eq!(*t, VTime::from_millis(3));
        }
    }

    #[test]
    fn barrier_synchronizes_clocks() {
        let times = Machine::run(MachineConfig::functional(4), |ctx| {
            // Rank r works r milliseconds before the barrier.
            ctx.advance(VTime::from_millis(ctx.rank() as u64));
            ctx.barrier().unwrap();
            ctx.now()
        })
        .unwrap();
        for t in &times {
            assert!(*t >= VTime::from_millis(3), "clock {t} below slowest rank");
        }
    }

    #[test]
    fn broadcast_from_every_root() {
        for nprocs in [1usize, 2, 3, 5, 8] {
            for root in 0..nprocs {
                let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
                    let mine = vec![ctx.rank() as u8; 3];
                    ctx.broadcast(root, mine).unwrap()
                })
                .unwrap();
                for got in out {
                    assert_eq!(got, vec![root as u8; 3], "nprocs={nprocs} root={root}");
                }
            }
        }
    }

    #[test]
    fn gather_orders_by_rank() {
        let out = Machine::run(MachineConfig::functional(5), |ctx| {
            ctx.gather(2, vec![ctx.rank() as u8 * 10]).unwrap()
        })
        .unwrap();
        for (rank, res) in out.iter().enumerate() {
            if rank == 2 {
                let bufs = res.as_ref().unwrap();
                assert_eq!(bufs.len(), 5);
                for (i, b) in bufs.iter().enumerate() {
                    assert_eq!(b, &vec![i as u8 * 10]);
                }
            } else {
                assert!(res.is_none());
            }
        }
    }

    #[test]
    fn all_gather_replicates_everywhere() {
        let out = Machine::run(MachineConfig::functional(4), |ctx| {
            ctx.all_gather(vec![ctx.rank() as u8; ctx.rank() + 1])
                .unwrap()
        })
        .unwrap();
        for res in out {
            assert_eq!(res.len(), 4);
            for (i, b) in res.iter().enumerate() {
                assert_eq!(b, &vec![i as u8; i + 1]);
            }
        }
    }

    #[test]
    fn all_to_all_transposes() {
        for nprocs in [1usize, 2, 3, 4, 7] {
            let out = Machine::run(MachineConfig::functional(nprocs), move |ctx| {
                let parts: Vec<Vec<u8>> = (0..nprocs)
                    .map(|to| vec![ctx.rank() as u8, to as u8])
                    .collect();
                ctx.all_to_all(parts).unwrap()
            })
            .unwrap();
            for (me, got) in out.iter().enumerate() {
                for (from, buf) in got.iter().enumerate() {
                    assert_eq!(buf, &vec![from as u8, me as u8]);
                }
            }
        }
    }

    #[test]
    fn all_reduce_sums() {
        let out = Machine::run(MachineConfig::functional(6), |ctx| {
            ctx.all_reduce((ctx.rank() + 1) as u64, |a, b| a + b)
                .unwrap()
        })
        .unwrap();
        assert_eq!(out, vec![(1..=6).sum::<u64>(); 6]);
    }

    #[test]
    fn max_time_sees_slowest_rank() {
        let out = Machine::run(MachineConfig::functional(3), |ctx| {
            ctx.advance(VTime::from_millis(10 * (ctx.rank() as u64 + 1)));
            ctx.max_time().unwrap()
        })
        .unwrap();
        for t in out {
            assert!(t >= VTime::from_millis(30));
        }
    }

    #[test]
    fn every_leg_has_exactly_one_partner() {
        // Each phase pattern pairs every send with one receive on the
        // same edge, and uses each edge at most once.
        for n in 1..=17 {
            for root in 0..n {
                for pattern in [
                    Pattern::Gather(root),
                    Pattern::Scatter(root),
                    Pattern::Broadcast(root),
                ] {
                    let mut sends = Vec::new();
                    let mut recvs = Vec::new();
                    for rank in 0..n {
                        for hop in (0..).map_while(|k| pattern.hop(rank, n, k)) {
                            assert_ne!(hop.peer, rank, "{pattern:?} n={n}");
                            if hop.send {
                                sends.push((rank, hop.peer));
                            } else {
                                recvs.push((hop.peer, rank));
                            }
                        }
                    }
                    sends.sort_unstable();
                    recvs.sort_unstable();
                    assert_eq!(sends, recvs, "{pattern:?} n={n}");
                    assert!(sends.windows(2).all(|w| w[0] != w[1]));
                    assert_eq!(sends.len(), n - 1, "{pattern:?} n={n}");
                }
            }
        }
    }

    #[test]
    fn mismatched_collectives_fail_on_every_rank() {
        let out = Machine::run(MachineConfig::functional(4), |ctx| {
            if ctx.is_root() {
                ctx.barrier().map(|()| 0)
            } else {
                ctx.all_reduce(1u64, |a, b| a + b)
            }
        })
        .unwrap();
        for res in out {
            assert!(
                matches!(res, Err(MachineError::CollectiveMismatch(_))),
                "{res:?}"
            );
        }
    }

    #[test]
    fn broadcast_roots_must_agree() {
        let out = Machine::run(MachineConfig::functional(3), |ctx| {
            ctx.broadcast(ctx.rank() % 2, vec![ctx.rank() as u8])
        })
        .unwrap();
        for res in out {
            assert!(
                matches!(res, Err(MachineError::CollectiveMismatch(_))),
                "{res:?}"
            );
        }
    }

    #[test]
    fn collectives_compose_in_sequence() {
        // Exercise tag sequencing: several collectives back-to-back with
        // point-to-point traffic in between must not cross wires.
        let out = Machine::run(MachineConfig::functional(3), |ctx| {
            let a = ctx.all_reduce(1u64, |x, y| x + y).unwrap();
            if ctx.rank() == 0 {
                ctx.send(1, 42, b"hello").unwrap();
            } else if ctx.rank() == 1 {
                assert_eq!(ctx.recv(0, 42).unwrap(), b"hello");
            }
            let b = ctx.broadcast(1, vec![ctx.rank() as u8]).unwrap();
            ctx.barrier().unwrap();
            let c = ctx.all_gather(vec![ctx.rank() as u8]).unwrap();
            (a, b, c.len())
        })
        .unwrap();
        for (a, b, c) in out {
            assert_eq!(a, 3);
            assert_eq!(b, vec![1u8]);
            assert_eq!(c, 3);
        }
    }
}
