//! Collective operations over all ranks of the machine.
//!
//! Every collective must be called by *all* ranks (SPMD discipline), in the
//! same order. Broadcast uses a binomial tree (O(log P) rounds);
//! gather/scatter are flat through the root, which is faithful to how
//! mid-90s runtimes on ≤ a few dozen nodes behaved and keeps virtual-time
//! accounting transparent. Composites are two phases around one root-side
//! step: `barrier` is a gather then a release scatter, `all_reduce` a
//! gather, a fold and a broadcast, `all_gather` a gather, a framing and a
//! broadcast, the scans a gather, a prefix pass and a scatter.
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
//!   its entry clock and slots in the machine's `CollectiveCell` (see
//!   `cell.rs`), and the last to arrive replays the schedule for all
//!   ranks at once: `send_overhead`, then the arrival `now + latency +
//!   transfer(len + 1)` per leg, the arrival-max rule, `recv_overhead`.
//!   Those are the formulas of `NodeCtx::send`/`recv`, applied to the
//!   same legs with the same tags, so exit clocks and the
//!   `MsgSend`/`MsgRecv` events each rank records are identical to the
//!   wire path's by construction; only the host cost of the thread
//!   hand-offs is gone.
//!
//! The root-side step between phases runs on the root on the wire, and on
//! the combiner in the cell, with the combiner's own closure: SPMD
//! programs pass every rank the same reduction operator. `Wire` encodings
//! round-trip exactly, so folding decoded operands on either thread gives
//! the same value.
//!
//! Mismatched collectives are errors, never garbage. On the wire each
//! message carries a one-byte opcode, trailing the payload so a sender
//! appends it to a buffer it owns and a receiver strips it with a `pop`.
//! In the cell every rank deposits its opcode and root, and any
//! disagreement fails the collective on every rank with
//! [`MachineError::CollectiveMismatch`].
//!
//! `all_to_all` stays on the wire path on every machine. Its callers are
//! the unplanned sorted read, `Collection::fetch_all` and
//! `Collection::redistribute`, none of them on a hot path: the perfbench
//! workloads never call it, while `service_mix` runs tens of thousands
//! of barriers and clock syncs per round.

use std::sync::Arc;

use dstreams_trace::{CollOp, EventKind};

use crate::cell::{Entry, Outcome};
use crate::config::NetModel;
use crate::error::MachineError;
use crate::message::Tag;
use crate::node::NodeCtx;
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
    Scatter = 4,
    AllToAll = 5,
    Reduce = 6,
}

impl Op {
    fn from_byte(b: u8) -> Option<Op> {
        Some(match b {
            1 => Op::Barrier,
            2 => Op::Broadcast,
            3 => Op::Gather,
            4 => Op::Scatter,
            5 => Op::AllToAll,
            6 => Op::Reduce,
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

/// Decode a `Wire` value, naming `what` failed otherwise.
fn decode<T: Wire>(bytes: &[u8], what: &str) -> Result<T, MachineError> {
    T::from_wire(bytes).ok_or_else(|| MachineError::CollectiveMismatch(what.into()))
}

/// One rank's data in a collective: `parts` (indexed by rank) travel along
/// gather and scatter legs, `whole` along broadcast legs.
///
/// The whole is shared so that the cell can hand every rank the root's
/// broadcast buffer without copying it on the combiner's thread: each
/// rank copies it (the last one takes it) on its own thread, where a wire
/// receive would have allocated it too.
#[derive(Debug, Default)]
pub(crate) struct Slots {
    parts: Vec<Vec<u8>>,
    whole: Arc<Vec<u8>>,
}

/// What a leg carries: a part moves, the whole is shared.
enum Carried {
    Owned(Vec<u8>),
    Shared(Arc<Vec<u8>>),
}

impl Carried {
    fn len(&self) -> usize {
        match self {
            Carried::Owned(v) => v.len(),
            Carried::Shared(a) => a.len(),
        }
    }

    fn into_vec(self) -> Vec<u8> {
        match self {
            Carried::Owned(v) => v,
            Carried::Shared(a) => Arc::unwrap_or_clone(a),
        }
    }

    /// The wire bytes of the payload: its own buffer, or a copy with one
    /// spare byte, with the opcode appended.
    fn into_tagged(self, op: Op) -> Vec<u8> {
        match self {
            Carried::Owned(v) => tagged(op, v),
            Carried::Shared(a) => {
                let mut copy = Vec::with_capacity(a.len() + 1);
                copy.extend_from_slice(&a);
                tagged(op, copy)
            }
        }
    }
}

impl Slots {
    /// `n` empty parts but this rank's `data`.
    fn part(n: usize, rank: usize, data: Vec<u8>) -> Self {
        let mut parts = vec![Vec::new(); n];
        parts[rank] = data;
        Slots {
            parts,
            whole: Arc::default(),
        }
    }

    /// What a send leg ships: a part moves out, the whole is shared (a
    /// broadcast forwards it to several children and keeps it).
    fn ship(&mut self, slot: Slot) -> Carried {
        match slot {
            Slot::Part(i) => Carried::Owned(std::mem::take(&mut self.parts[i])),
            Slot::Whole => Carried::Shared(Arc::clone(&self.whole)),
        }
    }

    /// Store what a receive leg delivered.
    fn store(&mut self, slot: Slot, data: Carried) {
        match (slot, data) {
            (Slot::Part(i), data) => self.parts[i] = data.into_vec(),
            (Slot::Whole, Carried::Shared(a)) => self.whole = a,
            (Slot::Whole, Carried::Owned(v)) => self.whole = Arc::new(v),
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
}

/// One phase of a collective: its pattern and the opcode its wire
/// messages carry.
#[derive(Debug, Clone, Copy)]
struct Phase {
    pattern: Pattern,
    op: Op,
}

impl Phase {
    fn new(pattern: Pattern, op: Op) -> Self {
        Phase { pattern, op }
    }
}

/// The cell executor: run `phase` for every rank at once, moving the
/// slots along its legs and advancing each lane's clock exactly as the
/// wire legs would.
fn simulate(phase: Phase, tag: Tag, net: &NetModel, tracing: bool, lanes: &mut [Outcome]) {
    let n = lanes.len();
    // Each rank's next leg; `usize::MAX` once it ran its last.
    let mut next = vec![0usize; n];
    // In-flight message per (from, to) edge; a phase uses each edge once.
    let mut wire: Vec<Option<(VTime, Carried)>> = (0..n * n).map(|_| None).collect();
    let mut left = n;
    while left > 0 {
        let mut progressed = false;
        for (r, lane) in lanes.iter_mut().enumerate() {
            if next[r] == usize::MAX {
                continue;
            }
            loop {
                let Some(Hop { send, peer, slot }) = phase.pattern.hop(r, n, next[r]) else {
                    next[r] = usize::MAX;
                    left -= 1;
                    progressed = true;
                    break;
                };
                if send {
                    let payload = lane.slots.ship(slot);
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
                    let arrival = lane.clock + net.latency + net.transfer(bytes);
                    wire[r * n + peer] = Some((arrival, payload));
                } else {
                    let Some((arrival, payload)) = wire[peer * n + r].take() else {
                        break;
                    };
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
                    lane.slots.store(slot, payload);
                }
                next[r] += 1;
                progressed = true;
            }
        }
        assert!(progressed, "collective schedule cannot make progress");
    }
}

impl NodeCtx {
    /// Run one collective: `phases` (one or two) over `root`, with
    /// `at_root` applied to the root's slots after the first phase.
    /// Returns this rank's slots at exit. `op` names the API-level
    /// collective for the cell's cross-rank agreement check.
    fn run_collective<F>(
        &self,
        op: CollOp,
        root: usize,
        phases: &[Phase],
        mut slots: Slots,
        mut at_root: F,
    ) -> Result<Slots, MachineError>
    where
        F: FnMut(&mut Slots) -> Result<(), MachineError>,
    {
        let mut tags: [Tag; 2] = [0; 2];
        for tag in &mut tags[..phases.len()] {
            *tag = self.next_coll_tag();
        }
        let Some(cell) = self.cell() else {
            for (i, (&phase, &tag)) in phases.iter().zip(&tags).enumerate() {
                self.wire_phase(phase, tag, &mut slots)?;
                if i == 0 && self.rank() == root {
                    at_root(&mut slots)?;
                }
            }
            return Ok(slots);
        };
        let entry = Entry {
            op,
            root,
            clock: self.now(),
            slots,
        };
        let out = cell.rendezvous(self.rank(), entry, tags[0], |entries| {
            if let Some((r, e)) = entries
                .iter()
                .enumerate()
                .find(|(_, e)| e.op != entries[0].op || e.root != entries[0].root)
            {
                return Err(MachineError::CollectiveMismatch(format!(
                    "rank {r} called {} (root {}) but rank 0 called {} (root {})",
                    e.op.name(),
                    e.root,
                    entries[0].op.name(),
                    entries[0].root
                )));
            }
            let mut lanes: Vec<Outcome> = entries
                .into_iter()
                .map(|e| Outcome {
                    clock: e.clock,
                    slots: e.slots,
                    events: Vec::new(),
                })
                .collect();
            for (i, (&phase, &tag)) in phases.iter().zip(&tags).enumerate() {
                simulate(phase, tag, &self.config().net, self.tracing(), &mut lanes);
                if i == 0 {
                    at_root(&mut lanes[root].slots)?;
                }
            }
            Ok(lanes)
        })?;
        for (vtime, kind) in out.events {
            self.emit_at(vtime, kind);
        }
        self.sync_to(out.clock);
        Ok(out.slots)
    }

    /// The wire executor: run this rank's legs of `phase` as real
    /// messages.
    fn wire_phase(&self, phase: Phase, tag: Tag, slots: &mut Slots) -> Result<(), MachineError> {
        let (rank, n) = (self.rank(), self.nprocs());
        for Hop { send, peer, slot } in (0..).map_while(|k| phase.pattern.hop(rank, n, k)) {
            if send {
                self.send_owned(peer, tag, slots.ship(slot).into_tagged(phase.op))?;
            } else {
                let data = untag(phase.op, self.recv(peer, tag)?)?;
                slots.store(slot, Carried::Owned(data));
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
        // Gather tiny messages to rank 0, then scatter the release. Clock
        // synchronization falls out of the arrival-time max rule.
        let phases = [
            Phase::new(Pattern::Gather(0), Op::Barrier),
            Phase::new(Pattern::Scatter(0), Op::Barrier),
        ];
        let slots = Slots::part(self.nprocs(), self.rank(), Vec::new());
        self.run_collective(CollOp::Barrier, 0, &phases, slots, |_| Ok(()))?;
        Ok(())
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
        let phases = [Phase::new(Pattern::Broadcast(root), Op::Broadcast)];
        let slots = Slots {
            parts: Vec::new(),
            whole: Arc::new(data),
        };
        let out = self.run_collective(CollOp::Broadcast, root, &phases, slots, |_| Ok(()))?;
        Ok(Arc::unwrap_or_clone(out.whole))
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
        let phases = [Phase::new(Pattern::Gather(root), Op::Gather)];
        let slots = Slots::part(self.nprocs(), self.rank(), data);
        let out = self.run_collective(CollOp::Gather, root, &phases, slots, |_| Ok(()))?;
        Ok((self.rank() == root).then_some(out.parts))
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
        let phases = [
            Phase::new(Pattern::Gather(0), Op::Gather),
            Phase::new(Pattern::Broadcast(0), Op::Broadcast),
        ];
        let slots = Slots::part(self.nprocs(), self.rank(), data);
        let out = self.run_collective(CollOp::AllGather, 0, &phases, slots, |s| {
            s.whole = Arc::new(frame_blocks(&s.parts));
            Ok(())
        })?;
        // The root already holds every buffer; only the others unframe.
        if self.is_root() {
            return Ok(out.parts);
        }
        unframe_blocks(&out.whole).ok_or_else(|| {
            MachineError::CollectiveMismatch("all_gather: malformed framed payload".into())
        })
    }

    /// Scatter one buffer to each rank from `root`. On the root, `parts`
    /// must be `Some` with exactly `nprocs` entries; elsewhere it must be
    /// `None`. Returns this rank's part.
    pub fn scatter(
        &self,
        root: usize,
        parts: Option<Vec<Vec<u8>>>,
    ) -> Result<Vec<u8>, MachineError> {
        self.check_root(root)?;
        let n = self.nprocs();
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Scatter,
            root: Some(root),
            bytes: parts
                .as_ref()
                .map_or(0, |ps| ps.iter().map(|p| p.len() as u64).sum()),
        });
        let _scope = self.collective_scope();
        let parts = match parts {
            Some(parts) if self.rank() == root && parts.len() == n => parts,
            Some(parts) if self.rank() == root => {
                return Err(MachineError::CollectiveMismatch(format!(
                    "scatter: {} parts for {} ranks",
                    parts.len(),
                    n
                )));
            }
            None if self.rank() == root => {
                return Err(MachineError::CollectiveMismatch(
                    "scatter: root must supply parts".into(),
                ));
            }
            None => vec![Vec::new(); n],
            Some(_) => {
                return Err(MachineError::CollectiveMismatch(
                    "scatter: non-root rank supplied parts".into(),
                ));
            }
        };
        let phases = [Phase::new(Pattern::Scatter(root), Op::Scatter)];
        let slots = Slots {
            parts,
            whole: Arc::default(),
        };
        let mut out = self.run_collective(CollOp::Scatter, root, &phases, slots, |_| Ok(()))?;
        Ok(std::mem::take(&mut out.parts[self.rank()]))
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

    /// Fold the root's gathered operands in the wire order (the root's
    /// own first, then every other rank's in rank order) into
    /// `slots.whole`.
    fn fold_at_root<T, F>(root: usize, op: &F, slots: &mut Slots) -> Result<(), MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        const WHAT: &str = "reduce: undecodable operand";
        let mut acc: T = decode(&slots.parts[root], WHAT)?;
        for (from, raw) in slots.parts.iter().enumerate() {
            if from != root {
                acc = op(acc, decode(raw, WHAT)?);
            }
        }
        slots.whole = Arc::new(acc.to_wire());
        Ok(())
    }

    /// Reduce `value` across all ranks with `op`, result on `root` only.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>, MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.check_root(root)?;
        let mine = value.to_wire();
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Reduce,
            root: Some(root),
            bytes: mine.len() as u64,
        });
        let _scope = self.collective_scope();
        let phases = [Phase::new(Pattern::Gather(root), Op::Reduce)];
        let slots = Slots::part(self.nprocs(), self.rank(), mine);
        let out = self.run_collective(CollOp::Reduce, root, &phases, slots, |s| {
            Self::fold_at_root(root, &op, s)
        })?;
        if self.rank() != root {
            return Ok(None);
        }
        decode(&out.whole, "reduce: undecodable result").map(Some)
    }

    /// Reduce with the result delivered to every rank: a reduce to rank 0
    /// followed by a broadcast of the result.
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> Result<T, MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let mine = value.to_wire();
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllReduce,
            root: None,
            bytes: mine.len() as u64,
        });
        let _scope = self.collective_scope();
        let phases = [
            Phase::new(Pattern::Gather(0), Op::Reduce),
            Phase::new(Pattern::Broadcast(0), Op::Broadcast),
        ];
        let slots = Slots::part(self.nprocs(), self.rank(), mine);
        let out = self.run_collective(CollOp::AllReduce, 0, &phases, slots, |s| {
            Self::fold_at_root(0, &op, s)
        })?;
        decode(&out.whole, "all_reduce: undecodable result")
    }

    /// Gather every rank's operand to rank 0, let `prefixes` turn them
    /// into per-rank results there, and scatter those back.
    fn prefix_collective<T, P>(
        &self,
        op: CollOp,
        value: T,
        what: &str,
        mut prefixes: P,
    ) -> Result<T, MachineError>
    where
        T: Wire,
        P: FnMut(&[Vec<u8>]) -> Result<Vec<Vec<u8>>, MachineError>,
    {
        let phases = [
            Phase::new(Pattern::Gather(0), Op::Gather),
            Phase::new(Pattern::Scatter(0), Op::Scatter),
        ];
        let slots = Slots::part(self.nprocs(), self.rank(), value.to_wire());
        let out = self.run_collective(op, 0, &phases, slots, |s| {
            s.parts = prefixes(&s.parts)?;
            Ok(())
        })?;
        decode(&out.parts[self.rank()], what)
    }

    /// Inclusive prefix reduction ("scan"): rank r receives
    /// `op(v_0, op(v_1, … v_r))`. Useful for computing per-rank offsets
    /// into a shared resource (e.g. file regions) in one collective.
    pub fn scan<T, F>(&self, value: T, op: F) -> Result<T, MachineError>
    where
        T: Wire,
        F: Fn(&T, &T) -> T,
    {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Scan,
            root: None,
            bytes: value.to_wire().len() as u64,
        });
        let _scope = self.collective_scope();
        self.prefix_collective(CollOp::Scan, value, "scan: undecodable result", |bufs| {
            let mut acc: Option<T> = None;
            let mut out = Vec::with_capacity(bufs.len());
            for b in bufs {
                let v: T = decode(b, "scan: undecodable operand")?;
                let next = match &acc {
                    None => v,
                    Some(a) => op(a, &v),
                };
                out.push(next.to_wire());
                acc = Some(decode(&out[out.len() - 1], "scan: roundtrip failure")?);
            }
            Ok(out)
        })
    }

    /// Exclusive prefix reduction: rank 0 receives `identity`, rank r > 0
    /// receives `op(v_0, … v_{r-1})`.
    pub fn exclusive_scan<T, F>(&self, value: T, identity: T, op: F) -> Result<T, MachineError>
    where
        T: Wire,
        F: Fn(&T, &T) -> T,
    {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::ExclusiveScan,
            root: None,
            bytes: value.to_wire().len() as u64,
        });
        let _scope = self.collective_scope();
        let mut identity = Some(identity);
        let what = "exclusive_scan: undecodable result";
        self.prefix_collective(CollOp::ExclusiveScan, value, what, |bufs| {
            let mut acc = identity.take().expect("the root step runs once");
            let mut out = Vec::with_capacity(bufs.len());
            for b in bufs {
                out.push(acc.to_wire());
                let v: T = decode(b, "exclusive_scan: undecodable operand")?;
                acc = op(&acc, &v);
            }
            Ok(out)
        })
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
    fn scatter_delivers_by_rank() {
        let out = Machine::run(MachineConfig::functional(4), |ctx| {
            let parts = ctx
                .is_root()
                .then(|| (0..4).map(|r| vec![r as u8; r + 1]).collect());
            ctx.scatter(0, parts).unwrap()
        })
        .unwrap();
        for (r, part) in out.iter().enumerate() {
            assert_eq!(part, &vec![r as u8; r + 1]);
        }
    }

    #[test]
    fn scatter_rejects_wrong_part_count() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            if ctx.is_root() {
                let err = ctx.scatter(0, Some(vec![vec![]; 3])).unwrap_err();
                assert!(matches!(err, MachineError::CollectiveMismatch(_)));
            }
        })
        .unwrap();
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
    fn reduce_and_all_reduce_sum() {
        let out = Machine::run(MachineConfig::functional(6), |ctx| {
            let local = (ctx.rank() + 1) as u64;
            let r = ctx.reduce(0, local, |a, b| a + b).unwrap();
            let ar = ctx.all_reduce(local, |a: u64, b| a + b).unwrap();
            (r, ar)
        })
        .unwrap();
        let expect: u64 = (1..=6).sum();
        assert_eq!(out[0].0, Some(expect));
        for (r, (red, allred)) in out.iter().enumerate() {
            assert_eq!(*allred, expect);
            if r != 0 {
                assert!(red.is_none());
            }
        }
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
    fn scan_computes_inclusive_prefixes() {
        let out = Machine::run(MachineConfig::functional(5), |ctx| {
            ctx.scan((ctx.rank() + 1) as u64, |a, b| a + b).unwrap()
        })
        .unwrap();
        assert_eq!(out, vec![1, 3, 6, 10, 15]);
    }

    #[test]
    fn exclusive_scan_computes_offsets() {
        // The classic use: per-rank byte offsets from per-rank lengths.
        let out = Machine::run(MachineConfig::functional(4), |ctx| {
            let my_len = (ctx.rank() as u64 + 1) * 10;
            ctx.exclusive_scan(my_len, 0u64, |a, b| a + b).unwrap()
        })
        .unwrap();
        assert_eq!(out, vec![0, 10, 30, 60]);
    }

    #[test]
    fn scans_work_on_one_rank() {
        let out = Machine::run(MachineConfig::functional(1), |ctx| {
            (
                ctx.scan(7u64, |a, b| a + b).unwrap(),
                ctx.exclusive_scan(7u64, 0u64, |a, b| a + b).unwrap(),
            )
        })
        .unwrap();
        assert_eq!(out[0], (7, 0));
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
