//! The per-rank execution context.
//!
//! A `NodeCtx` is what the user's SPMD closure receives: it identifies the
//! rank, carries the virtual clock, and provides point-to-point messaging.
//! Collective operations (barrier, broadcast, reductions, scans, …) are
//! methods on `NodeCtx` too, implemented in the collectives module.
//!
//! All methods take `&self`: the context is confined to its own thread
//! (`!Sync` by construction thanks to the interior `RefCell`s), so interior
//! mutability is safe and keeps the API ergonomic for layered libraries
//! that each hold a shared reference.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use crossbeam::channel::Sender;
use dstreams_trace::{Event, EventKind, TraceSink};

use crate::cell::CollectiveCell;
use crate::config::{MachineConfig, MemoryModel};
use crate::error::MachineError;
use crate::fault::{FaultDecision, MsgFate, MsgFaultPlan, RankFaults};
use crate::message::{is_data_plane, Envelope, Mailbox, Tag, COLLECTIVE_TAG_BASE};
use crate::time::{VTime, VirtualClock};

/// Per-rank tracing state: the shared sink plus this rank's event
/// sequence counter and collective-nesting depth.
struct Tracer {
    sink: TraceSink,
    seq: Cell<u64>,
    /// Depth of nested API-level collectives. `Collective` events are
    /// only emitted at depth 0, so a composite (e.g. `all_gather`) or a
    /// PFS collective built on machine collectives shows up as *one*
    /// logical operation, not its plumbing.
    coll_depth: Cell<u32>,
}

/// Sender-side state of the reliable-delivery layer, engaged only when
/// the fault plan carries a message dimension. On the plan-free path the
/// machine never touches it, so behavior (and traces) stay bit-identical
/// to a build without the layer.
struct MsgLayer {
    plan: MsgFaultPlan,
    /// Per-destination data-plane message counters, the coordinate that
    /// edge cuts and rank kills are keyed to.
    data_seq: Vec<u64>,
    /// Destinations the failure detector has declared unreachable.
    /// Data-plane sends to a suspected peer fail fast; collective legs
    /// keep flowing so the coordination plane stays live.
    suspected: Vec<bool>,
    /// One envelope per destination held back by a `Reorder` fate; it is
    /// physically handed over at the sender's next wire operation, so
    /// newer traffic overtakes it and the receiver's sequence buffer has
    /// a real inversion to undo.
    held: Vec<Option<Envelope>>,
}

/// A pending asynchronous operation on a rank's queue: a deferred
/// virtual-time cost that elapses in the background while the rank keeps
/// executing. Returned by [`NodeCtx::async_submit`]; retire it with
/// [`NodeCtx::async_complete`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsyncOp {
    id: u64,
    cost: VTime,
    completion: VTime,
}

impl AsyncOp {
    /// Per-rank id of this operation (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The deferred service cost.
    pub fn cost(&self) -> VTime {
        self.cost
    }

    /// Virtual time at which the operation completes. Completions are
    /// ordinary virtual-time events: waiting for one is `sync_to` — the
    /// clock never moves backwards, so the conservative rules of
    /// [`crate::time`] hold unchanged.
    pub fn completion(&self) -> VTime {
        self.completion
    }
}

/// Per-rank pending-async-op queue state. The queue models one I/O
/// service channel per rank: deferred costs serialize, so an operation
/// submitted while another is in flight starts when its predecessor
/// completes.
struct AsyncQueue {
    next_id: u64,
    /// Completion time of the most recently submitted operation.
    tail: VTime,
    /// Ids still in flight (submitted, not yet completed).
    pending: Vec<u64>,
}

/// Execution context handed to each rank of a machine run.
pub struct NodeCtx {
    rank: usize,
    config: MachineConfig,
    /// `tx[to]` sends to rank `to`.
    tx: Vec<Sender<Envelope>>,
    mailbox: RefCell<Mailbox>,
    clock: RefCell<VirtualClock>,
    /// Sequence number for collective operations (tag disambiguation).
    coll_seq: Cell<u32>,
    tracer: Option<Tracer>,
    /// Logical PFS operations issued by this rank (always counted, so
    /// fault plans can be keyed to op indices observed in a clean run).
    pfs_ops: Cell<u64>,
    /// Runtime state of the configured fault plan, if any.
    faults: Option<RefCell<RankFaults>>,
    /// Per-destination wire sequence counters (count every envelope this
    /// rank sends to each peer, any tag). Always stamped, so the
    /// receive-side sequence gate is pass-through on the fault-free path.
    seq_out: RefCell<Vec<u64>>,
    /// Sender half of the reliable-delivery layer, when message faults
    /// are configured.
    msg: Option<RefCell<MsgLayer>>,
    /// This rank's pending asynchronous operations.
    asyncq: RefCell<AsyncQueue>,
    /// The machine's collective cell, on fault-free runs; `None` sends
    /// every collective leg over the wire.
    cell: Option<Arc<CollectiveCell>>,
}

impl NodeCtx {
    pub(crate) fn new(
        rank: usize,
        config: MachineConfig,
        tx: Vec<Sender<Envelope>>,
        mailbox: Mailbox,
        cell: Option<Arc<CollectiveCell>>,
    ) -> Self {
        let tracer = config.trace.clone().map(|sink| Tracer {
            sink,
            seq: Cell::new(0),
            coll_depth: Cell::new(0),
        });
        let faults = config
            .faults
            .clone()
            .map(|plan| RefCell::new(RankFaults::new(plan, rank)));
        let n = tx.len();
        let msg = config
            .faults
            .as_ref()
            .and_then(|plan| plan.msg.clone())
            .map(|plan| {
                RefCell::new(MsgLayer {
                    plan,
                    data_seq: vec![0; n],
                    suspected: vec![false; n],
                    held: (0..n).map(|_| None).collect(),
                })
            });
        NodeCtx {
            rank,
            config,
            tx,
            mailbox: RefCell::new(mailbox),
            clock: RefCell::new(VirtualClock::new()),
            coll_seq: Cell::new(0),
            tracer,
            pfs_ops: Cell::new(0),
            faults,
            seq_out: RefCell::new(vec![0; n]),
            msg,
            asyncq: RefCell::new(AsyncQueue {
                next_id: 0,
                tail: VTime::ZERO,
                pending: Vec::new(),
            }),
            cell,
        }
    }

    /// This rank's index, in `0..nprocs`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the machine.
    #[inline]
    pub fn nprocs(&self) -> usize {
        self.tx.len()
    }

    /// Whether this rank is rank 0 (the conventional coordinator).
    #[inline]
    pub fn is_root(&self) -> bool {
        self.rank == 0
    }

    /// The machine configuration this run was started with.
    #[inline]
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Memory model (distributed vs. shared).
    #[inline]
    pub fn memory_model(&self) -> MemoryModel {
        self.config.memory
    }

    /// Deterministic RNG seed for this rank.
    pub fn seed(&self) -> u64 {
        self.config.seed_for_rank(self.rank)
    }

    // ---- virtual time ----------------------------------------------------

    /// Current virtual time on this rank.
    pub fn now(&self) -> VTime {
        self.clock.borrow().now()
    }

    /// Advance the local clock by `d` (models local work).
    pub fn advance(&self, d: VTime) {
        self.clock.borrow_mut().advance(d);
    }

    /// Synchronize the local clock forward to `t` (no-op if already later).
    pub fn sync_to(&self, t: VTime) {
        self.clock.borrow_mut().sync_to(t);
    }

    /// Charge the cost of copying `bytes` through local memory.
    pub fn charge_memcpy(&self, bytes: usize) {
        self.advance(self.config.cpu.memcpy(bytes));
    }

    // ---- tracing ----------------------------------------------------------

    /// Whether this run is recording a trace.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record one event, stamped with this rank's clock and sequence
    /// counter. The closure runs only when tracing is enabled, so a
    /// disabled run pays exactly one branch and never builds the event.
    /// Emitting never touches the clock: virtual times are identical with
    /// tracing on or off.
    #[inline]
    pub fn emit_with<F: FnOnce() -> EventKind>(&self, kind: F) {
        if self.tracer.is_some() {
            self.emit_at(self.now(), kind());
        }
    }

    /// Record one event stamped with `vtime` instead of the clock: the
    /// legs a collective cell ran on this rank's behalf.
    pub(crate) fn emit_at(&self, vtime: VTime, kind: EventKind) {
        if let Some(t) = &self.tracer {
            let seq = t.seq.get();
            t.seq.set(seq + 1);
            t.sink.record(Event {
                rank: self.rank,
                vtime_ns: vtime.as_nanos(),
                seq,
                kind,
            });
        }
    }

    /// Record an API-level `Collective` event unless one is already open
    /// on this rank (composites and PFS collectives suppress the events of
    /// the primitives they are built from).
    #[inline]
    pub fn emit_collective_with<F: FnOnce() -> EventKind>(&self, kind: F) {
        if let Some(t) = &self.tracer {
            if t.coll_depth.get() == 0 {
                self.emit_with(kind);
            }
        }
    }

    /// Open a collective scope: until the returned guard drops, nested
    /// `emit_collective_with` calls on this rank are suppressed. Used by
    /// every machine collective and by PFS collective operations, whose
    /// internal coordination (barriers, size gathers, plan broadcasts) is
    /// plumbing of one logical operation.
    #[inline]
    pub fn collective_scope(&self) -> CollectiveScope<'_> {
        if let Some(t) = &self.tracer {
            t.coll_depth.set(t.coll_depth.get() + 1);
        }
        CollectiveScope { ctx: self }
    }

    // ---- asynchronous operations ------------------------------------------

    /// Submit a deferred cost to this rank's pending-async-op queue and
    /// return its handle. The operation starts at `max(now, queue tail)`
    /// — one service channel per rank, FIFO — and completes `cost` later.
    /// The call never blocks and never moves the clock: the cost elapses
    /// in the background while the rank keeps executing.
    pub fn async_submit(&self, cost: VTime) -> AsyncOp {
        let mut q = self.asyncq.borrow_mut();
        let start = self.now().max(q.tail);
        let completion = start + cost;
        let id = q.next_id;
        q.next_id += 1;
        q.tail = completion;
        q.pending.push(id);
        let depth = q.pending.len() as u32;
        drop(q);
        self.emit_with(|| EventKind::AsyncSubmit {
            op_id: id,
            cost_ns: cost.as_nanos(),
            completion_ns: completion.as_nanos(),
            queue_depth: depth,
        });
        AsyncOp {
            id,
            cost,
            completion,
        }
    }

    /// Retire a pending asynchronous operation: synchronize the clock
    /// forward to its completion time (a no-op if the rank's own progress
    /// already passed it — the fully overlapped case). Idempotent per
    /// handle; completing out of submission order is legal (earlier
    /// completions are necessarily no later).
    pub fn async_complete(&self, op: &AsyncOp) {
        self.asyncq.borrow_mut().pending.retain(|&i| i != op.id);
        let stall = op.completion.saturating_since(self.now());
        let overlap = op.cost.saturating_since(stall);
        // Emitted before the clock moves so the trace span covers the
        // stall window `[wait start, completion]`.
        self.emit_with(|| EventKind::AsyncComplete {
            op_id: op.id,
            cost_ns: op.cost.as_nanos(),
            stall_ns: stall.as_nanos(),
            overlap_ns: overlap.as_nanos(),
        });
        self.sync_to(op.completion);
    }

    /// Number of asynchronous operations currently in flight on this rank.
    pub fn async_in_flight(&self) -> usize {
        self.asyncq.borrow().pending.len()
    }

    // ---- fault injection ---------------------------------------------------

    /// Allocate the index of this rank's next logical PFS operation.
    /// Retries of one operation must reuse the index they were given.
    pub fn next_pfs_op(&self) -> u64 {
        let k = self.pfs_ops.get();
        self.pfs_ops.set(k + 1);
        k
    }

    /// How many logical PFS operations this rank has issued so far.
    /// Useful for discovering the op-index space a fault plan can target
    /// (run clean once, read the count, then sweep crash points).
    pub fn pfs_op_count(&self) -> u64 {
        self.pfs_ops.get()
    }

    /// Consult the configured fault plan about attempt `attempt` of
    /// logical operation `op`; `write_len` is `Some` for writes. Without
    /// a plan this is a single branch returning `Proceed`.
    pub fn fault_decision(&self, op: u64, attempt: u32, write_len: Option<usize>) -> FaultDecision {
        match &self.faults {
            Some(f) => f.borrow_mut().decide(op, attempt, write_len),
            None => FaultDecision::Proceed,
        }
    }

    /// True once an injected power cut has killed this rank.
    pub fn fault_is_dead(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.borrow().is_dead())
    }

    /// Kill this rank: every subsequent machine or file operation fails
    /// with [`MachineError::RankCrashed`]. Called by the PFS layer when a
    /// crash fault fires.
    pub fn fault_mark_dead(&self) {
        if let Some(f) = &self.faults {
            f.borrow_mut().mark_dead();
        }
    }

    /// Fail fast if this rank is dead.
    fn check_alive(&self) -> Result<(), MachineError> {
        if self.fault_is_dead() {
            return Err(MachineError::RankCrashed { rank: self.rank });
        }
        Ok(())
    }

    // ---- point-to-point messaging ----------------------------------------

    /// Send `payload` to rank `to` with `tag`.
    ///
    /// Advances the sender's clock by the send overhead; the arrival time
    /// stamped on the envelope includes wire latency and per-byte transfer
    /// time. Self-sends are legal and bypass the wire cost (only the send
    /// overhead is charged).
    ///
    /// Under a message fault plan this is also the sender half of the
    /// reliable-delivery layer: seeded `Drop` fates are absorbed by
    /// ack-timeout retransmission under exponential virtual-time backoff
    /// (acks ride for free on the reverse path, so the fault-free cost is
    /// unchanged); `Duplicate` and `Reorder` fates are physically injected
    /// for the receiver's sequence gate to absorb; and a message dropped
    /// on every attempt fires the failure detector — the peer is marked
    /// suspect, a tombstone tells the receiver the edge is dead, and the
    /// send returns [`MachineError::PeerGone`] instead of hanging.
    pub fn send(&self, to: usize, tag: Tag, payload: &[u8]) -> Result<(), MachineError> {
        self.send_owned(to, tag, payload.to_vec())
    }

    /// [`NodeCtx::send`] of a buffer the caller gives up: the payload
    /// moves into the envelope without another copy.
    pub(crate) fn send_owned(
        &self,
        to: usize,
        tag: Tag,
        payload: Vec<u8>,
    ) -> Result<(), MachineError> {
        self.check_alive()?;
        if to >= self.tx.len() {
            return Err(MachineError::InvalidRank {
                rank: to,
                nprocs: self.tx.len(),
            });
        }
        // Anything held back by a Reorder fate is "in the network": hand
        // it over before new traffic, except toward `to`, whose held
        // envelope is overtaken by this send below.
        self.flush_held(Some(to));
        let net = &self.config.net;
        if let Some(ml_cell) = self.msg.as_ref().filter(|_| to != self.rank) {
            let mut ml = ml_cell.borrow_mut();
            let data = is_data_plane(tag);
            if data && ml.suspected[to] {
                // Sticky failure detection: don't re-probe a dead edge.
                return Err(MachineError::PeerGone { rank: to });
            }
            let seq = self.next_msg_seq(to);
            let cut = data && {
                let dseq = ml.data_seq[to];
                ml.data_seq[to] += 1;
                ml.plan.edge_cut(self.rank, to, dseq)
            };
            self.advance(net.send_overhead);
            let max_attempts = ml.plan.max_attempts.max(1);
            let mut attempt: u32 = 0;
            let fate = loop {
                let f = if cut {
                    MsgFate::Drop
                } else {
                    ml.plan.fate(self.rank, to, seq, attempt)
                };
                if f != MsgFate::Drop {
                    break f;
                }
                if attempt + 1 >= max_attempts {
                    return self.give_up(&mut ml, to, tag, seq, max_attempts);
                }
                let backoff = ml.plan.rto(attempt);
                self.advance(backoff);
                attempt += 1;
                self.emit_with(|| EventKind::Retransmit {
                    to,
                    tag,
                    msg_seq: seq,
                    attempt,
                    backoff_ns: backoff.as_nanos(),
                });
            };
            let mut arrival = self.now() + net.latency + net.transfer(payload.len());
            if let MsgFate::Delay { extra_ns } = fate {
                arrival += VTime::from_nanos(extra_ns);
            }
            self.emit_with(|| EventKind::MsgSend {
                to,
                tag,
                bytes: payload.len() as u64,
                collective: tag & COLLECTIVE_TAG_BASE != 0,
            });
            let env = Envelope {
                from: self.rank,
                tag,
                seq,
                arrival,
                tombstone: false,
                payload,
            };
            let gone = |_| MachineError::PeerGone { rank: to };
            match fate {
                MsgFate::Reorder if ml.held[to].is_none() => {
                    ml.held[to] = Some(env);
                }
                MsgFate::Duplicate => {
                    let copy = Envelope {
                        from: env.from,
                        tag: env.tag,
                        seq: env.seq,
                        arrival: env.arrival,
                        tombstone: false,
                        payload: env.payload.clone(),
                    };
                    self.tx[to].send(env).map_err(gone)?;
                    // The receiver may consume the first copy and exit
                    // before this one lands; its dedup filter would have
                    // discarded the copy anyway, so a closed channel is
                    // not an error here.
                    let _ = self.tx[to].send(copy);
                    if let Some(old) = ml.held[to].take() {
                        let _ = self.tx[to].send(old);
                    }
                }
                _ => {
                    self.tx[to].send(env).map_err(gone)?;
                    // An overtaken envelope was logically delivered when it
                    // was held; if the receiver exited in the meantime it
                    // provably never needed it.
                    if let Some(old) = ml.held[to].take() {
                        let _ = self.tx[to].send(old);
                    }
                }
            }
            return Ok(());
        }
        // Plan-free (or loopback) path: the classic send, bit-identical
        // to the machine before the reliability layer existed.
        let seq = self.next_msg_seq(to);
        self.advance(net.send_overhead);
        let arrival = if to == self.rank {
            self.now()
        } else {
            self.now() + net.latency + net.transfer(payload.len())
        };
        let env = Envelope {
            from: self.rank,
            tag,
            seq,
            arrival,
            tombstone: false,
            payload,
        };
        self.emit_with(|| EventKind::MsgSend {
            to,
            tag,
            bytes: env.payload.len() as u64,
            collective: tag & COLLECTIVE_TAG_BASE != 0,
        });
        self.tx[to]
            .send(env)
            .map_err(|_| MachineError::PeerGone { rank: to })
    }

    /// Allocate the next wire sequence number for the edge to `to`.
    fn next_msg_seq(&self, to: usize) -> u64 {
        let mut s = self.seq_out.borrow_mut();
        let q = s[to];
        s[to] += 1;
        q
    }

    /// The failure detector has fired: every attempt of message `seq` to
    /// `to` was dropped. Mark the peer suspect, flush anything held for
    /// it, deliver a tombstone so the receiver both learns the edge is
    /// dead and closes the sequence gap, and fail the send.
    fn give_up(
        &self,
        ml: &mut MsgLayer,
        to: usize,
        tag: Tag,
        seq: u64,
        attempts: u32,
    ) -> Result<(), MachineError> {
        ml.suspected[to] = true;
        if let Some(old) = ml.held[to].take() {
            let _ = self.tx[to].send(old);
        }
        self.emit_with(|| EventKind::SuspectPeer { peer: to, attempts });
        let tomb = Envelope {
            from: self.rank,
            tag,
            seq,
            arrival: self.now() + self.config.net.latency,
            tombstone: true,
            payload: Vec::new(),
        };
        // A closed channel just means the receiver already exited.
        let _ = self.tx[to].send(tomb);
        Err(MachineError::PeerGone { rank: to })
    }

    /// Physically hand over envelopes held back by `Reorder` fates.
    /// Called at the entry of every wire operation and at context
    /// teardown, so a held message can never be lost or wedge a receiver.
    fn flush_held(&self, except: Option<usize>) {
        if let Some(ml_cell) = &self.msg {
            let mut ml = ml_cell.borrow_mut();
            for i in 0..ml.held.len() {
                if Some(i) == except {
                    continue;
                }
                if let Some(env) = ml.held[i].take() {
                    let _ = self.tx[i].send(env);
                }
            }
        }
    }

    /// Emit `DupDropped` events for duplicate deliveries the mailbox
    /// discarded while serving the last receive.
    fn drain_dup_log(&self) {
        let log = self.mailbox.borrow_mut().take_dup_log();
        for (from, tag, msg_seq) in log {
            self.emit_with(|| EventKind::DupDropped { from, tag, msg_seq });
        }
    }

    /// Whether this run carries a message-fault plan (and therefore the
    /// reliable-delivery layer and aggregator failover are engaged).
    pub fn msg_faults_active(&self) -> bool {
        self.msg.is_some()
    }

    /// Blocking receive of the next message from `from` with `tag`.
    ///
    /// Synchronizes the local clock to the message's arrival time and
    /// charges the receive overhead.
    pub fn recv(&self, from: usize, tag: Tag) -> Result<Vec<u8>, MachineError> {
        self.check_alive()?;
        self.flush_held(None);
        let res = self.mailbox.borrow_mut().recv(from, tag);
        self.drain_dup_log();
        let env = res?;
        self.sync_to(env.arrival);
        self.advance(self.config.net.recv_overhead);
        self.emit_with(|| EventKind::MsgRecv {
            from,
            tag,
            bytes: env.payload.len() as u64,
            collective: tag & COLLECTIVE_TAG_BASE != 0,
        });
        Ok(env.payload)
    }

    /// Send a typed value (any [`crate::Wire`] type) to rank `to`.
    pub fn send_val<T: crate::Wire>(&self, to: usize, tag: Tag, v: &T) -> Result<(), MachineError> {
        self.send(to, tag, &v.to_wire())
    }

    /// Receive a typed value from rank `from`.
    pub fn recv_val<T: crate::Wire>(&self, from: usize, tag: Tag) -> Result<T, MachineError> {
        let raw = self.recv(from, tag)?;
        T::from_wire(&raw).ok_or_else(|| {
            MachineError::CollectiveMismatch(format!(
                "typed receive from rank {from} tag {tag:#x}: undecodable payload of {} bytes",
                raw.len()
            ))
        })
    }

    /// Next collective sequence number (wraps in the reserved tag space).
    pub(crate) fn next_coll_tag(&self) -> Tag {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        crate::message::COLLECTIVE_TAG_BASE | (seq & 0x7fff_ffff)
    }

    /// The machine's collective cell, when collectives bypass the wire.
    pub(crate) fn cell(&self) -> Option<&CollectiveCell> {
        self.cell.as_deref()
    }
}

impl Drop for NodeCtx {
    fn drop(&mut self) {
        // Teardown flush: an envelope held back by a Reorder fate was
        // logically sent (its MsgSend is already in the trace) — hand it
        // over so a receiver can't wedge on a message the sender merely
        // postponed past its last wire operation.
        self.flush_held(None);
        // A peer blocked in the collective cell learns this rank is gone.
        if let Some(cell) = &self.cell {
            cell.depart(self.rank);
        }
    }
}

/// RAII guard returned by [`NodeCtx::collective_scope`]; closing it
/// re-enables `Collective` event emission on the rank.
pub struct CollectiveScope<'a> {
    ctx: &'a NodeCtx,
}

impl Drop for CollectiveScope<'_> {
    fn drop(&mut self) {
        if let Some(t) = &self.ctx.tracer {
            t.coll_depth.set(t.coll_depth.get() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn ranks_and_sizes_are_consistent() {
        let out = Machine::run(MachineConfig::functional(4), |ctx| {
            assert_eq!(ctx.nprocs(), 4);
            assert_eq!(ctx.is_root(), ctx.rank() == 0);
            ctx.rank()
        })
        .unwrap();
        assert_eq!(out, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ping_pong_moves_data_and_time() {
        let mut cfg = MachineConfig::functional(2);
        cfg.net.latency = VTime::from_micros(10);
        let times = Machine::run(cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 1, b"ping").unwrap();
                let pong = ctx.recv(1, 2).unwrap();
                assert_eq!(pong, b"pong");
            } else {
                let ping = ctx.recv(0, 1).unwrap();
                assert_eq!(ping, b"ping");
                ctx.send(0, 2, b"pong").unwrap();
            }
            ctx.now()
        })
        .unwrap();
        // Round trip over two 10 us hops.
        assert!(times[0] >= VTime::from_micros(20));
    }

    #[test]
    fn self_send_is_legal_and_latency_free() {
        let mut cfg = MachineConfig::functional(1);
        cfg.net.latency = VTime::from_millis(100);
        Machine::run(cfg, |ctx| {
            let before = ctx.now();
            ctx.send(0, 5, b"loop").unwrap();
            let got = ctx.recv(0, 5).unwrap();
            assert_eq!(got, b"loop");
            // No 100 ms wire latency charged on the loopback path.
            assert!(ctx.now().saturating_since(before) < VTime::from_millis(100));
        })
        .unwrap();
    }

    #[test]
    fn send_to_invalid_rank_errors() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            let err = ctx.send(7, 0, b"x").unwrap_err();
            assert!(matches!(err, MachineError::InvalidRank { rank: 7, .. }));
        })
        .unwrap();
    }

    #[test]
    fn typed_send_recv_roundtrips() {
        Machine::run(MachineConfig::functional(2), |ctx| {
            if ctx.rank() == 0 {
                ctx.send_val(1, 3, &1.5f64).unwrap();
                ctx.send_val(1, 4, &u64::MAX).unwrap();
            } else {
                assert_eq!(ctx.recv_val::<f64>(0, 3).unwrap(), 1.5);
                assert_eq!(ctx.recv_val::<u64>(0, 4).unwrap(), u64::MAX);
                // Wrong width is caught.
                ctx.send_val(0, 5, &1u32).unwrap();
            }
            if ctx.rank() == 0 {
                assert!(ctx.recv_val::<u64>(1, 5).is_err());
            }
        })
        .unwrap();
    }

    #[test]
    fn chaos_soup_delivers_exactly_once_in_order() {
        use crate::fault::{FaultPlan, MsgFaultPlan};
        let mut cfg = MachineConfig::functional(2);
        cfg = cfg.with_faults(
            FaultPlan::seeded(7).with_msg(
                MsgFaultPlan::seeded(0xC0FFEE)
                    .drop_ppm(200_000)
                    .dup_ppm(120_000)
                    .delay_ppm(120_000)
                    .reorder_ppm(120_000),
            ),
        );
        let n = 200u64;
        Machine::run(cfg, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..n {
                    ctx.send_val(1, 7, &i).unwrap();
                }
            } else {
                // Exactly once, in per-edge order, despite drops, dups,
                // delays and reorders on the wire.
                for i in 0..n {
                    assert_eq!(ctx.recv_val::<u64>(0, 7).unwrap(), i);
                }
            }
        })
        .unwrap();
    }

    #[test]
    fn chaos_soup_replays_bit_identically() {
        use crate::fault::{FaultPlan, MsgFaultPlan};
        let run = || {
            let mut cfg = MachineConfig::functional(3);
            cfg = cfg.with_faults(
                FaultPlan::seeded(7)
                    .with_msg(MsgFaultPlan::seeded(99).drop_ppm(150_000).dup_ppm(150_000)),
            );
            Machine::run(cfg, |ctx| {
                let mut acc = ctx.rank() as u64;
                for round in 0..20u64 {
                    let peer = (ctx.rank() + 1) % ctx.nprocs();
                    let prev = (ctx.rank() + ctx.nprocs() - 1) % ctx.nprocs();
                    ctx.send_val(peer, 3, &acc).unwrap();
                    acc = acc.wrapping_mul(31) ^ ctx.recv_val::<u64>(prev, 3).unwrap() ^ round;
                }
                (acc, ctx.now())
            })
            .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cut_edge_fails_fast_on_both_sides_without_hanging() {
        use crate::fault::{FaultPlan, MsgFaultPlan};
        let mut cfg = MachineConfig::functional(2);
        cfg = cfg
            .with_faults(FaultPlan::seeded(1).with_msg(MsgFaultPlan::seeded(1).cut_edge(0, 1, 0)));
        Machine::run(cfg, |ctx| {
            if ctx.rank() == 0 {
                let err = ctx.send(1, 7, b"lost").unwrap_err();
                assert_eq!(err, MachineError::PeerGone { rank: 1 });
                // Sticky suspicion: the dead edge fails fast from now on.
                let err = ctx.send(1, 8, b"again").unwrap_err();
                assert_eq!(err, MachineError::PeerGone { rank: 1 });
            } else {
                // The tombstone converts a would-be hang into PeerGone.
                let err = ctx.recv(0, 7).unwrap_err();
                assert_eq!(err, MachineError::PeerGone { rank: 0 });
            }
        })
        .unwrap();
    }

    #[test]
    fn collectives_survive_a_data_plane_cut() {
        use crate::fault::{FaultPlan, MsgFaultPlan};
        let mut cfg = MachineConfig::functional(4);
        cfg = cfg.with_faults(
            FaultPlan::seeded(1).with_msg(
                MsgFaultPlan::seeded(5)
                    .drop_ppm(100_000)
                    .cut_edge(0, 1, 0)
                    .cut_edge(1, 0, 0),
            ),
        );
        let sums = Machine::run(cfg, |ctx| {
            // The 0<->1 data edges are severed, but collective legs are
            // exempt from cuts (and retransmission absorbs drops), so the
            // coordination plane still completes machine-wide.
            ctx.barrier().unwrap();
            ctx.all_reduce(ctx.rank() as u64, |a, b| a + b).unwrap()
        })
        .unwrap();
        assert_eq!(sums, vec![6, 6, 6, 6]);
    }

    #[test]
    fn transfer_time_scales_with_payload() {
        let mut cfg = MachineConfig::functional(2);
        cfg.net.ns_per_byte = 100.0;
        let times = Machine::run(cfg, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, 0, &[0u8; 1000]).unwrap();
            } else {
                ctx.recv(0, 0).unwrap();
            }
            ctx.now()
        })
        .unwrap();
        assert!(times[1] >= VTime::from_nanos(100_000));
    }
}
