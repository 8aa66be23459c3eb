//! Message envelopes and the per-rank mailbox.
//!
//! Every rank owns one `Mailbox` holding a receiver for each peer. Receives
//! are addressed by `(source rank, tag)`; envelopes that arrive before they
//! are wanted are parked in a pending queue, which is what makes the
//! simulation deterministic: the *program order* of receives, not the
//! physical arrival order of threads, decides which message each call
//! returns.
//!
//! The mailbox is also the receive half of the reliable-delivery layer.
//! Every envelope carries a per-edge sequence number stamped by the
//! sender; the mailbox releases envelopes strictly in sequence order per
//! source, which makes it idempotent and reorder-tolerant under the
//! injected message faults of [`crate::fault::MsgFaultPlan`]:
//!
//! * a **duplicate** (sequence number already accepted) is discarded and
//!   logged, never surfaced to the program;
//! * an **early** envelope (sequence number ahead of the next expected
//!   one) waits in a per-source reorder buffer until the gap fills;
//! * a **tombstone** — the failure detector's verdict that the edge is
//!   dead — marks the source edge-dead: pending real messages stay
//!   claimable, but once they are drained every receive from that source
//!   fails fast with [`MachineError::PeerGone`] instead of hanging.
//!
//! On the fault-free path sequence numbers arrive in order, so the gate
//! is pass-through and behavior is identical to a mailbox without it.

use std::collections::{BTreeMap, VecDeque};

use crossbeam::channel::{Receiver, RecvTimeoutError};

use crate::error::MachineError;
use crate::time::VTime;

/// Message tag. User point-to-point traffic should use tags without the
/// high bit; the collectives reserve the high-bit space for themselves.
pub type Tag = u32;

/// Tag namespace reserved by the built-in collectives.
pub const COLLECTIVE_TAG_BASE: Tag = 0x8000_0000;

/// Tag used by the collective-buffering aggregation layer to shuttle
/// record payloads between ranks and their file-domain aggregators. Lives
/// at the top of the collective namespace so shuttle traffic is counted
/// as collective messages and can never collide with sequential
/// collective tags (which would need ~2^31 collective rounds to wrap).
pub const AGG_SHUTTLE_TAG: Tag = COLLECTIVE_TAG_BASE | 0x7fff_fffe;

/// Tag used by the redistribution planner to shuttle coalesced element
/// runs between reader ranks and the ranks that own those elements under
/// the target layout. Sits just below [`AGG_SHUTTLE_TAG`] at the top of
/// the collective namespace for the same non-collision reasons.
pub const REDIST_SHUTTLE_TAG: Tag = COLLECTIVE_TAG_BASE | 0x7fff_fffd;

/// Base of the tag range used by aggregator-failover retry rounds: round
/// `r >= 1` of a re-elected shuttle phase runs on `base + r`, so stale
/// slices from an abandoned round can never be mistaken for the replayed
/// ones. The range up to [`REDIST_SHUTTLE_TAG`] leaves room for ~4000
/// rounds — failover is bounded by the rank count, far below that.
pub const AGG_SHUTTLE_RETRY_BASE: Tag = COLLECTIVE_TAG_BASE | 0x7fff_f000;

/// True for tags whose traffic the fault plan may cut permanently: user
/// point-to-point tags and the payload shuttle tags. Collective legs are
/// exempt so the coordination plane stays live — an unreachable rank
/// still participates in crash-flag and suspicion exchanges, exactly
/// like a crashed rank participates through its closing collective.
pub fn is_data_plane(tag: Tag) -> bool {
    tag & COLLECTIVE_TAG_BASE == 0 || tag >= AGG_SHUTTLE_RETRY_BASE
}

/// A message in flight: payload plus the virtual time at which it reaches
/// the receiver (already including latency and per-byte transfer time).
#[derive(Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Sending rank.
    pub from: usize,
    /// Application tag.
    pub tag: Tag,
    /// Per-edge sequence number (counts every message `from` has sent to
    /// this rank, any tag).
    pub seq: u64,
    /// Virtual arrival instant at the receiver.
    pub arrival: VTime,
    /// Failure-detector verdict instead of a message: the edge from
    /// `from` is dead for the plane `tag` belongs to (data-plane tags
    /// kill only data traffic — collective legs keep flowing). Carries
    /// the tag and sequence number of the abandoned message, no payload.
    pub tombstone: bool,
    /// Payload bytes.
    pub payload: Vec<u8>,
}

/// How long a blocking receive (or a wait in the collective cell) lasts
/// before declaring the peer dead. Generous: the simulation does no real I/O
/// waits longer than scheduler noise.
pub(crate) const RECV_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(60);

/// Per-rank incoming message store.
pub struct Mailbox {
    /// `rx[from]` carries envelopes sent by rank `from`.
    rx: Vec<Receiver<Envelope>>,
    /// Envelopes received from the channel but not yet claimed, per source.
    pending: Vec<VecDeque<Envelope>>,
    /// Next expected per-edge sequence number, per source.
    next_seq: Vec<u64>,
    /// Early arrivals (sequence number ahead of `next_seq`), per source.
    reorder: Vec<BTreeMap<u64, Envelope>>,
    /// Sources whose *data plane* a tombstone declared dead (the usual
    /// case: an edge cut or rank kill severs only data-plane tags).
    dead_data: Vec<bool>,
    /// Sources whose edge is dead for every tag (a collective leg
    /// exhausted its retransmit budget — astronomically unlucky drops).
    dead_all: Vec<bool>,
    /// Discarded duplicates `(from, tag, seq)` awaiting trace emission.
    dup_log: Vec<(usize, Tag, u64)>,
}

impl Mailbox {
    /// Build a mailbox from one receiver per peer (index = source rank).
    pub fn new(rx: Vec<Receiver<Envelope>>) -> Self {
        let n = rx.len();
        Mailbox {
            rx,
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            next_seq: vec![0; n],
            reorder: (0..n).map(|_| BTreeMap::new()).collect(),
            dead_data: vec![false; n],
            dead_all: vec![false; n],
            dup_log: Vec::new(),
        }
    }

    /// Number of ranks in the machine (including self).
    pub fn nprocs(&self) -> usize {
        self.rx.len()
    }

    /// Run one envelope pulled off source `i`'s channel through the
    /// sequence gate. In-order envelopes (and any consecutive successors
    /// they release from the reorder buffer) land in the pending queue;
    /// duplicates are logged and discarded; early arrivals wait; a
    /// tombstone marks the edge dead.
    fn ingest(&mut self, i: usize, env: Envelope) {
        if env.tombstone {
            // The tombstone kills the plane its tag belongs to, and it
            // carries the sequence number of the message the sender gave
            // up on: close the gap it leaves so later traffic on the
            // edge (collective legs keep flowing after a data-plane
            // suspicion) is not wedged behind a message that will never
            // arrive.
            if is_data_plane(env.tag) {
                self.dead_data[i] = true;
            } else {
                self.dead_all[i] = true;
            }
            if env.seq >= self.next_seq[i] {
                self.next_seq[i] = env.seq + 1;
                self.release(i);
            }
            return;
        }
        if env.seq < self.next_seq[i] {
            self.dup_log.push((i, env.tag, env.seq));
            return;
        }
        if env.seq > self.next_seq[i] {
            match self.reorder[i].entry(env.seq) {
                std::collections::btree_map::Entry::Occupied(_) => {
                    self.dup_log.push((i, env.tag, env.seq));
                }
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(env);
                }
            }
            return;
        }
        self.next_seq[i] += 1;
        self.pending[i].push_back(env);
        self.release(i);
    }

    /// Move consecutive successors of `next_seq` out of the reorder
    /// buffer into the pending queue.
    fn release(&mut self, i: usize) {
        while let Some(next) = self.reorder[i].remove(&self.next_seq[i]) {
            self.next_seq[i] += 1;
            self.pending[i].push_back(next);
        }
    }

    /// Blocking receive of the next message from `from` carrying `tag`.
    ///
    /// Messages from `from` with other tags are parked and delivered to
    /// later matching receives in FIFO order per `(from, tag)`.
    pub fn recv(&mut self, from: usize, tag: Tag) -> Result<Envelope, MachineError> {
        if from >= self.rx.len() {
            return Err(MachineError::InvalidRank {
                rank: from,
                nprocs: self.rx.len(),
            });
        }
        loop {
            // First serve from the pending queue — messages that arrived
            // before the edge died stay claimable.
            if let Some(pos) = self.pending[from].iter().position(|e| e.tag == tag) {
                return Ok(self.pending[from].remove(pos).expect("position valid"));
            }
            if self.edge_dead_for(from, tag) {
                return Err(MachineError::PeerGone { rank: from });
            }
            match self.rx[from].recv_timeout(RECV_TIMEOUT) {
                Ok(env) => self.ingest(from, env),
                Err(RecvTimeoutError::Timeout) => {
                    return Err(MachineError::RecvTimeout { from, tag });
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(MachineError::PeerGone { rank: from });
                }
            }
        }
    }

    /// Count of parked messages (for tests and diagnostics).
    pub fn pending_count(&self) -> usize {
        self.pending.iter().map(|q| q.len()).sum()
    }

    /// Drain the log of discarded duplicate deliveries.
    pub fn take_dup_log(&mut self) -> Vec<(usize, Tag, u64)> {
        std::mem::take(&mut self.dup_log)
    }

    /// Whether a tombstone has declared the edge from `from` dead for
    /// messages carrying `tag`.
    fn edge_dead_for(&self, from: usize, tag: Tag) -> bool {
        self.dead_all[from] || (self.dead_data[from] && is_data_plane(tag))
    }

    /// Whether a tombstone has declared the data plane of the edge from
    /// `from` dead.
    pub fn edge_is_dead(&self, from: usize) -> bool {
        from < self.rx.len() && (self.dead_data[from] || self.dead_all[from])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn env(from: usize, tag: Tag, seq: u64, byte: u8) -> Envelope {
        Envelope {
            from,
            tag,
            seq,
            arrival: VTime::ZERO,
            tombstone: false,
            payload: vec![byte],
        }
    }

    fn tomb(from: usize, seq: u64) -> Envelope {
        Envelope {
            from,
            tag: 0,
            seq,
            arrival: VTime::ZERO,
            tombstone: true,
            payload: Vec::new(),
        }
    }

    #[test]
    fn recv_matches_tag_and_parks_others() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        tx.send(env(0, 7, 0, 1)).unwrap();
        tx.send(env(0, 9, 1, 2)).unwrap();
        tx.send(env(0, 7, 2, 3)).unwrap();

        let got = mb.recv(0, 9).unwrap();
        assert_eq!(got.payload, vec![2]);
        assert_eq!(mb.pending_count(), 1); // tag 7 (byte 1) parked

        // FIFO within a tag.
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![1]);
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![3]);
        assert_eq!(mb.pending_count(), 0);
    }

    #[test]
    fn recv_from_invalid_rank_errors() {
        let (_tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        assert!(matches!(
            mb.recv(5, 0),
            Err(MachineError::InvalidRank { rank: 5, nprocs: 1 })
        ));
    }

    #[test]
    fn disconnected_peer_reports_peer_gone() {
        let (tx, rx) = unbounded::<Envelope>();
        drop(tx);
        let mut mb = Mailbox::new(vec![rx]);
        assert!(matches!(
            mb.recv(0, 0),
            Err(MachineError::PeerGone { rank: 0 })
        ));
    }

    #[test]
    fn duplicates_are_discarded_and_logged() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        tx.send(env(0, 7, 0, 1)).unwrap();
        tx.send(env(0, 7, 0, 1)).unwrap(); // duplicate of seq 0
        tx.send(env(0, 7, 1, 2)).unwrap();
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![1]);
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![2]);
        assert_eq!(mb.take_dup_log(), vec![(0, 7, 0)]);
        assert!(mb.take_dup_log().is_empty());
    }

    #[test]
    fn out_of_order_arrivals_are_released_in_sequence() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        // Physical order 1, 2, 0 — the program must still see 0, 1, 2.
        tx.send(env(0, 7, 1, 11)).unwrap();
        tx.send(env(0, 7, 2, 12)).unwrap();
        tx.send(env(0, 7, 0, 10)).unwrap();
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![10]);
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![11]);
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![12]);
        assert!(mb.take_dup_log().is_empty());
    }

    #[test]
    fn duplicate_of_an_early_arrival_is_logged_once() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        tx.send(env(0, 7, 1, 11)).unwrap();
        tx.send(env(0, 7, 1, 11)).unwrap(); // dup while still early
        tx.send(env(0, 7, 0, 10)).unwrap();
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![10]);
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![11]);
        assert_eq!(mb.take_dup_log(), vec![(0, 7, 1)]);
    }

    #[test]
    fn tombstone_kills_the_edge_but_not_parked_messages() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        tx.send(env(0, 7, 0, 1)).unwrap();
        tx.send(tomb(0, 1)).unwrap();
        // The pre-tombstone message is still claimable.
        assert_eq!(mb.recv(0, 7).unwrap().payload, vec![1]);
        // After draining, the dead edge fails fast.
        assert_eq!(mb.recv(0, 7), Err(MachineError::PeerGone { rank: 0 }));
        assert!(mb.edge_is_dead(0));
        assert_eq!(mb.recv(0, 7), Err(MachineError::PeerGone { rank: 0 }));
    }

    #[test]
    fn tombstone_closes_the_sequence_gap_for_later_traffic() {
        let (tx, rx) = unbounded();
        let mut mb = Mailbox::new(vec![rx]);
        // seq 0 is lost forever. A later message (seq 1, e.g. a
        // collective leg sent after the data-plane suspicion) must not
        // wait behind it once the tombstone closes the gap.
        tx.send(env(0, COLLECTIVE_TAG_BASE, 1, 7)).unwrap();
        tx.send(tomb(0, 0)).unwrap();
        assert_eq!(mb.recv(0, COLLECTIVE_TAG_BASE).unwrap().payload, vec![7]);
        assert!(mb.edge_is_dead(0));
    }

    #[test]
    fn data_plane_tags_are_classified() {
        assert!(is_data_plane(0));
        assert!(is_data_plane(42));
        assert!(is_data_plane(AGG_SHUTTLE_TAG));
        assert!(is_data_plane(REDIST_SHUTTLE_TAG));
        assert!(is_data_plane(AGG_SHUTTLE_RETRY_BASE + 1));
        assert!(!is_data_plane(COLLECTIVE_TAG_BASE));
        assert!(!is_data_plane(COLLECTIVE_TAG_BASE | 12345));
    }
}
