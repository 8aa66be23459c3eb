//! The per-machine collective cell: every rank of a fault-free run meets
//! here instead of relaying collective messages through rank 0.
//!
//! All ranks are threads of one process, so a collective needs no
//! message hops on the host at all. Each rank deposits an [`Entry`]
//! (opcode, root, entry clock, payload slots) and waits. The last rank to
//! arrive is the *combiner* (flat combining, after node-replication): it
//! runs the whole collective for every rank at once, publishes one
//! [`Outcome`] per rank and wakes them all. What the combiner computes is
//! the business of the collectives module; this module only provides the
//! rendezvous, its liveness rules and its wake-up protocol.
//!
//! Waiting ranks spin briefly on an atomic generation counter with
//! `yield_now`, then sleep on a condition variable. A rank whose context
//! drops marks itself departed, so a peer blocked in the cell gets
//! [`MachineError::PeerGone`] naming it instead of hanging; a wait that
//! outlasts [`RECV_TIMEOUT`] fails with [`MachineError::RecvTimeout`]
//! naming the lowest rank that never arrived.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use dstreams_trace::{CollOp, EventKind};

use crate::collectives::Slots;
use crate::error::MachineError;
use crate::message::{Tag, RECV_TIMEOUT};
use crate::time::VTime;

/// `yield_now` rounds a waiting rank spends polling the generation
/// before it sleeps on the condition variable. A combine takes a few
/// microseconds, so most waits end inside the spin.
const SPIN_ROUNDS: u32 = 64;

/// What one rank brings to a collective.
pub(crate) struct Entry {
    /// The API-level collective the rank called.
    pub op: CollOp,
    /// The collective's root (0 for rootless collectives).
    pub root: usize,
    /// The rank's clock at entry.
    pub clock: VTime,
    /// The rank's payload.
    pub slots: Slots,
}

/// What one rank takes away from a collective.
pub(crate) struct Outcome {
    /// The rank's clock at exit.
    pub clock: VTime,
    /// The rank's payload at exit.
    pub slots: Slots,
    /// The `MsgSend`/`MsgRecv` events of the rank's legs with their
    /// virtual times (empty when the run is untraced).
    pub events: Vec<(VTime, EventKind)>,
}

struct State {
    /// Ranks deposited in the current round.
    arrived: usize,
    entries: Vec<Option<Entry>>,
    departed: Vec<bool>,
    /// Ranks asleep on the condition variable; while there are none, a
    /// publish skips the wake-up system call.
    sleepers: usize,
}

/// Each rank's result of the last round, filled by the combiner. One lock
/// per rank, so the woken ranks do not queue on the cell's state lock.
type OutcomeSlot = Mutex<Option<Result<Outcome, MachineError>>>;

/// The rendezvous shared by all ranks of one fault-free machine run.
pub(crate) struct CollectiveCell {
    state: Mutex<State>,
    outcomes: Vec<OutcomeSlot>,
    wake: Condvar,
    /// Bumped (under the state lock) whenever outcomes are published or a
    /// rank departs; waiters poll it without taking the lock.
    generation: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CollectiveCell {
    /// A cell for a machine of `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        CollectiveCell {
            state: Mutex::new(State {
                arrived: 0,
                entries: (0..nprocs).map(|_| None).collect(),
                departed: vec![false; nprocs],
                sleepers: 0,
            }),
            outcomes: (0..nprocs).map(|_| Mutex::new(None)).collect(),
            wake: Condvar::new(),
            generation: AtomicU64::new(0),
        }
    }

    /// Bump the generation and wake any sleepers. Call with the state
    /// lock held.
    fn publish(&self, st: &State) {
        self.generation.fetch_add(1, Ordering::Release);
        if st.sleepers > 0 {
            self.wake.notify_all();
        }
    }

    /// Deposit `entry` for `rank` and wait for the round's outcome. The
    /// last rank to arrive runs `combine` over every rank's entry (in rank
    /// order); it must return one outcome per rank, or an error every
    /// rank receives. `tag` is the collective's first tag, reported if
    /// the wait times out.
    pub fn rendezvous<F>(
        &self,
        rank: usize,
        entry: Entry,
        tag: Tag,
        combine: F,
    ) -> Result<Outcome, MachineError>
    where
        F: FnOnce(Vec<Entry>) -> Result<Vec<Outcome>, MachineError>,
    {
        // A round this rank abandoned (timeout, departed peer) may still
        // have published into its slot; that outcome is nobody's now.
        lock(&self.outcomes[rank]).take();
        let mut st = lock(&self.state);
        st.entries[rank] = Some(entry);
        st.arrived += 1;
        if st.arrived == st.entries.len() {
            st.arrived = 0;
            let entries = st
                .entries
                .iter_mut()
                .map(|e| e.take().expect("arrived"))
                .collect();
            drop(st);
            let outs: Vec<_> = match combine(entries) {
                Ok(outs) => outs.into_iter().map(Ok).collect(),
                Err(e) => (0..self.outcomes.len()).map(|_| Err(e.clone())).collect(),
            };
            let mut mine = None;
            for (r, out) in outs.into_iter().enumerate() {
                if r == rank {
                    mine = Some(out);
                } else {
                    *lock(&self.outcomes[r]) = Some(out);
                }
            }
            self.publish(&lock(&self.state));
            return mine.expect("the combiner's own outcome");
        }
        let mut seen = self.generation.load(Ordering::Acquire);
        drop(st);

        let start = Instant::now();
        loop {
            let mut spins = 0;
            while spins < SPIN_ROUNDS && self.generation.load(Ordering::Acquire) == seen {
                std::thread::yield_now();
                spins += 1;
            }
            if let Some(out) = lock(&self.outcomes[rank]).take() {
                return out;
            }
            let mut st = lock(&self.state);
            if let Some(out) = lock(&self.outcomes[rank]).take() {
                return out;
            }
            let missing = (0..st.entries.len()).filter(|&r| st.entries[r].is_none());
            if let Some(gone) = missing.clone().find(|&r| st.departed[r]) {
                Self::withdraw(&mut st, rank);
                return Err(MachineError::PeerGone { rank: gone });
            }
            let Some(remaining) = RECV_TIMEOUT.checked_sub(start.elapsed()) else {
                let from = missing.min().expect("an unarrived rank");
                Self::withdraw(&mut st, rank);
                return Err(MachineError::RecvTimeout { from, tag });
            };
            if self.generation.load(Ordering::Acquire) == seen {
                st.sleepers += 1;
                st = self
                    .wake
                    .wait_timeout_while(st, remaining, |_| {
                        self.generation.load(Ordering::Acquire) == seen
                    })
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                st.sleepers -= 1;
            }
            seen = self.generation.load(Ordering::Acquire);
        }
    }

    /// Take back `rank`'s deposit after a failed wait, so the rank can
    /// call the cell again without corrupting a later round.
    fn withdraw(st: &mut State, rank: usize) {
        if st.entries[rank].take().is_some() {
            st.arrived -= 1;
        }
    }

    /// Mark `rank` departed (its context dropped) and wake every waiter.
    pub fn depart(&self, rank: usize) {
        let mut st = lock(&self.state);
        st.departed[rank] = true;
        self.publish(&st);
    }
}
