//! The per-machine collective cell: every rank of a fault-free run meets
//! here instead of relaying collective messages through rank 0.
//!
//! All ranks are threads of one process, so a collective needs no
//! message hops on the host at all. Each rank deposits its side of the
//! round in its [`Lane`] (program key, entry clock, payload slots) and
//! waits. The last rank to arrive is the *combiner* (flat combining,
//! after node-replication): it runs the whole program for every rank at
//! once, in place on the lanes, publishes the round's verdict and wakes
//! them all; each rank then takes its results out of its own lane. Lanes
//! and the replay scratch belong to the cell and keep their buffers from
//! round to round, so a round allocates nothing. What the combiner
//! computes is the business of the collectives module; this module only
//! provides the rendezvous, its liveness rules and its wake-up protocol.
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

use crate::collectives::{Replay, Slots};
use crate::error::MachineError;
use crate::message::{Tag, RECV_TIMEOUT};
use crate::time::VTime;

/// `yield_now` rounds a waiting rank spends polling the generation
/// before it sleeps on the condition variable. Measured on one
/// `service_mix` round of seed 7 (4 rank threads, 2 vCPUs): ~30.8k waits
/// (43.7k before the checkpoint steps were fused), 70k–180k `yield_now`
/// calls and 2–60 sleeps, with system time ~40–45% of the process CPU;
/// so waits end inside the spin, after a few yields each. Shorter spins
/// cost far more, because a sleeping rank's wake-up is slow on such a
/// host: one paired set of `round_ms_p50` at `a412542` gave 188 ms with 0
/// rounds, 201–213 ms with 2, 88–92 ms with 8 and 62–66 ms with 64.
const SPIN_ROUNDS: u32 = 64;

/// What identifies a program across ranks: the API-level collectives it
/// stands for, its root, and a fingerprint of its steps (0 for the fixed
/// programs, whose collectives name them).
pub(crate) type Key = (&'static [CollOp], usize, u64);

/// One rank's side of a round: what it brings, then, once combined, what
/// it takes away.
pub(crate) struct Lane {
    /// The program the rank called.
    pub key: Key,
    /// The rank's clock: at entry, then at exit.
    pub clock: VTime,
    /// Whether the rank records the program's `Collective` events.
    pub announce: bool,
    /// The rank's payload: at entry, then at exit.
    pub slots: Slots,
    /// The events of the rank's legs with their virtual times (empty
    /// when the run is untraced).
    pub events: Vec<(VTime, EventKind)>,
    /// Collective tags the program used (its phases that ran).
    pub tags: u32,
    /// The rank's PFS operation count: at entry, then at exit (a
    /// replicated-local act for rank 0 advances rank 0's).
    pub pfs_ops: u64,
}

struct State {
    /// Ranks deposited in the current round.
    arrived: usize,
    lanes: Vec<Lane>,
    /// Which lanes hold a deposit of the current round.
    present: Vec<bool>,
    /// Each rank's verdict of the last round, until the rank collects it.
    done: Vec<Option<Result<(), MachineError>>>,
    departed: Vec<bool>,
    /// Ranks asleep on the condition variable; while there are none, a
    /// publish skips the wake-up system call.
    sleepers: usize,
    replay: Replay,
}

/// The rendezvous shared by all ranks of one fault-free machine run.
pub(crate) struct CollectiveCell {
    state: Mutex<State>,
    wake: Condvar,
    /// Bumped (under the state lock) whenever a round is published or a
    /// rank departs; waiters poll it without taking the lock.
    generation: AtomicU64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl CollectiveCell {
    /// A cell for a machine of `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        let lane = || Lane {
            key: (&[], 0, 0),
            clock: VTime::ZERO,
            announce: false,
            slots: Slots::new(nprocs),
            events: Vec::new(),
            tags: 0,
            pfs_ops: 0,
        };
        CollectiveCell {
            state: Mutex::new(State {
                arrived: 0,
                lanes: (0..nprocs).map(|_| lane()).collect(),
                present: vec![false; nprocs],
                done: vec![None; nprocs],
                departed: vec![false; nprocs],
                sleepers: 0,
                replay: Replay::new(nprocs),
            }),
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

    /// Run one round for `rank`: `deposit` fills its lane (whose slots
    /// arrive cleared), the last rank to arrive runs `combine` over every
    /// lane (in rank order), and `extract` takes this rank's results out
    /// of its lane. An error from `combine` is every rank's result. `tag`
    /// is the program's first tag, reported if the wait times out.
    pub fn rendezvous<R>(
        &self,
        rank: usize,
        tag: Tag,
        deposit: impl FnOnce(&mut Lane),
        combine: impl FnOnce(&mut [Lane], &mut Replay) -> Result<(), MachineError>,
        extract: impl FnOnce(&mut Lane) -> R,
    ) -> Result<R, MachineError> {
        let mut st = lock(&self.state);
        // A round this rank abandoned (timeout, departed peer) may still
        // have published into its lane; that verdict is nobody's now.
        st.done[rank] = None;
        let lane = &mut st.lanes[rank];
        lane.slots.clear();
        lane.events.clear();
        deposit(lane);
        st.present[rank] = true;
        st.arrived += 1;
        if st.arrived == st.lanes.len() {
            st.arrived = 0;
            let State { lanes, replay, .. } = &mut *st;
            let verdict = combine(lanes, replay);
            st.present.fill(false);
            for (r, done) in st.done.iter_mut().enumerate() {
                if r != rank {
                    *done = Some(verdict.clone());
                }
            }
            self.publish(&st);
            return verdict.map(|()| extract(&mut st.lanes[rank]));
        }
        let mut seen = self.generation.load(Ordering::Acquire);
        drop(st);

        let start = Instant::now();
        let mut st = loop {
            let mut spins = 0;
            while spins < SPIN_ROUNDS && self.generation.load(Ordering::Acquire) == seen {
                std::thread::yield_now();
                spins += 1;
            }
            let mut st = lock(&self.state);
            if st.done[rank].is_some() {
                break st;
            }
            // A departed peer never arrives again. (One that deposited
            // can only have departed by dying as this round's combiner.)
            if let Some(gone) = (0..st.lanes.len()).find(|&r| st.departed[r]) {
                Self::withdraw(&mut st, rank);
                return Err(MachineError::PeerGone { rank: gone });
            }
            let Some(remaining) = RECV_TIMEOUT.checked_sub(start.elapsed()) else {
                let from = (0..st.lanes.len())
                    .find(|&r| !st.present[r])
                    .expect("an unarrived rank");
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
            drop(st);
        };
        let verdict = st.done[rank].take().expect("a published verdict");
        verdict.map(|()| extract(&mut st.lanes[rank]))
    }

    /// Take back `rank`'s deposit after a failed wait, so the rank can
    /// call the cell again without corrupting a later round.
    fn withdraw(st: &mut State, rank: usize) {
        if std::mem::take(&mut st.present[rank]) {
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
