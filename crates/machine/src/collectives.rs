//! Collective operations over all ranks of the machine.
//!
//! Every collective must be called by *all* ranks (SPMD discipline), in the
//! same order. Tag sequencing keeps concurrent point-to-point traffic and
//! successive collectives from interfering. Broadcast uses a binomial tree
//! (O(log P) rounds); gather/scatter are flat through the root, which is
//! faithful to how mid-90s runtimes on ≤ a few dozen nodes behaved and
//! keeps virtual-time accounting transparent.
//!
//! Each collective message carries a one-byte opcode so that accidentally
//! mismatched collectives across ranks (e.g. one rank calls `barrier` while
//! another calls `gather`) are detected instead of silently exchanging
//! garbage. The opcode trails the payload, so a sender appends it to a
//! buffer it owns and a receiver strips it with a `pop`: each leg copies
//! a payload at most once.

use dstreams_trace::{CollOp, EventKind};

use crate::error::MachineError;
use crate::node::NodeCtx;
use crate::time::VTime;
use crate::wire::{frame_blocks, unframe_blocks, Wire};

/// Opcode prefixed to every collective payload for cross-rank sanity checks.
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

/// A tagged copy of a payload the caller keeps.
fn tagged_copy(op: Op, payload: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(payload.len() + 1);
    v.extend_from_slice(payload);
    v.push(op as u8);
    v
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

impl NodeCtx {
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
        // Gather tiny messages to rank 0, then broadcast release. Clock
        // synchronization falls out of the arrival-time max rule.
        let tag_up = self.next_coll_tag();
        let tag_down = self.next_coll_tag();
        let n = self.nprocs();
        if n == 1 {
            return Ok(());
        }
        if self.is_root() {
            for from in 1..n {
                let p = self.recv(from, tag_up)?;
                untag(Op::Barrier, p)?;
            }
            for to in 1..n {
                self.send_owned(to, tag_down, tagged(Op::Barrier, Vec::new()))?;
            }
        } else {
            self.send_owned(0, tag_up, tagged(Op::Barrier, Vec::new()))?;
            let p = self.recv(0, tag_down)?;
            untag(Op::Barrier, p)?;
        }
        Ok(())
    }

    /// Broadcast `data` from `root` to all ranks (binomial tree). Every
    /// rank passes its own `data`; only the root's is used. Returns the
    /// root's buffer on every rank.
    pub fn broadcast(&self, root: usize, data: Vec<u8>) -> Result<Vec<u8>, MachineError> {
        let n = self.nprocs();
        if root >= n {
            return Err(MachineError::InvalidRank {
                rank: root,
                nprocs: n,
            });
        }
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Broadcast,
            root: Some(root),
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        let tag = self.next_coll_tag();
        if n == 1 {
            return Ok(data);
        }
        let relative = (self.rank() + n - root) % n;
        let mut buf = data;

        // Receive from parent (lowest set bit of the relative rank).
        let mut mask = 1usize;
        while mask < n {
            if relative & mask != 0 {
                let src = (relative - mask + root) % n;
                buf = untag(Op::Broadcast, self.recv(src, tag)?)?;
                break;
            }
            mask <<= 1;
        }
        // Forward to children at decreasing distances.
        mask >>= 1;
        while mask > 0 {
            if relative + mask < n {
                let dst = (relative + mask + root) % n;
                self.send_owned(dst, tag, tagged_copy(Op::Broadcast, &buf))?;
            }
            mask >>= 1;
        }
        Ok(buf)
    }

    /// Gather one buffer from every rank to `root`. Returns
    /// `Some(buffers_by_rank)` on the root, `None` elsewhere.
    pub fn gather(&self, root: usize, data: Vec<u8>) -> Result<Option<Vec<Vec<u8>>>, MachineError> {
        let n = self.nprocs();
        if root >= n {
            return Err(MachineError::InvalidRank {
                rank: root,
                nprocs: n,
            });
        }
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Gather,
            root: Some(root),
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
            out[root] = data;
            for (from, slot) in out.iter_mut().enumerate() {
                if from == root {
                    continue;
                }
                *slot = untag(Op::Gather, self.recv(from, tag)?)?;
            }
            Ok(Some(out))
        } else {
            self.send_owned(root, tag, tagged(Op::Gather, data))?;
            Ok(None)
        }
    }

    /// Gather to every rank: equivalent to `gather(0, …)` followed by a
    /// broadcast of the framed result.
    pub fn all_gather(&self, data: Vec<u8>) -> Result<Vec<Vec<u8>>, MachineError> {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllGather,
            root: None,
            bytes: data.len() as u64,
        });
        let _scope = self.collective_scope();
        // The root already holds every buffer; only the others unframe.
        if let Some(gathered) = self.gather(0, data)? {
            self.broadcast(0, frame_blocks(&gathered))?;
            return Ok(gathered);
        }
        let framed = self.broadcast(0, Vec::new())?;
        unframe_blocks(&framed).ok_or_else(|| {
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
        let n = self.nprocs();
        if root >= n {
            return Err(MachineError::InvalidRank {
                rank: root,
                nprocs: n,
            });
        }
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Scatter,
            root: Some(root),
            bytes: parts
                .as_ref()
                .map_or(0, |ps| ps.iter().map(|p| p.len() as u64).sum()),
        });
        let _scope = self.collective_scope();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let parts = parts.ok_or_else(|| {
                MachineError::CollectiveMismatch("scatter: root must supply parts".into())
            })?;
            if parts.len() != n {
                return Err(MachineError::CollectiveMismatch(format!(
                    "scatter: {} parts for {} ranks",
                    parts.len(),
                    n
                )));
            }
            let mut own = Vec::new();
            for (to, part) in parts.into_iter().enumerate() {
                if to == root {
                    own = part;
                } else {
                    self.send_owned(to, tag, tagged(Op::Scatter, part))?;
                }
            }
            Ok(own)
        } else {
            if parts.is_some() {
                return Err(MachineError::CollectiveMismatch(
                    "scatter: non-root rank supplied parts".into(),
                ));
            }
            untag(Op::Scatter, self.recv(root, tag)?)
        }
    }

    /// Personalized all-to-all: `parts[to]` is sent to rank `to`; the
    /// return value's entry `from` is what rank `from` sent here.
    ///
    /// This is the primitive behind the d/stream `read` redistribution
    /// (PASSION-style two-phase I/O).
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

    /// Reduce `value` across all ranks with `op`, result on `root` only.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Result<Option<T>, MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        let n = self.nprocs();
        if root >= n {
            return Err(MachineError::InvalidRank {
                rank: root,
                nprocs: n,
            });
        }
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::Reduce,
            root: Some(root),
            bytes: value.to_wire().len() as u64,
        });
        let _scope = self.collective_scope();
        let tag = self.next_coll_tag();
        if self.rank() == root {
            let mut acc = value;
            for from in 0..n {
                if from == root {
                    continue;
                }
                let raw = untag(Op::Reduce, self.recv(from, tag)?)?;
                let v = T::from_wire(&raw).ok_or_else(|| {
                    MachineError::CollectiveMismatch("reduce: undecodable operand".into())
                })?;
                acc = op(acc, v);
            }
            Ok(Some(acc))
        } else {
            self.send_owned(root, tag, tagged(Op::Reduce, value.to_wire()))?;
            Ok(None)
        }
    }

    /// Reduce with the result delivered to every rank.
    pub fn all_reduce<T, F>(&self, value: T, op: F) -> Result<T, MachineError>
    where
        T: Wire,
        F: Fn(T, T) -> T,
    {
        self.emit_collective_with(|| EventKind::Collective {
            op: CollOp::AllReduce,
            root: None,
            bytes: value.to_wire().len() as u64,
        });
        let _scope = self.collective_scope();
        let reduced = self.reduce(0, value, op)?;
        let bytes = self.broadcast(0, reduced.map(|v| v.to_wire()).unwrap_or_default())?;
        T::from_wire(&bytes).ok_or_else(|| {
            MachineError::CollectiveMismatch("all_reduce: undecodable result".into())
        })
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
        let gathered = self.gather(0, value.to_wire())?;
        let parts = if let Some(bufs) = gathered {
            let mut acc: Option<T> = None;
            let mut out = Vec::with_capacity(bufs.len());
            for b in &bufs {
                let v = T::from_wire(b).ok_or_else(|| {
                    MachineError::CollectiveMismatch("scan: undecodable operand".into())
                })?;
                let next = match &acc {
                    None => v,
                    Some(a) => op(a, &v),
                };
                out.push(next.to_wire());
                acc = Some(T::from_wire(&out[out.len() - 1]).ok_or_else(|| {
                    MachineError::CollectiveMismatch("scan: roundtrip failure".into())
                })?);
            }
            Some(out)
        } else {
            None
        };
        let mine = self.scatter(0, parts)?;
        T::from_wire(&mine)
            .ok_or_else(|| MachineError::CollectiveMismatch("scan: undecodable result".into()))
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
        let gathered = self.gather(0, value.to_wire())?;
        let parts = if let Some(bufs) = gathered {
            let mut acc = identity;
            let mut out = Vec::with_capacity(bufs.len());
            for b in &bufs {
                out.push(acc.to_wire());
                let v = T::from_wire(b).ok_or_else(|| {
                    MachineError::CollectiveMismatch("exclusive_scan: undecodable operand".into())
                })?;
                acc = op(&acc, &v);
            }
            Some(out)
        } else {
            None
        };
        let mine = self.scatter(0, parts)?;
        T::from_wire(&mine).ok_or_else(|| {
            MachineError::CollectiveMismatch("exclusive_scan: undecodable result".into())
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
