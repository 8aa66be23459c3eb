//! The machine runner: spawns one OS thread per simulated rank and wires
//! the full message-channel mesh between them.

use std::sync::Arc;

use crossbeam::channel::unbounded;

use crate::cell::CollectiveCell;
use crate::config::MachineConfig;
use crate::error::MachineError;
use crate::message::{Envelope, Mailbox};
use crate::node::NodeCtx;

/// Entry point for running SPMD programs on the simulated multicomputer.
///
/// ```
/// use dstreams_machine::{Machine, MachineConfig};
///
/// let sums = Machine::run(MachineConfig::functional(4), |ctx| {
///     ctx.all_reduce(ctx.rank() as u64, |a, b| a + b).unwrap()
/// })
/// .unwrap();
/// assert_eq!(sums, vec![6, 6, 6, 6]);
/// ```
pub struct Machine;

impl Machine {
    /// Run `f` on every rank of a machine configured by `config`, returning
    /// the per-rank results in rank order.
    ///
    /// If any rank panics, the panic is propagated (after the other ranks
    /// have been given the chance to fail their pending receives with
    /// [`MachineError::PeerGone`]).
    pub fn run<T, F>(config: MachineConfig, f: F) -> Result<Vec<T>, MachineError>
    where
        T: Send,
        F: Fn(&NodeCtx) -> T + Sync,
    {
        let n = config.nprocs;
        if n == 0 {
            return Err(MachineError::EmptyMachine);
        }

        // Full mesh of channels: tx[from][to] / rx grouped per receiver.
        let mut tx_rows: Vec<Vec<crossbeam::channel::Sender<Envelope>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        let mut rx_rows: Vec<Vec<crossbeam::channel::Receiver<Envelope>>> =
            (0..n).map(|_| Vec::with_capacity(n)).collect();
        // Build in (to, from) order so rx_rows[to][from] lines up.
        let mut all: Vec<
            Vec<(
                crossbeam::channel::Sender<Envelope>,
                crossbeam::channel::Receiver<Envelope>,
            )>,
        > = Vec::with_capacity(n);
        for _to in 0..n {
            all.push((0..n).map(|_| unbounded()).collect());
        }
        for (to, row) in all.into_iter().enumerate() {
            for (from, (tx, rx)) in row.into_iter().enumerate() {
                tx_rows[from].push(tx);
                rx_rows[to].push(rx);
            }
        }

        // Without a fault plan collectives meet in one shared cell; any
        // plan, even an inert one, keeps every collective leg on the wire
        // where its fates apply.
        let cell = config
            .faults
            .is_none()
            .then(|| Arc::new(CollectiveCell::new(n)));
        let mut contexts: Vec<NodeCtx> = Vec::with_capacity(n);
        for (rank, (tx, rx)) in tx_rows.into_iter().zip(rx_rows).enumerate() {
            let mailbox = Mailbox::new(rx);
            contexts.push(NodeCtx::new(
                rank,
                config.clone(),
                tx,
                mailbox,
                cell.clone(),
            ));
        }

        let f = &f;
        let results: Vec<T> = std::thread::scope(|scope| {
            let handles: Vec<_> = contexts
                .into_iter()
                .map(|ctx| {
                    scope.spawn(move || {
                        let out = f(&ctx);
                        // Dropping ctx here closes this rank's senders
                        // and marks it departed in the collective cell,
                        // letting blocked peers observe PeerGone rather
                        // than hanging, had we panicked above.
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::VTime;

    #[test]
    fn zero_rank_machine_is_rejected() {
        let r = Machine::run(MachineConfig::functional(0), |_ctx| ());
        assert!(matches!(r, Err(MachineError::EmptyMachine)));
    }

    #[test]
    fn single_rank_machine_runs() {
        let out = Machine::run(MachineConfig::functional(1), |ctx| ctx.rank() + 100).unwrap();
        assert_eq!(out, vec![100]);
    }

    #[test]
    fn results_are_in_rank_order() {
        let out = Machine::run(MachineConfig::functional(8), |ctx| ctx.rank() * 2).unwrap();
        assert_eq!(out, (0..8).map(|r| r * 2).collect::<Vec<_>>());
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            Machine::run(MachineConfig::paragon(4), |ctx| {
                // A mix of collectives whose timing must be reproducible.
                ctx.advance(VTime::from_micros(ctx.rank() as u64 * 7));
                let s = ctx.all_reduce(ctx.rank() as u64 + 1, |a, b| a * b).unwrap();
                ctx.barrier().unwrap();
                let g = ctx.all_gather(vec![ctx.rank() as u8; 64]).unwrap();
                (s, g.len(), ctx.now())
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1, y.1);
            assert_eq!(x.2, y.2, "virtual times must be bit-identical");
        }
    }

    #[test]
    fn panic_in_one_rank_propagates() {
        let res = std::panic::catch_unwind(|| {
            Machine::run(MachineConfig::functional(2), |ctx| {
                if ctx.rank() == 1 {
                    panic!("rank 1 dies");
                }
                // Rank 0 waits on the dead peer; PeerGone unblocks it.
                let err = ctx.recv(1, 0).unwrap_err();
                assert!(matches!(err, MachineError::PeerGone { rank: 1 }));
            })
        });
        assert!(res.is_err(), "panic should propagate to the caller");
    }

    #[test]
    fn a_dead_rank_fails_a_peer_blocked_in_a_collective() {
        use std::sync::Mutex;
        use std::time::{Duration, Instant};
        for sync_clocks in [false, true] {
            let seen = Mutex::new(None);
            let res = std::panic::catch_unwind(|| {
                Machine::run(MachineConfig::functional(2), |ctx| {
                    if ctx.rank() == 1 {
                        // Let rank 0 block in the collective first.
                        std::thread::sleep(Duration::from_millis(20));
                        panic!("rank 1 dies");
                    }
                    let start = Instant::now();
                    let err = if sync_clocks {
                        ctx.sync_clocks().map(|_| ()).unwrap_err()
                    } else {
                        ctx.barrier().unwrap_err()
                    };
                    *seen.lock().unwrap() = Some((err, start.elapsed()));
                })
            });
            assert!(res.is_err(), "panic should propagate to the caller");
            let (err, waited) = seen.lock().unwrap().take().expect("rank 0 returned");
            assert_eq!(err, MachineError::PeerGone { rank: 1 });
            assert!(waited < Duration::from_secs(1), "waited {waited:?}");
        }
    }

    #[test]
    fn seeds_differ_per_rank_within_a_run() {
        let seeds = Machine::run(MachineConfig::functional(4), |ctx| ctx.seed()).unwrap();
        for i in 0..4 {
            for j in (i + 1)..4 {
                assert_ne!(seeds[i], seeds[j]);
            }
        }
    }
}
