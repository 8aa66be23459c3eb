//! Offline shim for `crossbeam`, providing the `channel` subset this
//! workspace uses: unbounded MPSC-style channels with timeout receives.
//!
//! Built on `std::sync::{Mutex, Condvar}`. Disconnection semantics follow
//! crossbeam: a receive on a channel whose senders are all dropped fails
//! with `Disconnected` once the queue drains.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<ChanState<T>>,
        ready: Condvar,
    }

    struct ChanState<T> {
        queue: VecDeque<T>,
        senders: usize,
        receiver_alive: bool,
    }

    /// Error returned by [`Sender::send`] when the receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders dropped and the queue is empty.
        Disconnected,
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half of an unbounded channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Create an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(ChanState {
                queue: VecDeque::new(),
                senders: 1,
                receiver_alive: true,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue a message; fails only if the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut st = self.shared.queue.lock().unwrap();
            if !st.receiver_alive {
                return Err(SendError(value));
            }
            st.queue.push_back(value);
            drop(st);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.shared.queue.lock().unwrap();
            st.senders -= 1;
            let last = st.senders == 0;
            drop(st);
            if last {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.queue.lock().unwrap().receiver_alive = false;
        }
    }

    impl<T> Receiver<T> {
        /// Blocking receive.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.shared.ready.wait(st).unwrap();
            }
        }

        /// Receive with a deadline.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.shared.queue.lock().unwrap();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    return Ok(v);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _res) = self.shared.ready.wait_timeout(st, remaining).unwrap();
                st = guard;
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_roundtrip() {
            let (tx, rx) = unbounded();
            tx.send(41u32).unwrap();
            tx.send(42u32).unwrap();
            assert_eq!(rx.recv(), Ok(41));
            assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(42));
        }

        #[test]
        fn disconnect_is_reported() {
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn timeout_fires_without_messages() {
            let (_tx, rx) = unbounded::<u8>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(5)),
                Err(RecvTimeoutError::Timeout)
            );
        }

        #[test]
        fn cross_thread_delivery() {
            let (tx, rx) = unbounded();
            let h = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                tx.send(99u64).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(99));
            h.join().unwrap();
        }
    }
}
