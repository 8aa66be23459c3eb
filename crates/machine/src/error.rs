//! Error type for the machine runtime.

use std::fmt;

/// Errors raised by the simulated machine runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// A rank index was out of range.
    InvalidRank {
        /// Offending rank.
        rank: usize,
        /// Machine size.
        nprocs: usize,
    },
    /// A peer's thread terminated (panicked or returned early) while this
    /// rank was waiting for a message from it.
    PeerGone {
        /// The vanished peer.
        rank: usize,
    },
    /// No message arrived within the (real-time) watchdog window — almost
    /// always a deadlock in the calling program.
    RecvTimeout {
        /// Awaited source.
        from: usize,
        /// Awaited tag.
        tag: u32,
    },
    /// This rank was killed by an injected power-cut fault: every
    /// machine and file operation it attempts from the crash point on
    /// fails with this error, and peers blocked on it observe
    /// [`MachineError::PeerGone`] once its thread winds down instead of
    /// hanging.
    RankCrashed {
        /// The crashed rank.
        rank: usize,
    },
    /// A collective was called with inconsistent arguments across ranks
    /// (e.g. differing root or mismatched vector lengths).
    CollectiveMismatch(String),
    /// A machine was configured with zero ranks.
    EmptyMachine,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::InvalidRank { rank, nprocs } => {
                write!(f, "rank {rank} out of range for machine of {nprocs} ranks")
            }
            MachineError::PeerGone { rank } => {
                write!(f, "peer rank {rank} terminated while a receive was pending")
            }
            MachineError::RecvTimeout { from, tag } => {
                write!(
                    f,
                    "receive from rank {from} tag {tag:#x} timed out (deadlock?)"
                )
            }
            MachineError::RankCrashed { rank } => {
                write!(f, "rank {rank} was killed by an injected power-cut fault")
            }
            MachineError::CollectiveMismatch(msg) => {
                write!(f, "inconsistent collective call: {msg}")
            }
            MachineError::EmptyMachine => write!(f, "machine must have at least one rank"),
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MachineError::InvalidRank { rank: 9, nprocs: 4 };
        assert!(e.to_string().contains("rank 9"));
        assert!(e.to_string().contains("4 ranks"));
        let e = MachineError::RecvTimeout { from: 1, tag: 0x10 };
        assert!(e.to_string().contains("0x10"));
    }
}
