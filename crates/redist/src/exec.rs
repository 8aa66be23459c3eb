//! Schedule executor: runs a [`RedistPlan`] over the message layer.
//!
//! Every rank computes the identical plan from the identical record
//! metadata, so the wire carries **payload bytes only** — no per-element
//! ids, no length framing, no padding. The measured shuttle traffic is
//! therefore equal to [`RedistPlan::lower_bound`] by construction, and
//! the benchmark and differential sweep assert exactly that.
//!
//! Ordering is send-all-then-receive: sends never block in the machine
//! model (unbounded channels), so posting every outgoing transfer before
//! the first receive is deadlock-free, and receiving in the plan's
//! deterministic `(src, dst)` order keeps traces reproducible. A crashed
//! peer surfaces as [`MachineError::PeerGone`] from the receive — the
//! error propagates instead of hanging, which is what lets a reader
//! fall back to sealed-prefix semantics under fault injection.

use std::fmt;

use dstreams_machine::{MachineError, NodeCtx, REDIST_SHUTTLE_TAG};
use dstreams_trace::EventKind;

use crate::plan::{Interval, RedistPlan, Transfer};

/// Failures while executing a redistribution schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The message layer failed (peer crashed, timeout, ...).
    Machine(MachineError),
    /// A peer delivered a payload whose length disagrees with the plan —
    /// both sides derive the plan from the same header, so this means
    /// the metadata the ranks read was not, in fact, identical.
    Payload {
        /// Sending rank.
        from: usize,
        /// Bytes the plan says the transfer carries.
        expected: u64,
        /// Bytes that actually arrived.
        got: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Machine(e) => write!(f, "redistribution transport failed: {e}"),
            ExecError::Payload {
                from,
                expected,
                got,
            } => write!(
                f,
                "redistribution payload from rank {from} carried {got} bytes, plan says {expected}"
            ),
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Machine(e) => Some(e),
            ExecError::Payload { .. } => None,
        }
    }
}

impl From<MachineError> for ExecError {
    fn from(e: MachineError) -> Self {
        ExecError::Machine(e)
    }
}

/// Execute `plan` on the calling rank.
///
/// * `raw` — the bytes this rank read in phase 1: the file-order
///   concatenation of its span `plan.span(ctx.rank())`.
/// * `file` — name stamped into the `RedistShuttle` trace events.
/// * `place` — called exactly once per interval this rank ends up
///   owning, with the interval and its payload bytes (the file-order
///   concatenation of its elements), whether it arrived over the wire or
///   was retained locally.
///
/// Works interval by interval: every interval's offset in `raw` follows
/// from the byte counts of the span's intervals, so no per-element sizes
/// are needed.
pub fn execute(
    ctx: &NodeCtx,
    plan: &RedistPlan,
    raw: &[u8],
    file: &str,
    mut place: impl FnMut(&Interval, &[u8]),
) -> Result<(), ExecError> {
    let rank = ctx.rank();
    let mine = |t: &&Transfer| t.src == rank;

    // Offset of each of this rank's intervals inside `raw`: its span's
    // intervals tile `raw` in file order.
    let mut starts: Vec<(usize, u64)> = plan
        .messages()
        .iter()
        .chain(plan.retained())
        .filter(mine)
        .flat_map(|t| t.intervals.iter().map(|iv| (iv.start, iv.bytes)))
        .collect();
    starts.sort_unstable();
    let mut acc = 0usize;
    for (_, bytes) in &mut starts {
        let len = *bytes as usize;
        *bytes = acc as u64;
        acc += len;
    }
    debug_assert_eq!(acc, raw.len(), "raw buffer must hold exactly the span");
    let slice_of = |iv: &Interval| -> &[u8] {
        let k = starts.partition_point(|&(start, _)| start < iv.start);
        let off = starts[k].1 as usize;
        &raw[off..off + iv.bytes as usize]
    };

    // Post every outgoing transfer before the first receive.
    for t in plan.messages().iter().filter(mine) {
        match t.intervals.as_slice() {
            [iv] => ctx.send(t.dst, REDIST_SHUTTLE_TAG, slice_of(iv))?,
            ivs => {
                let mut payload = Vec::with_capacity(t.bytes as usize);
                for iv in ivs {
                    payload.extend_from_slice(slice_of(iv));
                }
                ctx.send(t.dst, REDIST_SHUTTLE_TAG, &payload)?;
            }
        }
        ctx.emit_with(|| EventKind::RedistShuttle {
            outgoing: true,
            peer: t.dst,
            bytes: t.bytes,
            elements: t.elements,
            file: file.to_string(),
        });
    }

    // Locally-retained intervals: memmoves, never messages.
    for t in plan.retained().iter().filter(mine) {
        for iv in &t.intervals {
            place(iv, slice_of(iv));
        }
        ctx.charge_memcpy(t.bytes as usize);
    }

    // Receive incoming transfers in the plan's deterministic order.
    for t in plan.messages().iter().filter(|t| t.dst == rank) {
        let payload = ctx.recv(t.src, REDIST_SHUTTLE_TAG)?;
        if payload.len() as u64 != t.bytes {
            return Err(ExecError::Payload {
                from: t.src,
                expected: t.bytes,
                got: payload.len() as u64,
            });
        }
        let mut cursor = 0usize;
        for iv in &t.intervals {
            let len = iv.bytes as usize;
            place(iv, &payload[cursor..cursor + len]);
            cursor += len;
        }
        ctx.emit_with(|| EventKind::RedistShuttle {
            outgoing: false,
            peer: t.src,
            bytes: t.bytes,
            elements: t.elements,
            file: file.to_string(),
        });
    }

    Ok(())
}
