//! The shared sink runtime layers emit into, and the merged trace it
//! yields.

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::counts::OpCounts;
use crate::event::Event;

struct SinkInner {
    /// One lane per rank; a rank only ever touches its own lane, so the
    /// per-lane mutexes are uncontended during a run.
    lanes: Vec<Mutex<Vec<Event>>>,
}

/// Shared event collector, cloned into every layer that emits.
///
/// Cloning is cheap (an `Arc` bump); all clones feed the same trace.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("nprocs", &self.inner.lanes.len())
            .finish()
    }
}

impl TraceSink {
    /// Create a sink for a machine of `nprocs` ranks.
    pub fn new(nprocs: usize) -> Self {
        TraceSink {
            inner: Arc::new(SinkInner {
                lanes: (0..nprocs).map(|_| Mutex::new(Vec::new())).collect(),
            }),
        }
    }

    /// Number of ranks this sink was sized for.
    pub fn nprocs(&self) -> usize {
        self.inner.lanes.len()
    }

    /// Record one event into its rank's lane.
    ///
    /// Panics if the event's rank is out of range — that is a wiring bug,
    /// not a runtime condition.
    pub fn record(&self, event: Event) {
        self.inner.lanes[event.rank]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(event);
    }

    /// Drain all lanes into a deterministically merged [`Trace`].
    ///
    /// Call after the machine run completes. The sink is left empty and
    /// can be reused for another run.
    pub fn take(&self) -> Trace {
        let mut events = Vec::new();
        for lane in &self.inner.lanes {
            let mut lane = lane
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            events.append(&mut lane);
        }
        // Per-rank lanes are already (vtime, seq)-ordered (clocks are
        // monotone and seq increments); the sort makes the (rank, vtime,
        // seq) merge order an invariant rather than an accident.
        events.sort_by_key(Event::merge_key);
        Trace {
            nprocs: self.inner.lanes.len(),
            events,
        }
    }
}

/// A completed, merged event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Ranks in the machine that produced the trace.
    pub nprocs: usize,
    /// Events in `(rank, vtime, seq)` order.
    pub events: Vec<Event>,
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Aggregate the trace into operation counts.
    pub fn op_counts(&self) -> OpCounts {
        OpCounts::from_events(&self.events)
    }

    /// Export as Chrome `trace_event` JSON (open in Perfetto or
    /// `chrome://tracing`). An export only: no tool reads it back.
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }

    /// Export with every event field intact (the `dstrace` format the
    /// `dsverify` analyzer reads).
    pub fn to_events_json(&self) -> String {
        crate::dstrace::to_events_json(self)
    }

    /// Parse a document produced by [`Trace::to_events_json`].
    pub fn from_events_json(input: &str) -> Result<Trace, crate::TraceParseError> {
        crate::dstrace::parse_events_json(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CollOp, EventKind};

    fn ev(rank: usize, vtime_ns: u64, seq: u64) -> Event {
        Event {
            rank,
            vtime_ns,
            seq,
            kind: EventKind::Collective {
                op: CollOp::Barrier,
                root: None,
                bytes: 0,
            },
        }
    }

    #[test]
    fn merge_orders_by_rank_then_time_then_seq() {
        let sink = TraceSink::new(2);
        sink.record(ev(1, 5, 0));
        sink.record(ev(0, 9, 1));
        sink.record(ev(0, 9, 0));
        sink.record(ev(0, 2, 2));
        let t = sink.take();
        let keys: Vec<_> = t.events.iter().map(Event::merge_key).collect();
        assert_eq!(keys, vec![(0, 2, 2), (0, 9, 0), (0, 9, 1), (1, 5, 0)]);
    }

    #[test]
    fn take_drains_and_is_reusable() {
        let sink = TraceSink::new(1);
        sink.record(ev(0, 1, 0));
        assert_eq!(sink.take().len(), 1);
        assert!(sink.take().is_empty());
        sink.record(ev(0, 2, 1));
        assert_eq!(sink.take().len(), 1);
    }
}
