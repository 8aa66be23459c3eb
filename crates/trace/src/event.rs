//! The event schema: everything the runtime can observe about itself.

/// Which collective operation an event describes (API level: composite
/// collectives such as `all_gather` report themselves, not the primitive
/// gather+broadcast they are built from).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CollOp {
    /// `barrier`
    Barrier,
    /// `broadcast`
    Broadcast,
    /// `gather`
    Gather,
    /// `all_gather`
    AllGather,
    /// `scatter`
    Scatter,
    /// `all_to_all`
    AllToAll,
    /// `reduce`
    Reduce,
    /// `all_reduce`
    AllReduce,
    /// `scan`
    Scan,
    /// `exclusive_scan`
    ExclusiveScan,
    /// `max_time`
    MaxTime,
}

impl CollOp {
    /// Stable lowercase name (used as the aggregation key and the Chrome
    /// event name).
    pub fn name(self) -> &'static str {
        match self {
            CollOp::Barrier => "barrier",
            CollOp::Broadcast => "broadcast",
            CollOp::Gather => "gather",
            CollOp::AllGather => "all_gather",
            CollOp::Scatter => "scatter",
            CollOp::AllToAll => "all_to_all",
            CollOp::Reduce => "reduce",
            CollOp::AllReduce => "all_reduce",
            CollOp::Scan => "scan",
            CollOp::ExclusiveScan => "exclusive_scan",
            CollOp::MaxTime => "max_time",
        }
    }
}

/// Direction of a parallel-file-system transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PfsOp {
    /// Bytes moved from the file to the caller.
    Read,
    /// Bytes moved from the caller to the file.
    Write,
}

impl PfsOp {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PfsOp::Read => "read",
            PfsOp::Write => "write",
        }
    }
}

/// Cost regime the disk model charged for an *independent* operation:
/// before the file-cache knee every node sees cache speed, after it disk
/// speed (paper §4: the Paragon curves bend at the cache size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndependentRegime {
    /// Working set within the I/O cache.
    Cached,
    /// Past the cache knee: raw disk rate plus contention.
    Disk,
}

impl IndependentRegime {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            IndependentRegime::Cached => "cached",
            IndependentRegime::Disk => "disk",
        }
    }
}

/// Cost regime the disk model charged for a *collective* operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CollectiveRegime {
    /// Per-rank blocks fit the node cache: full streaming rate.
    Streaming,
    /// Largest per-rank block exceeds the node cache: the knee rate.
    CacheKnee,
}

impl CollectiveRegime {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CollectiveRegime::Streaming => "streaming",
            CollectiveRegime::CacheKnee => "cache_knee",
        }
    }
}

/// Library-level phases of a stream `write()`/`read()` call, exported as
/// Chrome duration spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamPhase {
    /// Serializing elements into the per-node group buffer.
    Pack,
    /// Record header / file header handling.
    Metadata,
    /// Size-table write or read.
    SizeTable,
    /// Data-region write or read.
    Data,
    /// All-to-all routing of a conforming read to owners.
    Route,
    /// Overlap span of a write-behind flush: opens at `write_begin`,
    /// closes when `write_end` retires the in-flight record. Compute
    /// that executes inside this span is hidden behind the flush.
    WriteBehind,
    /// Overlap span of a read-ahead: opens at `prefetch`, closes when
    /// the consuming `read` installs the prefetched record.
    ReadAhead,
}

impl StreamPhase {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            StreamPhase::Pack => "pack",
            StreamPhase::Metadata => "metadata",
            StreamPhase::SizeTable => "size_table",
            StreamPhase::Data => "data",
            StreamPhase::Route => "route",
            StreamPhase::WriteBehind => "write_behind",
            StreamPhase::ReadAhead => "read_ahead",
        }
    }
}

/// Which class of injected fault fired on a PFS operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The operation failed once and will succeed when retried.
    Transient,
    /// Only a prefix of the written bytes was persisted; the call
    /// reported success (a lost-cache torn write).
    Torn,
    /// A power-cut: the rank is dead from this operation onward.
    Crash,
}

impl FaultKind {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Transient => "transient",
            FaultKind::Torn => "torn",
            FaultKind::Crash => "crash",
        }
    }
}

/// Which session-level operation a service request asked for (the
/// serve-layer verbs multiplexed onto the underlying d/streams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServeOp {
    /// Attach a tenant session to the service.
    Open,
    /// Checkpoint a new generation of the tenant's collection.
    Write,
    /// Read the tenant's newest sealed generation.
    Read,
    /// Scan the tenant's namespace for torn tails and truncate them.
    Recover,
}

impl ServeOp {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ServeOp::Open => "open",
            ServeOp::Write => "write",
            ServeOp::Read => "read",
            ServeOp::Recover => "recover",
        }
    }
}

/// Quality-of-service class of a tenant session. Classes map to
/// deficit-round-robin weights and admission-control budgets in the
/// service scheduler; the trace only records the label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QosLevel {
    /// Latency-sensitive tenants: largest scheduler share.
    Premium,
    /// The default class.
    Standard,
    /// Batch/background tenants: served from leftover capacity.
    BestEffort,
}

impl QosLevel {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            QosLevel::Premium => "premium",
            QosLevel::Standard => "standard",
            QosLevel::BestEffort => "best_effort",
        }
    }
}

/// Why admission control rejected a request instead of queueing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShedReason {
    /// The class's bounded queue was full.
    QueueFull,
    /// The tenant's token bucket was empty (rate limit).
    RateLimited,
}

impl ShedReason {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::RateLimited => "rate_limited",
        }
    }
}

/// What the working-set read cache did for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheOutcome {
    /// A read was served from the cache.
    Hit,
    /// A read missed and went to the PFS.
    Miss,
    /// A record was installed in the cache after a miss.
    Insert,
    /// A cold record was evicted to make room (LRU order).
    Evict,
    /// A cached record was discarded because its file was resealed,
    /// pruned, or recovered.
    Invalidate,
}

impl CacheOutcome {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Insert => "insert",
            CacheOutcome::Evict => "evict",
            CacheOutcome::Invalidate => "invalidate",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A message left this rank.
    MsgSend {
        /// Destination rank.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// True when the tag lies in the collectives' reserved namespace.
        collective: bool,
    },
    /// A message was claimed by a receive on this rank.
    MsgRecv {
        /// Source rank.
        from: usize,
        /// Message tag.
        tag: u32,
        /// Payload bytes.
        bytes: u64,
        /// True when the tag lies in the collectives' reserved namespace.
        collective: bool,
    },
    /// This rank entered a collective operation.
    Collective {
        /// Which collective.
        op: CollOp,
        /// Root rank, for rooted collectives.
        root: Option<usize>,
        /// This rank's payload contribution in bytes.
        bytes: u64,
    },
    /// An independent (per-node) file operation.
    PfsIndependent {
        /// Transfer direction.
        op: PfsOp,
        /// File name.
        file: String,
        /// Absolute file offset.
        offset: u64,
        /// Bytes transferred.
        bytes: u64,
        /// Cost regime the model charged.
        regime: IndependentRegime,
        /// Modeled cost in virtual nanoseconds.
        cost_ns: u64,
    },
    /// This rank's share of a collective (node-order) file operation.
    PfsCollective {
        /// Transfer direction.
        op: PfsOp,
        /// File name.
        file: String,
        /// Absolute file offset of this rank's block.
        offset: u64,
        /// Bytes this rank contributed.
        bytes: u64,
        /// Bytes moved by the whole operation across all ranks.
        total_bytes: u64,
        /// The per-rank accounting share (`total_bytes / nprocs`, matching
        /// the PFS stats counters exactly).
        share_bytes: u64,
        /// Distinct stripe-sized stripes (disk model `stripe_bytes`) the
        /// physical transfer touched. Zero when the rank moved no bytes.
        stripes: u64,
        /// Cost regime the model charged.
        regime: CollectiveRegime,
        /// Modeled cost in virtual nanoseconds.
        cost_ns: u64,
    },
    /// Collective-buffering shuttle: a record payload slice moving between
    /// a rank and the aggregator that owns its file domain. Emitted on
    /// both endpoints (`outgoing` on the shipper, incoming on the
    /// aggregator); self-owned slices move by local copy and emit nothing.
    AggShuttle {
        /// True on the rank shipping data to an aggregator; false on the
        /// aggregator claiming it.
        outgoing: bool,
        /// The other endpoint's rank.
        peer: usize,
        /// Payload bytes shuttled.
        bytes: u64,
        /// File the slice belongs to.
        file: String,
        /// Transfer direction of the *logical* file access the shuttle
        /// carries: `Write` when the slice is payload headed for the
        /// aggregator's coalesced write, `Read` when it is file data the
        /// aggregator read on the requester's behalf.
        op: PfsOp,
        /// Absolute file offset the slice lands at (write path) or was
        /// read from (read path). `None` in traces captured before this
        /// attribution metadata existed — such shuttles cannot be mapped
        /// back to a byte interval, and the happens-before race detector
        /// skips them.
        offset: Option<u64>,
    },
    /// Redistribution shuttle: one coalesced run of record elements
    /// moving between a reader rank and the rank that owns those
    /// elements under the target layout. Emitted on both endpoints
    /// (`outgoing` on the sender, incoming on the receiver); locally
    /// retained runs move by memmove and emit nothing.
    RedistShuttle {
        /// True on the rank sending data; false on the rank claiming it.
        outgoing: bool,
        /// The other endpoint's rank.
        peer: usize,
        /// Payload bytes shuttled (data only — the plan is computed
        /// redundantly on every rank, so no framing travels).
        bytes: u64,
        /// Elements carried by this shuttle.
        elements: u64,
        /// File the record belongs to.
        file: String,
    },
    /// The reliable-delivery layer re-sent a message whose previous
    /// attempt was dropped by the injected message-fault plan. Emitted on
    /// the sender after the virtual-time retransmit backoff elapsed.
    Retransmit {
        /// Destination rank of the unacknowledged message.
        to: usize,
        /// Message tag.
        tag: u32,
        /// Per-edge message sequence number.
        msg_seq: u64,
        /// Attempt number now being sent (1 = first retransmit).
        attempt: u32,
        /// Virtual-time backoff charged before this attempt, in ns.
        backoff_ns: u64,
    },
    /// The receive-side dedup filter discarded a duplicate delivery (a
    /// message whose per-edge sequence number had already been accepted).
    DupDropped {
        /// Source rank of the duplicate.
        from: usize,
        /// Message tag.
        tag: u32,
        /// Per-edge message sequence number of the duplicate.
        msg_seq: u64,
    },
    /// The failure detector gave up on a peer: every retransmit attempt
    /// was lost, so the sender declares the edge dead and converts the
    /// silence into the `PeerGone` path instead of retrying forever.
    SuspectPeer {
        /// The peer now considered unreachable.
        peer: usize,
        /// Delivery attempts made before giving up.
        attempts: u32,
    },
    /// An injected fault fired on a file operation of this rank.
    FaultInjected {
        /// Fault class.
        kind: FaultKind,
        /// Per-rank PFS operation index the fault was keyed to.
        op_index: u64,
        /// File the faulted operation addressed.
        file: String,
        /// Bytes actually persisted (torn/crash writes; 0 otherwise).
        bytes_kept: u64,
    },
    /// The PFS client retried a transient failure after backing off.
    PfsRetry {
        /// Per-rank PFS operation index being retried.
        op_index: u64,
        /// Retry attempt number (1 = first retry).
        attempt: u32,
        /// Virtual-time backoff charged before this retry, in ns.
        backoff_ns: u64,
    },
    /// A stream phase span opened on this rank.
    PhaseBegin {
        /// Which phase.
        phase: StreamPhase,
    },
    /// A stream phase span closed on this rank.
    PhaseEnd {
        /// Which phase.
        phase: StreamPhase,
    },
    /// An asynchronous operation entered this rank's pending queue: its
    /// deferred cost will elapse in the background while the rank keeps
    /// computing.
    AsyncSubmit {
        /// Per-rank id of the pending operation.
        op_id: u64,
        /// Deferred service cost, in virtual nanoseconds.
        cost_ns: u64,
        /// Virtual time at which the operation completes.
        completion_ns: u64,
        /// Queue depth (this operation included) right after submission.
        queue_depth: u32,
    },
    /// This rank waited for (or observed the completion of) a pending
    /// asynchronous operation. `stall_ns + overlap_ns` may fall short of
    /// the operation's cost when queueing delayed its start.
    AsyncComplete {
        /// Per-rank id of the retired operation.
        op_id: u64,
        /// The operation's deferred cost, repeated for stall accounting.
        cost_ns: u64,
        /// Virtual time this rank idled waiting for the completion.
        stall_ns: u64,
        /// Portion of the cost hidden behind the rank's own progress.
        overlap_ns: u64,
    },
    /// The service scheduler dequeued an admitted session request and
    /// began serving it. Every admit is paired with exactly one
    /// [`EventKind::SessionDone`] carrying the same `request_id` (the
    /// session-isolation rule `dsverify` checks).
    SessionAdmit {
        /// Service-wide request id (unique per request, all ranks agree).
        request_id: u64,
        /// Tenant the session belongs to.
        tenant: u32,
        /// The tenant's QoS class.
        class: QosLevel,
        /// Operation requested.
        op: ServeOp,
        /// Requests still queued across all classes right after this
        /// dequeue.
        queue_depth: u32,
    },
    /// Admission control rejected a session request (`Overloaded`): the
    /// request was never queued and must never be served.
    SessionShed {
        /// Service-wide request id of the rejected request.
        request_id: u64,
        /// Tenant the session belongs to.
        tenant: u32,
        /// The tenant's QoS class.
        class: QosLevel,
        /// Operation requested.
        op: ServeOp,
        /// Why the request was shed.
        reason: ShedReason,
    },
    /// A served session request retired (successfully or not).
    SessionDone {
        /// Service-wide request id, pairing with the admit.
        request_id: u64,
        /// Tenant the session belongs to.
        tenant: u32,
        /// The tenant's QoS class.
        class: QosLevel,
        /// Operation served.
        op: ServeOp,
        /// Virtual time from arrival to completion, in ns.
        latency_ns: u64,
        /// False when the underlying stream operation failed.
        ok: bool,
    },
    /// Working-set read-cache activity on this rank. A `Hit` on a file
    /// requires a live `Insert` for the same file with no intervening
    /// `Evict`/`Invalidate` and no PFS write to that file since (the
    /// cache-coherence rule `dsverify` checks).
    CacheAccess {
        /// Tenant whose record was accessed.
        tenant: u32,
        /// The cached file (one sealed checkpoint generation).
        file: String,
        /// What the cache did.
        outcome: CacheOutcome,
        /// Logical record bytes involved.
        bytes: u64,
    },
    /// An append stream sealed a segment: the segment file's record chain
    /// is complete, its active-append header flag is cleared, and the
    /// manifest now lists it as a consistent snapshot boundary. Tail
    /// readers may only open segment files whose seal happens-before the
    /// read (the snapshot-isolation rule `dsverify` checks).
    SegmentSeal {
        /// Append-stream name the segment belongs to.
        stream: String,
        /// Segment index within the stream (monotonic from 0).
        segment: u64,
        /// The sealed segment's file name.
        file: String,
        /// Records committed into the segment.
        records: u64,
        /// Payload bytes committed into the segment.
        bytes: u64,
    },
    /// A tail reader attached to an append stream mid-run.
    TailAttach {
        /// Append-stream name.
        stream: String,
        /// Reader id (unique per stream, all ranks agree).
        reader: u32,
        /// First segment index this reader will consume.
        first_segment: u64,
        /// Segments sealed at attach time (exclusive upper bound of the
        /// initially visible window `first_segment..sealed`).
        sealed: u64,
    },
    /// A tail reader finished consuming one sealed segment.
    TailConsume {
        /// Append-stream name.
        stream: String,
        /// Reader id.
        reader: u32,
        /// Segment index consumed.
        segment: u64,
        /// The consumed segment's file name.
        file: String,
        /// Payload bytes the reader extracted.
        bytes: u64,
    },
    /// A tail reader detached from an append stream; its consumption
    /// cursor no longer holds back retention.
    TailDetach {
        /// Append-stream name.
        stream: String,
        /// Reader id.
        reader: u32,
        /// One past the last segment index the reader consumed.
        consumed_through: u64,
    },
    /// Retention reclaimed a fully-consumed sealed segment: its file was
    /// removed from the namespace. Legal only once every attached,
    /// non-detached reader has consumed past it (the retention-safety
    /// rule `dsverify` checks).
    Compact {
        /// Append-stream name.
        stream: String,
        /// Segment index reclaimed.
        segment: u64,
        /// The reclaimed segment's file name.
        file: String,
        /// Payload bytes released back to the byte budget.
        bytes: u64,
    },
}

impl EventKind {
    /// Display name: the Chrome event name and the key of `dsdump`'s
    /// per-name tally (`send(coll)`, `barrier`, `pfs.coll_write`,
    /// `fault.crash`, `cache.hit`, `write_behind`, ...).
    pub fn display_name(&self) -> &'static str {
        match self {
            EventKind::MsgSend {
                collective: true, ..
            } => "send(coll)",
            EventKind::MsgSend { .. } => "send",
            EventKind::MsgRecv {
                collective: true, ..
            } => "recv(coll)",
            EventKind::MsgRecv { .. } => "recv",
            EventKind::Collective { op, .. } => op.name(),
            EventKind::PfsIndependent { op, .. } => match op {
                PfsOp::Read => "pfs.read",
                PfsOp::Write => "pfs.write",
            },
            EventKind::PfsCollective { op, .. } => match op {
                PfsOp::Read => "pfs.coll_read",
                PfsOp::Write => "pfs.coll_write",
            },
            EventKind::AggShuttle { outgoing: true, .. } => "agg.shuttle_out",
            EventKind::AggShuttle { .. } => "agg.shuttle_in",
            EventKind::RedistShuttle { outgoing: true, .. } => "redist.shuttle_out",
            EventKind::RedistShuttle { .. } => "redist.shuttle_in",
            EventKind::FaultInjected { kind, .. } => match kind {
                FaultKind::Transient => "fault.transient",
                FaultKind::Torn => "fault.torn",
                FaultKind::Crash => "fault.crash",
            },
            EventKind::PfsRetry { .. } => "pfs.retry",
            EventKind::Retransmit { .. } => "msg.retransmit",
            EventKind::DupDropped { .. } => "msg.dup_dropped",
            EventKind::SuspectPeer { .. } => "msg.suspect",
            EventKind::PhaseBegin { phase } | EventKind::PhaseEnd { phase } => phase.name(),
            EventKind::AsyncSubmit { .. } => "async.submit",
            EventKind::AsyncComplete { .. } => "async.wait",
            EventKind::SessionAdmit { .. } => "session.admit",
            EventKind::SessionShed { .. } => "session.shed",
            EventKind::SessionDone { .. } => "session.done",
            EventKind::CacheAccess { outcome, .. } => match outcome {
                CacheOutcome::Hit => "cache.hit",
                CacheOutcome::Miss => "cache.miss",
                CacheOutcome::Insert => "cache.insert",
                CacheOutcome::Evict => "cache.evict",
                CacheOutcome::Invalidate => "cache.invalidate",
            },
            EventKind::SegmentSeal { .. } => "segment.seal",
            EventKind::TailAttach { .. } => "tail.attach",
            EventKind::TailConsume { .. } => "tail.consume",
            EventKind::TailDetach { .. } => "tail.detach",
            EventKind::Compact { .. } => "segment.compact",
        }
    }
}

/// One observed event: where, when, and what.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Rank the event occurred on.
    pub rank: usize,
    /// Virtual time of the event on that rank, in nanoseconds.
    pub vtime_ns: u64,
    /// Per-rank sequence number (breaks ties between events at one
    /// instant; makes the merge total and deterministic).
    pub seq: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// The `(rank, vtime, seq)` merge key.
    pub fn merge_key(&self) -> (usize, u64, u64) {
        (self.rank, self.vtime_ns, self.seq)
    }
}
