//! Full-fidelity trace serialization (the `.dstrace.json` format).
//!
//! This module serializes a [`Trace`] so that every field of every
//! [`EventKind`] survives a round trip, which is what `dsverify` and
//! `dsdump --dstrace` consume: examples write a trace with
//! [`to_events_json`], the tools read it back with [`parse_events_json`]
//! and see exactly the events the runtime emitted. [`kind_members`] is
//! also the field list the Chrome export in [`crate::chrome`] shows.
//!
//! The format is a single JSON object:
//!
//! ```json
//! {
//!   "format": "dstrace",
//!   "version": 1,
//!   "nprocs": 4,
//!   "events": [
//!     {"rank": 0, "vtime_ns": 120, "seq": 3, "kind": "collective",
//!      "op": "barrier", "root": null, "bytes": 0},
//!     ...
//!   ]
//! }
//! ```

use std::fmt;

use crate::event::{
    CacheOutcome, CollOp, CollectiveRegime, Event, EventKind, FaultKind, IndependentRegime, PfsOp,
    QosLevel, ServeOp, ShedReason, StreamPhase,
};
use crate::json::{self, ParseError, Value};
use crate::sink::Trace;

/// Format version written by [`to_events_json`]; [`parse_events_json`]
/// rejects anything newer.
const FORMAT_VERSION: i64 = 1;

/// Why a text is not a readable `.dstrace.json` trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// The text is not well-formed JSON.
    Json(ParseError),
    /// The document's header is not a dstrace header.
    Header(String),
    /// Event `index` has a missing, mistyped or unknown field.
    Event {
        /// Position of the event in the `events` array.
        index: usize,
        /// What is wrong with it.
        message: String,
    },
    /// Event `index` sits on a rank the trace does not have.
    RankOutOfRange {
        /// Position of the event in the `events` array.
        index: usize,
        /// The event's rank.
        rank: usize,
        /// Ranks in the trace.
        nprocs: usize,
    },
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceParseError::Json(e) => e.fmt(f),
            TraceParseError::Header(message) => f.write_str(message),
            TraceParseError::Event { index, message } => write!(f, "event {index}: {message}"),
            TraceParseError::RankOutOfRange {
                index,
                rank,
                nprocs,
            } => write!(
                f,
                "event {index}: rank {rank} is out of range for a trace of {nprocs} rank(s)"
            ),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Serialize a trace with every event field intact.
pub fn to_events_json(trace: &Trace) -> String {
    let events: Vec<Value> = trace.events.iter().map(event_to_value).collect();
    Value::Obj(vec![
        ("format".into(), Value::Str("dstrace".into())),
        ("version".into(), Value::Int(FORMAT_VERSION)),
        ("nprocs".into(), Value::Int(trace.nprocs as i64)),
        ("events".into(), Value::Arr(events)),
    ])
    .to_json_pretty()
}

/// Parse a document produced by [`to_events_json`] back into a [`Trace`].
pub fn parse_events_json(input: &str) -> Result<Trace, TraceParseError> {
    let doc = json::parse(input).map_err(TraceParseError::Json)?;
    let fail = |message: &str| TraceParseError::Header(message.to_string());
    if doc.get("format").and_then(Value::as_str) != Some("dstrace") {
        return Err(fail("not a dstrace document (missing format: \"dstrace\")"));
    }
    match doc.get("version").and_then(Value::as_i64) {
        Some(v) if v <= FORMAT_VERSION => {}
        Some(v) => return Err(fail(&format!("unsupported dstrace version {v}"))),
        None => return Err(fail("missing dstrace version")),
    }
    let nprocs = doc
        .get("nprocs")
        .and_then(Value::as_i64)
        .filter(|&n| n >= 0)
        .ok_or_else(|| fail("missing or negative nprocs"))? as usize;
    let raw_events = doc
        .get("events")
        .and_then(Value::as_array)
        .ok_or_else(|| fail("missing events array"))?;
    let mut events = Vec::with_capacity(raw_events.len());
    for (index, ev) in raw_events.iter().enumerate() {
        let event =
            event_from_value(ev).map_err(|message| TraceParseError::Event { index, message })?;
        if event.rank >= nprocs {
            return Err(TraceParseError::RankOutOfRange {
                index,
                rank: event.rank,
                nprocs,
            });
        }
        events.push(event);
    }
    Ok(Trace { nprocs, events })
}

fn event_to_value(event: &Event) -> Value {
    let mut members = vec![
        ("rank".into(), Value::Int(event.rank as i64)),
        ("vtime_ns".into(), u64_value(event.vtime_ns)),
        ("seq".into(), u64_value(event.seq)),
    ];
    members.extend(kind_members(&event.kind));
    Value::Obj(members)
}

/// `u64` values can exceed `i64::MAX` (e.g. sentinel seeds); render those
/// as decimal strings so nothing is silently truncated.
fn u64_value(v: u64) -> Value {
    match i64::try_from(v) {
        Ok(i) => Value::Int(i),
        Err(_) => Value::Str(v.to_string()),
    }
}

/// The `kind` tag and fields of one event, in their serialized order.
pub(crate) fn kind_members(kind: &EventKind) -> Vec<(String, Value)> {
    let tag = |name: &str| ("kind".to_string(), Value::Str(name.to_string()));
    match kind {
        EventKind::MsgSend {
            to,
            tag: msg_tag,
            bytes,
            collective,
        } => vec![
            tag("msg_send"),
            ("to".into(), Value::Int(*to as i64)),
            ("tag".into(), Value::Int(i64::from(*msg_tag))),
            ("bytes".into(), u64_value(*bytes)),
            ("collective".into(), Value::Bool(*collective)),
        ],
        EventKind::MsgRecv {
            from,
            tag: msg_tag,
            bytes,
            collective,
        } => vec![
            tag("msg_recv"),
            ("from".into(), Value::Int(*from as i64)),
            ("tag".into(), Value::Int(i64::from(*msg_tag))),
            ("bytes".into(), u64_value(*bytes)),
            ("collective".into(), Value::Bool(*collective)),
        ],
        EventKind::Collective { op, root, bytes } => vec![
            tag("collective"),
            ("op".into(), Value::Str(op.name().into())),
            (
                "root".into(),
                root.map_or(Value::Null, |r| Value::Int(r as i64)),
            ),
            ("bytes".into(), u64_value(*bytes)),
        ],
        EventKind::PfsIndependent {
            op,
            file,
            offset,
            bytes,
            regime,
            cost_ns,
        } => vec![
            tag("pfs_independent"),
            ("op".into(), Value::Str(op.name().into())),
            ("file".into(), Value::Str(file.clone())),
            ("offset".into(), u64_value(*offset)),
            ("bytes".into(), u64_value(*bytes)),
            ("regime".into(), Value::Str(regime.name().into())),
            ("cost_ns".into(), u64_value(*cost_ns)),
        ],
        EventKind::PfsCollective {
            op,
            file,
            offset,
            bytes,
            total_bytes,
            share_bytes,
            stripes,
            regime,
            cost_ns,
        } => vec![
            tag("pfs_collective"),
            ("op".into(), Value::Str(op.name().into())),
            ("file".into(), Value::Str(file.clone())),
            ("offset".into(), u64_value(*offset)),
            ("bytes".into(), u64_value(*bytes)),
            ("total_bytes".into(), u64_value(*total_bytes)),
            ("share_bytes".into(), u64_value(*share_bytes)),
            ("stripes".into(), u64_value(*stripes)),
            ("regime".into(), Value::Str(regime.name().into())),
            ("cost_ns".into(), u64_value(*cost_ns)),
        ],
        EventKind::AggShuttle {
            outgoing,
            peer,
            bytes,
            file,
            op,
            offset,
        } => vec![
            tag("agg_shuttle"),
            ("outgoing".into(), Value::Bool(*outgoing)),
            ("peer".into(), Value::Int(*peer as i64)),
            ("bytes".into(), u64_value(*bytes)),
            ("file".into(), Value::Str(file.clone())),
            ("op".into(), Value::Str(op.name().into())),
            ("offset".into(), offset.map_or(Value::Null, u64_value)),
        ],
        EventKind::RedistShuttle {
            outgoing,
            peer,
            bytes,
            elements,
            file,
        } => vec![
            tag("redist_shuttle"),
            ("outgoing".into(), Value::Bool(*outgoing)),
            ("peer".into(), Value::Int(*peer as i64)),
            ("bytes".into(), u64_value(*bytes)),
            ("elements".into(), u64_value(*elements)),
            ("file".into(), Value::Str(file.clone())),
        ],
        EventKind::FaultInjected {
            kind,
            op_index,
            file,
            bytes_kept,
        } => vec![
            tag("fault_injected"),
            ("fault".into(), Value::Str(kind.name().into())),
            ("op_index".into(), u64_value(*op_index)),
            ("file".into(), Value::Str(file.clone())),
            ("bytes_kept".into(), u64_value(*bytes_kept)),
        ],
        EventKind::PfsRetry {
            op_index,
            attempt,
            backoff_ns,
        } => vec![
            tag("pfs_retry"),
            ("op_index".into(), u64_value(*op_index)),
            ("attempt".into(), Value::Int(i64::from(*attempt))),
            ("backoff_ns".into(), u64_value(*backoff_ns)),
        ],
        EventKind::Retransmit {
            to,
            tag: msg_tag,
            msg_seq,
            attempt,
            backoff_ns,
        } => vec![
            tag("retransmit"),
            ("to".into(), Value::Int(*to as i64)),
            ("tag".into(), Value::Int(i64::from(*msg_tag))),
            ("msg_seq".into(), u64_value(*msg_seq)),
            ("attempt".into(), Value::Int(i64::from(*attempt))),
            ("backoff_ns".into(), u64_value(*backoff_ns)),
        ],
        EventKind::DupDropped {
            from,
            tag: msg_tag,
            msg_seq,
        } => vec![
            tag("dup_dropped"),
            ("from".into(), Value::Int(*from as i64)),
            ("tag".into(), Value::Int(i64::from(*msg_tag))),
            ("msg_seq".into(), u64_value(*msg_seq)),
        ],
        EventKind::SuspectPeer { peer, attempts } => vec![
            tag("suspect_peer"),
            ("peer".into(), Value::Int(*peer as i64)),
            ("attempts".into(), Value::Int(i64::from(*attempts))),
        ],
        EventKind::PhaseBegin { phase } => vec![
            tag("phase_begin"),
            ("phase".into(), Value::Str(phase.name().into())),
        ],
        EventKind::PhaseEnd { phase } => vec![
            tag("phase_end"),
            ("phase".into(), Value::Str(phase.name().into())),
        ],
        EventKind::AsyncSubmit {
            op_id,
            cost_ns,
            completion_ns,
            queue_depth,
        } => vec![
            tag("async_submit"),
            ("op_id".into(), u64_value(*op_id)),
            ("cost_ns".into(), u64_value(*cost_ns)),
            ("completion_ns".into(), u64_value(*completion_ns)),
            ("queue_depth".into(), Value::Int(i64::from(*queue_depth))),
        ],
        EventKind::AsyncComplete {
            op_id,
            cost_ns,
            stall_ns,
            overlap_ns,
        } => vec![
            tag("async_complete"),
            ("op_id".into(), u64_value(*op_id)),
            ("cost_ns".into(), u64_value(*cost_ns)),
            ("stall_ns".into(), u64_value(*stall_ns)),
            ("overlap_ns".into(), u64_value(*overlap_ns)),
        ],
        EventKind::SessionAdmit {
            request_id,
            tenant,
            class,
            op,
            queue_depth,
        } => vec![
            tag("session_admit"),
            ("request_id".into(), u64_value(*request_id)),
            ("tenant".into(), Value::Int(i64::from(*tenant))),
            ("class".into(), Value::Str(class.name().into())),
            ("op".into(), Value::Str(op.name().into())),
            ("queue_depth".into(), Value::Int(i64::from(*queue_depth))),
        ],
        EventKind::SessionShed {
            request_id,
            tenant,
            class,
            op,
            reason,
        } => vec![
            tag("session_shed"),
            ("request_id".into(), u64_value(*request_id)),
            ("tenant".into(), Value::Int(i64::from(*tenant))),
            ("class".into(), Value::Str(class.name().into())),
            ("op".into(), Value::Str(op.name().into())),
            ("reason".into(), Value::Str(reason.name().into())),
        ],
        EventKind::SessionDone {
            request_id,
            tenant,
            class,
            op,
            latency_ns,
            ok,
        } => vec![
            tag("session_done"),
            ("request_id".into(), u64_value(*request_id)),
            ("tenant".into(), Value::Int(i64::from(*tenant))),
            ("class".into(), Value::Str(class.name().into())),
            ("op".into(), Value::Str(op.name().into())),
            ("latency_ns".into(), u64_value(*latency_ns)),
            ("ok".into(), Value::Bool(*ok)),
        ],
        EventKind::CacheAccess {
            tenant,
            file,
            outcome,
            bytes,
        } => vec![
            tag("cache_access"),
            ("tenant".into(), Value::Int(i64::from(*tenant))),
            ("file".into(), Value::Str(file.clone())),
            ("outcome".into(), Value::Str(outcome.name().into())),
            ("bytes".into(), u64_value(*bytes)),
        ],
        EventKind::SegmentSeal {
            stream,
            segment,
            file,
            records,
            bytes,
        } => vec![
            tag("segment_seal"),
            ("stream".into(), Value::Str(stream.clone())),
            ("segment".into(), u64_value(*segment)),
            ("file".into(), Value::Str(file.clone())),
            ("records".into(), u64_value(*records)),
            ("bytes".into(), u64_value(*bytes)),
        ],
        EventKind::TailAttach {
            stream,
            reader,
            first_segment,
            sealed,
        } => vec![
            tag("tail_attach"),
            ("stream".into(), Value::Str(stream.clone())),
            ("reader".into(), Value::Int(i64::from(*reader))),
            ("first_segment".into(), u64_value(*first_segment)),
            ("sealed".into(), u64_value(*sealed)),
        ],
        EventKind::TailConsume {
            stream,
            reader,
            segment,
            file,
            bytes,
        } => vec![
            tag("tail_consume"),
            ("stream".into(), Value::Str(stream.clone())),
            ("reader".into(), Value::Int(i64::from(*reader))),
            ("segment".into(), u64_value(*segment)),
            ("file".into(), Value::Str(file.clone())),
            ("bytes".into(), u64_value(*bytes)),
        ],
        EventKind::TailDetach {
            stream,
            reader,
            consumed_through,
        } => vec![
            tag("tail_detach"),
            ("stream".into(), Value::Str(stream.clone())),
            ("reader".into(), Value::Int(i64::from(*reader))),
            ("consumed_through".into(), u64_value(*consumed_through)),
        ],
        EventKind::Compact {
            stream,
            segment,
            file,
            bytes,
        } => vec![
            tag("compact"),
            ("stream".into(), Value::Str(stream.clone())),
            ("segment".into(), u64_value(*segment)),
            ("file".into(), Value::Str(file.clone())),
            ("bytes".into(), u64_value(*bytes)),
        ],
    }
}

fn event_from_value(v: &Value) -> Result<Event, String> {
    let rank = field_usize(v, "rank")?;
    let vtime_ns = field_u64(v, "vtime_ns")?;
    let seq = field_u64(v, "seq")?;
    let kind_name = v
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing kind")?;
    let kind = match kind_name {
        "msg_send" => EventKind::MsgSend {
            to: field_usize(v, "to")?,
            tag: field_u32(v, "tag")?,
            bytes: field_u64(v, "bytes")?,
            collective: field_bool(v, "collective")?,
        },
        "msg_recv" => EventKind::MsgRecv {
            from: field_usize(v, "from")?,
            tag: field_u32(v, "tag")?,
            bytes: field_u64(v, "bytes")?,
            collective: field_bool(v, "collective")?,
        },
        "collective" => EventKind::Collective {
            op: coll_op(field_str(v, "op")?)?,
            root: match v.get("root") {
                None | Some(Value::Null) => None,
                Some(r) => Some(
                    r.as_i64()
                        .filter(|&r| r >= 0)
                        .ok_or("bad collective root")? as usize,
                ),
            },
            bytes: field_u64(v, "bytes")?,
        },
        "pfs_independent" => EventKind::PfsIndependent {
            op: pfs_op(field_str(v, "op")?)?,
            file: field_str(v, "file")?.to_string(),
            offset: field_u64(v, "offset")?,
            bytes: field_u64(v, "bytes")?,
            regime: independent_regime(field_str(v, "regime")?)?,
            cost_ns: field_u64(v, "cost_ns")?,
        },
        "pfs_collective" => EventKind::PfsCollective {
            op: pfs_op(field_str(v, "op")?)?,
            file: field_str(v, "file")?.to_string(),
            offset: field_u64(v, "offset")?,
            bytes: field_u64(v, "bytes")?,
            total_bytes: field_u64(v, "total_bytes")?,
            share_bytes: field_u64(v, "share_bytes")?,
            // Absent in documents written before the field existed.
            stripes: field_u64_or(v, "stripes", 0)?,
            regime: collective_regime(field_str(v, "regime")?)?,
            cost_ns: field_u64(v, "cost_ns")?,
        },
        "agg_shuttle" => EventKind::AggShuttle {
            outgoing: field_bool(v, "outgoing")?,
            peer: field_usize(v, "peer")?,
            bytes: field_u64(v, "bytes")?,
            file: field_str(v, "file")?.to_string(),
            // Attribution metadata absent in documents written before the
            // happens-before engine existed; default to a write shuttle with
            // an unknown interval, which the race detector skips.
            op: match v.get("op") {
                None | Some(Value::Null) => PfsOp::Write,
                _ => pfs_op(field_str(v, "op")?)?,
            },
            offset: match v.get("offset") {
                None | Some(Value::Null) => None,
                _ => Some(field_u64(v, "offset")?),
            },
        },
        "redist_shuttle" => EventKind::RedistShuttle {
            outgoing: field_bool(v, "outgoing")?,
            peer: field_usize(v, "peer")?,
            bytes: field_u64(v, "bytes")?,
            elements: field_u64(v, "elements")?,
            file: field_str(v, "file")?.to_string(),
        },
        "fault_injected" => EventKind::FaultInjected {
            kind: fault_kind(field_str(v, "fault")?)?,
            op_index: field_u64(v, "op_index")?,
            file: field_str(v, "file")?.to_string(),
            bytes_kept: field_u64(v, "bytes_kept")?,
        },
        "pfs_retry" => EventKind::PfsRetry {
            op_index: field_u64(v, "op_index")?,
            attempt: field_u32(v, "attempt")?,
            backoff_ns: field_u64(v, "backoff_ns")?,
        },
        "retransmit" => EventKind::Retransmit {
            to: field_usize(v, "to")?,
            tag: field_u32(v, "tag")?,
            msg_seq: field_u64(v, "msg_seq")?,
            attempt: field_u32(v, "attempt")?,
            backoff_ns: field_u64(v, "backoff_ns")?,
        },
        "dup_dropped" => EventKind::DupDropped {
            from: field_usize(v, "from")?,
            tag: field_u32(v, "tag")?,
            msg_seq: field_u64(v, "msg_seq")?,
        },
        "suspect_peer" => EventKind::SuspectPeer {
            peer: field_usize(v, "peer")?,
            attempts: field_u32(v, "attempts")?,
        },
        "phase_begin" => EventKind::PhaseBegin {
            phase: stream_phase(field_str(v, "phase")?)?,
        },
        "phase_end" => EventKind::PhaseEnd {
            phase: stream_phase(field_str(v, "phase")?)?,
        },
        "async_submit" => EventKind::AsyncSubmit {
            op_id: field_u64(v, "op_id")?,
            cost_ns: field_u64(v, "cost_ns")?,
            completion_ns: field_u64(v, "completion_ns")?,
            queue_depth: field_u32(v, "queue_depth")?,
        },
        "async_complete" => EventKind::AsyncComplete {
            op_id: field_u64(v, "op_id")?,
            cost_ns: field_u64(v, "cost_ns")?,
            stall_ns: field_u64(v, "stall_ns")?,
            overlap_ns: field_u64(v, "overlap_ns")?,
        },
        "session_admit" => EventKind::SessionAdmit {
            request_id: field_u64(v, "request_id")?,
            tenant: field_u32(v, "tenant")?,
            class: qos_level(field_str(v, "class")?)?,
            op: serve_op(field_str(v, "op")?)?,
            queue_depth: field_u32(v, "queue_depth")?,
        },
        "session_shed" => EventKind::SessionShed {
            request_id: field_u64(v, "request_id")?,
            tenant: field_u32(v, "tenant")?,
            class: qos_level(field_str(v, "class")?)?,
            op: serve_op(field_str(v, "op")?)?,
            reason: shed_reason(field_str(v, "reason")?)?,
        },
        "session_done" => EventKind::SessionDone {
            request_id: field_u64(v, "request_id")?,
            tenant: field_u32(v, "tenant")?,
            class: qos_level(field_str(v, "class")?)?,
            op: serve_op(field_str(v, "op")?)?,
            latency_ns: field_u64(v, "latency_ns")?,
            ok: field_bool(v, "ok")?,
        },
        "cache_access" => EventKind::CacheAccess {
            tenant: field_u32(v, "tenant")?,
            file: field_str(v, "file")?.to_string(),
            outcome: cache_outcome(field_str(v, "outcome")?)?,
            bytes: field_u64(v, "bytes")?,
        },
        "segment_seal" => EventKind::SegmentSeal {
            stream: field_str(v, "stream")?.to_string(),
            segment: field_u64(v, "segment")?,
            file: field_str(v, "file")?.to_string(),
            records: field_u64(v, "records")?,
            bytes: field_u64(v, "bytes")?,
        },
        "tail_attach" => EventKind::TailAttach {
            stream: field_str(v, "stream")?.to_string(),
            reader: field_u32(v, "reader")?,
            first_segment: field_u64(v, "first_segment")?,
            sealed: field_u64(v, "sealed")?,
        },
        "tail_consume" => EventKind::TailConsume {
            stream: field_str(v, "stream")?.to_string(),
            reader: field_u32(v, "reader")?,
            segment: field_u64(v, "segment")?,
            file: field_str(v, "file")?.to_string(),
            bytes: field_u64(v, "bytes")?,
        },
        "tail_detach" => EventKind::TailDetach {
            stream: field_str(v, "stream")?.to_string(),
            reader: field_u32(v, "reader")?,
            consumed_through: field_u64(v, "consumed_through")?,
        },
        "compact" => EventKind::Compact {
            stream: field_str(v, "stream")?.to_string(),
            segment: field_u64(v, "segment")?,
            file: field_str(v, "file")?.to_string(),
            bytes: field_u64(v, "bytes")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok(Event {
        rank,
        vtime_ns,
        seq,
        kind,
    })
}

fn field_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::Int(i)) if *i >= 0 => Ok(*i as u64),
        // Values past i64::MAX were written as decimal strings.
        Some(Value::Str(s)) => s
            .parse::<u64>()
            .map_err(|_| format!("bad u64 string in field `{key}`")),
        _ => Err(format!("missing u64 field `{key}`")),
    }
}

fn field_u64_or(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        _ => field_u64(v, key),
    }
}

fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(field_u64(v, key)?).map_err(|_| format!("field `{key}` exceeds u32"))
}

fn field_usize(v: &Value, key: &str) -> Result<usize, String> {
    usize::try_from(field_u64(v, key)?).map_err(|_| format!("field `{key}` exceeds usize"))
}

fn field_bool(v: &Value, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("missing bool field `{key}`")),
    }
}

fn coll_op(name: &str) -> Result<CollOp, String> {
    const ALL: [CollOp; 11] = [
        CollOp::Barrier,
        CollOp::Broadcast,
        CollOp::Gather,
        CollOp::AllGather,
        CollOp::Scatter,
        CollOp::AllToAll,
        CollOp::Reduce,
        CollOp::AllReduce,
        CollOp::Scan,
        CollOp::ExclusiveScan,
        CollOp::MaxTime,
    ];
    ALL.into_iter()
        .find(|op| op.name() == name)
        .ok_or_else(|| format!("unknown collective op `{name}`"))
}

fn pfs_op(name: &str) -> Result<PfsOp, String> {
    match name {
        "read" => Ok(PfsOp::Read),
        "write" => Ok(PfsOp::Write),
        other => Err(format!("unknown pfs op `{other}`")),
    }
}

fn independent_regime(name: &str) -> Result<IndependentRegime, String> {
    match name {
        "cached" => Ok(IndependentRegime::Cached),
        "disk" => Ok(IndependentRegime::Disk),
        other => Err(format!("unknown independent regime `{other}`")),
    }
}

fn collective_regime(name: &str) -> Result<CollectiveRegime, String> {
    match name {
        "streaming" => Ok(CollectiveRegime::Streaming),
        "cache_knee" => Ok(CollectiveRegime::CacheKnee),
        other => Err(format!("unknown collective regime `{other}`")),
    }
}

fn fault_kind(name: &str) -> Result<FaultKind, String> {
    match name {
        "transient" => Ok(FaultKind::Transient),
        "torn" => Ok(FaultKind::Torn),
        "crash" => Ok(FaultKind::Crash),
        other => Err(format!("unknown fault kind `{other}`")),
    }
}

fn serve_op(name: &str) -> Result<ServeOp, String> {
    const ALL: [ServeOp; 4] = [
        ServeOp::Open,
        ServeOp::Write,
        ServeOp::Read,
        ServeOp::Recover,
    ];
    ALL.into_iter()
        .find(|op| op.name() == name)
        .ok_or_else(|| format!("unknown serve op `{name}`"))
}

fn qos_level(name: &str) -> Result<QosLevel, String> {
    const ALL: [QosLevel; 3] = [QosLevel::Premium, QosLevel::Standard, QosLevel::BestEffort];
    ALL.into_iter()
        .find(|c| c.name() == name)
        .ok_or_else(|| format!("unknown qos class `{name}`"))
}

fn shed_reason(name: &str) -> Result<ShedReason, String> {
    match name {
        "queue_full" => Ok(ShedReason::QueueFull),
        "rate_limited" => Ok(ShedReason::RateLimited),
        other => Err(format!("unknown shed reason `{other}`")),
    }
}

fn cache_outcome(name: &str) -> Result<CacheOutcome, String> {
    const ALL: [CacheOutcome; 5] = [
        CacheOutcome::Hit,
        CacheOutcome::Miss,
        CacheOutcome::Insert,
        CacheOutcome::Evict,
        CacheOutcome::Invalidate,
    ];
    ALL.into_iter()
        .find(|o| o.name() == name)
        .ok_or_else(|| format!("unknown cache outcome `{name}`"))
}

fn stream_phase(name: &str) -> Result<StreamPhase, String> {
    const ALL: [StreamPhase; 7] = [
        StreamPhase::Pack,
        StreamPhase::Metadata,
        StreamPhase::SizeTable,
        StreamPhase::Data,
        StreamPhase::Route,
        StreamPhase::WriteBehind,
        StreamPhase::ReadAhead,
    ];
    ALL.into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown stream phase `{name}`"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_trace() -> Trace {
        let mut seq = 0;
        let mut ev = |rank: usize, vtime_ns: u64, kind: EventKind| {
            seq += 1;
            Event {
                rank,
                vtime_ns,
                seq,
                kind,
            }
        };
        let events = vec![
            ev(
                0,
                10,
                EventKind::MsgSend {
                    to: 1,
                    tag: 77,
                    bytes: 1024,
                    collective: false,
                },
            ),
            ev(
                0,
                12,
                EventKind::Collective {
                    op: CollOp::AllReduce,
                    root: None,
                    bytes: 8,
                },
            ),
            ev(
                0,
                13,
                EventKind::Collective {
                    op: CollOp::Broadcast,
                    root: Some(0),
                    bytes: 16,
                },
            ),
            ev(
                0,
                20,
                EventKind::PfsIndependent {
                    op: PfsOp::Write,
                    file: "out \"quoted\".ds".into(),
                    offset: 0,
                    bytes: 4096,
                    regime: IndependentRegime::Cached,
                    cost_ns: 900,
                },
            ),
            ev(
                0,
                30,
                EventKind::PfsCollective {
                    op: PfsOp::Read,
                    file: "in.ds".into(),
                    offset: 16,
                    bytes: 2048,
                    total_bytes: 4096,
                    share_bytes: 2048,
                    stripes: 3,
                    regime: CollectiveRegime::CacheKnee,
                    cost_ns: 1200,
                },
            ),
            ev(
                0,
                31,
                EventKind::AggShuttle {
                    outgoing: true,
                    peer: 1,
                    bytes: 512,
                    file: "in.ds".into(),
                    op: PfsOp::Write,
                    offset: Some(4096),
                },
            ),
            ev(
                0,
                32,
                EventKind::RedistShuttle {
                    outgoing: true,
                    peer: 1,
                    bytes: 768,
                    elements: 5,
                    file: "in.ds".into(),
                },
            ),
            ev(
                1,
                11,
                EventKind::MsgRecv {
                    from: 0,
                    tag: 77,
                    bytes: 1024,
                    collective: true,
                },
            ),
            ev(
                1,
                15,
                EventKind::FaultInjected {
                    kind: FaultKind::Torn,
                    op_index: 3,
                    file: "out.ds".into(),
                    bytes_kept: 100,
                },
            ),
            ev(
                1,
                16,
                EventKind::PfsRetry {
                    op_index: 3,
                    attempt: 2,
                    backoff_ns: 5000,
                },
            ),
            ev(
                1,
                16,
                EventKind::Retransmit {
                    to: 0,
                    tag: 77,
                    msg_seq: 9,
                    attempt: 1,
                    backoff_ns: 2500,
                },
            ),
            ev(
                1,
                16,
                EventKind::DupDropped {
                    from: 0,
                    tag: 77,
                    msg_seq: 4,
                },
            ),
            ev(
                1,
                16,
                EventKind::SuspectPeer {
                    peer: 0,
                    attempts: 8,
                },
            ),
            ev(
                1,
                17,
                EventKind::PhaseBegin {
                    phase: StreamPhase::WriteBehind,
                },
            ),
            ev(
                1,
                18,
                EventKind::PhaseEnd {
                    phase: StreamPhase::WriteBehind,
                },
            ),
            ev(
                1,
                19,
                EventKind::AsyncSubmit {
                    op_id: 7,
                    cost_ns: 100,
                    completion_ns: u64::MAX - 1,
                    queue_depth: 2,
                },
            ),
            ev(
                1,
                25,
                EventKind::AsyncComplete {
                    op_id: 7,
                    cost_ns: 100,
                    stall_ns: 40,
                    overlap_ns: 60,
                },
            ),
            ev(
                0,
                40,
                EventKind::SessionAdmit {
                    request_id: 901,
                    tenant: 12,
                    class: QosLevel::Premium,
                    op: ServeOp::Read,
                    queue_depth: 3,
                },
            ),
            ev(
                0,
                41,
                EventKind::SessionShed {
                    request_id: 902,
                    tenant: 13,
                    class: QosLevel::BestEffort,
                    op: ServeOp::Write,
                    reason: ShedReason::RateLimited,
                },
            ),
            ev(
                0,
                45,
                EventKind::SessionDone {
                    request_id: 901,
                    tenant: 12,
                    class: QosLevel::Premium,
                    op: ServeOp::Read,
                    latency_ns: 5000,
                    ok: true,
                },
            ),
            ev(
                1,
                46,
                EventKind::CacheAccess {
                    tenant: 12,
                    file: "t12.4".into(),
                    outcome: CacheOutcome::Hit,
                    bytes: 4096,
                },
            ),
            ev(
                0,
                50,
                EventKind::SegmentSeal {
                    stream: "log".into(),
                    segment: 3,
                    file: "log.seg000003".into(),
                    records: 4,
                    bytes: 8192,
                },
            ),
            ev(
                1,
                51,
                EventKind::TailAttach {
                    stream: "log".into(),
                    reader: 2,
                    first_segment: 1,
                    sealed: 4,
                },
            ),
            ev(
                1,
                52,
                EventKind::TailConsume {
                    stream: "log".into(),
                    reader: 2,
                    segment: 1,
                    file: "log.seg000001".into(),
                    bytes: 2048,
                },
            ),
            ev(
                1,
                53,
                EventKind::TailDetach {
                    stream: "log".into(),
                    reader: 2,
                    consumed_through: 2,
                },
            ),
            ev(
                0,
                54,
                EventKind::Compact {
                    stream: "log".into(),
                    segment: 0,
                    file: "log.seg000000".into(),
                    bytes: 2048,
                },
            ),
        ];
        Trace { nprocs: 2, events }
    }

    #[test]
    fn every_event_kind_round_trips() {
        let trace = sample_trace();
        let text = to_events_json(&trace);
        let back = parse_events_json(&text).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(
            to_events_json(&sample_trace()),
            to_events_json(&sample_trace())
        );
    }

    #[test]
    fn rejects_foreign_documents() {
        assert!(parse_events_json("{}").is_err());
        assert!(parse_events_json("[]").is_err());
        assert!(
            parse_events_json(r#"{"format":"dstrace","version":99,"nprocs":1,"events":[]}"#)
                .is_err()
        );
        assert!(parse_events_json(
            r#"{"format":"dstrace","version":1,"nprocs":1,"events":[{"rank":0,"vtime_ns":0,"seq":0,"kind":"nope"}]}"#
        )
        .is_err());
    }

    #[test]
    fn rejects_events_on_ranks_the_trace_does_not_have() {
        let doc = r#"{"format":"dstrace","version":1,"nprocs":2,"events":[
            {"rank":0,"vtime_ns":0,"seq":0,"kind":"collective","op":"barrier","root":null,"bytes":0},
            {"rank":5,"vtime_ns":0,"seq":0,"kind":"collective","op":"barrier","root":null,"bytes":0}]}"#;
        let err = parse_events_json(doc).unwrap_err();
        assert_eq!(
            err,
            TraceParseError::RankOutOfRange {
                index: 1,
                rank: 5,
                nprocs: 2
            }
        );
        assert_eq!(
            err.to_string(),
            "event 1: rank 5 is out of range for a trace of 2 rank(s)"
        );
    }

    #[test]
    fn field_errors_name_the_event_and_no_byte_offset() {
        let doc = r#"{"format":"dstrace","version":1,"nprocs":1,"events":[
            {"rank":0,"vtime_ns":0,"seq":0,"kind":"collective","op":"nope","root":null,"bytes":0}]}"#;
        let err = parse_events_json(doc).unwrap_err();
        assert_eq!(err.to_string(), "event 0: unknown collective op `nope`");
        let header = parse_events_json("{}").unwrap_err();
        assert!(matches!(header, TraceParseError::Header(_)), "{header:?}");
        assert!(!header.to_string().contains("at byte"), "{header}");
        // Malformed JSON still reports where the parser stopped.
        let json = parse_events_json("{\"format\":").unwrap_err();
        assert!(json.to_string().contains("at byte"), "{json}");
    }

    #[test]
    fn pfs_collective_without_stripes_parses_as_zero() {
        let doc = r#"{"format":"dstrace","version":1,"nprocs":1,"events":[
            {"rank":0,"vtime_ns":5,"seq":0,"kind":"pfs_collective",
             "op":"write","file":"f","offset":0,"bytes":8,
             "total_bytes":8,"share_bytes":8,"regime":"streaming",
             "cost_ns":1}]}"#;
        let trace = parse_events_json(doc).unwrap();
        match &trace.events[0].kind {
            EventKind::PfsCollective { stripes, .. } => assert_eq!(*stripes, 0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn u64_values_past_i64_survive() {
        let trace = sample_trace();
        let back = parse_events_json(&to_events_json(&trace)).unwrap();
        match &back
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::AsyncSubmit { .. }))
            .unwrap()
            .kind
        {
            EventKind::AsyncSubmit { completion_ns, .. } => {
                assert_eq!(*completion_ns, u64::MAX - 1);
            }
            _ => unreachable!(),
        }
    }
}
