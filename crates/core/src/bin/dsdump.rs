//! dsdump: print the structure of a d/stream file (the ncdump analogue).
//!
//! ```text
//! dsdump FILE...
//! dsdump --layout FILE...
//! dsdump --recover FILE...
//! dsdump --dstrace TRACE.dstrace.json...
//! dsdump --tail MANIFEST.stream...
//! ```
//!
//! Works on files produced by the real-disk PFS backend (or any byte-exact
//! copy of a d/stream file). With `--layout` each record's stored
//! distribution/layout descriptor is printed in full (template extent,
//! distribution kind and parameter, writer machine size, alignment) and
//! dsdump exits nonzero when a header's layout is inconsistent with its
//! record table — the check a cross-shape reader relies on before
//! planning a redistribution. With `--recover` each file is scanned for
//! its last commit-sealed record and, when the tail record is torn (a
//! crash landed mid-write), truncated back to the sealed prefix — the
//! on-disk analogue of the torn-tail detection `IStream::open` performs.
//! With `--dstrace` the arguments are instead native `.dstrace.json`
//! traces (what `DSTREAMS_TRACE_OUT` and `tables trace` write; a Chrome
//! export is for viewers and is rejected) and dsdump prints a per-rank
//! summary of the recorded events, counted by `OpCounts`: message and
//! collective counts, PFS traffic, the last event's virtual time, and
//! reliability traffic when there was any. Traces captured from the
//! serving layer additionally get a per-tenant session summary: op
//! counts, shed counts, and the working-set cache hit rate.
//! With `--tail` the arguments are append-stream manifests (the
//! `<name>.stream` side file an `AppendStream` producer maintains) and
//! dsdump prints the stream's segment lifecycle at a glance: sealed vs
//! open vs compacted segment counts and, per tail reader, the
//! consumption cursor and its lag behind the sealed frontier. When the
//! sibling segment files are present their headers are cross-checked
//! against the manifest (a sealed segment must not carry the
//! active-append flag, the open segment must) and disagreement exits
//! nonzero.

use std::collections::BTreeMap;
use std::process::ExitCode;

use dstreams_trace::{Event, EventKind, OpCounts, QosLevel, Trace, TraceParseError};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let dstrace = args.iter().any(|a| a == "--dstrace");
    let recover = args.iter().any(|a| a == "--recover");
    let layout = args.iter().any(|a| a == "--layout");
    let tail = args.iter().any(|a| a == "--tail");
    args.retain(|a| a != "--dstrace" && a != "--recover" && a != "--layout" && a != "--tail");
    let modes =
        usize::from(dstrace) + usize::from(recover) + usize::from(layout) + usize::from(tail);
    if args.is_empty() || args.iter().any(|a| a == "-h" || a == "--help") || modes > 1 {
        eprintln!("usage: dsdump FILE...");
        eprintln!("       dsdump --layout FILE...");
        eprintln!("       dsdump --recover FILE...");
        eprintln!("       dsdump --dstrace TRACE.dstrace.json...");
        eprintln!("       dsdump --tail MANIFEST.stream...");
        return ExitCode::from(2);
    }
    // Exit codes: 0 ok, 1 error, 2 usage, 3 torn tail detected (pass
    // --recover to truncate back to the sealed prefix).
    let mut status = 0u8;
    for path in &args {
        if recover {
            match recover_file(path) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("dsdump: {path}: {e}");
                    status = status.max(1);
                }
            }
            continue;
        }
        if tail {
            match tail_file(path) {
                Ok((report, consistent)) => {
                    print!("{report}");
                    if !consistent {
                        status = status.max(1);
                    }
                }
                Err(e) => {
                    eprintln!("dsdump: {path}: {e}");
                    status = status.max(1);
                }
            }
            continue;
        }
        if dstrace {
            match std::fs::read_to_string(path) {
                Ok(text) => match render_dstrace(path, &text) {
                    Ok(summary) => print!("{summary}"),
                    Err(e) => {
                        eprintln!("dsdump: {path}: {e}");
                        status = status.max(1);
                    }
                },
                Err(e) => {
                    eprintln!("dsdump: cannot read {path}: {e}");
                    status = status.max(1);
                }
            }
            continue;
        }
        match std::fs::read(path) {
            Ok(bytes) => match dstreams_core::inspect_bytes(&bytes) {
                Ok(summary) if layout => print!("{}", summary.render_layouts(path)),
                Ok(summary) => print!("{}", summary.render(path)),
                Err(e) => {
                    // Distinguish a crash-torn tail (recoverable, exit 3)
                    // from plain corruption (exit 1).
                    let torn = dstreams_core::recovery_scan(&bytes)
                        .map(|r| r.torn)
                        .unwrap_or(false);
                    if torn {
                        eprintln!(
                            "dsdump: {path}: torn tail record ({e}) — run `dsdump --recover {path}` to truncate to the sealed prefix"
                        );
                        status = status.max(3);
                    } else {
                        eprintln!("dsdump: {path}: {e}");
                        status = status.max(1);
                    }
                }
            },
            Err(e) => {
                eprintln!("dsdump: cannot read {path}: {e}");
                status = status.max(1);
            }
        }
    }
    ExitCode::from(status)
}

/// Truncate `path` back to its last commit-sealed record if the tail is
/// torn; report what was (or wasn't) done.
fn recover_file(path: &str) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    let report = dstreams_core::recovery_scan(&bytes).map_err(|e| e.to_string())?;
    if !report.torn {
        return Ok(format!(
            "{path}: intact — {} sealed record(s), {} bytes, nothing to do\n",
            report.sealed_records, report.sealed_bytes
        ));
    }
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| format!("cannot open for truncation: {e}"))?;
    f.set_len(report.sealed_bytes)
        .map_err(|e| format!("cannot truncate: {e}"))?;
    Ok(format!(
        "{path}: torn tail record — truncated {} -> {} bytes, keeping {} sealed record(s)\n",
        bytes.len(),
        report.sealed_bytes,
        report.sealed_records
    ))
}

/// Summarize an append-stream manifest: segment lifecycle counts and
/// per-reader lag, cross-checked against any sibling segment files.
/// Returns the rendered report and whether the on-disk segment headers
/// agree with the manifest.
fn tail_file(path: &str) -> Result<(String, bool), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read: {e}"))?;
    let m = dstreams_core::StreamManifest::decode(&bytes).map_err(|e| e.to_string())?;
    // The stream name is the manifest name minus its `.stream` suffix;
    // sibling segment files live next to the manifest.
    let stream = path.strip_suffix(".stream").unwrap_or(path);
    let sealed_end = m.sealed_end();
    let mut out = String::new();
    let mut consistent = true;
    out.push_str(&format!(
        "{path}: {} sealed segment(s) ({} bytes, {} record(s)), {} open, {} compacted\n",
        m.sealed.len(),
        m.sealed_bytes(),
        m.sealed.iter().map(|s| s.records).sum::<u64>(),
        usize::from(m.open_segment.is_some()),
        m.compacted_before,
    ));
    if let Some(open) = m.open_segment {
        out.push_str(&format!(
            "  open segment {open} ({})\n",
            dstreams_core::segment_file_name(stream, open)
        ));
    }
    for s in &m.sealed {
        out.push_str(&format!(
            "  sealed segment {} ({}): {} record(s), {} bytes\n",
            s.index,
            dstreams_core::segment_file_name(stream, s.index),
            s.records,
            s.bytes
        ));
    }
    if m.readers.is_empty() {
        out.push_str("  no tail readers\n");
    }
    for r in &m.readers {
        let lag = sealed_end.saturating_sub(r.next_segment);
        out.push_str(&format!(
            "  reader {}: next segment {}, lag {} segment(s){}\n",
            r.id,
            r.next_segment,
            lag,
            if r.detached { " (detached)" } else { "" }
        ));
    }
    // Cross-check sibling segment headers when the files are present: a
    // sealed segment must not claim active-append, the open one must.
    let header_of = |index: u64| -> Option<dstreams_core::FileHeader> {
        let seg_path = dstreams_core::segment_file_name(stream, index);
        let head = std::fs::read(&seg_path).ok()?;
        dstreams_core::FileHeader::decode(&head).ok()
    };
    for s in &m.sealed {
        if let Some(h) = header_of(s.index) {
            if h.active_append() {
                out.push_str(&format!(
                    "  WARNING: segment {} is sealed in the manifest but its file \
                     still carries the active-append flag\n",
                    s.index
                ));
                consistent = false;
            }
        }
    }
    if let Some(open) = m.open_segment {
        if let Some(h) = header_of(open) {
            if !h.active_append() {
                out.push_str(&format!(
                    "  WARNING: segment {open} is open in the manifest but its file \
                     does not carry the active-append flag\n"
                ));
                consistent = false;
            }
        }
    }
    Ok((out, consistent))
}

/// Count `name` in a first-seen-order tally.
fn bump(tally: &mut Vec<(&'static str, u64)>, name: &'static str) {
    match tally.iter_mut().find(|(n, _)| *n == name) {
        Some((_, c)) => *c += 1,
        None => tally.push((name, 1)),
    }
}

/// Summarize a native `.dstrace.json` trace: per-rank [`OpCounts`], the
/// reliability traffic, the serving layer's per-tenant sessions, and the
/// events by display name.
fn render_dstrace(path: &str, text: &str) -> Result<String, String> {
    let trace = Trace::from_events_json(text).map_err(|e| match e {
        TraceParseError::Header(_) => format!(
            "{e}; --dstrace reads the native .dstrace.json format \
             (DSTREAMS_TRACE_OUT, `tables trace`), not a Chrome export"
        ),
        e => e.to_string(),
    })?;
    // Phase ends duplicate their begins in the per-name tally.
    let mut by_name = Vec::new();
    for e in &trace.events {
        if !matches!(e.kind, EventKind::PhaseEnd { .. }) {
            bump(&mut by_name, e.kind.display_name());
        }
    }
    let mut events = trace.events;
    events.sort_by_key(|e| e.rank);
    let nranks = events.last().map_or(0, |e| e.rank + 1);
    let mut ranks = Vec::with_capacity(nranks);
    let mut rest = &events[..];
    for rank in 0..nranks {
        let (mine, tail) = rest.split_at(rest.partition_point(|e| e.rank == rank));
        rest = tail;
        let end_ns = mine.iter().map(|e| e.vtime_ns).max().unwrap_or(0);
        ranks.push((mine, OpCounts::from_events(mine), end_ns));
    }

    let mut out = String::new();
    out.push_str(&format!("dstrace {path}:\n"));
    out.push_str(&format!(
        "  {} events across {} ranks\n",
        events.len(),
        trace.nprocs
    ));
    out.push_str(&format!(
        "  {:<6}{:>8}{:>10}{:>12}{:>12}{:>10}{:>10}{:>12}{:>12}\n",
        "rank",
        "events",
        "p2p_send",
        "p2p_bytes",
        "coll_msgs",
        "colls",
        "pfs_ops",
        "pfs_bytes",
        "end_ms"
    ));
    for (rank, (mine, c, end_ns)) in ranks.iter().enumerate() {
        out.push_str(&format!(
            "  {:<6}{:>8}{:>10}{:>12}{:>12}{:>10}{:>10}{:>12}{:>12.3}\n",
            rank,
            mine.len(),
            c.p2p_messages,
            c.p2p_bytes,
            c.collective_messages,
            c.total_collectives(),
            c.pfs_independent_ops + c.pfs_collective_ops,
            c.bytes_written + c.bytes_read,
            *end_ns as f64 / 1e3 / 1e3
        ));
    }
    // Reliability traffic (retransmits, dedup-dropped duplicates,
    // suspected peers) only appears when a message-fault plan was live —
    // keep fault-free summaries unchanged.
    let reliability = |c: &OpCounts| c.retransmits + c.dup_dropped + c.suspected_peers;
    if ranks.iter().any(|(_, c, _)| reliability(c) > 0) {
        let total = |f: fn(&OpCounts) -> u64| ranks.iter().map(|(_, c, _)| f(c)).sum::<u64>();
        out.push_str(&format!(
            "  reliability: {} retransmit(s), {} duplicate(s) dropped, {} peer suspicion(s)\n",
            total(|c| c.retransmits),
            total(|c| c.dup_dropped),
            total(|c| c.suspected_peers)
        ));
        for (rank, (_, c, _)) in ranks.iter().enumerate() {
            if reliability(c) > 0 {
                out.push_str(&format!(
                    "    rank {rank}: {} retransmit(s), {} dup(s) dropped, {} suspicion(s)\n",
                    c.retransmits, c.dup_dropped, c.suspected_peers
                ));
            }
        }
    }
    // Serving-layer session summary: only traces captured from the
    // multi-tenant service carry session and cache events. They are
    // decision-ledger entries the service replays identically on every
    // rank, so the summary reads rank 0's lane alone.
    let mut tenants: BTreeMap<u32, (Option<QosLevel>, Vec<Event>)> = BTreeMap::new();
    for e in ranks.first().map_or(&[][..], |r| r.0) {
        let (tenant, class) = match &e.kind {
            EventKind::SessionAdmit { tenant, class, .. }
            | EventKind::SessionShed { tenant, class, .. }
            | EventKind::SessionDone { tenant, class, .. } => (*tenant, Some(*class)),
            EventKind::CacheAccess { tenant, .. } => (*tenant, None),
            _ => continue,
        };
        let t = tenants.entry(tenant).or_default();
        t.0 = class.or(t.0);
        t.1.push(e.clone());
    }
    if !tenants.is_empty() {
        out.push_str("  sessions by tenant (rank 0 lane; identical on every rank):\n");
        for (tenant, (class, lane)) in &tenants {
            let c = OpCounts::from_events(lane);
            let mut ops = Vec::new();
            for e in lane {
                if let EventKind::SessionDone { op, .. } = e.kind {
                    bump(&mut ops, op.name());
                }
            }
            let ops = if ops.is_empty() {
                "-".to_string()
            } else {
                let ops: Vec<_> = ops.iter().map(|(n, c)| format!("{n}={c}")).collect();
                ops.join(" ")
            };
            let lookups = c.cache_hits + c.cache_misses;
            let cache = if lookups == 0 {
                "no cache lookups".to_string()
            } else {
                format!(
                    "cache {}/{lookups} hits ({:.1}%)",
                    c.cache_hits,
                    c.cache_hit_rate() * 100.0
                )
            };
            out.push_str(&format!(
                "    tenant {tenant} ({}): {} admitted, {} ok, {} failed, {} shed; ops {ops}; {cache}\n",
                class.map_or("?", QosLevel::name),
                c.sessions_admitted,
                c.sessions_completed,
                c.sessions_failed,
                c.total_sessions_shed(),
            ));
        }
    }
    out.push_str("  events by name:\n");
    for (name, count) in &by_name {
        out.push_str(&format!("    {name:<24}{count:>8}\n"));
    }
    Ok(out)
}
