//! What every workload shares: the run options, the round clock, and the
//! report a workload hands back to `main`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use dstreams_machine::{MachineError, NodeCtx};
use dstreams_trace::{EventKind, StreamPhase, Trace};

use crate::spans::Span;
use crate::stats::{Pin, Tally};

/// Any error a library call can return.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Rounds a run measures at least, whatever `--seconds` says: the tail
/// percentile needs more than ten samples.
pub const MIN_ROUNDS: usize = 11;

/// How one invocation runs.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed the workload's inputs are generated from.
    pub seed: u64,
    /// Host seconds of measured rounds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Decides when a run stops starting rounds.
pub struct Clock {
    deadline: Instant,
    min_rounds: usize,
    max_rounds: usize,
    go: AtomicBool,
}

impl Clock {
    /// Start rounds for `seconds` from now, but at least [`MIN_ROUNDS`].
    pub fn for_seconds(seconds: f64) -> Clock {
        Clock {
            deadline: Instant::now() + Duration::from_secs_f64(seconds.max(0.0)),
            min_rounds: MIN_ROUNDS,
            max_rounds: usize::MAX,
            go: AtomicBool::new(false),
        }
    }

    /// Exactly `n` rounds.
    pub fn rounds(n: usize) -> Clock {
        Clock {
            deadline: Instant::now(),
            min_rounds: n,
            max_rounds: n,
            go: AtomicBool::new(false),
        }
    }

    /// Whether round number `done` (0-based) should start.
    pub fn more(&self, done: usize) -> bool {
        done < self.max_rounds && (done < self.min_rounds || Instant::now() < self.deadline)
    }

    /// [`Clock::more`] decided by rank 0 and learned by every rank. The
    /// barrier publishes rank 0's store: no rank loads before it, and rank
    /// 0 stores again only after every rank passed the next round's
    /// closing barrier.
    pub fn next(&self, ctx: &NodeCtx, done: usize) -> Result<bool, MachineError> {
        if ctx.is_root() {
            self.go.store(self.more(done), Ordering::SeqCst);
        }
        ctx.barrier()?;
        Ok(self.go.load(Ordering::SeqCst))
    }
}

/// Everything a workload measured, for `main` to turn into metrics.
#[derive(Default)]
pub struct Report {
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Host ms of each untraced round.
    pub rounds_ms: Vec<f64>,
    /// Host ms of each traced round (traced runs only).
    pub traced_rounds_ms: Vec<f64>,
    /// Operations completed successfully in the untraced rounds.
    pub ops: u64,
    /// User-data bytes one round moves.
    pub round_bytes: u64,
    /// Trace events one round produces or consumes.
    pub round_events: u64,
    /// Virtual ns per round, slowest rank.
    pub vtime: Pin,
    /// Virtual p99 completion latency of the premium class, ns.
    pub premium: Pin,
    /// Operations, failures and violations.
    pub tally: Tally,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Every rank's spans (traced runs only).
    pub spans: Vec<Vec<Span>>,
}

impl Report {
    /// Record a failed step that is not one of the counted operations:
    /// the run is incorrect.
    pub fn error(&mut self, what: &str, e: impl std::fmt::Display) {
        self.tally.violation(format!("{what}: {e}"));
    }
}

/// A pseudo-random word for (`seed`, `i`) (SplitMix64 finalizer).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Host ms of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Per-phase virtual time of the slowest rank, summed over the trace:
/// `[pack, metadata, size_table, data, route]` in seconds.
pub fn phase_seconds(trace: &Trace) -> [f64; 5] {
    const PHASES: [StreamPhase; 5] = [
        StreamPhase::Pack,
        StreamPhase::Metadata,
        StreamPhase::SizeTable,
        StreamPhase::Data,
        StreamPhase::Route,
    ];
    let slot = |p: StreamPhase| PHASES.iter().position(|q| *q == p);
    let mut begin = vec![[0u64; 5]; trace.nprocs];
    let mut spent = vec![[0u64; 5]; trace.nprocs];
    for e in &trace.events {
        match &e.kind {
            EventKind::PhaseBegin { phase } => {
                if let Some(k) = slot(*phase) {
                    begin[e.rank][k] = e.vtime_ns;
                }
            }
            EventKind::PhaseEnd { phase } => {
                if let Some(k) = slot(*phase) {
                    spent[e.rank][k] += e.vtime_ns - begin[e.rank][k];
                }
            }
            _ => {}
        }
    }
    let mut out = [0.0; 5];
    for (k, o) in out.iter_mut().enumerate() {
        *o = spent.iter().map(|r| r[k]).max().unwrap_or(0) as f64 / 1e9;
    }
    out
}

/// Trace counters shared by every machine workload, per round.
pub fn count_layers(layers: &mut BTreeMap<&'static str, f64>, trace: &Trace, rounds: usize) {
    let c = trace.op_counts();
    let per = |v: u64| v as f64 / rounds.max(1) as f64;
    layers.insert("machine.p2p_msgs", per(c.p2p_messages));
    layers.insert("machine.p2p_bytes", per(c.p2p_bytes));
    layers.insert("machine.collectives", per(c.total_collectives()));
    layers.insert("machine.collective_msgs", per(c.collective_messages));
    layers.insert("machine.retransmits", per(c.retransmits));
    layers.insert("pfs.collective_ops", per(c.pfs_collective_ops));
    layers.insert("pfs.collective_bytes", per(c.pfs_collective_bytes));
    layers.insert("pfs.independent_ops", per(c.pfs_independent_ops));
    layers.insert("pfs.retries", per(c.pfs_retries));
    layers.insert("redist.shuttles", per(c.redist_shuttles));
    layers.insert("redist.shuttle_bytes", per(c.redist_shuttle_bytes));
    layers.insert("trace.events", per(trace.len() as u64));
    let [pack, meta, sizes, data, route] = phase_seconds(trace);
    let per_s = |v: f64| v / rounds.max(1) as f64;
    layers.insert("core.vt_pack_s", per_s(pack));
    layers.insert("core.vt_metadata_s", per_s(meta));
    layers.insert("core.vt_size_table_s", per_s(sizes));
    layers.insert("core.vt_data_s", per_s(data));
    layers.insert("redist.vt_route_s", per_s(route));
}

/// Mean host ms per round and rank of every span name in `names`, stored
/// under the paired metric name.
pub fn span_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    spans: &[Vec<Span>],
    rounds: usize,
    names: &[(&'static str, &'static str)],
) {
    let totals = crate::spans::totals(spans);
    let denom = (rounds.max(1) * spans.len().max(1)) as f64;
    for (span, metric) in names {
        let total = totals.get(span).map_or(0, |t| t.total_ns);
        layers.insert(metric, total as f64 / 1e6 / denom);
    }
}

/// The process's peak resident set, MiB (Linux `VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
