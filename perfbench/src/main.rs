//! Host-time benchmark of the d/streams workspace.
//!
//! Usage:
//!   perfbench --workload NAME --seed N --seconds S --trace 0|1
//!
//! One invocation runs one workload (`scf_checkpoint`,
//! `cross_shape_restart`, `service_mix`, `trace_audit`) in this single
//! process, timing calls into each layer's public API from outside. It
//! checks every output, prints each metric with its unit, and ends its
//! standard output with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs traced and
//! reports the per-layer metrics, and writes every span to
//! `$CARGO_TARGET_DIR/perfbench/` (default `target/`). The exit code is 0
//! only when every output checked out. See README.md for the metrics.

mod audit;
mod common;
mod cross;
mod scf;
mod service;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use dstreams_trace::json::Value;

use common::{Opts, Report};
use stats::{median, tail};

/// The workloads. BENCHMARK.json lists the first three; `trace_audit`
/// runs only when asked for by name (see README.md).
const WORKLOADS: [&str; 4] = [
    "scf_checkpoint",
    "cross_shape_restart",
    "service_mix",
    "trace_audit",
];

/// Per-layer metrics and their units, printed on every traced run (zero
/// where the workload does not exercise the layer).
const LAYER_METRICS: [(&str, &str); 41] = [
    ("core.insert_ms", "ms"),
    ("core.write_ms", "ms"),
    ("core.open_ms", "ms"),
    ("core.read_ms", "ms"),
    ("core.extract_ms", "ms"),
    ("core.close_ms", "ms"),
    ("core.overhead_ratio", "ratio"),
    ("core.vt_pack_s", "virtual_s"),
    ("core.vt_metadata_s", "virtual_s"),
    ("core.vt_size_table_s", "virtual_s"),
    ("core.vt_data_s", "virtual_s"),
    ("pfs.write_ordered_ms", "ms"),
    ("pfs.read_ordered_ms", "ms"),
    ("pfs.collective_ops", "count"),
    ("pfs.collective_bytes", "bytes"),
    ("pfs.independent_ops", "count"),
    ("pfs.retries", "count"),
    ("machine.p2p_msgs", "count"),
    ("machine.p2p_bytes", "bytes"),
    ("machine.collectives", "count"),
    ("machine.collective_msgs", "count"),
    ("machine.retransmits", "count"),
    ("machine.barrier_wait_ms", "ms"),
    ("redist.plan_ms", "ms"),
    ("redist.shuttles", "count"),
    ("redist.shuttle_bytes", "bytes"),
    ("redist.bytes_over_bound", "ratio"),
    ("redist.vt_route_s", "virtual_s"),
    ("serve.run_ms_per_kreq", "ms"),
    ("serve.admitted", "count"),
    ("serve.shed", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_invalidations", "count"),
    ("serve.collectives_per_req", "count"),
    ("trace.parse_ms", "ms"),
    ("trace.events", "count"),
    ("trace.overhead_pct", "%"),
    ("verify.analyze_ms", "ms"),
    ("verify.hazards", "count"),
    ("verify.forced_hb_edges", "count"),
    ("collections.build_ms", "ms"),
];

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    workload: String,
    opts: Opts,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        opts: Opts {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        },
    })
}

/// Where outputs that outlive the process go: the build directory.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench")
}

/// Pin virtual time across runs: the first run of a workload and seed by
/// this build records its virtual numbers, every later one must match.
fn pin_across_runs(workload: &str, opts: &Opts, rep: &mut Report) {
    let (Some(vt), Some(p99)) = (rep.vtime.value(), rep.premium.value()) else {
        return;
    };
    // The key names the executable build, so a rebuilt program starts
    // fresh instead of being held to another build's numbers.
    let build = std::env::current_exe()
        .and_then(std::fs::metadata)
        .map(|m| {
            let mtime = m
                .modified()
                .ok()
                .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
                .map_or(0, |d| d.as_nanos());
            format!("{}-{mtime}", m.len())
        })
        .unwrap_or_default();
    let key = format!("{workload} {} {build}", opts.seed);
    let path = out_dir().join("vtime-pins.txt");
    let pins = std::fs::read_to_string(&path).unwrap_or_default();
    let want = format!("{vt} {p99}");
    match pins
        .lines()
        .find_map(|l| l.strip_prefix(&key).and_then(|r| r.strip_prefix(' ')))
    {
        Some(pinned) if pinned == want => {}
        Some(pinned) => rep.tally.violation(format!(
            "virtual time {want} differs from {pinned} of an earlier run with this seed"
        )),
        None => {
            let line = format!("{key} {want}\n");
            let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
                use std::io::Write as _;
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?
                    .write_all(line.as_bytes())
            });
            if let Err(e) = written {
                eprintln!("note: could not record virtual-time pin: {e}");
            }
        }
    }
}

/// The end-to-end metrics of an untraced run, in BENCHMARK.json order.
/// Rates are one round's work over the median round's host time: every
/// round of a run does the same work, and the median keeps a load burst
/// on the shared host from swinging the rate.
fn end_to_end(rep: &Report) -> Vec<(&'static str, f64, &'static str)> {
    let p50_ms = median(&rep.rounds_ms).unwrap_or(0.0);
    let rounds = rep.rounds_ms.len().max(1) as f64;
    let per_s = |per_round: f64| {
        if p50_ms > 0.0 {
            per_round * 1e3 / p50_ms
        } else {
            0.0
        }
    };
    vec![
        ("setup_s", median(&rep.setup_s).unwrap_or(0.0), "s"),
        ("round_ms_p50", p50_ms, "ms"),
        ("data_mib_s", per_s(rep.round_bytes as f64 / MIB), "MiB/s"),
        ("ops_per_s", per_s(rep.ops as f64 / rounds), "1/s"),
        ("events_per_s", per_s(rep.round_events as f64), "1/s"),
        (
            "vtime_s",
            rep.vtime.value().unwrap_or(0) as f64 / 1e9,
            "virtual_s",
        ),
        (
            "premium_vlat_p99_ms",
            rep.premium.value().unwrap_or(0) as f64 / 1e6,
            "virtual_ms",
        ),
        ("peak_rss_mib", common::peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run, in BENCHMARK.json order.
fn per_layer(rep: &mut Report) -> Vec<(&'static str, f64, &'static str)> {
    if let (Some(plain), Some(traced)) = (median(&rep.rounds_ms), median(&rep.traced_rounds_ms)) {
        rep.layers
            .insert("trace.overhead_pct", 100.0 * (traced / plain - 1.0));
    }
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name, rep.layers.get(name).copied().unwrap_or(0.0), unit))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, opts } = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let mut rep = match workload.as_str() {
        "scf_checkpoint" => scf::run(&opts),
        "cross_shape_restart" => cross::run(&opts),
        "service_mix" => service::run(&opts),
        "trace_audit" => audit::run(&opts),
        _ => unreachable!("checked by parse_args"),
    };
    pin_across_runs(&workload, &opts, &mut rep);

    let metrics = if opts.trace {
        per_layer(&mut rep)
    } else {
        end_to_end(&rep)
    };
    if !opts.trace {
        for (name, value, _) in &metrics {
            if !(value.is_finite() && *value > 0.0) {
                rep.tally
                    .violation(format!("{name} = {value}: end-to-end metrics are positive"));
            }
        }
    }

    println!(
        "{workload} seed {} trace {}: {} round(s) untraced, {} traced",
        opts.seed,
        u8::from(opts.trace),
        rep.rounds_ms.len(),
        rep.traced_rounds_ms.len()
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    // The tail is printed but left out of the result line: on a shared
    // host it reads load bursts more than the program (see README.md).
    if let Some(t) = tail(&rep.rounds_ms).filter(|_| !opts.trace) {
        println!(
            "  round_ms_tail {:>31.6} ms (p{:.2} of {} untraced rounds)",
            t.value, t.percentile, t.samples
        );
    }
    println!(
        "  failed_share {:.6} ({} of {} operations failed)",
        rep.tally.failed_share(),
        rep.tally.failed,
        rep.tally.attempted
    );
    for note in &rep.tally.notes {
        println!("  problem: {note}");
    }

    if opts.trace && !rep.spans.is_empty() {
        let path = out_dir().join(format!("spans-{workload}-seed{}.json", opts.seed));
        let json = spans::to_json(&workload, opts.seed, &rep.spans).to_json();
        match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("  spans written to {}", path.display()),
            Err(e) => eprintln!("note: could not write spans: {e}"),
        }
    }

    let correct = rep.tally.correct();
    let metrics_json = metrics
        .iter()
        .map(|&(name, value, unit)| {
            (
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Int(rep.tally.attempted as i64)),
        ("failed".into(), Value::Int(rep.tally.failed as i64)),
        ("metrics".into(), Value::Obj(metrics_json)),
    ]);
    println!("{}", line.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
