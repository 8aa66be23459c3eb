//! Regenerate the paper's Tables 1–4 (= Figure 5) on the simulated
//! platforms and compare against the published numbers.
//!
//! Usage:
//!   tables [table1|table2|table3|table4|all] [--json [PATH]] [--markdown]
//!   tables trace [--out PREFIX] [--segments N]
//!   tables ablations | realdisk | sweep | phases | table5
//!
//! `--json` output includes per-cell trace op counts (messages, collectives,
//! PFS operations) next to the simulated seconds; without a path it lands
//! in `assets/tables_results.json`. The `trace` subcommand
//! re-runs one Table 1 cell (pC++/streams on a 4-node Paragon) with event
//! tracing on and writes `PREFIX.dstrace.json`, the native trace that
//! `dsdump --dstrace` and `dsverify` read, and `PREFIX.chrome.json`, its
//! Chrome `trace_event` export for Perfetto (https://ui.perfetto.dev) or
//! `chrome://tracing`.
//!
//! `ablations` prints the five design ablations to the nanosecond
//! (pinned in `assets/ablations_output.txt`). `realdisk` runs the three
//! I/O methods against real files in a temporary directory and prints
//! host seconds, which are not deterministic.
//!
//! Seconds are *simulated platform seconds* from the calibrated cost
//! models — deterministic and host-independent. The claim being reproduced
//! is the paper's shape: buffered I/O beats unbuffered (catastrophically
//! past the Paragon cache knee), pC++/streams tracks manual buffering, and
//! the library overhead shrinks as I/O size grows.

use std::io::Write as _;
use std::time::Instant;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_machine::{Machine, MachineConfig};
use dstreams_pfs::{Backend, DiskModel, Pfs};
use dstreams_scf::tables::{run_table, run_table_traced, TableResult};
use dstreams_scf::{
    run_cell_traced, run_sizes, table_by_name, CellSpec, IoMethod, Platform, ScfConfig, Segment,
};
use dstreams_trace::json::Value;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut which: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut markdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => match args.get(i + 1) {
                // A path operand is only consumed if it looks like one,
                // so `tables all --json` works and lands in the pinned
                // asset.
                Some(p) if p.ends_with(".json") => {
                    json_path = Some(p.clone());
                    i += 1;
                }
                _ => json_path = Some("assets/tables_results.json".to_string()),
            },
            "--markdown" => markdown = true,
            other => which.push(other.to_string()),
        }
        i += 1;
    }
    if which.iter().any(|w| w == "trace") {
        run_trace(&args);
        return;
    }
    if which.iter().any(|w| w == "sweep") {
        run_sweep();
        return;
    }
    if which.iter().any(|w| w == "table5" || w == "cm5") {
        run_cm5_projection();
        return;
    }
    if which.iter().any(|w| w == "phases") {
        run_phases();
        return;
    }
    if which.iter().any(|w| w == "ablations") {
        print!("{}", dstreams_bench::ablations::report());
        return;
    }
    if which.iter().any(|w| w == "realdisk") {
        run_realdisk();
        return;
    }
    if which.is_empty() || which.iter().any(|w| w == "all") {
        which = vec![
            "table1".into(),
            "table2".into(),
            "table3".into(),
            "table4".into(),
        ];
    }

    let mut results: Vec<TableResult> = Vec::new();
    for name in &which {
        let spec = match table_by_name(name) {
            Some(s) => s,
            None => {
                eprintln!("unknown table {name:?}; expected table1..table4 or all");
                std::process::exit(2);
            }
        };
        eprintln!(
            "running {name} ({} on {} procs)...",
            spec.title, spec.nprocs
        );
        // With --json, trace the runs so per-cell op counts land in the
        // output; virtual-time seconds are identical either way.
        let run = if json_path.is_some() {
            run_table_traced(spec)
        } else {
            run_table(spec)
        };
        match run {
            Ok(r) => results.push(r),
            Err(e) => {
                eprintln!("{name} failed: {e}");
                std::process::exit(1);
            }
        }
    }

    let mut violations = Vec::new();
    for r in &results {
        if markdown {
            println!("{}", render_markdown(r));
        } else {
            println!("{}", r.render());
        }
        violations.extend(r.shape_violations());
    }

    println!("Shape claims (paper §4.3):");
    if violations.is_empty() {
        println!(
            "  all hold: buffered >> unbuffered, streams tracks manual, overhead shrinks with size"
        );
    } else {
        for v in &violations {
            println!("  VIOLATED: {v}");
        }
    }

    if let Some(path) = json_path {
        let json = Value::Arr(results.iter().map(TableResult::to_json).collect()).to_json_pretty();
        let mut f = std::fs::File::create(&path).expect("create json output");
        f.write_all(json.as_bytes()).expect("write json output");
        f.write_all(b"\n").expect("write json output");
        eprintln!("wrote {path}");
    }

    if !violations.is_empty() {
        std::process::exit(1);
    }
}

/// `tables trace`: capture an event trace of one Table 1 cell — the
/// pC++/streams method on a 4-node Paragon — and write it as
/// `PREFIX.dstrace.json` for the trace tools and `PREFIX.chrome.json` for
/// Perfetto. Prints the aggregated op counts.
fn run_trace(args: &[String]) {
    let mut prefix = "table1_trace".to_string();
    let mut n_segments = 1000usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                if let Some(p) = args.get(i + 1) {
                    prefix = p.clone();
                    i += 1;
                }
            }
            "--segments" => {
                if let Some(n) = args.get(i + 1) {
                    n_segments = n.parse().expect("--segments takes a number");
                    i += 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    let spec = CellSpec {
        platform: Platform::Paragon,
        nprocs: 4,
        n_segments,
        method: IoMethod::DStreams,
    };
    eprintln!("tracing Table 1 cell: pC++/streams, Paragon, 4 procs, {n_segments} segments...");
    let (secs, trace) = run_cell_traced(spec).expect("traced cell");
    let counts = trace.op_counts();
    let native = format!("{prefix}.dstrace.json");
    let chrome = format!("{prefix}.chrome.json");
    std::fs::write(&native, trace.to_events_json()).expect("write trace output");
    std::fs::write(&chrome, trace.to_chrome_json()).expect("write trace output");
    println!("simulated seconds (out + in): {secs:.3}");
    println!("events: {}", trace.len());
    println!("op counts:\n{}", counts.to_json().to_json_pretty());
    eprintln!("wrote {native} (dsdump --dstrace, dsverify)");
    eprintln!("wrote {chrome} — open it at https://ui.perfetto.dev");
}

/// Fine-grained size sweep on the Paragon (4 nodes): the "Figure 5 curve"
/// that locates the unbuffered collapse and the buffered 11.2 MB knee
/// between the paper's sampled sizes. Emits CSV on stdout.
fn run_sweep() {
    let sizes: Vec<usize> = [
        64, 128, 256, 384, 512, 640, 768, 896, 1000, 1152, 1300, 1500, 1700, 1900, 2000, 2200,
    ]
    .to_vec();
    eprintln!("sweeping {} sizes on the Paragon (4 nodes)...", sizes.len());
    println!("segments,mb,unbuffered_s,manual_s,streams_s,pct_of_manual");
    for &n in &sizes {
        let r = run_sizes(Platform::Paragon, 4, &[n]).expect("sweep cell");
        let row = &r[0];
        println!(
            "{},{:.3},{:.3},{:.3},{:.3},{:.1}",
            row.n_segments,
            row.mb,
            row.seconds[0],
            row.seconds[1],
            row.seconds[2],
            row.pct_of_manual()
        );
    }
}

/// Extension "Table 5": the paper notes "the library also runs on the
/// CM-5" but reports no numbers; this projects the benchmark onto the
/// CM-5 cost model (sfs-class file system, slow data network). Clearly a
/// projection — there is nothing in the paper to validate it against.
fn run_cm5_projection() {
    println!("Table 5 (projection): Benchmark on TMC CM-5 — no published numbers exist");
    println!("(simulated seconds from the cm5 cost model)\n");
    for nprocs in [4usize, 8] {
        println!("CM-5, {nprocs} processors:");
        println!(
            "{:<18}{:>12}{:>12}{:>12}{:>12}",
            "I/O Size", "1.4 MB", "2.8 MB", "5.6 MB", "11.2 MB"
        );
        let sizes = [256usize, 512, 1000, 2000];
        let rows = run_sizes(Platform::Cm5, nprocs, &sizes).expect("cm5 projection");
        for (k, method) in IoMethod::ALL.into_iter().enumerate() {
            print!("{:<18}", method.label());
            for r in &rows {
                print!("{:>12.2}", r.seconds[k]);
            }
            println!();
        }
        print!("{:<18}", "% of Manual Buf.");
        for r in &rows {
            print!("{:>11.1}%", r.pct_of_manual());
        }
        println!("\n");
    }
}

/// Extension: per-phase decomposition of the pC++/streams path on the
/// Paragon (4 nodes) — where the out+in seconds actually go.
fn run_phases() {
    use dstreams_scf::profile_dstreams_phases;
    println!("pC++/streams phase decomposition, Paragon (4 nodes), simulated seconds:\n");
    println!(
        "{:<12}{:>8}{:>10}{:>10}{:>14}{:>10}{:>8}{:>10}",
        "segments", "open", "insert", "write()", "unsortedRead", "extract", "close", "total"
    );
    for n in [256usize, 512, 1000, 2000] {
        let p = profile_dstreams_phases(Platform::Paragon, 4, n).expect("phase profile");
        println!(
            "{:<12}{:>8.3}{:>10.3}{:>10.3}{:>14.3}{:>10.3}{:>8.3}{:>10.3}",
            n,
            p.open_s,
            p.insert_s,
            p.write_s,
            p.read_s,
            p.extract_s,
            p.close_s,
            p.total_s()
        );
    }
}

/// Host wall clock of the three I/O methods (out + in, 256 segments,
/// 4 ranks) against real files under the system temp directory, with the
/// instant cost model: what the library paths cost on this host's disk.
/// Each method's directory is removed before the next one runs.
fn run_realdisk() {
    let nprocs = 4;
    let n_segments = 256;
    println!(
        "Real-disk host seconds, {nprocs} ranks, {n_segments} segments, out + in (not deterministic):"
    );
    for method in IoMethod::ALL {
        let dir = std::env::temp_dir().join(format!(
            "dstreams-realdisk-{}-{method:?}",
            std::process::id()
        ));
        let pfs = Pfs::new(nprocs, DiskModel::instant(), Backend::Disk(dir.clone()));
        let start = Instant::now();
        Machine::run(MachineConfig::functional(nprocs), |ctx| {
            let cfg = ScfConfig::paper(n_segments);
            let layout = Layout::dense(n_segments, nprocs, DistKind::Block).unwrap();
            let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
            let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
            method
                .out_and_in(ctx, &pfs, &grid, &mut back, "w", cfg.particles_per_segment)
                .unwrap();
        })
        .expect("real-disk run");
        let secs = start.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&dir).expect("remove real-disk files");
        println!("{:<18}{secs:>10.3}", method.label());
    }
}

fn render_markdown(r: &TableResult) -> String {
    let mut out = String::new();
    out.push_str(&format!("### Table {}: {}\n\n", r.spec.id, r.spec.title));
    out.push_str("| row |");
    for c in &r.spec.columns {
        out.push_str(&format!(" {} ({} segs) |", c.label, c.n_segments));
    }
    out.push_str("\n|---|");
    for _ in &r.spec.columns {
        out.push_str("---|");
    }
    out.push('\n');
    for (k, method) in IoMethod::ALL.into_iter().enumerate() {
        out.push_str(&format!("| {} |", method.label()));
        for (c, m) in r.spec.columns.iter().zip(&r.measured) {
            let paper = [c.unbuffered, c.manual, c.streams][k];
            out.push_str(&format!(" {:.2} s (paper {:.2}) |", m.seconds[k], paper));
        }
        out.push('\n');
    }
    out.push_str("| % of Manual Buf. |");
    for (c, m) in r.spec.columns.iter().zip(&r.measured) {
        out.push_str(&format!(
            " {:.1}% (paper {:.1}%) |",
            m.pct_of_manual(),
            c.pct_of_manual()
        ));
    }
    out.push('\n');
    out
}
