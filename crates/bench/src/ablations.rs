//! The paper's design choices, measured: five ablations the paper argues
//! in prose but never times. Each cell is one deterministic run on the
//! simulated platform and returns the slowest rank's virtual time, so a
//! cell's value is exact to the nanosecond and host-independent.
//!
//! * [`metadata`] — gathered vs parallel size-table metadata (§4.1);
//! * [`read`] — `read` vs `unsortedRead` under same/changed distribution (§3);
//! * [`interleave`] — one interleaved `write` vs one `write` per field (§3);
//! * [`smp`] — the shared-memory single buffer vs per-node buffers (§4);
//! * [`baseline`] — Chameleon- and Panda-style fixed-size I/O vs d/streams (§5).
//!
//! [`report`] runs every cell once; `tables ablations` prints it and CI
//! pins the output in `assets/ablations_output.txt`.

use std::fmt::Write as _;

use dstreams_collections::{Collection, DistKind, Layout};
use dstreams_core::{MetaMode, MetaPolicy, OStream, StreamOptions};
use dstreams_fixedio::{chameleon, panda};
use dstreams_machine::{Machine, NodeCtx, VTime};
use dstreams_pfs::{Backend, Pfs};
use dstreams_scf::methods::{input_dstreams_sorted, input_dstreams_unsorted, output_dstreams};
use dstreams_scf::{Platform, ScfConfig, Segment};

/// Aligned fields written by the interleave ablation.
const FIELDS: usize = 4;

/// The library the baseline comparison writes and reads with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Library {
    /// Chameleon-style block arrays (`fixedio::chameleon`).
    Chameleon,
    /// Panda-style schema arrays (`fixedio::panda`).
    Panda,
    /// pC++/streams.
    DStreams,
}

impl Library {
    /// All three, in report order.
    pub const ALL: [Library; 3] = [Library::Chameleon, Library::Panda, Library::DStreams];
}

/// Run `f` on `nprocs` ranks of `platform` over a fresh in-memory PFS and
/// return the slowest rank's virtual time.
fn slowest<F>(platform: Platform, nprocs: usize, f: F) -> VTime
where
    F: Fn(&NodeCtx, &Pfs) -> VTime + Sync,
{
    let pfs = Pfs::new(nprocs, platform.disk(), Backend::Memory);
    let times = Machine::run(platform.machine(nprocs), |ctx| f(ctx, &pfs)).expect("ablation cell");
    times.into_iter().fold(VTime::ZERO, VTime::max)
}

/// One write of `n_elements` small fixed-size elements on a 4-node
/// Paragon with the size table gathered to node 0 or written in parallel.
pub fn metadata(n_elements: usize, mode: MetaMode) -> VTime {
    let nprocs = 4;
    slowest(Platform::Paragon, nprocs, |ctx, pfs| {
        let layout = Layout::dense(n_elements, nprocs, DistKind::Block).unwrap();
        // Small fixed-size elements: metadata cost dominates.
        let c = Collection::new(ctx, layout.clone(), |g| g as u64).unwrap();
        let t0 = ctx.now();
        let opts = StreamOptions {
            checked: false,
            meta_policy: MetaPolicy::Force(mode),
            ..Default::default()
        };
        let mut s = OStream::create_with(ctx, pfs, &layout, "m", opts).unwrap();
        s.insert_collection(&c).unwrap();
        s.write().unwrap();
        s.close().unwrap();
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

/// Read back an `n_segments` SCF file written BLOCK on 4 nodes of
/// `platform` (Paragon or CM-5) into a `reader`-distributed collection,
/// with a sorted `read` or an `unsortedRead`; times the input only.
pub fn read(platform: Platform, n_segments: usize, reader: DistKind, sorted: bool) -> VTime {
    let nprocs = 4;
    slowest(platform, nprocs, |ctx, pfs| {
        let cfg = ScfConfig::paper(n_segments);
        let wlayout = Layout::dense(n_segments, nprocs, DistKind::Block).unwrap();
        let rlayout = Layout::dense(n_segments, nprocs, reader).unwrap();
        let grid = Collection::new(ctx, wlayout, |g| cfg.make_segment(g)).unwrap();
        output_dstreams(ctx, pfs, &grid, "f", MetaMode::Parallel).unwrap();
        let mut back = Collection::new(ctx, rlayout, |_| Segment::default()).unwrap();
        ctx.barrier().unwrap();
        let t0 = ctx.now();
        if sorted {
            input_dstreams_sorted(ctx, pfs, &mut back, "f").unwrap();
        } else {
            input_dstreams_unsorted(ctx, pfs, &mut back, "f").unwrap();
        }
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

/// Write four aligned `f64` fields of `n_elements` on a 4-node Paragon,
/// interleaved into one `write` or with one `write` per field.
pub fn interleave(n_elements: usize, interleaved: bool) -> VTime {
    let nprocs = 4;
    slowest(Platform::Paragon, nprocs, |ctx, pfs| {
        let layout = Layout::dense(n_elements, nprocs, DistKind::Block).unwrap();
        let fields: Vec<Collection<f64>> = (0..FIELDS)
            .map(|k| Collection::new(ctx, layout.clone(), |g| (g * k) as f64).unwrap())
            .collect();
        let t0 = ctx.now();
        let opts = StreamOptions {
            checked: false,
            meta_policy: MetaPolicy::Force(MetaMode::Gathered),
            ..Default::default()
        };
        let mut s = OStream::create_with(ctx, pfs, &layout, "il", opts).unwrap();
        for f in &fields {
            s.insert_with(f, |v, ins| ins.prim(*v)).unwrap();
            if !interleaved {
                s.write().unwrap();
            }
        }
        if interleaved {
            s.write().unwrap();
        }
        s.close().unwrap();
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

/// One write of an `n_segments` SCF record on the 8-processor SGI
/// Challenge, through per-node buffers or one shared buffer.
pub fn smp(n_segments: usize, single_buffer: bool) -> VTime {
    let nprocs = 8;
    slowest(Platform::SgiChallenge, nprocs, |ctx, pfs| {
        let cfg = ScfConfig::paper(n_segments);
        let layout = Layout::dense(n_segments, nprocs, DistKind::Block).unwrap();
        let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
        ctx.barrier().unwrap();
        let t0 = ctx.now();
        let opts = StreamOptions {
            smp_single_buffer: single_buffer,
            ..Default::default()
        };
        let mut s = OStream::create_with(ctx, pfs, &layout, "smp", opts).unwrap();
        s.insert_collection(&grid).unwrap();
        s.write().unwrap();
        s.close().unwrap();
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

fn seg_encode(s: &Segment) -> Vec<u8> {
    dstreams_core::to_bytes(s, false)
}

fn seg_decode(s: &mut Segment, b: &[u8]) {
    dstreams_core::from_bytes(s, b, false).expect("fixed-size segment image");
}

/// Write and read back a BLOCK array of `n_segments` fixed 5.6 KB
/// segments on a 4-node Paragon with `library`.
pub fn baseline(n_segments: usize, library: Library) -> VTime {
    let nprocs = 4;
    slowest(Platform::Paragon, nprocs, |ctx, pfs| {
        let cfg = ScfConfig::paper(n_segments);
        let elem = Segment::serialized_len_for(cfg.particles_per_segment);
        let layout = Layout::dense(n_segments, nprocs, DistKind::Block).unwrap();
        let grid = Collection::new(ctx, layout.clone(), |g| cfg.make_segment(g)).unwrap();
        let mut back = Collection::new(ctx, layout, |_| Segment::default()).unwrap();
        ctx.barrier().unwrap();
        let t0 = ctx.now();
        match library {
            Library::Chameleon => {
                chameleon::write_block_array(ctx, pfs, "b", &grid, elem, seg_encode).unwrap();
                chameleon::read_block_array(ctx, pfs, "b", &mut back, elem, seg_decode).unwrap();
            }
            Library::Panda => {
                let schema = panda::Schema {
                    fields: vec![panda::SchemaField {
                        name: "segment".into(),
                        elem_size: elem,
                    }],
                };
                panda::write_array(ctx, pfs, "b", &grid, &schema, |_, s| seg_encode(s)).unwrap();
                panda::read_field(ctx, pfs, "b", &mut back, "segment", seg_decode).unwrap();
            }
            Library::DStreams => {
                output_dstreams(ctx, pfs, &grid, "b", MetaMode::Parallel).unwrap();
                input_dstreams_unsorted(ctx, pfs, &mut back, "b").unwrap();
            }
        }
        ctx.barrier().unwrap();
        ctx.now() - t0
    })
}

/// Exact decimal seconds of a virtual time: nine fractional digits.
fn secs(t: VTime) -> String {
    let ns = t.as_nanos();
    format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000)
}

/// Append one table: a title, a header row and one row per size.
fn table<const N: usize>(
    out: &mut String,
    title: &str,
    first: &str,
    columns: [&str; N],
    sizes: &[usize],
    cell: impl Fn(usize, usize) -> VTime,
) {
    writeln!(out, "{title}").unwrap();
    write!(out, "{first:<10}").unwrap();
    for c in columns {
        write!(out, "{c:>22}").unwrap();
    }
    writeln!(out).unwrap();
    for &n in sizes {
        write!(out, "{n:<10}").unwrap();
        for k in 0..N {
            write!(out, "{:>22}", secs(cell(n, k))).unwrap();
        }
        writeln!(out).unwrap();
    }
    writeln!(out).unwrap();
}

/// Run every ablation cell once and render the report.
pub fn report() -> String {
    let mut out = String::from(
        "Design ablations: simulated platform seconds, one deterministic run per cell\n\n",
    );
    let modes = [MetaMode::Gathered, MetaMode::Parallel];
    table(
        &mut out,
        "metadata: size table gathered to node 0 vs parallel (paper §4.1), Paragon, 4 procs, one write",
        "elements",
        ["gathered", "parallel"],
        &[16, 64, 256, 1024, 4096, 16384],
        |n, k| metadata(n, modes[k]),
    );
    // unsortedRead and the changed-distribution read use a CYCLIC reader.
    let reads = [
        (DistKind::Cyclic, false),
        (DistKind::Block, true),
        (DistKind::Cyclic, true),
    ];
    for (platform, name) in [(Platform::Paragon, "Paragon"), (Platform::Cm5, "CM-5")] {
        table(
            &mut out,
            &format!("read: unsortedRead vs read (paper §3), {name}, 4 procs, input only"),
            "segments",
            ["unsortedRead", "read_same_dist", "read_changed_dist"],
            &[256, 1000],
            |n, k| read(platform, n, reads[k].0, reads[k].1),
        );
    }
    table(
        &mut out,
        "interleave: 4 fields in 1 write vs 4 writes (paper §3), Paragon, 4 procs",
        "elements",
        ["interleaved_1_write", "separate_4_writes"],
        &[256, 4096],
        |n, k| interleave(n, k == 0),
    );
    table(
        &mut out,
        "smp: per-node buffers vs one shared buffer (paper §4), SGI Challenge, 8 procs, one write",
        "segments",
        ["per_node_buffers", "single_shared_buffer"],
        &[256, 1000, 4000],
        |n, k| smp(n, k == 1),
    );
    table(
        &mut out,
        "baselines: fixed-size libraries vs d/streams (paper §5), Paragon, 4 procs, out + in",
        "segments",
        ["chameleon", "panda", "dstreams"],
        &[256, 1000],
        |n, k| baseline(n, Library::ALL[k]),
    );
    // No blank line after the last table.
    out.pop();
    out
}
