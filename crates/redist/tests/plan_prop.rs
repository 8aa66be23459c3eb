//! Property tests for the redistribution planner.
//!
//! The headline property: the DP restricted to ownership-run boundaries
//! finds the true minimum over **all** conforming contiguous span
//! partitions — checked here against exhaustive enumeration on small
//! instances, which is exactly the slide-argument the planner's
//! minimality claim rests on. The O(P · r) DP is checked against the
//! plain O(P · r²) loop it replaced, and the window walk of
//! `plan_for_layouts` against the per-file-run loop it replaced, both
//! kept here as reference oracles.

use dstreams_collections::{
    Alignment, CollectionError, Composed2d, DistKind, Distribution, Layout,
};
use dstreams_redist::{plan_for_layouts, Interval, OwnerRun, Piece, RedistPlan, Transfer};
use proptest::prelude::*;

/// The plan's observable schedule: spans, messages, retained transfers
/// and the lower bound.
type Schedule = (Vec<(usize, usize)>, Vec<Transfer>, Vec<Transfer>, u64);

fn schedule(plan: &RedistPlan) -> Schedule {
    (
        (0..plan.nprocs()).map(|p| plan.span(p)).collect(),
        plan.messages().to_vec(),
        plan.retained().to_vec(),
        plan.lower_bound(),
    )
}

/// The reference planner: for every rank and end boundary, try every
/// start boundary (O(P · r²)), with lexicographic (moved bytes,
/// imbalance) costs and ties to the earliest start.
fn reference_plan(nprocs: usize, sizes: &[u64], dst_owner: &[usize]) -> Schedule {
    let n = sizes.len();
    let mut cand = vec![0usize];
    for e in 1..n {
        if dst_owner[e] != dst_owner[e - 1] {
            cand.push(e);
        }
    }
    cand.push(n.max(cand.last().copied().unwrap_or(0)));
    if n == 0 {
        cand = vec![0, 0];
    }
    let r = cand.len() - 1;
    let mut total_pref = vec![0u64; r + 1];
    let mut owned_pref = vec![vec![0u64; r + 1]; nprocs];
    for i in 0..r {
        let run_bytes: u64 = sizes[cand[i]..cand[i + 1]].iter().sum();
        total_pref[i + 1] = total_pref[i] + run_bytes;
        let owner = if cand[i] < n { dst_owner[cand[i]] } else { 0 };
        for (p, pref) in owned_pref.iter_mut().enumerate() {
            pref[i + 1] = pref[i] + if p == owner { run_bytes } else { 0 };
        }
    }
    const INF: (u64, u64) = (u64::MAX, u64::MAX);
    let target = |p: usize| -> usize { ((p + 1) * n) / nprocs - (p * n) / nprocs };
    let add = |a: (u64, u64), b: (u64, u64)| (a.0.saturating_add(b.0), a.1.saturating_add(b.1));
    let mut dp = vec![INF; r + 1];
    dp[0] = (0, 0);
    let mut choice = vec![vec![0usize; r + 1]; nprocs];
    for p in 0..nprocs {
        let mut next = vec![INF; r + 1];
        for cj in 0..=r {
            for ci in 0..=cj {
                if dp[ci] == INF {
                    continue;
                }
                let moved =
                    (total_pref[cj] - total_pref[ci]) - (owned_pref[p][cj] - owned_pref[p][ci]);
                let imb = (cand[cj] - cand[ci]).abs_diff(target(p)) as u64;
                let cost = add(dp[ci], (moved, imb));
                if cost < next[cj] {
                    next[cj] = cost;
                    choice[p][cj] = ci;
                }
            }
        }
        dp = next;
    }
    let mut bounds = vec![0usize; nprocs + 1];
    bounds[nprocs] = n;
    let mut c = r;
    for p in (0..nprocs).rev() {
        c = choice[p][c];
        bounds[p] = cand[c];
    }
    let spans: Vec<(usize, usize)> = (0..nprocs).map(|p| (bounds[p], bounds[p + 1])).collect();
    let mut messages = Vec::new();
    let mut retained = Vec::new();
    let mut lower_bound = 0u64;
    for (p, &(lo, hi)) in spans.iter().enumerate() {
        let mut per_dst: Vec<Option<Transfer>> = vec![None; nprocs];
        let mut e = lo;
        while e < hi {
            let dst = dst_owner[e];
            let start = e;
            let mut bytes = 0u64;
            while e < hi && dst_owner[e] == dst {
                bytes += sizes[e];
                e += 1;
            }
            let t = per_dst[dst].get_or_insert_with(|| Transfer {
                src: p,
                dst,
                intervals: Vec::new(),
                bytes: 0,
                elements: 0,
            });
            t.intervals.push(Interval {
                start,
                len: e - start,
                bytes,
            });
            t.bytes += bytes;
            t.elements += (e - start) as u64;
        }
        for t in per_dst.into_iter().flatten() {
            if t.dst == p {
                retained.push(t);
            } else {
                lower_bound += t.bytes;
                messages.push(t);
            }
        }
    }
    messages.sort_by_key(|t| (t.src, t.dst));
    (spans, messages, retained, lower_bound)
}

/// Minimum moved bytes over every monotone span partition, by brute
/// force: enumerate all boundary vectors 0 <= b1 <= ... <= b_{P-1} <= n.
fn brute_force_min(nprocs: usize, sizes: &[u64], dst: &[usize]) -> u64 {
    fn rec(p: usize, lo: usize, nprocs: usize, sizes: &[u64], dst: &[usize]) -> u64 {
        let n = sizes.len();
        if p == nprocs - 1 {
            // Last rank takes [lo, n).
            return (lo..n).filter(|&e| dst[e] != p).map(|e| sizes[e]).sum();
        }
        let mut best = u64::MAX;
        for hi in lo..=n {
            let own: u64 = (lo..hi).filter(|&e| dst[e] != p).map(|e| sizes[e]).sum();
            let rest = rec(p + 1, hi, nprocs, sizes, dst);
            best = best.min(own + rest);
        }
        best
    }
    rec(0, 0, nprocs, sizes, dst)
}

/// The reference layout planner: cut every writer file run into target
/// pieces, summing the sizes per piece, merging adjacent pieces with one
/// owner into runs and keeping the pieces `rank` owns.
fn reference_layout_plan(
    nprocs: usize,
    writer: &Layout,
    target: &Layout,
    sizes: &[u64],
    rank: usize,
) -> Result<(RedistPlan, Vec<Piece>), CollectionError> {
    let pieces = target.pieces();
    let mut runs: Vec<OwnerRun> = Vec::new();
    let mut mine: Vec<Piece> = Vec::new();
    let mut e = 0usize;
    for (first, len) in writer.file_runs() {
        let mut done = 0;
        while done < len {
            let (owner, slot, plen) = pieces.piece(first + done, len - done)?;
            let bytes: u64 = sizes[e..e + plen].iter().sum();
            match runs.last_mut() {
                Some(run) if run.owner == owner => {
                    run.len += plen;
                    run.bytes += bytes;
                }
                _ => runs.push(OwnerRun {
                    start: e,
                    len: plen,
                    owner,
                    bytes,
                }),
            }
            if owner == rank {
                match mine.last_mut() {
                    Some(p) if p.start + p.len == e && p.slot + p.len == slot => p.len += plen,
                    _ => mine.push(Piece {
                        start: e,
                        len: plen,
                        slot,
                    }),
                }
            }
            e += plen;
            done += plen;
        }
    }
    Ok((RedistPlan::from_runs(nprocs, runs), mine))
}

/// A layout shape: kind, ranks (1..=9), alignment `(stride, offset)` and
/// the template cells past the last aligned one.
type Shape = (DistKind, usize, (usize, usize), usize);

fn shape_strategy() -> impl Strategy<Value = Shape> {
    let kind = prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (2usize..5).prop_map(DistKind::BlockCyclic),
        (1u32..5, 1u16..4, 0u8..4, 0u8..4).prop_map(|(rows, grid_rows, row_k, col_k)| {
            DistKind::Composed2d(Composed2d {
                rows,
                grid_rows,
                row_k,
                col_k,
            })
        }),
    ];
    // Mostly identity-aligned, often strided or offset.
    let align = prop_oneof![Just((1usize, 0usize)), (1usize..4, 0usize..5)];
    (
        kind,
        1usize..10,
        align,
        prop_oneof![Just(0usize), 0usize..12],
    )
}

/// Build an `n`-element layout of `shape`, rounding the template and the
/// rank count up to what a composed shape needs (a grid that would need
/// more than 9 ranks gets one grid row).
fn build(n: usize, (kind, nprocs, (stride, offset), slack): Shape) -> Layout {
    let mut kind = kind;
    let mut len = stride * n + offset + slack;
    let mut nprocs = nprocs;
    if let DistKind::Composed2d(c) = &mut kind {
        if nprocs.next_multiple_of(c.grid_rows as usize) > 9 {
            c.grid_rows = 1;
        }
        nprocs = nprocs.next_multiple_of(c.grid_rows as usize);
        len = len.next_multiple_of(c.rows as usize);
    }
    let dist = Distribution::new(len, nprocs, kind).unwrap();
    Layout::new(n, dist, Alignment::affine(stride, offset).unwrap()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The run-boundary DP matches exhaustive search over all span
    /// partitions — the planner's lower bound really is the minimum.
    #[test]
    fn dp_matches_brute_force_minimum(
        nprocs in 1usize..4,
        elems in proptest::collection::vec((0u64..9, 0usize..4), 0..9),
    ) {
        let sizes: Vec<u64> = elems.iter().map(|&(s, _)| s).collect();
        let dst: Vec<usize> = elems.iter().map(|&(_, d)| d % nprocs).collect();
        let plan = RedistPlan::new(nprocs, &sizes, &dst);
        prop_assert_eq!(plan.lower_bound(), brute_force_min(nprocs, &sizes, &dst));
    }

    /// Structural invariants: spans partition [0, n), transfers cover
    /// every element exactly once toward its stated destination, and
    /// message bytes sum to the lower bound.
    #[test]
    fn plan_is_a_consistent_schedule(
        nprocs in 1usize..6,
        elems in proptest::collection::vec((0u64..20, 0usize..6), 0..24),
    ) {
        let sizes: Vec<u64> = elems.iter().map(|&(s, _)| s).collect();
        let dst: Vec<usize> = elems.iter().map(|&(_, d)| d % nprocs).collect();
        let n = sizes.len();
        let plan = RedistPlan::new(nprocs, &sizes, &dst);

        // Spans are monotone and tile [0, n).
        let mut expect = 0usize;
        for p in 0..nprocs {
            let (lo, hi) = plan.span(p);
            prop_assert_eq!(lo, expect);
            prop_assert!(hi >= lo);
            expect = hi;
        }
        prop_assert_eq!(expect, n);

        // Each element is scheduled exactly once, from its reader's span,
        // toward dst[e]; retained transfers have src == dst.
        let mut count = vec![0u32; n];
        for t in plan.messages() {
            prop_assert_ne!(t.src, t.dst);
        }
        for t in plan.messages().iter().chain(plan.retained()) {
            let (lo, hi) = plan.span(t.src);
            let mut bytes = 0u64;
            let mut elements = 0u64;
            for iv in &t.intervals {
                prop_assert!(iv.start >= lo && iv.start + iv.len <= hi);
                let mut iv_bytes = 0u64;
                for e in iv.start..iv.start + iv.len {
                    count[e] += 1;
                    prop_assert_eq!(dst[e], t.dst);
                    iv_bytes += sizes[e];
                }
                prop_assert_eq!(iv.bytes, iv_bytes);
                bytes += iv_bytes;
                elements += iv.len as u64;
            }
            prop_assert_eq!(t.bytes, bytes);
            prop_assert_eq!(t.elements, elements);
        }
        prop_assert!(count.iter().all(|&c| c == 1));
        let msg_bytes: u64 = plan.messages().iter().map(|t| t.bytes).sum();
        prop_assert_eq!(msg_bytes, plan.lower_bound());
    }

    /// The O(P · r) planner reproduces the reference loop exactly —
    /// spans, messages, retained transfers and lower bound — on random
    /// sizes and owners, whether handed elements or pre-cut runs.
    #[test]
    fn run_plan_equals_the_quadratic_reference(
        nprocs in 1usize..7,
        elems in proptest::collection::vec((0u64..12, 0usize..7), 0..60),
        // Mostly few owners, so runs are long and ties plentiful.
        owners in 1usize..7,
        cuts in proptest::collection::vec(1usize..5, 0..60),
    ) {
        let sizes: Vec<u64> = elems.iter().map(|&(s, _)| s).collect();
        let dst: Vec<usize> = elems.iter().map(|&(_, d)| d % owners.min(nprocs)).collect();
        let want = reference_plan(nprocs, &sizes, &dst);
        prop_assert_eq!(schedule(&RedistPlan::new(nprocs, &sizes, &dst)), want.clone());

        // The same elements cut into arbitrary same-owner runs, some of
        // them empty: `from_runs` merges them back.
        let mut runs = Vec::new();
        let mut e = 0usize;
        let mut k = 0usize;
        while e < sizes.len() {
            let mut len = cuts.get(k).copied().unwrap_or(1).min(sizes.len() - e);
            while e + len > e + 1 && dst[e..e + len].iter().any(|&d| d != dst[e]) {
                len -= 1;
            }
            runs.push(OwnerRun { start: e, len: 0, owner: dst[e], bytes: 0 });
            runs.push(OwnerRun {
                start: e,
                len,
                owner: dst[e],
                bytes: sizes[e..e + len].iter().sum(),
            });
            e += len;
            k += 1;
        }
        let plan = RedistPlan::from_runs(nprocs, runs);
        prop_assert_eq!(schedule(&plan), want);
        // Byte spans are the prefix sums at the span boundaries.
        for p in 0..nprocs {
            let (lo, hi) = plan.span(p);
            let before: u64 = sizes[..lo].iter().sum();
            let within: u64 = sizes[lo..hi].iter().sum();
            prop_assert_eq!(plan.byte_span(p), (before, before + within));
        }
    }

    /// When the destination map is already grouped in rank order (the
    /// same-layout read), the plan is message-free.
    #[test]
    fn grouped_destinations_need_no_messages(
        nprocs in 1usize..6,
        counts in proptest::collection::vec(0usize..5, 1..6),
    ) {
        let mut dst = Vec::new();
        for (p, &c) in counts.iter().enumerate().take(nprocs) {
            dst.extend(std::iter::repeat_n(p, c));
        }
        let sizes: Vec<u64> = dst.iter().map(|&d| 1 + d as u64).collect();
        let plan = RedistPlan::new(nprocs, &sizes, &dst);
        prop_assert!(plan.is_identity());
        prop_assert_eq!(plan.lower_bound(), 0);
    }

    /// The window walk of `plan_for_layouts` gives exactly the plan and
    /// pieces of the per-file-run loop — runs, messages, retained
    /// intervals, byte spans, lower bound — on every rank, for every
    /// writer × target kind, strided and offset alignments, 1..=9 ranks
    /// on either side and ragged sizes with zeros.
    #[test]
    fn window_walk_equals_the_file_run_reference(
        sizes in proptest::collection::vec(prop_oneof![Just(0u64), 0u64..40], 0..70),
        writer in shape_strategy(),
        target in shape_strategy(),
    ) {
        let n = sizes.len();
        let writer = build(n, writer);
        let target = build(n, target);
        let nprocs = target.nprocs();
        for rank in 0..nprocs {
            let got = plan_for_layouts(nprocs, &writer, &target, &sizes, rank).unwrap();
            let want = reference_layout_plan(nprocs, &writer, &target, &sizes, rank).unwrap();
            prop_assert_eq!(schedule(&got.0), schedule(&want.0), "{:?} -> {:?}", writer, target);
            prop_assert_eq!(&got.1, &want.1, "rank {} of {:?} -> {:?}", rank, writer, target);
            // Whole-plan equality adds the byte spans.
            prop_assert_eq!(got.0, want.0);
        }
    }
}
