//! Property tests on distribution / alignment / layout arithmetic: the
//! owner map must be a partition, local slots dense and monotone, the
//! closed-form enumerations must equal a brute-force owner scan, and
//! descriptors must roundtrip, for arbitrary parameters.

use dstreams_collections::{
    Alignment, Composed2d, DistKind, Distribution, Layout, LayoutDescriptor,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn kind_strategy() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (1usize..6).prop_map(DistKind::BlockCyclic),
    ]
}

/// 1-D kinds plus `Composed2d` shapes (rows 1..5 over 1..3 grid rows,
/// either axis BLOCK or CYCLIC(k)).
fn any_kind_strategy() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        kind_strategy(),
        (1u32..5, 1u16..3, 0u8..4, 0u8..4).prop_map(|(rows, grid_rows, row_k, col_k)| {
            DistKind::Composed2d(Composed2d {
                rows,
                grid_rows,
                row_k,
                col_k,
            })
        }),
    ]
}

/// A distribution of `kind` with at least `min_len` cells over at least
/// `nprocs` ranks, rounded up to what a composed shape requires.
fn fit(kind: DistKind, min_len: usize, nprocs: usize) -> Distribution {
    let (len, nprocs) = match kind {
        DistKind::Composed2d(c) => (
            min_len.next_multiple_of(c.rows as usize),
            nprocs.next_multiple_of(c.grid_rows as usize),
        ),
        _ => (min_len, nprocs),
    };
    Distribution::new(len, nprocs, kind).unwrap()
}

/// The oracle: every template cell `rank` owns, by asking `owner` of each.
fn owner_scan(d: &Distribution, rank: usize) -> Vec<usize> {
    (0..d.len())
        .filter(|&t| d.owner(t).unwrap() == rank)
        .collect()
}

/// The oracle: every element `rank` owns, by asking `owner` of each.
fn element_scan(l: &Layout, rank: usize) -> Vec<usize> {
    (0..l.len())
        .filter(|&i| l.owner(i).unwrap() == rank)
        .collect()
}

fn strictly_increasing(v: &[usize]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

/// Closed-form `local_cells` equals the owner scan on every rank and is
/// empty past the last one; `local_count` agrees.
fn check_local_cells(d: &Distribution) -> Result<(), TestCaseError> {
    for r in 0..d.nprocs() + 2 {
        let cells = d.local_cells(r);
        prop_assert_eq!(&cells, &owner_scan(d, r), "rank {}", r);
        prop_assert_eq!(cells.len(), d.local_count(r), "rank {}", r);
        prop_assert!(strictly_increasing(&cells));
    }
    Ok(())
}

/// The flattened file-order runs equal the per-rank owner scans, each
/// run is non-empty, every piece — of every file run, and of each
/// probed `(start, len)` range — agrees with per-element `place` and is
/// the longest such prefix, and the per-rank cursor agrees with the
/// owner scans.
fn check_runs_and_pieces(layout: &Layout, probes: &[(usize, usize)]) -> Result<(), TestCaseError> {
    let n = layout.len();
    let nprocs = layout.nprocs();
    let runs: Vec<(usize, usize)> = layout.file_runs().collect();
    prop_assert!(
        runs.iter().all(|&(_, len)| len > 0),
        "empty run in {:?}",
        runs
    );
    let flat: Vec<usize> = runs.iter().flat_map(|&(i, len)| i..i + len).collect();
    let expected: Vec<usize> = (0..nprocs).flat_map(|r| element_scan(layout, r)).collect();
    prop_assert_eq!(&flat, &expected);
    prop_assert_eq!(layout.file_order().collect::<Vec<_>>(), expected);

    let pieces = layout.pieces();
    let check = |first: usize, len: usize| -> Result<(), TestCaseError> {
        let mut done = 0;
        while done < len {
            let i = first + done;
            let (owner, slot, plen) = pieces.piece(i, len - done).unwrap();
            prop_assert!(plen >= 1 && plen <= len - done);
            for j in 0..plen {
                let want = layout.place(i + j).unwrap();
                prop_assert_eq!(want, (owner, slot + j), "element {} of {:?}", i + j, layout);
            }
            if done + plen < len {
                let next = layout.place(i + plen).unwrap();
                prop_assert!(next != (owner, slot + plen), "piece at {} too short", i);
            }
            done += plen;
        }
        Ok(())
    };
    for &(first, len) in &runs {
        check(first, len)?;
    }
    // The per-rank cursor: the run of consecutive ids from each local
    // slot, at every cap, and the count below any element bound, against
    // the owner scan.
    for r in 0..nprocs {
        let elements = element_scan(layout, r);
        for (k, &i) in elements.iter().enumerate() {
            let run = 1 + elements[k..]
                .windows(2)
                .take_while(|w| w[0] + 1 == w[1])
                .count();
            for max in 1..=elements.len() - k {
                let got = pieces.local_run(r, k, max).unwrap();
                prop_assert_eq!(
                    got,
                    (i, run.min(max)),
                    "rank {} slot {} of {:?}",
                    r,
                    k,
                    layout
                );
            }
        }
        for i in 0..=n {
            let below = elements.iter().filter(|&&e| e < i).count();
            prop_assert_eq!(pieces.count_below(r, i), below, "rank {} below {}", r, i);
        }
    }
    prop_assert_eq!(pieces.count_below(nprocs, n), 0);
    for &(start, len) in probes {
        if start < n {
            check(start, len.min(n - start))?;
        }
    }
    prop_assert!(pieces.piece(n, 1).is_err());
    if n > 0 {
        prop_assert!(pieces.piece(n - 1, 2).is_err());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn local_cells_match_the_owner_scan(
        len in 0usize..200,
        nprocs in 1usize..9,
        kind in kind_strategy(),
    ) {
        check_local_cells(&Distribution::new(len, nprocs, kind).unwrap())?;
    }

    #[test]
    fn composed_local_cells_match_the_owner_scan(
        rows in 1usize..6,
        cols in 0usize..8,
        grid_rows in 1usize..4,
        grid_cols in 1usize..5,
        row_k in 0u8..4,
        col_k in 0u8..4,
    ) {
        // Covers 1xN and Nx1 grids, empty columns, and more ranks than
        // cells along either axis.
        let kind = DistKind::Composed2d(Composed2d {
            rows: rows as u32,
            grid_rows: grid_rows as u16,
            row_k,
            col_k,
        });
        check_local_cells(&Distribution::new(rows * cols, grid_rows * grid_cols, kind).unwrap())?;
    }

    #[test]
    fn local_elements_match_the_owner_scan(
        n in 0usize..60,
        nprocs in 1usize..6,
        kind in any_kind_strategy(),
        stride in 1usize..4,
        offset in 0usize..5,
        // Mostly a snug template; sometimes one far longer than the
        // collection, so that the element-scan fallback runs.
        slack in prop_oneof![0usize..4, 200usize..2000],
    ) {
        let dist = fit(kind, stride * n + offset + slack, nprocs);
        let nprocs = dist.nprocs();
        let layout = Layout::new(n, dist, Alignment::affine(stride, offset).unwrap()).unwrap();
        for r in 0..nprocs + 2 {
            let elements = layout.local_elements(r);
            prop_assert_eq!(&elements, &element_scan(&layout, r), "rank {}", r);
            prop_assert_eq!(elements.len(), layout.local_count(r), "rank {}", r);
            prop_assert!(strictly_increasing(&elements));
        }
        let order: Vec<usize> = layout.file_order().collect();
        let expected: Vec<usize> = (0..nprocs).flat_map(|r| element_scan(&layout, r)).collect();
        prop_assert_eq!(order, expected);
    }

    #[test]
    fn file_runs_and_pieces_match_the_element_oracles(
        n in 0usize..60,
        nprocs in 1usize..6,
        kind in any_kind_strategy(),
        stride in 1usize..4,
        offset in 0usize..5,
        slack in prop_oneof![0usize..4, 0usize..40],
        probes in proptest::collection::vec((0usize..60, 1usize..20), 0..8),
    ) {
        let dist = fit(kind, stride * n + offset + slack, nprocs);
        let layout = Layout::new(n, dist, Alignment::affine(stride, offset).unwrap()).unwrap();
        check_runs_and_pieces(&layout, &probes)?;
    }

    #[test]
    fn composed_file_runs_and_pieces_match_the_element_oracles(
        rows in 1usize..6,
        cols in 0usize..8,
        grid_rows in 1usize..4,
        grid_cols in 1usize..5,
        row_k in 0u8..4,
        col_k in 0u8..4,
        probes in proptest::collection::vec((0usize..48, 1usize..20), 0..8),
    ) {
        // Dense composed layouts: 1xN and Nx1 grids, empty columns
        // (`cols = 0`), more ranks than cells along either axis.
        let kind = DistKind::Composed2d(Composed2d {
            rows: rows as u32,
            grid_rows: grid_rows as u16,
            row_k,
            col_k,
        });
        let layout = Layout::dense(rows * cols, grid_rows * grid_cols, kind).unwrap();
        check_runs_and_pieces(&layout, &probes)?;
    }

    #[test]
    fn owner_map_is_a_partition(
        len in 0usize..200,
        nprocs in 1usize..9,
        kind in kind_strategy(),
    ) {
        let d = Distribution::new(len, nprocs, kind).unwrap();
        let mut counts = vec![0usize; nprocs];
        for t in 0..len {
            let o = d.owner(t).unwrap();
            prop_assert!(o < nprocs);
            prop_assert_eq!(d.local_index(t).unwrap(), counts[o]);
            counts[o] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, d.local_count(r));
            prop_assert_eq!(d.local_cells(r).len(), c);
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), len);
    }

    #[test]
    fn load_balance_is_within_one_block(
        len in 1usize..300,
        nprocs in 1usize..9,
        kind in kind_strategy(),
    ) {
        let d = Distribution::new(len, nprocs, kind).unwrap();
        let unit = match kind {
            DistKind::Block => len.div_ceil(nprocs),
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(k) => k,
            DistKind::Composed2d(_) => unreachable!("kind_strategy is 1-D"),
        };
        let counts: Vec<usize> = (0..nprocs).map(|r| d.local_count(r)).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        prop_assert!(max - min <= unit, "counts {counts:?} unit {unit}");
    }

    #[test]
    fn aligned_layouts_partition_their_elements(
        n in 0usize..60,
        nprocs in 1usize..6,
        kind in any_kind_strategy(),
        stride in 1usize..4,
        offset in 0usize..5,
    ) {
        let dist = fit(kind, stride * n.max(1) + offset + 1, nprocs);
        let nprocs = dist.nprocs();
        let align = Alignment::affine(stride, offset).unwrap();
        let layout = Layout::new(n, dist, align).unwrap();
        let mut seen = vec![false; n];
        for r in 0..nprocs {
            for e in layout.local_elements(r) {
                prop_assert!(!seen[e]);
                seen[e] = true;
                prop_assert_eq!(layout.owner(e).unwrap(), r);
            }
            prop_assert_eq!(layout.local_count(r), layout.local_elements(r).len());
        }
        prop_assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn descriptors_roundtrip(
        n in 0usize..60,
        nprocs in 1usize..6,
        kind in kind_strategy(),
        stride in 1usize..4,
        offset in 0usize..5,
    ) {
        let template = stride * n.max(1) + offset + 1;
        let dist = Distribution::new(template, nprocs, kind).unwrap();
        let align = Alignment::affine(stride, offset).unwrap();
        let layout = Layout::new(n, dist, align).unwrap();
        let bytes = layout.descriptor().encode();
        let d2 = LayoutDescriptor::decode(&bytes).unwrap();
        prop_assert_eq!(Layout::from_descriptor(&d2).unwrap(), layout);
    }

    #[test]
    fn composed_2d_owner_map_is_a_partition(
        rows in 1usize..6,
        cols in 0usize..8,
        grid_rows in 1usize..4,
        grid_cols in 1usize..4,
        row_k in 0u8..4,
        col_k in 0u8..4,
    ) {
        let len = rows * cols;
        let nprocs = grid_rows * grid_cols;
        let kind = DistKind::Composed2d(Composed2d {
            rows: rows as u32,
            grid_rows: grid_rows as u16,
            row_k,
            col_k,
        });
        let d = Distribution::new(len, nprocs, kind).unwrap();
        let mut counts = vec![0usize; nprocs];
        for t in 0..len {
            let (o, l) = d.place(t).unwrap();
            prop_assert!(o < nprocs);
            prop_assert_eq!(l, counts[o], "cell {}", t);
            counts[o] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            prop_assert_eq!(c, d.local_count(r));
        }
        prop_assert_eq!(counts.iter().sum::<usize>(), len);

        // And the packed descriptor round-trips through the wire format.
        let layout = Layout::dense(len, nprocs, kind).unwrap();
        let bytes = layout.descriptor().encode();
        let d2 = LayoutDescriptor::decode(&bytes).unwrap();
        prop_assert_eq!(Layout::from_descriptor(&d2).unwrap(), layout);
    }

    #[test]
    fn renprocs_preserves_the_element_set(
        n in 0usize..60,
        p1 in 1usize..6,
        p2 in 1usize..6,
        kind in kind_strategy(),
    ) {
        let a = Layout::dense(n, p1, kind).unwrap();
        let b = a.with_nprocs(p2).unwrap();
        let mut ea: Vec<usize> = (0..p1).flat_map(|r| a.local_elements(r)).collect();
        let mut eb: Vec<usize> = (0..p2).flat_map(|r| b.local_elements(r)).collect();
        ea.sort_unstable();
        eb.sort_unstable();
        prop_assert_eq!(ea, eb);
    }
}
