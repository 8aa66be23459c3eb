//! Anti-quadratic guard for the planner. A 16-rank BLOCK-CYCLIC(3) file
//! read by 4 CYCLIC ranks has one ownership run per element, so a DP
//! that tries every (start, end) boundary pair per rank costs O(P · n²)
//! — tens of seconds at n = 65 536. The run-based DP is O(P · n) here.

use std::time::{Duration, Instant};

use dstreams_collections::{Composed2d, DistKind, Layout};
use dstreams_redist::{plan_for_layouts, RedistPlan};

const ELEMENTS: usize = 65_536;
const WRITERS: usize = 16;
const READERS: usize = 4;
/// Far above the run-based planner (milliseconds in release, well under
/// a second in debug), far below the quadratic one.
const BUDGET: Duration = Duration::from_secs(5);

#[test]
fn one_run_per_element_plans_in_linear_time() {
    let writer = Layout::dense(ELEMENTS, WRITERS, DistKind::BlockCyclic(3)).unwrap();
    let target = Layout::dense(ELEMENTS, READERS, DistKind::Cyclic).unwrap();
    let sizes: Vec<u64> = writer
        .file_order()
        .map(|gid| 8 + (gid % 3) as u64)
        .collect();
    let dst: Vec<usize> = writer
        .file_order()
        .map(|gid| target.owner(gid).unwrap())
        .collect();
    assert!(
        dst.windows(2).all(|w| w[0] != w[1]),
        "every element must be its own ownership run"
    );

    let t = Instant::now();
    let plan = RedistPlan::new(READERS, &sizes, &dst);
    let by_elements = t.elapsed();
    let t = Instant::now();
    let (from_layouts, pieces) = plan_for_layouts(READERS, &writer, &target, &sizes, 0).unwrap();
    let by_layouts = t.elapsed();
    assert!(
        by_elements < BUDGET && by_layouts < BUDGET,
        "planning took {by_elements:?} from elements, {by_layouts:?} from layouts"
    );

    assert_eq!(plan, from_layouts);
    assert_eq!(
        pieces.iter().map(|p| p.len).sum::<usize>(),
        target.local_count(0)
    );
    // Spans tile the file, and exactly the bytes read by a rank other
    // than the owner move.
    let mut moved = 0u64;
    let mut next = 0usize;
    for p in 0..READERS {
        let (lo, hi) = plan.span(p);
        assert_eq!(lo, next);
        next = hi;
        moved += (lo..hi)
            .filter(|&e| dst[e] != p)
            .map(|e| sizes[e])
            .sum::<u64>();
    }
    assert_eq!(next, ELEMENTS);
    assert_eq!(plan.lower_bound(), moved);
}

/// Minimum wall time of three `plan_for_layouts` calls by rank 0.
fn plan_time(writer: &Layout, target: &Layout, sizes: &[u64]) -> Duration {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            plan_for_layouts(READERS, writer, target, sizes, 0).unwrap();
            t.elapsed()
        })
        .min()
        .unwrap()
}

/// CYCLIC writers read into a row-block target: each reader owns whole
/// consecutive rows of 4 columns, so one target window spans 4 096
/// rows. The walk must answer each window in closed form, not one step
/// per row for every writer that has an element in it: planning for 64
/// writers may not cost much more than for 4, where a walk of
/// O(writers × rows) costs ~16× more.
#[test]
fn whole_row_windows_cost_no_step_per_row_per_writer() {
    let rowblock = DistKind::Composed2d(Composed2d {
        rows: (ELEMENTS / 4) as u32,
        grid_rows: READERS as u16,
        row_k: 0,
        col_k: 0,
    });
    let target = Layout::dense(ELEMENTS, READERS, rowblock).unwrap();
    let mut times = Vec::new();
    for writers in [4, 64] {
        let writer = Layout::dense(ELEMENTS, writers, DistKind::Cyclic).unwrap();
        let sizes: Vec<u64> = writer
            .file_order()
            .map(|gid| 8 + (gid % 3) as u64)
            .collect();
        let dst: Vec<usize> = writer
            .file_order()
            .map(|gid| target.owner(gid).unwrap())
            .collect();
        let (plan, pieces) = plan_for_layouts(READERS, &writer, &target, &sizes, 0).unwrap();
        assert_eq!(plan, RedistPlan::new(READERS, &sizes, &dst));
        assert_eq!(
            pieces.iter().map(|p| p.len).sum::<usize>(),
            target.local_count(0)
        );
        times.push(plan_time(&writer, &target, &sizes));
    }
    assert!(
        times[1] < 4 * times[0] + Duration::from_millis(5),
        "64 writers took {:?}, 4 writers {:?}",
        times[1],
        times[0]
    );
}
