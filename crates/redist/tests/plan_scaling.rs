//! Anti-quadratic guard for the planner. A 16-rank BLOCK-CYCLIC(3) file
//! read by 4 CYCLIC ranks has one ownership run per element, so a DP
//! that tries every (start, end) boundary pair per rank costs O(P · n²)
//! — tens of seconds at n = 65 536. The run-based DP is O(P · n) here.

use std::time::{Duration, Instant};

use dstreams_collections::{DistKind, Layout};
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
