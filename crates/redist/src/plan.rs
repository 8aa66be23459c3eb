//! The two-phase redistribution planner.
//!
//! Phase 1 — the *conforming read* — assigns every reader rank one
//! contiguous run of file-order elements, exactly as the paper's
//! PASSION-style sorted read does. Phase 2 moves each element from the
//! rank that read it to the rank that owns it under the target layout.
//!
//! The planner chooses the phase-1 boundaries by dynamic programming
//! over *ownership-run* boundaries (maximal file-order runs with the
//! same destination rank), minimizing the total bytes that must change
//! ranks, with ties broken toward the balanced split. Because an
//! optimal boundary can always be slid to an adjacent run boundary
//! without increasing the moved-byte count, restricting candidates to
//! run boundaries loses nothing: the resulting schedule is minimal over
//! all conforming (contiguous-span) reads. Two corollaries the test
//! suite asserts directly:
//!
//! * **idempotence** — when the destination layout equals the layout
//!   the file was written with, the ownership runs are exactly the
//!   writer's node blocks, the DP reproduces them at zero cost, and the
//!   plan carries **no messages at all**;
//! * **exactness** — per rank pair, the scheduled bytes equal
//!   `Σ size(e)` over elements read by `src` and owned by `dst`; no
//!   framing, duplication or padding is ever scheduled, so the executor
//!   can be audited against [`RedistPlan::lower_bound`] byte for byte.

/// One coalesced run of contiguous file-order elements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Interval {
    /// First file-order element index of the run.
    pub start: usize,
    /// Number of contiguous elements.
    pub len: usize,
    /// Total payload bytes of the run.
    pub bytes: u64,
}

/// A run of contiguous file-order elements that all go to one rank: the
/// planner's unit of work. [`RedistPlan::from_runs`] merges adjacent
/// runs bound for the same rank, so the ones it plans on are maximal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnerRun {
    /// First file-order element index of the run.
    pub start: usize,
    /// Number of contiguous elements.
    pub len: usize,
    /// Rank owning every element of the run under the target layout.
    pub owner: usize,
    /// Total payload bytes of the run.
    pub bytes: u64,
}

/// Everything moving from one reader rank to one owner rank: the
/// coalesced intervals, their byte count, and their element count. When
/// `src == dst` the transfer is *retained* — it becomes a local memmove
/// and never touches the message layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transfer {
    /// Rank that read the elements in phase 1.
    pub src: usize,
    /// Rank that owns them under the target layout.
    pub dst: usize,
    /// Coalesced file-order runs, in increasing `start` order.
    pub intervals: Vec<Interval>,
    /// Total payload bytes.
    pub bytes: u64,
    /// Total elements.
    pub elements: u64,
}

/// A complete two-phase redistribution schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RedistPlan {
    nprocs: usize,
    n: usize,
    /// Phase-1 file-order span `[lo, hi)` per rank.
    spans: Vec<(usize, usize)>,
    /// Byte range `[lo, hi)` of each span within the record's data.
    byte_spans: Vec<(u64, u64)>,
    /// Cross-rank transfers, sorted by `(src, dst)`.
    messages: Vec<Transfer>,
    /// Locally-retained transfers (`src == dst`), sorted by rank.
    retained: Vec<Transfer>,
    /// Total message payload bytes — the analytic minimum for this
    /// conforming read.
    lower_bound: u64,
}

impl RedistPlan {
    /// Plan the redistribution of `n` file-order elements with the given
    /// `sizes` onto `nprocs` ranks, where `dst_owner[e]` is the rank
    /// owning file-order element `e` under the target layout. Every rank
    /// of a machine computes the identical plan from the identical
    /// metadata, so no plan data ever needs to travel.
    ///
    /// # Panics
    /// If `sizes` and `dst_owner` differ in length, `nprocs` is zero, or
    /// any destination rank is out of range.
    pub fn new(nprocs: usize, sizes: &[u64], dst_owner: &[usize]) -> RedistPlan {
        assert_eq!(sizes.len(), dst_owner.len(), "one destination per element");
        let runs = dst_owner
            .iter()
            .zip(sizes)
            .enumerate()
            .map(|(start, (&owner, &bytes))| OwnerRun {
                start,
                len: 1,
                owner,
                bytes,
            });
        RedistPlan::from_runs(nprocs, runs)
    }

    /// Plan from ownership runs that tile the file order `[0, n)` in
    /// increasing order. O(P · r) for `P = nprocs` ranks and `r` maximal
    /// runs, independent of `n`.
    ///
    /// # Panics
    /// If `nprocs` is zero, the runs leave a gap or overlap, or an owner
    /// is out of range.
    pub fn from_runs(nprocs: usize, runs: impl IntoIterator<Item = OwnerRun>) -> RedistPlan {
        assert!(nprocs > 0, "plan needs at least one rank");
        let mut merged: Vec<OwnerRun> = Vec::new();
        let mut n = 0usize;
        for run in runs {
            assert_eq!(run.start, n, "runs must tile the file order");
            assert!(run.owner < nprocs, "destination ranks must be < nprocs");
            n += run.len;
            match merged.last_mut() {
                _ if run.len == 0 => {}
                Some(last) if last.owner == run.owner => {
                    last.len += run.len;
                    last.bytes += run.bytes;
                }
                _ => merged.push(run),
            }
        }
        let runs = merged;
        if runs.is_empty() {
            return RedistPlan {
                nprocs,
                n: 0,
                spans: vec![(0, 0); nprocs],
                byte_spans: vec![(0, 0); nprocs],
                messages: Vec::new(),
                retained: Vec::new(),
                lower_bound: 0,
            };
        }

        // Candidate span boundaries are the run boundaries: cand[c] is
        // the file-order index where run c starts (cand[r] = n), and
        // total_pref[c] the bytes before it.
        let r = runs.len();
        let mut cand = Vec::with_capacity(r + 1);
        let mut total_pref = Vec::with_capacity(r + 1);
        let mut bytes = 0u64;
        for run in &runs {
            cand.push(run.start);
            total_pref.push(bytes);
            bytes += run.bytes;
        }
        cand.push(n);
        total_pref.push(bytes);

        // DP over (rank, candidate boundary): dp[c] = cheapest way to
        // cover the first `cand[c]` elements with the spans of ranks
        // 0..p. Cost is lexicographic (moved bytes, imbalance), where
        // imbalance is the span's element-count deviation from the
        // balanced split — so among equally-cheap schedules the balanced
        // one wins, and a same-layout read degenerates to zero moves.
        // Ties go to the earliest start boundary.
        let target = |p: usize| -> usize { ((p + 1) * n) / nprocs - (p * n) / nprocs };
        let mut dp: Vec<Option<(u64, u64)>> = vec![None; r + 1];
        dp[0] = Some((0, 0));
        // choice[p][c] = boundary index where rank p's span starts.
        let mut choice = vec![vec![0usize; r + 1]; nprocs];
        let mut notowned = vec![0u64; r + 1];
        for (p, choice) in choice.iter_mut().enumerate() {
            for c in 0..r {
                let moved = if runs[c].owner == p { 0 } else { runs[c].bytes };
                notowned[c + 1] = notowned[c] + moved;
            }
            dp = span_step(&dp, &cand, &notowned, target(p), choice);
        }

        // Reconstruct the span boundaries (as run indices).
        let mut bounds = vec![0usize; nprocs + 1];
        bounds[nprocs] = r;
        for p in (0..nprocs).rev() {
            bounds[p] = choice[p][bounds[p + 1]];
        }
        let spans: Vec<(usize, usize)> = (0..nprocs)
            .map(|p| (cand[bounds[p]], cand[bounds[p + 1]]))
            .collect();
        let byte_spans: Vec<(u64, u64)> = (0..nprocs)
            .map(|p| (total_pref[bounds[p]], total_pref[bounds[p + 1]]))
            .collect();

        // Emit the per-pair transfer intervals: spans start and end at
        // run boundaries and runs are maximal, so each run of a span is
        // one coalesced interval toward its owner.
        let mut messages: Vec<Transfer> = Vec::new();
        let mut retained: Vec<Transfer> = Vec::new();
        let mut lower_bound = 0u64;
        for p in 0..nprocs {
            let mut per_dst: Vec<Option<Transfer>> = vec![None; nprocs];
            for run in &runs[bounds[p]..bounds[p + 1]] {
                let t = per_dst[run.owner].get_or_insert_with(|| Transfer {
                    src: p,
                    dst: run.owner,
                    intervals: Vec::new(),
                    bytes: 0,
                    elements: 0,
                });
                t.intervals.push(Interval {
                    start: run.start,
                    len: run.len,
                    bytes: run.bytes,
                });
                t.bytes += run.bytes;
                t.elements += run.len as u64;
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

        RedistPlan {
            nprocs,
            n,
            spans,
            byte_spans,
            messages,
            retained,
            lower_bound,
        }
    }

    /// Number of ranks the plan was built for.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Number of file-order elements covered.
    pub fn n_elements(&self) -> usize {
        self.n
    }

    /// Phase-1 file-order span `[lo, hi)` read by `rank`.
    pub fn span(&self, rank: usize) -> (usize, usize) {
        self.spans[rank]
    }

    /// Byte range `[lo, hi)` of [`RedistPlan::span`]`(rank)` within the
    /// record's data region.
    pub fn byte_span(&self, rank: usize) -> (u64, u64) {
        self.byte_spans[rank]
    }

    /// Cross-rank transfers, sorted by `(src, dst)`. One message each.
    pub fn messages(&self) -> &[Transfer] {
        &self.messages
    }

    /// Locally-retained transfers (`src == dst`): memmoves, not messages.
    pub fn retained(&self) -> &[Transfer] {
        &self.retained
    }

    /// Total message payload bytes — the analytic minimum a zero-overhead
    /// executor must hit exactly.
    pub fn lower_bound(&self) -> u64 {
        self.lower_bound
    }

    /// Payload bytes scheduled from `src` to `dst` (0 when no transfer).
    pub fn pair_bytes(&self, src: usize, dst: usize) -> u64 {
        self.messages
            .iter()
            .find(|t| t.src == src && t.dst == dst)
            .map(|t| t.bytes)
            .unwrap_or(0)
    }

    /// Whether the plan moves nothing between ranks.
    pub fn is_identity(&self) -> bool {
        self.messages.is_empty()
    }
}

/// One rank's DP step: for every end boundary `cj`, the cheapest
/// `prev[ci] + (moved(ci, cj), imbalance(ci, cj))` over `ci <= cj`,
/// recording the winning `ci` (the smallest on ties) in `choice[cj]`.
///
/// `moved = notowned[cj] - notowned[ci]` separates, so the first
/// component is minimised by the running minimum of `a(ci) =
/// prev[ci].0 - notowned[ci]`; the set of boundaries attaining it (the
/// *tie set*) restarts whenever that minimum drops. Within the tie set
/// the second component is `prev[ci].1 + |x - cand[ci]|` with `x =
/// cand[cj] - target`, and `x` only grows with `cj`: boundaries with
/// `cand[ci] <= x` sit left of the kink and keep a running minimum of
/// `prev[ci].1 - cand[ci]`, the rest sit right of it and form a sliding
/// window whose minimum of `prev[ci].1 + cand[ci]` a monotone deque
/// tracks. Every boundary enters and leaves each structure once: O(r).
fn span_step(
    prev: &[Option<(u64, u64)>],
    cand: &[usize],
    notowned: &[u64],
    target: usize,
    choice: &mut [usize],
) -> Vec<Option<(u64, u64)>> {
    let mut next = vec![None; prev.len()];
    let mut best_a: Option<i128> = None;
    let mut ties: Vec<usize> = Vec::new();
    let mut crossed = 0usize;
    // (prev[ci].1 - cand[ci], ci): best boundary left of the kink.
    let mut left: Option<(i64, usize)> = None;
    // Boundaries right of the kink, prev[ci].1 + cand[ci] non-decreasing.
    let mut right: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let right_key = |ci: usize, d1: u64| d1 as i64 + cand[ci] as i64;
    for cj in 0..prev.len() {
        if let Some((d0, d1)) = prev[cj] {
            let a = d0 as i128 - notowned[cj] as i128;
            if best_a.is_none_or(|b| a < b) {
                best_a = Some(a);
                ties.clear();
                crossed = 0;
                left = None;
                right.clear();
            }
            if best_a == Some(a) {
                ties.push(cj);
                let key = right_key(cj, d1);
                while right
                    .back()
                    .is_some_and(|&b| right_key(b, prev[b].expect("tie is reachable").1) > key)
                {
                    right.pop_back();
                }
                right.push_back(cj);
            }
        }
        if ties.is_empty() {
            continue;
        }
        let x = cand[cj] as i64 - target as i64;
        while crossed < ties.len() && cand[ties[crossed]] as i64 <= x {
            let ci = ties[crossed];
            let v = prev[ci].expect("tie is reachable").1 as i64 - cand[ci] as i64;
            if left.is_none_or(|(best, _)| v < best) {
                left = Some((v, ci));
            }
            crossed += 1;
        }
        while right.front().is_some_and(|&f| cand[f] as i64 <= x) {
            right.pop_front();
        }
        let left_best = left.map(|(v, ci)| (v + x, ci));
        let right_best = right
            .front()
            .map(|&ci| (right_key(ci, prev[ci].expect("tie is reachable").1) - x, ci));
        let (_, ci) = match (left_best, right_best) {
            (Some(l), Some(r)) => l.min(r),
            (l, r) => l.or(r).expect("the tie set is not empty"),
        };
        let (d0, d1) = prev[ci].expect("tie is reachable");
        let imbalance = (cand[cj] - cand[ci]).abs_diff(target) as u64;
        next[cj] = Some((d0 + (notowned[cj] - notowned[ci]), d1 + imbalance));
        choice[cj] = ci;
    }
    next
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_destination_yields_no_messages() {
        // File order already grouped by destination in rank order, with
        // ragged block sizes: the DP must align to the blocks exactly.
        let dst = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 3];
        let sizes = [5u64, 0, 3, 9, 2, 2, 2, 7, 1, 1, 1, 30];
        let plan = RedistPlan::new(4, &sizes, &dst);
        assert!(plan.is_identity(), "{plan:?}");
        assert_eq!(plan.lower_bound(), 0);
        assert_eq!(plan.span(0), (0, 4));
        assert_eq!(plan.span(3), (11, 12));
        let retained_bytes: u64 = plan.retained().iter().map(|t| t.bytes).sum();
        assert_eq!(retained_bytes, sizes.iter().sum::<u64>());
    }

    #[test]
    fn single_destination_assigns_everything_to_it() {
        let dst = [2usize; 9];
        let sizes = [4u64; 9];
        let plan = RedistPlan::new(4, &sizes, &dst);
        assert!(plan.is_identity(), "{plan:?}");
        assert_eq!(plan.span(2), (0, 9));
    }

    #[test]
    fn scheduled_bytes_are_exactly_the_mismatched_bytes() {
        // Alternating destinations: whatever spans the DP picks, the
        // per-pair bytes must be exactly the mismatched sizes.
        let dst = [0, 1, 0, 1, 0, 1, 0, 1];
        let sizes = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let plan = RedistPlan::new(2, &sizes, &dst);
        let mut want = 0u64;
        for (e, &d) in dst.iter().enumerate() {
            let (lo0, hi0) = plan.span(0);
            let reader = if e >= lo0 && e < hi0 { 0 } else { 1 };
            if reader != d {
                want += sizes[e];
            }
        }
        assert_eq!(plan.lower_bound(), want);
        let sum: u64 = plan.messages().iter().map(|t| t.bytes).sum();
        assert_eq!(sum, want);
    }

    #[test]
    fn intervals_are_coalesced_and_cover_each_span() {
        let dst = [1, 1, 0, 0, 1, 1, 0, 0];
        let sizes = [1u64; 8];
        let plan = RedistPlan::new(2, &sizes, &dst);
        for p in 0..2 {
            let (lo, hi) = plan.span(p);
            let mut covered: Vec<usize> = Vec::new();
            for t in plan.messages().iter().chain(plan.retained()) {
                if t.src != p {
                    continue;
                }
                for iv in &t.intervals {
                    assert!(iv.start >= lo && iv.start + iv.len <= hi);
                    covered.extend(iv.start..iv.start + iv.len);
                }
            }
            covered.sort_unstable();
            let want: Vec<usize> = (lo..hi).collect();
            assert_eq!(covered, want, "span of rank {p} exactly covered");
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let plan = RedistPlan::new(3, &[], &[]);
        assert!(plan.is_identity());
        for p in 0..3 {
            assert_eq!(plan.span(p), (0, 0));
        }
    }

    #[test]
    fn more_ranks_than_elements() {
        let dst = [4, 0];
        let sizes = [8u64, 8];
        let plan = RedistPlan::new(6, &sizes, &dst);
        let total: u64 = plan
            .messages()
            .iter()
            .chain(plan.retained())
            .map(|t| t.bytes)
            .sum();
        assert_eq!(total, 16);
    }

    #[test]
    #[should_panic(expected = "one destination per element")]
    fn mismatched_inputs_panic() {
        RedistPlan::new(2, &[1, 2], &[0]);
    }
}
