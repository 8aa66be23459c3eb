//! Sample statistics and failure accounting.

/// Samples that must lie beyond a percentile for it to count as the tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// A tail latency together with the percentile it sits at and the sample
/// count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail percentile.
    pub value: f64,
    /// The percentile, `100 * (n - 10) / n`.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has [`TAIL_BEYOND`]
/// samples ranked beyond it: the `(n - 10)`-th smallest of `n` samples.
/// Returns `None` when there are too few samples to have such a tail.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: s[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// Operations attempted and failed, plus invariant violations that make a
/// run incorrect without being an operation of their own (a virtual-time
/// mismatch, for instance).
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, shed or aborted requests, and
    /// operations whose output did not check out.
    pub failed: u64,
    /// First few failure and violation descriptions, for the report.
    pub notes: Vec<String>,
    /// Invariant violations.
    pub violations: u64,
}

/// Descriptions kept per run; later ones are only counted.
const MAX_NOTES: usize = 16;

impl Tally {
    /// Count one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what());
        }
    }

    /// Record an invariant violation.
    pub fn violation(&mut self, what: String) {
        self.violations += 1;
        self.note(what);
    }

    /// Add the operations, failures and violations another tally counted.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.violations += other.violations;
        for what in other.notes {
            self.note(what);
        }
    }

    fn note(&mut self, what: String) {
        if self.notes.len() < MAX_NOTES {
            self.notes.push(what);
        }
    }

    /// Failed operations over attempted (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when every operation succeeded, at least one was attempted,
    /// and no invariant broke.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.violations == 0
    }
}

/// Remembers the first value it sees and reports every later value that
/// differs: virtual time must be bit-identical wherever it is measured.
#[derive(Debug, Default)]
pub struct Pin {
    first: Option<u64>,
}

impl Pin {
    /// Check `value` against the pinned one; the first call pins it.
    pub fn check(&mut self, what: &str, value: u64, tally: &mut Tally) {
        match self.first {
            None => self.first = Some(value),
            Some(v) if v == value => {}
            Some(v) => tally.violation(format!("{what}: {value} differs from pinned {v}")),
        }
    }

    /// The pinned value, if any.
    pub fn value(&self) -> Option<u64> {
        self.first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        assert_eq!(tail(&[1.0; 10]), None);
        let t = tail(&[1.0; 11]).unwrap();
        assert_eq!(t.value, 1.0);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ranks_ties_by_position() {
        // Twenty equal slow samples: the tail reads the slow value even
        // though no sample is strictly greater.
        let mut xs = vec![1.0; 30];
        xs.extend([5.0; 20]);
        assert_eq!(tail(&xs).unwrap().value, 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        assert!(!t.correct(), "nothing attempted is not a pass");
        for _ in 0..4 {
            t.op(true, || unreachable!());
        }
        assert!(t.correct());
        t.op(false, || "shed".into());
        assert_eq!((t.attempted, t.failed), (5, 1));
        assert_eq!(t.failed_share(), 0.2);
        assert!(!t.correct());
        assert_eq!(t.notes, vec!["shed".to_string()]);
    }

    #[test]
    fn violations_fail_without_counting_as_ops() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        t.op(true, || unreachable!());
        let mut pin = Pin::default();
        pin.check("vtime", 7, &mut t);
        pin.check("vtime", 7, &mut t);
        assert!(t.correct());
        pin.check("vtime", 8, &mut t);
        assert_eq!((t.attempted, t.failed, t.violations), (2, 0, 1));
        assert!(!t.correct());
        assert_eq!(pin.value(), Some(7));
    }

    #[test]
    fn an_absorbed_tally_keeps_its_failures() {
        let mut t = Tally::default();
        t.op(true, || unreachable!());
        let mut sub = Tally::default();
        sub.op(true, || unreachable!());
        sub.op(false, || "hazard".into());
        sub.violation("vtime".into());
        t.absorb(sub);
        assert_eq!((t.attempted, t.failed, t.violations), (3, 1, 1));
        assert_eq!(t.notes, vec!["hazard".to_string(), "vtime".to_string()]);
        assert!(!t.correct());
    }
}
