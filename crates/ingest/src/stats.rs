//! Column statistics the compactor reads when choosing a flush encoding.
//!
//! Computed once per flushed column, in one O(1)-per-value pass over the
//! key-sorted rows: min/max bound the domain, and the count of maximal
//! non-decreasing runs measures how model-friendly the column is — long
//! runs mean the learned partitioner will fit cheap linear models, short
//! runs mean the column is noise and plain storage is the better deal.

/// Statistics over one column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnStats {
    /// Values pushed so far.
    pub rows: u64,
    /// Smallest value seen.
    pub min: u64,
    /// Largest value seen.
    pub max: u64,
    /// Most recent value pushed.
    pub last: u64,
    /// Number of maximal non-decreasing runs. A fully sorted column has one
    /// run; a strictly decreasing column has one run per value.
    pub runs: u64,
}

impl Default for ColumnStats {
    fn default() -> Self {
        Self {
            rows: 0,
            min: u64::MAX,
            max: 0,
            last: 0,
            runs: 0,
        }
    }
}

impl ColumnStats {
    /// The stats of a whole column.
    pub fn of(values: &[u64]) -> ColumnStats {
        let mut s = ColumnStats::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    /// Fold one value in. O(1): a handful of compares and adds.
    pub fn push(&mut self, v: u64) {
        if self.rows == 0 {
            self.runs = 1;
        } else if v < self.last {
            self.runs += 1;
        }
        self.rows += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Whether every pushed value was `>=` its predecessor.
    pub fn is_non_decreasing(&self) -> bool {
        self.runs <= 1
    }

    /// Mean length of the non-decreasing runs; `0.0` before any push.
    /// Long runs (say `>= 4`) are the hint that a learned model will pay off.
    pub fn avg_run_len(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.rows as f64 / self.runs as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_min_max_and_runs() {
        let s = ColumnStats::of(&[5, 7, 7, 9, 2, 3, 1]);
        assert_eq!((s.min, s.max), (1, 9));
        assert_eq!(s.rows, 7);
        assert_eq!(s.runs, 3); // [5 7 7 9] [2 3] [1]
        assert!(!s.is_non_decreasing());
        assert_eq!(ColumnStats::of(&[1, 2, 3]).runs, 1);
        assert!(ColumnStats::of(&[1, 2, 3]).is_non_decreasing());
    }
}
