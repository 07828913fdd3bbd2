//! `leco-obs` boundary: the program's existing counters, read not added.
//!
//! Pinned API: `Registry::global().snapshot()`,
//! `MetricsSnapshot::counter_delta`, `HistSnapshot::{count, sum}`.

use leco_obs::{MetricsSnapshot, Registry};

#[derive(Default)]
pub struct Snapshot(MetricsSnapshot);

pub fn snapshot() -> Snapshot {
    Snapshot(Registry::global().snapshot())
}

impl Snapshot {
    /// How much counter `name` grew since `earlier`.
    pub fn counter_since(&self, earlier: &Snapshot, name: &str) -> f64 {
        self.0.counter_delta(&earlier.0, name) as f64
    }

    /// Seconds histogram `name` (recorded in ns) accumulated since `earlier`.
    pub fn hist_seconds_since(&self, earlier: &Snapshot, name: &str) -> f64 {
        let sum = |s: &MetricsSnapshot| s.histograms.get(name).map_or(0, |h| h.sum);
        sum(&self.0).saturating_sub(sum(&earlier.0)) as f64 / 1e9
    }
}
