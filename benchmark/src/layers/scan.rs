//! `leco-scan` boundary: one `Scanner` run per shard file, one thread.
//!
//! Pinned API: `Scanner::{new, filter, sum, group_by_avg, run}` and the
//! fields of `ScanResult` (`rows_selected`, `sum`, `group_partials`,
//! `morsels`, `stats.row_groups_pruned`).

use crate::ops::{ScanAgg, ScanQuery};
use leco_columnar::TableFile;
pub use leco_scan::ScanResult;
use leco_scan::Scanner;

pub fn run(table: &TableFile, q: &ScanQuery) -> std::io::Result<ScanResult> {
    let mut scan = Scanner::new(table);
    if let Some((col, lo, hi)) = q.filter {
        scan = scan.filter(col, lo, hi);
    }
    scan = match q.agg {
        ScanAgg::Count => scan,
        ScanAgg::SumVal => scan.sum("val"),
        ScanAgg::GroupByIdAvgVal => scan.group_by_avg("id", "val"),
    };
    scan.run(1).map_err(std::io::Error::other)
}
