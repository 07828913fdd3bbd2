//! Snapshot scans over a live table's in-memory rows: the memtable and the
//! frozen segments, folded into one exact [`Partial`]. Compacted files do
//! not come through here: `LiveTable::scan` runs each one through the
//! morsel-driven `leco_scan::Scanner`, its tombstoned keys masked per row
//! group.
//!
//! Bit-identity contract: every tier adds exact integers into the same
//! [`Partial`] — row counts in `u64`, sums in `u128`, group-by partials as
//! `(sum: u128, count: u64)` — and the one lossy operation (the f64 division
//! of a group average) happens exactly once, on the fully merged partial,
//! via [`Partial::group_avgs`]. `leco-scan` merges morsels and `leco-server`
//! merges shards through the same [`Partial::merge`], so a live-table scan,
//! a one-shot `Scanner`, and a sharded server scan all produce bit-identical
//! answers over the same rows, regardless of how the rows happen to be
//! spread across memtable, frozen segments and files.

use crate::segment::FrozenSegment;
use leco_columnar::Partial;
use leco_scan::{Agg, ScanPlan};
use std::collections::BTreeMap;

/// Accumulate over in-memory row data (`columns` vectors), with an optional
/// per-row alive test. Used for the memtable (`alive` = `None`) and frozen
/// segments (`alive` = the segment's mask). Group partials collect in an
/// ordered map local to the call and merge into `acc` once, as one sorted
/// run.
pub(crate) fn scan_rows(
    columns: &[Vec<u64>],
    alive: Option<&FrozenSegment>,
    plan: &ScanPlan,
    acc: &mut Partial,
) {
    let rows = columns.first().map_or(0, Vec::len);
    let mut groups: BTreeMap<u64, (u128, u64)> = BTreeMap::new();
    // One index walks several parallel column vectors; an iterator would
    // only cover one of them.
    #[allow(clippy::needless_range_loop)]
    for i in 0..rows {
        if let Some(seg) = alive {
            if !seg.is_alive(i) {
                continue;
            }
        }
        acc.rows_scanned += 1;
        if let Some((col, lo, hi)) = plan.filter {
            let v = columns[col][i];
            if v < lo || v > hi {
                continue;
            }
        }
        acc.rows_selected += 1;
        match plan.agg {
            Agg::Count => {}
            Agg::Sum(col) => acc.sum += columns[col][i] as u128,
            Agg::GroupAvg { id_col, val_col } => {
                let entry = groups.entry(columns[id_col][i]).or_insert((0, 0));
                entry.0 += columns[val_col][i] as u128;
                entry.1 += 1;
            }
        }
    }
    acc.merge(Partial {
        groups: groups.into_iter().map(|(id, (s, c))| (id, s, c)).collect(),
        ..Partial::default()
    });
}
