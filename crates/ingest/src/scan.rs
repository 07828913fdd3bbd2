//! Snapshot scans over a live table: memtable + frozen segments + compacted
//! row groups, folded into one exact [`Partial`].
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
use leco_columnar::exec::{
    filter_chunk, group_by_avg_chunk_zoned, sum_selected_chunk, GroupScratch, Partial, QueryStats,
};
use leco_columnar::{Bitmap, TableFile};
use leco_scan::{Agg, ScanError, ScanPlan, Scanner};
use std::collections::{BTreeMap, HashSet};

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

/// Whether any tombstoned key could live in `file`, judged by the key
/// column's zone maps. False positives only cost a masked scan / rewrite.
pub(crate) fn file_may_contain(file: &TableFile, key_col: usize, keys: &HashSet<u64>) -> bool {
    if keys.is_empty() {
        return false;
    }
    (0..file.num_row_groups()).any(|rg| {
        let (min, max) = file.zone_map(rg, key_col);
        keys.iter().any(|&k| (min..=max).contains(&k))
    })
}

/// Scan one compacted file with no tombstones touching it: delegate to the
/// morsel-driven [`Scanner`] at the requested thread count. Every row of
/// the file is live, so all of them count as scanned.
pub(crate) fn scan_file_clean(
    file: &TableFile,
    plan: &ScanPlan,
    threads: usize,
) -> std::io::Result<Partial> {
    let scanned = Scanner::with_plan(file, *plan).run_partial(threads);
    let (mut partial, _) = scanned.map_err(|e| match e {
        ScanError::Io(e) => e,
        other => std::io::Error::other(other),
    })?;
    partial.rows_scanned = file.num_rows() as u64;
    Ok(partial)
}

/// Scan one compacted file that tombstones may touch: build an alive bitmap
/// from the key column (`key ∉ tombstones`), intersect it with the filter
/// selection, and aggregate with the shared chunk kernels. Single-threaded —
/// masked files exist only in the window between a delete and the next
/// compaction. Row groups that survive the filter's zone maps count as
/// morsels, as they do in a [`Scanner`] run.
pub(crate) fn scan_file_masked(
    file: &TableFile,
    key_col: usize,
    tombstones: &HashSet<u64>,
    plan: &ScanPlan,
    acc: &mut Partial,
) -> std::io::Result<()> {
    let n = file.num_rows();
    let reader = file.chunk_reader()?;
    let mut stats = QueryStats::default();
    let mut decode: Vec<u64> = Vec::new();

    // Alive bitmap: one pass over the key column.
    let mut alive = Bitmap::new(n);
    let mut live_rows = 0u64;
    for rg in 0..file.num_row_groups() {
        let chunk = reader.read_chunk(rg, key_col, &mut stats)?;
        let (row_start, _) = file.row_group_range(rg);
        decode.clear();
        chunk.decode_into(&mut decode);
        for (local, key) in decode.iter().enumerate() {
            if !tombstones.contains(key) {
                alive.set(row_start + local);
                live_rows += 1;
            }
        }
    }
    acc.rows_scanned += live_rows;

    // Selection: filter ∧ alive (or alive alone when unfiltered).
    let sel = match plan.filter {
        Some((col, lo, hi)) => {
            let mut sel = Bitmap::new(n);
            for rg in 0..file.num_row_groups() {
                let (zmin, zmax) = file.zone_map(rg, col);
                if zmax < lo || zmin > hi {
                    continue;
                }
                acc.morsels += 1;
                let chunk = reader.read_chunk(rg, col, &mut stats)?;
                let (row_start, _) = file.row_group_range(rg);
                filter_chunk(
                    chunk,
                    lo,
                    hi,
                    false,
                    row_start,
                    &mut sel,
                    &mut decode,
                    &mut stats,
                );
            }
            sel.and(&alive);
            sel
        }
        None => {
            acc.morsels += file.num_row_groups();
            alive
        }
    };
    acc.rows_selected += sel.count_ones() as u64;

    let mut group = GroupScratch::default();
    for rg in 0..file.num_row_groups() {
        let (row_start, row_end) = file.row_group_range(rg);
        if sel.count_ones_in(row_start, row_end) == 0 {
            continue;
        }
        match plan.agg {
            Agg::Count => {}
            Agg::Sum(col) => {
                let chunk = reader.read_chunk(rg, col, &mut stats)?;
                acc.sum += sum_selected_chunk(chunk, &sel, row_start, &mut decode);
            }
            Agg::GroupAvg { id_col, val_col } => {
                let ids = reader.read_chunk(rg, id_col, &mut stats)?;
                let vals = reader.read_chunk(rg, val_col, &mut stats)?;
                group_by_avg_chunk_zoned(
                    ids,
                    vals,
                    file.zone_map(rg, id_col),
                    &sel,
                    row_start,
                    &mut group,
                    &mut acc.groups,
                );
            }
        }
    }
    Ok(())
}
