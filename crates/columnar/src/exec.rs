//! Compute kernels and query drivers for the §5.1 experiments.
//!
//! The engine uses late materialisation: the filter produces a selection
//! [`Bitmap`], and the group-by / aggregation kernels consume it per row
//! group in one of two ways.  A sparse selection random-accesses only the
//! qualifying positions of the (still encoded) columns; a dense one
//! bulk-decodes the chunks and walks the selection run by run over the
//! decoded buffers, and `GROUP BY` adds those runs into a dense per-chunk
//! table when the chunk's ids span at most half its rows.  Every driver
//! accumulates a [`QueryStats`] separating I/O time (reading chunk bytes from
//! the data file) from CPU time (decoding + compute), which is the breakdown
//! plotted in Figures 18, 19 and 21.
//!
//! The module is layered so a parallel engine can drive it:
//!
//! * **stateless per-chunk kernels** ([`filter_chunk`], [`group_by_avg_chunk`],
//!   [`sum_selected_chunk`]) operate on one row group's encoded chunks plus
//!   explicitly passed scratch; they hold no references to the file and can
//!   run on any thread,
//! * **[`ScanScratch`]** bundles the per-worker mutable state the kernels
//!   write into (decode buffers, a selection bitmap, a [`Partial`] and
//!   per-worker [`QueryStats`]),
//! * **[`Partial`]** is the exact integer result every layer folds — morsel
//!   into worker, worker into scan, file into live table, shard into reply —
//!   with its one [`Partial::merge`]; [`Partial::group_avgs`] divides once,
//!   at the end,
//! * the **single-threaded drivers** ([`filter_range`], [`group_by_avg`],
//!   [`sum_selected`]) iterate row groups and compose the kernels; the
//!   `leco-scan` crate composes the same kernels from a worker pool.

use crate::bitmap::Bitmap;
use crate::encoding::EncodedColumn;
use crate::file::TableFile;
use leco_obs::Stopwatch;
use std::collections::HashMap;

/// Per-query accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryStats {
    /// Bytes read from the data file.
    pub io_bytes: u64,
    /// Seconds spent reading from the data file.
    pub io_seconds: f64,
    /// Seconds spent decoding and computing.
    pub cpu_seconds: f64,
    /// Column chunks actually read from the data file.
    pub chunks_read: u64,
    /// Row groups skipped before any I/O because their zone map (or bitmap
    /// slice) proved no row could qualify.
    pub row_groups_pruned: u64,
    /// Rows whose filter outcome was resolved without reconstructing the
    /// value: inside a model-inverse definite/excluded band (LeCo), resolved
    /// from a frame header envelope (FOR, constant Delta frames), or covered
    /// by a sorted-column binary search.
    pub rows_skipped_by_model: u64,
    /// Rows reconstructed (or compared in the packed domain) only because
    /// they fall in a correction-slack boundary band or a partially
    /// overlapping frame — the residual work of the pushdown kernels.
    pub boundary_rows_decoded: u64,
    /// Rows that went through a full value reconstruction with no help from
    /// the model or frame headers (decode-then-filter, fused Delta scans).
    pub rows_decoded_full: u64,
}

impl QueryStats {
    /// Total elapsed seconds attributed to the query.
    pub fn total_seconds(&self) -> f64 {
        self.io_seconds + self.cpu_seconds
    }

    /// Charge one chunk read: `seconds` of I/O time for `bytes` stored
    /// bytes. The wall-clock lands in `io_seconds` unconditionally; the same
    /// duration is mirrored into the shared `columnar.chunk_io_ns` histogram
    /// so per-chunk latency percentiles exist without a second clock read.
    pub fn charge_io(&mut self, seconds: f64, bytes: u64) {
        self.io_seconds += seconds;
        self.io_bytes += bytes;
        self.chunks_read += 1;
        leco_obs::histogram!("columnar.chunk_io_ns").record_secs(seconds);
    }

    /// Charge `seconds` of decode/compute time, mirrored into the shared
    /// `columnar.chunk_cpu_ns` histogram (one sample per kernel invocation).
    pub fn charge_cpu(&mut self, seconds: f64) {
        self.cpu_seconds += seconds;
        leco_obs::histogram!("columnar.chunk_cpu_ns").record_secs(seconds);
    }

    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &QueryStats) {
        self.io_bytes += other.io_bytes;
        self.io_seconds += other.io_seconds;
        self.cpu_seconds += other.cpu_seconds;
        self.chunks_read += other.chunks_read;
        self.row_groups_pruned += other.row_groups_pruned;
        self.rows_skipped_by_model += other.rows_skipped_by_model;
        self.boundary_rows_decoded += other.boundary_rows_decoded;
        self.rows_decoded_full += other.rows_decoded_full;
    }
}

/// Exact partial aggregates of a scan: what a morsel, a worker, a file, a
/// live table and a shard each produce, and what every layer folds.
///
/// Every field is an exact integer, so [`Self::merge`] is associative and
/// commutative and a result does not depend on how the work was split. The
/// one lossy step, the f64 division of a group average, happens once, in
/// [`Self::group_avgs`], after the last merge.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Partial {
    /// Rows the scan covered. A static file counts the rows of its unpruned
    /// row groups; a live table counts its live snapshot rows.
    pub rows_scanned: u64,
    /// Rows that passed the filter (all scanned rows when there is none).
    pub rows_selected: u64,
    /// Row groups of table files that survived zone-map pruning.
    pub morsels: usize,
    /// `SUM` partial.
    pub sum: u128,
    /// `GROUP BY` partials: id → (sum, count).
    pub groups: HashMap<u64, (u128, u64)>,
}

impl Partial {
    /// Fold `other` into `self` with exact integer arithmetic.
    pub fn merge(&mut self, other: Partial) {
        self.rows_scanned += other.rows_scanned;
        self.rows_selected += other.rows_selected;
        self.morsels += other.morsels;
        self.sum += other.sum;
        if self.groups.is_empty() {
            self.groups = other.groups;
            return;
        }
        for (id, (sum, count)) in other.groups {
            let entry = self.groups.entry(id).or_insert((0, 0));
            entry.0 += sum;
            entry.1 += count;
        }
    }

    /// `(id, avg)` pairs sorted by id: one division per group, after every
    /// integer partial is merged.
    pub fn group_avgs(&self) -> Vec<(u64, f64)> {
        let groups = self.sorted_groups().into_iter();
        groups
            .map(|(id, sum, count)| (id, sum as f64 / count as f64))
            .collect()
    }

    /// The `(id, sum, count)` group partials sorted by id.
    pub fn sorted_groups(&self) -> Vec<(u64, u128, u64)> {
        let mut out: Vec<(u64, u128, u64)> = self
            .groups
            .iter()
            .map(|(&id, &(sum, count))| (id, sum, count))
            .collect();
        out.sort_unstable_by_key(|&(id, _, _)| id);
        out
    }
}

/// Per-worker mutable scan state: everything a morsel kernel writes into.
///
/// A scan allocates one `ScanScratch` per worker thread and reuses it across
/// every morsel that worker processes, so steady-state decoding allocates
/// nothing.  The immutable counterpart — shared file metadata and the file
/// descriptor — lives in [`crate::file::ChunkReader`].
#[derive(Debug, Default)]
pub struct ScanScratch {
    /// Raw stored-chunk byte buffer for positioned reads.
    pub io_buf: Vec<u8>,
    /// Primary decode buffer (filter column / aggregated column).
    pub decode: Vec<u64>,
    /// Secondary decode buffer (group-by value column).
    pub decode2: Vec<u64>,
    /// Selection bitmap; morsel-local (`reset` per morsel) in parallel scans,
    /// table-global in the single-threaded drivers.
    pub sel: Bitmap,
    /// This worker's partial aggregates.
    pub partial: Partial,
    /// Per-worker time/IO accounting, merged into the query total at the end.
    pub stats: QueryStats,
}

impl ScanScratch {
    /// Fresh scratch with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge another worker's partial aggregates and stats into this one.
    /// Integer sums and counts merge exactly, which is what makes parallel
    /// results bit-identical to the single-threaded ones.
    pub fn merge(&mut self, other: ScanScratch) {
        self.partial.merge(other.partial);
        self.stats.merge(&other.stats);
    }
}

/// Evaluate the range predicate over one encoded chunk, setting qualifying
/// positions (offset by `base`) in `sel`.
///
/// **Bound convention** (shared by every filter kernel in this module): both
/// bounds are *inclusive* — a row qualifies iff `lo <= value && value <= hi`.
/// `hi == u64::MAX` therefore selects everything from `lo` up, including
/// rows equal to `u64::MAX` itself, and an inverted predicate (`lo > hi`)
/// selects nothing.  Exclusive bounds are expressed by the caller as
/// `lo + 1` / `hi - 1`.
///
/// Stateless per-morsel kernel: `base` is the chunk's first row inside `sel`
/// (the row-group start for a table-global bitmap, 0 for a morsel-local one),
/// and `decode` is a reusable scratch buffer for the unsorted path.  Does not
/// touch `sel` outside `[base, base + chunk.len())`.  Row accounting: the
/// sorted path resolves every row by binary search without a bulk decode
/// (`rows_skipped_by_model`); the unsorted path reconstructs every row
/// (`rows_decoded_full`).
#[allow(clippy::too_many_arguments)]
pub fn filter_chunk(
    chunk: &EncodedColumn,
    lo: u64,
    hi: u64,
    sorted: bool,
    base: usize,
    sel: &mut Bitmap,
    decode: &mut Vec<u64>,
    stats: &mut QueryStats,
) {
    if sorted {
        stats.rows_skipped_by_model += chunk.len() as u64;
        if lo > hi {
            return;
        }
        let from = chunk.lower_bound_sorted(lo);
        // `hi` is inclusive: the first position with value > hi ends the run.
        // `hi + 1` would wrap at u64::MAX, where no value can exceed hi.
        let to = if hi == u64::MAX {
            chunk.len()
        } else {
            chunk.lower_bound_sorted(hi + 1)
        };
        sel.set_range(base + from, base + to);
    } else {
        stats.rows_decoded_full += chunk.len() as u64;
        decode.clear();
        chunk.decode_into(decode);
        for (local, &v) in decode.iter().enumerate() {
            if (lo..=hi).contains(&v) {
                sel.set(base + local);
            }
        }
    }
}

/// Compressed-execution variant of [`filter_chunk`] (same inclusive-bounds
/// convention): evaluate the predicate *inside* the encoded domain instead of
/// decode-then-filter.
///
/// Kernel per encoding:
///
/// * **LeCo** — model-inverse pushdown
///   ([`leco_core::CompressedColumn::filter_range_pushdown`]): two binary
///   searches over the monotone model per partition yield a definite band
///   (set wholesale) and at most two correction-slack boundary bands (the
///   only rows decoded),
/// * **FOR** — packed-domain comparison: the predicate is rebased by the
///   frame reference and evaluated on the packed words; fully
///   covered/disjoint frames resolve from their 9-byte headers,
/// * **Delta** — fused compare: ZigZag decode, prefix summation and range
///   test ride one bit-extraction loop; constant (zero-width) frames resolve
///   from headers,
/// * **Plain / Dict** — no compressed domain to exploit
///   ([`EncodedColumn::supports_pushdown`] is false): falls back to the
///   unsorted [`filter_chunk`] path.
///
/// Row accounting per chunk is exhaustive:
/// `rows_skipped_by_model + boundary_rows_decoded + rows_decoded_full`
/// grows by exactly `chunk.len()`.
pub fn filter_chunk_pushdown(
    chunk: &EncodedColumn,
    lo: u64,
    hi: u64,
    base: usize,
    sel: &mut Bitmap,
    decode: &mut Vec<u64>,
    stats: &mut QueryStats,
) {
    match chunk {
        EncodedColumn::Leco(c) => {
            let counts =
                c.filter_range_pushdown(lo, hi, decode, |a, b| sel.set_range(base + a, base + b));
            stats.rows_skipped_by_model += counts.rows_skipped_by_model;
            stats.boundary_rows_decoded += counts.boundary_rows_decoded;
            stats.rows_decoded_full += counts.rows_decoded_full;
        }
        EncodedColumn::For(c) => {
            let (skipped, compared) =
                c.filter_range_pushdown(lo, hi, |row, mask, n| sel.or_mask_at(base + row, mask, n));
            stats.rows_skipped_by_model += skipped;
            stats.boundary_rows_decoded += compared;
        }
        EncodedColumn::Delta(c) => {
            let (skipped, examined) =
                c.filter_range_pushdown(lo, hi, |row, mask, n| sel.or_mask_at(base + row, mask, n));
            stats.rows_skipped_by_model += skipped;
            // The fused kernel reconstructs every examined value (prefix sums
            // leave no shortcut), so these are full decodes, not boundary work.
            stats.rows_decoded_full += examined;
        }
        other => filter_chunk(other, lo, hi, false, base, sel, decode, stats),
    }
}

/// Evaluate the pushed-down range predicate `lo <= value <= hi` on column
/// `col`, producing a selection bitmap over the whole table.
///
/// Row groups whose zone map cannot contain a match are skipped without any
/// I/O.  If `sorted` is set, qualifying positions inside a row group are
/// found with two model-guided binary searches (LeCo) instead of a scan —
/// the computation-pruning trick of §5.1.1.
pub fn filter_range(
    file: &TableFile,
    col: usize,
    lo: u64,
    hi: u64,
    sorted: bool,
    stats: &mut QueryStats,
) -> std::io::Result<Bitmap> {
    let mut bitmap = Bitmap::new(file.num_rows());
    let reader = file.chunk_reader()?;
    // One decode buffer reused across row groups: the chunks feed it through
    // the word-parallel `decode_into` bulk path, so an unsorted scan costs a
    // single allocation regardless of the number of row groups.
    let mut scratch: Vec<u64> = Vec::new();
    for rg in 0..file.num_row_groups() {
        let (zmin, zmax) = file.zone_map(rg, col);
        if zmax < lo || zmin > hi {
            stats.row_groups_pruned += 1;
            continue; // zone-map skip: no I/O, no CPU
        }
        let chunk = reader.read_chunk(rg, col, stats)?;
        let (row_start, _) = file.row_group_range(rg);
        let cpu = Stopwatch::start();
        filter_chunk(
            chunk,
            lo,
            hi,
            sorted,
            row_start,
            &mut bitmap,
            &mut scratch,
            stats,
        );
        stats.charge_cpu(cpu.elapsed_secs());
    }
    Ok(bitmap)
}

/// Compressed-execution driver: like the unsorted [`filter_range`] but each
/// surviving row group rides [`filter_chunk_pushdown`], so the predicate is
/// evaluated inside the encoded domain and only boundary rows are decoded.
///
/// Zone-map pruning is identical to [`filter_range`]; the new row counters
/// (`rows_skipped_by_model` / `boundary_rows_decoded` / `rows_decoded_full`)
/// cover exactly the rows of the chunks that reached the kernel — pruned row
/// groups are accounted by `row_groups_pruned`, not by the row counters.
pub fn filter_range_pushdown(
    file: &TableFile,
    col: usize,
    lo: u64,
    hi: u64,
    stats: &mut QueryStats,
) -> std::io::Result<Bitmap> {
    let mut bitmap = Bitmap::new(file.num_rows());
    let reader = file.chunk_reader()?;
    let mut scratch: Vec<u64> = Vec::new();
    for rg in 0..file.num_row_groups() {
        let (zmin, zmax) = file.zone_map(rg, col);
        if zmax < lo || zmin > hi {
            stats.row_groups_pruned += 1;
            continue;
        }
        let chunk = reader.read_chunk(rg, col, stats)?;
        let (row_start, _) = file.row_group_range(rg);
        let cpu = Stopwatch::start();
        filter_chunk_pushdown(chunk, lo, hi, row_start, &mut bitmap, &mut scratch, stats);
        stats.charge_cpu(cpu.elapsed_secs());
    }
    Ok(bitmap)
}

/// A selection denser than one row in `DENSE_DIVISOR` makes the sequential
/// word-parallel decode of the whole row group cheaper than per-position
/// random access (bulk decode amortises to a few cycles per row, while a
/// point access costs a model inference plus a positioned bit extract).
const DENSE_DIVISOR: usize = 16;

/// A dense `GROUP BY` chunk whose ids span at most `rows / TABLE_DIVISOR`
/// aggregates into a table indexed by `id − min` instead of a `HashMap`.
/// Each row then costs an indexed add, and the table's zeroing and its
/// once-per-chunk fold into the map cost at most one slot per two rows, so
/// even a full table stays well below the per-row SipHash lookups it
/// replaces.
const TABLE_DIVISOR: usize = 2;

/// `SELECT AVG(val) ... GROUP BY id` over the positions selected by `bitmap`
/// (the §5.1.1 query shape).  Returns `(id, average)` pairs.
///
/// Composes [`group_by_avg_chunk`] per row group: sparse row groups
/// random-access only the qualifying positions (late materialisation);
/// dense row groups are bulk-decoded and aggregated run by run.
pub fn group_by_avg(
    file: &TableFile,
    id_col: usize,
    val_col: usize,
    bitmap: &Bitmap,
    stats: &mut QueryStats,
) -> std::io::Result<Vec<(u64, f64)>> {
    let reader = file.chunk_reader()?;
    let mut scratch = ScanScratch::new();
    for rg in 0..file.num_row_groups() {
        let (row_start, row_end) = file.row_group_range(rg);
        if bitmap.count_ones_in(row_start, row_end) == 0 {
            stats.row_groups_pruned += 1;
            continue; // row-group skip
        }
        let ids = reader.read_chunk(rg, id_col, stats)?;
        let vals = reader.read_chunk(rg, val_col, stats)?;
        let cpu = Stopwatch::start();
        group_by_avg_chunk(
            ids,
            vals,
            bitmap,
            row_start,
            &mut scratch.decode,
            &mut scratch.decode2,
            &mut scratch.partial.groups,
        );
        stats.charge_cpu(cpu.elapsed_secs());
    }
    Ok(scratch.partial.group_avgs())
}

/// `GROUP BY`-average accumulation over one row group's id/value chunks.
///
/// Stateless per-morsel kernel: consults the selection positions
/// `[base, base + ids.len())` of `sel`, accumulating integer `(sum, count)`
/// partials into `groups`.
///
/// * **Sparse** selections (fewer than one row in `DENSE_DIVISOR`)
///   random-access only the qualifying positions (late materialisation) and
///   add each row to `groups` directly.
/// * **Dense** selections bulk-decode both chunks into the scratch buffers
///   and walk the selection run by run ([`Bitmap::for_each_run_in`]),
///   looping over contiguous slices of the decoded buffers. When the id
///   chunk's span `max − min` is at most `rows / 2` (`TABLE_DIVISOR`), the
///   rows land in a dense table indexed by `id − min` (a "perfect hash"
///   read off the chunk's own min and max), one add per piece of equal
///   consecutive ids within a run, and only the non-empty slots
///   are added to `groups`, once per chunk. A wider span falls back to one
///   `groups` entry per row.
///
/// The table holds the same exact `(u128 sum, u64 count)` pairs as
/// `groups`, so both dense routes add up to the same integers as the sparse
/// one.
pub fn group_by_avg_chunk(
    ids: &EncodedColumn,
    vals: &EncodedColumn,
    sel: &Bitmap,
    base: usize,
    id_buf: &mut Vec<u64>,
    val_buf: &mut Vec<u64>,
    groups: &mut HashMap<u64, (u128, u64)>,
) {
    let rows = ids.len();
    let selected = sel.count_ones_in(base, base + rows);
    if selected == 0 {
        return;
    }
    if selected * DENSE_DIVISOR < rows {
        for pos in sel.iter_ones_in(base, base + rows) {
            let local = pos - base;
            add_to_group(groups, ids.get(local), vals.get(local) as u128, 1);
        }
        return;
    }
    id_buf.clear();
    val_buf.clear();
    ids.decode_into(id_buf);
    vals.decode_into(val_buf);
    let (id_buf, val_buf) = (&id_buf[..], &val_buf[..]);
    let (min, max) = id_buf
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)));
    if max - min <= (rows / TABLE_DIVISOR) as u64 {
        let mut table = vec![(0u128, 0u64); (max - min) as usize + 1];
        // Each selection run is cut where the id changes; a piece of equal
        // ids is summed in a register and added to its slot once.
        sel.for_each_run_in(base, base + rows, |from, to| {
            let (from, to) = (from - base, to - base);
            let (ids, vals) = (&id_buf[from..to], &val_buf[from..to]);
            let mut i = 0;
            while i < ids.len() {
                let (id, mut sum, mut end) = (ids[i], vals[i] as u128, i + 1);
                while end < ids.len() && ids[end] == id {
                    sum += vals[end] as u128;
                    end += 1;
                }
                let slot = &mut table[(id - min) as usize];
                slot.0 += sum;
                slot.1 += (end - i) as u64;
                i = end;
            }
        });
        for (offset, (sum, count)) in table.into_iter().enumerate() {
            if count > 0 {
                add_to_group(groups, min + offset as u64, sum, count);
            }
        }
    } else {
        sel.for_each_run_in(base, base + rows, |from, to| {
            let (from, to) = (from - base, to - base);
            for (&id, &val) in id_buf[from..to].iter().zip(&val_buf[from..to]) {
                add_to_group(groups, id, val as u128, 1);
            }
        });
    }
}

fn add_to_group(groups: &mut HashMap<u64, (u128, u64)>, id: u64, sum: u128, count: u64) {
    let entry = groups.entry(id).or_insert((0, 0));
    entry.0 += sum;
    entry.1 += count;
}

/// Bitmap aggregation (§5.1.2): sum of the selected positions of one column.
/// Row groups whose bitmap slice is all zero are skipped entirely; the rest
/// go through [`sum_selected_chunk`].
pub fn sum_selected(
    file: &TableFile,
    col: usize,
    bitmap: &Bitmap,
    stats: &mut QueryStats,
) -> std::io::Result<u128> {
    let reader = file.chunk_reader()?;
    let mut total: u128 = 0;
    let mut buf: Vec<u64> = Vec::new();
    for rg in 0..file.num_row_groups() {
        let (row_start, row_end) = file.row_group_range(rg);
        if bitmap.count_ones_in(row_start, row_end) == 0 {
            stats.row_groups_pruned += 1;
            continue;
        }
        let chunk = reader.read_chunk(rg, col, stats)?;
        let cpu = Stopwatch::start();
        total += sum_selected_chunk(chunk, bitmap, row_start, &mut buf);
        stats.charge_cpu(cpu.elapsed_secs());
    }
    Ok(total)
}

/// Sum-aggregation over one row group's chunk: adds up the values at the
/// selection positions `[base, base + chunk.len())` of `sel`.
///
/// Stateless per-morsel kernel with the same dense/sparse split as
/// [`group_by_avg_chunk`]: a sparse selection random-accesses each
/// qualifying position; a dense one bulk-decodes into `buf` (reusable
/// scratch) and sums the decoded slice of every run of the selection
/// ([`Bitmap::for_each_run_in`]).
pub fn sum_selected_chunk(
    chunk: &EncodedColumn,
    sel: &Bitmap,
    base: usize,
    buf: &mut Vec<u64>,
) -> u128 {
    let rows = chunk.len();
    let selected = sel.count_ones_in(base, base + rows);
    if selected == 0 {
        return 0;
    }
    if selected * DENSE_DIVISOR < rows {
        return sel
            .iter_ones_in(base, base + rows)
            .map(|pos| chunk.get(pos - base) as u128)
            .sum();
    }
    buf.clear();
    chunk.decode_into(buf);
    let mut total: u128 = 0;
    sel.for_each_run_in(base, base + rows, |from, to| {
        total += buf[from - base..to - base]
            .iter()
            .map(|&v| v as u128)
            .sum::<u128>();
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::Encoding;
    use crate::file::{BlockCompression, TableFileOptions};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leco-exec-test-{}-{}", std::process::id(), name));
        p
    }

    /// Reference implementation operating on the raw vectors.
    fn reference_query(ts: &[u64], id: &[u64], val: &[u64], lo: u64, hi: u64) -> Vec<(u64, f64)> {
        let mut sums: HashMap<u64, (u128, u64)> = HashMap::new();
        for i in 0..ts.len() {
            if (lo..=hi).contains(&ts[i]) {
                let e = sums.entry(id[i]).or_insert((0, 0));
                e.0 += val[i] as u128;
                e.1 += 1;
            }
        }
        let mut out: Vec<(u64, f64)> = sums
            .into_iter()
            .map(|(k, (s, c))| (k, s as f64 / c as f64))
            .collect();
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    fn build(
        n: usize,
        encoding: Encoding,
        name: &str,
    ) -> (TableFile, Vec<u64>, Vec<u64>, Vec<u64>, PathBuf) {
        let ts: Vec<u64> = (0..n as u64).map(|i| 1_000 + i * 2).collect();
        let id: Vec<u64> = (0..n as u64).map(|i| i % 50 + 1).collect();
        let val: Vec<u64> = (0..n as u64).map(|i| (i * 37) % 10_000).collect();
        let path = tmp(name);
        let file = TableFile::write(
            &path,
            &["ts", "id", "val"],
            &[ts.clone(), id.clone(), val.clone()],
            TableFileOptions {
                encoding,
                row_group_size: 8_000,
                block_compression: BlockCompression::None,
            },
        )
        .unwrap();
        (file, ts, id, val, path)
    }

    #[test]
    fn filter_groupby_matches_reference_for_all_encodings() {
        for (k, enc) in [
            Encoding::Default,
            Encoding::Delta,
            Encoding::For,
            Encoding::Leco,
        ]
        .iter()
        .enumerate()
        {
            let (file, ts, id, val, path) = build(30_000, *enc, &format!("fga{k}"));
            let (lo, hi) = (5_000u64, 9_000u64);
            let mut stats = QueryStats::default();
            let bitmap = filter_range(&file, 0, lo, hi, true, &mut stats).unwrap();
            let got = group_by_avg(&file, 1, 2, &bitmap, &mut stats).unwrap();
            let expected = reference_query(&ts, &id, &val, lo, hi);
            assert_eq!(got.len(), expected.len(), "{enc:?}");
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.0, e.0, "{enc:?}");
                assert!((g.1 - e.1).abs() < 1e-9, "{enc:?}");
            }
            assert!(stats.io_bytes > 0);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn unsorted_filter_matches_sorted_filter() {
        let (file, ts, _, _, path) = build(20_000, Encoding::Leco, "unsorted");
        let mut s1 = QueryStats::default();
        let mut s2 = QueryStats::default();
        let a = filter_range(&file, 0, 2_000, 30_000, true, &mut s1).unwrap();
        let b = filter_range(&file, 0, 2_000, 30_000, false, &mut s2).unwrap();
        assert_eq!(a, b);
        let expected = ts
            .iter()
            .filter(|&&t| (2_000..=30_000).contains(&t))
            .count();
        assert_eq!(a.count_ones(), expected);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zone_map_skipping_reduces_io() {
        let (file, _, _, _, path) = build(40_000, Encoding::Leco, "skip");
        // Selective predicate hits only the first row group.
        let mut narrow = QueryStats::default();
        filter_range(&file, 0, 1_000, 1_200, true, &mut narrow).unwrap();
        let mut wide = QueryStats::default();
        filter_range(&file, 0, 0, u64::MAX, true, &mut wide).unwrap();
        assert!(
            narrow.io_bytes < wide.io_bytes,
            "narrow {} wide {}",
            narrow.io_bytes,
            wide.io_bytes
        );
        // The chunk counters prove the pruning: one group read, four pruned.
        assert_eq!(narrow.chunks_read, 1);
        assert_eq!(narrow.row_groups_pruned as usize, file.num_row_groups() - 1);
        assert_eq!(wide.chunks_read as usize, file.num_row_groups());
        assert_eq!(wide.row_groups_pruned, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_kernels_match_drivers() {
        // Drive the stateless per-chunk kernels by hand (morsel-local
        // bitmaps, base 0) and check they reproduce the drivers' answers.
        let (file, ts, id, val, path) = build(30_000, Encoding::Leco, "kernels");
        let (lo, hi) = (4_000u64, 40_000u64);
        let mut stats = QueryStats::default();
        let reader = file.chunk_reader().unwrap();
        let mut scratch = ScanScratch::new();
        for rg in 0..file.num_row_groups() {
            let (row_start, row_end) = file.row_group_range(rg);
            let (zmin, zmax) = file.zone_map(rg, 0);
            if zmax < lo || zmin > hi {
                continue;
            }
            let ts_chunk = reader.read_chunk(rg, 0, &mut scratch.stats).unwrap();
            scratch.sel.reset(row_end - row_start);
            filter_chunk(
                ts_chunk,
                lo,
                hi,
                true,
                0,
                &mut scratch.sel,
                &mut scratch.decode,
                &mut scratch.stats,
            );
            scratch.partial.rows_selected += scratch.sel.count_ones() as u64;
            let ids = reader.read_chunk(rg, 1, &mut scratch.stats).unwrap();
            let vals = reader.read_chunk(rg, 2, &mut scratch.stats).unwrap();
            group_by_avg_chunk(
                ids,
                vals,
                &scratch.sel,
                0,
                &mut scratch.decode,
                &mut scratch.decode2,
                &mut scratch.partial.groups,
            );
            scratch.partial.sum += sum_selected_chunk(vals, &scratch.sel, 0, &mut scratch.decode);
        }
        let got = scratch.partial.group_avgs();
        let expected = reference_query(&ts, &id, &val, lo, hi);
        assert_eq!(got, expected);
        let expected_sum: u128 = (0..ts.len())
            .filter(|&i| (lo..=hi).contains(&ts[i]))
            .map(|i| val[i] as u128)
            .sum();
        assert_eq!(scratch.partial.sum, expected_sum);
        let expected_selected = ts.iter().filter(|&&t| (lo..=hi).contains(&t)).count() as u64;
        assert_eq!(scratch.partial.rows_selected, expected_selected);
        stats.merge(&scratch.stats);
        assert!(stats.chunks_read > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn scratch_merge_combines_partials_exactly() {
        let mut a = ScanScratch::new();
        a.partial.groups.insert(1, (10, 2));
        a.partial.groups.insert(2, (5, 1));
        a.partial.sum = 100;
        a.partial.rows_selected = 3;
        let mut b = ScanScratch::new();
        b.partial.groups.insert(2, (7, 3));
        b.partial.groups.insert(3, (1, 1));
        b.partial.sum = 11;
        b.partial.rows_selected = 4;
        b.stats.io_bytes = 9;
        a.merge(b);
        assert_eq!(a.partial.groups[&1], (10, 2));
        assert_eq!(a.partial.groups[&2], (12, 4));
        assert_eq!(a.partial.groups[&3], (1, 1));
        assert_eq!(a.partial.sum, 111);
        assert_eq!(a.partial.rows_selected, 7);
        assert_eq!(a.stats.io_bytes, 9);
        let avgs = a.partial.group_avgs();
        assert_eq!(avgs[0], (1, 5.0));
        assert_eq!(avgs[1], (2, 3.0));
    }

    fn partial(
        rows_selected: u64,
        rows_scanned: u64,
        morsels: usize,
        sum: u128,
        groups: &[(u64, u128, u64)],
    ) -> Partial {
        Partial {
            rows_scanned,
            rows_selected,
            morsels,
            sum,
            groups: groups.iter().map(|&(id, s, c)| (id, (s, c))).collect(),
        }
    }

    #[test]
    fn partial_merge_is_exact_and_order_independent() {
        let a = partial(10, 100, 2, 1 << 90, &[(1, 10, 2), (3, 30, 3)]);
        let b = partial(5, 50, 1, 1, &[(1, 5, 1), (2, 20, 2), (4, 40, 4)]);
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);
        assert_eq!(ab.sum, (1u128 << 90) + 1);
        assert_eq!(
            (ab.rows_selected, ab.rows_scanned, ab.morsels),
            (15, 150, 3)
        );
        assert_eq!(
            ab.sorted_groups(),
            vec![(1, 15, 3), (2, 20, 2), (3, 30, 3), (4, 40, 4)]
        );
        let avgs = ab.group_avgs();
        assert_eq!(avgs[0], (1, 5.0));
        // Merging an empty partial, on either side, changes nothing.
        let mut empty = Partial::default();
        empty.merge(ab.clone());
        assert_eq!(empty, ab);
        ab.merge(Partial::default());
        assert_eq!(empty, ab);
    }

    #[test]
    fn partial_merge_is_associative_above_u64() {
        // Each sum alone fits in u64; together they overflow it. The group
        // ids overlap (7 in a and b, 9 in a and c) and are disjoint (8).
        let big = u64::MAX as u128;
        let parts = [
            partial(3, 4, 1, big, &[(7, big, 1), (9, 1, 1)]),
            partial(2, 5, 2, big - 1, &[(7, big, 2)]),
            partial(1, 6, 0, 2, &[(8, 2, 1), (9, big, 3)]),
        ];
        let fold = |order: [usize; 3]| {
            let mut acc = Partial::default();
            for i in order {
                acc.merge(parts[i].clone());
            }
            acc
        };
        // a + (b + c) against (a + b) + c and every other order.
        let mut bc = parts[1].clone();
        bc.merge(parts[2].clone());
        let mut a_bc = parts[0].clone();
        a_bc.merge(bc);
        for order in [
            [0, 1, 2],
            [1, 0, 2],
            [2, 1, 0],
            [1, 2, 0],
            [2, 0, 1],
            [0, 2, 1],
        ] {
            assert_eq!(fold(order), a_bc, "order {order:?}");
        }
        assert_eq!(a_bc.sum, 2 * big + 1);
        assert!(a_bc.sum > u64::MAX as u128);
        let groups = vec![(7, 2 * big, 3), (8, 2, 1), (9, big + 1, 4)];
        assert_eq!(a_bc.sorted_groups(), groups);
        let counts = (a_bc.rows_selected, a_bc.rows_scanned, a_bc.morsels);
        assert_eq!(counts, (6, 15, 3));
        // The averages divide the exact totals once.
        let avgs = a_bc.group_avgs();
        assert_eq!(avgs[0], (7, (2 * big) as f64 / 3.0));
        assert_eq!(avgs[2], (9, (big + 1) as f64 / 4.0));
    }

    #[test]
    fn bitmap_sum_matches_reference_and_skips_groups() {
        let (file, _, _, val, path) = build(30_000, Encoding::Leco, "bitmapsum");
        let mut bitmap = Bitmap::new(file.num_rows());
        // One dense cluster confined to the second row group.
        bitmap.set_range(9_000, 9_500);
        let mut stats = QueryStats::default();
        let got = sum_selected(&file, 2, &bitmap, &mut stats).unwrap();
        let expected: u128 = (9_000..9_500).map(|i| val[i] as u128).sum();
        assert_eq!(got, expected);
        // Only the touched row group should be read (8k rows per group → group 1).
        let full_scan_bytes: u64 = (0..file.num_row_groups())
            .map(|rg| {
                let mut s = QueryStats::default();
                file.read_chunk(rg, 2, &mut s).unwrap();
                s.io_bytes
            })
            .sum();
        assert!(stats.io_bytes < full_scan_bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dense_and_sparse_aggregation_paths_agree() {
        let (file, _, id, val, path) = build(30_000, Encoding::Leco, "densesparse");
        // Sparse: well under 1/DENSE_DIVISOR of a row group.
        let mut sparse = Bitmap::new(file.num_rows());
        for p in (0..30_000).step_by(97) {
            sparse.set(p);
        }
        // Dense: everything.
        let dense = Bitmap::all_set(file.num_rows());
        for bm in [&sparse, &dense] {
            let mut stats = QueryStats::default();
            let got = sum_selected(&file, 2, bm, &mut stats).unwrap();
            let expected: u128 = bm.iter_ones().map(|p| val[p] as u128).sum();
            assert_eq!(got, expected);
            let groups = group_by_avg(&file, 1, 2, bm, &mut stats).unwrap();
            let mut sums: HashMap<u64, (u128, u64)> = HashMap::new();
            for p in bm.iter_ones() {
                let e = sums.entry(id[p]).or_insert((0, 0));
                e.0 += val[p] as u128;
                e.1 += 1;
            }
            assert_eq!(groups.len(), sums.len());
            for (g, avg) in &groups {
                let (s, c) = sums[g];
                assert!((avg - s as f64 / c as f64).abs() < 1e-9);
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stats_merge_adds_components() {
        let mut a = QueryStats {
            io_bytes: 10,
            io_seconds: 1.0,
            cpu_seconds: 2.0,
            chunks_read: 3,
            row_groups_pruned: 1,
            rows_skipped_by_model: 100,
            boundary_rows_decoded: 10,
            rows_decoded_full: 7,
        };
        let b = QueryStats {
            io_bytes: 5,
            io_seconds: 0.5,
            cpu_seconds: 0.25,
            chunks_read: 2,
            row_groups_pruned: 4,
            rows_skipped_by_model: 50,
            boundary_rows_decoded: 4,
            rows_decoded_full: 3,
        };
        a.merge(&b);
        assert_eq!(a.io_bytes, 15);
        assert_eq!(a.chunks_read, 5);
        assert_eq!(a.row_groups_pruned, 5);
        assert_eq!(a.rows_skipped_by_model, 150);
        assert_eq!(a.boundary_rows_decoded, 14);
        assert_eq!(a.rows_decoded_full, 10);
        assert!((a.total_seconds() - 3.75).abs() < 1e-12);
    }

    /// Reference selection on raw values, the oracle for the kernel tests.
    fn reference_bitmap(values: &[u64], lo: u64, hi: u64) -> Bitmap {
        let mut b = Bitmap::new(values.len());
        for (i, v) in values.iter().enumerate() {
            if lo <= hi && (lo..=hi).contains(v) {
                b.set(i);
            }
        }
        b
    }

    #[test]
    fn filter_chunk_bounds_are_inclusive_at_exact_edges() {
        // ±1-off-boundary sweep: for a predicate [lo, hi] and values exactly
        // at lo-1 / lo / hi / hi+1, both paths must keep the bounds inclusive.
        let values: Vec<u64> = (0..2_000u64).map(|i| 10 + i * 3).collect(); // sorted
        for enc in [Encoding::Plain, Encoding::For, Encoding::Leco] {
            let chunk = EncodedColumn::encode(&values, enc);
            for &edge in &[values[0], values[700], values[1_999]] {
                for (lo, hi) in [
                    (edge, edge),
                    (edge.saturating_sub(1), edge),
                    (edge, edge.saturating_add(1)),
                    (edge.saturating_sub(1), edge.saturating_add(1)),
                    (edge.saturating_add(1), edge.saturating_sub(1)), // inverted
                ] {
                    let want = reference_bitmap(&values, lo, hi);
                    for sorted in [true, false] {
                        let mut sel = Bitmap::new(values.len());
                        let mut stats = QueryStats::default();
                        let mut buf = Vec::new();
                        filter_chunk(&chunk, lo, hi, sorted, 0, &mut sel, &mut buf, &mut stats);
                        assert_eq!(sel, want, "{enc:?} sorted={sorted} [{lo},{hi}]");
                        let accounted = stats.rows_skipped_by_model + stats.rows_decoded_full;
                        assert_eq!(accounted, values.len() as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn sorted_filter_includes_u64_max_upper_bound() {
        // Regression: the sorted path used `lower_bound_sorted(hi + 1)` with a
        // saturating add, so `hi == u64::MAX` silently excluded rows equal to
        // u64::MAX while the unsorted path included them.
        let values: Vec<u64> = vec![5, 9, 100, u64::MAX - 1, u64::MAX, u64::MAX];
        let chunk = EncodedColumn::encode(&values, Encoding::Plain);
        for lo in [0u64, 100, u64::MAX] {
            let want = reference_bitmap(&values, lo, u64::MAX);
            for sorted in [true, false] {
                let mut sel = Bitmap::new(values.len());
                let mut stats = QueryStats::default();
                let mut buf = Vec::new();
                filter_chunk(
                    &chunk,
                    lo,
                    u64::MAX,
                    sorted,
                    0,
                    &mut sel,
                    &mut buf,
                    &mut stats,
                );
                assert_eq!(sel, want, "sorted={sorted} lo={lo}");
            }
        }
    }

    #[test]
    fn pushdown_kernel_matches_filter_chunk_for_all_encodings() {
        // Unsorted, correlated-but-noisy data: exercises partial frames and
        // boundary bands.  Plain/Dict take the documented fallback.
        let values: Vec<u64> = (0..25_000u64).map(|i| (i * 37) % 10_000).collect();
        for enc in [
            Encoding::Default,
            Encoding::Plain,
            Encoding::Delta,
            Encoding::For,
            Encoding::Leco,
        ] {
            let chunk = EncodedColumn::encode(&values, enc);
            for (lo, hi) in [
                (0u64, u64::MAX),
                (0, 0),
                (2_500, 2_500),
                (2_000, 7_999),
                (9_999, 9_999),
                (10_000, u64::MAX), // nothing qualifies
                (7, 3),             // inverted
            ] {
                let want = reference_bitmap(&values, lo, hi);
                let mut sel = Bitmap::new(values.len());
                let mut stats = QueryStats::default();
                let mut buf = Vec::new();
                filter_chunk_pushdown(&chunk, lo, hi, 0, &mut sel, &mut buf, &mut stats);
                assert_eq!(sel, want, "{enc:?} [{lo},{hi}]");
                let accounted = stats.rows_skipped_by_model
                    + stats.boundary_rows_decoded
                    + stats.rows_decoded_full;
                assert_eq!(accounted, values.len() as u64, "{enc:?} [{lo},{hi}]");
            }
        }
    }

    #[test]
    fn pushdown_driver_matches_decode_then_filter() {
        for (k, enc) in [
            Encoding::Default,
            Encoding::Delta,
            Encoding::For,
            Encoding::Leco,
        ]
        .iter()
        .enumerate()
        {
            let (file, _, _, val, path) = build(30_000, *enc, &format!("pdrv{k}"));
            for (lo, hi) in [(0u64, u64::MAX), (2_000, 2_100), (9_999, 9_999), (8, 2)] {
                let mut s_ref = QueryStats::default();
                let reference = filter_range(&file, 2, lo, hi, false, &mut s_ref).unwrap();
                let mut s_pd = QueryStats::default();
                let got = filter_range_pushdown(&file, 2, lo, hi, &mut s_pd).unwrap();
                assert_eq!(got, reference, "{enc:?} [{lo},{hi}]");
                // Row accounting covers exactly the chunks that were read.
                let rows_read: u64 = (0..file.num_row_groups())
                    .map(|rg| {
                        let (zmin, zmax) = file.zone_map(rg, 2);
                        if zmax < lo || zmin > hi {
                            0
                        } else {
                            let (a, b) = file.row_group_range(rg);
                            (b - a) as u64
                        }
                    })
                    .sum();
                let accounted = s_pd.rows_skipped_by_model
                    + s_pd.boundary_rows_decoded
                    + s_pd.rows_decoded_full;
                assert_eq!(accounted, rows_read, "{enc:?} [{lo},{hi}]");
            }
            // Reference validation against the raw column.
            let mut stats = QueryStats::default();
            let got = filter_range_pushdown(&file, 2, 2_000, 7_999, &mut stats).unwrap();
            assert_eq!(got, reference_bitmap(&val, 2_000, 7_999));
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn pushdown_skips_decoding_on_selective_sorted_column() {
        // The ts column is cleanly linear, so the model inverse resolves all
        // but a slack band: on a selective predicate nearly every row must be
        // skipped without decoding.
        let (file, ts, _, _, path) = build(40_000, Encoding::Leco, "pdsel");
        let (lo, hi) = (1_000u64, 1_080u64); // ~40 of 40_000 rows
        let mut s_pd = QueryStats::default();
        let got = filter_range_pushdown(&file, 0, lo, hi, &mut s_pd).unwrap();
        assert_eq!(got, reference_bitmap(&ts, lo, hi));
        assert_eq!(s_pd.rows_decoded_full, 0, "model inverse should cover Leco");
        let touched = s_pd.boundary_rows_decoded;
        let skipped = s_pd.rows_skipped_by_model;
        assert!(
            touched < 200 && skipped > 7_000,
            "boundary {touched} skipped {skipped}"
        );
        std::fs::remove_file(&path).ok();
    }
}
