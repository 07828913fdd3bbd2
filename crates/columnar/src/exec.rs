//! Compute kernels for the §5.1 experiments.
//!
//! The engine uses late materialisation: the filter produces a selection
//! [`Bitmap`], and the group-by / aggregation kernels consume it per row
//! group in one of two ways.  A sparse selection random-accesses only the
//! qualifying positions of the (still encoded) columns; a dense one
//! bulk-decodes the chunks and walks the selection run by run over the
//! decoded buffers, and `GROUP BY` adds those runs into a dense per-chunk
//! table when the chunk's zone map says its ids span at most half its rows.
//! Every kernel caller accumulates a [`QueryStats`] separating I/O time
//! (reading chunk bytes from the data file) from CPU time (decoding +
//! compute), which is the breakdown plotted in Figures 18, 19 and 21.
//!
//! The module is layered so a parallel engine can drive it:
//!
//! * **stateless per-chunk kernels** ([`filter_chunk`],
//!   [`group_by_avg_chunk_zoned`], [`sum_selected_chunk`]) operate on one
//!   row group's encoded chunks plus explicitly passed scratch; they hold no
//!   references to the file and can run on any thread. The `leco-scan`
//!   crate's morsel loop composes them from a worker pool, and every
//!   filter → aggregate query over a file runs there,
//! * **[`ScanScratch`]** bundles the per-worker mutable state the kernels
//!   write into (decode buffers, the `GROUP BY` table, a selection bitmap, a
//!   [`Partial`] and per-worker [`QueryStats`]),
//! * **[`Partial`]** is the exact integer result every layer folds — morsel
//!   into worker, worker into scan, file into live table, shard into reply —
//!   with its one [`Partial::merge`]; [`Partial::group_avgs`] divides once,
//!   at the end. Its `GROUP BY` partials are one run, strictly ascending by
//!   id, from the chunk to the wire: each chunk emits its groups in id
//!   order, every merge is a two-way merge of sorted runs (an append when
//!   the runs arrive in order), and no layer hashes or sorts them again,
//! * **[`sum_selected`]** is the one whole-table loop: it sums the rows a
//!   caller's bitmap selects (§5.1.2), which no scan plan expresses.

use crate::bitmap::Bitmap;
use crate::encoding::EncodedColumn;
use crate::file::TableFile;
use leco_obs::Stopwatch;
use std::cmp::Ordering;
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

/// One `GROUP BY` partial: `(id, sum, count)`.
pub type Group = (u64, u128, u64);

/// Exact partial aggregates of a scan: what a morsel, a worker, a file, a
/// live table and a shard each produce, and what every layer folds.
///
/// Every field is an exact integer, so [`Self::merge`] is associative and
/// commutative and a result does not depend on how the work was split. The
/// one lossy step, the f64 division of a group average, happens once, in
/// [`Self::group_avgs`], after the last merge.
///
/// **Sorted-run invariant:** `groups` is strictly ascending by id and every
/// count is at least 1. Every producer emits its groups in that order — the
/// chunk kernel as one run per chunk — so every merge is a two-way merge of
/// sorted runs, and the reply reads the groups in order without a sort.
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
    /// `GROUP BY` partials, strictly ascending by id (see the type docs).
    pub groups: Vec<Group>,
}

impl Partial {
    /// Fold `other` into `self` with exact integer arithmetic. The groups
    /// merge as two sorted runs: appended when `other`'s come after
    /// `self`'s, else merged into one allocation; nothing is hashed.
    pub fn merge(&mut self, other: Partial) {
        self.rows_scanned += other.rows_scanned;
        self.rows_selected += other.rows_selected;
        self.morsels += other.morsels;
        self.sum += other.sum;
        if self.groups.is_empty() {
            self.groups = other.groups;
        } else {
            merge_run(&mut self.groups, &other.groups, &mut Vec::new());
        }
    }

    /// `(id, avg)` pairs sorted by id: one division per group, after every
    /// integer partial is merged.
    pub fn group_avgs(&self) -> Vec<(u64, f64)> {
        self.groups
            .iter()
            .map(|&(id, sum, count)| (id, sum as f64 / count as f64))
            .collect()
    }
}

/// Fold the ascending run `run` into the ascending `groups`, adding the sums
/// and counts of equal ids. A run that starts after `groups` ends is
/// appended; otherwise the two are merged into `spare`, which then becomes
/// `groups` (the old buffer is left in `spare` for reuse).
fn merge_run(groups: &mut Vec<Group>, run: &[Group], spare: &mut Vec<Group>) {
    let Some(&(first, _, _)) = run.first() else {
        return;
    };
    if groups.last().is_none_or(|&(last, _, _)| last < first) {
        groups.extend_from_slice(run);
        return;
    }
    spare.clear();
    spare.reserve(groups.len() + run.len());
    let (mut i, mut j) = (0, 0);
    while i < groups.len() && j < run.len() {
        let (x, y) = (groups[i], run[j]);
        spare.push(match x.0.cmp(&y.0) {
            Ordering::Less => {
                i += 1;
                x
            }
            Ordering::Greater => {
                j += 1;
                y
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
                (x.0, x.1 + y.1, x.2 + y.2)
            }
        });
    }
    spare.extend_from_slice(&groups[i..]);
    spare.extend_from_slice(&run[j..]);
    std::mem::swap(groups, spare);
}

/// Add `(id, sum, count)` to `run`'s last entry when it has the same id,
/// else push it: consecutive equal ids collapse as they arrive.
fn push_piece(run: &mut Vec<Group>, id: u64, sum: u128, count: u64) {
    match run.last_mut() {
        Some(last) if last.0 == id => {
            last.1 += sum;
            last.2 += count;
        }
        _ => run.push((id, sum, count)),
    }
}

/// Sort `run` by id and add up the entries of equal ids, leaving one entry
/// per id: the exact route's one sort per chunk.
fn sort_run(run: &mut Vec<Group>) {
    run.sort_unstable_by_key(|&(id, _, _)| id);
    run.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
            kept.2 += next.2;
        }
        same
    });
}

/// The reusable `GROUP BY` buffers of one worker: the decoded id and value
/// chunks, the dense per-chunk table and the chunk's run of groups.
#[derive(Debug, Default)]
pub struct GroupScratch {
    /// Decoded id chunk.
    ids: Vec<u64>,
    /// Decoded value chunk.
    vals: Vec<u64>,
    /// Dense table indexed by `id − min`. Every slot is `(0, 0)` between
    /// chunks: emitting a chunk's groups clears the slots it used.
    table: Vec<(u128, u64)>,
    /// The chunk's groups as one ascending run, before the merge.
    run: Vec<Group>,
    /// The other half of a merge of `run` into a partial.
    spare: Vec<Group>,
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
    /// Decode buffer of the filter and `SUM` kernels.
    pub decode: Vec<u64>,
    /// Buffers of the `GROUP BY` kernel.
    pub group: GroupScratch,
    /// Selection bitmap, morsel-local: `reset` per morsel.
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
/// * **Plain / Dict** — no compressed domain to exploit: falls back to the
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

/// A selection denser than one row in `DENSE_DIVISOR` makes the sequential
/// word-parallel decode of the whole row group cheaper than per-position
/// random access (bulk decode amortises to a few cycles per row, while a
/// point access costs a model inference plus a positioned bit extract).
const DENSE_DIVISOR: usize = 16;

/// A dense `GROUP BY` chunk whose ids span at most `rows / TABLE_DIVISOR`
/// aggregates into a table indexed by `id − min` instead of sorting its
/// pieces. Each piece then costs an indexed add, and reading the table out
/// in id order costs at most one slot per two rows.
const TABLE_DIVISOR: usize = 2;

/// `GROUP BY`-average accumulation over one row group's id/value chunks,
/// merged into the ascending `groups` (see [`Partial`]'s sorted-run
/// invariant) as one ascending run of the chunk's groups.
///
/// Stateless per-morsel kernel: consults the selection positions
/// `[base, base + ids.len())` of `sel`, and takes the id chunk's
/// `(min, max)` from `id_zone` — the zone map
/// ([`TableFile::zone_map`]) — instead of a pass over the ids.
///
/// * **Sparse** selections (fewer than one row in `DENSE_DIVISOR`)
///   random-access only the qualifying positions (late materialisation) and
///   take the exact route below.
/// * **Dense** selections bulk-decode both chunks into `scratch` and walk
///   the selection run by run ([`Bitmap::for_each_run_in`]), cutting each
///   run into pieces of equal consecutive ids. When the zone's span
///   `max − min` is at most `rows / 2` (`TABLE_DIVISOR`), each piece is one
///   add into a dense table indexed by `id − min` (a "perfect hash" read
///   off the zone map), reused across chunks; its non-empty slots are the
///   chunk's run, in ascending order. A wider span takes the exact route.
/// * The **exact route** collects the pieces, sorts them by id once and
///   adds up equal ids. An id outside `id_zone` (a corrupt footer) never
///   indexes the table: the chunk's table is discarded and the chunk takes
///   this route, so the result is exact whatever the zone map says.
///
/// A run that starts after `groups` ends is appended; otherwise it is
/// merged in one pass. Nothing is hashed, and every route adds up the same
/// exact `(u128 sum, u64 count)` integers.
pub fn group_by_avg_chunk_zoned(
    ids: &EncodedColumn,
    vals: &EncodedColumn,
    id_zone: (u64, u64),
    sel: &Bitmap,
    base: usize,
    scratch: &mut GroupScratch,
    groups: &mut Vec<Group>,
) {
    group_chunk(ids, vals, Some(id_zone), sel, base, scratch, groups);
}

/// [`group_by_avg_chunk_zoned`] for a caller without the zone map: the
/// id chunk's `(min, max)` is folded from the decoded ids, and the chunk's
/// run is added into the `groups` map.
pub fn group_by_avg_chunk(
    ids: &EncodedColumn,
    vals: &EncodedColumn,
    sel: &Bitmap,
    base: usize,
    id_buf: &mut Vec<u64>,
    val_buf: &mut Vec<u64>,
    groups: &mut HashMap<u64, (u128, u64)>,
) {
    let mut scratch = GroupScratch {
        ids: std::mem::take(id_buf),
        vals: std::mem::take(val_buf),
        ..GroupScratch::default()
    };
    let mut run = Vec::new();
    group_chunk(ids, vals, None, sel, base, &mut scratch, &mut run);
    for (id, sum, count) in run {
        let entry = groups.entry(id).or_insert((0, 0));
        entry.0 += sum;
        entry.1 += count;
    }
    *id_buf = scratch.ids;
    *val_buf = scratch.vals;
}

/// The `GROUP BY` chunk kernel; `id_zone` `None` folds the bounds from the
/// decoded ids.
fn group_chunk(
    ids: &EncodedColumn,
    vals: &EncodedColumn,
    id_zone: Option<(u64, u64)>,
    sel: &Bitmap,
    base: usize,
    scratch: &mut GroupScratch,
    groups: &mut Vec<Group>,
) {
    let rows = ids.len();
    let selected = sel.count_ones_in(base, base + rows);
    if selected == 0 {
        return;
    }
    let GroupScratch {
        ids: id_buf,
        vals: val_buf,
        table,
        run,
        spare,
    } = scratch;
    run.clear();
    if selected * DENSE_DIVISOR < rows {
        for pos in sel.iter_ones_in(base, base + rows) {
            let local = pos - base;
            push_piece(run, ids.get(local), vals.get(local) as u128, 1);
        }
        sort_run(run);
        merge_run(groups, run, spare);
        return;
    }
    id_buf.clear();
    val_buf.clear();
    ids.decode_into(id_buf);
    vals.decode_into(val_buf);
    let (id_buf, val_buf) = (&id_buf[..], &val_buf[..]);
    let (min, max) = id_zone.unwrap_or_else(|| {
        id_buf
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &id| (lo.min(id), hi.max(id)))
    });
    let span = max.wrapping_sub(min);
    if min <= max && span <= (rows / TABLE_DIVISOR) as u64 {
        let len = span as usize + 1;
        if table.len() < len {
            table.resize(len, (0, 0));
        }
        let slots = &mut table[..len];
        let mut inside = true;
        for_each_piece(id_buf, val_buf, sel, base, |id, sum, count| {
            let offset = id.wrapping_sub(min);
            if offset > span {
                inside = false;
                return;
            }
            let slot = &mut slots[offset as usize];
            slot.0 += sum;
            slot.1 += count;
        });
        if inside {
            if groups.last().is_none_or(|&(last, _, _)| last < min) {
                drain_table(slots, min, groups);
            } else {
                drain_table(slots, min, run);
                merge_run(groups, run, spare);
            }
            return;
        }
        // An id outside the zone map: discard the table, take the exact route.
        slots.fill((0, 0));
    }
    for_each_piece(id_buf, val_buf, sel, base, |id, sum, count| {
        push_piece(run, id, sum, count)
    });
    sort_run(run);
    merge_run(groups, run, spare);
}

/// Call `piece(id, sum, count)` once per piece of equal consecutive ids
/// within each run of `sel` over the decoded chunk `ids`/`vals`, whose
/// first row is `sel` position `base`. A piece's values are summed in a
/// register.
fn for_each_piece(
    ids: &[u64],
    vals: &[u64],
    sel: &Bitmap,
    base: usize,
    mut piece: impl FnMut(u64, u128, u64),
) {
    sel.for_each_run_in(base, base + ids.len(), |from, to| {
        let (from, to) = (from - base, to - base);
        let (ids, vals) = (&ids[from..to], &vals[from..to]);
        let mut i = 0;
        while i < ids.len() {
            let (id, mut sum, mut end) = (ids[i], vals[i] as u128, i + 1);
            while end < ids.len() && ids[end] == id {
                sum += vals[end] as u128;
                end += 1;
            }
            piece(id, sum, (end - i) as u64);
            i = end;
        }
    });
}

/// Push the non-empty slots of a dense table whose slot 0 is id `min` onto
/// `out`, in ascending id order, and clear them for the next chunk.
fn drain_table(slots: &mut [(u128, u64)], min: u64, out: &mut Vec<Group>) {
    for (offset, slot) in slots.iter_mut().enumerate() {
        if slot.1 > 0 {
            out.push((min + offset as u64, slot.0, slot.1));
            *slot = (0, 0);
        }
    }
}

/// Bitmap aggregation (§5.1.2): sum of the selected positions of one column.
/// Row groups whose bitmap slice is all zero are skipped entirely; the rest
/// go through [`sum_selected_chunk`].
///
/// The one whole-table loop left in this module: it takes a caller's
/// table-global bitmap (Figures 19 and 21), which a `leco-scan` plan, built
/// from range filters, cannot express. Porting it would copy this loop into
/// each figure's binary rather than remove it.
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
    use std::collections::BTreeMap;
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

    /// How [`filter_table`] evaluates a surviving row group.
    #[derive(Clone, Copy)]
    enum Filter {
        Sorted,
        Unsorted,
        Pushdown,
    }

    /// Compose the filter kernels over every row group of `file` into one
    /// table-global selection (chunks placed at their `row_start`), skipping
    /// row groups whose zone map cannot match without any I/O.
    fn filter_table(
        file: &TableFile,
        col: usize,
        lo: u64,
        hi: u64,
        mode: Filter,
        stats: &mut QueryStats,
    ) -> Bitmap {
        let mut bitmap = Bitmap::new(file.num_rows());
        let reader = file.chunk_reader().unwrap();
        let mut scratch = Vec::new();
        for rg in 0..file.num_row_groups() {
            let (zmin, zmax) = file.zone_map(rg, col);
            if zmax < lo || zmin > hi {
                stats.row_groups_pruned += 1;
                continue;
            }
            let chunk = reader.read_chunk(rg, col, stats).unwrap();
            let (row_start, _) = file.row_group_range(rg);
            match mode {
                Filter::Pushdown => filter_chunk_pushdown(
                    chunk,
                    lo,
                    hi,
                    row_start,
                    &mut bitmap,
                    &mut scratch,
                    stats,
                ),
                Filter::Sorted | Filter::Unsorted => filter_chunk(
                    chunk,
                    lo,
                    hi,
                    matches!(mode, Filter::Sorted),
                    row_start,
                    &mut bitmap,
                    &mut scratch,
                    stats,
                ),
            }
        }
        bitmap
    }

    /// `AVG(val) GROUP BY id` over a table-global selection, composing
    /// [`group_by_avg_chunk_zoned`] over the row groups `bitmap` touches.
    fn group_table(
        file: &TableFile,
        id_col: usize,
        val_col: usize,
        bitmap: &Bitmap,
        stats: &mut QueryStats,
    ) -> Vec<(u64, f64)> {
        let reader = file.chunk_reader().unwrap();
        let mut scratch = ScanScratch::new();
        for rg in 0..file.num_row_groups() {
            let (row_start, row_end) = file.row_group_range(rg);
            if bitmap.count_ones_in(row_start, row_end) == 0 {
                stats.row_groups_pruned += 1;
                continue;
            }
            let ids = reader.read_chunk(rg, id_col, stats).unwrap();
            let vals = reader.read_chunk(rg, val_col, stats).unwrap();
            group_by_avg_chunk_zoned(
                ids,
                vals,
                file.zone_map(rg, id_col),
                bitmap,
                row_start,
                &mut scratch.group,
                &mut scratch.partial.groups,
            );
        }
        scratch.partial.group_avgs()
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
            let bitmap = filter_table(&file, 0, lo, hi, Filter::Sorted, &mut stats);
            let got = group_table(&file, 1, 2, &bitmap, &mut stats);
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
        let a = filter_table(&file, 0, 2_000, 30_000, Filter::Sorted, &mut s1);
        let b = filter_table(&file, 0, 2_000, 30_000, Filter::Unsorted, &mut s2);
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
        filter_table(&file, 0, 1_000, 1_200, Filter::Sorted, &mut narrow);
        let mut wide = QueryStats::default();
        filter_table(&file, 0, 0, u64::MAX, Filter::Sorted, &mut wide);
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
        // bitmaps, base 0), the way a scan's morsel loop does, and check
        // them against a fold over the raw vectors.
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
            group_by_avg_chunk_zoned(
                ids,
                vals,
                file.zone_map(rg, 1),
                &scratch.sel,
                0,
                &mut scratch.group,
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
        a.partial.groups = vec![(1, 10, 2), (2, 5, 1)];
        a.partial.sum = 100;
        a.partial.rows_selected = 3;
        let mut b = ScanScratch::new();
        b.partial.groups = vec![(2, 7, 3), (3, 1, 1)];
        b.partial.sum = 11;
        b.partial.rows_selected = 4;
        b.stats.io_bytes = 9;
        a.merge(b);
        let group = |id: u64| {
            let at = a.partial.groups.binary_search_by_key(&id, |g| g.0).unwrap();
            let (_, sum, count) = a.partial.groups[at];
            (sum, count)
        };
        assert_eq!(group(1), (10, 2));
        assert_eq!(group(2), (12, 4));
        assert_eq!(group(3), (1, 1));
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
            groups: groups.to_vec(),
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
            ab.groups,
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
        assert_eq!(a_bc.groups, groups);
        let counts = (a_bc.rows_selected, a_bc.rows_scanned, a_bc.morsels);
        assert_eq!(counts, (6, 15, 3));
        // The averages divide the exact totals once.
        let avgs = a_bc.group_avgs();
        assert_eq!(avgs[0], (7, (2 * big) as f64 / 3.0));
        assert_eq!(avgs[2], (9, (big + 1) as f64 / 4.0));
    }

    /// Deterministic 64-bit mixer for the property test's choices.
    fn mix(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    proptest::proptest! {
        /// A `BTreeMap` oracle of groups, split into sorted runs (one group
        /// may be cut into pieces across several runs), then merged back in
        /// a random order and grouping: the result is the oracle.
        #[test]
        fn partial_merge_of_sorted_runs_matches_the_oracle(
            raw_ids in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..200),
            raw_sums in proptest::collection::vec(proptest::prelude::any::<u128>(), 200),
            raw_counts in proptest::collection::vec(proptest::prelude::any::<u64>(), 200),
            n_runs in 1usize..9,
            seed in proptest::prelude::any::<u64>(),
        ) {
            // Ids: 0, u64::MAX, a small range (so runs overlap) and any u64.
            let mut oracle: BTreeMap<u64, (u128, u64)> = BTreeMap::new();
            for (k, &raw) in raw_ids.iter().enumerate() {
                let id = match raw % 4 {
                    0 => 0,
                    1 => u64::MAX,
                    2 => raw % 97,
                    _ => raw,
                };
                let sum = (raw_sums[k] >> (raw % 128)) % (u128::MAX / 8 + 1);
                let count = (raw_counts[k] >> (raw_counts[k] % 64)).max(1);
                oracle.insert(id, (sum, count));
            }
            // Cut each group into up to three pieces in distinct runs; every
            // piece keeps a count of at least 1.
            let mut runs = vec![Partial::default(); n_runs];
            for (&id, &(sum, count)) in &oracle {
                let r = mix(seed ^ id);
                let pieces = (1 + r % 3).min(count).min(n_runs as u64) as usize;
                let (mut sum_left, mut count_left) = (sum, count);
                for j in 0..pieces {
                    let run = &mut runs[(r as usize / 3 + j) % n_runs];
                    let (s, c) = if j + 1 == pieces {
                        (sum_left, count_left)
                    } else {
                        // Leave at least 1 for each later piece.
                        let room = count_left - (pieces - j - 1) as u64;
                        let c = 1 + mix(r ^ j as u64) % room;
                        (mix(r ^ !(j as u64)) as u128 % (sum_left + 1), c)
                    };
                    sum_left -= s;
                    count_left -= c;
                    run.groups.push((id, s, c));
                }
            }
            for run in &mut runs {
                run.groups.sort_unstable_by_key(|&(id, _, _)| id);
            }
            // Merge two random partials, in a random direction, until one is
            // left.
            let mut rng = seed;
            while runs.len() > 1 {
                rng = mix(rng);
                let i = rng as usize % runs.len();
                let a = runs.swap_remove(i);
                let j = (rng >> 32) as usize % runs.len();
                if rng & 1 == 0 {
                    runs[j].merge(a);
                } else {
                    let b = std::mem::replace(&mut runs[j], a);
                    runs[j].merge(b);
                }
            }
            let got = &runs[0].groups;
            let want: Vec<Group> = oracle.iter().map(|(&id, &(s, c))| (id, s, c)).collect();
            proptest::prop_assert_eq!(got, &want);
            proptest::prop_assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
            proptest::prop_assert!(got.iter().all(|&(_, _, c)| c >= 1));
        }
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
            let groups = group_table(&file, 1, 2, bm, &mut stats);
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
                let reference = filter_table(&file, 2, lo, hi, Filter::Unsorted, &mut s_ref);
                let mut s_pd = QueryStats::default();
                let got = filter_table(&file, 2, lo, hi, Filter::Pushdown, &mut s_pd);
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
            let got = filter_table(&file, 2, 2_000, 7_999, Filter::Pushdown, &mut stats);
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
        let got = filter_table(&file, 0, lo, hi, Filter::Pushdown, &mut s_pd);
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
