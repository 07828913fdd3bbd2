//! The morsel-driven scan driver: plan → prune → read and execute → merge.

use crate::pool::{self, PoolError};
use crate::spec::{Agg, ScanPlan, ScanSpec};
use leco_columnar::exec::{
    filter_chunk, filter_chunk_pushdown, group_by_avg_chunk_zoned, sum_selected_chunk,
};
use leco_columnar::{Bitmap, ChunkReader, Partial, QueryStats, ScanScratch, TableFile};
use leco_obs::Stopwatch;
use std::collections::HashSet;

/// Errors surfaced by [`Scanner::run`] and [`Scanner::run_partial`].
#[derive(Debug)]
pub enum ScanError {
    /// Reading chunk bytes from the table file failed.
    Io(std::io::Error),
    /// A worker panicked; the scan was poisoned and aborted cleanly.
    WorkerPanicked {
        /// Index of the worker that panicked.
        worker: usize,
        /// Panic payload rendered as a string.
        message: String,
    },
    /// A column name passed to the builder does not exist in the table.
    ColumnNotFound(String),
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Io(e) => write!(f, "scan I/O error: {e}"),
            ScanError::WorkerPanicked { worker, message } => {
                write!(f, "scan poisoned: worker {worker} panicked: {message}")
            }
            ScanError::ColumnNotFound(name) => write!(f, "column not found: {name:?}"),
        }
    }
}

impl std::error::Error for ScanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScanError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ScanError {
    fn from(e: std::io::Error) -> Self {
        ScanError::Io(e)
    }
}

impl From<PoolError> for ScanError {
    fn from(e: PoolError) -> Self {
        let PoolError::WorkerPanicked { worker, message } = e;
        ScanError::WorkerPanicked { worker, message }
    }
}

/// Result of a parallel scan.
///
/// All result fields are integer-derived and merged with exact arithmetic, so
/// they are **bit-identical for every thread count**; only [`Self::stats`]
/// (wall-clock charges) varies between runs.
#[derive(Debug)]
pub struct ScanResult {
    /// `(id, avg)` pairs sorted by id — empty unless group-by was requested.
    pub groups: Vec<(u64, f64)>,
    /// The integer `(id, sum, count)` partials behind [`Self::groups`],
    /// sorted by id.  Distributed callers (the `leco-server` shard merge)
    /// fold these across partitions with exact arithmetic and divide once,
    /// which keeps a sharded group-by bit-identical to a single scan.
    pub group_partials: Vec<(u64, u128, u64)>,
    /// Sum aggregate — 0 unless a sum was requested.
    pub sum: u128,
    /// Rows passing the filter (all scanned rows when there is no filter).
    pub rows_selected: u64,
    /// Rows in the row groups that were actually scanned (after pruning);
    /// with [`Scanner::without_keys`], the file's live rows, pruned row
    /// groups included.
    pub rows_scanned: u64,
    /// Morsels executed (row groups surviving zone-map pruning).
    pub morsels: usize,
    /// Merged per-query accounting: the scheduler's pruning counters and
    /// every worker's chunk I/O and compute.
    pub stats: QueryStats,
}

/// A composable filter → project → aggregate scan over a
/// [`TableFile`], executed morsel-at-a-time by a work-stealing pool.
///
/// The query itself is a [`ScanPlan`]: build it clause by clause here, or
/// resolve a whole [`ScanSpec`] with [`Self::from_spec`].  The name-level
/// builders are shorthands for a one-clause spec and panic on a column the
/// table does not have.
///
/// ```no_run
/// use leco_columnar::{TableFile, TableFileOptions};
/// use leco_scan::Scanner;
///
/// # fn demo(table: &TableFile) -> Result<(), leco_scan::ScanError> {
/// let result = Scanner::new(table)
///     .filter("ts", 1_000, 2_000)
///     .sorted_filter(true)
///     .group_by_avg("id", "val")
///     .run(8)?;
/// println!("{} groups, {:?}", result.groups.len(), result.stats);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Scanner<'a> {
    table: &'a TableFile,
    plan: ScanPlan,
    /// The filter column is sorted: resolve it by binary search.
    sorted: bool,
    /// Compressed execution: evaluate the predicate inside the encoded
    /// domain (model inverse for LeCo, packed-domain compare for FOR, fused
    /// compare for Delta) instead of decode-then-filter.
    pushdown: bool,
    /// `(key column, dead keys)`: rows whose key is in the set are deleted.
    dead_keys: Option<(usize, &'a HashSet<u64>)>,
    /// Test hook: panic while executing this global morsel index.
    inject_panic_at: Option<usize>,
}

impl<'a> Scanner<'a> {
    /// Start building a scan over `table`.  Without any other calls the scan
    /// counts all rows.
    pub fn new(table: &'a TableFile) -> Self {
        Self::with_plan(table, ScanPlan::default())
    }

    /// A scan of `table` running `plan`, whose column indices must be
    /// `table`'s.
    pub fn with_plan(table: &'a TableFile, plan: ScanPlan) -> Self {
        Self {
            table,
            plan,
            sorted: false,
            pushdown: true,
            dead_keys: None,
            inject_panic_at: None,
        }
    }

    /// A scan of `table` running `spec`, its names resolved against the
    /// table's columns; an unknown name is [`ScanError::ColumnNotFound`].
    pub fn from_spec(table: &'a TableFile, spec: &ScanSpec) -> Result<Self, ScanError> {
        let plan = spec.resolve(|name| table.column_index(name))?;
        Ok(Self::with_plan(table, plan))
    }

    /// `spec`'s plan over this table, for the name-level builders.
    ///
    /// # Panics
    /// Panics if `spec` names a column the table does not have.
    fn expect_plan(&self, spec: ScanSpec) -> ScanPlan {
        spec.resolve(|name| self.table.column_index(name))
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Push down the range predicate `lo <= col <= hi` (column by name).
    ///
    /// # Panics
    /// Panics if the column does not exist; [`Self::from_spec`] reports it
    /// as an error instead.
    pub fn filter(mut self, col: &str, lo: u64, hi: u64) -> Self {
        self.plan.filter = self
            .expect_plan(ScanSpec::count().filter(col, lo, hi))
            .filter;
        self
    }

    /// Push down the range predicate `lo <= col <= hi` (column by index).
    pub fn filter_col(mut self, col: usize, lo: u64, hi: u64) -> Self {
        self.plan.filter = Some((col, lo, hi));
        self
    }

    /// Declare the filter column sorted, enabling the model-guided
    /// binary-search filter (§5.1.1's computation pruning) instead of a
    /// decode-and-compare pass.
    pub fn sorted_filter(mut self, sorted: bool) -> Self {
        self.sorted = sorted;
        self
    }

    /// Enable or disable compressed execution of the filter (on by default).
    ///
    /// With pushdown on, unsorted filters over LeCo / FOR / Delta chunks are
    /// evaluated inside the encoded domain
    /// ([`leco_columnar::exec::filter_chunk_pushdown`]) and only
    /// correction-slack boundary rows are decoded; with it off the scan
    /// bulk-decodes every chunk and compares row by row — the baseline the
    /// selectivity benchmark measures against.  A sorted filter ignores this
    /// toggle: the binary-search path already decodes nothing.
    pub fn pushdown_filter(mut self, enabled: bool) -> Self {
        self.pushdown = enabled;
        self
    }

    /// Aggregate `AVG(val) GROUP BY id` over the selected rows (by name).
    ///
    /// # Panics
    /// Panics if either column does not exist; [`Self::from_spec`] reports
    /// it as an error instead.
    pub fn group_by_avg(mut self, id_col: &str, val_col: &str) -> Self {
        self.plan.agg = self
            .expect_plan(ScanSpec::count().group_by_avg(id_col, val_col))
            .agg;
        self
    }

    /// Aggregate `AVG(val) GROUP BY id` over the selected rows (by index).
    pub fn group_by_avg_cols(mut self, id_col: usize, val_col: usize) -> Self {
        self.plan.agg = Agg::GroupAvg { id_col, val_col };
        self
    }

    /// Aggregate `SUM(col)` over the selected rows (by name).
    ///
    /// # Panics
    /// Panics if the column does not exist; [`Self::from_spec`] reports it
    /// as an error instead.
    pub fn sum(mut self, col: &str) -> Self {
        self.plan.agg = self.expect_plan(ScanSpec::count().sum(col)).agg;
        self
    }

    /// Aggregate `SUM(col)` over the selected rows (by index).
    pub fn sum_col(mut self, col: usize) -> Self {
        self.plan.agg = Agg::Sum(col);
        self
    }

    /// Only count the selected rows (the default).
    pub fn count(mut self) -> Self {
        self.plan.agg = Agg::Count;
        self
    }

    /// Treat every row whose `key_col` value is in `dead` as deleted, and
    /// count the file's live rows, pruned row groups included, as scanned.
    /// Only a row group whose key zone map holds a dead key pays for the
    /// mask: its morsel also reads the key chunk.
    pub fn without_keys(mut self, key_col: usize, dead: &'a HashSet<u64>) -> Self {
        self.dead_keys = Some((key_col, dead));
        self
    }

    /// Test hook: make whichever worker executes morsel `k` panic, to
    /// exercise pool poisoning end-to-end.  Hidden from docs; not part of the
    /// stable API.
    #[doc(hidden)]
    pub fn inject_panic_at_morsel(mut self, k: usize) -> Self {
        self.inject_panic_at = Some(k);
        self
    }

    /// Columns the scan must read per morsel, plus `extra`, deduplicated.
    fn needed_columns(&self, extra: Option<usize>) -> Vec<usize> {
        let mut cols: Vec<usize> = extra.into_iter().collect();
        if let Some((col, _, _)) = self.plan.filter {
            cols.push(col);
        }
        match self.plan.agg {
            Agg::Count => {}
            Agg::Sum(col) => cols.push(col),
            Agg::GroupAvg { id_col, val_col } => {
                cols.push(id_col);
                cols.push(val_col);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        cols
    }

    /// Execute the scan on `n_threads` workers (clamped to at least 1).
    pub fn run(&self, n_threads: usize) -> Result<ScanResult, ScanError> {
        let (partial, stats) = self.run_partial(n_threads)?;
        Ok(ScanResult {
            groups: partial.group_avgs(),
            group_partials: partial.groups,
            sum: partial.sum,
            rows_selected: partial.rows_selected,
            rows_scanned: partial.rows_scanned,
            morsels: partial.morsels,
            stats,
        })
    }

    /// Execute the scan on `n_threads` workers (clamped to at least 1) and
    /// return its exact, unfinalized [`Partial`] with the merged accounting,
    /// for callers that fold it with partials from elsewhere.
    pub fn run_partial(&self, n_threads: usize) -> Result<(Partial, QueryStats), ScanError> {
        let n_threads = n_threads.max(1);
        let table = self.table;
        let mut sched_stats = QueryStats::default();

        // ── Schedule: zone-map pruning happens here, before a morsel is
        // ever enqueued, so pruned row groups cost the workers nothing.  A
        // row group is `touched` when its key zone map holds a dead key.
        let mut morsels: Vec<(usize, bool)> = Vec::with_capacity(table.num_row_groups());
        let mut pruned_live = 0;
        for rg in 0..table.num_row_groups() {
            let touched = self.dead_keys.is_some_and(|(key_col, dead)| {
                let (min, max) = table.zone_map(rg, key_col);
                dead.iter().any(|key| (min..=max).contains(key))
            });
            if let Some((col, lo, hi)) = self.plan.filter {
                let (zmin, zmax) = table.zone_map(rg, col);
                if zmax < lo || zmin > hi {
                    sched_stats.row_groups_pruned += 1;
                    // A masked scan counts a pruned row group's live rows,
                    // a touched one's from its key chunk, read right here.
                    pruned_live += match self.dead_keys {
                        Some((key_col, dead)) if touched => {
                            let keys = table.read_chunk(rg, key_col, &mut sched_stats)?;
                            let live = keys.decode_all().into_iter().filter(|k| !dead.contains(k));
                            live.count() as u64
                        }
                        Some((key_col, _)) => table.chunk_encoded(rg, key_col).len() as u64,
                        None => 0,
                    };
                    continue;
                }
            }
            morsels.push((rg, touched));
        }
        leco_obs::counter!("scan.morsel_rows").add(pruned_live);
        let mut merged = ScanScratch::new();
        merged.partial.rows_scanned = pruned_live;
        merged.stats = sched_stats;
        // Every row group pruned: the answer is already known, so open no
        // reader for workers and spawn no thread.
        if morsels.is_empty() {
            return Ok((merged.partial, merged.stats));
        }
        let columns = self.needed_columns(None);
        let touched_columns = self.needed_columns(self.dead_keys.map(|(key_col, _)| key_col));
        let reader = table.chunk_reader()?;
        // First worker-side I/O error; its presence makes the other workers
        // bail at their next morsel, and the scan reports it as
        // `ScanError::Io` after the pool drains.
        let worker_io_error: parking_lot::Mutex<Option<std::io::Error>> =
            parking_lot::Mutex::new(None);

        // ── Execute: work-stealing workers read and fold morsels into their
        // private ScanScratch, with a morsel-local alive bitmap beside it.
        let states = pool::run_with_worker_state(
            n_threads,
            morsels.len(),
            |_| (ScanScratch::new(), Bitmap::default()),
            |(scratch, alive): &mut (ScanScratch, Bitmap), m| {
                if self.inject_panic_at == Some(m) {
                    panic!("injected scan fault at morsel {m}");
                }
                if worker_io_error.lock().is_some() {
                    return; // scan already failing: drain cheaply
                }
                let (rg, touched) = morsels[m];
                let columns = if touched { &touched_columns } else { &columns };
                let alive = touched.then_some(alive);
                if let Err(e) = self.execute_morsel(&reader, rg, columns, alive, scratch) {
                    let mut slot = worker_io_error.lock();
                    if slot.is_none() {
                        *slot = Some(e);
                    }
                }
            },
        )?;
        if let Some(e) = worker_io_error.into_inner() {
            return Err(ScanError::Io(e));
        }

        // ── Merge: integer partials fold exactly as sorted runs; the final
        // division happens once, so results are independent of the split.
        for (state, _) in states {
            merged.merge(state);
        }
        Ok((merged.partial, merged.stats))
    }

    /// One morsel: read its chunks, then run the per-chunk kernels against
    /// the worker's scratch; a touched morsel gets `alive` to mask its dead
    /// rows with.  A failed chunk read (truncated or corrupt file)
    /// propagates up and surfaces as [`ScanError::Io`].
    fn execute_morsel(
        &self,
        reader: &ChunkReader<'_>,
        rg: usize,
        columns: &[usize],
        alive: Option<&mut Bitmap>,
        scratch: &mut ScanScratch,
    ) -> std::io::Result<()> {
        let _morsel_span = leco_obs::span("scan.morsel");
        leco_obs::counter!("scan.morsels").inc();

        // I/O: read and block-decompress each needed chunk into the
        // worker's reused buffer.
        {
            let _decode_span = leco_obs::span("scan.morsel.decode");
            for &col in columns {
                reader.read_chunk_bytes(rg, col, &mut scratch.io_buf, &mut scratch.stats)?;
                reader.decompress_chunk(rg, col, &scratch.io_buf, &mut scratch.stats);
            }
        }

        let (row_start, row_end) = self.table.row_group_range(rg);
        let rows = row_end - row_start;
        let cpu = Stopwatch::start();
        // A touched morsel scans only its live rows: `alive` marks them.
        let alive = alive.zip(self.dead_keys).map(|(alive, (key_col, dead))| {
            scratch.decode.clear();
            self.table
                .chunk_encoded(rg, key_col)
                .decode_into(&mut scratch.decode);
            alive.reset(rows);
            for (row, key) in scratch.decode.iter().enumerate() {
                if !dead.contains(key) {
                    alive.set(row);
                }
            }
            &*alive
        });
        let scanned = alive.map_or(rows, Bitmap::count_ones) as u64;
        scratch.partial.morsels += 1;
        scratch.partial.rows_scanned += scanned;
        leco_obs::counter!("scan.morsel_rows").add(scanned);

        // Selection: morsel-local bitmap, reset in place (no allocation).
        let filter_span = leco_obs::span("scan.morsel.filter");
        scratch.sel.reset(rows);
        match self.plan.filter {
            Some((col, lo, hi)) => {
                let chunk = self.table.chunk_encoded(rg, col);
                // Kernel selection: a sorted column is resolved by binary
                // search; otherwise pushdown runs compressed execution (which
                // itself decodes then filters Plain and Dict chunks), and
                // with pushdown off every chunk decodes then filters.
                if self.sorted {
                    filter_chunk(
                        chunk,
                        lo,
                        hi,
                        true,
                        0,
                        &mut scratch.sel,
                        &mut scratch.decode,
                        &mut scratch.stats,
                    );
                } else if self.pushdown {
                    filter_chunk_pushdown(
                        chunk,
                        lo,
                        hi,
                        0,
                        &mut scratch.sel,
                        &mut scratch.decode,
                        &mut scratch.stats,
                    );
                } else {
                    filter_chunk(
                        chunk,
                        lo,
                        hi,
                        false,
                        0,
                        &mut scratch.sel,
                        &mut scratch.decode,
                        &mut scratch.stats,
                    );
                }
            }
            None => scratch.sel.set_range(0, rows),
        }
        if let Some(alive) = alive {
            scratch.sel.and(alive);
        }
        drop(filter_span);
        let morsel_selected = scratch.sel.count_ones() as u64;
        scratch.partial.rows_selected += morsel_selected;
        leco_obs::counter!("scan.rows_selected").add(morsel_selected);

        // Aggregate over the selection.
        let _agg_span = leco_obs::span("scan.morsel.aggregate");
        match self.plan.agg {
            Agg::Count => {}
            Agg::Sum(col) => {
                let chunk = self.table.chunk_encoded(rg, col);
                scratch.partial.sum +=
                    sum_selected_chunk(chunk, &scratch.sel, 0, &mut scratch.decode);
            }
            Agg::GroupAvg { id_col, val_col } => {
                let ids = self.table.chunk_encoded(rg, id_col);
                let vals = self.table.chunk_encoded(rg, val_col);
                group_by_avg_chunk_zoned(
                    ids,
                    vals,
                    self.table.zone_map(rg, id_col),
                    &scratch.sel,
                    0,
                    &mut scratch.group,
                    &mut scratch.partial.groups,
                );
            }
        }
        scratch.stats.charge_cpu(cpu.elapsed_secs());
        Ok(())
    }
}
