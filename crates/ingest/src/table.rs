//! The live table: WAL-backed memtable, frozen segments, background
//! compaction into immutable LeCo table files, and snapshot scans.
//!
//! # Data flow
//!
//! ```text
//! put/del ──► WAL (append + fsync batch) ──► memtable (MemSegment)
//!                                               │ segment_rows reached
//!                                               ▼  (FREEZE marker)
//!                                          frozen segments
//!                                               │ background compactor
//!                                               ▼
//!                               live rows, stable-sorted by key
//!                                               │
//!                                               ▼
//!                          partitioner + CostModel (Encoding::LecoVar)
//!                                               │
//!                                               ▼
//!                              immutable table files (TableFile)
//!                                               │ atomic swap
//!                                               ▼
//!                            manifest rename  +  fresh checkpoint WAL
//! ```
//!
//! # Flush order
//!
//! A flush writes its rows sorted by the key column (stable, so equal keys
//! keep arrival order). Rows arrive interleaved across connections, and the
//! finer the group commit batches them the shorter the runs each column
//! keeps — the serial correlation LeCo-var's models fit. Sorted, the file
//! no longer depends on arrival timing. Scans and tombstones do not depend
//! on row order, and the checkpoint WAL still logs unflushed rows in
//! arrival order.
//!
//! # Locking
//!
//! Two locks, always in the order **WAL → state**: the WAL mutex serializes
//! writers (and makes batch fsyncs well-ordered); the state `RwLock` guards
//! the in-memory view. Scans only take the state read lock, briefly, to
//! clone a snapshot (memtable copy + `Arc`s of frozen segments and files) —
//! they never block on an fsync and never see a half-applied commit.
//!
//! # Crash safety
//!
//! The manifest rename is the *only* commit point for compaction. The
//! compactor first syncs the new table files, then writes and syncs a fresh
//! checkpoint WAL serializing exactly the state the swap will leave in
//! memory, and only then renames the manifest (which names both). A crash
//! before the rename replays the old WAL against the old file set; a crash
//! after replays the checkpoint against the new one — both reconstruct the
//! acknowledged rows exactly once. Replaced table files and the old WAL are
//! deleted lazily (orphan sweep on open), never while a concurrent scan
//! might still read them.
//!
//! # Deletes
//!
//! `DEL key` kills every row whose key column equals `key` *at that moment*:
//! memtable rows are purged in place, frozen segments get a copy-on-write
//! alive mask, and compacted files are masked at scan time, row group by
//! row group, by a tombstone set (every live tombstone postdates every
//! compacted row, so plain key membership is exact). Each tombstone
//! carries the epoch of its delete; compaction rewrites the files it can
//! prove the tombstones touch and then drops exactly the tombstones that
//! existed when its snapshot was taken — a delete racing the compactor
//! keeps its tombstone and masks the freshly written files too.

use crate::manifest::{sync_dir, Manifest};
use crate::scan::scan_rows;
use crate::segment::{FrozenSegment, MemSegment};
use crate::stats::ColumnStats;
use crate::wal::{replay, ReplayReport, Wal, WalRecord};
use leco_columnar::{Encoding, Partial, TableFile, TableFileOptions};
use leco_scan::{ScanError, ScanSpec, Scanner};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

/// Tuning knobs for a [`LiveTable`].
#[derive(Debug, Clone, Copy)]
pub struct IngestConfig {
    /// Rows per memtable before it freezes.
    pub segment_rows: usize,
    /// Frozen segments that wake the background compactor.
    pub compact_min_segments: usize,
    /// Row-group size of compacted table files.
    pub row_group_size: usize,
    /// Spawn the background compactor thread. Off, compaction only happens
    /// through [`LiveTable::flush`] / [`LiveTable::compact_once`] — what the
    /// deterministic tests use.
    pub auto_compact: bool,
    /// Key column deletes address (only consulted when creating a new
    /// table; reopened tables take it from the manifest).
    pub key_col: usize,
}

impl Default for IngestConfig {
    fn default() -> Self {
        Self {
            segment_rows: 65_536,
            compact_min_segments: 2,
            row_group_size: 8_192,
            auto_compact: true,
            key_col: 0,
        }
    }
}

/// What a [`LiveTable::flush`] / [`LiveTable::compact_once`] accomplished.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Live rows flushed out of frozen segments into table files.
    pub rows_flushed: u64,
    /// New table files written from frozen segments.
    pub files_written: usize,
    /// Existing table files rewritten to drop tombstoned rows.
    pub files_rewritten: usize,
    /// Tombstones retired by the swap.
    pub tombstones_dropped: usize,
}

/// Point-in-time shape of a live table, for tests and observability.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Rows in the mutable memtable.
    pub mem_rows: usize,
    /// Frozen segments awaiting compaction.
    pub frozen_segments: usize,
    /// Live rows across frozen segments.
    pub frozen_rows: usize,
    /// Compacted table files.
    pub files: usize,
    /// Total rows stored in compacted files (before tombstone masking).
    pub file_rows: usize,
    /// Live tombstones masking compacted files.
    pub tombstones: usize,
}

#[derive(Debug)]
struct CompactedFile {
    name: String,
    table: TableFile,
}

#[derive(Debug)]
struct TableState {
    mem: MemSegment,
    frozen: Vec<Arc<FrozenSegment>>,
    files: Vec<Arc<CompactedFile>>,
    /// key → epoch of its latest delete. Epochs order deletes against
    /// compaction snapshots so a racing delete survives the swap.
    tombstones: HashMap<u64, u64>,
    del_epoch: u64,
    next_segment_id: u64,
    next_file_id: u64,
    manifest_gen: u64,
    wal_name: String,
}

struct Inner {
    dir: PathBuf,
    columns: Vec<String>,
    key_col: usize,
    config: IngestConfig,
    wal: Mutex<Wal>,
    state: RwLock<TableState>,
    /// Serializes compaction cycles (the heavyweight part runs lock-free
    /// against a snapshot; this keeps two cycles from interleaving).
    compact_gate: Mutex<()>,
    wake: StdMutex<bool>,
    wake_cv: Condvar,
    shutdown: AtomicBool,
}

/// A WAL-backed ingestible table serving snapshot-consistent scans.
pub struct LiveTable {
    inner: Arc<Inner>,
    compactor: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Replay outcome of the open that produced this handle.
    replay_report: ReplayReport,
}

impl std::fmt::Debug for LiveTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveTable")
            .field("dir", &self.inner.dir)
            .field("columns", &self.inner.columns)
            .finish_non_exhaustive()
    }
}

fn wal_file_name(gen: u64) -> String {
    format!("wal-{gen:06}.log")
}

fn table_file_name(id: u64) -> String {
    format!("file-{id:06}.tbl")
}

fn invalid_input(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidInput, message)
}

impl LiveTable {
    /// Open (or create) the live table stored in `dir`.
    ///
    /// Creating requires `columns` (no commas in names) — they become the
    /// table schema. Reopening validates `columns` against the manifest,
    /// sweeps orphan files from interrupted compactions, opens the manifest's
    /// table files and replays the WAL, truncating it at the first torn or
    /// corrupt record.
    pub fn open<P: AsRef<Path>>(
        dir: P,
        columns: &[&str],
        config: IngestConfig,
    ) -> std::io::Result<LiveTable> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let manifest = match Manifest::read(&dir)? {
            Some(m) => {
                if m.columns != columns {
                    return Err(invalid_input(format!(
                        "schema mismatch: manifest has {:?}, caller wants {columns:?}",
                        m.columns
                    )));
                }
                m
            }
            None => {
                if columns.is_empty() {
                    return Err(invalid_input("a table needs at least one column".into()));
                }
                if columns.iter().any(|c| c.contains(',') || c.is_empty()) {
                    return Err(invalid_input(format!("bad column names {columns:?}")));
                }
                if config.key_col >= columns.len() {
                    return Err(invalid_input(format!(
                        "key_col {} out of range for {} columns",
                        config.key_col,
                        columns.len()
                    )));
                }
                let m = Manifest {
                    gen: 0,
                    key_col: config.key_col,
                    columns: columns.iter().map(|s| s.to_string()).collect(),
                    wal: wal_file_name(0),
                    files: Vec::new(),
                };
                Wal::create(&dir.join(&m.wal))?;
                m.write_atomic(&dir)?;
                m
            }
        };

        // Orphan sweep: WALs and table files from an interrupted compaction
        // (written but never committed by a manifest rename) are garbage.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_wal_orphan = name.starts_with("wal-") && name != manifest.wal;
            let is_file_orphan = name.starts_with("file-") && !manifest.files.contains(&name);
            if is_wal_orphan || is_file_orphan || name == "MANIFEST.tmp" {
                std::fs::remove_file(entry.path())?;
                leco_obs::counter!("ing.orphans_swept").inc();
            }
        }

        let files: Vec<Arc<CompactedFile>> = manifest
            .files
            .iter()
            .map(|name| {
                TableFile::open(dir.join(name)).map(|table| {
                    Arc::new(CompactedFile {
                        name: name.clone(),
                        table,
                    })
                })
            })
            .collect::<std::io::Result<_>>()?;
        let next_file_id = manifest
            .files
            .iter()
            .filter_map(|f| {
                f.strip_prefix("file-")?
                    .strip_suffix(".tbl")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .map_or(0, |m| m + 1);

        // Replay the WAL into a fresh in-memory state. FREEZE markers
        // reproduce the original segment boundaries; deletes re-purge and
        // re-tombstone exactly as they did the first time.
        let ncols = manifest.columns.len();
        let key_col = manifest.key_col;
        let mut state = TableState {
            mem: MemSegment::new(ncols),
            frozen: Vec::new(),
            files,
            tombstones: HashMap::new(),
            del_epoch: 0,
            next_segment_id: 0,
            next_file_id,
            manifest_gen: manifest.gen,
            wal_name: manifest.wal.clone(),
        };
        let wal_path = dir.join(&manifest.wal);
        let sw = leco_obs::Stopwatch::start();
        let replay_report = replay(&wal_path, |record| match record {
            WalRecord::Row(values) => {
                if values.len() == ncols {
                    state.mem.push_row(&values);
                } else {
                    leco_obs::counter!("ing.replay_bad_arity").inc();
                }
            }
            WalRecord::Del(key) => apply_del(&mut state, key_col, key),
            WalRecord::Freeze => {
                if !state.mem.is_empty() {
                    let id = state.next_segment_id;
                    state.next_segment_id += 1;
                    let seg = std::mem::replace(&mut state.mem, MemSegment::new(ncols));
                    state.frozen.push(Arc::new(seg.freeze(id)));
                }
            }
        })?;
        leco_obs::histogram!("ing.replay_secs").record_secs(sw.elapsed_secs());

        let wal = Wal::open_for_append(&wal_path)?;
        let inner = Arc::new(Inner {
            dir,
            columns: manifest.columns,
            key_col,
            config,
            wal: Mutex::new(wal),
            state: RwLock::new(state),
            compact_gate: Mutex::new(()),
            wake: StdMutex::new(false),
            wake_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });

        let compactor = if config.auto_compact {
            let worker = Arc::clone(&inner);
            Some(std::thread::spawn(move || background_compactor(worker)))
        } else {
            None
        };
        let table = LiveTable {
            inner,
            compactor: Mutex::new(compactor),
            replay_report,
        };
        table.publish_gauges();
        Ok(table)
    }

    /// Column names, in storage order.
    pub fn columns(&self) -> &[String] {
        &self.inner.columns
    }

    /// Index of the key column deletes address.
    pub fn key_col(&self) -> usize {
        self.inner.key_col
    }

    /// Path of the current WAL file (what a crash test corrupts).
    pub fn wal_path(&self) -> PathBuf {
        self.inner.dir.join(&self.inner.state.read().wal_name)
    }

    /// What WAL replay recovered (and discarded) when this handle opened.
    pub fn replay_report(&self) -> ReplayReport {
        self.replay_report
    }

    /// Append one row: durable (WAL fsync) before it is visible or
    /// acknowledged.
    pub fn put(&self, row: &[u64]) -> std::io::Result<()> {
        self.put_batch(&[row])
    }

    /// Append a batch of rows under one fsync — the group commit. All-or-
    /// nothing per batch: arity is validated before anything is written.
    pub fn put_batch(&self, rows: &[&[u64]]) -> std::io::Result<()> {
        for row in rows {
            self.check_row(row)?;
        }
        if rows.is_empty() {
            return Ok(());
        }
        self.ingest_rows(rows)
    }

    /// The `InvalidInput` error [`Self::put_batch`] returns for `row`, if
    /// its arity does not match the schema.
    pub fn check_row(&self, row: &[u64]) -> std::io::Result<()> {
        let ncols = self.inner.columns.len();
        if row.len() == ncols {
            Ok(())
        } else {
            Err(invalid_input(format!(
                "row has {} values, table has {ncols} columns",
                row.len()
            )))
        }
    }

    /// Append column-major data (`cols[c][r]`), group-committed in bounded
    /// chunks so arbitrarily large loads never hold the locks for long.
    pub fn append_columns(&self, cols: &[Vec<u64>]) -> std::io::Result<()> {
        let ncols = self.inner.columns.len();
        if cols.len() != ncols {
            return Err(invalid_input(format!(
                "{} columns given, table has {ncols}",
                cols.len()
            )));
        }
        let rows = cols.first().map_or(0, Vec::len);
        if cols.iter().any(|c| c.len() != rows) {
            return Err(invalid_input("ragged columns".into()));
        }
        const CHUNK: usize = 65_536;
        let mut buf: Vec<Vec<u64>> = Vec::with_capacity(CHUNK.min(rows));
        for start in (0..rows).step_by(CHUNK) {
            let end = (start + CHUNK).min(rows);
            buf.clear();
            for r in start..end {
                buf.push(cols.iter().map(|c| c[r]).collect());
            }
            let refs: Vec<&[u64]> = buf.iter().map(Vec::as_slice).collect();
            self.ingest_rows(&refs)?;
        }
        Ok(())
    }

    /// The shared ingest path: write WAL records (with FREEZE markers at the
    /// exact positions the memtable will freeze), fsync once, then apply.
    /// The rows are walked twice — once to log, once to apply — so freeze
    /// boundaries in the log match the in-memory boundaries record for
    /// record, and replay reproduces the same segments.
    fn ingest_rows(&self, rows: &[&[u64]]) -> std::io::Result<()> {
        let inner = &self.inner;
        let seg_rows = inner.config.segment_rows.max(1);
        let mut wal = inner.wal.lock();
        // Freeze boundaries are determined by the memtable fill at commit
        // time; the WAL lock keeps other writers from interleaving, so the
        // fill cannot change between the two passes.
        let mut fill = inner.state.read().mem.rows();
        for row in rows {
            wal.append(&WalRecord::Row(row.to_vec()))?;
            fill += 1;
            if fill >= seg_rows {
                wal.append(&WalRecord::Freeze)?;
                fill = 0;
            }
        }
        let sw = leco_obs::Stopwatch::start();
        wal.commit()?;
        leco_obs::histogram!("ing.commit_secs").record_secs(sw.elapsed_secs());

        let mut froze = false;
        {
            let mut st = inner.state.write();
            for row in rows {
                st.mem.push_row(row);
                if st.mem.rows() >= seg_rows {
                    let id = st.next_segment_id;
                    st.next_segment_id += 1;
                    let ncols = inner.columns.len();
                    let seg = std::mem::replace(&mut st.mem, MemSegment::new(ncols));
                    st.frozen.push(Arc::new(seg.freeze(id)));
                    froze = true;
                }
            }
        }
        drop(wal);
        leco_obs::counter!("ing.put_rows").add(rows.len() as u64);
        if froze {
            leco_obs::counter!("ing.freezes").inc();
            self.poke_compactor();
        }
        self.publish_gauges();
        Ok(())
    }

    /// Delete every row whose key column equals `key` — durable before
    /// visible, like [`Self::put`].
    pub fn delete(&self, key: u64) -> std::io::Result<()> {
        let inner = &self.inner;
        let mut wal = inner.wal.lock();
        wal.append(&WalRecord::Del(key))?;
        wal.commit()?;
        {
            let mut st = inner.state.write();
            apply_del(&mut st, inner.key_col, key);
        }
        drop(wal);
        leco_obs::counter!("ing.del_ops").inc();
        self.publish_gauges();
        Ok(())
    }

    /// Freeze whatever the memtable holds and run one synchronous compaction
    /// cycle: afterwards every acknowledged row lives in a compacted table
    /// file (or was deleted).
    pub fn flush(&self) -> std::io::Result<CompactReport> {
        {
            let inner = &self.inner;
            let mut wal = inner.wal.lock();
            let mut st = inner.state.write();
            if !st.mem.is_empty() {
                wal.append(&WalRecord::Freeze)?;
                wal.commit()?;
                let id = st.next_segment_id;
                st.next_segment_id += 1;
                let ncols = inner.columns.len();
                let seg = std::mem::replace(&mut st.mem, MemSegment::new(ncols));
                st.frozen.push(Arc::new(seg.freeze(id)));
                leco_obs::counter!("ing.freezes").inc();
            }
        }
        self.compact_once()
    }

    /// Run one compaction cycle (freeze nothing; flush existing frozen
    /// segments and apply tombstones). No-op when there is nothing to do.
    pub fn compact_once(&self) -> std::io::Result<CompactReport> {
        compact_cycle(&self.inner)
    }

    /// Scan a consistent snapshot: memtable + frozen segments + compacted
    /// files, folded into one exact [`Partial`]. Each compacted file runs
    /// through the `leco-scan` morsel engine on `threads` workers, its
    /// tombstoned keys masked per row group
    /// ([`Scanner::without_keys`]).
    ///
    /// `rows_scanned` counts the snapshot's live rows; `morsels` counts the
    /// compacted-file row groups that survived zone-map pruning (memtable
    /// and frozen rows add none).
    pub fn scan(&self, spec: &ScanSpec, threads: usize) -> std::io::Result<Partial> {
        let inner = &self.inner;
        let plan = spec
            .resolve(|name| inner.columns.iter().position(|c| c == name))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let sw = leco_obs::Stopwatch::start();

        // Snapshot under the read lock: copy the (bounded) memtable, clone
        // Arcs for everything immutable. Commits after this see none of it.
        let (mem_columns, frozen, files, tombstones) = {
            let st = inner.state.read();
            let mem_columns: Vec<Vec<u64>> = st.mem.columns().to_vec();
            let tombstones: HashSet<u64> = st.tombstones.keys().copied().collect();
            (mem_columns, st.frozen.clone(), st.files.clone(), tombstones)
        };

        let mut acc = Partial::default();
        scan_rows(&mem_columns, None, &plan, &mut acc);
        for seg in &frozen {
            scan_rows(seg.columns(), Some(seg), &plan, &mut acc);
        }
        for file in &files {
            let scanner =
                Scanner::with_plan(&file.table, plan).without_keys(inner.key_col, &tombstones);
            let (partial, _) = scanner.run_partial(threads).map_err(|e| match e {
                ScanError::Io(e) => e,
                other => std::io::Error::other(other),
            })?;
            acc.merge(partial);
        }
        leco_obs::histogram!("ing.scan_secs").record_secs(sw.elapsed_secs());
        Ok(acc)
    }

    /// Current shape of the table (sizes, not contents).
    pub fn stats(&self) -> TableStats {
        let st = self.inner.state.read();
        TableStats {
            mem_rows: st.mem.rows(),
            frozen_segments: st.frozen.len(),
            frozen_rows: st.frozen.iter().map(|s| s.live_rows()).sum(),
            files: st.files.len(),
            file_rows: st.files.iter().map(|f| f.table.num_rows()).sum(),
            tombstones: st.tombstones.len(),
        }
    }

    fn publish_gauges(&self) {
        let s = self.stats();
        leco_obs::gauge!("ing.mem_rows").set(s.mem_rows as i64);
        leco_obs::gauge!("ing.frozen_segments").set(s.frozen_segments as i64);
        leco_obs::gauge!("ing.files").set(s.files as i64);
        leco_obs::gauge!("ing.tombstones").set(s.tombstones as i64);
    }

    fn poke_compactor(&self) {
        let mut flag = self.inner.wake.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.inner.wake_cv.notify_all();
    }
}

impl Drop for LiveTable {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let mut flag = self.inner.wake.lock().unwrap_or_else(|e| e.into_inner());
            *flag = true;
            self.inner.wake_cv.notify_all();
        }
        if let Some(handle) = self.compactor.lock().take() {
            let _ = handle.join();
        }
    }
}

/// Apply a delete to the in-memory state (WAL record already durable, or
/// being replayed): purge the memtable, copy-on-write-mask every frozen
/// segment, and record an epoch-stamped tombstone for the compacted files.
fn apply_del(st: &mut TableState, key_col: usize, key: u64) {
    st.mem.purge_key(key_col, key);
    for slot in &mut st.frozen {
        if let Some(masked) = slot.without_key(key_col, key) {
            *slot = Arc::new(masked);
        }
    }
    st.del_epoch += 1;
    let epoch = st.del_epoch;
    st.tombstones.insert(key, epoch);
}

/// The background thread: sleep until poked (or shutdown), compact when
/// enough frozen segments have piled up.
fn background_compactor(inner: Arc<Inner>) {
    loop {
        {
            let guard = inner.wake.lock().unwrap_or_else(|e| e.into_inner());
            let (mut guard, _timeout) = inner
                .wake_cv
                .wait_timeout_while(guard, std::time::Duration::from_millis(100), |woken| {
                    !*woken
                })
                .unwrap_or_else(|e| e.into_inner());
            *guard = false;
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let pending = inner.state.read().frozen.len();
        if pending >= inner.config.compact_min_segments {
            if let Err(e) = compact_cycle(&inner) {
                leco_obs::counter!("ing.compact_errors").inc();
                eprintln!("leco-ingest: background compaction failed: {e}");
            }
        }
    }
}

/// Pick the flush encoding from the columns' stats: columns dominated by
/// long non-decreasing runs reward the learned variable-length partitioner
/// (`LecoVar` — split-merge partitioning under the exact cost model); noisy
/// short-run data is stored plain rather than paying model overhead for no
/// size win.
fn choose_encoding(stats: &[ColumnStats]) -> Encoding {
    let model_friendly = stats.iter().filter(|s| s.avg_run_len() >= 4.0).count();
    if 2 * model_friendly >= stats.len() {
        Encoding::LecoVar
    } else {
        Encoding::Plain
    }
}

/// Whether any tombstoned key could live in `file`, judged by the key
/// column's zone maps. False positives only cost a rewrite.
fn file_may_contain(file: &TableFile, key_col: usize, keys: &HashSet<u64>) -> bool {
    (0..file.num_row_groups()).any(|rg| {
        let (min, max) = file.zone_map(rg, key_col);
        keys.iter().any(|&k| (min..=max).contains(&k))
    })
}

/// One full compaction cycle. Heavy work (reads, encodes, file writes)
/// happens against a lock-free snapshot; the commit takes WAL → state locks
/// only for the checkpoint serialization and pointer swap.
fn compact_cycle(inner: &Arc<Inner>) -> std::io::Result<CompactReport> {
    let _gate = inner.compact_gate.lock();
    let sw = leco_obs::Stopwatch::start();
    let ncols = inner.columns.len();
    let key_col = inner.key_col;

    // ---- Snapshot ----
    let (frozen, files, tombstones, snapshot_epoch, mut next_file_id) = {
        let st = inner.state.read();
        (
            st.frozen.clone(),
            st.files.clone(),
            st.tombstones.clone(),
            st.del_epoch,
            st.next_file_id,
        )
    };
    let tomb_keys: HashSet<u64> = tombstones.keys().copied().collect();

    // ---- Plan: which existing files do tombstones touch? ----
    let mut kept: Vec<Arc<CompactedFile>> = Vec::new();
    let mut rewrite: Vec<Arc<CompactedFile>> = Vec::new();
    for f in &files {
        if file_may_contain(&f.table, key_col, &tomb_keys) {
            rewrite.push(Arc::clone(f));
        } else {
            kept.push(Arc::clone(f));
        }
    }
    if frozen.is_empty() && rewrite.is_empty() && tombstones.is_empty() {
        return Ok(CompactReport::default());
    }

    let mut report = CompactReport::default();
    let mut new_files: Vec<Arc<CompactedFile>> = Vec::new();

    // ---- Rewrite tombstoned files, dropping dead rows ----
    for f in &rewrite {
        let table = &f.table;
        let mut cols: Vec<Vec<u64>> = vec![Vec::new(); ncols];
        let mut stats = leco_columnar::exec::QueryStats::default();
        let reader = table.chunk_reader()?;
        let mut decoded: Vec<Vec<u64>> = vec![Vec::new(); ncols];
        for rg in 0..table.num_row_groups() {
            for (c, buf) in decoded.iter_mut().enumerate() {
                buf.clear();
                reader.read_chunk(rg, c, &mut stats)?.decode_into(buf);
            }
            let rows = decoded[key_col].len();
            // `r` walks every decoded column vector in parallel.
            #[allow(clippy::needless_range_loop)]
            for r in 0..rows {
                if !tomb_keys.contains(&decoded[key_col][r]) {
                    for (c, col) in cols.iter_mut().enumerate() {
                        col.push(decoded[c][r]);
                    }
                }
            }
        }
        report.files_rewritten += 1;
        if cols[0].is_empty() {
            continue; // every row was dead; the file simply disappears
        }
        let file = write_table_file(inner, &mut next_file_id, &cols)?;
        new_files.push(Arc::new(file));
    }

    // ---- Flush the snapshot's frozen segments into one new file ----
    if !frozen.is_empty() {
        let mut cols: Vec<Vec<u64>> = vec![Vec::new(); ncols];
        for seg in &frozen {
            let data = seg.columns();
            for i in seg.live_indices() {
                for (c, col) in cols.iter_mut().enumerate() {
                    col.push(data[c][i]);
                }
            }
        }
        report.rows_flushed = cols[0].len() as u64;
        if !cols[0].is_empty() {
            let file = write_table_file(inner, &mut next_file_id, &sort_by_key(cols, key_col))?;
            report.files_written += 1;
            new_files.push(Arc::new(file));
        }
    }
    leco_obs::counter!("ing.compact_rows").add(report.rows_flushed);

    // ---- Commit: checkpoint WAL, manifest rename, in-memory swap ----
    let snapshot_ids: HashSet<u64> = frozen.iter().map(|s| s.id).collect();
    let mut wal = inner.wal.lock();
    let mut st = inner.state.write();

    // Post-swap in-memory state, computed first so the checkpoint can
    // serialize exactly what the swap will install.
    let files_after: Vec<Arc<CompactedFile>> = kept
        .iter()
        .cloned()
        .chain(new_files.iter().cloned())
        .collect();
    let frozen_after: Vec<Arc<FrozenSegment>> = st
        .frozen
        .iter()
        .filter(|s| !snapshot_ids.contains(&s.id))
        .cloned()
        .collect();
    let tombstones_after: HashMap<u64, u64> = st
        .tombstones
        .iter()
        .filter(|&(_, &epoch)| epoch > snapshot_epoch)
        .map(|(&k, &e)| (k, e))
        .collect();
    report.tombstones_dropped = st.tombstones.len() - tombstones_after.len();

    // Checkpoint WAL: tombstones first (they must not kill the re-logged
    // rows, which are all live by construction), then frozen segments
    // oldest-first with their FREEZE markers, then the memtable.
    let gen = st.manifest_gen + 1;
    let wal_name = wal_file_name(gen);
    let mut checkpoint = Wal::create(&inner.dir.join(&wal_name))?;
    let mut keys: Vec<u64> = tombstones_after.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        checkpoint.append(&WalRecord::Del(key))?;
    }
    let mut row = vec![0u64; ncols];
    for seg in &frozen_after {
        let data = seg.columns();
        for i in seg.live_indices() {
            for (c, v) in row.iter_mut().enumerate() {
                *v = data[c][i];
            }
            checkpoint.append(&WalRecord::Row(row.clone()))?;
        }
        checkpoint.append(&WalRecord::Freeze)?;
    }
    for r in 0..st.mem.rows() {
        for (c, v) in row.iter_mut().enumerate() {
            *v = st.mem.columns()[c][r];
        }
        checkpoint.append(&WalRecord::Row(row.clone()))?;
    }
    checkpoint.commit()?;

    // The commit point. Before: replaying the old WAL against the old file
    // set reconstructs everything. After: the new manifest names the new
    // files and the checkpoint WAL.
    let manifest = Manifest {
        gen,
        key_col,
        columns: inner.columns.clone(),
        wal: wal_name.clone(),
        files: files_after.iter().map(|f| f.name.clone()).collect(),
    };
    manifest.write_atomic(&inner.dir)?;

    let old_wal_name = std::mem::replace(&mut st.wal_name, wal_name);
    st.manifest_gen = gen;
    st.files = files_after;
    st.frozen = frozen_after;
    st.tombstones = tombstones_after;
    st.next_file_id = next_file_id;
    *wal = checkpoint;
    drop(st);
    drop(wal);

    // The old WAL is superseded; replaced table files stay on disk for
    // concurrent scans still holding their Arcs (swept on next open).
    std::fs::remove_file(inner.dir.join(&old_wal_name)).ok();

    leco_obs::counter!("ing.compactions").inc();
    leco_obs::counter!("ing.checkpoints").inc();
    leco_obs::histogram!("ing.compact_secs").record_secs(sw.elapsed_secs());
    leco_obs::gauge!("ing.files").set(inner.state.read().files.len() as i64);
    Ok(report)
}

/// Stable-sort the rows of `cols` by the key column, so equal keys keep
/// their arrival order (why: the module docs' *Flush order*).
fn sort_by_key(cols: Vec<Vec<u64>>, key_col: usize) -> Vec<Vec<u64>> {
    let keys = &cols[key_col];
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by_key(|&i| keys[i]);
    cols.iter()
        .map(|col| order.iter().map(|&i| col[i]).collect())
        .collect()
}

/// Encode `cols` into a new table file (choosing the encoding from the
/// columns' stats), then fsync it and its directory so the manifest rename
/// that follows commits real bytes.
fn write_table_file(
    inner: &Inner,
    next_file_id: &mut u64,
    cols: &[Vec<u64>],
) -> std::io::Result<CompactedFile> {
    let stats: Vec<ColumnStats> = cols.iter().map(|col| ColumnStats::of(col)).collect();
    let name = table_file_name(*next_file_id);
    *next_file_id += 1;
    let path = inner.dir.join(&name);
    let names: Vec<&str> = inner.columns.iter().map(String::as_str).collect();
    let table = TableFile::write(
        &path,
        &names,
        cols,
        TableFileOptions {
            encoding: choose_encoding(&stats),
            row_group_size: inner.config.row_group_size,
            block_compression: leco_columnar::BlockCompression::None,
        },
    )?;
    File::open(&path)?.sync_all()?;
    sync_dir(&inner.dir)?;
    Ok(CompactedFile { name, table })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leco-ingest-table-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    fn manual_config() -> IngestConfig {
        IngestConfig {
            segment_rows: 100,
            compact_min_segments: 2,
            row_group_size: 64,
            auto_compact: false,
            key_col: 0,
        }
    }

    /// (key, id, val) rows with keys cycling 0..50.
    fn sample_rows(n: u64) -> Vec<Vec<u64>> {
        (0..n).map(|i| vec![i % 50, i % 7, 1_000 + i * 3]).collect()
    }

    fn put_all(table: &LiveTable, rows: &[Vec<u64>]) {
        let refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
        table.put_batch(&refs).unwrap();
    }

    #[test]
    fn put_freeze_compact_scan_pipeline() {
        let dir = tmp_dir("pipeline");
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        let rows = sample_rows(250);
        put_all(&table, &rows);
        // 250 rows at segment_rows=100: two frozen segments + 50 in memtable.
        let s = table.stats();
        assert_eq!((s.mem_rows, s.frozen_segments, s.files), (50, 2, 0));

        let expect_sum: u128 = rows.iter().map(|r| r[2] as u128).sum();
        let out = table.scan(&ScanSpec::count().sum("val"), 2).unwrap();
        assert_eq!(out.rows_selected, 250);
        assert_eq!(out.sum, expect_sum);

        let report = table.flush().unwrap();
        assert_eq!(report.rows_flushed, 250);
        assert_eq!(report.files_written, 1);
        let s = table.stats();
        assert_eq!(
            (s.mem_rows, s.frozen_segments, s.files, s.file_rows),
            (0, 0, 1, 250)
        );

        // Same answers after everything moved into a compacted file.
        let out = table.scan(&ScanSpec::count().sum("val"), 2).unwrap();
        assert_eq!((out.rows_selected, out.sum), (250, expect_sum));
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_replays_the_wal() {
        let dir = tmp_dir("reopen");
        let rows = sample_rows(130);
        {
            let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
            put_all(&table, &rows);
        }
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        // 130 ROW records + 1 FREEZE marker.
        assert_eq!(table.replay_report().records, 131);
        assert_eq!(table.replay_report().truncated_bytes, 0);
        let s = table.stats();
        assert_eq!((s.mem_rows, s.frozen_segments), (30, 1));
        let out = table.scan(&ScanSpec::count(), 1).unwrap();
        assert_eq!(out.rows_selected, 130);
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reopen_after_flush_uses_manifest_files() {
        let dir = tmp_dir("reopen-flushed");
        let rows = sample_rows(300);
        let expect_sum: u128 = rows.iter().map(|r| r[2] as u128).sum();
        {
            let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
            put_all(&table, &rows);
            table.flush().unwrap();
            // A few more rows after the checkpoint, recovered from the new WAL.
            table.put(&[1000, 1, 5]).unwrap();
        }
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        assert_eq!(table.replay_report().records, 1);
        let s = table.stats();
        assert_eq!((s.mem_rows, s.files, s.file_rows), (1, 1, 300));
        let out = table.scan(&ScanSpec::count().sum("val"), 2).unwrap();
        assert_eq!(out.rows_selected, 301);
        assert_eq!(out.sum, expect_sum + 5);
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_masks_every_layer() {
        let dir = tmp_dir("delete");
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        // Layer 1: compacted file holding key 7.
        put_all(&table, &sample_rows(250));
        table.flush().unwrap();
        // Layer 2: frozen segment holding key 7.
        put_all(&table, &sample_rows(100));
        // Layer 3: memtable holding key 7.
        put_all(&table, &sample_rows(30));

        let before = table.scan(&ScanSpec::count(), 1).unwrap().rows_selected;
        let with_key7 = table
            .scan(&ScanSpec::count().filter("key", 7, 7), 1)
            .unwrap()
            .rows_selected;
        assert!(with_key7 > 0);
        table.delete(7).unwrap();
        let after = table.scan(&ScanSpec::count(), 1).unwrap();
        assert_eq!(after.rows_selected, before - with_key7);
        assert_eq!(
            table
                .scan(&ScanSpec::count().filter("key", 7, 7), 1)
                .unwrap()
                .rows_selected,
            0
        );

        // Resurrection: a put after the delete is visible...
        table.put(&[7, 1, 999]).unwrap();
        assert_eq!(
            table
                .scan(&ScanSpec::count().filter("key", 7, 7), 1)
                .unwrap()
                .rows_selected,
            1
        );
        // ...and survives the compaction that applies the tombstone.
        let report = table.flush().unwrap();
        assert!(report.files_rewritten >= 1);
        assert_eq!(table.stats().tombstones, 0);
        let sum7 = table
            .scan(&ScanSpec::count().filter("key", 7, 7).sum("val"), 1)
            .unwrap();
        assert_eq!((sum7.rows_selected, sum7.sum), (1, 999));
        assert_eq!(
            table.scan(&ScanSpec::count(), 1).unwrap().rows_selected,
            after.rows_selected + 1
        );
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delete_survives_reopen() {
        let dir = tmp_dir("delete-reopen");
        {
            let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
            put_all(&table, &sample_rows(250));
            table.flush().unwrap();
            table.delete(3).unwrap(); // tombstone in the WAL, not yet compacted
        }
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        assert_eq!(
            table
                .scan(&ScanSpec::count().filter("key", 3, 3), 1)
                .unwrap()
                .rows_selected,
            0
        );
        assert_eq!(table.stats().tombstones, 1);
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_avg_matches_hand_computation() {
        let dir = tmp_dir("groups");
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        let rows = sample_rows(333);
        put_all(&table, &rows);
        table.flush().unwrap();
        put_all(&table, &sample_rows(40)); // leave some rows in memory too

        let mut expect: HashMap<u64, (u128, u64)> = HashMap::new();
        for r in rows.iter().chain(sample_rows(40).iter()) {
            let e = expect.entry(r[1]).or_insert((0, 0));
            e.0 += r[2] as u128;
            e.1 += 1;
        }
        let out = table
            .scan(&ScanSpec::count().group_by_avg("id", "val"), 2)
            .unwrap();
        let mut expect_groups: Vec<(u64, u128, u64)> =
            expect.iter().map(|(&id, &(s, c))| (id, s, c)).collect();
        expect_groups.sort_unstable_by_key(|&(id, _, _)| id);
        assert_eq!(out.groups, expect_groups);
        let got = out.group_avgs();
        assert_eq!(got.len(), expect.len());
        assert!(got.is_sorted_by_key(|&(id, _)| id));
        for (id, avg) in got {
            let (sum, count) = expect[&id];
            assert_eq!(avg.to_bits(), (sum as f64 / count as f64).to_bits());
        }
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_missing_compacted_file_surfaces_as_not_found() {
        let dir = tmp_dir("missing-file");
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        put_all(&table, &sample_rows(120));
        assert_eq!(table.flush().unwrap().files_written, 1);
        std::fs::remove_file(dir.join(table_file_name(0))).unwrap();
        let err = table.scan(&ScanSpec::count(), 2).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound, "{err}");
        let message = err.to_string();
        assert!(
            !message.contains("Os {") && !message.contains("Io("),
            "{message}"
        );
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_truncated_masked_file_fails_the_scan_at_every_thread_count() {
        let dir = tmp_dir("truncated-masked");
        let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
        put_all(&table, &sample_rows(400));
        assert_eq!(table.flush().unwrap().files_written, 1);
        // The tombstone masks the file at scan time until a compaction.
        table.delete(7).unwrap();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(table_file_name(0)))
            .unwrap();
        file.set_len(0).unwrap();
        drop(file);
        for spec in [
            ScanSpec::count(),
            ScanSpec::count().filter("key", 40, 49).sum("val"),
            ScanSpec::count().group_by_avg("id", "val"),
        ] {
            for threads in [1, 4] {
                let err = table.scan(&spec, threads).unwrap_err();
                assert_eq!(
                    err.kind(),
                    std::io::ErrorKind::UnexpectedEof,
                    "{spec:?}: {err}"
                );
            }
        }
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn schema_mismatch_and_bad_input_are_rejected() {
        let dir = tmp_dir("badinput");
        let table = LiveTable::open(&dir, &["a", "b"], manual_config()).unwrap();
        assert!(table.put(&[1]).is_err());
        assert!(table.put(&[1, 2, 3]).is_err());
        let err = table.scan(&ScanSpec::count().sum("nosuch"), 1).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), r#"column not found: "nosuch""#);
        drop(table);
        assert!(LiveTable::open(&dir, &["a", "c"], manual_config()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flush_output_does_not_depend_on_arrival_order() {
        // Two connections, each putting its own ascending keys.
        let conn = |c: u64| -> Vec<Vec<u64>> {
            (0..240u64)
                .map(|i| vec![c * 10_000 + i, (i * 7 + c) % 5, 5_000 + i * 3 + c])
                .collect()
        };
        let (a, b) = (conn(0), conn(1));
        let in_key_order: Vec<Vec<u64>> = a.iter().chain(&b).cloned().collect();
        // Out of phase: bursts of 1..=7 rows from one, 7..=1 from the other.
        let mut interleaved = Vec::new();
        let (mut ia, mut ib, mut burst) = (0, 0, 0);
        while ia < a.len() || ib < b.len() {
            burst = burst % 7 + 1;
            let take = burst.min(a.len() - ia);
            interleaved.extend_from_slice(&a[ia..ia + take]);
            ia += take;
            let take = (8 - burst).min(b.len() - ib);
            interleaved.extend_from_slice(&b[ib..ib + take]);
            ib += take;
        }
        let specs = [
            ScanSpec::count(),
            ScanSpec::count().filter("key", 100, 10_150).sum("val"),
            ScanSpec::count().group_by_avg("id", "val"),
        ];
        // The answer, without `morsels`: flushing legitimately moves rows
        // from memory (no morsels) into row groups.
        let scans = |table: &LiveTable| -> Vec<Partial> {
            specs
                .iter()
                .map(|s| Partial {
                    morsels: 0,
                    ..table.scan(s, 2).unwrap()
                })
                .collect()
        };

        let mut files = Vec::new();
        let mut answers = Vec::new();
        for (name, rows) in [("key-order", &in_key_order), ("interleaved", &interleaved)] {
            let dir = tmp_dir(name);
            let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
            for batch in rows.chunks(5) {
                put_all(&table, batch);
            }
            let before = scans(&table);
            assert_eq!(table.flush().unwrap().files_written, 1);
            assert_eq!(scans(&table), before, "{name}: flush changed an answer");
            drop(table);
            let table = LiveTable::open(&dir, &["key", "id", "val"], manual_config()).unwrap();
            assert_eq!(scans(&table), before, "{name}: reopen changed an answer");

            let path = dir.join(table_file_name(0));
            let file = TableFile::open(&path).unwrap();
            let mut keys = Vec::new();
            let mut stats = leco_columnar::exec::QueryStats::default();
            for rg in 0..file.num_row_groups() {
                file.read_chunk(rg, 0, &mut stats)
                    .unwrap()
                    .decode_into(&mut keys);
            }
            assert_eq!(keys.len(), rows.len());
            assert!(keys.is_sorted(), "{name}: flushed keys out of order");
            files.push(std::fs::read(&path).unwrap());
            answers.push(before);
            drop(table);
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(
            files[0] == files[1],
            "flushed files differ by arrival order"
        );
        assert_eq!(answers[0], answers[1]);
    }

    #[test]
    fn background_compactor_kicks_in() {
        let dir = tmp_dir("background");
        let config = IngestConfig {
            auto_compact: true,
            ..manual_config()
        };
        let table = LiveTable::open(&dir, &["key", "id", "val"], config).unwrap();
        put_all(&table, &sample_rows(450)); // 4 frozen segments + 50 in mem
        let sw = leco_obs::Stopwatch::start();
        while table.stats().files == 0 && sw.elapsed_secs() < 10.0 {
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let s = table.stats();
        assert!(s.files >= 1, "compactor never ran: {s:?}");
        assert_eq!(
            table.scan(&ScanSpec::count(), 1).unwrap().rows_selected,
            450
        );
        drop(table);
        std::fs::remove_dir_all(&dir).ok();
    }
}
