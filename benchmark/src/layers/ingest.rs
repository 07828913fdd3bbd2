//! `leco-ingest` boundary: benchmark-owned live tables and WALs for the
//! `ingest` rungs, and the reopen of a crash copy.
//!
//! Pinned API: `LiveTable::{open, put, put_batch, flush, scan, stats}`,
//! `IngestConfig`, `ScanSpec::{count, filter, sum}`, `CompactReport`,
//! `TableStats`, `Wal::{create, append, commit}`, `WalRecord::Row`.

pub use leco_ingest::LiveTable;
use leco_ingest::{IngestConfig, ScanSpec, Wal, WalRecord};
use std::path::Path;

pub const TABLE: &str = "events";
pub const COLUMNS: [&str; 3] = ["k", "ts", "val"];
/// Raw bytes of one row.
pub const ROW_BYTES: u64 = 24;

/// Small segments so that a 2.4 s round sees several freezes and compaction
/// cycles per shard. Per-commit fsync is the flush policy: never varied.
pub fn config(auto_compact: bool) -> IngestConfig {
    IngestConfig {
        segment_rows: 1024,
        compact_min_segments: 2,
        auto_compact,
        key_col: 0,
        ..Default::default()
    }
}

pub fn open(dir: &Path, auto_compact: bool) -> std::io::Result<LiveTable> {
    LiveTable::open(dir, &COLUMNS, config(auto_compact))
}

/// Rows the table holds across its three tiers (tombstoned rows of
/// compacted files included: they are masked at scan time).
pub fn rows_held(table: &LiveTable) -> u64 {
    let s = table.stats();
    (s.mem_rows + s.frozen_rows + s.file_rows) as u64
}

/// `COUNT(*), SUM(val) WHERE lo <= k <= hi`, one thread.
pub fn count_and_sum_keys(table: &LiveTable, lo: u64, hi: u64) -> std::io::Result<(u64, u128)> {
    let out = table.scan(&ScanSpec::count().filter("k", lo, hi).sum("val"), 1)?;
    Ok((out.rows_selected, out.sum))
}

/// `SUM(val)` over everything; returns `(rows scanned, sum)`.
pub fn sum_all(table: &LiveTable) -> std::io::Result<(u64, u128)> {
    let out = table.scan(&ScanSpec::count().sum("val"), 1)?;
    Ok((out.rows_scanned, out.sum))
}

pub struct WalProbe(Wal);

impl WalProbe {
    pub fn create(path: &Path) -> std::io::Result<WalProbe> {
        Wal::create(path).map(WalProbe)
    }

    pub fn append(&mut self, row: &[u64]) -> std::io::Result<()> {
        self.0.append(&WalRecord::Row(row.to_vec()))
    }

    /// Flush and fsync everything appended so far.
    pub fn commit(&mut self) -> std::io::Result<()> {
        self.0.commit()
    }
}
