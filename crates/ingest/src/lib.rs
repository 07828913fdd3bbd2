//! `leco-ingest` — the write path of the LeCo stack.
//!
//! Everything below this crate encodes a complete, static column; this crate
//! is what makes data *arrive*: a WAL-backed mutable memtable, background
//! compaction of key-sorted rows through the learned partitioner + exact
//! cost model into immutable row-group table files, and
//! snapshot-consistent scans that merge memtable, frozen segments and
//! compacted files with exact integer partials.
//!
//! Entry point: [`LiveTable`]. See `docs/INGEST.md` for the on-disk formats
//! (WAL record bytes, manifest), the segment lifecycle, the recovery rules
//! and the `ing.*` metric inventory.

pub mod manifest;
mod scan;
pub mod segment;
pub mod stats;
pub mod table;
pub mod wal;

pub use leco_scan::ScanSpec;
pub use manifest::Manifest;
pub use segment::{FrozenSegment, MemSegment};
pub use stats::ColumnStats;
pub use table::{CompactReport, IngestConfig, LiveTable, TableStats};
pub use wal::{crc32, replay, ReplayReport, Wal, WalRecord};
