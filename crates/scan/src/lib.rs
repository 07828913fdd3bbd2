//! `leco-scan` — a morsel-driven parallel scan engine over LeCo row-group
//! table files.
//!
//! The paper's systems claim (§5.1) is that learned columns make scan-heavy
//! analytics faster *end-to-end*; this crate supplies the execution engine
//! that turns the single-threaded kernels of `leco_columnar` into a
//! hardware-saturating scan:
//!
//! * **One scan description.** A [`ScanSpec`] names a filter and an
//!   aggregate by column name; [`ScanSpec::resolve`] is the one place a name
//!   becomes a column index, yielding the [`ScanPlan`] a [`Scanner`] runs.
//!   `leco-server` parses `SCAN` into it and `leco-ingest` scans live tables
//!   with it.
//! * **Morsels.** The unit of scheduling is one row group.  The scheduler
//!   applies zone-map pruning *before* enqueueing, so a morsel that cannot
//!   contain a match is never seen by a worker.
//! * **Work stealing.** Morsels are dealt round-robin into per-worker
//!   deques ([`pool`]); a worker drains its own deque from the front and
//!   steals from a victim's back when idle, keeping all cores busy under
//!   skew (e.g. when zone maps cluster the surviving morsels).
//! * **Shared immutable file state.** All workers read through one
//!   [`ChunkReader`](leco_columnar::ChunkReader) — one descriptor,
//!   positioned `pread`-style reads, no cursor mutex.  All mutable state
//!   lives in a per-worker [`ScanScratch`](leco_columnar::ScanScratch).
//! * **The worker reads its own morsel.** The worker that runs a morsel
//!   reads and block-decompresses that morsel's chunks into its reused
//!   buffer, so every chunk is read exactly once per query and the pool's
//!   workers are the only threads a scan starts.
//! * **Exact merges.** Partial aggregates are integers (`u128` sums,
//!   `u64` counts); the final division/sort happens once after the merge, so
//!   query results are bit-identical for every thread count.
//! * **Clean failure.** A panicking worker poisons the queues; the scan
//!   returns [`ScanError::WorkerPanicked`] instead of hanging or unwinding
//!   through the pool.
//!
//! ```
//! use leco_columnar::{TableFile, TableFileOptions};
//! use leco_scan::Scanner;
//!
//! let ts: Vec<u64> = (0..40_000u64).map(|i| 1_000 + i).collect();
//! let id: Vec<u64> = (0..40_000u64).map(|i| i % 10).collect();
//! let val: Vec<u64> = (0..40_000u64).map(|i| i * 3).collect();
//! let mut path = std::env::temp_dir();
//! path.push(format!("leco-scan-doc-{}.tbl", std::process::id()));
//! let table = TableFile::write(
//!     &path,
//!     &["ts", "id", "val"],
//!     &[ts, id, val],
//!     TableFileOptions { row_group_size: 10_000, ..Default::default() },
//! ).unwrap();
//!
//! let result = Scanner::new(&table)
//!     .filter("ts", 5_000, 25_000)
//!     .sorted_filter(true)
//!     .group_by_avg("id", "val")
//!     .run(4)
//!     .unwrap();
//! assert_eq!(result.rows_selected, 20_001);
//! assert_eq!(result.groups.len(), 10);
//! // Zone maps pruned the row groups that cannot match.
//! assert!(result.stats.row_groups_pruned >= 1);
//! std::fs::remove_file(&path).ok();
//! ```

pub mod pool;
mod scanner;
mod spec;

pub use pool::{run_with_worker_state, PoolError};
pub use scanner::{ScanError, ScanResult, Scanner};
pub use spec::{Agg, Scan, ScanPlan, ScanSpec};
