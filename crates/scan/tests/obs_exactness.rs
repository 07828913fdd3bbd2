//! Concurrency exactness of the obs instrumentation: the sharded counters
//! and histograms must produce *identical* totals no matter how many
//! workers the scan runs on — sharding may never lose or double-count an
//! increment.
//!
//! Everything lives in ONE `#[test]` so this file's process owns the global
//! registry: integration-test binaries each run in their own process, and a
//! single test function keeps concurrent tests from interleaving deltas.

use leco_columnar::{Encoding, TableFile, TableFileOptions};
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_scan::Scanner;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn counters_and_histograms_are_exact_at_every_thread_count() {
    if !leco_obs::active() {
        return; // compiled with the noop feature: nothing is recorded
    }
    leco_obs::set_enabled(true);
    let registry = leco_obs::Registry::global();

    let t = sensor_table(120_000, SensorDistribution::Correlated, 7);
    let mut path = std::env::temp_dir();
    path.push(format!("leco-obs-exact-{}.tbl", std::process::id()));
    let table = TableFile::write(
        &path,
        &["ts", "id", "val"],
        &[t.ts.clone(), t.id, t.val],
        TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 10_000,
            ..Default::default()
        },
    )
    .unwrap();
    let (ts_min, ts_max) = (t.ts[0], *t.ts.last().unwrap());
    let lo = ts_min + (ts_max - ts_min) * 3 / 10;
    let hi = ts_min + (ts_max - ts_min) * 7 / 10;

    // ── Strict equality across thread counts: every morsel's chunks are
    // read exactly once, by the worker that runs it, so every delta below is
    // a pure function of the data.
    let mut reference: Option<[u64; 4]> = None;
    for threads in THREAD_COUNTS {
        let before = registry.snapshot();
        let r = Scanner::new(&table)
            .filter_col(0, lo, hi)
            .sorted_filter(true)
            .group_by_avg_cols(1, 2)
            .run(threads)
            .unwrap();
        let after = registry.snapshot();
        let deltas = [
            after.counter_delta(&before, "scan.morsels"),
            after.counter_delta(&before, "scan.morsel_rows"),
            after.counter_delta(&before, "scan.rows_selected"),
            after.hist_count_delta(&before, "columnar.chunk_io_ns"),
        ];
        // The registry agrees with the engine's own accounting...
        assert_eq!(deltas[0], r.morsels as u64, "{threads} threads");
        assert_eq!(deltas[1], r.rows_scanned, "{threads} threads");
        assert_eq!(deltas[2], r.rows_selected, "{threads} threads");
        // ...every chunk read is charged to the query, and each morsel reads
        // its 3 column chunks once: none is read twice...
        assert_eq!(deltas[3], r.stats.chunks_read, "{threads} threads");
        assert_eq!(deltas[3], 3 * deltas[0], "{threads} threads");
        // ...and the totals are identical at every thread count.
        match &reference {
            None => reference = Some(deltas),
            Some(expected) => assert_eq!(
                *expected, deltas,
                "sharded counters diverged at {threads} threads"
            ),
        }
        assert_eq!(
            after.gauge("scan.pool.queue_depth"),
            0,
            "queue-depth gauge must return to zero ({threads} threads)"
        );
    }

    std::fs::remove_file(&path).ok();
}
