//! Scan-engine acceptance tests: thread-count invariance on synthetic and
//! Zipf tables, clean poisoning on worker panic, and provable zone-map
//! pruning via the `QueryStats` chunk counters.

use leco_columnar::{exec, Encoding, QueryStats, TableFile, TableFileOptions};
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_datasets::zipf::Zipf;
use leco_ingest::{IngestConfig, LiveTable};
use leco_scan::{ScanError, ScanSpec, Scanner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leco-scan-test-{}-{}", std::process::id(), name));
    p
}

fn write_sensor(
    rows: usize,
    dist: SensorDistribution,
    encoding: Encoding,
    name: &str,
) -> (TableFile, PathBuf) {
    let t = sensor_table(rows, dist, 7);
    let path = tmp(name);
    let table = TableFile::write(
        &path,
        &["ts", "id", "val"],
        &[t.ts, t.id, t.val],
        TableFileOptions {
            encoding,
            row_group_size: 10_000,
            ..Default::default()
        },
    )
    .unwrap();
    (table, path)
}

/// A table whose `id` column is Zipf-skewed (hot groups dominate) — the
/// workload shape where work stealing earns its keep.
fn write_zipf(rows: usize, name: &str) -> (TableFile, PathBuf) {
    let mut rng = StdRng::seed_from_u64(99);
    let zipf = Zipf::ycsb_skewed(500);
    let ts: Vec<u64> = (0..rows as u64).map(|i| 1_000 + i * 3).collect();
    let id: Vec<u64> = zipf
        .sample_many(rows, &mut rng)
        .into_iter()
        .map(|r| r as u64 + 1)
        .collect();
    let val: Vec<u64> = id
        .iter()
        .enumerate()
        .map(|(i, &d)| d * 7 + i as u64 % 13)
        .collect();
    let path = tmp(name);
    let table = TableFile::write(
        &path,
        &["ts", "id", "val"],
        &[ts, id, val],
        TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 8_000,
            ..Default::default()
        },
    )
    .unwrap();
    (table, path)
}

/// Bit-exact comparison of group-by results: the f64 averages must be the
/// very same bits, not merely close.
fn assert_groups_identical(a: &[(u64, f64)], b: &[(u64, f64)], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: group count");
    for ((ka, va), (kb, vb)) in a.iter().zip(b) {
        assert_eq!(ka, kb, "{ctx}: group key");
        assert_eq!(va.to_bits(), vb.to_bits(), "{ctx}: avg bits for id {ka}");
    }
}

#[test]
fn group_by_results_bit_identical_across_thread_counts() {
    for (dist, name) in [
        (SensorDistribution::Correlated, "threads-corr"),
        (SensorDistribution::Random, "threads-rand"),
    ] {
        let (table, path) = write_sensor(60_000, dist, Encoding::Leco, name);
        let (lo, hi) = (table.zone_map(1, 0).0, table.zone_map(4, 0).1);
        let reference = Scanner::new(&table)
            .filter_col(0, lo, hi)
            .sorted_filter(true)
            .group_by_avg_cols(1, 2)
            .run(1)
            .unwrap();
        // The single-threaded exec driver must agree with the engine.
        let mut stats = QueryStats::default();
        let bitmap = exec::filter_range(&table, 0, lo, hi, true, &mut stats).unwrap();
        let driver_groups = exec::group_by_avg(&table, 1, 2, &bitmap, &mut stats).unwrap();
        assert_groups_identical(&reference.groups, &driver_groups, "driver-vs-engine");
        for threads in THREAD_COUNTS {
            for read_ahead in [true, false] {
                let got = Scanner::new(&table)
                    .filter_col(0, lo, hi)
                    .sorted_filter(true)
                    .group_by_avg_cols(1, 2)
                    .read_ahead(read_ahead)
                    .run(threads)
                    .unwrap();
                let ctx = format!("{name} threads={threads} read_ahead={read_ahead}");
                assert_groups_identical(&reference.groups, &got.groups, &ctx);
                assert_eq!(got.rows_selected, reference.rows_selected, "{ctx}");
                assert_eq!(got.rows_scanned, reference.rows_scanned, "{ctx}");
                assert_eq!(got.morsels, reference.morsels, "{ctx}");
                // Every thread count reads the same chunks and prunes the
                // same row groups; only the timing fields may differ.
                assert_eq!(got.stats.io_bytes, reference.stats.io_bytes, "{ctx}");
                assert_eq!(got.stats.chunks_read, reference.stats.chunks_read, "{ctx}");
                assert_eq!(
                    got.stats.row_groups_pruned, reference.stats.row_groups_pruned,
                    "{ctx}"
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn zipf_table_sum_and_groups_identical_across_thread_counts() {
    let (table, path) = write_zipf(50_000, "threads-zipf");
    // Unsorted filter on the skewed id column: decode-and-compare path.
    let reference = Scanner::new(&table)
        .filter_col(1, 1, 20)
        .group_by_avg_cols(1, 2)
        .run(1)
        .unwrap();
    let sum_reference = Scanner::new(&table)
        .filter_col(1, 1, 20)
        .sum_col(2)
        .run(1)
        .unwrap();
    assert!(reference.rows_selected > 0);
    for threads in THREAD_COUNTS {
        let got = Scanner::new(&table)
            .filter_col(1, 1, 20)
            .group_by_avg_cols(1, 2)
            .run(threads)
            .unwrap();
        assert_groups_identical(
            &reference.groups,
            &got.groups,
            &format!("zipf threads={threads}"),
        );
        assert_eq!(got.rows_selected, reference.rows_selected);
        let sum = Scanner::new(&table)
            .filter_col(1, 1, 20)
            .sum_col(2)
            .run(threads)
            .unwrap();
        assert_eq!(sum.sum, sum_reference.sum, "zipf sum threads={threads}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn pushdown_scans_bit_identical_across_thread_counts() {
    // Compressed execution vs. decode-then-filter, across every encoding
    // with a pushdown kernel and every thread count: same selection, same
    // groups, and the pushdown row accounting covers every scanned row.
    for (k, encoding) in [Encoding::Leco, Encoding::For, Encoding::Delta]
        .iter()
        .enumerate()
    {
        let (table, path) = write_sensor(
            60_000,
            SensorDistribution::Random,
            *encoding,
            &format!("pushdown-{k}"),
        );
        // Unsorted filter on the id column (uniform in 1..=10_000): the
        // pushdown path by default.
        let (lo, hi) = (2_000u64, 6_000u64);
        let baseline = Scanner::new(&table)
            .filter_col(1, lo, hi)
            .pushdown_filter(false)
            .group_by_avg_cols(1, 2)
            .run(1)
            .unwrap();
        assert!(baseline.rows_selected > 0, "{encoding:?}");
        for threads in THREAD_COUNTS {
            let got = Scanner::new(&table)
                .filter_col(1, lo, hi)
                .group_by_avg_cols(1, 2)
                .run(threads)
                .unwrap();
            let ctx = format!("{encoding:?} threads={threads}");
            assert_groups_identical(&baseline.groups, &got.groups, &ctx);
            assert_eq!(got.rows_selected, baseline.rows_selected, "{ctx}");
            assert_eq!(got.rows_scanned, baseline.rows_scanned, "{ctx}");
            // Exhaustive row accounting: every scanned row lands in exactly
            // one bucket, at every thread count.
            let accounted = got.stats.rows_skipped_by_model
                + got.stats.boundary_rows_decoded
                + got.stats.rows_decoded_full;
            assert_eq!(accounted, got.rows_scanned, "{ctx}");
            // The baseline decodes everything, and the counters say so.
            assert_eq!(
                baseline.stats.rows_decoded_full, baseline.rows_scanned,
                "{ctx}"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn pushdown_decodes_less_than_full_scan_on_selective_predicate() {
    // The zipf table's ts column is exactly linear and stored as LeCo: the
    // model inverse should resolve nearly every row of a selective unsorted
    // filter without decoding it.
    let (table, path) = write_zipf(50_000, "pushdown-sel");
    let (zlo, _) = table.zone_map(0, 0);
    let (lo, hi) = (zlo, zlo + 150); // ~50 of 50_000 rows
    let pushdown = Scanner::new(&table)
        .filter_col(0, lo, hi)
        .count()
        .run(4)
        .unwrap();
    let baseline = Scanner::new(&table)
        .filter_col(0, lo, hi)
        .pushdown_filter(false)
        .count()
        .run(4)
        .unwrap();
    assert_eq!(pushdown.rows_selected, baseline.rows_selected);
    let pushdown_decoded = pushdown.stats.boundary_rows_decoded + pushdown.stats.rows_decoded_full;
    assert!(
        pushdown_decoded < baseline.stats.rows_decoded_full / 10,
        "pushdown decoded {pushdown_decoded} vs baseline {}",
        baseline.stats.rows_decoded_full
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn worker_panic_poisons_scan_with_clean_error() {
    let (table, path) = write_sensor(
        40_000,
        SensorDistribution::Correlated,
        Encoding::Leco,
        "poison",
    );
    for threads in [1, 4] {
        let err = Scanner::new(&table)
            .group_by_avg_cols(1, 2)
            .inject_panic_at_morsel(2)
            .run(threads)
            .unwrap_err();
        match err {
            ScanError::WorkerPanicked { message, .. } => {
                assert!(message.contains("injected scan fault"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
    // The table stays usable after a poisoned scan.
    let ok = Scanner::new(&table).count().run(4).unwrap();
    assert_eq!(ok.rows_selected, 40_000);
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncated_file_surfaces_as_io_error() {
    let (table, path) = write_sensor(
        40_000,
        SensorDistribution::Correlated,
        Encoding::Leco,
        "truncated",
    );
    // Chop the data file in half behind the table's back: chunk reads past
    // the truncation point must fail, and the scan must report Io — not a
    // worker panic and not a hang.
    let full = std::fs::metadata(&path).unwrap().len();
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(full / 2).unwrap();
    drop(file);
    for read_ahead in [false, true] {
        let err = Scanner::new(&table)
            .group_by_avg_cols(1, 2)
            .read_ahead(read_ahead)
            .run(4)
            .unwrap_err();
        assert!(
            matches!(err, ScanError::Io(_)),
            "read_ahead={read_ahead}: expected Io, got {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn unknown_column_is_column_not_found_on_both_table_kinds() {
    let (table, path) = write_zipf(10_000, "badcol");
    let live_dir = tmp("badcol-live");
    std::fs::remove_dir_all(&live_dir).ok();
    let config = IngestConfig {
        auto_compact: false,
        ..IngestConfig::default()
    };
    let live = LiveTable::open(&live_dir, &["ts", "id", "val"], config).unwrap();
    live.put(&[1, 2, 3]).unwrap();
    for spec in [
        ScanSpec::count().filter("nosuch", 0, 10),
        ScanSpec::count().sum("nosuch"),
        ScanSpec::count().group_by_avg("nosuch", "val"),
        ScanSpec::count().group_by_avg("id", "nosuch"),
    ] {
        let not_found = |e: &ScanError| matches!(e, ScanError::ColumnNotFound(n) if n == "nosuch");
        let on_file = spec.resolve(|name| table.column_index(name)).unwrap_err();
        let on_live = spec
            .resolve(|name| live.columns().iter().position(|c| c == name))
            .unwrap_err();
        assert!(not_found(&on_file) && not_found(&on_live), "{spec:?}");
        // The same error surfaces from each table kind's scan entry point.
        let scanner = Scanner::from_spec(&table, &spec).unwrap_err();
        assert!(not_found(&scanner), "{spec:?}: {scanner:?}");
        let scanned = live.scan(&spec, 1).unwrap_err();
        let inner = scanned
            .get_ref()
            .and_then(|e| e.downcast_ref::<ScanError>());
        assert!(inner.is_some_and(not_found), "{spec:?}: {scanned:?}");
    }
    drop(live);
    std::fs::remove_dir_all(&live_dir).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn execution_flags_hold_in_either_builder_order() {
    // `sorted_filter` and `pushdown_filter` are execution flags, not part of
    // the filter clause: setting them before or after the filter runs the
    // same kernels.
    let (table, path) = write_zipf(50_000, "flag-order");
    let (zlo, _) = table.zone_map(1, 0);
    let (lo, hi) = (zlo, zlo + 30_000);
    for (sorted, pushdown) in [(true, true), (false, true), (false, false)] {
        let flags_after = Scanner::new(&table)
            .filter("ts", lo, hi)
            .sorted_filter(sorted)
            .pushdown_filter(pushdown)
            .sum("val")
            .run(2)
            .unwrap();
        let flags_before = Scanner::new(&table)
            .sorted_filter(sorted)
            .pushdown_filter(pushdown)
            .filter("ts", lo, hi)
            .sum("val")
            .run(2)
            .unwrap();
        let ctx = format!("sorted={sorted} pushdown={pushdown}");
        assert!(flags_after.rows_selected > 0, "{ctx}");
        assert_eq!(
            flags_before.rows_selected, flags_after.rows_selected,
            "{ctx}"
        );
        assert_eq!(flags_before.sum, flags_after.sum, "{ctx}");
        let kernel_rows =
            |r: &leco_scan::ScanResult| (r.stats.rows_skipped_by_model, r.stats.rows_decoded_full);
        assert_eq!(
            kernel_rows(&flags_before),
            kernel_rows(&flags_after),
            "{ctx}"
        );
        // Each flag setting takes its own kernel.
        let expected = match (sorted, pushdown) {
            (true, _) => flags_after.rows_scanned == flags_after.stats.rows_skipped_by_model,
            (false, true) => flags_after.stats.rows_decoded_full == 0,
            (false, false) => flags_after.rows_scanned == flags_after.stats.rows_decoded_full,
        };
        assert!(expected, "{ctx}: {:?}", kernel_rows(&flags_after));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn zone_map_pruning_skips_row_groups_before_enqueue() {
    let (table, path) = write_sensor(
        80_000,
        SensorDistribution::Correlated,
        Encoding::Leco,
        "prune",
    );
    assert_eq!(table.num_row_groups(), 8);
    // Predicate confined to the third row group's ts range.
    let (lo, hi) = table.zone_map(2, 0);
    let result = Scanner::new(&table)
        .filter_col(0, lo + 1, hi - 1)
        .group_by_avg_cols(1, 2)
        .run(4)
        .unwrap();
    // Only one morsel survived the scheduler; the other seven row groups
    // were pruned without any I/O, provable from the chunk counters.
    assert_eq!(result.morsels, 1);
    assert_eq!(result.stats.row_groups_pruned, 7);
    assert_eq!(result.stats.chunks_read, 3); // ts + id + val of one group
    assert_eq!(result.rows_scanned, 10_000);
    let full = Scanner::new(&table)
        .filter_col(0, 0, u64::MAX)
        .group_by_avg_cols(1, 2)
        .run(4)
        .unwrap();
    assert_eq!(full.stats.row_groups_pruned, 0);
    assert_eq!(full.stats.chunks_read, 24);
    assert!(result.stats.io_bytes < full.stats.io_bytes);
    std::fs::remove_file(&path).ok();
}

#[test]
fn fully_pruned_scan_does_no_io() {
    let (table, path) = write_sensor(
        40_000,
        SensorDistribution::Correlated,
        Encoding::Leco,
        "all-pruned",
    );
    let groups = table.num_row_groups() as u64;
    let max_ts = (0..table.num_row_groups())
        .map(|rg| table.zone_map(rg, 0).1)
        .max()
        .unwrap();
    // Unlink the backing file: a scan that tried to open it would fail
    // with `ScanError::Io`.
    std::fs::remove_file(&path).unwrap();
    let missing = || Scanner::new(&table).filter_col(0, max_ts + 1, u64::MAX);
    for threads in [1, 4] {
        let scans = [
            ("count", missing().count()),
            ("sum", missing().sum_col(2)),
            ("groupby", missing().group_by_avg_cols(1, 2)),
        ];
        for (name, scan) in scans {
            let r = scan.run(threads).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(
                (r.rows_selected, r.rows_scanned, r.sum, r.morsels),
                (0, 0, 0, 0),
                "{name}"
            );
            assert!(r.groups.is_empty() && r.group_partials.is_empty(), "{name}");
            assert_eq!(r.stats.row_groups_pruned, groups, "{name}");
            assert_eq!((r.stats.chunks_read, r.stats.io_bytes), (0, 0), "{name}");
        }
    }
}

#[test]
fn block_compressed_tables_scan_identically() {
    let t = sensor_table(30_000, SensorDistribution::Correlated, 3);
    let (p1, p2) = (tmp("plain-bc"), tmp("lzb-bc"));
    let plain = TableFile::write(
        &p1,
        &["ts", "id", "val"],
        &[t.ts.clone(), t.id.clone(), t.val.clone()],
        TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 10_000,
            block_compression: leco_columnar::BlockCompression::None,
        },
    )
    .unwrap();
    let lzb = TableFile::write(
        &p2,
        &["ts", "id", "val"],
        &[t.ts, t.id, t.val],
        TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 10_000,
            block_compression: leco_columnar::BlockCompression::Lzb,
        },
    )
    .unwrap();
    for threads in [1, 4] {
        let a = Scanner::new(&plain)
            .group_by_avg_cols(1, 2)
            .run(threads)
            .unwrap();
        let b = Scanner::new(&lzb)
            .group_by_avg_cols(1, 2)
            .run(threads)
            .unwrap();
        assert_groups_identical(&a.groups, &b.groups, "block-compression");
    }
    std::fs::remove_file(&p1).ok();
    std::fs::remove_file(&p2).ok();
}

#[test]
fn unfiltered_count_scans_every_row() {
    let (table, path) = write_zipf(20_000, "count");
    for threads in THREAD_COUNTS {
        let r = Scanner::new(&table).run(threads).unwrap();
        assert_eq!(r.rows_selected, 20_000);
        assert_eq!(r.rows_scanned, 20_000);
        assert_eq!(r.groups, vec![]);
        assert_eq!(r.sum, 0);
    }
    std::fs::remove_file(&path).ok();
}
