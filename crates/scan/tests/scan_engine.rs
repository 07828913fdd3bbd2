//! Scan-engine acceptance tests: exact results against an integer fold over
//! the raw columns for every encoding and filter kernel, thread-count
//! invariance on synthetic and Zipf tables, clean poisoning on worker panic,
//! and provable zone-map pruning via the `QueryStats` chunk counters.

use leco_columnar::{Encoding, TableFile, TableFileOptions};
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_datasets::zipf::Zipf;
use leco_ingest::{IngestConfig, LiveTable};
use leco_scan::{ScanError, ScanSpec, Scanner};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
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

/// The exact answer to `WHERE lo <= filter <= hi`, folded over the raw
/// columns: `(rows_selected, SUM(vals), GROUP BY ids (id, sum, count))`,
/// the groups ascending by id.
fn fold_query(
    filter: &[u64],
    lo: u64,
    hi: u64,
    ids: &[u64],
    vals: &[u64],
) -> (u64, u128, Vec<(u64, u128, u64)>) {
    let (mut selected, mut sum) = (0, 0);
    let mut groups: BTreeMap<u64, (u128, u64)> = BTreeMap::new();
    for i in (0..filter.len()).filter(|&i| (lo..=hi).contains(&filter[i])) {
        selected += 1;
        sum += vals[i] as u128;
        let group = groups.entry(ids[i]).or_default();
        group.0 += vals[i] as u128;
        group.1 += 1;
    }
    let groups = groups.into_iter().map(|(id, (s, c))| (id, s, c)).collect();
    (selected, sum, groups)
}

/// `(id, avg)` pairs of the folded groups: the one division per group.
fn fold_avgs(groups: &[(u64, u128, u64)]) -> Vec<(u64, f64)> {
    groups
        .iter()
        .map(|&(id, sum, count)| (id, sum as f64 / count as f64))
        .collect()
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

const ALL_ENCODINGS: [Encoding; 6] = [
    Encoding::Default,
    Encoding::Plain,
    Encoding::Delta,
    Encoding::For,
    Encoding::Leco,
    Encoding::LecoVar,
];

const QUERY_ROW_GROUP: usize = 8_000;

/// 30 000 rows of columns `ts` (sorted, step 2), `id` (50 ids, so dense
/// chunks aggregate through the table indexed by `id − min`), `wide` (ids
/// spanning more than half a row group, so they take the sorting route) and
/// `val` (unsorted).
fn write_query_table(encoding: Encoding, name: &str) -> (TableFile, [Vec<u64>; 4], PathBuf) {
    let rows = 30_000u64;
    let columns = [
        (0..rows).map(|i| 1_000 + i * 2).collect(),
        (0..rows).map(|i| i % 50 + 1).collect(),
        (0..rows).map(|i| (i * 7_919) % 20_011).collect(),
        (0..rows).map(|i| (i * 37) % 10_000).collect::<Vec<u64>>(),
    ];
    let path = tmp(name);
    let table = TableFile::write(
        &path,
        &["ts", "id", "wide", "val"],
        &columns,
        TableFileOptions {
            encoding,
            row_group_size: QUERY_ROW_GROUP,
            ..Default::default()
        },
    )
    .unwrap();
    (table, columns, path)
}

#[test]
fn filter_group_by_and_sum_match_an_integer_fold_for_every_encoding() {
    const TS: usize = 0;
    const VAL: usize = 3;
    // (filter column, lo, hi): on the sorted `ts` column every filter kernel
    // applies; on `val` only the two unsorted ones do. The `val` ranges give
    // sparse (≈ 1 %) and dense selections for the aggregation kernels.
    let filters = [
        (TS, 1_000, 1_080), // 41 rows, in the first row group only
        (TS, 5_000, 9_000),
        (TS, 2_000, 30_000), // across row groups
        (TS, 0, u64::MAX),
        (TS, 100_000, u64::MAX), // past every row: all pruned
        (VAL, 0, u64::MAX),
        (VAL, 2_000, 2_100),
        (VAL, 9_999, 9_999),
        (VAL, 2_000, 7_999),
        (VAL, 8, 2), // inverted: selects nothing
    ];
    // (sorted, pushdown): binary search, compressed execution and
    // decode-then-filter.
    let kernels = [(true, true), (false, true), (false, false)];
    for (k, encoding) in ALL_ENCODINGS.into_iter().enumerate() {
        let (table, columns, path) = write_query_table(encoding, &format!("fold-{k}"));
        let chunks = |col: usize| columns[col].chunks(QUERY_ROW_GROUP);
        for (fc, lo, hi) in filters {
            // Zone-map pruning, folded from the raw row groups.
            let live = chunks(fc)
                .filter(|c| {
                    let (min, max) = (c.iter().min().unwrap(), c.iter().max().unwrap());
                    !(*max < lo || *min > hi)
                })
                .map(|c| c.len() as u64);
            let (morsels, rows_scanned) = live.fold((0, 0), |(m, r), len| (m + 1, r + len));
            let pruned = (chunks(fc).len() - morsels) as u64;
            for (sorted, pushdown) in kernels {
                if sorted && fc != TS {
                    continue;
                }
                for id_col in [1, 2] {
                    let (selected, sum, groups) =
                        fold_query(&columns[fc], lo, hi, &columns[id_col], &columns[VAL]);
                    let scan = || {
                        Scanner::new(&table)
                            .filter_col(fc, lo, hi)
                            .sorted_filter(sorted)
                            .pushdown_filter(pushdown)
                    };
                    for threads in [1, 4] {
                        let ctx = format!(
                            "{encoding:?} col {fc} [{lo},{hi}] sorted={sorted} \
                             pushdown={pushdown} ids {id_col} threads={threads}"
                        );
                        let g = scan().group_by_avg_cols(id_col, VAL).run(threads).unwrap();
                        let s = scan().sum_col(VAL).run(threads).unwrap();
                        assert_eq!(g.rows_selected, selected, "{ctx}");
                        assert_eq!(g.group_partials, groups, "{ctx}");
                        assert_groups_identical(&g.groups, &fold_avgs(&groups), &ctx);
                        assert_eq!((s.rows_selected, s.sum), (selected, sum), "{ctx}");
                        for r in [&g, &s] {
                            assert_eq!(
                                (r.morsels, r.rows_scanned),
                                (morsels, rows_scanned),
                                "{ctx}"
                            );
                            assert_eq!(r.stats.row_groups_pruned, pruned, "{ctx}");
                            assert_eq!(r.stats.io_bytes > 0, morsels > 0, "{ctx}");
                        }
                        let distinct = if fc == VAL { 2 } else { 3 };
                        assert_eq!(g.stats.chunks_read, distinct * morsels as u64, "{ctx}");
                        // Every scanned row lands in exactly one bucket, and
                        // the kernel that ran is the one the flags name.
                        let st = &g.stats;
                        let accounted = st.rows_skipped_by_model
                            + st.boundary_rows_decoded
                            + st.rows_decoded_full;
                        assert_eq!(accounted, rows_scanned, "{ctx}");
                        if sorted {
                            assert_eq!(st.rows_skipped_by_model, rows_scanned, "{ctx}");
                        } else if !pushdown {
                            assert_eq!(st.rows_decoded_full, rows_scanned, "{ctx}");
                        }
                    }
                }
            }
        }
        std::fs::remove_file(&path).ok();
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
        // The engine must agree with an integer fold over the raw columns.
        let t = sensor_table(60_000, dist, 7);
        let (selected, _, groups) = fold_query(&t.ts, lo, hi, &t.id, &t.val);
        assert_eq!(reference.rows_selected, selected, "{name}");
        assert_eq!(reference.group_partials, groups, "{name}");
        assert_groups_identical(&reference.groups, &fold_avgs(&groups), "fold-vs-engine");
        for threads in THREAD_COUNTS {
            let got = Scanner::new(&table)
                .filter_col(0, lo, hi)
                .sorted_filter(true)
                .group_by_avg_cols(1, 2)
                .run(threads)
                .unwrap();
            let ctx = format!("{name} threads={threads}");
            assert_groups_identical(&reference.groups, &got.groups, &ctx);
            assert_eq!(got.rows_selected, reference.rows_selected, "{ctx}");
            assert_eq!(got.rows_scanned, reference.rows_scanned, "{ctx}");
            assert_eq!(got.morsels, reference.morsels, "{ctx}");
            // Every thread count reads the same chunks and prunes the same
            // row groups; only the timing fields may differ.
            assert_eq!(got.stats.io_bytes, reference.stats.io_bytes, "{ctx}");
            assert_eq!(got.stats.chunks_read, reference.stats.chunks_read, "{ctx}");
            assert_eq!(
                got.stats.row_groups_pruned, reference.stats.row_groups_pruned,
                "{ctx}"
            );
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
    assert_eq!(pushdown.rows_selected, 51); // ts steps by 3 from zlo
    let pushdown_decoded = pushdown.stats.boundary_rows_decoded + pushdown.stats.rows_decoded_full;
    assert!(
        pushdown_decoded < baseline.stats.rows_decoded_full / 10,
        "pushdown decoded {pushdown_decoded} vs baseline {}",
        baseline.stats.rows_decoded_full
    );
    // Only the first row group survives pruning, and all of it but a slack
    // band resolves from the model inverse.
    let stats = &pushdown.stats;
    assert_eq!(
        stats.rows_decoded_full, 0,
        "model inverse should cover LeCo"
    );
    let (touched, skipped) = (stats.boundary_rows_decoded, stats.rows_skipped_by_model);
    assert!(
        touched < 200 && skipped > 7_000,
        "boundary {touched} skipped {skipped}"
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
    let err = Scanner::new(&table)
        .group_by_avg_cols(1, 2)
        .run(4)
        .unwrap_err();
    assert!(matches!(err, ScanError::Io(_)), "expected Io, got {err:?}");
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

#[test]
fn without_keys_matches_an_integer_fold_over_the_live_rows() {
    const TS: usize = 0;
    const ID: usize = 1;
    const VAL: usize = 3;
    // `ts` is the key: sorted like a flushed live-table file, so a dead key
    // lives in one row group (1 is `ts` 17 000..=32 998).
    let rg1: HashSet<u64> = (17_000..33_000).step_by(2).collect();
    let dead_sets: [(&str, HashSet<u64>); 5] = [
        ("empty", HashSet::new()),
        // Below, between two row groups' zone maps, and above every one.
        (
            "outside every zone map",
            HashSet::from([5, 16_999, u64::MAX]),
        ),
        // Odd keys: inside row groups 0 and 1's zone maps, in no chunk.
        ("inside a zone map, absent", HashSet::from([1_001, 20_001])),
        ("every row of row group 1", rg1),
        ("every row", (1_000..61_000).step_by(2).collect()),
    ];
    // Unfiltered, keeping row group 1, pruning it, and pruning every row
    // group.
    let filters = [
        None,
        Some((TS, 17_000, 40_000)),
        Some((TS, 40_000, 50_000)),
        Some((TS, 100_000, u64::MAX)),
    ];
    for (k, encoding) in ALL_ENCODINGS.into_iter().enumerate() {
        let (table, columns, path) = write_query_table(encoding, &format!("dead-{k}"));
        for (name, dead) in &dead_sets {
            let live: Vec<usize> = (0..columns[TS].len())
                .filter(|&i| !dead.contains(&columns[TS][i]))
                .collect();
            let live_col = |col: usize| live.iter().map(|&i| columns[col][i]).collect::<Vec<_>>();
            let (live_ts, live_ids, live_vals) = (live_col(TS), live_col(ID), live_col(VAL));
            for filter in filters {
                let (fc, lo, hi) = filter.unwrap_or((TS, 0, u64::MAX));
                assert_eq!(fc, TS);
                let (selected, sum, groups) = fold_query(&live_ts, lo, hi, &live_ids, &live_vals);
                let scan = |masked: bool| {
                    let scanner = match filter {
                        Some((fc, lo, hi)) => Scanner::new(&table).filter_col(fc, lo, hi),
                        None => Scanner::new(&table),
                    };
                    if masked {
                        scanner.without_keys(TS, dead)
                    } else {
                        scanner
                    }
                };
                for threads in [1, 2, 4] {
                    let ctx =
                        format!("{encoding:?} dead {name} filter {filter:?} threads={threads}");
                    let unmasked = scan(false).run(threads).unwrap();
                    let c = scan(true).count().run(threads).unwrap();
                    let s = scan(true).sum_col(VAL).run(threads).unwrap();
                    let g = scan(true).group_by_avg_cols(ID, VAL).run(threads).unwrap();
                    for r in [&c, &s, &g] {
                        assert_eq!(r.rows_selected, selected, "{ctx}");
                        assert_eq!(r.rows_scanned, live.len() as u64, "{ctx}");
                        assert_eq!(r.morsels, unmasked.morsels, "{ctx}");
                    }
                    assert_eq!(s.sum, sum, "{ctx}");
                    assert_eq!(g.group_partials, groups, "{ctx}");
                    assert_groups_identical(&g.groups, &fold_avgs(&groups), &ctx);
                }
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
