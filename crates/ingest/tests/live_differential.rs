//! Differential testing: a live table's scans must be **bit-identical** to a
//! one-shot [`Scanner`] over the same logical rows, no matter how those rows
//! are spread across memtable / frozen segments / compacted files, how many
//! threads the scan uses, or how compaction interleaves with the scan.
//!
//! The schedules are proptest-driven: a random mix of puts, deletes and
//! flushes, checked mid-schedule (so every layer mixture gets exercised) and
//! again while a background thread hammers `compact_once` during the scans.
//! f64 group averages are compared with `to_bits` — "close" is a bug.

use leco_columnar::{Partial, TableFile, TableFileOptions};
use leco_ingest::{IngestConfig, LiveTable, ScanSpec};
use leco_scan::Scanner;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "leco-diff-{}-{tag}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&p).ok();
    p
}

const COLS: [&str; 3] = ["key", "id", "val"];

/// Reference model: the exact set of live rows, in insertion order.
#[derive(Default)]
struct Model {
    rows: Vec<[u64; 3]>,
}

impl Model {
    fn put(&mut self, row: [u64; 3]) {
        self.rows.push(row);
    }

    fn delete(&mut self, key: u64) {
        self.rows.retain(|r| r[0] != key);
    }
}

/// One scheduled operation, decoded from a raw u64 (so a plain
/// `vec(any::<u64>(), ..)` strategy drives arbitrary schedules).
enum Op {
    Put([u64; 3]),
    Delete(u64),
    Flush,
}

fn decode_op(x: u64, seq: u64) -> Op {
    match x % 16 {
        0..=11 => {
            // Keys collide on purpose (mod 32) so deletes hit many rows and
            // files; ids collide (mod 5) so group-by has real groups.
            let key = (x >> 8) % 32;
            let id = (x >> 16) % 5;
            let val = (x >> 24) % 10_000 + seq;
            Op::Put([key, id, val])
        }
        12 | 13 => Op::Delete((x >> 8) % 32),
        _ => Op::Flush,
    }
}

/// The scan specs every comparison runs: unfiltered count, filtered sum,
/// filtered group-average. The filter range straddles the key-collision
/// modulus so it selects a strict subset.
fn specs() -> Vec<ScanSpec> {
    vec![
        ScanSpec::count(),
        ScanSpec::count().filter("key", 5, 20).sum("val"),
        ScanSpec::count()
            .filter("val", 0, 6_000)
            .group_by_avg("id", "val"),
        ScanSpec::count().group_by_avg("id", "val"),
    ]
}

/// Ground truth: write the model's rows to a fresh table file and run the
/// existing one-shot scanner over it at `threads`.
fn reference_scan(model: &Model, spec: &ScanSpec, threads: usize, dir: &PathBuf) -> Partial {
    if model.rows.is_empty() {
        return Partial::default();
    }
    let mut cols: Vec<Vec<u64>> = vec![Vec::new(); 3];
    for r in &model.rows {
        for c in 0..3 {
            cols[c].push(r[c]);
        }
    }
    std::fs::create_dir_all(dir).unwrap();
    let path = dir.join("reference.tbl");
    // Small row groups force multi-morsel scans even for short schedules.
    let options = TableFileOptions {
        row_group_size: 64,
        ..TableFileOptions::default()
    };
    let file = TableFile::write(&path, &COLS, &cols, options).unwrap();
    let scanner = Scanner::from_spec(&file, spec).unwrap();
    let (mut reference, _) = scanner.run_partial(threads).unwrap();
    std::fs::remove_file(&path).ok();
    // A live table counts every live row as scanned, pruned or not.
    reference.rows_scanned = model.rows.len() as u64;
    reference
}

/// Bit-exact comparison, f64 averages included. `morsels` is left out: it
/// counts row groups, and the live table's files are laid out differently.
fn assert_outputs_identical(live: &Partial, reference: &Partial, context: &str) {
    assert_eq!(
        live.rows_scanned, reference.rows_scanned,
        "{context}: rows_scanned"
    );
    assert_eq!(
        live.rows_selected, reference.rows_selected,
        "{context}: rows_selected"
    );
    assert_eq!(live.sum, reference.sum, "{context}: sum");
    assert_eq!(live.groups, reference.groups, "{context}: group partials");
    let (live_avgs, reference_avgs) = (live.group_avgs(), reference.group_avgs());
    assert_eq!(
        live_avgs.len(),
        reference_avgs.len(),
        "{context}: group count"
    );
    for ((lid, lavg), (rid, ravg)) in live_avgs.iter().zip(&reference_avgs) {
        assert_eq!(lid, rid, "{context}: group id");
        assert_eq!(
            lavg.to_bits(),
            ravg.to_bits(),
            "{context}: avg for id {lid} differs: {lavg} vs {ravg}"
        );
    }
}

fn check_all(table: &LiveTable, model: &Model, ref_dir: &PathBuf, context: &str) {
    for (si, spec) in specs().iter().enumerate() {
        for threads in [1usize, 2, 4] {
            let live = table.scan(spec, threads).unwrap();
            let reference = reference_scan(model, spec, threads, ref_dir);
            assert_outputs_identical(
                &live,
                &reference,
                &format!("{context}, spec {si}, {threads} threads"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random put/delete/flush schedules: the live table must stay
    /// bit-identical to the model mid-schedule (layers in flux) and at the
    /// end, at 1/2/4 threads.
    #[test]
    fn live_scans_match_one_shot_scanner(raw in proptest::collection::vec(any::<u64>(), 20..120)) {
        let dir = tmp_dir("sched");
        let ref_dir = tmp_dir("sched-ref");
        let config = IngestConfig {
            segment_rows: 16,          // tiny segments → many freezes per schedule
            compact_min_segments: 2,
            row_group_size: 64,        // match the reference file's row groups
            auto_compact: false,       // compaction driven explicitly below
            ..IngestConfig::default()
        };
        let table = LiveTable::open(&dir, &COLS, config).unwrap();
        let mut model = Model::default();

        let checkpoints = [raw.len() / 3, 2 * raw.len() / 3];
        for (seq, &x) in raw.iter().enumerate() {
            match decode_op(x, seq as u64) {
                Op::Put(row) => {
                    table.put(&row).unwrap();
                    model.put(row);
                }
                Op::Delete(key) => {
                    table.delete(key).unwrap();
                    model.delete(key);
                }
                Op::Flush => {
                    table.flush().unwrap();
                }
            }
            if checkpoints.contains(&seq) {
                check_all(&table, &model, &ref_dir, &format!("mid-schedule op {seq}"));
            }
        }
        check_all(&table, &model, &ref_dir, "end of schedule");

        // Reopen: everything above must survive a WAL replay round trip.
        drop(table);
        let table = LiveTable::open(&dir, &COLS, config).unwrap();
        check_all(&table, &model, &ref_dir, "after reopen");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }

    /// Scans racing live compaction: a background thread flushes and
    /// compacts in a loop while the foreground scans at 1/2/4 threads; every
    /// answer must still be bit-identical to the reference.
    #[test]
    fn scans_stay_identical_under_concurrent_compaction(raw in proptest::collection::vec(any::<u64>(), 40..100)) {
        let dir = tmp_dir("race");
        let ref_dir = tmp_dir("race-ref");
        let config = IngestConfig {
            segment_rows: 8,
            compact_min_segments: 1,
            row_group_size: 64,
            auto_compact: false,
            ..IngestConfig::default()
        };
        let table = Arc::new(LiveTable::open(&dir, &COLS, config).unwrap());
        let mut model = Model::default();
        for (seq, &x) in raw.iter().enumerate() {
            match decode_op(x, seq as u64) {
                Op::Put(row) => {
                    table.put(&row).unwrap();
                    model.put(row);
                }
                Op::Delete(key) => {
                    table.delete(key).unwrap();
                    model.delete(key);
                }
                // No flushes here: leave a deep stack of frozen segments for
                // the racing compactor to chew through mid-scan.
                Op::Flush => {}
            }
        }

        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    table.flush().unwrap();
                    table.compact_once().unwrap();
                }
            })
        };

        // Precompute references once (the logical rows never change while the
        // hammer runs), then scan repeatedly as compaction shifts rows
        // between layers underneath us.
        let mut references = Vec::new();
        for spec in specs() {
            for threads in [1usize, 2, 4] {
                references.push((spec.clone(), threads, reference_scan(&model, &spec, threads, &ref_dir)));
            }
        }
        for round in 0..6 {
            for (spec, threads, reference) in &references {
                let live = table.scan(spec, *threads).unwrap();
                assert_outputs_identical(
                    &live,
                    reference,
                    &format!("round {round}, {threads} threads, racing compaction"),
                );
            }
        }
        stop.store(true, Ordering::Relaxed);
        hammer.join().unwrap();

        // After the dust settles everything should be compacted and still
        // identical.
        check_all(&table, &model, &ref_dir, "post-race");

        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}

/// A flushed file of many row groups with tombstones in two of them: the
/// file is masked per row group, so every spec (plus a `key` filter that
/// prunes both touched row groups) must still match the reference at every
/// thread count, and the masked scan runs the same morsels as an unmasked
/// `Scanner` over the same file.
#[test]
fn tombstones_in_two_row_groups_of_a_multi_row_group_file() {
    let dir = tmp_dir("multi-rg");
    let ref_dir = tmp_dir("multi-rg-ref");
    let config = IngestConfig {
        row_group_size: 64,
        auto_compact: false,
        ..IngestConfig::default()
    };
    let table = LiveTable::open(&dir, &COLS, config).unwrap();
    let mut model = Model::default();
    // 576 distinct keys, put in descending order: the flush sorts them into
    // 9 row groups of 64 keys each.
    for key in (0..576u64).rev() {
        let row = [key, key % 5, (key * 37) % 10_000];
        table.put(&row).unwrap();
        model.put(row);
    }
    table.flush().unwrap();
    let tables: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tbl"))
        .collect();
    assert_eq!(tables.len(), 1, "{tables:?}");
    let file = TableFile::open(&tables[0]).unwrap();
    assert_eq!(file.num_row_groups(), 9);

    // Keys in row groups 1 and 4, plus one inside row group 1's zone map
    // that no row holds.
    for key in [70, 71, 127, 300, 1_000] {
        table.delete(key).unwrap();
        model.delete(key);
    }
    let mut specs = specs();
    specs.push(ScanSpec::count().filter("key", 400, 575).sum("val"));
    for (si, spec) in specs.iter().enumerate() {
        let unmasked = Scanner::from_spec(&file, spec).unwrap().run(1).unwrap();
        for threads in [1usize, 2, 4] {
            let live = table.scan(spec, threads).unwrap();
            let reference = reference_scan(&model, spec, threads, &ref_dir);
            let context = format!("spec {si}, {threads} threads");
            assert_outputs_identical(&live, &reference, &context);
            assert_eq!(live.morsels, unmasked.morsels, "{context}: morsels");
        }
    }

    drop(table);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
