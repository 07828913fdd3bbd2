//! `repro_ingest` — write-path benchmark for the WAL-backed `leco-ingest`
//! crate: fsync'd single-row commits, batched ingestion, crash recovery by
//! WAL replay, and compaction through the partitioner into LeCo row groups.
//!
//! Phases (each lands as a row in `BENCH_ingest.json`, gated by
//! `bench_check` — see `leco_bench::check::rules_for("ingest")`):
//!
//! * `single_put` / `batch_put` — ingest throughput with one fsync'd WAL
//!   commit per call (factor-of-4 tripwire).
//! * `replay` — drop the table without flushing (the in-memory state is the
//!   crash casualty; the WAL survives), reopen, and time the replay.
//!   `rows_recovered` and `replay_divergence` (any scan-visible difference
//!   between the pre-kill table and the replayed one) are deterministic
//!   given `LECO_N` and are gated **exactly**: a lost row, a phantom row, or
//!   a resurrected delete is a correctness bug, not machine noise.
//! * `flush` — compaction throughput freezing the memtable and flushing
//!   everything through the partitioner into immutable row-group files,
//!   after which the same scans must still answer bit-identically.
//!
//! Defaults to 2M rows; override with `LECO_N`.  The emitted report is
//! immediately re-parsed with the report reader as a self-check.

use leco_bench::measure::timed;
use leco_bench::report::{BenchReport, Json, TextTable};
use leco_columnar::Partial;
use leco_ingest::{IngestConfig, LiveTable, ScanSpec};

/// Rows committed one-by-one (one fsync each) before batching takes over.
const SINGLE_PUTS: usize = 512;
/// Keys deleted after ingest — replay must not resurrect them.
const DELETES: u64 = 256;
/// Rows per fsync'd batch commit.
const BATCH_ROWS: usize = 4096;
/// Thread counts every verification scan is repeated at.
const THREADS: [usize; 3] = [1, 2, 4];

fn row_for(i: u64) -> [u64; 3] {
    [i, i % 32, (i.wrapping_mul(7919)) % 100_000]
}

/// The three scans whose answers define "the same table": full count, a
/// filtered sum, and a group-by average.
fn probes() -> [ScanSpec; 3] {
    [
        ScanSpec::count(),
        ScanSpec::default()
            .filter("key", 100, u64::MAX / 2)
            .sum("val"),
        ScanSpec::default().group_by_avg("id", "val"),
    ]
}

/// Run every probe at every thread count, asserting bit-identity across
/// thread counts, and return the single-threaded outputs as the signature.
fn signature(table: &LiveTable, when: &str) -> Vec<Partial> {
    let mut outs = Vec::new();
    for spec in probes() {
        let base = table.scan(&spec, 1).expect("scan should not fail");
        for threads in &THREADS[1..] {
            let other = table.scan(&spec, *threads).expect("scan should not fail");
            assert_eq!(
                base.rows_scanned, other.rows_scanned,
                "{when}: rows_scanned diverged at {threads} threads"
            );
            assert_eq!(base.rows_selected, other.rows_selected, "{when}");
            assert_eq!(base.sum, other.sum, "{when}");
            assert_eq!(base.groups, other.groups, "{when}");
            for (a, b) in base.group_avgs().iter().zip(&other.group_avgs()) {
                assert_eq!(a.0, b.0, "{when}");
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "{when}: group {}", a.0);
            }
        }
        outs.push(base);
    }
    outs
}

/// `0` when two signatures agree on every exact integer partial, else the
/// number of probes that diverged — the quantity the CI gate holds at zero.
fn divergence(a: &[Partial], b: &[Partial]) -> u64 {
    a.iter()
        .zip(b)
        .filter(|(x, y)| {
            x.rows_scanned != y.rows_scanned
                || x.rows_selected != y.rows_selected
                || x.sum != y.sum
                || x.groups != y.groups
        })
        .count() as u64
}

fn main() -> std::io::Result<()> {
    let rows = std::env::var("LECO_N")
        .ok()
        .and_then(|n| n.parse::<usize>().ok())
        .unwrap_or(2_000_000)
        .max(10 * SINGLE_PUTS);
    println!("# Write path — WAL commits, replay recovery, compaction ({rows} rows)\n");

    let mut dir = std::env::temp_dir();
    dir.push(format!("leco-repro-ingest-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = IngestConfig {
        segment_rows: 65_536,
        compact_min_segments: 2,
        row_group_size: 8_192,
        auto_compact: false,
        key_col: 0,
    };
    let table = LiveTable::open(&dir, &["key", "id", "val"], config)?;

    // ── Ingest: single fsync'd commits, then batched commits.
    let data: Vec<[u64; 3]> = (0..rows as u64).map(row_for).collect();
    let (_, single_secs) = timed("bench.ingest_ns", || {
        for row in &data[..SINGLE_PUTS] {
            table.put(row).expect("put should not fail");
        }
    });
    let (_, batch_secs) = timed("bench.ingest_ns", || {
        for chunk in data[SINGLE_PUTS..].chunks(BATCH_ROWS) {
            let refs: Vec<&[u64]> = chunk.iter().map(|r| r.as_slice()).collect();
            table.put_batch(&refs).expect("put_batch should not fail");
        }
    });
    // Deletes land in the WAL too; replay must keep them deleted.
    for key in 0..DELETES {
        table.delete(key)?;
    }
    let single_rps = SINGLE_PUTS as f64 / single_secs.max(1e-9);
    let batch_rps = (rows - SINGLE_PUTS) as f64 / batch_secs.max(1e-9);
    let live_rows = (rows as u64) - DELETES;
    eprintln!(
        "ingested {rows} rows ({SINGLE_PUTS} single + batched), deleted {DELETES}: \
         {:.0} rows/s single, {:.0} rows/s batched",
        single_rps, batch_rps
    );

    // ── Crash: the pre-kill scan signature is the ground truth; dropping
    // the handle discards every in-memory structure, leaving only the WAL.
    let before = signature(&table, "pre-kill");
    assert_eq!(before[0].rows_scanned, live_rows, "pre-kill row count");
    let wal_bytes = std::fs::metadata(table.wal_path())?.len();
    drop(table);

    let (table, replay_secs) = timed("bench.replay_ns", || {
        LiveTable::open(&dir, &["key", "id", "val"], config)
    });
    let table = table?;
    let report = table.replay_report();
    let after = signature(&table, "post-replay");
    let rows_recovered = after[0].rows_scanned;
    let replay_divergence = divergence(&before, &after);
    assert_eq!(rows_recovered, live_rows, "replay lost or invented rows");
    assert_eq!(
        replay_divergence, 0,
        "replayed table diverged from pre-kill"
    );
    assert_eq!(report.truncated_bytes, 0, "clean WAL must replay in full");
    let replay_rps = rows_recovered as f64 / replay_secs.max(1e-9);
    eprintln!(
        "replayed {} WAL records ({:.1} MB) in {replay_secs:.2}s: {rows_recovered} rows recovered",
        report.records,
        report.durable_bytes as f64 / 1.0e6
    );

    // ── Compaction: freeze + flush everything into row-group files, then
    // the same scans must still answer bit-identically.
    let (flush, flush_secs) = timed("bench.compact_ns", || table.flush());
    let flush = flush?;
    let flushed = signature(&table, "post-flush");
    assert_eq!(
        divergence(&before, &flushed),
        0,
        "flush changed scan results"
    );
    let stats = table.stats();
    assert_eq!(stats.mem_rows, 0, "flush must drain the memtable");
    assert_eq!(stats.frozen_segments, 0, "flush must drain frozen segments");
    assert!(flush.files_written > 0, "flush must write files");
    let compact_rps = flush.rows_flushed as f64 / flush_secs.max(1e-9);
    eprintln!(
        "flushed {} rows into {} file(s) in {flush_secs:.2}s",
        flush.rows_flushed, flush.files_written
    );

    let mut text = TextTable::new(vec!["phase", "rows", "wall (ms)", "rows/s (K)"]);
    let mut phase_row = |phase: &str, n: f64, secs: f64, rps: f64| {
        text.row(vec![
            phase.to_string(),
            format!("{n:.0}"),
            format!("{:.1}", secs * 1_000.0),
            format!("{:.1}", rps / 1.0e3),
        ]);
    };
    phase_row("single_put", SINGLE_PUTS as f64, single_secs, single_rps);
    phase_row(
        "batch_put",
        (rows - SINGLE_PUTS) as f64,
        batch_secs,
        batch_rps,
    );
    phase_row("replay", rows_recovered as f64, replay_secs, replay_rps);
    phase_row("flush", flush.rows_flushed as f64, flush_secs, compact_rps);
    text.print();
    println!();
    println!("Replay recovered every acknowledged row; scans identical before the kill,");
    println!("after replay, and after compaction, at 1/2/4 threads.");

    let ingest_row = |phase: &str, n: f64, secs: f64, rps: f64| {
        Json::Obj(vec![
            ("phase".into(), Json::Str(phase.into())),
            ("rows".into(), Json::Num(n)),
            ("wall_seconds".into(), Json::Num(secs)),
            ("rows_per_second".into(), Json::Num(rps)),
        ])
    };
    let mut report_out = BenchReport::new("ingest");
    report_out.add(
        "config",
        Json::Obj(vec![
            ("rows".into(), Json::Num(rows as f64)),
            ("single_puts".into(), Json::Num(SINGLE_PUTS as f64)),
            ("deletes".into(), Json::Num(DELETES as f64)),
            ("batch_rows".into(), Json::Num(BATCH_ROWS as f64)),
            ("segment_rows".into(), Json::Num(config.segment_rows as f64)),
            (
                "row_group_size".into(),
                Json::Num(config.row_group_size as f64),
            ),
            ("wal_bytes".into(), Json::Num(wal_bytes as f64)),
        ]),
    );
    report_out.add(
        "ingest",
        Json::Arr(vec![
            ingest_row("single_put", SINGLE_PUTS as f64, single_secs, single_rps),
            ingest_row(
                "batch_put",
                (rows - SINGLE_PUTS) as f64,
                batch_secs,
                batch_rps,
            ),
        ]),
    );
    report_out.add(
        "recovery",
        Json::Arr(vec![Json::Obj(vec![
            ("phase".into(), Json::Str("replay".into())),
            ("rows_recovered".into(), Json::Num(rows_recovered as f64)),
            (
                "replay_divergence".into(),
                Json::Num(replay_divergence as f64),
            ),
            ("wall_seconds".into(), Json::Num(replay_secs)),
            ("rows_per_second".into(), Json::Num(replay_rps)),
            ("wal_records".into(), Json::Num(report.records as f64)),
            (
                "wal_durable_bytes".into(),
                Json::Num(report.durable_bytes as f64),
            ),
        ])]),
    );
    report_out.add(
        "compaction",
        Json::Arr(vec![Json::Obj(vec![
            ("phase".into(), Json::Str("flush".into())),
            ("rows_flushed".into(), Json::Num(flush.rows_flushed as f64)),
            (
                "files_written".into(),
                Json::Num(flush.files_written as f64),
            ),
            ("wall_seconds".into(), Json::Num(flush_secs)),
            ("rows_per_second".into(), Json::Num(compact_rps)),
        ])]),
    );
    report_out.add_table("phase_table", &text);
    let json_path = report_out.write()?;

    // Self-check: the emitted file must parse back with the report reader
    // and carry every section the CI gate keys on.
    let text = std::fs::read_to_string(&json_path)?;
    let parsed = Json::parse(text.trim()).unwrap_or_else(|e| panic!("BENCH_ingest.json: {e}"));
    assert_eq!(parsed.get("bench").and_then(Json::as_str), Some("ingest"));
    let sections = parsed
        .get("sections")
        .and_then(Json::as_arr)
        .expect("sections array");
    let rows_in = |label: &str| {
        sections
            .iter()
            .find(|s| s.get("label").and_then(Json::as_str) == Some(label))
            .and_then(|s| s.get("data"))
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{label} section"))
            .len()
    };
    assert_eq!(rows_in("ingest"), 2);
    assert_eq!(rows_in("recovery"), 1);
    assert_eq!(rows_in("compaction"), 1);
    println!("BENCH_ingest.json re-parsed OK (2 ingest, 1 recovery, 1 compaction rows).");

    drop(table);
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
