//! Criterion bench backing Figures 18–21: the columnar engine's filter,
//! group-by and bitmap-aggregation kernels per encoding, the `SUM` and
//! `GROUP BY` chunk kernels over one LeCo row group, plus the morsel-driven
//! parallel scan engine at 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use leco_columnar::exec::{
    group_by_avg_chunk_memo, group_by_avg_chunk_zoned, sum_selected_chunk, GroupScratch,
};
use leco_columnar::{
    exec, Bitmap, EncodedColumn, Encoding, GroupRunMemo, QueryStats, TableFile, TableFileOptions,
    GROUP_BLOCK,
};
use leco_core::CompressedColumn;
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_scan::Scanner;

const ROWS: usize = 100_000;
const NAMES: [&str; 3] = ["ts", "id", "val"];

/// The `ts`, `id` and `val` columns of the correlated sensor table.
fn sensor_columns() -> Vec<Vec<u64>> {
    let t = sensor_table(ROWS, SensorDistribution::Correlated, 42);
    vec![t.ts, t.id, t.val]
}

fn options(encoding: Encoding) -> TableFileOptions {
    TableFileOptions {
        encoding,
        row_group_size: 50_000,
        ..Default::default()
    }
}

fn write_file(encoding: Encoding, columns: &[Vec<u64>]) -> (TableFile, std::path::PathBuf) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "leco-bench-columnar-{:?}-{}.tbl",
        encoding,
        std::process::id()
    ));
    let file =
        TableFile::write(&path, &NAMES, columns, options(encoding)).expect("write table file");
    (file, path)
}

/// The filter → `GROUP BY` query, each run on a freshly opened file
/// (opened outside the timer) so that it decodes rather than reads the
/// group-run memos an earlier run filled.
fn bench_filter_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18_filter_groupby");
    group.sample_size(10);
    let columns = sensor_columns();
    for encoding in [
        Encoding::Default,
        Encoding::Delta,
        Encoding::For,
        Encoding::Leco,
    ] {
        let (_, path) = write_file(encoding, &columns);
        let ts_lo = 1_493_700_000_000u64;
        group.bench_function(BenchmarkId::new("query", encoding.name()), |b| {
            b.iter_batched(
                || leco_bench::fresh_table(&path, &NAMES, &columns, options(encoding)).unwrap(),
                |file| {
                    let result = Scanner::new(&file)
                        .filter_col(0, ts_lo, u64::MAX / 2)
                        .sorted_filter(true)
                        .group_by_avg_cols(1, 2)
                        .run(1)
                        .expect("scan");
                    std::hint::black_box(result.groups.len())
                },
                BatchSize::SmallInput,
            )
        });
        std::fs::remove_file(path).ok();
    }
    group.finish();
}

fn bench_bitmap_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_bitmap_sum");
    group.sample_size(10);
    let columns = sensor_columns();
    for encoding in [Encoding::Default, Encoding::For, Encoding::Leco] {
        let (file, path) = write_file(encoding, &columns);
        let mut bitmap = Bitmap::new(ROWS);
        bitmap.set_range(10_000, 11_000);
        bitmap.set_range(60_000, 60_100);
        group.bench_function(BenchmarkId::new("sum", encoding.name()), |b| {
            b.iter(|| {
                let mut stats = QueryStats::default();
                std::hint::black_box(exec::sum_selected(&file, 2, &bitmap, &mut stats).unwrap())
            })
        });
        std::fs::remove_file(path).ok();
    }
    group.finish();
}

/// `sum_selected_chunk` over one 100 K-row LeCo-fix chunk of the sensor
/// table's `val` column (10 000-row partitions): a full selection with each
/// partition's sum memoised (warm) and with the chunk re-parsed from its
/// bytes before every call (cold, so the call derives the memo), a
/// contiguous 6 000-row window across a partition edge, and the
/// decode-then-fold that a full selection cost before the memo.
fn bench_sum_selected_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("sum_selected_chunk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    let t = sensor_table(ROWS, SensorDistribution::Correlated, 42);
    let chunk = EncodedColumn::encode(&t.val, Encoding::Leco);
    let EncodedColumn::Leco(column) = &chunk else {
        unreachable!("Encoding::Leco encodes a LeCo chunk")
    };
    let bytes = column.to_bytes();
    let mut full = Bitmap::new(ROWS);
    full.set_range(0, ROWS);
    let mut window = Bitmap::new(ROWS);
    window.set_range(47_000, 53_000);
    let mut buf = Vec::new();
    sum_selected_chunk(&chunk, &full, 0, &mut buf);
    group.bench_function("full_warm", |b| {
        b.iter(|| sum_selected_chunk(&chunk, &full, 0, &mut buf))
    });
    group.bench_function("full_cold", |b| {
        b.iter_batched(
            || EncodedColumn::Leco(CompressedColumn::from_bytes(&bytes).expect("own bytes")),
            |cold| sum_selected_chunk(&cold, &full, 0, &mut buf),
            BatchSize::SmallInput,
        )
    });
    group.bench_function("window_6000", |b| {
        b.iter(|| sum_selected_chunk(&chunk, &window, 0, &mut buf))
    });
    group.bench_function("decode_fold", |b| {
        b.iter(|| {
            buf.clear();
            chunk.decode_into(&mut buf);
            buf.iter().map(|&v| v as u128).sum::<u128>()
        })
    });
    group.finish();
}

/// `GROUP BY id AVG(val)` over one 100 K-row row group of LeCo-fix `id`
/// and `val` chunks, through the kernel a scan runs with 10 000-row memo
/// blocks: a full selection with the group-run memo filled (warm) and with
/// an empty memo before every call (cold, so the call decodes both chunks
/// and derives the memo), a selection that cuts one block (one row short),
/// and the decode + fold of the memo-free zoned kernel, which is what every
/// call cost before the memo. The `Random` ids decline the memo.
fn bench_group_by_chunk(c: &mut Criterion) {
    let mut group = c.benchmark_group("group_by_chunk");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ROWS as u64));
    for dist in [SensorDistribution::Correlated, SensorDistribution::Random] {
        let t = sensor_table(ROWS, dist, 42);
        let ids = EncodedColumn::encode(&t.id, Encoding::Leco);
        let vals = EncodedColumn::encode(&t.val, Encoding::Leco);
        let zone = (
            *t.id.iter().min().expect("rows"),
            *t.id.iter().max().expect("rows"),
        );
        let full = Bitmap::all_set(ROWS);
        let mut cut = Bitmap::new(ROWS);
        cut.set_range(0, ROWS / 2 + 7);
        cut.set_range(ROWS / 2 + 8, ROWS);
        let mut scratch = GroupScratch::default();
        let mut groups = Vec::new();
        let mut run = |memo: &GroupRunMemo, sel: &Bitmap| {
            groups.clear();
            group_by_avg_chunk_memo(&ids, &vals, zone, memo, sel, 0, &mut scratch, &mut groups);
            groups.len()
        };
        let warm = GroupRunMemo::new(GROUP_BLOCK);
        run(&warm, &full);
        let name = format!("{dist:?}");
        group.bench_function(BenchmarkId::new("full_warm", &name), |b| {
            b.iter(|| run(&warm, &full))
        });
        group.bench_function(BenchmarkId::new("full_cold", &name), |b| {
            b.iter_batched(
                || GroupRunMemo::new(GROUP_BLOCK),
                |cold| run(&cold, &full),
                BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("one_cut_block", &name), |b| {
            b.iter(|| run(&warm, &cut))
        });
        let mut scratch = GroupScratch::default();
        group.bench_function(BenchmarkId::new("decode_fold", &name), |b| {
            b.iter(|| {
                groups.clear();
                group_by_avg_chunk_zoned(&ids, &vals, zone, &full, 0, &mut scratch, &mut groups);
                groups.len()
            })
        });
    }
    group.finish();
}

/// The parallel filter → `GROUP BY` scan, each run on a freshly opened LeCo
/// file (opened outside the timer), so that every run decodes.
fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_parallel_filter_groupby");
    group.sample_size(10);
    let columns = sensor_columns();
    let (_, path) = write_file(Encoding::Leco, &columns);
    let ts_lo = 1_493_700_000_000u64;
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter_batched(
                || TableFile::open(&path).expect("reopen table file"),
                |file| {
                    let result = Scanner::new(&file)
                        .filter_col(0, ts_lo, u64::MAX / 2)
                        .sorted_filter(true)
                        .group_by_avg_cols(1, 2)
                        .run(threads)
                        .expect("scan");
                    std::hint::black_box(result.groups.len())
                },
                BatchSize::SmallInput,
            )
        });
    }
    std::fs::remove_file(path).ok();
    group.finish();
}

criterion_group!(
    benches,
    bench_filter_groupby,
    bench_bitmap_sum,
    bench_sum_selected_chunk,
    bench_group_by_chunk,
    bench_parallel_scan
);
criterion_main!(benches);
