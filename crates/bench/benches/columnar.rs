//! Criterion bench backing Figures 18–21: the columnar engine's filter,
//! group-by and bitmap-aggregation kernels per encoding, the `SUM` chunk
//! kernel over one LeCo chunk, plus the morsel-driven parallel scan engine
//! at 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use leco_columnar::exec::sum_selected_chunk;
use leco_columnar::{
    exec, Bitmap, EncodedColumn, Encoding, QueryStats, TableFile, TableFileOptions,
};
use leco_core::CompressedColumn;
use leco_datasets::tables::{sensor_table, SensorDistribution};
use leco_scan::Scanner;

const ROWS: usize = 100_000;

fn write_file(encoding: Encoding) -> (TableFile, std::path::PathBuf) {
    let t = sensor_table(ROWS, SensorDistribution::Correlated, 42);
    let mut path = std::env::temp_dir();
    path.push(format!(
        "leco-bench-columnar-{:?}-{}.tbl",
        encoding,
        std::process::id()
    ));
    let file = TableFile::write(
        &path,
        &["ts", "id", "val"],
        &[t.ts, t.id, t.val],
        TableFileOptions {
            encoding,
            row_group_size: 50_000,
            ..Default::default()
        },
    )
    .expect("write table file");
    (file, path)
}

fn bench_filter_groupby(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig18_filter_groupby");
    group.sample_size(10);
    for encoding in [
        Encoding::Default,
        Encoding::Delta,
        Encoding::For,
        Encoding::Leco,
    ] {
        let (file, path) = write_file(encoding);
        let ts_lo = 1_493_700_000_000u64;
        group.bench_function(BenchmarkId::new("query", encoding.name()), |b| {
            b.iter(|| {
                let result = Scanner::new(&file)
                    .filter_col(0, ts_lo, u64::MAX / 2)
                    .sorted_filter(true)
                    .group_by_avg_cols(1, 2)
                    .run(1)
                    .expect("scan");
                std::hint::black_box(result.groups.len())
            })
        });
        std::fs::remove_file(path).ok();
    }
    group.finish();
}

fn bench_bitmap_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig19_bitmap_sum");
    group.sample_size(10);
    for encoding in [Encoding::Default, Encoding::For, Encoding::Leco] {
        let (file, path) = write_file(encoding);
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

fn bench_parallel_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan_parallel_filter_groupby");
    group.sample_size(10);
    let (file, path) = write_file(Encoding::Leco);
    let ts_lo = 1_493_700_000_000u64;
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new("threads", threads), |b| {
            b.iter(|| {
                let result = Scanner::new(&file)
                    .filter_col(0, ts_lo, u64::MAX / 2)
                    .sorted_filter(true)
                    .group_by_avg_cols(1, 2)
                    .run(threads)
                    .expect("scan");
                std::hint::black_box(result.groups.len())
            })
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
    bench_parallel_scan
);
criterion_main!(benches);
