//! Criterion bench backing Figures 18–21: the columnar engine's filter,
//! group-by and bitmap-aggregation kernels per encoding, plus the
//! morsel-driven parallel scan engine at 1/2/4/8 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leco_columnar::{exec, Bitmap, Encoding, QueryStats, TableFile, TableFileOptions};
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
    bench_parallel_scan
);
criterion_main!(benches);
