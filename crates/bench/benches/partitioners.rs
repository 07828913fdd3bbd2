//! Criterion bench backing Figures 5, 16 and 17: compression cost of the
//! different partitioning strategies, plus an ablation of the ℓ∞ (minimax)
//! versus ℓ2 (least-squares) linear fit called out in DESIGN.md, and the
//! cut-pricing kernel of the split–merge search in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use leco_core::regressor::{linear, CostModel};
use leco_core::{LecoCompressor, LecoConfig, PartitionerKind, RegressorKind};
use leco_datasets::{generate, IntDataset};

const N: usize = 100_000;

fn bench_partitioners(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig16_partitioners");
    group.sample_size(10);
    let values = generate(IntDataset::Movieid, N, 42);
    let configs: [(&str, PartitionerKind); 4] = [
        ("fixed_auto", PartitionerKind::FixedAuto),
        ("split_merge", PartitionerKind::SplitMerge { tau: 0.1 }),
        ("pla", PartitionerKind::Pla { epsilon: 64 }),
        ("la_vector", PartitionerKind::LaVector),
    ];
    for (name, partitioner) in configs {
        group.bench_function(BenchmarkId::new("compress", name), |b| {
            b.iter(|| {
                let col = LecoCompressor::new(LecoConfig {
                    regressor: RegressorKind::Linear,
                    partitioner: partitioner.clone(),
                })
                .compress(&values);
                std::hint::black_box(col.size_bytes())
            })
        });
    }
    group.finish();
}

/// Split–merge throughput on the long-run timestamp workload whose cost
/// model this crate re-tuned; `LECO_N`/`LECO_SCALE` scale it up (the
/// ROADMAP's 200M-value runs) without recompiling.
fn bench_split_merge_timestamps(c: &mut Criterion) {
    let n = leco_bench::bench_size();
    let values = generate(IntDataset::Timestamps, n, 42);
    let mut group = c.benchmark_group("split_merge_timestamps");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(n as u64));
    group.bench_function(BenchmarkId::from_parameter(n), |b| {
        b.iter(|| {
            let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
            std::hint::black_box(col.size_bytes())
        })
    });
    group.finish();
}

fn bench_fit_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_linear_fit");
    let ys: Vec<f64> = generate(IntDataset::Booksale, 4_096, 42)
        .iter()
        .map(|&v| v as f64)
        .collect();
    group.bench_function("minimax_linf_hull", |b| {
        b.iter(|| std::hint::black_box(linear::fit_linear(&ys)))
    });
    group.bench_function("minimax_linf_ternary", |b| {
        b.iter(|| std::hint::black_box(linear::fit_linear_ternary(&ys)))
    });
    group.bench_function("least_squares_l2", |b| {
        b.iter(|| std::hint::black_box(linear::fit_least_squares(&ys)))
    });
    group.finish();
}

/// The cut-pricing kernel of the bisect and refine phases in isolation: one
/// `CostModel::price_cuts` batch (two shared hull sweeps) against the same
/// 16 cuts priced as 32 independent `exact_bits` fits.  Every iteration
/// builds its own oracle, so the memo answers nothing.
fn bench_price_cuts(c: &mut Criterion) {
    const CUTS: usize = 16;
    let mut group = c.benchmark_group("price_cuts");
    let column = generate(IntDataset::Booksale, 8_192, 42);
    for span in [64usize, 512, 8_192] {
        let values = &column[..span];
        let cuts: Vec<usize> = (1..=CUTS).map(|k| span * k / (CUTS + 1)).collect();
        group.throughput(criterion::Throughput::Elements(span as u64));
        group.bench_function(BenchmarkId::new("shared_sweeps", span), |b| {
            b.iter(|| {
                let mut oracle = CostModel::new(values, RegressorKind::Linear);
                let priced = oracle.price_cuts(0, span, &cuts);
                std::hint::black_box(priced.iter().map(|c| c.total()).sum::<usize>())
            })
        });
        group.bench_function(BenchmarkId::new("2k_exact_bits", span), |b| {
            b.iter(|| {
                let mut oracle = CostModel::new(values, RegressorKind::Linear);
                let total: usize = cuts
                    .iter()
                    .map(|&cut| oracle.exact_bits(0, cut) + oracle.exact_bits(cut, span))
                    .sum();
                std::hint::black_box(total)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioners,
    bench_split_merge_timestamps,
    bench_fit_ablation,
    bench_price_cuts
);
criterion_main!(benches);
