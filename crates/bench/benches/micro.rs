//! Criterion microbenchmark backing Figures 2 and 10: random access latency,
//! full-decompression throughput and pushdown range filters per scheme on
//! representative data sets.
//!
//! The `repro_fig10_micro` binary prints the full 12-data-set table; this
//! bench keeps the wall-clock time manageable by measuring two contrasting
//! data sets (a locally-easy one and a globally-hard one).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use leco_bench::scheme::{encode, EncodedInts, Scheme, DEFAULT_FRAME};
use leco_codecs::ForCodec;
use leco_datasets::{generate, IntDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 200_000;
const DATASETS: [IntDataset; 2] = [IntDataset::Booksale, IntDataset::Movieid];

fn bench_random_access(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_random_access");
    for dataset in DATASETS {
        let values = generate(dataset, N, 42);
        for scheme in [
            Scheme::For,
            Scheme::EliasFano,
            Scheme::DeltaFix,
            Scheme::LecoFix,
            Scheme::LecoVar,
        ] {
            let Some(encoded) = encode(scheme, &values) else {
                continue;
            };
            let mut rng = StdRng::seed_from_u64(1);
            group.bench_function(BenchmarkId::new(scheme.name(), dataset.name()), |b| {
                b.iter(|| {
                    let i = rng.gen_range(0..values.len());
                    std::hint::black_box(encoded.get(i))
                })
            });
        }
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_full_decode");
    group.sample_size(10);
    for dataset in DATASETS {
        let values = generate(dataset, N, 42);
        group.throughput(Throughput::Bytes((values.len() * 8) as u64));
        for scheme in [Scheme::For, Scheme::DeltaFix, Scheme::LecoFix] {
            let Some(encoded) = encode(scheme, &values) else {
                continue;
            };
            // One reused buffer: the measurement is the word-parallel bulk
            // decode itself, not the allocator.
            let mut buf: Vec<u64> = Vec::with_capacity(values.len());
            group.bench_function(BenchmarkId::new(scheme.name(), dataset.name()), |b| {
                b.iter(|| {
                    buf.clear();
                    encoded.decode_into(&mut buf);
                    std::hint::black_box(buf.len())
                })
            });
        }
    }
    group.finish();
}

/// The third read path behind Figure 10: an inclusive range filter in the
/// compressed domain at three selectivities — LeCo's model inverse behind
/// its per-partition envelope check, FOR's packed-domain compare behind its
/// frame-header check.
fn bench_pushdown_filter(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_pushdown_filter");
    for dataset in DATASETS {
        let values = generate(dataset, N, 42);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        group.throughput(Throughput::Elements(values.len() as u64));
        let leco = |scheme| match encode(scheme, &values) {
            Some(EncodedInts::Leco(col)) => col,
            _ => unreachable!("LeCo schemes always encode to a LeCo column"),
        };
        let (fix, var) = (leco(Scheme::LecoFix), leco(Scheme::LecoVar));
        let for_ = ForCodec::encode(&values, DEFAULT_FRAME);
        let mut scratch = Vec::new();
        for selectivity in [1e-4, 1e-2, 0.5] {
            let width = ((values.len() as f64 * selectivity) as usize).max(1);
            let start = (values.len() - width) / 2;
            let (lo, hi) = (sorted[start], sorted[start + width - 1]);
            let id = |scheme: &str| {
                BenchmarkId::new(format!("{scheme}/sel={selectivity}"), dataset.name())
            };
            for (scheme, col) in [("LeCo", &fix), ("LeCo-var", &var)] {
                group.bench_function(id(scheme), |b| {
                    b.iter(|| {
                        let mut rows = 0;
                        col.filter_range_pushdown(lo, hi, &mut scratch, |a, z| rows += z - a);
                        std::hint::black_box(rows)
                    })
                });
            }
            group.bench_function(id("FOR"), |b| {
                b.iter(|| {
                    let mut rows = 0;
                    for_.filter_range_pushdown(lo, hi, |_, mask, _| rows += mask.count_ones());
                    std::hint::black_box(rows)
                })
            });
        }
    }
    group.finish();
}

fn bench_compress(c: &mut Criterion) {
    let mut group = c.benchmark_group("tab01_compression");
    group.sample_size(10);
    let values = generate(IntDataset::Booksale, N, 42);
    group.throughput(Throughput::Bytes((values.len() * 8) as u64));
    for scheme in [Scheme::For, Scheme::DeltaFix, Scheme::LecoFix] {
        group.bench_function(scheme.name(), |b| {
            b.iter(|| std::hint::black_box(encode(scheme, &values).unwrap().size_bytes()))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_random_access,
    bench_decode,
    bench_pushdown_filter,
    bench_compress
);
criterion_main!(benches);
