//! Shared harness code for the paper-reproduction binaries and Criterion
//! benchmarks.
//!
//! * [`Scheme`] — the seven compression schemes of the microbenchmark
//!   (Figure 10), encoded behind one object-safe interface so every
//!   experiment measures them identically.
//! * [`measure`] — compression-ratio / throughput / random-access-latency
//!   measurement loops.
//! * [`report`] — small fixed-width table printer so the binaries produce
//!   the same rows and series the paper reports, plus a hand-rolled JSON
//!   emitter/parser ([`report::Json`], [`report::BenchReport`]) through
//!   which every `repro_*` binary also writes a machine-readable
//!   `BENCH_*.json` (into `LECO_BENCH_DIR`, default the working directory).
//! * [`check`] — benchmark-regression comparison against the committed
//!   baselines in `BENCH_baseline/`: compression ratios exactly,
//!   throughput/latency within a noise tolerance.  Driven by the
//!   `bench_check` binary in CI's `bench-gate` job.
//!
//! Data-set sizes default to ~1M values and scale with the `LECO_SCALE`
//! environment variable (see `leco-datasets`); individual binaries also
//! honour `LECO_N` for an absolute override.
//!
//! Full-decode throughput is measured through the word-parallel
//! [`EncodedInts::decode_into`] bulk path into a pre-allocated buffer, so
//! the reported GB/s numbers (see the README's "Performance" section)
//! reflect decoding, not the allocator.  Serialized LeCo columns follow
//! `docs/FORMAT.md` at the repository root.
//!
//! ```
//! use leco_bench::scheme::{encode, Scheme};
//!
//! let values: Vec<u64> = (0..10_000u64).map(|i| 40 + i * 9).collect();
//! let leco = encode(Scheme::LecoFix, &values).unwrap();
//! assert_eq!(leco.get(7_777), values[7_777]);
//! let mut out = Vec::with_capacity(leco.len());
//! leco.decode_into(&mut out);
//! assert_eq!(out, values);
//! // Elias-Fano refuses non-monotone input, mirroring Figure 10's gaps.
//! assert!(encode(Scheme::EliasFano, &[3, 1, 2]).is_none());
//! ```

pub mod check;
pub mod measure;
pub mod report;
pub mod scheme;

use leco_columnar::{TableFile, TableFileOptions};
pub use measure::{measure_scheme, Measurement};
pub use report::{BenchReport, Json};
pub use scheme::{encode, EncodedInts, Scheme};

/// Number of values to use for a microbenchmark data set, honouring
/// `LECO_N` (absolute) and `LECO_SCALE` (multiplier) environment variables.
pub fn bench_size() -> usize {
    if let Ok(n) = std::env::var("LECO_N") {
        if let Ok(n) = n.parse::<usize>() {
            return n.max(1_000);
        }
    }
    leco_datasets::default_size()
}

/// A smaller size for the expensive variable-length schemes and system
/// experiments (quarter of [`bench_size`], at least 100k).
pub fn small_bench_size() -> usize {
    (bench_size() / 4).max(100_000)
}

/// A fresh handle on the table file at `path`, its `GROUP BY` group-run
/// memos all empty, so that a timed query decodes its chunks as a first
/// query does instead of reading memos an earlier query filled. A file
/// whose encoding can be reopened ([`TableFile::open`]) is reopened; any
/// other is written again from `columns`, which must be the data it holds.
pub fn fresh_table(
    path: &std::path::Path,
    names: &[&str],
    columns: &[Vec<u64>],
    options: TableFileOptions,
) -> std::io::Result<TableFile> {
    match TableFile::open(path) {
        Err(e) if e.kind() == std::io::ErrorKind::Unsupported => {
            TableFile::write(path, names, columns, options)
        }
        opened => opened,
    }
}
