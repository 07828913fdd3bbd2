//! Seeded synthetic data-set and workload generators for the LeCo evaluation.
//!
//! The paper evaluates on a mixture of synthetic and real-world data sets
//! (§4.1).  The real data (SOSD columns, MovieLens ids, OpenStreetMap ids,
//! house prices, …) cannot be redistributed here, so every generator in this
//! crate reproduces the *distribution shape* that matters to a serial-
//! correlation compressor: sortedness, local smoothness, heavy-tailed gaps,
//! plateaus and jumps, periodicity, and so on.  All generators are
//! deterministic given a seed, so experiments are reproducible.
//!
//! The [`IntDataset`] enum enumerates every integer data set by its paper
//! name; [`generate`] produces it at any requested size.  String data sets,
//! multi-column tables, the §5.1 sensor table and the zipfian key workload of
//! §5.2 live in the [`strings`], [`tables`] and [`zipf`] modules.  The
//! columns these generators produce are what the benchmark harness feeds the
//! compressors whose on-disk output `docs/FORMAT.md` (repository root)
//! specifies.
//!
//! ```
//! use leco_datasets::{generate, IntDataset};
//!
//! // Same seed, same data — experiments are reproducible.
//! let a = generate(IntDataset::Booksale, 10_000, 42);
//! let b = generate(IntDataset::Booksale, 10_000, 42);
//! assert_eq!(a, b);
//! assert_eq!(a.len(), 10_000);
//! // booksale is sorted (a cumulative count), the shape LeCo exploits.
//! assert!(a.windows(2).all(|w| w[0] <= w[1]));
//! ```

pub mod realworld;
pub mod strings;
pub mod synthetic;
pub mod tables;
pub mod zipf;

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Scale factor applied to the *default* data-set sizes used by the benchmark
/// harness, controlled by the `LECO_SCALE` environment variable (default 1.0,
/// i.e. about one million values per data set — laptop friendly).
pub fn scale_factor() -> f64 {
    std::env::var("LECO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Default number of values for microbenchmark data sets, after scaling.
pub fn default_size() -> usize {
    (1_000_000.0 * scale_factor()) as usize
}

/// Integer data sets of the microbenchmark (§4.1), by paper name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IntDataset {
    /// Clean sorted linear sequence (synthetic).
    Linear,
    /// Sorted samples from a normal distribution (synthetic).
    Normal,
    /// Poisson-process timestamps (sensor events).
    Poisson,
    /// UCI-ML bar-crawl timestamps: sorted, bursty.
    Ml,
    /// SOSD `books` Amazon sale ranks: sorted, heavy-tailed gaps.
    Booksale,
    /// SOSD Facebook user ids: sorted, large plateaus of dense ids.
    Facebook,
    /// SOSD Wikipedia edit timestamps: sorted, mildly bursty.
    Wiki,
    /// SOSD OpenStreetMap cell ids: sorted, very irregular gaps.
    Osm,
    /// MovieLens "liked" movie ids: unsorted, piecewise-linear per user.
    Movieid,
    /// US house prices: sorted, long runs of repeated values.
    HousePrice,
    /// OpenStreetMap planet object ids: sorted, near-dense with gaps.
    Planet,
    /// libraries.io repository ids: sorted, near-dense.
    Libio,
    /// Public-BI `medicare` augmented ids: unsorted, low locality.
    Medicare,
    /// Cosmic-ray signal: two sine components plus Gaussian noise.
    Cosmos,
    /// Alternating polynomial / logarithm blocks (population growth).
    Polylog,
    /// Blockwise exponential growth with varying parameters.
    Exp,
    /// Blockwise polynomial growth with varying parameters.
    Poly,
    /// mlcourse.ai `websites_train_sessions` column: sorted, small range.
    Site,
    /// mlcourse.ai `weights_heights` column: sorted, near-normal.
    Weight,
    /// mlcourse.ai `adult_train` column: sorted, stepped.
    Adult,
    /// Sorted epoch-ms event timestamps: steady cadence with periodic burst
    /// gaps (the quickstart column; stresses the partition cost model).
    Timestamps,
}

impl IntDataset {
    /// The twelve data sets of the main microbenchmark (Figure 10), in the
    /// paper's presentation order.
    pub const MICROBENCH: [IntDataset; 12] = [
        IntDataset::Linear,
        IntDataset::Normal,
        IntDataset::Libio,
        IntDataset::Wiki,
        IntDataset::Booksale,
        IntDataset::Planet,
        IntDataset::Facebook,
        IntDataset::Ml,
        IntDataset::Movieid,
        IntDataset::Poisson,
        IntDataset::HousePrice,
        IntDataset::Osm,
    ];

    /// The additional non-linear data sets of §4.4 (Figure 11).
    pub const NONLINEAR: [IntDataset; 8] = [
        IntDataset::Movieid,
        IntDataset::Poly,
        IntDataset::Cosmos,
        IntDataset::Exp,
        IntDataset::Polylog,
        IntDataset::Site,
        IntDataset::Weight,
        IntDataset::Adult,
    ];

    /// Every data set, in declaration order.
    pub const ALL: [IntDataset; 21] = [
        IntDataset::Linear,
        IntDataset::Normal,
        IntDataset::Poisson,
        IntDataset::Ml,
        IntDataset::Booksale,
        IntDataset::Facebook,
        IntDataset::Wiki,
        IntDataset::Osm,
        IntDataset::Movieid,
        IntDataset::HousePrice,
        IntDataset::Planet,
        IntDataset::Libio,
        IntDataset::Medicare,
        IntDataset::Cosmos,
        IntDataset::Polylog,
        IntDataset::Exp,
        IntDataset::Poly,
        IntDataset::Site,
        IntDataset::Weight,
        IntDataset::Adult,
        IntDataset::Timestamps,
    ];

    /// Paper name of the data set (used as a row/series label in the
    /// reproduction harness).
    pub fn name(&self) -> &'static str {
        match self {
            IntDataset::Linear => "linear",
            IntDataset::Normal => "normal",
            IntDataset::Poisson => "poisson",
            IntDataset::Ml => "ml",
            IntDataset::Booksale => "booksale",
            IntDataset::Facebook => "facebook",
            IntDataset::Wiki => "wiki",
            IntDataset::Osm => "osm",
            IntDataset::Movieid => "movieid",
            IntDataset::HousePrice => "house_price",
            IntDataset::Planet => "planet",
            IntDataset::Libio => "libio",
            IntDataset::Medicare => "medicare",
            IntDataset::Cosmos => "cosmos",
            IntDataset::Polylog => "polylog",
            IntDataset::Exp => "exp",
            IntDataset::Poly => "poly",
            IntDataset::Site => "site",
            IntDataset::Weight => "weight",
            IntDataset::Adult => "adult",
            IntDataset::Timestamps => "timestamps",
        }
    }

    /// Width in bytes of the original values (the paper stores some data sets
    /// as 32-bit and others as 64-bit integers); used for ratio accounting.
    pub fn value_width(&self) -> usize {
        match self {
            IntDataset::Linear
            | IntDataset::Normal
            | IntDataset::Booksale
            | IntDataset::Movieid
            | IntDataset::HousePrice
            | IntDataset::Cosmos
            | IntDataset::Site
            | IntDataset::Weight
            | IntDataset::Adult => 4,
            _ => 8,
        }
    }

    /// Whether the generated sequence is sorted (Elias-Fano only applies to
    /// monotone data; `poisson` and `movieid` are the paper's exceptions).
    pub fn is_sorted(&self) -> bool {
        !matches!(
            self,
            IntDataset::Movieid | IntDataset::Medicare | IntDataset::Cosmos | IntDataset::Poisson
        )
    }
}

/// Generate `n` values of the given data set with a deterministic seed.
pub fn generate(dataset: IntDataset, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ dataset.name().len() as u64);
    match dataset {
        IntDataset::Linear => synthetic::linear(n, &mut rng),
        IntDataset::Normal => synthetic::normal_sorted(n, &mut rng),
        IntDataset::Poisson => synthetic::poisson_timestamps(n, &mut rng),
        IntDataset::Cosmos => synthetic::cosmos(n, &mut rng),
        IntDataset::Polylog => synthetic::polylog(n, &mut rng),
        IntDataset::Exp => synthetic::exp_blocks(n, &mut rng),
        IntDataset::Poly => synthetic::poly_blocks(n, &mut rng),
        IntDataset::Ml => realworld::ml_timestamps(n, &mut rng),
        IntDataset::Booksale => realworld::booksale(n, &mut rng),
        IntDataset::Facebook => realworld::facebook_ids(n, &mut rng),
        IntDataset::Wiki => realworld::wiki_timestamps(n, &mut rng),
        IntDataset::Osm => realworld::osm_cellids(n, &mut rng),
        IntDataset::Movieid => realworld::movieid(n, &mut rng),
        IntDataset::HousePrice => realworld::house_price(n, &mut rng),
        IntDataset::Planet => realworld::planet_ids(n, &mut rng),
        IntDataset::Libio => realworld::libio_ids(n, &mut rng),
        IntDataset::Medicare => realworld::medicare(n, &mut rng),
        IntDataset::Site => realworld::site(n, &mut rng),
        IntDataset::Weight => realworld::weight(n, &mut rng),
        IntDataset::Adult => realworld::adult(n, &mut rng),
        IntDataset::Timestamps => synthetic::bursty_timestamps(n, &mut rng),
    }
}

/// "Sortedness" of a sequence in `[0, 1]`: `1 − 2·(inversion fraction)`, the
/// inverse-pair metric used for the multi-column analysis (Figure 13),
/// estimated from a deterministic sample of pairs.
pub fn sortedness(values: &[u64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 1.0;
    }
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    use rand::Rng;
    let samples = 20_000.min(n * (n - 1) / 2);
    let mut inversions = 0usize;
    for _ in 0..samples {
        let i = rng.gen_range(0..n - 1);
        let j = rng.gen_range(i + 1..n);
        if values[i] > values[j] {
            inversions += 1;
        }
    }
    (1.0 - 2.0 * inversions as f64 / samples as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        for ds in IntDataset::MICROBENCH {
            let a = generate(ds, 5_000, 1);
            let b = generate(ds, 5_000, 1);
            let c = generate(ds, 5_000, 2);
            assert_eq!(a, b, "{ds:?} must be deterministic");
            assert_eq!(a.len(), 5_000);
            if ds != IntDataset::Linear {
                assert_ne!(a, c, "{ds:?} should vary with the seed");
            }
        }
    }

    #[test]
    fn sorted_datasets_are_sorted() {
        for ds in IntDataset::MICROBENCH {
            if ds.is_sorted() {
                let v = generate(ds, 20_000, 7);
                assert!(
                    v.windows(2).all(|w| w[0] <= w[1]),
                    "{ds:?} should be sorted"
                );
            }
        }
    }

    #[test]
    fn unsorted_datasets_are_not_sorted() {
        for ds in [
            IntDataset::Movieid,
            IntDataset::Medicare,
            IntDataset::Poisson,
        ] {
            let v = generate(ds, 20_000, 7);
            assert!(
                !v.windows(2).all(|w| w[0] <= w[1]),
                "{ds:?} should not be fully sorted"
            );
        }
    }

    #[test]
    fn sortedness_metric_extremes() {
        let sorted: Vec<u64> = (0..10_000).collect();
        let reversed: Vec<u64> = (0..10_000).rev().collect();
        assert!(sortedness(&sorted) > 0.99);
        assert!(sortedness(&reversed) < 0.01);
        // Uncorrelated data has ~50% inverse pairs, i.e. sortedness ≈ 0 on
        // this scale (matching the paper's catalog_sales ≈ 0.07).
        let mid: Vec<u64> = (0..10_000).map(|i| (i * 2654435761) % 1_000_000).collect();
        let s = sortedness(&mid);
        assert!(s < 0.2, "uncorrelated data sortedness {s}");
    }

    #[test]
    fn value_widths_fit() {
        for ds in IntDataset::MICROBENCH {
            let v = generate(ds, 10_000, 3);
            if ds.value_width() == 4 {
                assert!(
                    v.iter().all(|&x| x <= u32::MAX as u64),
                    "{ds:?} should fit in 32 bits"
                );
            }
        }
    }

    #[test]
    fn scale_factor_defaults_to_one() {
        // Cannot assume the env var is unset in every environment, but the
        // parsing path must at least return a positive number.
        assert!(scale_factor() > 0.0);
        assert!(default_size() > 0);
    }
}
