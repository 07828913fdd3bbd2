//! Differential harness for the read paths.
//!
//! The locked invariant: `get`, `decode_range_into` and
//! `filter_range_pushdown`, which read the column's derived read table
//! (bucket-indexed partition search, the `u64` prediction routes, the
//! vectorisable reconstruct loop, the envelope shortcut), return exactly
//! what the routes they replaced return — `get_reference`,
//! `decode_range_into_reference` and `filter_range_pushdown_reference`
//! (`#[doc(hidden)]` test support).  For filters that means the same ranges
//! in the same order with the same `PushdownCounts`, not just the same
//! selection.
//!
//! The corpus is every `IntDataset` × {1 000, 65 536, 200 000} values ×
//! seeds 1–3 × {LeCo-fix, LeCo-var, LeCo-Poly-fix, FOR, Auto over fixed
//! 512} in release builds (the CI differential job); debug builds — the
//! tier-1 `cargo test` — keep every dataset at 1 000 values and seed 1 at
//! 65 536.  The property tests honour `PROPTEST_CASES` (CI: 2048) and aim
//! at what the corpus does not contain: predictions on both sides of the
//! reconstruct kernel's 2^51 guard, columns touching 0 and `u64::MAX`
//! (clamped envelopes), one-value partitions and skewed length mixes.

use leco_core::model::{reconstruct_linear_span, reconstruct_linear_span_reference};
use leco_core::{
    CompressedColumn, LecoCompressor, LecoConfig, Model, PartitionerKind, PushdownCounts,
    RegressorKind,
};
use leco_datasets::{generate, IntDataset};
use proptest::prelude::*;

/// The five configurations under test.
fn configs() -> [(&'static str, LecoConfig); 5] {
    [
        ("leco_fix", LecoConfig::leco_fix()),
        ("leco_var", LecoConfig::leco_var()),
        ("leco_poly_fix", LecoConfig::leco_poly_fix()),
        ("for", LecoConfig::for_()),
        (
            "auto_fixed_512",
            LecoConfig {
                regressor: RegressorKind::Auto,
                partitioner: PartitionerKind::Fixed { len: 512 },
            },
        ),
    ]
}

/// `(dataset, values, seed)` of every corpus column (see the module docs).
fn corpus() -> Vec<(IntDataset, usize, u64)> {
    let mut columns = Vec::new();
    for dataset in IntDataset::ALL {
        for n in [1_000, 65_536, 200_000] {
            for seed in 1..=3 {
                if cfg!(debug_assertions) && (n > 65_536 || (n == 65_536 && seed > 1)) {
                    continue;
                }
                columns.push((dataset, n, seed));
            }
        }
    }
    columns
}

/// splitmix64: predicates and spans are a pure function of the column.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run a filter route, recording every emitted range in order.
fn filter_with(
    col: &CompressedColumn,
    lo: u64,
    hi: u64,
    reference: bool,
) -> (Vec<(usize, usize)>, PushdownCounts) {
    let (mut ranges, mut scratch) = (Vec::new(), Vec::new());
    let emit = |a, b| ranges.push((a, b));
    let counts = if reference {
        col.filter_range_pushdown_reference(lo, hi, &mut scratch, emit)
    } else {
        col.filter_range_pushdown(lo, hi, &mut scratch, emit)
    };
    (ranges, counts)
}

/// Predicates at selectivities 0, 1e-4, 1e-2, 0.5 and 1 over `values`, plus
/// `[0, u64::MAX]` and two with `lo > hi`.
fn predicates(values: &[u64], state: &mut u64) -> Vec<(u64, u64)> {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let mut out = vec![(0, u64::MAX), (5, 4), (u64::MAX, 0)];
    if n == 0 {
        return out;
    }
    out.push((sorted[0], sorted[n - 1]));
    for sel in [1e-4, 1e-2, 0.5] {
        let width = ((n as f64 * sel) as usize).clamp(1, n);
        for _ in 0..4 {
            let start = (mix(state) % (n - width + 1) as u64) as usize;
            out.push((sorted[start], sorted[start + width - 1]));
        }
    }
    // Selectivity 0: points next to stored values, and past either end.
    for _ in 0..4 {
        let p = sorted[(mix(state) % n as u64) as usize].wrapping_add(1);
        if sorted.binary_search(&p).is_err() {
            out.push((p, p));
        }
    }
    if sorted[n - 1] < u64::MAX {
        out.push((sorted[n - 1] + 1, u64::MAX));
    }
    if sorted[0] > 0 {
        out.push((0, sorted[0] - 1));
    }
    out
}

/// Hold all three read paths of `col` to their reference routes (and to the
/// raw `values`) — every index, random spans, every predicate.
fn assert_reads_match(col: &CompressedColumn, values: &[u64], ctx: &str) {
    let n = values.len();
    assert_eq!(col.len(), n, "{ctx}");
    for (i, &want) in values.iter().enumerate() {
        let (got, reference) = (col.get(i), col.get_reference(i));
        assert_eq!(got, reference, "{ctx}: get({i})");
        assert_eq!(got, want, "{ctx}: get({i}) vs raw");
    }
    let mut state = n as u64 ^ 0x5EED;
    let mut spans = vec![(0, n), (0, 0), (n, n)];
    for _ in 0..24 {
        let a = (mix(&mut state) % (n as u64 + 1)) as usize;
        let len = (mix(&mut state) % [3, 70, 1_500, n as u64 + 1][spans.len() % 4]) as usize;
        spans.push((a, (a + len).min(n)));
    }
    let (mut got, mut reference) = (vec![7], vec![7]);
    for (from, to) in spans {
        got.truncate(1);
        reference.truncate(1);
        col.decode_range_into(from, to, &mut got);
        col.decode_range_into_reference(from, to, &mut reference);
        assert_eq!(got, reference, "{ctx}: decode {from}..{to}");
        assert_eq!(
            &got[1..],
            &values[from..to],
            "{ctx}: decode {from}..{to} vs raw"
        );
    }
    for (lo, hi) in predicates(values, &mut state) {
        let table = filter_with(col, lo, hi, false);
        assert_eq!(
            table,
            filter_with(col, lo, hi, true),
            "{ctx}: filter [{lo}, {hi}]"
        );
        assert_eq!(
            table.1.total(),
            n as u64,
            "{ctx}: filter [{lo}, {hi}] counts"
        );
        let selected: usize = table.0.iter().map(|&(a, b)| b - a).sum();
        let want = values.iter().filter(|&&v| lo <= v && v <= hi).count();
        assert_eq!(selected, want, "{ctx}: filter [{lo}, {hi}] vs raw");
    }
}

/// Compress `values` under `config`, check the encoder's column and its
/// serialized round trip (whose read table `from_bytes` derives anew).
fn assert_column_reads_match(config: &LecoConfig, values: &[u64], ctx: &str) {
    let col = LecoCompressor::new(config.clone()).compress(values);
    let loaded = CompressedColumn::from_bytes(&col.to_bytes()).expect("own bytes load");
    assert_eq!(loaded, col, "{ctx}: from_bytes derives the encoder's table");
    assert_reads_match(&loaded, values, ctx);
}

#[test]
fn reads_equal_the_reference_routes_on_the_corpus() {
    for (dataset, n, seed) in corpus() {
        let values = generate(dataset, n, seed);
        for (name, config) in configs() {
            let ctx = format!("{dataset:?} n={n} seed={seed} {name}");
            assert_column_reads_match(&config, &values, &ctx);
        }
    }
}

/// `|θ0 + θ1·k|` at both ends of the span stays below the `linear_fits_i64`
/// limit — the contract of both reconstruct loops.
fn span_fits_i64(theta0: f64, theta1: f64, local0: usize, n: usize) -> bool {
    let ends = [local0, local0 + n.saturating_sub(1)].map(|k| theta0 + theta1 * k as f64);
    ends.iter().all(|y| y.abs() < 4.0e18)
}

/// Shapes of columns that touch 0 and `u64::MAX`.
fn extreme_column(shape: u8, n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = |below: u64| mix(&mut state) % below.max(1);
    match shape % 5 {
        // Noisy values right above 0.
        0 => (0..n).map(|_| next(1 << 12)).collect(),
        // Noisy values right below u64::MAX.
        1 => (0..n).map(|_| u64::MAX - next(1 << 12)).collect(),
        // A noisy line from 0 to u64::MAX.
        2 => {
            let step = u64::MAX / n.max(2) as u64;
            (0..n as u64)
                .map(|i| {
                    (i * step)
                        .saturating_add(next(1 << 20))
                        .saturating_sub(1 << 19)
                })
                .collect()
        }
        // Descending from u64::MAX to 0.
        3 => {
            let step = u64::MAX / n.max(2) as u64;
            (0..n as u64)
                .map(|i| u64::MAX - i * step - next(step / 2 + 1))
                .collect()
        }
        // Both extremes mixed.
        _ => (0..n)
            .map(|_| match next(3) {
                0 => next(9),
                1 => u64::MAX - next(9),
                _ => next(u64::MAX),
            })
            .collect(),
    }
}

/// Runs of random lines with lengths drawn from a skewed mix (many of one
/// value), separated by large jumps so the partitioner keeps them apart.
fn skewed_column(n: usize, seed: u64) -> Vec<u64> {
    let mut state = seed;
    let mut next = |below: u64| mix(&mut state) % below.max(1);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let run = [1, 1, 1, 2, 3, 17, 64, 400][next(8) as usize].min(n - out.len());
        let (base, slope) = (next(1 << 44), next(1 << 10));
        let noise = [0, 1, 1 << 8][next(3) as usize];
        for k in 0..run as u64 {
            out.push(base + slope * k + next(noise + 1));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The vectorisable kernel against the `floor_to_i64` loop and the
    /// model's own `predict_floor`.
    #[test]
    fn prop_reconstruct_kernel_matches_the_floor_loop(
        mag0 in 0.0f64..1.0,
        exp0 in 0i32..63,
        neg0 in any::<bool>(),
        mag1 in 0.0f64..1.0,
        exp1 in -40i32..50,
        slope in 0u8..5,
        local0 in 0usize..2_000_000,
        n in 0usize..300,
        base in any::<u64>(),
        seed in any::<u64>(),
    ) {
        let sign = if neg0 { -1.0 } else { 1.0 };
        let two51 = (1u64 << 51) as f64;
        let (theta0, theta1) = match slope {
            0 => (sign * mag0 * 2f64.powi(exp0), 0.0),
            1 => (sign * mag0 * 2f64.powi(exp0), mag1 * 2f64.powi(exp1)),
            2 => (sign * mag0 * 2f64.powi(exp0), -mag1 * 2f64.powi(exp1)),
            // A span that crosses ±2^51 somewhere in the middle.
            3 => {
                let theta1 = sign * (1.0 + mag1 * 1e3);
                (sign * two51 - theta1 * (local0 + n / 2) as f64, theta1)
            }
            // Integral predictions next to ±2^51.
            _ => (sign * (two51 - (exp0 as f64)), 0.0),
        };
        if !span_fits_i64(theta0, theta1, local0, n) {
            return;
        }
        let mut state = seed;
        let packed: Vec<u64> = (0..n).map(|_| mix(&mut state)).collect();
        let (mut got, mut want) = (packed.clone(), packed.clone());
        reconstruct_linear_span(theta0, theta1, local0, base, &mut got);
        reconstruct_linear_span_reference(theta0, theta1, local0, base, &mut want);
        prop_assert_eq!(&got, &want);
        let model = Model::Linear { theta0, theta1 };
        for (k, &g) in got.iter().enumerate() {
            let p = model.predict_floor(local0 + k) as u64;
            prop_assert_eq!(g, p.wrapping_add(base).wrapping_add(packed[k]));
        }
    }

    /// Columns touching 0 and `u64::MAX`: envelopes clamped at either end.
    #[test]
    fn prop_columns_touching_0_and_u64_max(
        shape in 0u8..5,
        n in 1usize..700,
        seed in any::<u64>(),
        config in 0usize..5,
    ) {
        let values = extreme_column(shape, n, seed);
        let (name, config) = configs()[config].clone();
        let col = LecoCompressor::new(config.clone()).compress(&values);
        let ctx = format!("shape {shape} n {n} seed {seed} {name}");
        assert_reads_match(&col, &values, &ctx);
        let mut state = seed;
        for _ in 0..8 {
            let x = values[(mix(&mut state) % n as u64) as usize];
            for (lo, hi) in [(0, x), (x, u64::MAX), (0, 0), (u64::MAX, u64::MAX), (x, x)] {
                prop_assert_eq!(
                    filter_with(&col, lo, hi, false),
                    filter_with(&col, lo, hi, true),
                    "{}: [{}, {}]", ctx, lo, hi
                );
            }
        }
    }

    /// One-value partitions and skewed length mixes: the bucket walk.
    #[test]
    fn prop_one_value_partitions_and_skewed_mixes(
        n in 1usize..1_500,
        seed in any::<u64>(),
        partitioner in 0u8..3,
    ) {
        let values = skewed_column(n, seed);
        let config = match partitioner {
            0 => LecoConfig::leco_var(),
            1 => LecoConfig::leco_fix_with_len(1),
            _ => LecoConfig {
                regressor: RegressorKind::Linear,
                partitioner: PartitionerKind::Pla { epsilon: 16 },
            },
        };
        assert_column_reads_match(&config, &values, &format!("n {n} seed {seed} {config:?}"));
    }
}
