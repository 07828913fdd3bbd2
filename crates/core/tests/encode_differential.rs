//! Differential harness for the encode path.
//!
//! The locked invariant: the encoder's output is **byte-identical** to the
//! route it had before `CostModel::price_cuts` — split–merge cuts priced one
//! span at a time, delta statistics in `i128`, one `BitWriter::write` per
//! value.  Three layers are held to their oracle separately, so a failure
//! names the layer:
//!
//! * `price_cuts` (two shared hull sweeps per batch) against per-cut
//!   `exact_bits` on a [`CostModel::per_span`] oracle;
//! * `delta_stats` (the `i64` residual route) against
//!   `delta_stats_reference`;
//! * `LecoCompressor::compress` against `compress_reference`, for LeCo-fix
//!   and LeCo-var.
//!
//! The corpus is every `IntDataset` × {1 000, 10 000, 65 536, 200 000} values
//! × seeds 1–3 in release builds (the CI differential job); debug builds —
//! the tier-1 `cargo test` — keep all datasets and seeds at the two small
//! sizes and seed 1 at 65 536, which is what fits their time budget.  The
//! property tests honour `PROPTEST_CASES` (CI: 2048) and aim at what the
//! corpus does not contain: collinear runs and plateaus (the hull tie case),
//! strictly decreasing data, values next to `u64::MAX`, ranges on either
//! side of the 52-bit exactness guard, and spans of 1–3 values.

use leco_core::regressor::{delta_stats, delta_stats_reference, fit, CostModel, PricedCut};
use leco_core::{LecoCompressor, LecoConfig, RegressorKind};
use leco_datasets::{generate, IntDataset};
use proptest::prelude::*;

/// `(dataset, values, seed)` of every corpus column (see the module docs).
fn corpus() -> Vec<(IntDataset, usize, u64)> {
    let mut columns = Vec::new();
    for dataset in IntDataset::ALL {
        for n in [1_000, 10_000, 65_536, 200_000] {
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

/// The refine phase's boundary offsets.
const REFINE_OFFSETS: [isize; 16] = [
    -128, -64, -32, -16, -8, -4, -2, -1, 1, 2, 4, 8, 16, 32, 64, 128,
];

/// Sort, deduplicate and keep what lies strictly inside `(lo, hi)`.
fn tidy(mut cuts: Vec<usize>, lo: usize, hi: usize) -> Vec<usize> {
    cuts.retain(|&b| b > lo && b < hi);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// The evenly spaced grid the bisect phase prices, plus both extreme cuts.
fn bisect_style(lo: usize, hi: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (1..=9).map(|k| lo + (hi - lo) * k / 10).collect();
    cuts.extend([lo + 1, hi - 1]);
    tidy(cuts, lo, hi)
}

/// The refine phase's offsets around `boundary`, plus both extreme cuts.
fn refine_style(lo: usize, hi: usize, boundary: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = REFINE_OFFSETS
        .iter()
        .map(|&off| boundary.saturating_add_signed(off))
        .collect();
    cuts.extend([lo + 1, hi - 1]);
    tidy(cuts, lo, hi)
}

/// Price `cuts` on `model` and hold every cut — and the winner under a few
/// incumbents — to per-cut `exact_bits` on the per-span `oracle`.
fn assert_batch_matches(
    model: &mut CostModel<'_>,
    oracle: &mut CostModel<'_>,
    (lo, hi): (usize, usize),
    cuts: &[usize],
    ctx: &str,
) {
    let want: Vec<PricedCut> = cuts
        .iter()
        .map(|&cut| PricedCut {
            cut,
            left: oracle.exact_bits(lo, cut),
            right: oracle.exact_bits(cut, hi),
        })
        .collect();
    assert_eq!(
        model.price_cuts(lo, hi, cuts),
        want,
        "{ctx}: span {lo}..{hi}"
    );
    let cheapest = want.iter().map(PricedCut::total).min();
    for incumbent in [usize::MAX, cheapest.unwrap_or(0), cheapest.unwrap_or(0) + 1] {
        let mut first_cheapest: Option<PricedCut> = None;
        for &c in &want {
            if c.total() < first_cheapest.map_or(incumbent, |b| b.total()) {
                first_cheapest = Some(c);
            }
        }
        assert_eq!(
            model.best_cut(lo, hi, cuts, incumbent),
            first_cheapest,
            "{ctx}: span {lo}..{hi} incumbent {incumbent}"
        );
    }
}

/// The guard of the shared route, restated from its documentation.
fn expect_shared(values: &[u64], lo: usize, hi: usize) -> bool {
    let span = &values[lo..hi];
    let range = span.iter().max().unwrap() - span.iter().min().unwrap();
    let bits = |v: u64| 64 - v.leading_zeros();
    hi - lo >= 32 && bits(range) + bits((hi - lo) as u64) <= 52
}

#[test]
fn price_cuts_equals_per_cut_exact_bits_on_the_corpus() {
    let (mut shared, mut per_span) = (0, 0);
    for (dataset, n, seed) in corpus() {
        let values = generate(dataset, n, seed);
        let ctx = format!("{dataset:?} n={n} seed={seed}");
        let mut model = CostModel::new(&values, RegressorKind::Linear);
        let mut oracle = CostModel::per_span(&values, RegressorKind::Linear);
        let spans = [
            (0, n),
            (n / 4, n / 4 + 4_096.min(n / 2)),
            (n / 2, n / 2 + 257),
            (n - 40, n),
            (7, 27),
        ];
        for (lo, hi) in spans {
            let before = model.price_routes();
            for cuts in [
                bisect_style(lo, hi),
                refine_style(lo, hi, lo + (hi - lo) / 2),
                // A second batch over spans the memo now knows in part.
                refine_style(lo, hi, lo + (hi - lo) / 2 + 3),
            ] {
                assert_batch_matches(&mut model, &mut oracle, (lo, hi), &cuts, &ctx);
            }
            let after = model.price_routes();
            let took_shared = after.shared > before.shared;
            assert_ne!(took_shared, after.per_span > before.per_span, "{ctx}");
            assert_eq!(took_shared, expect_shared(&values, lo, hi), "{ctx}");
        }
        shared += model.price_routes().shared;
        per_span += model.price_routes().per_span;
    }
    assert!(
        shared > 0 && per_span > 0,
        "both routes must run: {shared} shared, {per_span} per-span batches"
    );
}

/// `compress(..).to_bytes()` against the reference route, LeCo-fix and
/// LeCo-var.
fn assert_bytes_match_reference(values: &[u64], ctx: &str) {
    for (scheme, config) in [
        ("fix", LecoConfig::leco_fix()),
        ("var", LecoConfig::leco_var()),
    ] {
        let compressor = LecoCompressor::new(config);
        let column = compressor.compress(values);
        assert_eq!(
            column.to_bytes(),
            compressor.compress_reference(values).to_bytes(),
            "{ctx}: LeCo-{scheme} bytes differ from the reference route"
        );
        assert_eq!(column.decode_all(), values, "{ctx}: LeCo-{scheme} lossless");
    }
}

#[test]
fn compress_is_byte_identical_to_the_reference_route_on_the_corpus() {
    for (dataset, n, seed) in corpus() {
        let values = generate(dataset, n, seed);
        assert_bytes_match_reference(&values, &format!("{dataset:?} n={n} seed={seed}"));
    }
}

#[test]
fn delta_stats_equals_the_reference_on_the_corpus() {
    for (dataset, n, seed) in corpus() {
        let values = generate(dataset, n, seed);
        for len in [n, 4_096.min(n), 100, 3, 1] {
            for start in [0, n - len] {
                let span = &values[start..start + len];
                for kind in [RegressorKind::Linear, RegressorKind::Constant] {
                    let model = fit(kind, span);
                    assert_eq!(
                        delta_stats(&model, span),
                        delta_stats_reference(&model, span),
                        "{dataset:?} n={n} seed={seed} {start}+{len} {kind:?}"
                    );
                }
            }
        }
    }
}

/// splitmix64: the adversarial columns below are a pure function of
/// `(shape, n, seed)`.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const SHAPES: u8 = 6;

/// One adversarial column of `n` values.
fn adversary(shape: u8, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = seed;
    let mut next = |below: u64| mix(&mut rng) % below.max(1);
    match shape % SHAPES {
        // Collinear runs and plateaus: every run lies exactly on a line, so
        // hull ties (cross product 0) are the rule, not the exception.
        0 => {
            let mut out = Vec::with_capacity(n);
            let mut v = next(1 << 40);
            while out.len() < n {
                let (run, slope) = (1 + next(40) as usize, [0, 0, 1, 3, 1_000][next(5) as usize]);
                for _ in 0..run.min(n - out.len()) {
                    out.push(v);
                    v += slope;
                }
                v += next(3) * next(10_000);
            }
            out
        }
        // Strictly decreasing, sometimes exactly linear.
        1 => {
            let step = 1 + next(1_000);
            let jitter = next(2) * next(step);
            let top = (1u64 << 45) + next(1 << 45);
            (0..n as u64)
                .map(|i| top - i * (step + 1) - next(jitter + 1))
                .collect()
        }
        // Next to u64::MAX: a small range (the shared route) of values the
        // i64 residual route must refuse.
        2 => {
            let spread = 1 + next(1 << 20);
            (0..n).map(|_| u64::MAX - next(spread)).collect()
        }
        // A trend whose range sits on either side of the exactness guard:
        // bits_for(range) + bits_for(n) lands in 49..=55.
        3 => {
            let len_bits = 64 - (n as u64).leading_zeros();
            let range_bits = (49 + next(7) as u32).saturating_sub(len_bits).clamp(1, 62);
            let range = (1u64 << (range_bits - 1)) + next(1 << (range_bits - 1));
            let noise = 1 + next(range / 8 + 1);
            let mut out: Vec<u64> = (0..n as u64)
                .map(|i| range / 2 / n as u64 * i + next(noise))
                .collect();
            // Pin the range exactly.
            out[n / 2] = 0;
            out[n - 1] = range;
            out
        }
        // The whole u64 range: always the fallback, often the constant model.
        4 => (0..n).map(|_| next(u64::MAX)).collect(),
        // Noisy steps: plateaus with outliers.
        _ => {
            let mut level = next(1 << 30);
            (0..n)
                .map(|_| {
                    if next(50) == 0 {
                        level = next(1 << 30);
                    }
                    level + next(4) * next(2)
                })
                .collect()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every interior cut of an adversarial span, priced in one batch.
    #[test]
    fn prop_price_cuts_matches_per_span_pricing(
        shape in 0u8..SHAPES,
        n in 2usize..400,
        seed in any::<u64>(),
    ) {
        let values = adversary(shape, n, seed);
        let mut model = CostModel::new(&values, RegressorKind::Linear);
        let mut oracle = CostModel::per_span(&values, RegressorKind::Linear);
        let ctx = format!("shape {shape} n {n} seed {seed}");
        // All cuts at once — spans of 1, 2 and 3 values on both sides.
        let every: Vec<usize> = (1..n).collect();
        assert_batch_matches(&mut model, &mut oracle, (0, n), &every, &ctx);
        let routes = model.price_routes();
        let shared = expect_shared(&values, 0, n);
        // `assert_batch_matches` prices the batch four times.
        prop_assert_eq!((routes.shared, routes.per_span), if shared { (4, 0) } else { (0, 4) });
        // A fresh oracle per sub-span keeps the memo from answering.
        let (lo, hi) = (n / 5, n - n / 7);
        if hi - lo >= 2 {
            let mut model = CostModel::new(&values, RegressorKind::Linear);
            let cuts = refine_style(lo, hi, lo + (hi - lo) / 2);
            assert_batch_matches(&mut model, &mut oracle, (lo, hi), &cuts, &ctx);
        }
    }

    #[test]
    fn prop_compress_matches_reference_on_adversaries(
        shape in 0u8..SHAPES,
        n in 1usize..700,
        seed in any::<u64>(),
    ) {
        let values = adversary(shape, n, seed);
        assert_bytes_match_reference(&values, &format!("shape {shape} n {n} seed {seed}"));
    }

    #[test]
    fn prop_delta_stats_matches_reference_on_adversaries(
        shape in 0u8..SHAPES,
        n in 1usize..300,
        seed in any::<u64>(),
        theta0 in -5.0e18f64..5.0e18,
        theta1 in -1.0e16f64..1.0e16,
    ) {
        let values = adversary(shape, n, seed);
        for model in [
            fit(RegressorKind::Linear, &values),
            leco_core::Model::Linear { theta0, theta1 },
            leco_core::Model::Linear { theta0: theta0 / 1e6, theta1: theta1 / 1e12 },
        ] {
            prop_assert_eq!(delta_stats(&model, &values), delta_stats_reference(&model, &values));
        }
    }
}

/// Both routes, pinned on inputs whose route is known by construction.
#[test]
fn guard_sends_wide_and_short_spans_to_the_per_span_route() {
    // A range of 2^36 over 2^16 values: 36 + 17 bits, one past the budget.
    let wide: Vec<u64> = (0..65_536u64).map(|i| i << 20).collect();
    // One bit less of range: exactly on it.
    let narrow: Vec<u64> = (0..65_536u64).map(|i| i << 19).collect();
    for (values, shared) in [(&wide, false), (&narrow, true)] {
        assert_eq!(expect_shared(values, 0, 65_536), shared);
        let mut model = CostModel::new(values, RegressorKind::Linear);
        let mut oracle = CostModel::per_span(values, RegressorKind::Linear);
        assert_batch_matches(
            &mut model,
            &mut oracle,
            (0, 65_536),
            &bisect_style(0, 65_536),
            "guard",
        );
        assert_eq!(model.price_routes().shared > 0, shared);
        assert_eq!(model.price_routes().per_span > 0, !shared);
        // A short span of the same column never shares sweeps.
        let before = model.price_routes().per_span;
        model.price_cuts(100, 131, &[101, 115, 130]);
        assert_eq!(model.price_routes().per_span, before + 1);
    }
    // `Auto` prices as the linear family, so it shares sweeps too.
    let mut auto = CostModel::new(&narrow, RegressorKind::Auto);
    let mut oracle = CostModel::per_span(&narrow, RegressorKind::Auto);
    let cuts = refine_style(1_000, 9_000, 5_000);
    assert_batch_matches(&mut auto, &mut oracle, (1_000, 9_000), &cuts, "auto");
    assert_eq!(auto.price_routes().per_span, 0);
    // Non-linear regressors price per span whatever the data.
    let mut poly = CostModel::new(&narrow[..4_096], RegressorKind::Poly2);
    poly.price_cuts(0, 4_096, &[1_000, 2_000]);
    assert_eq!(
        (poly.price_routes().shared, poly.price_routes().per_span),
        (0, 1)
    );
}
