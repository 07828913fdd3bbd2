//! The Regressor module (§3.1): fit one model to one partition.
//!
//! Unlike classic least-squares regression, LeCo minimises the *maximum*
//! absolute error because the delta array is bit-packed at a fixed width
//! `φ = ⌈log2(δ_maxabs)⌉`: only the largest delta matters for space.
//!
//! Numerical strategy: every fit works on *offsets from the first value of
//! the partition* converted to `f64`.  The first value itself (which may use
//! the full 64-bit range) is folded into the partition's exact integer `bias`
//! by the encoder, so `f64` rounding never affects losslessness and rarely
//! affects the delta width.

pub mod cost;
pub mod linear;
pub mod poly;
pub mod special;

pub use cost::{CostModel, FitCache, PriceRoutes, PricedCut};

use crate::model::{floor_to_i64, linear_fits_i64, Model, RegressorKind};

/// Extra information a caller can provide to a fit, currently only the known
/// sine frequencies of the paper's `2sin-freq` configuration (§4.4).
#[derive(Debug, Clone, Default)]
pub struct FitContext {
    /// Angular frequencies (radians/position) to use for `Sine` models with
    /// `estimate_freq == false`.
    pub known_frequencies: Vec<f64>,
}

/// Result of evaluating a fitted model against the partition it was fit on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaStats {
    /// Minimum signed delta `v_i - floor(pred(i))`; packed deltas are stored
    /// relative to this bias.
    pub bias: i128,
    /// Bits required per packed delta.
    pub width: u8,
}

/// Convert a value slice into f64 offsets from the first element.
pub(crate) fn offsets_f64(values: &[u64]) -> Vec<f64> {
    let base = values[0];
    values
        .iter()
        .map(|&v| {
            if v >= base {
                (v - base) as f64
            } else {
                -((base - v) as f64)
            }
        })
        .collect()
}

/// Fit a model of family `kind` to `values` (the offsets-from-first
/// convention described in the module docs).
///
/// `RegressorKind::Auto` is resolved by the Hyper-parameter Advisor before
/// this function is called; passing it here falls back to `Linear`.
pub fn fit(kind: RegressorKind, values: &[u64]) -> Model {
    fit_with_context(kind, values, &FitContext::default())
}

/// [`fit`] with caller-provided context (known sine frequencies).
pub fn fit_with_context(kind: RegressorKind, values: &[u64], ctx: &FitContext) -> Model {
    assert!(!values.is_empty(), "cannot fit an empty partition");
    let ys = offsets_f64(values);
    match kind {
        RegressorKind::Constant => linear::fit_constant(&ys),
        RegressorKind::Linear | RegressorKind::Auto => linear::fit_linear(&ys),
        RegressorKind::Poly2 => poly::fit_poly(&ys, 2),
        RegressorKind::Poly3 => poly::fit_poly(&ys, 3),
        RegressorKind::Exponential => special::fit_exponential(&ys),
        RegressorKind::Logarithm => special::fit_logarithm(&ys),
        RegressorKind::Sine {
            terms,
            estimate_freq,
        } => {
            let freqs = if estimate_freq || ctx.known_frequencies.is_empty() {
                special::estimate_frequencies(&ys, terms as usize)
            } else {
                ctx.known_frequencies
                    .iter()
                    .copied()
                    .take(terms as usize)
                    .collect()
            };
            special::fit_sine(&ys, &freqs)
        }
    }
}

/// Compute the delta statistics of `model` against `values`.
///
/// Deltas are `v_i - floor(pred(i))`, exact.  The returned `width` is the
/// number of bits needed for `max_delta - min_delta`; if that range exceeds
/// 64 bits (which can only happen when a badly diverging model meets values
/// spanning the full u64 domain) or a delta leaves the `i128` range (a model
/// whose prediction saturates) the result is `None` and the caller is
/// expected to fall back to a constant model, which is always representable.
pub fn delta_stats(model: &Model, values: &[u64]) -> Option<DeltaStats> {
    residuals(model, values, |_, _| {})
}

/// The one residual pass of the encode path, shared by [`delta_stats`], the
/// cost oracle and the encoder: `sink(i, r)` receives the low 64 bits of
/// every delta `v_i - floor(pred(i))`, so a packed delta is
/// `r.wrapping_sub(bias as u64)`.  When the result is `None` whatever the
/// sink saw is meaningless; on a retry it is called again for every `i`.
///
/// Linear models whose predictions stay inside the `i64` range
/// ([`linear_fits_i64`]) over values below 2^62 take the decoder's route —
/// [`floor_to_i64`] and `i64` min/max, no `floor` libcall and no `i128` —
/// which is exact there: `|pred| < 4·10^18` and `v < 2^62` keep every delta
/// inside `i64`.  Everything else runs in checked `i128`.
#[inline]
pub(crate) fn residuals(
    model: &Model,
    values: &[u64],
    mut sink: impl FnMut(usize, u64),
) -> Option<DeltaStats> {
    if let Model::Linear { theta0, theta1 } = *model {
        if linear_fits_i64(theta0, theta1, values.len()) {
            // Four independent lanes; the `f64` position counter is exact
            // below 2^53, so bit-identical to `i as f64`.
            const LANES: usize = 4;
            let (mut min_d, mut max_d, mut seen) = ([i64::MAX; LANES], [i64::MIN; LANES], 0u64);
            let mut x = [0.0, 1.0, 2.0, 3.0];
            let mut track = |i: usize, k: usize, v: u64| {
                let d = (v as i64).wrapping_sub(floor_to_i64(theta0 + theta1 * x[k]));
                min_d[k] = min_d[k].min(d);
                max_d[k] = max_d[k].max(d);
                seen |= v;
                sink(i, d as u64);
                x[k] += LANES as f64;
            };
            let mut chunks = values.chunks_exact(LANES);
            let mut i = 0;
            for chunk in &mut chunks {
                for (k, &v) in chunk.iter().enumerate() {
                    track(i + k, k, v);
                }
                i += LANES;
            }
            for (k, &v) in chunks.remainder().iter().enumerate() {
                track(i + k, k, v);
            }
            let min_d = min_d.into_iter().min().expect("LANES > 0");
            let max_d = max_d.into_iter().max().expect("LANES > 0");
            // Checked after the loop so the loop carries no branch: a value
            // at or above 2^62 makes the wrapped deltas unordered, and the
            // pass below redoes them.
            if seen < 1 << 62 && min_d <= max_d {
                return Some(DeltaStats {
                    bias: min_d as i128,
                    width: leco_bitpack::bits_for(max_d.wrapping_sub(min_d) as u64),
                });
            }
        }
    }
    residuals_i128(model, values, sink)
}

/// [`residuals`] for any model, in checked `i128`: a subtraction that
/// overflows (a prediction saturated at an end of the `i128` range) or a
/// spread past 64 bits is "not representable".
fn residuals_i128(
    model: &Model,
    values: &[u64],
    mut sink: impl FnMut(usize, u64),
) -> Option<DeltaStats> {
    let mut min_d = i128::MAX;
    let mut max_d = i128::MIN;
    for (i, &v) in values.iter().enumerate() {
        let d = (v as i128).checked_sub(model.predict_floor(i))?;
        min_d = min_d.min(d);
        max_d = max_d.max(d);
        sink(i, d as u64);
    }
    let range = u64::try_from(max_d.checked_sub(min_d)?).ok()?;
    Some(DeltaStats {
        bias: min_d,
        width: leco_bitpack::bits_for(range),
    })
}

/// Test support: [`delta_stats`] by the `i128` route alone, the oracle the
/// `i64` route of [`residuals`] is held to.
#[doc(hidden)]
pub fn delta_stats_reference(model: &Model, values: &[u64]) -> Option<DeltaStats> {
    residuals_i128(model, values, |_, _| {})
}

/// Fit `kind`, falling back to a constant model whenever the resulting delta
/// range would not fit in 64 bits.  Returns the model together with its delta
/// statistics.
pub fn fit_checked(kind: RegressorKind, values: &[u64], ctx: &FitContext) -> (Model, DeltaStats) {
    fit_checked_with(kind, values, ctx, |_, _| {})
}

/// [`fit_checked`] that also hands the returned model's deltas to `sink`,
/// with the contract of [`residuals`].
pub(crate) fn fit_checked_with(
    kind: RegressorKind,
    values: &[u64],
    ctx: &FitContext,
    mut sink: impl FnMut(usize, u64),
) -> (Model, DeltaStats) {
    let model = fit_with_context(kind, values, ctx);
    if let Some(stats) = residuals(&model, values, &mut sink) {
        return (model, stats);
    }
    let fallback = linear::fit_constant(&offsets_f64(values));
    let stats = residuals(&fallback, values, &mut sink)
        .expect("constant model always yields a representable delta range");
    (fallback, stats)
}

/// Exact compressed size in bits of a partition under `model`: the
/// serialized metadata record — length varint, model parameters, bias
/// zigzag varint, width byte, and the θ₁-accumulation **correction list**
/// (count + delta-coded positions, when present) — plus `n` packed deltas.
///
/// This is the objective of §3 that the partitioners minimise, and it
/// matches `format::serialized_size` byte for byte: summing it over a
/// column's partitions and adding the file header and payload padding
/// reproduces `CompressedColumn::size_bytes() · 8` exactly.  The previous
/// cost model charged only `model + 7 bytes + n·width`, ignoring the
/// correction list entirely — which let the variable-length partitioner
/// grow partitions whose correction lists dwarfed their payload.
pub fn partition_cost_bits_exact(model: &Model, n: usize, stats: &DeltaStats) -> usize {
    let meta_bytes = crate::format::varint_len(n as u128)
        + model.size_bytes()
        + crate::format::varint_len(crate::format::zigzag_i128(stats.bias))
        + 1 // width byte
        + model.correction_cost_bytes(n);
    meta_bytes * 8 + n * stats.width as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_handle_decreasing_start() {
        let values = [100u64, 50, 150];
        let ys = offsets_f64(&values);
        assert_eq!(ys, vec![0.0, -50.0, 50.0]);
    }

    #[test]
    fn fit_linear_on_clean_line_has_zero_width() {
        let values: Vec<u64> = (0..1000u64).map(|i| 5 + 3 * i).collect();
        let (model, stats) = fit_checked(RegressorKind::Linear, &values, &FitContext::default());
        assert!(matches!(model, Model::Linear { .. }));
        assert!(
            stats.width <= 1,
            "width {} should be ~0 on a clean line",
            stats.width
        );
    }

    #[test]
    fn constant_fallback_on_extreme_range() {
        // Values spanning the full u64 range with a linear model that will
        // diverge: fit_checked must still return something representable.
        let values = vec![0u64, u64::MAX, 0, u64::MAX];
        let (_, stats) = fit_checked(RegressorKind::Linear, &values, &FitContext::default());
        assert!(stats.width <= 64);
    }

    #[test]
    fn delta_stats_exactness() {
        let model = Model::Linear {
            theta0: 0.0,
            theta1: 1.0,
        };
        let values = vec![10u64, 12, 13, 13]; // preds 0,1,2,3 -> deltas 10,11,11,10
        let stats = delta_stats(&model, &values).unwrap();
        assert_eq!(stats.bias, 10);
        assert_eq!(stats.width, 1);
    }

    #[test]
    fn saturating_prediction_is_unrepresentable_not_a_panic() {
        // exp(10·i) saturates `predict_floor` at i128::MAX from i = 9 on, so
        // the last delta is −i128::MAX and the spread leaves i128.
        let model = Model::Exponential { ln_a: 0.0, b: 10.0 };
        let mut values = vec![7u64; 100];
        values.push(0);
        assert_eq!(model.predict_floor(100), i128::MAX);
        assert_eq!(delta_stats(&model, &values), None);
        assert_eq!(delta_stats_reference(&model, &values), None);
        // A prediction saturating low overflows the subtraction itself.
        let low = Model::Linear {
            theta0: -1e300,
            theta1: 0.0,
        };
        assert_eq!(low.predict_floor(0), i128::MIN);
        assert_eq!(delta_stats(&low, &[1]), None);
        // `fit_checked` lands on its constant fallback for such columns.
        let (model, stats) = fit_checked(
            RegressorKind::Exponential,
            &[0, u64::MAX, 0, u64::MAX],
            &FitContext::default(),
        );
        assert!(stats.width <= 64, "{model:?}");
    }

    #[test]
    fn i64_residual_route_agrees_with_the_reference_at_its_edges() {
        let lines = [
            (0.0, 1.0),
            (-3.5, 0.37),
            (3.9e18, 0.0),
            (3.9e18, 1e14), // on the i64 route for the 3-value spans only
            (-3.9e18, -0.25),
            (4.1e18, 0.0), // never on the i64 route
        ];
        let columns: [Vec<u64>; 5] = [
            (0..1_001u64).map(|i| 10 + 3 * i).collect(),
            (0..1_001u64).map(|i| (1 << 62) - 1 - i).collect(),
            (0..1_001u64).map(|i| (1 << 62) - 500 + i).collect(), // crosses 2^62
            (0..1_001u64).map(|i| u64::MAX - i * i).collect(),
            vec![5],
        ];
        for (theta0, theta1) in lines {
            let model = Model::Linear { theta0, theta1 };
            for values in &columns {
                for len in [values.len(), values.len() - 1, 3.min(values.len())] {
                    let values = &values[..len];
                    let mut seen = vec![0u64; len];
                    let stats = residuals(&model, values, |i, r| seen[i] = r);
                    assert_eq!(stats, delta_stats_reference(&model, values), "{model:?}");
                    if stats.is_some() {
                        for (i, &v) in values.iter().enumerate() {
                            let d = v as i128 - model.predict_floor(i);
                            assert_eq!(seen[i], d as u64, "{model:?} at {i}");
                        }
                    }
                }
            }
        }
        assert_eq!(delta_stats(&Model::Constant { value: 1.0 }, &[]), None);
    }

    #[test]
    fn cost_increases_with_width_and_len() {
        let m = Model::Linear {
            theta0: 0.0,
            theta1: 0.0,
        };
        let stats = |width| DeltaStats { bias: 0, width };
        assert!(
            partition_cost_bits_exact(&m, 100, &stats(4))
                < partition_cost_bits_exact(&m, 100, &stats(8))
        );
        assert!(
            partition_cost_bits_exact(&m, 100, &stats(4))
                < partition_cost_bits_exact(&m, 200, &stats(4))
        );
    }

    #[test]
    fn exact_cost_charges_the_correction_list() {
        // A model in the i128 fallback regime: corrections are stored, so
        // the exact cost must exceed the correction-free accounting.
        let m = Model::Linear {
            theta0: 4.2e18,
            theta1: 0.37,
        };
        let n = 10_000;
        assert!(m.needs_corrections(n));
        let corr_bytes = m.correction_cost_bytes(n);
        assert!(corr_bytes > 0, "drift must occur over 10k accumulations");
        let stats = DeltaStats { bias: 0, width: 3 };
        let without = crate::format::varint_len(n as u128) + m.size_bytes() + 1 + 1;
        assert_eq!(
            partition_cost_bits_exact(&m, n, &stats),
            (without + corr_bytes) * 8 + n * 3
        );
        // And in the common direct-evaluation regime the list costs nothing.
        let fast = Model::Linear {
            theta0: 0.0,
            theta1: 0.37,
        };
        assert!(!fast.needs_corrections(n));
        assert_eq!(fast.correction_cost_bytes(n), 0);
    }

    #[test]
    fn fit_dispatch_every_kind_is_lossless_representable() {
        let values: Vec<u64> = (0..500u64).map(|i| 1000 + i * i / 7 + (i % 5)).collect();
        for kind in [
            RegressorKind::Constant,
            RegressorKind::Linear,
            RegressorKind::Poly2,
            RegressorKind::Poly3,
            RegressorKind::Exponential,
            RegressorKind::Logarithm,
            RegressorKind::Sine {
                terms: 1,
                estimate_freq: true,
            },
        ] {
            let (model, stats) = fit_checked(kind, &values, &FitContext::default());
            // Reconstruct and verify losslessness of the model+delta scheme.
            for (i, &v) in values.iter().enumerate() {
                let d = v as i128 - model.predict_floor(i);
                let packed = (d - stats.bias) as u128;
                assert!(packed <= u64::MAX as u128, "kind {kind:?}");
                let recovered = model.predict_floor(i) + stats.bias + packed as i128;
                assert_eq!(recovered as u64, v, "kind {kind:?} at {i}");
            }
        }
    }
}
