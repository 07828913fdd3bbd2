//! Regression models and their serialized representation.
//!
//! A [`Model`] maps a *local position* inside a partition (0-based) to a
//! predicted value.  The decoder recovers the original value as
//! `floor(prediction) + bias + packed_delta`, so the only requirement on a
//! model is that encoder and decoder evaluate it bit-identically — which they
//! do, because both use the same `f64` arithmetic on the same parameters.

use serde::{Deserialize, Serialize};

/// The regressor family requested in a [`crate::LecoConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegressorKind {
    /// Horizontal line (Frame-of-Reference).
    Constant,
    /// Straight line `θ0 + θ1·i` (the LeCo default).
    Linear,
    /// Polynomial of degree ≤ 2.
    Poly2,
    /// Polynomial of degree ≤ 3.
    Poly3,
    /// Exponential `exp(θ0 + θ1·i)`.
    Exponential,
    /// Logarithmic `θ0 + θ1·ln(i + 1)`.
    Logarithm,
    /// Linear trend plus `terms` sine components with learned frequencies.
    Sine {
        /// Number of sine terms (1 or 2 in the paper's cosmos experiment).
        terms: u8,
        /// If `true` the frequencies are estimated from the data
        /// (the paper's `2sin`); if `false` the caller supplies them
        /// via [`crate::regressor::FitContext`] (`2sin-freq`).
        estimate_freq: bool,
    },
    /// Let the Hyper-parameter Advisor's Regressor Selector choose per
    /// partition among {Constant, Linear, Poly2, Poly3, Exponential,
    /// Logarithm}.
    Auto,
}

/// Direction in which [`Model::predict_floor`] is monotone over local
/// positions, as proven by [`Model::monotone`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Monotone {
    /// `predict_floor(i) <= predict_floor(i + 1)` for every `i`.
    NonDecreasing,
    /// `predict_floor(i) >= predict_floor(i + 1)` for every `i`.
    NonIncreasing,
}

/// The row-interval pair produced by [`Model::invert_range`]: half-open local
/// ranges with `definite ⊆ candidate`.
///
/// Rows outside `candidate` certainly fail the predicate, rows inside
/// `definite` certainly pass it, and only the slack band `candidate \
/// definite` (at most two spans, one per side) depends on the packed delta —
/// those are the *boundary rows* a pushdown filter must actually decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlackBands {
    /// Local positions that *may* satisfy the predicate.
    pub candidate: std::ops::Range<usize>,
    /// Local positions that *certainly* satisfy the predicate.
    pub definite: std::ops::Range<usize>,
}

/// `partition_point` over `0..len`: the first index where `pred` turns false
/// (callers guarantee `pred` is monotone true→false).
#[inline]
fn partition_point(len: usize, mut pred: impl FnMut(usize) -> bool) -> usize {
    let (mut a, mut b) = (0usize, len);
    while a < b {
        let mid = a + (b - a) / 2;
        if pred(mid) {
            a = mid + 1;
        } else {
            b = mid;
        }
    }
    a
}

/// One sine component of a [`Model::Sine`] model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SineTerm {
    /// Angular frequency (radians per position).
    pub omega: f64,
    /// Coefficient of `sin(omega · i)`.
    pub a_sin: f64,
    /// Coefficient of `cos(omega · i)`.
    pub a_cos: f64,
}

/// A fitted model for one partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Model {
    /// `pred(i) = value` — Frame-of-Reference / RLE.
    Constant {
        /// The constant prediction.
        value: f64,
    },
    /// `pred(i) = theta0 + theta1 · i`.
    Linear {
        /// Intercept.
        theta0: f64,
        /// Slope.
        theta1: f64,
    },
    /// `pred(i) = Σ coeffs[k] · i^k`.
    Poly {
        /// Coefficients from degree 0 upwards (length 3 or 4).
        coeffs: Vec<f64>,
    },
    /// `pred(i) = exp(ln_a + b · i)`.
    Exponential {
        /// Log of the scale factor.
        ln_a: f64,
        /// Growth rate.
        b: f64,
    },
    /// `pred(i) = theta0 + theta1 · ln(i + 1)`.
    Logarithm {
        /// Intercept.
        theta0: f64,
        /// Log coefficient.
        theta1: f64,
    },
    /// `pred(i) = theta0 + theta1 · i + Σ_t a_sin·sin(ω·i) + a_cos·cos(ω·i)`.
    Sine {
        /// Intercept.
        theta0: f64,
        /// Linear trend.
        theta1: f64,
        /// Sinusoidal components.
        terms: Vec<SineTerm>,
    },
}

/// True when every prediction of the line `t0 + t1·k` for `k < len` is
/// certain to stay strictly inside the i64 range, so `floor() as i64` cannot
/// saturate.  The accumulated sequence is monotone, hence checking the two
/// endpoints suffices; the limit leaves well over 2^62 of slack for the
/// ulp-level drift the correction list tracks.
#[inline]
pub(crate) fn linear_fits_i64(t0: f64, t1: f64, len: usize) -> bool {
    const LIMIT: f64 = 4.0e18; // < 2^62
    let last = t0 + t1 * len.saturating_sub(1) as f64;
    t0.is_finite() && last.is_finite() && t0.abs() < LIMIT && last.abs() < LIMIT
}

/// `x.floor() as i64` for finite `|x| < 2^62`, without the `floor` libm call
/// the baseline x86-64 target emits (`roundsd` needs SSE4.1): truncate toward
/// zero with the hardware cast, then subtract 1 when truncation rounded up
/// (negative non-integers).  Bit-identical to `floor` in the guarded range.
#[inline(always)]
pub(crate) fn floor_to_i64(x: f64) -> i64 {
    let t = x as i64;
    t - ((t as f64 > x) as i64)
}

/// The body of [`Model::invert_range`] for a `predict_floor` given as `pf`,
/// monotone in direction `dir` over `0..len`.  The read table passes the
/// `floor_to_i64` evaluation of linear partitions that pass
/// [`linear_fits_i64`], which is `predict_floor` without the libm call.
pub(crate) fn invert_monotone(
    dir: Monotone,
    len: usize,
    bias: i128,
    width: u8,
    lo: u64,
    hi: u64,
    pf: impl Fn(usize) -> i128,
) -> SlackBands {
    if len == 0 || lo > hi {
        return SlackBands {
            candidate: 0..0,
            definite: 0..0,
        };
    }
    let slack: i128 = if width >= 64 {
        u64::MAX as i128
    } else {
        ((1u64 << width) - 1) as i128
    };
    // Thresholds in prediction space.  Saturating arithmetic is pure
    // belt-and-braces: a bias anywhere near i128's edges cannot come out
    // of the encoder (the delta subtraction would have overflowed first).
    let lo_t = (lo as i128).saturating_sub(bias);
    let hi_t = (hi as i128).saturating_sub(bias);
    let (candidate, definite) = match dir {
        Monotone::NonDecreasing => {
            // first_ge(t): first row with predict_floor >= t.
            let first_ge = |t: i128| partition_point(len, |i| pf(i) < t);
            let candidate = first_ge(lo_t.saturating_sub(slack))..first_ge(hi_t.saturating_add(1));
            let definite = first_ge(lo_t)..first_ge(hi_t.saturating_sub(slack).saturating_add(1));
            (candidate, definite)
        }
        Monotone::NonIncreasing => {
            // predict_floor is non-increasing: `{i : pf(i) <= t}` is a
            // suffix and `{i : pf(i) >= t}` a prefix.
            let first_le = |t: i128| partition_point(len, |i| pf(i) > t);
            let first_lt = |t: i128| partition_point(len, |i| pf(i) >= t);
            let candidate = first_le(hi_t)..first_lt(lo_t.saturating_sub(slack));
            let definite = first_le(hi_t.saturating_sub(slack))..first_lt(lo_t);
            (candidate, definite)
        }
    };
    // Normalise: candidate is non-empty-ordered by construction; clamp
    // definite inside it (an empty definite collapses to a point, leaving
    // the whole candidate as boundary).
    debug_assert!(candidate.start <= candidate.end);
    let def_start = definite.start.clamp(candidate.start, candidate.end);
    let def_end = definite.end.clamp(def_start, candidate.end);
    SlackBands {
        candidate,
        definite: def_start..def_end,
    }
}

/// The shared linear loop: `out[k] = floor(θ0 + θ1·(local0+k)) + base +
/// out[k]` in wrapping u64 arithmetic, one saturating `f64 → i64` cast per
/// value.  Callers must have established [`linear_fits_i64`] over the span
/// first.  `#[inline(always)]` so every decoder gets a monomorphic, call-free
/// inner loop.  This is the fallback of [`reconstruct_linear_span`] and its
/// oracle ([`reconstruct_linear_span_reference`]).
#[inline(always)]
fn linear_reconstruct_fill(theta0: f64, theta1: f64, local0: usize, base: u64, out: &mut [u64]) {
    for (k, slot) in out.iter_mut().enumerate() {
        let p = floor_to_i64(theta0 + theta1 * (local0 + k) as f64);
        *slot = (p as u64).wrapping_add(base).wrapping_add(*slot);
    }
}

/// `2^52`: the `f64` binade whose ulp is exactly 1.
const TWO_52: f64 = 4_503_599_627_370_496.0;
/// `1.5 · 2^52`: adding it to `|y| < 2^51` lands in `[2^52, 2^53)` and rounds
/// `y` to an integer held in the low mantissa bits.
const ROUND_MAGIC: f64 = 6_755_399_441_055_744.0;
/// Largest prediction magnitude the magic-number floor handles.
const MAGIC_LIMIT: f64 = 2_251_799_813_685_248.0; // 2^51

/// [`linear_reconstruct_fill`] for a span of a partition that passes
/// [`linear_fits_i64`], bit-identical to it.
///
/// When every prediction of the span stays within `|y| < 2^51` (checked at
/// the two endpoints — the evaluated line is monotone in `k`, as in
/// [`linear_fits_i64`]) the floor is taken without any `f64 → i64` cast, in
/// operations the baseline SSE2 target has in vector form:
///
/// * `x = bits⁻¹(bits(2^52) + k) − 2^52` is `k as f64` exactly (`k < 2^52`);
/// * `s = y + 1.5·2^52` rounds `y` to the nearest integer `r = s − 1.5·2^52`,
///   held in the low mantissa bits of `s`;
/// * `floor(y) = (bits(s) − bits(1.5·2^52)) − (r > y)`.
///
/// `y = θ0 + θ1·x` is the very expression `Model::predict` evaluates, so the
/// floor equals `floor_to_i64(y)`.  Spans outside the magic range take the
/// scalar loop.
#[doc(hidden)]
#[inline]
pub fn reconstruct_linear_span(
    theta0: f64,
    theta1: f64,
    local0: usize,
    base: u64,
    out: &mut [u64],
) {
    let Some(last) = (local0 + out.len()).checked_sub(1) else {
        return;
    };
    let first_y = theta0 + theta1 * local0 as f64;
    let last_y = theta0 + theta1 * last as f64;
    if !(first_y.abs() < MAGIC_LIMIT && last_y.abs() < MAGIC_LIMIT && (last as f64) < TWO_52) {
        linear_reconstruct_fill(theta0, theta1, local0, base, out);
        return;
    }
    let (two52, magic) = (TWO_52.to_bits(), ROUND_MAGIC.to_bits());
    for (k, slot) in out.iter_mut().enumerate() {
        let x = f64::from_bits(two52 + (local0 + k) as u64) - TWO_52;
        let y = theta0 + theta1 * x;
        let s = y + ROUND_MAGIC;
        let r = s - ROUND_MAGIC;
        let floor = s.to_bits().wrapping_sub(magic).wrapping_sub((r > y) as u64);
        *slot = floor.wrapping_add(base).wrapping_add(*slot);
    }
}

/// Test support: the scalar `floor_to_i64` loop [`reconstruct_linear_span`]
/// is held to (same contract: [`linear_fits_i64`] over the span).
#[doc(hidden)]
pub fn reconstruct_linear_span_reference(
    theta0: f64,
    theta1: f64,
    local0: usize,
    base: u64,
    out: &mut [u64],
) {
    linear_reconstruct_fill(theta0, theta1, local0, base, out);
}

impl Model {
    /// Evaluate the model at local position `i`.
    #[inline]
    pub fn predict(&self, i: usize) -> f64 {
        let x = i as f64;
        match self {
            Model::Constant { value } => *value,
            Model::Linear { theta0, theta1 } => theta0 + theta1 * x,
            Model::Poly { coeffs } => {
                // Horner evaluation.
                let mut acc = 0.0;
                for &c in coeffs.iter().rev() {
                    acc = acc * x + c;
                }
                acc
            }
            Model::Exponential { ln_a, b } => (ln_a + b * x).exp(),
            Model::Logarithm { theta0, theta1 } => theta0 + theta1 * (x + 1.0).ln(),
            Model::Sine {
                theta0,
                theta1,
                terms,
            } => {
                let mut acc = theta0 + theta1 * x;
                for t in terms {
                    acc += t.a_sin * (t.omega * x).sin() + t.a_cos * (t.omega * x).cos();
                }
                acc
            }
        }
    }

    /// Integer prediction used by the storage format: `floor(predict(i))`
    /// clamped into the `i128` range that deltas are computed in.
    #[inline]
    pub fn predict_floor(&self, i: usize) -> i128 {
        let p = self.predict(i).floor();
        if p.is_nan() {
            0
        } else if p >= i128::MAX as f64 {
            i128::MAX
        } else if p <= i128::MIN as f64 {
            i128::MIN
        } else {
            p as i128
        }
    }

    /// Reconstruct a full partition in place: `out` arrives holding the raw
    /// bit-unpacked deltas and leaves holding `floor(predict(i)) + bias +
    /// delta_i` for each local position `i`.
    ///
    /// This is the model half of the fused word-parallel partition decode:
    /// the caller bulk-unpacks the packed payload straight into the output
    /// buffer and this method folds the prediction in with one pass, hoisting
    /// the model-variant dispatch out of the per-element loop.  Linear models
    /// normally evaluate `floor(θ0 + θ1·i)` directly in i64/u64-wrapping
    /// arithmetic (element-independent, so the loop pipelines); partitions
    /// whose predictions approach the i64 range instead fall back to the
    /// θ₁-accumulation path of §3.3 in full i128, with `corrections` listing
    /// the positions where accumulation drifts from the exact floor.
    pub fn reconstruct_into(&self, bias: i128, corrections: &[u32], out: &mut [u64]) {
        if let Model::Linear { theta0, theta1 } = self {
            // The true value `floor(pred) + bias + delta` is exact in i128
            // and always fits u64, so wrapping u64 arithmetic reproduces it
            // exactly — provided `floor(acc) mod 2^64` itself is computed
            // correctly.  An `f64 → i64` cast does that with one hardware
            // instruction as long as the prediction never saturates; the
            // endpoint check proves that for the whole partition (the
            // accumulated sequence is monotone in `local`).  Only columns
            // whose models predict magnitudes near 2^63 take the i128 path.
            if linear_fits_i64(*theta0, *theta1, out.len()) {
                // Evaluate `floor(θ0 + θ1·local)` directly — bit-identical
                // to what the encoder subtracted, so the correction list
                // (which only patches the *accumulation* shortcut) is not
                // consulted at all.  Unlike `acc += θ1`, every element is
                // independent, so the loop pipelines/vectorises.
                linear_reconstruct_fill(*theta0, *theta1, 0, bias as u64, out);
            } else {
                let mut acc = *theta0;
                let mut corr = corrections.iter().peekable();
                for (local, slot) in out.iter_mut().enumerate() {
                    let pred = if corr.peek() == Some(&&(local as u32)) {
                        corr.next();
                        self.predict_floor(local)
                    } else {
                        // `as` saturates and maps NaN to 0, matching the
                        // clamp in `predict_floor` so the correction list
                        // stays exact.
                        acc.floor() as i128
                    };
                    acc += theta1;
                    *slot = (pred + bias + *slot as i128) as u64;
                }
            }
        } else {
            debug_assert!(
                corrections.is_empty(),
                "corrections are only produced for linear models"
            );
            self.reconstruct_span_into(bias, 0, out);
        }
    }

    /// Reconstruct an arbitrary span in place: like [`Self::reconstruct_into`]
    /// but starting at local position `local0` and always evaluating the
    /// model exactly (accumulation drift is only tracked from position 0, so
    /// partial spans cannot use the correction list).
    pub fn reconstruct_span_into(&self, bias: i128, local0: usize, out: &mut [u64]) {
        match self {
            Model::Constant { .. } => {
                // Exact in wrapping u64 arithmetic: see `reconstruct_into`.
                let base = (self.predict_floor(0) + bias) as u64;
                for slot in out.iter_mut() {
                    *slot = base.wrapping_add(*slot);
                }
            }
            Model::Linear { theta0, theta1 } => {
                let t0 = theta0 + theta1 * local0 as f64;
                if linear_fits_i64(t0, *theta1, out.len()) {
                    linear_reconstruct_fill(*theta0, *theta1, local0, bias as u64, out);
                } else {
                    for (k, slot) in out.iter_mut().enumerate() {
                        *slot = (self.predict_floor(local0 + k) + bias + *slot as i128) as u64;
                    }
                }
            }
            _ => {
                for (k, slot) in out.iter_mut().enumerate() {
                    *slot = (self.predict_floor(local0 + k) + bias + *slot as i128) as u64;
                }
            }
        }
    }

    /// The direction in which [`Self::predict_floor`] is provably monotone
    /// over local positions, or `None` when monotonicity cannot be
    /// guaranteed for the family.
    ///
    /// Only `Constant` and `Linear` qualify.  For those, every step of the
    /// evaluation pipeline is monotone in `i`: `i as f64` is monotone,
    /// multiplying by a fixed sign-stable `θ₁` and rounding to nearest is
    /// monotone (rounding of a monotone exact sequence is monotone), adding
    /// `θ₀` and rounding is monotone, and `floor` plus the `i128` clamp are
    /// monotone.  The transcendental families (`Exponential`, `Logarithm`)
    /// are mathematically monotone but evaluated through libm, whose
    /// implementations do not guarantee monotone rounding — so they are
    /// conservatively excluded rather than risking a wrong binary search.
    pub fn monotone(&self) -> Option<Monotone> {
        match self {
            Model::Constant { value } if value.is_finite() => Some(Monotone::NonDecreasing),
            Model::Linear { theta0, theta1 } if theta0.is_finite() && theta1.is_finite() => {
                if *theta1 >= 0.0 {
                    Some(Monotone::NonDecreasing)
                } else {
                    Some(Monotone::NonIncreasing)
                }
            }
            _ => None,
        }
    }

    /// Invert an inclusive value predicate `lo <= v <= hi` into row
    /// intervals, for a partition of `len` rows stored with this model,
    /// `bias` and packed-delta `width` — the model-inverse half of predicate
    /// pushdown (§5 of the paper: keeping the model explicit lets operators
    /// *solve* it instead of decoding through it).
    ///
    /// Every stored value is exactly `v = predict_floor(i) + bias + packed_i`
    /// in `i128`, with `packed_i ∈ [0, 2^width - 1]`.  The prediction
    /// therefore pins each row's value to a *slack band* of width
    /// `2^width - 1`, and for a monotone model the set of rows whose band
    /// intersects (resp. is contained in) `[lo, hi]` is a contiguous
    /// interval recoverable by binary search on `predict_floor` — O(log len)
    /// model evaluations, no decoding:
    ///
    /// * `candidate`: rows with `predict_floor(i) ∈ [lo-bias-slack, hi-bias]`
    ///   (the band intersects the predicate — the row *may* match);
    /// * `definite`: rows with `predict_floor(i) ∈ [lo-bias, hi-bias-slack]`
    ///   (the band is contained in the predicate — the row *must* match).
    ///
    /// Returns `None` when [`Self::monotone`] is `None`; callers then fall
    /// back to decode-then-filter for the partition.  `lo > hi` yields empty
    /// ranges.  The result is exact for any column produced by the encoder
    /// (which computes `bias`/`width` from the same `predict_floor`).
    pub fn invert_range(
        &self,
        len: usize,
        bias: i128,
        width: u8,
        lo: u64,
        hi: u64,
    ) -> Option<SlackBands> {
        let dir = self.monotone()?;
        Some(invert_monotone(dir, len, bias, width, lo, hi, |i| {
            self.predict_floor(i)
        }))
    }

    /// True when the decoder's θ₁-accumulation fallback path is taken for a
    /// full-partition decode of `len` values under this model — the only
    /// situation in which the correction list is ever consulted.
    ///
    /// Format v2 makes this predicate part of the on-disk contract: the
    /// correction block is present if and only if this returns `true`
    /// (see `docs/FORMAT.md`).  Encoder and decoder agree bit-identically
    /// because both evaluate the same `f64` expressions on the same
    /// serialized parameters.
    pub fn needs_corrections(&self, len: usize) -> bool {
        match self {
            Model::Linear { theta0, theta1 } => !linear_fits_i64(*theta0, *theta1, len),
            _ => false,
        }
    }

    /// Walk the local positions where accumulating θ₁ (`acc += θ₁` per row)
    /// floors differently than evaluating the model exactly — the §3.3
    /// range-decoding correction list.  No-op unless
    /// [`Self::needs_corrections`] holds, since only the accumulation
    /// fallback decoder ever reads the list.
    fn for_each_drift(&self, len: usize, mut visit: impl FnMut(u32)) {
        if !self.needs_corrections(len) {
            return;
        }
        let (theta0, theta1) = match self {
            Model::Linear { theta0, theta1 } => (*theta0, *theta1),
            _ => unreachable!("needs_corrections is only true for linear models"),
        };
        let mut acc = theta0;
        for local in 0..len {
            if local > 0 {
                acc += theta1;
            }
            let exact = self.predict_floor(local);
            let accumulated = acc.floor();
            // Clamp with the same semantics as the decoder's `as i128` cast
            // (saturating, NaN → 0) so the list is exact.
            let accumulated = if accumulated.is_nan() {
                0
            } else if accumulated >= i128::MAX as f64 {
                i128::MAX
            } else if accumulated <= i128::MIN as f64 {
                i128::MIN
            } else {
                accumulated as i128
            };
            if accumulated != exact {
                visit(local as u32);
            }
        }
    }

    /// The correction list for a partition of `len` values: strictly
    /// increasing local positions where the θ₁-accumulation decode drifts
    /// from the exact floor.  Empty unless [`Self::needs_corrections`].
    pub fn drift_corrections(&self, len: usize) -> Vec<u32> {
        let mut corrections = Vec::new();
        self.for_each_drift(len, |local| corrections.push(local));
        corrections
    }

    /// Exact serialized size in bytes of the correction block for a
    /// partition of `len` values: the count varint plus one varint per
    /// delta-encoded position — or 0 when the block is absent (format v2).
    ///
    /// This is the term the legacy cost model ignored; charging it is what
    /// lets the variable-length partitioner price long partitions honestly.
    pub fn correction_cost_bytes(&self, len: usize) -> usize {
        if !self.needs_corrections(len) {
            return 0;
        }
        let mut count: usize = 0;
        let mut bytes: usize = 0;
        let mut prev = 0u32;
        self.for_each_drift(len, |local| {
            count += 1;
            bytes += crate::format::varint_len((local - prev) as u128);
            prev = local;
        });
        bytes + crate::format::varint_len(count as u128)
    }

    /// Serialized size of the model parameters in bytes (1 tag byte plus the
    /// parameters).  This is the `‖F_j‖` term of the paper's objective.
    pub fn size_bytes(&self) -> usize {
        1 + match self {
            Model::Constant { .. } => 8,
            Model::Linear { .. } => 16,
            Model::Poly { coeffs } => 1 + coeffs.len() * 8,
            Model::Exponential { .. } => 16,
            Model::Logarithm { .. } => 16,
            Model::Sine { terms, .. } => 16 + 1 + terms.len() * 24,
        }
    }

    /// Size in bits (convenience for the partitioning cost model).
    pub fn size_bits(&self) -> usize {
        self.size_bytes() * 8
    }

    /// The family this model belongs to.
    pub fn kind(&self) -> RegressorKind {
        match self {
            Model::Constant { .. } => RegressorKind::Constant,
            Model::Linear { .. } => RegressorKind::Linear,
            Model::Poly { coeffs } if coeffs.len() <= 3 => RegressorKind::Poly2,
            Model::Poly { .. } => RegressorKind::Poly3,
            Model::Exponential { .. } => RegressorKind::Exponential,
            Model::Logarithm { .. } => RegressorKind::Logarithm,
            Model::Sine { terms, .. } => RegressorKind::Sine {
                terms: terms.len() as u8,
                estimate_freq: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_prediction() {
        let m = Model::Linear {
            theta0: 10.0,
            theta1: 2.5,
        };
        assert_eq!(m.predict(0), 10.0);
        assert_eq!(m.predict(4), 20.0);
        assert_eq!(m.predict_floor(3), 17); // 17.5 -> 17
    }

    #[test]
    fn poly_horner_matches_direct() {
        let m = Model::Poly {
            coeffs: vec![1.0, 2.0, 3.0],
        }; // 1 + 2x + 3x²
        for i in 0..20 {
            let x = i as f64;
            assert!((m.predict(i) - (1.0 + 2.0 * x + 3.0 * x * x)).abs() < 1e-9);
        }
    }

    #[test]
    fn predict_floor_clamps_extremes() {
        let m = Model::Exponential { ln_a: 1e6, b: 1.0 };
        assert_eq!(m.predict_floor(10), i128::MAX);
        let m = Model::Linear {
            theta0: f64::NAN,
            theta1: 0.0,
        };
        assert_eq!(m.predict_floor(0), 0);
    }

    #[test]
    fn model_sizes() {
        assert_eq!(Model::Constant { value: 0.0 }.size_bytes(), 9);
        assert_eq!(
            Model::Linear {
                theta0: 0.0,
                theta1: 0.0
            }
            .size_bytes(),
            17
        );
        assert_eq!(
            Model::Poly {
                coeffs: vec![0.0; 4]
            }
            .size_bytes(),
            1 + 1 + 32
        );
        let sine = Model::Sine {
            theta0: 0.0,
            theta1: 0.0,
            terms: vec![SineTerm {
                omega: 1.0,
                a_sin: 0.0,
                a_cos: 0.0,
            }],
        };
        assert_eq!(sine.size_bytes(), 1 + 16 + 1 + 24);
    }

    #[test]
    fn kind_round_trips() {
        assert_eq!(
            Model::Constant { value: 1.0 }.kind(),
            RegressorKind::Constant
        );
        assert_eq!(
            Model::Poly {
                coeffs: vec![0.0; 4]
            }
            .kind(),
            RegressorKind::Poly3
        );
    }

    /// Reference implementation of the band predicate for `invert_range`
    /// tests: classify every row by brute force from the model alone.
    fn brute_bands(m: &Model, len: usize, bias: i128, width: u8, lo: u64, hi: u64) -> SlackBands {
        let slack: i128 = if width >= 64 {
            u64::MAX as i128
        } else {
            ((1u64 << width) - 1) as i128
        };
        let (mut c_lo, mut c_hi, mut d_lo, mut d_hi) = (len, 0usize, len, 0usize);
        for i in 0..len {
            let band_lo = m.predict_floor(i) + bias;
            let band_hi = band_lo + slack;
            if band_hi >= lo as i128 && band_lo <= hi as i128 {
                c_lo = c_lo.min(i);
                c_hi = c_hi.max(i + 1);
            }
            if band_lo >= lo as i128 && band_hi <= hi as i128 {
                d_lo = d_lo.min(i);
                d_hi = d_hi.max(i + 1);
            }
        }
        let candidate = if c_lo < c_hi { c_lo..c_hi } else { 0..0 };
        let definite = if d_lo < d_hi { d_lo..d_hi } else { 0..0 };
        SlackBands {
            candidate,
            definite,
        }
    }

    #[test]
    fn invert_range_matches_brute_force() {
        let models = [
            Model::Constant { value: 1_000.0 },
            Model::Linear {
                theta0: 50.0,
                theta1: 3.25,
            },
            Model::Linear {
                theta0: 10_000.0,
                theta1: -7.5,
            },
            Model::Linear {
                theta0: 123.0,
                theta1: 0.0,
            },
        ];
        for m in &models {
            for len in [0usize, 1, 2, 63, 100] {
                for width in [0u8, 1, 4, 13] {
                    for bias in [-37i128, 0, 12] {
                        for (lo, hi) in [
                            (0u64, u64::MAX),
                            (0, 0),
                            (900, 1_100),
                            (1_000, 1_000),
                            (40, 60),
                            (9_000, 10_001),
                        ] {
                            let got = m.invert_range(len, bias, width, lo, hi).unwrap();
                            let want = brute_bands(m, len, bias, width, lo, hi);
                            // The brute-force candidate is exact; the search
                            // result must agree exactly on both intervals
                            // (modulo empty-range representation).
                            let got_cand = if got.candidate.is_empty() {
                                0..0
                            } else {
                                got.candidate.clone()
                            };
                            assert_eq!(
                                got_cand, want.candidate,
                                "candidate {m:?} len={len} w={width} bias={bias} [{lo},{hi}]"
                            );
                            let got_def = if got.definite.is_empty() {
                                0..0
                            } else {
                                got.definite.clone()
                            };
                            assert_eq!(
                                got_def, want.definite,
                                "definite {m:?} len={len} w={width} bias={bias} [{lo},{hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn invert_range_only_for_monotone_families() {
        assert!(Model::Constant { value: 5.0 }.monotone().is_some());
        assert_eq!(
            Model::Linear {
                theta0: 0.0,
                theta1: -1.0
            }
            .monotone(),
            Some(Monotone::NonIncreasing)
        );
        for m in [
            Model::Poly {
                coeffs: vec![1.0, 2.0, 3.0],
            },
            Model::Exponential { ln_a: 0.1, b: 0.2 },
            Model::Logarithm {
                theta0: 1.0,
                theta1: 2.0,
            },
            Model::Sine {
                theta0: 0.0,
                theta1: 1.0,
                terms: vec![],
            },
            Model::Linear {
                theta0: f64::NAN,
                theta1: 1.0,
            },
        ] {
            assert!(m.monotone().is_none(), "{m:?}");
            assert!(m.invert_range(10, 0, 4, 0, 100).is_none(), "{m:?}");
        }
    }

    #[test]
    fn invert_range_zero_width_has_no_boundary() {
        // Perfectly predicted partition: candidate == definite, so pushdown
        // decodes nothing at all.
        let m = Model::Linear {
            theta0: 0.0,
            theta1: 2.0,
        };
        let bands = m.invert_range(100, 0, 0, 10, 21).unwrap();
        assert_eq!(bands.candidate, bands.definite);
        assert_eq!(bands.candidate, 5..11); // values 10,12,...,20
    }

    #[test]
    fn sine_model_periodicity() {
        let m = Model::Sine {
            theta0: 0.0,
            theta1: 0.0,
            terms: vec![SineTerm {
                omega: std::f64::consts::PI,
                a_sin: 1.0,
                a_cos: 0.0,
            }],
        };
        assert!((m.predict(0) - 0.0).abs() < 1e-9);
        assert!((m.predict(1) - 0.0).abs() < 1e-9); // sin(pi) ≈ 0
    }
}
