//! Constant and linear regressors with minimax (ℓ∞) objectives.
//!
//! The paper formulates the fit as a linear program minimising the bit width
//! `φ` of the largest absolute error (§3.1).  For the constant and linear
//! families we solve the ℓ∞ problem directly:
//!
//! * constant: the optimum is the midpoint of `[min, max]`;
//! * linear: the width `w(b) = max_i(y_i − b·i) − min_i(y_i − b·i)` is a
//!   convex piecewise-linear function of the slope `b` whose breakpoints are
//!   exactly the edge slopes of the upper and lower convex hulls of the
//!   points `(i, y_i)`.  [`fit_linear`] builds both hulls with one monotone
//!   chain pass (the x coordinates are already sorted) and sweeps the merged
//!   breakpoint sequence with a rotating-calipers walk, evaluating `w` at
//!   every breakpoint — `O(n)` total and *exact*, unlike the previous
//!   ternary search ([`fit_linear_ternary`], kept as a reference
//!   implementation) which needed ~130 full passes over the data to
//!   approximate the same optimum.

use crate::model::Model;

/// Fit a constant (horizontal line) model: the ℓ∞-optimal constant is the
/// midpoint of the value range.
pub fn fit_constant(ys: &[f64]) -> Model {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &y in ys {
        lo = lo.min(y);
        hi = hi.max(y);
    }
    Model::Constant {
        value: (lo + hi) / 2.0,
    }
}

/// Residual extremes of `(y − y0) − b·x` for a candidate slope, `x` being
/// the index into `ys`.  (`y0` re-bases offsets taken from another origin;
/// `y − 0.0` is `y`.)
///
/// Four independent lanes with an `f64` position counter (exact below 2^53,
/// so bit-identical to `i as f64`) and min/max by comparison, which lets the
/// loop vectorise.  A comparison skips a NaN residual exactly as `f64::min`
/// does, and the order of the comparisons cannot matter otherwise: a
/// residual is never `−0.0`, because the encoder's offsets never are and
/// `x − x` rounds to `+0.0`.
#[inline]
pub(crate) fn residual_range(ys: &[f64], y0: f64, b: f64) -> (f64, f64) {
    const LANES: usize = 4;
    let mut rmin = [f64::INFINITY; LANES];
    let mut rmax = [f64::NEG_INFINITY; LANES];
    let mut x = [0.0, 1.0, 2.0, 3.0];
    let mut track = |k: usize, y: f64| {
        let r = (y - y0) - b * x[k];
        if r < rmin[k] {
            rmin[k] = r;
        }
        if r > rmax[k] {
            rmax[k] = r;
        }
        x[k] += LANES as f64;
    };
    let mut chunks = ys.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (k, &y) in chunk.iter().enumerate() {
            track(k, y);
        }
    }
    for (k, &y) in chunks.remainder().iter().enumerate() {
        track(k, y);
    }
    let (mut lo, mut hi) = (rmin[0], rmax[0]);
    for k in 1..LANES {
        if rmin[k] < lo {
            lo = rmin[k];
        }
        if rmax[k] > hi {
            hi = rmax[k];
        }
    }
    (lo, hi)
}

/// A hull vertex `(x, y)` in the coordinates of the span being fitted:
/// `x` the local position, `y` the offset from the span's first value.
pub(crate) type Point = (f64, f64);

/// Twice the signed area of the triangle `o → a → p`: positive when `p` lies
/// to the left of the ray `o → a`.
#[inline]
fn cross(o: Point, a: Point, p: Point) -> f64 {
    (a.0 - o.0) * (p.1 - o.1) - (a.1 - o.1) * (p.0 - o.0)
}

/// One monotone-chain step that keeps `stack` turning clockwise as seen in
/// push order: the upper hull when `x` ascends, the lower hull when it
/// descends.  Collinear vertices are popped, so the stack is the *strict*
/// hull of everything pushed so far — after `k` pushes it is exactly the
/// stack a fresh chain over those `k` points alone would hold.
#[inline]
pub(crate) fn push_clockwise(stack: &mut Vec<Point>, p: Point) {
    while let [.., o, a] = stack[..] {
        if cross(o, a, p) >= 0.0 {
            stack.pop();
        } else {
            break;
        }
    }
    stack.push(p);
}

/// [`push_clockwise`] mirrored: the lower hull when `x` ascends, the upper
/// hull when it descends.
#[inline]
pub(crate) fn push_counter_clockwise(stack: &mut Vec<Point>, p: Point) {
    while let [.., o, a] = stack[..] {
        if cross(o, a, p) <= 0.0 {
            stack.pop();
        } else {
            break;
        }
    }
    stack.push(p);
}

/// The rotating-calipers half of the minimax fit: given the upper and lower
/// hulls of a span's points (both left to right, in the span's own
/// coordinates), return the slope minimising the width
/// `w(b) = max_i(y_i − b·i) − min_i(y_i − b·i)`.
pub(crate) fn calipers(upper: &[Point], lower: &[Point]) -> f64 {
    let slope = |p: Point, q: Point| (q.1 - p.1) / (q.0 - p.0);

    // As b grows, the maximising upper vertex walks right → left (its edge
    // slopes, read right to left, increase) and the minimising lower vertex
    // walks left → right (its edge slopes increase left to right).  w(b) is
    // convex piecewise linear with breakpoints only at those edge slopes, so
    // sweeping the two ascending sequences in merged order and evaluating w
    // at each breakpoint visits the exact optimum.
    let mut iu = upper.len() - 1; // argmax vertex for b = −∞ (rightmost)
    let mut il = 0usize; // argmin vertex for b = −∞ (leftmost)
    let mut next_u = upper.len() - 1; // next upper edge: (upper[next_u−1], upper[next_u])
    let mut next_l = 0usize; // next lower edge: (lower[next_l], lower[next_l+1])
    let mut best_b = slope(upper[0], upper[upper.len() - 1]);
    let mut best_w = f64::INFINITY;
    loop {
        let u_slope = (next_u > 0).then(|| slope(upper[next_u - 1], upper[next_u]));
        let l_slope = (next_l + 1 < lower.len()).then(|| slope(lower[next_l], lower[next_l + 1]));
        let b = match (u_slope, l_slope) {
            (None, None) => break,
            (Some(u), Some(l)) if u <= l => {
                next_u -= 1;
                iu = next_u;
                u
            }
            (Some(_), Some(l)) => {
                next_l += 1;
                il = next_l;
                l
            }
            (Some(u), None) => {
                next_u -= 1;
                iu = next_u;
                u
            }
            (None, Some(l)) => {
                next_l += 1;
                il = next_l;
                l
            }
        };
        // At a breakpoint both adjacent vertices evaluate equally, so using
        // the freshly advanced vertex pair is exact.
        let (xu, yu) = upper[iu];
        let (xl, yl) = lower[il];
        let w = (yu - b * xu) - (yl - b * xl);
        if w < best_w {
            best_w = w;
            best_b = b;
        }
    }
    best_b
}

/// The line of slope `b` centred on the true residual range of the offsets
/// `ys − y0` (one exact pass, robust to any float wiggle in the hull walk).
pub(crate) fn centred_line(ys: &[f64], y0: f64, b: f64) -> Model {
    let (rmin, rmax) = residual_range(ys, y0, b);
    Model::Linear {
        theta0: (rmin + rmax) / 2.0,
        theta1: b,
    }
}

/// Fit a linear model minimising the maximum absolute error, exactly, in
/// `O(n)`: convex hulls + rotating calipers over the slope breakpoints.
pub fn fit_linear(ys: &[f64]) -> Model {
    let n = ys.len();
    if n <= 1 {
        return Model::Linear {
            theta0: ys.first().copied().unwrap_or(0.0),
            theta1: 0.0,
        };
    }
    if n == 2 {
        return Model::Linear {
            theta0: ys[0],
            theta1: ys[1] - ys[0],
        };
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return fit_least_squares(ys);
    }

    // Monotone-chain hulls over (i, y_i); x is already sorted.  The argmax of
    // `y − b·x` over all points is always attained at an upper-hull vertex,
    // the argmin at a lower-hull vertex.
    let mut upper: Vec<Point> = Vec::new();
    let mut lower: Vec<Point> = Vec::new();
    for (i, &y) in ys.iter().enumerate() {
        push_clockwise(&mut upper, (i as f64, y));
        push_counter_clockwise(&mut lower, (i as f64, y));
    }
    centred_line(ys, 0.0, calipers(&upper, &lower))
}

/// The previous ternary-search minimax fit, kept as a reference
/// implementation for differential tests and the fit-strategy ablation in
/// `benches/partitioners.rs`.  Converges to the same optimum as
/// [`fit_linear`] up to its `1e-12` slope tolerance but needs ~130 passes
/// over the data.
pub fn fit_linear_ternary(ys: &[f64]) -> Model {
    let n = ys.len();
    if n <= 1 {
        return Model::Linear {
            theta0: ys.first().copied().unwrap_or(0.0),
            theta1: 0.0,
        };
    }
    if n == 2 {
        return Model::Linear {
            theta0: ys[0],
            theta1: ys[1] - ys[0],
        };
    }
    // The ℓ∞-optimal slope lies within the range of consecutive differences.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for w in ys.windows(2) {
        let d = w[1] - w[0];
        lo = lo.min(d);
        hi = hi.max(d);
    }
    if !(lo.is_finite() && hi.is_finite()) {
        return fit_least_squares(ys);
    }
    if hi - lo < f64::EPSILON * (1.0 + hi.abs()) {
        // Perfectly linear.
        let (rmin, rmax) = residual_range(ys, 0.0, lo);
        return Model::Linear {
            theta0: (rmin + rmax) / 2.0,
            theta1: lo,
        };
    }
    // Ternary search on the convex width function.
    let width = |b: f64| {
        let (rmin, rmax) = residual_range(ys, 0.0, b);
        rmax - rmin
    };
    for _ in 0..64 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if width(m1) <= width(m2) {
            hi = m2;
        } else {
            lo = m1;
        }
        if hi - lo <= 1e-12 * (1.0 + hi.abs()) {
            break;
        }
    }
    let b = (lo + hi) / 2.0;
    let (rmin, rmax) = residual_range(ys, 0.0, b);
    Model::Linear {
        theta0: (rmin + rmax) / 2.0,
        theta1: b,
    }
}

/// Ordinary least-squares linear fit, kept for the ablation benchmark that
/// compares the ℓ2 and ℓ∞ objectives and as a numeric fallback.
pub fn fit_least_squares(ys: &[f64]) -> Model {
    let n = ys.len() as f64;
    if ys.len() <= 1 {
        return Model::Linear {
            theta0: ys.first().copied().unwrap_or(0.0),
            theta1: 0.0,
        };
    }
    let sum_x = (n - 1.0) * n / 2.0;
    let sum_x2 = (n - 1.0) * n * (2.0 * n - 1.0) / 6.0;
    let sum_y: f64 = ys.iter().sum();
    let sum_xy: f64 = ys.iter().enumerate().map(|(i, &y)| i as f64 * y).sum();
    let denom = n * sum_x2 - sum_x * sum_x;
    if denom.abs() < f64::EPSILON {
        return Model::Linear {
            theta0: sum_y / n,
            theta1: 0.0,
        };
    }
    let theta1 = (n * sum_xy - sum_x * sum_y) / denom;
    let theta0 = (sum_y - theta1 * sum_x) / n;
    // Centre the residuals so the maximum absolute error is balanced.
    let (rmin, rmax) = residual_range(ys, 0.0, theta1);
    let _ = theta0;
    Model::Linear {
        theta0: (rmin + rmax) / 2.0,
        theta1,
    }
}

/// Maximum absolute error of a model over `ys` (used by tests and the
/// partitioners).
pub fn max_abs_error(model: &Model, ys: &[f64]) -> f64 {
    ys.iter()
        .enumerate()
        .map(|(i, &y)| (y - model.predict(i)).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn constant_is_midpoint() {
        let m = fit_constant(&[1.0, 9.0, 5.0]);
        assert_eq!(m, Model::Constant { value: 5.0 });
        assert_eq!(max_abs_error(&m, &[1.0, 9.0, 5.0]), 4.0);
    }

    #[test]
    fn exact_line_zero_error() {
        let ys: Vec<f64> = (0..100).map(|i| 3.0 + 2.5 * i as f64).collect();
        let m = fit_linear(&ys);
        assert!(max_abs_error(&m, &ys) < 1e-6);
    }

    #[test]
    fn v_shape_optimal_error() {
        // y = |x - 5| on 0..=10: best linear fit is a horizontal-ish line; the
        // optimal ℓ∞ error for the minimax line is 2.5.
        let ys: Vec<f64> = (0..=10).map(|i| (i as f64 - 5.0).abs()).collect();
        let m = fit_linear(&ys);
        let err = max_abs_error(&m, &ys);
        assert!(err <= 2.5 + 1e-6, "err {err}");
    }

    #[test]
    fn minimax_beats_or_matches_least_squares_on_outliers() {
        let mut ys: Vec<f64> = (0..200).map(|i| i as f64).collect();
        ys[100] = 500.0; // single outlier
        let mm = max_abs_error(&fit_linear(&ys), &ys);
        let ls = max_abs_error(&fit_least_squares(&ys), &ys);
        assert!(mm <= ls + 1e-9, "minimax {mm} vs least-squares {ls}");
    }

    #[test]
    fn tiny_inputs() {
        assert_eq!(
            fit_linear(&[]),
            Model::Linear {
                theta0: 0.0,
                theta1: 0.0
            }
        );
        assert_eq!(
            fit_linear(&[7.0]),
            Model::Linear {
                theta0: 7.0,
                theta1: 0.0
            }
        );
        let m = fit_linear(&[7.0, 9.0]);
        assert!(max_abs_error(&m, &[7.0, 9.0]) < 1e-9);
    }

    #[test]
    fn two_segment_line_error_is_half_gap() {
        // First half slope 0, second half slope 0 but offset by 10: the best
        // single line has max error 5 at most.
        let mut ys = vec![0.0; 50];
        ys.extend(vec![10.0; 50]);
        let m = fit_linear(&ys);
        assert!(max_abs_error(&m, &ys) <= 5.0 + 1e-6);
    }

    #[test]
    fn hull_fit_beats_or_matches_ternary_on_hard_shapes() {
        let cases: Vec<Vec<f64>> = vec![
            (0..500).map(|i| (i as f64).sqrt() * 100.0).collect(),
            (0..500)
                .map(|i| i as f64 * 3.0 + ((i * 2654435761u64 as usize) % 97) as f64)
                .collect(),
            (0..500)
                .map(|i| if i < 250 { i as f64 } else { 500.0 - i as f64 })
                .collect(),
            vec![5.0; 300],
        ];
        for ys in cases {
            let hull = max_abs_error(&fit_linear(&ys), &ys);
            let ternary = max_abs_error(&fit_linear_ternary(&ys), &ys);
            assert!(
                hull <= ternary * 1.0001 + 1e-9,
                "hull {hull} vs ternary {ternary}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_hull_fit_is_exactly_minimax(
            ys in proptest::collection::vec(-1.0e6f64..1.0e6, 3..150)
        ) {
            // The hull fit is exact; the ternary reference converges to the
            // same optimum within its slope tolerance, so the hull result
            // must never be measurably worse — and usually matches or beats.
            let hull = max_abs_error(&fit_linear(&ys), &ys);
            let ternary = max_abs_error(&fit_linear_ternary(&ys), &ys);
            prop_assert!(hull <= ternary * 1.0001 + 1e-6, "hull {} vs ternary {}", hull, ternary);
        }

        #[test]
        fn prop_minimax_not_worse_than_least_squares(
            ys in proptest::collection::vec(-1.0e6f64..1.0e6, 3..120)
        ) {
            let mm = max_abs_error(&fit_linear(&ys), &ys);
            let ls = max_abs_error(&fit_least_squares(&ys), &ys);
            // Allow a tiny tolerance for ternary-search convergence.
            prop_assert!(mm <= ls * 1.001 + 1e-6, "minimax {} vs ls {}", mm, ls);
        }

        #[test]
        fn prop_minimax_not_worse_than_endpoint_line(
            ys in proptest::collection::vec(-1.0e6f64..1.0e6, 3..120)
        ) {
            let n = ys.len();
            let slope = (ys[n - 1] - ys[0]) / (n - 1) as f64;
            let endpoint = Model::Linear { theta0: ys[0], theta1: slope };
            let mm = max_abs_error(&fit_linear(&ys), &ys);
            prop_assert!(mm <= max_abs_error(&endpoint, &ys) * 1.001 + 1e-6);
        }
    }
}
