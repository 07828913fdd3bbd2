//! The partitioners' cost oracle: exact, correction-aware partition costs
//! with memoised fits.
//!
//! Two layers, both keyed on half-open index ranges `[lo, hi)` of one shared
//! column:
//!
//! * [`FitCache`] — prefix sums (Σy, Σxy exact in `i128`, Σy² in `f64`, all
//!   relative to the column's first value; Σx and Σx² have closed forms) so
//!   a least-squares linear fit and its RMS residual over any span is O(1).
//!   The partitioner uses these as *estimates* to rank candidate boundaries
//!   before spending an exact evaluation, never as the final price.
//! * [`CostModel`] — the exact oracle: fits the configured regressor with
//!   [`fit_checked`] (the same call the encoder makes),
//!   evaluates the delta statistics, and charges the full serialized
//!   per-partition record via
//!   [`partition_cost_bits_exact`] —
//!   including the θ₁-accumulation correction list.  Results are memoised
//!   per span, so the split–merge phases and the DP partitioner never fit
//!   the same range twice.  [`CostModel::price_cuts`] prices a whole batch
//!   of candidate cuts of one span from two hull sweeps shared by all of
//!   them, to the same bits.

use std::collections::HashMap;

use super::linear::{self, Point};
use super::{fit_checked, partition_cost_bits_exact, residuals, FitContext};
use crate::model::RegressorKind;

/// Spread ≈ `RMS_SPREAD_FACTOR · rms` when turning an O(1) RMS residual
/// estimate into a bit-width estimate.  Residuals of a least-squares fit on
/// serially correlated data are closer to a random walk than to white noise,
/// so the max-to-RMS ratio is wide; 6 keeps the ranking honest on both.
const RMS_SPREAD_FACTOR: f64 = 6.0;

/// Prefix-sum regression cache: O(1) least-squares linear fits and residual
/// bounds over any `[lo, hi)` span of one column.
///
/// All data-dependent sums are taken over `d_j = y_j − y_0` (the column's
/// first value), which keeps the `i128` accumulators spread-scaled on
/// real columns and the `f64` Σd² cancellation-safe.  The x sums need no
/// storage: `Σx` and `Σx²` over a window are closed forms.
#[derive(Debug, Clone)]
pub struct FitCache {
    /// `sd[k] = Σ_{j<k} d_j` (exact).
    sd: Vec<i128>,
    /// `sxd[k] = Σ_{j<k} j·d_j` (exact).
    sxd: Vec<i128>,
    /// `sdd[k] = Σ_{j<k} d_j²` (f64; estimate-grade).
    sdd: Vec<f64>,
}

/// `y − base` as a signed 128-bit offset.
#[inline]
fn offset(v: u64, base: u64) -> i128 {
    v as i128 - base as i128
}

impl FitCache {
    /// Build the prefix sums for `values` (one pass).
    pub fn new(values: &[u64]) -> Self {
        let base = values.first().copied().unwrap_or(0);
        let mut sd = Vec::with_capacity(values.len() + 1);
        let mut sxd = Vec::with_capacity(values.len() + 1);
        let mut sdd = Vec::with_capacity(values.len() + 1);
        let (mut a, mut b, mut c) = (0i128, 0i128, 0f64);
        sd.push(a);
        sxd.push(b);
        sdd.push(c);
        for (j, &v) in values.iter().enumerate() {
            let d = offset(v, base);
            a += d;
            b += j as i128 * d;
            c += (d as f64) * (d as f64);
            sd.push(a);
            sxd.push(b);
            sdd.push(c);
        }
        Self { sd, sxd, sdd }
    }

    /// Number of values covered by the cache.
    pub fn len(&self) -> usize {
        self.sd.len() - 1
    }

    /// True when the cache covers no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Least-squares linear fit over `[lo, hi)` in the partition-local
    /// convention (x = 0 at `lo`, y relative to the span's first value):
    /// returns `(theta0, theta1)`.  O(1).
    pub fn ls_fit(&self, lo: usize, hi: usize) -> (f64, f64) {
        assert!(lo < hi && hi <= self.len(), "invalid span {lo}..{hi}");
        let n = (hi - lo) as i128;
        if n == 1 {
            return (0.0, 0.0);
        }
        // Centre at (lo, d_lo): exact i128 window sums of the local offsets.
        let d_lo = self.sd[lo + 1] - self.sd[lo];
        let sy = self.sd[hi] - self.sd[lo] - n * d_lo;
        let sx = n * (n - 1) / 2;
        let sxy =
            self.sxd[hi] - self.sxd[lo] - lo as i128 * (self.sd[hi] - self.sd[lo]) - d_lo * sx;
        let sxx = n * (n - 1) * (2 * n - 1) / 6;
        // Combine in f64: the centred sums are spread-scaled, so the usual
        // normal-equation cancellation is benign here.
        let (nf, sxf, syf, sxyf, sxxf) = (n as f64, sx as f64, sy as f64, sxy as f64, sxx as f64);
        let denom = nf * sxxf - sxf * sxf;
        if denom <= 0.0 {
            return (syf / nf, 0.0);
        }
        let theta1 = (nf * sxyf - sxf * syf) / denom;
        let theta0 = (syf - theta1 * sxf) / nf;
        (theta0, theta1)
    }

    /// RMS residual of the O(1) least-squares fit over `[lo, hi)`.
    pub fn residual_rms(&self, lo: usize, hi: usize) -> f64 {
        assert!(lo < hi && hi <= self.len(), "invalid span {lo}..{hi}");
        let n = (hi - lo) as f64;
        if n <= 2.0 {
            return 0.0;
        }
        let d_lo = (self.sd[lo + 1] - self.sd[lo]) as f64;
        // Centred second moments at (lo, d_lo); Σd² needs re-centring from
        // the global base, which stays accurate because d is spread-scaled.
        let sy = (self.sd[hi] - self.sd[lo]) as f64 - n * d_lo;
        let sdd_w = self.sdd[hi] - self.sdd[lo];
        let sd_w = (self.sd[hi] - self.sd[lo]) as f64;
        let syy = sdd_w - 2.0 * d_lo * sd_w + n * d_lo * d_lo;
        let sx = n * (n - 1.0) / 2.0;
        let sxx = n * (n - 1.0) * (2.0 * n - 1.0) / 6.0;
        let sxy = (self.sxd[hi] - self.sxd[lo]) as f64
            - (lo as f64) * (self.sd[hi] - self.sd[lo]) as f64
            - d_lo * sx;
        let cxx = sxx - sx * sx / n;
        let cxy = sxy - sx * sy / n;
        let cyy = syy - sy * sy / n;
        let sse = if cxx > 0.0 {
            cyy - cxy * cxy / cxx
        } else {
            cyy
        };
        (sse.max(0.0) / n).sqrt()
    }

    /// O(1) cost *estimate* in bits for encoding `[lo, hi)` as one linear
    /// partition: fixed header guess plus `n` deltas at a width derived from
    /// the RMS residual.  Only good enough to rank candidate boundaries —
    /// exact decisions go through [`CostModel::exact_bits`].
    pub fn estimate_cost_bits(&self, lo: usize, hi: usize) -> usize {
        let n = hi - lo;
        let spread = (RMS_SPREAD_FACTOR * self.residual_rms(lo, hi)).min(u64::MAX as f64);
        let width = leco_bitpack::bits_for(spread as u64) as usize;
        // Nominal linear-partition header: len + model + bias + width bytes.
        let header_bytes = crate::format::varint_len(n as u128) + 17 + 6 + 1;
        header_bytes * 8 + n * width
    }
}

/// The exact, memoised partition-cost oracle shared by the split–merge
/// phases and the DP partitioner.
///
/// `exact_bits(lo, hi)` prices the span with the same fit the encoder will
/// use ([`fit_checked`]) and the same byte accounting the serializer will
/// produce ([`partition_cost_bits_exact`]), so minimising this oracle
/// minimises real output bytes.  The [`FitCache`] provides O(1) estimates
/// for candidate ranking when the regressor family is linear.
pub struct CostModel<'a> {
    values: &'a [u64],
    kind: RegressorKind,
    ctx: FitContext,
    cache: Option<FitCache>,
    memo: HashMap<(u32, u32), usize>,
    /// False only for the [`Self::per_span`] test oracle.
    shared_sweeps: bool,
    sweep: SweepScratch,
    routes: PriceRoutes,
}

/// Spans shorter than this are cheaper to fit directly than to memoise.
const MEMO_MIN_LEN: usize = 8;

/// Spans shorter than this go to the per-span route in
/// [`CostModel::price_cuts`]: two sweeps do not pay for themselves there.
const SHARED_MIN_LEN: usize = 32;

/// Mantissa bits an `f64` product may use and still be exact: the budget of
/// the exactness guard in [`CostModel::price_cuts`].
const EXACT_PRODUCT_BITS: u32 = 52;

/// Marks a side of a cut that still has to be priced.
const UNPRICED: usize = usize::MAX;

/// One candidate cut `b` of a span `[lo, hi)` and the exact costs of the
/// two partitions it would leave, as [`CostModel::exact_bits`] prices them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PricedCut {
    /// The cut position: the left partition is `[lo, cut)`, the right
    /// `[cut, hi)`.
    pub cut: usize,
    /// `exact_bits(lo, cut)`.
    pub left: usize,
    /// `exact_bits(cut, hi)`.
    pub right: usize,
}

impl PricedCut {
    /// Cost of the pair.
    pub fn total(&self) -> usize {
        self.left + self.right
    }
}

/// How many [`CostModel::price_cuts`] batches took each route.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PriceRoutes {
    /// Batches priced from the two shared hull sweeps.
    pub shared: usize,
    /// Batches priced one span at a time (guard failed, short span,
    /// non-linear regressor).
    pub per_span: usize,
}

/// Buffers of the shared route, kept across batches so pricing a cut
/// allocates nothing.
#[derive(Default)]
struct SweepScratch {
    /// Offsets of the batch's span from its first value.
    ys: Vec<f64>,
    /// The sweep's hull stacks, in the coordinates of `ys`.
    upper: Vec<Point>,
    lower: Vec<Point>,
    /// A right span's hulls, left to right in its own coordinates.
    own_upper: Vec<Point>,
    own_lower: Vec<Point>,
    priced: Vec<PricedCut>,
}

impl<'a> CostModel<'a> {
    /// Build an oracle for `values` under `kind`.  The prefix-sum cache is
    /// only built for linear-family regressors (it prices a straight line).
    pub fn new(values: &'a [u64], kind: RegressorKind) -> Self {
        let cache = matches!(kind, RegressorKind::Linear | RegressorKind::Auto)
            .then(|| FitCache::new(values));
        Self {
            values,
            kind,
            ctx: FitContext::default(),
            cache,
            memo: HashMap::new(),
            shared_sweeps: true,
            sweep: SweepScratch::default(),
            routes: PriceRoutes::default(),
        }
    }

    /// Test support: an oracle whose [`Self::price_cuts`] always prices one
    /// span at a time — the reference the shared route is checked against.
    #[doc(hidden)]
    pub fn per_span(values: &'a [u64], kind: RegressorKind) -> Self {
        Self {
            shared_sweeps: false,
            ..Self::new(values, kind)
        }
    }

    /// The column this oracle prices.
    pub fn values(&self) -> &'a [u64] {
        self.values
    }

    /// True when O(1) estimates are available ([`Self::estimate_bits`]).
    pub fn has_estimates(&self) -> bool {
        self.cache.is_some()
    }

    /// O(1) ranking estimate for `[lo, hi)`; falls back to the exact cost
    /// when no cache is available (non-linear regressors).
    pub fn estimate_bits(&mut self, lo: usize, hi: usize) -> usize {
        match &self.cache {
            Some(cache) => cache.estimate_cost_bits(lo, hi),
            None => self.exact_bits(lo, hi),
        }
    }

    /// Exact serialized cost in bits of `[lo, hi)` as one partition:
    /// memoised `fit_checked` + delta stats + full record accounting
    /// (model, bias, width, correction list, packed deltas).
    pub fn exact_bits(&mut self, lo: usize, hi: usize) -> usize {
        if hi - lo >= MEMO_MIN_LEN {
            if let Some(&bits) = self.memo.get(&(lo as u32, hi as u32)) {
                return bits;
            }
        }
        let bits = self.exact_bits_uncached(lo, hi);
        if hi - lo >= MEMO_MIN_LEN {
            self.memo.insert((lo as u32, hi as u32), bits);
        }
        bits
    }

    /// [`Self::exact_bits`] without consulting or filling the memo — for
    /// callers like the DP partitioner that never price a span twice and
    /// would only bloat the map (O(n²) distinct spans).
    pub fn exact_bits_uncached(&self, lo: usize, hi: usize) -> usize {
        assert!(
            lo < hi && hi <= self.values.len(),
            "invalid span {lo}..{hi}"
        );
        // One `core.fit_ns` sample per exact hull fit: the dominant unit of
        // encode-path work, and the denominator for the phase histograms.
        let (model, stats) = leco_obs::histogram!("core.fit_ns")
            .time(|| fit_checked(self.kind, &self.values[lo..hi], &self.ctx));
        partition_cost_bits_exact(&model, hi - lo, &stats)
    }

    /// Price every candidate cut of `[lo, hi)` — `cuts` strictly ascending,
    /// each inside `(lo, hi)` — exactly as `exact_bits(lo, b)` and
    /// `exact_bits(b, hi)` would, memo included.
    ///
    /// On the shared route the batch costs two hull sweeps instead of two
    /// hull builds per cut (`docs/PARTITIONING.md`, "Pricing cuts: shared
    /// sweeps"): a forward monotone chain over `[lo, max cut)`, whose stacks
    /// on reaching `b` are the hulls of `[lo, b)`, and a backward chain over
    /// `[min cut, hi)` for the hulls of `[b, hi)`; each side of each cut
    /// then takes the calipers walk over its hull plus the intercept and
    /// residual passes, in that span's own coordinates.  The route is taken
    /// only where it provably reproduces the per-span fit bit for bit — a
    /// linear regressor and `bits_for(max − min) + bits_for(hi − lo) ≤ 52`
    /// over the span, which makes every cross product of either chain exact
    /// in `f64` and the strict hull therefore the same vertex set whichever
    /// direction built it.  Everything else is priced one span at a time.
    pub fn price_cuts(&mut self, lo: usize, hi: usize, cuts: &[usize]) -> &[PricedCut] {
        assert!(
            lo < hi && hi <= self.values.len(),
            "invalid span {lo}..{hi}"
        );
        assert!(
            cuts.windows(2).all(|w| w[0] < w[1])
                && cuts.first().is_none_or(|&b| b > lo)
                && cuts.last().is_none_or(|&b| b < hi),
            "cuts {cuts:?} must ascend strictly inside {lo}..{hi}"
        );
        // Out of `self` while `self` prices spans into it.
        let mut sweep = std::mem::take(&mut self.sweep);
        sweep.priced.clear();
        if self.sweeps_are_exact(lo, hi) {
            self.routes.shared += 1;
            sweep.priced.extend(cuts.iter().map(|&cut| PricedCut {
                cut,
                left: self.memoised(lo, cut).unwrap_or(UNPRICED),
                right: self.memoised(cut, hi).unwrap_or(UNPRICED),
            }));
            self.price_from_sweeps(lo, hi, &mut sweep);
        } else {
            self.routes.per_span += 1;
            sweep.priced.extend(cuts.iter().map(|&cut| PricedCut {
                cut,
                left: self.exact_bits(lo, cut),
                right: self.exact_bits(cut, hi),
            }));
        }
        self.sweep = sweep;
        &self.sweep.priced
    }

    /// The first cheapest of `cuts` (as [`Self::price_cuts`] takes them)
    /// whose pair costs strictly less than `incumbent`, if any.
    pub fn best_cut(
        &mut self,
        lo: usize,
        hi: usize,
        cuts: &[usize],
        incumbent: usize,
    ) -> Option<PricedCut> {
        let mut best: Option<PricedCut> = None;
        for &c in self.price_cuts(lo, hi, cuts) {
            if c.total() < best.map_or(incumbent, |b| b.total()) {
                best = Some(c);
            }
        }
        best
    }

    /// How many [`Self::price_cuts`] batches took each route so far.
    pub fn price_routes(&self) -> PriceRoutes {
        self.routes
    }

    fn memoised(&self, lo: usize, hi: usize) -> Option<usize> {
        if hi - lo < MEMO_MIN_LEN {
            return None;
        }
        self.memo.get(&(lo as u32, hi as u32)).copied()
    }

    /// The exactness guard of the shared route (see [`Self::price_cuts`]).
    fn sweeps_are_exact(&self, lo: usize, hi: usize) -> bool {
        if !self.shared_sweeps
            || hi - lo < SHARED_MIN_LEN
            || !matches!(self.kind, RegressorKind::Linear | RegressorKind::Auto)
        {
            return false;
        }
        let (min, max) = self.values[lo..hi]
            .iter()
            .fold((u64::MAX, 0), |(min, max), &v| (min.min(v), max.max(v)));
        let bits =
            leco_bitpack::bits_for(max - min) as u32 + usize::BITS - (hi - lo).leading_zeros();
        bits <= EXACT_PRODUCT_BITS
    }

    /// Fill in every [`UNPRICED`] side of `sweep.priced` from one forward and
    /// one backward hull sweep over `[lo, hi)`.
    fn price_from_sweeps(&mut self, lo: usize, hi: usize, sweep: &mut SweepScratch) {
        let SweepScratch {
            ys,
            upper,
            lower,
            own_upper,
            own_lower,
            priced,
        } = sweep;
        let base = self.values[lo];
        // Exact under the guard, and the same numbers `offsets_f64` yields.
        ys.clear();
        ys.extend(
            self.values[lo..hi]
                .iter()
                .map(|&v| v.wrapping_sub(base) as i64 as f64),
        );

        // Forward: once the points of [lo, b) are pushed, the stacks are the
        // hulls of [lo, b), already in that span's coordinates.
        upper.clear();
        lower.clear();
        let mut pushed = 0;
        for c in priced.iter_mut().filter(|c| c.left == UNPRICED) {
            let n = c.cut - lo;
            while pushed < n {
                let p = (pushed as f64, ys[pushed]);
                linear::push_clockwise(upper, p);
                linear::push_counter_clockwise(lower, p);
                pushed += 1;
            }
            c.left = self.price_hulls(lo, c.cut, upper, lower, &ys[..n], 0.0);
        }

        // Backward: once the points of [b, hi) are pushed, the stacks hold
        // the hulls of [b, hi) right to left, in the coordinates of `lo`.
        upper.clear();
        lower.clear();
        let mut pushed = hi - lo;
        for c in priced.iter_mut().rev().filter(|c| c.right == UNPRICED) {
            let first = c.cut - lo;
            while pushed > first {
                pushed -= 1;
                let p = (pushed as f64, ys[pushed]);
                linear::push_counter_clockwise(upper, p);
                linear::push_clockwise(lower, p);
            }
            // Both subtractions are exact under the guard.
            let (x0, y0) = (first as f64, ys[first]);
            let own = |&(x, y): &Point| (x - x0, y - y0);
            own_upper.clear();
            own_upper.extend(upper.iter().rev().map(own));
            own_lower.clear();
            own_lower.extend(lower.iter().rev().map(own));
            c.right = self.price_hulls(c.cut, hi, own_upper, own_lower, &ys[first..], y0);
        }
    }

    /// Price `[lo, hi)` given its hulls in its own coordinates and its
    /// offsets `ys − y0`: the calipers walk, the intercept pass and the
    /// residual statistics, with the expressions of the per-span route.
    /// Memoises like [`Self::exact_bits`].
    fn price_hulls(
        &mut self,
        lo: usize,
        hi: usize,
        upper: &[Point],
        lower: &[Point],
        ys: &[f64],
        y0: f64,
    ) -> usize {
        let n = hi - lo;
        if n < 3 {
            // `fit_linear` answers these without a hull.
            return self.exact_bits(lo, hi);
        }
        let bits = leco_obs::histogram!("core.fit_ns").time(|| {
            let slope = linear::calipers(upper, lower);
            let model = linear::centred_line(ys, y0, slope);
            match residuals(&model, &self.values[lo..hi], |_, _| {}) {
                Some(stats) => partition_cost_bits_exact(&model, n, &stats),
                // Unreachable under the guard; the per-span route knows the
                // constant fallback.
                None => self.exact_bits_uncached(lo, hi),
            }
        });
        if n >= MEMO_MIN_LEN {
            self.memo.insert((lo as u32, hi as u32), bits);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::exact_cost_bits;
    use crate::regressor::linear::{fit_least_squares, max_abs_error};

    fn jittery(n: usize) -> Vec<u64> {
        (0..n as u64)
            .map(|i| 1_000_000 + 37 * i + (i * 2654435761) % 97)
            .collect()
    }

    #[test]
    fn ls_fit_matches_direct_least_squares() {
        let values = jittery(4_000);
        let cache = FitCache::new(&values);
        for (lo, hi) in [(0usize, 4_000usize), (13, 700), (2_000, 2_100), (5, 7)] {
            let ys = crate::regressor::offsets_f64(&values[lo..hi]);
            let direct = fit_least_squares(&ys);
            let (t0, t1) = cache.ls_fit(lo, hi);
            let crate::model::Model::Linear { theta1: dt1, .. } = direct else {
                panic!("least squares returns linear");
            };
            assert!(
                (t1 - dt1).abs() <= 1e-6 * (1.0 + dt1.abs()),
                "span {lo}..{hi}: cached slope {t1} vs direct {dt1}"
            );
            // The cached fit must be a usable model: its max error should be
            // within a small factor of the direct LS fit's.
            let cached = crate::model::Model::Linear {
                theta0: t0,
                theta1: t1,
            };
            let e_cached = max_abs_error(&cached, &ys);
            let e_direct = max_abs_error(&direct, &ys);
            assert!(
                e_cached <= 2.0 * e_direct + 1e-6,
                "span {lo}..{hi}: {e_cached} vs {e_direct}"
            );
        }
    }

    #[test]
    fn residual_rms_tracks_noise_scale() {
        let clean: Vec<u64> = (0..2_000u64).map(|i| 50 + 3 * i).collect();
        let noisy = jittery(2_000);
        let c_clean = FitCache::new(&clean);
        let c_noisy = FitCache::new(&noisy);
        assert!(c_clean.residual_rms(0, 2_000) < 1e-6);
        let rms = c_noisy.residual_rms(0, 2_000);
        assert!(
            (5.0..97.0).contains(&rms),
            "noise ±48 should give rms ~28, got {rms}"
        );
    }

    #[test]
    fn estimates_rank_spans_like_exact_costs() {
        // A slope change at 1000: spans straddling it must rank costlier
        // than clean spans of the same length.
        let values: Vec<u64> = (0..2_000u64)
            .map(|i| {
                if i < 1_000 {
                    3 * i
                } else {
                    3_000 + 40 * (i - 1_000)
                }
            })
            .collect();
        let cache = FitCache::new(&values);
        let clean = cache.estimate_cost_bits(0, 800);
        let straddling = cache.estimate_cost_bits(600, 1_400);
        assert!(
            straddling > clean,
            "straddling {straddling} vs clean {clean}"
        );
    }

    #[test]
    fn exact_bits_matches_free_function_and_memoises() {
        let values = jittery(600);
        let mut oracle = CostModel::new(&values, RegressorKind::Linear);
        for (lo, hi) in [(0usize, 600usize), (100, 400), (0, 600)] {
            assert_eq!(
                oracle.exact_bits(lo, hi),
                exact_cost_bits(&values[lo..hi], RegressorKind::Linear),
                "span {lo}..{hi}"
            );
        }
        assert!(oracle.has_estimates());
        assert_eq!(oracle.memo.len(), 2, "repeat span served from the memo");
    }

    #[test]
    fn cache_handles_decreasing_and_extreme_values() {
        let values = vec![u64::MAX, u64::MAX - 10, u64::MAX - 17, 5, 0, 3];
        let cache = FitCache::new(&values);
        let (t0, t1) = cache.ls_fit(0, 3);
        assert!(t0.is_finite() && t1.is_finite() && t1 < 0.0);
        assert!(cache.residual_rms(0, values.len()).is_finite());
    }
}
