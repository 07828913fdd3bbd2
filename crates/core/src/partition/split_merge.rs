//! Greedy variable-length partitioning: the split–merge algorithm of §3.2.2.
//!
//! * **Init** — candidate starting positions are scored by the magnitude of
//!   their (k+1)-th order differences (small means "locally polynomial of
//!   degree ≤ k", a good place to anchor a partition).
//! * **Split** — partitions grow greedily; a neighbouring point is admitted
//!   when its *inclusion cost* `C = (len+1)·Δ_new − len·Δ_old` stays below
//!   `τ·S_M`, where `Δ` is the cheap width proxy of §3.2.2 (the bit width of
//!   the spread of k-th order differences) and `S_M` the model size.
//! * **Merge** — adjacent partitions are merged whenever the exactly
//!   evaluated size of the merged partition is smaller than the sum of the
//!   parts, iterating until a fixed point.
//! * **Refine** — each boundary between adjacent partitions is hill-climbed
//!   over exponentially spaced offsets, keeping a move when the exactly
//!   evaluated cost of the pair shrinks. The split phase places boundaries
//!   using the cheap width proxy, which systematically misjudges where a
//!   linear fit actually starts to degrade; refinement recovers most of the
//!   gap to the DP optimum at a small extra cost.
//!
//! All exact evaluations go through one shared [`CostModel`] oracle: the
//! cost of a span is the *serialized* record size (correction list
//! included), fits are the O(n) hull minimax fit rather than the old
//! ~130-pass ternary search, repeat spans are served from a memo, the
//! oracle's O(1) prefix-sum estimates pre-rank candidate cut points so the
//! bisect phase can scan a 3× finer grid for the same exact-fit budget, and
//! bisect and refine hand each batch of candidate cuts of one span to
//! [`CostModel::best_cut`], which prices them all from two shared hull
//! sweeps (see `docs/PARTITIONING.md`).

use super::Partition;
use crate::model::RegressorKind;
use crate::regressor::CostModel;

/// Cap on the length a merged partition may reach; prevents the merge phase
/// from degenerating to quadratic work on very long runs.
const MAX_MERGED_LEN: usize = 1 << 16;
/// Maximum number of merge passes. Pair-merging doubles partition lengths
/// at best, so reaching [`MAX_MERGED_LEN`] from singletons needs log₂(2¹⁶)
/// twice over; passes stop early at the first fixed point anyway.
const MAX_MERGE_PASSES: usize = 32;
/// Look-ahead window when choosing a good starting position.
const START_LOOKAHEAD: usize = 8;

/// Difference order used as the Δ proxy for each regressor family.
fn proxy_degree(kind: RegressorKind) -> usize {
    match kind {
        RegressorKind::Constant => 0,
        RegressorKind::Linear | RegressorKind::Auto => 1,
        RegressorKind::Poly2 => 2,
        RegressorKind::Poly3 => 3,
        // The special models behave roughly linearly at partition scale.
        RegressorKind::Exponential | RegressorKind::Logarithm | RegressorKind::Sine { .. } => 1,
    }
}

/// Nominal serialized model size in bits for the split threshold `τ·S_M`.
fn nominal_model_bits(kind: RegressorKind) -> f64 {
    let bytes = match kind {
        RegressorKind::Constant => 9,
        RegressorKind::Linear | RegressorKind::Auto => 17,
        RegressorKind::Poly2 => 26,
        RegressorKind::Poly3 => 34,
        RegressorKind::Exponential | RegressorKind::Logarithm => 17,
        RegressorKind::Sine { terms, .. } => 18 + terms as usize * 24,
    };
    (bytes * 8) as f64
}

/// The integer type the split phase takes differences in: `i64` when the
/// column's values leave room for every difference order, `i128` otherwise.
trait DiffInt: Copy + Ord + std::ops::Sub<Output = Self> {
    const MIN: Self;
    const MAX: Self;
    fn from_u64(v: u64) -> Self;
    /// Bits needed for `|self|`, saturating at 64.
    fn magnitude_bits(self) -> u8;
    /// Bits needed for the spread `max − min` (`min <= max`), saturating at 64.
    fn spread_bits(min: Self, max: Self) -> u8;
}

/// Values below this keep every difference up to [`MAX_DIFF_ORDER`] inside
/// `i64`: an order-k difference is at most 2^k times the largest value.
const I64_DIFF_LIMIT: u64 = 1 << 58;

impl DiffInt for i64 {
    const MIN: Self = i64::MIN;
    const MAX: Self = i64::MAX;
    fn from_u64(v: u64) -> Self {
        debug_assert!(v < I64_DIFF_LIMIT);
        v as i64
    }
    fn magnitude_bits(self) -> u8 {
        leco_bitpack::bits_for(self.unsigned_abs())
    }
    fn spread_bits(min: Self, max: Self) -> u8 {
        leco_bitpack::bits_for((max - min) as u64)
    }
}

impl DiffInt for i128 {
    const MIN: Self = i128::MIN;
    const MAX: Self = i128::MAX;
    fn from_u64(v: u64) -> Self {
        v as i128
    }
    fn magnitude_bits(self) -> u8 {
        u64::try_from(self.unsigned_abs()).map_or(64, leco_bitpack::bits_for)
    }
    fn spread_bits(min: Self, max: Self) -> u8 {
        u64::try_from(max - min).map_or(64, leco_bitpack::bits_for)
    }
}

/// Highest difference order the split phase takes: the start scores of a
/// degree-3 proxy.
const MAX_DIFF_ORDER: usize = 4;

/// The `order`-th differences of a pushed sequence, one value at a time:
/// `last[k]` holds the most recent k-th order difference, so a push costs
/// `order` subtractions and moves nothing.
#[derive(Debug, Clone)]
struct DiffChain<T> {
    order: usize,
    last: [T; MAX_DIFF_ORDER],
    count: usize,
}

impl<T: DiffInt> DiffChain<T> {
    fn new(order: usize) -> Self {
        assert!(order <= MAX_DIFF_ORDER);
        Self {
            order,
            last: [T::from_u64(0); MAX_DIFF_ORDER],
            count: 0,
        }
    }

    /// The `order`-th difference ending at `v`, once `order` values precede it.
    fn peek(&self, v: T) -> Option<T> {
        (self.count >= self.order).then(|| self.last[..self.order].iter().fold(v, |d, &l| d - l))
    }

    /// Take `v` into the sequence; returns what [`Self::peek`] would have.
    fn push(&mut self, v: T) -> Option<T> {
        let mut d = v;
        for k in 0..self.order.min(self.count + 1) {
            let held = std::mem::replace(&mut self.last[k], d);
            // `last[k]` only holds a difference once k + 1 values were pushed.
            if k < self.count {
                d = d - held;
            }
        }
        let complete = self.count >= self.order;
        self.count += 1;
        complete.then_some(d)
    }
}

/// Incrementally tracks the spread (max − min) of the `degree`-th order
/// differences of the values pushed so far, yielding the Δ width proxy.
#[derive(Debug, Clone)]
struct DiffTracker<T> {
    chain: DiffChain<T>,
    min_d: T,
    max_d: T,
}

impl<T: DiffInt> DiffTracker<T> {
    fn new(degree: usize) -> Self {
        Self {
            chain: DiffChain::new(degree),
            min_d: T::MAX,
            max_d: T::MIN,
        }
    }

    /// Δ width (bits) after hypothetically pushing `v`, without mutating.
    fn width_with(&self, v: T) -> u8 {
        match self.chain.peek(v) {
            None => self.width(),
            Some(d) => T::spread_bits(self.min_d.min(d), self.max_d.max(d)),
        }
    }

    /// Current Δ width (bits).
    fn width(&self) -> u8 {
        if self.min_d > self.max_d {
            0
        } else {
            T::spread_bits(self.min_d, self.max_d)
        }
    }

    fn push(&mut self, v: T) {
        if let Some(d) = self.chain.push(v) {
            self.min_d = self.min_d.min(d);
            self.max_d = self.max_d.max(d);
        }
    }
}

/// Scores for the init phase: the bit width of the (degree+1)-th order
/// difference ending at each position (0 for the first degree+1 positions).
fn start_scores<T: DiffInt>(values: &[u64], degree: usize) -> Vec<u8> {
    let mut chain = DiffChain::<T>::new(degree + 1);
    values
        .iter()
        .map(|&v| chain.push(T::from_u64(v)).map_or(0, T::magnitude_bits))
        .collect()
}

/// The split phase: grow partitions greedily from good starting positions.
fn split_phase(values: &[u64], regressor: RegressorKind, tau: f64) -> Vec<Partition> {
    if values.iter().all(|&v| v < I64_DIFF_LIMIT) {
        split_phase_in::<i64>(values, regressor, tau)
    } else {
        split_phase_in::<i128>(values, regressor, tau)
    }
}

fn split_phase_in<T: DiffInt>(
    values: &[u64],
    regressor: RegressorKind,
    tau: f64,
) -> Vec<Partition> {
    let n = values.len();
    let degree = proxy_degree(regressor);
    let min_len = (degree + 2).max(2);
    let threshold = tau * nominal_model_bits(regressor);
    let scores = start_scores::<T>(values, degree);

    let mut parts: Vec<Partition> = Vec::new();
    let mut i = 0usize;
    while i < n {
        // Init: if the immediate position is "bumpy", emit singletons until a
        // locally smooth start within the look-ahead window.
        if i > 0 && n - i > min_len + START_LOOKAHEAD {
            let window_end = (i + START_LOOKAHEAD).min(n - min_len);
            let best = (i..window_end).min_by_key(|&p| scores[p]).unwrap_or(i);
            while i < best {
                parts.push(Partition::new(i, 1));
                i += 1;
            }
        }
        let start = i;
        let end = (start + min_len).min(n);
        let mut tracker = DiffTracker::<T>::new(degree);
        for &v in &values[start..end] {
            tracker.push(T::from_u64(v));
        }
        let mut j = end;
        while j < n {
            let old_width = tracker.width() as f64;
            let old_len = (j - start) as f64;
            let v = T::from_u64(values[j]);
            let new_width = tracker.width_with(v) as f64;
            let cost = (old_len + 1.0) * new_width - old_len * old_width;
            if cost <= threshold {
                tracker.push(v);
                j += 1;
            } else {
                break;
            }
        }
        parts.push(Partition::new(start, j - start));
        i = j;
    }
    parts
}

/// All phases exchange `(partitions, per-partition exact costs)` so no phase
/// has to refit what the previous one already evaluated.
type PartsAndCosts = (Vec<Partition>, Vec<usize>);

/// The merge phase: repeatedly merge adjacent partitions while that reduces
/// the exactly evaluated compressed size.
///
/// Each pass merges disjoint *pairs* and advances past a merge, so a value
/// is re-fitted at most once per pass and long runs coalesce through
/// doubling across passes: O(n·log n) fit work overall. (Growing one
/// accumulator partition across a pass — re-fitting the whole chain on
/// every admission — is O(chain²) and took minutes on million-value columns
/// whose split phase emits many small partitions.)
fn merge_phase(oracle: &mut CostModel<'_>, (mut parts, mut costs): PartsAndCosts) -> PartsAndCosts {
    if parts.len() <= 1 {
        return (parts, costs);
    }
    for _ in 0..MAX_MERGE_PASSES {
        let mut changed = false;
        let mut new_parts: Vec<Partition> = Vec::with_capacity(parts.len());
        let mut new_costs: Vec<usize> = Vec::with_capacity(parts.len());
        let mut k = 0;
        while k < parts.len() {
            if k + 1 < parts.len() {
                let merged_len = parts[k].len + parts[k + 1].len;
                if merged_len <= MAX_MERGED_LEN {
                    let merged_cost =
                        oracle.exact_bits(parts[k].start, parts[k].start + merged_len);
                    if merged_cost < costs[k] + costs[k + 1] {
                        new_parts.push(Partition::new(parts[k].start, merged_len));
                        new_costs.push(merged_cost);
                        changed = true;
                        k += 2;
                        continue;
                    }
                }
            }
            new_parts.push(parts[k]);
            new_costs.push(costs[k]);
            k += 1;
        }
        parts = new_parts;
        costs = new_costs;
        if !changed {
            break;
        }
    }
    (parts, costs)
}

/// Interior candidate split points exactly evaluated per partition in the
/// bisect phase.
const BISECT_CANDIDATES: usize = 9;
/// Finer grid scanned with the oracle's O(1) estimates; its best entries
/// join the evenly spaced exact candidates.
const BISECT_ESTIMATE_GRID: usize = 31;
/// How many estimate-ranked grid points are promoted to exact evaluation.
const BISECT_PROMOTED: usize = 6;
/// Partitions shorter than this are never bisected.
const MIN_BISECT_LEN: usize = 8;

/// The bisect phase: recursively split any partition whose exactly evaluated
/// cost drops when cut in two.
///
/// The split phase's Δ width proxy tracks the spread of k-th order
/// differences, which stays flat on jittery-but-trending data even though
/// the *fit residual* grows like a random walk — so the proxy happily grows
/// one partition over data the DP optimum cuts several times. Working
/// top-down with exact costs catches exactly those misses; the follow-up
/// refine phase then fine-tunes the coarse cut positions.
///
/// Candidates are the classic evenly spaced grid, plus — when the oracle has
/// prefix-sum estimates — the best few points of a 3× finer grid ranked by
/// estimated pair cost, so jump positions that fall between coarse grid
/// points are still found without extra exact fits.
fn bisect_phase(oracle: &mut CostModel<'_>, (parts, costs): PartsAndCosts) -> PartsAndCosts {
    let mut out = (
        Vec::with_capacity(parts.len()),
        Vec::with_capacity(costs.len()),
    );
    for (p, cost) in parts.into_iter().zip(costs) {
        bisect_rec(oracle, p, cost, &mut out);
    }
    out
}

/// Candidate cut points for bisecting `p`: the evenly spaced exact grid
/// joined with the estimate-ranked picks, deduplicated and sorted.
fn bisect_candidates(oracle: &mut CostModel<'_>, p: Partition) -> Vec<usize> {
    let mut candidates: Vec<usize> = (1..=BISECT_CANDIDATES)
        .map(|k| p.start + p.len * k / (BISECT_CANDIDATES + 1))
        .filter(|&b| b > p.start && b < p.end())
        .collect();
    if oracle.has_estimates() && p.len >= 4 * BISECT_ESTIMATE_GRID {
        let mut ranked: Vec<(usize, usize)> = (1..=BISECT_ESTIMATE_GRID)
            .map(|k| p.start + p.len * k / (BISECT_ESTIMATE_GRID + 1))
            .filter(|&b| b > p.start && b < p.end())
            .map(|b| {
                (
                    oracle.estimate_bits(p.start, b) + oracle.estimate_bits(b, p.end()),
                    b,
                )
            })
            .collect();
        ranked.sort_unstable();
        candidates.extend(ranked.iter().take(BISECT_PROMOTED).map(|&(_, b)| b));
    }
    candidates.sort_unstable();
    candidates.dedup();
    candidates
}

fn bisect_rec(oracle: &mut CostModel<'_>, p: Partition, cost: usize, out: &mut PartsAndCosts) {
    if p.len < MIN_BISECT_LEN {
        out.0.push(p);
        out.1.push(cost);
        return;
    }
    // Exactly evaluate the candidate cut points in one batch; keep the best
    // one that beats the unsplit cost.
    let cuts = bisect_candidates(oracle, p);
    match oracle.best_cut(p.start, p.end(), &cuts, cost) {
        Some(best) => {
            let b = best.cut;
            bisect_rec(oracle, Partition::new(p.start, b - p.start), best.left, out);
            bisect_rec(oracle, Partition::new(b, p.end() - b), best.right, out);
        }
        None => {
            out.0.push(p);
            out.1.push(cost);
        }
    }
}

/// Offsets tried when hill-climbing a boundary during the refine phase.
/// Memoised hull fits made exact evaluations ~50× cheaper than under the
/// ternary-search fit, so the climb reaches ±128 instead of ±32.
const REFINE_OFFSETS: [isize; 16] = [
    -128, -64, -32, -16, -8, -4, -2, -1, 1, 2, 4, 8, 16, 32, 64, 128,
];
/// Maximum number of whole-cover refine passes.
const MAX_REFINE_PASSES: usize = 3;
/// Maximum hill-climb moves per boundary per pass.
const MAX_REFINE_MOVES: usize = 8;
/// Boundaries whose two partitions together span more than this many values
/// are left alone: each candidate evaluation refits the whole pair, and
/// moving a boundary by ≤128 positions inside a pair this long changes the
/// total cost by a negligible fraction.  (Raised from 16k when the fits got
/// cheap; pairs this long mostly arise on very smooth data.)
const REFINE_SPAN_LIMIT: usize = 65_536;

/// The refine phase: hill-climb each interior boundary by exact cost.
fn refine_phase(
    oracle: &mut CostModel<'_>,
    (mut parts, mut costs): PartsAndCosts,
) -> PartsAndCosts {
    if parts.len() <= 1 {
        return (parts, costs);
    }
    let mut cuts: Vec<usize> = Vec::with_capacity(REFINE_OFFSETS.len());
    for _ in 0..MAX_REFINE_PASSES {
        let mut changed = false;
        for k in 0..parts.len() - 1 {
            let lo = parts[k].start;
            let hi = parts[k + 1].end();
            if hi - lo > REFINE_SPAN_LIMIT {
                continue;
            }
            let mut best_b = parts[k + 1].start;
            let mut best_pair = (costs[k], costs[k + 1]);
            for _ in 0..MAX_REFINE_MOVES {
                // Both sides must keep at least one value.
                cuts.clear();
                cuts.extend(
                    REFINE_OFFSETS
                        .iter()
                        .map(|&off| best_b.saturating_add_signed(off))
                        .filter(|&b| b > lo && b < hi),
                );
                match oracle.best_cut(lo, hi, &cuts, best_pair.0 + best_pair.1) {
                    Some(best) => {
                        best_b = best.cut;
                        best_pair = (best.left, best.right);
                    }
                    None => break,
                }
            }
            if best_b != parts[k + 1].start {
                parts[k] = Partition::new(lo, best_b - lo);
                parts[k + 1] = Partition::new(best_b, hi - best_b);
                costs[k] = best_pair.0;
                costs[k + 1] = best_pair.1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (parts, costs)
}

/// Run the full init/split/merge/bisect/refine pipeline.
///
/// Each phase's wall-clock lands in its own `core.partition.*_ns` histogram
/// (one sample per column encoded), so encode-path regressions show up per
/// phase rather than as one opaque total.
pub fn split_merge(values: &[u64], regressor: RegressorKind, tau: f64) -> Vec<Partition> {
    if values.is_empty() {
        return Vec::new();
    }
    split_merge_with(CostModel::new(values, regressor), regressor, tau)
}

/// [`split_merge`] over the (non-empty) column of a caller-built oracle.
pub(crate) fn split_merge_with(
    mut oracle: CostModel<'_>,
    regressor: RegressorKind,
    tau: f64,
) -> Vec<Partition> {
    let values = oracle.values();
    let _span = leco_obs::span("core.partition.split_merge");
    let state = leco_obs::histogram!("core.partition.split_ns").time(|| {
        let parts = split_phase(values, regressor, tau.clamp(0.0, 1.0));
        let costs: Vec<usize> = parts
            .iter()
            .map(|p| oracle.exact_bits(p.start, p.end()))
            .collect();
        (parts, costs)
    });
    let state =
        leco_obs::histogram!("core.partition.merge_ns").time(|| merge_phase(&mut oracle, state));
    let state =
        leco_obs::histogram!("core.partition.bisect_ns").time(|| bisect_phase(&mut oracle, state));
    let state =
        leco_obs::histogram!("core.partition.refine_ns").time(|| refine_phase(&mut oracle, state));
    // Bisection and refinement can leave adjacent partitions whose merge is
    // now profitable (e.g. a remnant shrunk by a moved boundary), so merge
    // once more to reach a local fixed point.
    leco_obs::histogram!("core.partition.merge_ns").time(|| merge_phase(&mut oracle, state).0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::{exact_cost_bits, is_valid_cover};

    #[test]
    fn diff_tracker_orders() {
        // degree 1: first-order differences of 0, 2, 4, 10 are 2, 2, 6.
        let mut t = DiffTracker::<i128>::new(1);
        for v in [0i128, 2, 4] {
            t.push(v);
        }
        assert_eq!(t.width(), leco_bitpack::bits_for(0)); // spread 0
        assert_eq!(t.width_with(10), leco_bitpack::bits_for(4)); // diffs {2,6} spread 4
                                                                 // degree 2: second-order differences of a quadratic are constant.
        let mut t = DiffTracker::<i64>::new(2);
        for v in [0i64, 1, 4, 9, 16, 25] {
            t.push(v);
        }
        assert_eq!(t.width(), 0);
    }

    #[test]
    fn diff_tracker_degree_zero_tracks_value_range() {
        let mut t = DiffTracker::<i128>::new(0);
        for v in [100i128, 90, 110] {
            t.push(v);
        }
        assert_eq!(t.width(), leco_bitpack::bits_for(20));
    }

    #[test]
    fn start_scores_flag_bumps() {
        // Smooth line with one spike at position 50.
        let mut values: Vec<u64> = (0..100u64).map(|i| 10 * i).collect();
        values[50] += 5_000;
        let scores = start_scores::<i64>(&values, 1);
        assert!(
            scores[50] > scores[25],
            "spike should raise the start score"
        );
    }

    #[test]
    fn splits_at_slope_change() {
        // Two clean linear pieces: expect roughly two partitions after merge.
        let values: Vec<u64> = (0..2_000u64)
            .map(|i| {
                if i < 1_000 {
                    100 + 2 * i
                } else {
                    1_000_000 + 50 * (i - 1_000)
                }
            })
            .collect();
        let parts = split_merge(&values, RegressorKind::Linear, 0.1);
        assert!(is_valid_cover(&parts, values.len()));
        assert!(
            parts.len() <= 8,
            "expected few partitions, got {}",
            parts.len()
        );
        // A partition boundary should land near the slope change.
        assert!(
            parts.iter().any(|p| (990..=1_010).contains(&p.start)),
            "expected a boundary near 1000: {parts:?}"
        );
    }

    #[test]
    fn variable_beats_fixed_on_irregular_boundaries() {
        // Piecewise-linear segments of irregular lengths.
        let mut values = Vec::new();
        let mut v = 0u64;
        let lens = [137usize, 901, 55, 333, 678, 41, 1500, 222];
        for (k, &len) in lens.iter().enumerate() {
            let slope = (k as u64 * 7) % 13 + 1;
            for _ in 0..len {
                values.push(v);
                v += slope;
            }
            v += 100_000; // jump between segments
        }
        let var_parts = split_merge(&values, RegressorKind::Linear, 0.05);
        let var_cost: usize = var_parts
            .iter()
            .map(|p| exact_cost_bits(&values[p.start..p.end()], RegressorKind::Linear))
            .sum();
        let fixed_parts = crate::partition::fixed::fixed_partitions(values.len(), 512);
        let fixed_cost: usize = fixed_parts
            .iter()
            .map(|p| exact_cost_bits(&values[p.start..p.end()], RegressorKind::Linear))
            .sum();
        assert!(
            var_cost < fixed_cost,
            "variable {var_cost} should beat fixed {fixed_cost}"
        );
    }

    #[test]
    fn merge_collapses_over_splitting() {
        // A single clean line: the split phase may produce several partitions
        // but the merge phase should collapse them down to very few.
        let values: Vec<u64> = (0..5_000u64).map(|i| 7 * i + 3).collect();
        let parts = split_merge(&values, RegressorKind::Linear, 0.0);
        assert!(is_valid_cover(&parts, values.len()));
        assert!(
            parts.len() <= 3,
            "expected ~1 partition, got {}",
            parts.len()
        );
    }

    #[test]
    fn constant_regressor_groups_runs() {
        let mut values = vec![5u64; 500];
        values.extend(vec![900u64; 500]);
        values.extend(vec![17u64; 500]);
        let parts = split_merge(&values, RegressorKind::Constant, 0.1);
        assert!(is_valid_cover(&parts, values.len()));
        assert!(
            parts.len() <= 6,
            "runs should form few partitions: {}",
            parts.len()
        );
    }

    #[test]
    fn handles_tiny_inputs() {
        for n in 1..6usize {
            let values: Vec<u64> = (0..n as u64).collect();
            let parts = split_merge(&values, RegressorKind::Linear, 0.1);
            assert!(is_valid_cover(&parts, n));
        }
    }

    #[test]
    fn tau_zero_only_grows_exact_fits() {
        let values: Vec<u64> = vec![10, 20, 30, 40, 1000, 2000, 4000, 8000];
        let parts = split_merge(&values, RegressorKind::Linear, 0.0);
        assert!(is_valid_cover(&parts, values.len()));
    }

    #[test]
    fn smaller_tau_gives_no_fewer_partitions_before_merge() {
        let values: Vec<u64> = (0..3_000u64).map(|i| i * 3 + (i % 97) * (i % 13)).collect();
        let fine = split_phase(&values, RegressorKind::Linear, 0.01);
        let coarse = split_phase(&values, RegressorKind::Linear, 0.5);
        assert!(fine.len() >= coarse.len());
    }
    /// The split phase this module shipped before the in-place difference
    /// chain (a `Vec<i128>` difference triangle and a shifted `Vec` tail),
    /// kept as the oracle for `split_phase_matches_the_reference`.
    mod reference {
        use super::super::{
            nominal_model_bits, proxy_degree, Partition, RegressorKind, START_LOOKAHEAD,
        };

        /// Incrementally tracks the spread (max − min) of the `degree`-th order
        /// differences of the values pushed so far, yielding the Δ width proxy.
        #[derive(Debug, Clone)]
        struct OldDiffTracker {
            degree: usize,
            /// Last `degree` raw values (enough to form the next difference).
            tail: Vec<i128>,
            count: usize,
            min_d: i128,
            max_d: i128,
        }

        impl OldDiffTracker {
            fn new(degree: usize) -> Self {
                Self {
                    degree,
                    tail: Vec::with_capacity(degree + 1),
                    count: 0,
                    min_d: i128::MAX,
                    max_d: i128::MIN,
                }
            }

            /// The `degree`-th order difference ending at `v`, given the previous
            /// `degree` values in `tail` (oldest first).
            fn diff_with(&self, v: i128) -> Option<i128> {
                if self.tail.len() < self.degree {
                    return if self.degree == 0 { Some(v) } else { None };
                }
                // Binomial expansion: Σ (-1)^k · C(d, k) · x_{last-k}
                let d = self.degree;
                let mut acc: i128 = 0;
                let mut coeff: i128 = 1;
                for k in 0..=d {
                    let x = if k == 0 {
                        v
                    } else {
                        self.tail[self.tail.len() - k]
                    };
                    acc += coeff * x;
                    // next coefficient: C(d,k+1)·(-1)^{k+1}
                    coeff = -coeff * (d as i128 - k as i128) / (k as i128 + 1);
                }
                Some(acc)
            }

            /// Δ width (bits) after hypothetically pushing `v`, without mutating.
            fn width_with(&self, v: i128) -> u8 {
                match self.diff_with(v) {
                    None => self.width(),
                    Some(d) => {
                        let min_d = self.min_d.min(d);
                        let max_d = self.max_d.max(d);
                        old_spread_bits(min_d, max_d)
                    }
                }
            }

            /// Current Δ width (bits).
            fn width(&self) -> u8 {
                if self.count == 0 || self.min_d > self.max_d {
                    0
                } else {
                    old_spread_bits(self.min_d, self.max_d)
                }
            }

            fn push(&mut self, v: i128) {
                if let Some(d) = self.diff_with(v) {
                    self.min_d = self.min_d.min(d);
                    self.max_d = self.max_d.max(d);
                }
                if self.degree > 0 {
                    self.tail.push(v);
                    if self.tail.len() > self.degree {
                        self.tail.remove(0);
                    }
                }
                self.count += 1;
            }
        }

        /// Bits needed to represent the spread `max − min` (saturating at 64).
        fn old_spread_bits(min_d: i128, max_d: i128) -> u8 {
            if min_d > max_d {
                return 0;
            }
            let spread = (max_d - min_d) as u128;
            if spread > u64::MAX as u128 {
                64
            } else {
                leco_bitpack::bits_for(spread as u64)
            }
        }

        /// Scores for the init phase: the bit width of the (degree+1)-th order
        /// difference ending at each position (0 for the first degree+1 positions).
        fn old_start_scores(values: &[u64], degree: usize) -> Vec<u8> {
            let order = degree + 1;
            let mut scores = vec![0u8; values.len()];
            if values.len() <= order {
                return scores;
            }
            // Difference triangle, computed iteratively.
            let mut current: Vec<i128> = values.iter().map(|&v| v as i128).collect();
            for _ in 0..order {
                for i in (1..current.len()).rev() {
                    current[i] -= current[i - 1];
                }
                current.remove(0);
            }
            for (i, &d) in current.iter().enumerate() {
                let mag = d.unsigned_abs();
                let bits = if mag > u64::MAX as u128 {
                    64
                } else {
                    leco_bitpack::bits_for(mag as u64)
                };
                scores[i + order] = bits;
            }
            scores
        }

        /// The split phase as it was before the in-place difference chain.
        pub(super) fn old_split_phase(
            values: &[u64],
            regressor: RegressorKind,
            tau: f64,
        ) -> Vec<Partition> {
            let n = values.len();
            let degree = proxy_degree(regressor);
            let min_len = (degree + 2).max(2);
            let threshold = tau * nominal_model_bits(regressor);
            let scores = old_start_scores(values, degree);

            let mut parts: Vec<Partition> = Vec::new();
            let mut i = 0usize;
            while i < n {
                // Init: if the immediate position is "bumpy", emit singletons until a
                // locally smooth start within the look-ahead window.
                if i > 0 && n - i > min_len + START_LOOKAHEAD {
                    let window_end = (i + START_LOOKAHEAD).min(n - min_len);
                    let best = (i..window_end).min_by_key(|&p| scores[p]).unwrap_or(i);
                    while i < best {
                        parts.push(Partition::new(i, 1));
                        i += 1;
                    }
                }
                let start = i;
                let end = (start + min_len).min(n);
                let mut tracker = OldDiffTracker::new(degree);
                for &v in &values[start..end] {
                    tracker.push(v as i128);
                }
                let mut j = end;
                while j < n {
                    let old_width = tracker.width() as f64;
                    let old_len = (j - start) as f64;
                    let new_width = tracker.width_with(values[j] as i128) as f64;
                    let cost = (old_len + 1.0) * new_width - old_len * old_width;
                    if cost <= threshold {
                        tracker.push(values[j] as i128);
                        j += 1;
                    } else {
                        break;
                    }
                }
                parts.push(Partition::new(start, j - start));
                i = j;
            }
            parts
        }
    }

    #[test]
    fn split_phase_matches_the_reference() {
        let mut columns: Vec<Vec<u64>> = Vec::new();
        for dataset in leco_datasets::IntDataset::ALL {
            for (n, seed) in [(1_000, 1), (10_000, 2), (65_536, 3)] {
                columns.push(leco_datasets::generate(dataset, n, seed));
            }
        }
        // Values past the i64 difference limit, the full u64 range, tiny inputs.
        let wide = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        columns.push((0..5_000u64).map(wide).collect());
        columns.push((0..5_000u64).map(|i| (1 << 58) - 2_500 + i).collect());
        columns.push((0..3_000u64).map(|i| u64::MAX - wide(i) % 1_000).collect());
        columns.extend((0..8usize).map(|n| (0..n as u64).map(|i| i * i).collect()));
        for values in &columns {
            for kind in [
                RegressorKind::Constant,
                RegressorKind::Linear,
                RegressorKind::Poly2,
                RegressorKind::Poly3,
            ] {
                for tau in [0.0, 0.1, 1.0] {
                    assert_eq!(
                        split_phase(values, kind, tau),
                        reference::old_split_phase(values, kind, tau),
                        "{kind:?} tau {tau} n {}",
                        values.len()
                    );
                }
            }
        }
    }
}
