//! The read table: one compact record per partition that every read path of
//! a [`CompressedColumn`](crate::CompressedColumn) goes through.
//!
//! Nothing here is serialized.  The table is derived wherever the partition
//! starts and payload bit offsets always were — `format::from_bytes` and the
//! encoder — in O(partitions) with no per-value work.  Per partition it
//! holds the start and length, the bit offset and width, the prediction in
//! the form the fast routes evaluate it (`θ0`, `θ1` and a wrapping `u64`
//! base), and the partition's value envelope, so `get`, `decode_range_into`
//! and `filter_range_pushdown` read one 64-byte record instead of the
//! `Model` enum.  A power-of-two [`BucketIndex`] locates the partition of a
//! position when partitions are not all the same length.

use crate::column::PartitionMeta;
use crate::model::{floor_to_i64, linear_fits_i64, Model};

/// How a partition's predictions are evaluated on the read paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Constant model: every prediction is `base` (`θ0 = θ1 = 0`).
    Constant,
    /// Linear model passing [`linear_fits_i64`]: the prediction is
    /// `floor_to_i64(θ0 + θ1·i) + base` in wrapping `u64`.
    Linear,
    /// Every other partition: `Model::predict_floor` on the stored model.
    Model,
}

/// One partition's read-side record.
///
/// `[zlo, zhi]` bounds every value of the partition: the model's
/// `predict_floor` at its two ends (the smaller plus `bias` below, the
/// larger plus `bias + 2^width − 1` above), clamped into the `u64` range.
/// It is derived only for monotone models (`Model::monotone`), where the
/// ends are the extremes; otherwise it is `[0, u64::MAX]`, which no
/// predicate is disjoint from.  `exact_envelope` says no clamping happened,
/// which containment in a predicate needs (clamping may only make the
/// shortcut more conservative).
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(align(64))]
pub(crate) struct ReadEntry {
    /// Logical index of the first value.
    pub start: u64,
    /// Bit offset of the packed deltas inside the shared payload.
    pub bit_offset: u64,
    /// Intercept of the [`Route::Linear`] prediction (0 otherwise).
    pub theta0: f64,
    /// Slope of the [`Route::Linear`] prediction (0 otherwise).
    pub theta1: f64,
    /// Added to the prediction and the packed delta in wrapping `u64`:
    /// `bias` for linear partitions, `predict_floor(0) + bias` for constant
    /// ones, unused by [`Route::Model`].
    pub base: u64,
    /// Lower end of the value envelope.
    pub zlo: u64,
    /// Upper end of the value envelope.
    pub zhi: u64,
    /// Number of values.
    pub len: u32,
    /// Bits per packed delta.
    pub width: u8,
    /// Prediction route.
    pub route: Route,
    /// `[zlo, zhi]` is the unclamped envelope of a monotone model.
    pub exact_envelope: bool,
}

// One cache line per partition: the budget the read paths are built around.
const _: () = assert!(std::mem::size_of::<ReadEntry>() == 64);

impl ReadEntry {
    fn derive(p: &PartitionMeta, start: u64, bit_offset: u64) -> Self {
        let len = p.len as usize;
        // `predict_floor` at the partition's two ends, for the envelope.
        let ends: (i128, i128);
        let (route, theta0, theta1, base) = match p.model {
            Model::Constant { .. } => {
                let floor = p.model.predict_floor(0);
                ends = (floor, floor);
                (Route::Constant, 0.0, 0.0, floor.wrapping_add(p.bias) as u64)
            }
            Model::Linear { theta0, theta1 } if linear_fits_i64(theta0, theta1, len) => {
                // Exact: `floor_to_i64` is `predict_floor` wherever the
                // line fits (see `linear_fits_i64`).
                let floor = |i: usize| floor_to_i64(theta0 + theta1 * i as f64) as i128;
                ends = (floor(0), floor(len.saturating_sub(1)));
                (Route::Linear, theta0, theta1, p.bias as u64)
            }
            _ => {
                ends = (
                    p.model.predict_floor(0),
                    p.model.predict_floor(len.saturating_sub(1)),
                );
                (Route::Model, 0.0, 0.0, 0)
            }
        };
        let (zlo, zhi, exact_envelope) = match envelope(p, ends) {
            Some((lo, hi)) => {
                let clamp = |v: i128| v.clamp(0, u64::MAX as i128) as u64;
                (clamp(lo), clamp(hi), lo >= 0 && hi <= u64::MAX as i128)
            }
            None => (0, u64::MAX, false),
        };
        Self {
            start,
            bit_offset,
            theta0,
            theta1,
            base,
            zlo,
            zhi,
            len: p.len,
            width: p.width,
            route,
            exact_envelope,
        }
    }

    /// No value of the partition can satisfy `lo <= v <= hi`.
    #[inline]
    pub fn disjoint_from(&self, lo: u64, hi: u64) -> bool {
        self.zhi < lo || self.zlo > hi
    }

    /// Every value of the partition satisfies `lo <= v <= hi`.
    #[inline]
    pub fn contained_in(&self, lo: u64, hi: u64) -> bool {
        self.exact_envelope && lo <= self.zlo && self.zhi <= hi
    }
}

/// The exact `i128` value envelope of a non-empty monotone partition whose
/// `predict_floor` is `a` and `b` at its two ends, or `None` when the model
/// is not monotone or the arithmetic would leave the range in which
/// `Model::invert_range` computes its thresholds exactly — those partitions
/// always take the inversion.
fn envelope(p: &PartitionMeta, (a, b): (i128, i128)) -> Option<(i128, i128)> {
    p.model.monotone()?;
    if p.len == 0 || p.bias.unsigned_abs() > 1 << 126 {
        return None;
    }
    let slack = if p.width >= 64 {
        u64::MAX
    } else {
        (1u64 << p.width) - 1
    };
    let lo = a.min(b).checked_add(p.bias)?;
    let hi = a.max(b).checked_add(p.bias)?.checked_add(slack as i128)?;
    Some((lo, hi))
}

/// Power-of-two bucket index over the non-decreasing start positions of a
/// partition sequence covering `0..len`: `first[b]` is the partition holding
/// position `b << shift`, so the partition holding `i` lies in
/// `first[i >> shift] ..= first[(i >> shift) + 1]` (the last entry is a
/// sentinel, the last partition).  There are at least two buckets per
/// partition (fewer than four, one `u32` each), so that range is almost
/// always a single partition; a short binary search settles the rest,
/// bounded by the next bucket's entry however skewed the lengths.
///
/// Shared by LeCo columns with variable-length partitions and
/// [`DeltaVarColumn`](crate::delta_var::DeltaVarColumn).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct BucketIndex {
    shift: u32,
    first: Vec<u32>,
}

impl BucketIndex {
    /// Index `parts` partitions covering `0..len`; `start_of(k)` is the start
    /// of partition `k` (non-decreasing in `k`, 0 for `k = 0`).
    pub fn new(parts: usize, len: u64, start_of: impl Fn(usize) -> u64) -> Self {
        if parts == 0 || len == 0 {
            return Self::default();
        }
        // The widest power-of-two bucket that still leaves two buckets per
        // partition: 2·parts ≤ buckets ≤ 4·parts unless every bucket is a
        // single position.
        let mut shift = 0;
        while len >> (shift + 1) >= 2 * parts as u64 {
            shift += 1;
        }
        let used = (((len - 1) >> shift) + 1) as usize;
        let index = |k: usize| u32::try_from(k).expect("partition count fits u32");
        let mut first = Vec::with_capacity(used + 1);
        for k in 1..parts {
            // Buckets starting before partition `k` belong to `k - 1`.
            let before = start_of(k).div_ceil(1 << shift).min(used as u64);
            first.resize(before as usize, index(k - 1));
        }
        first.resize(used, index(parts - 1));
        first.push(index(parts - 1));
        Self { shift, first }
    }

    /// The last partition whose start is `<= i`, for `i < len`.
    #[inline]
    pub fn locate(&self, i: usize, start_of: impl Fn(usize) -> usize) -> usize {
        let b = i >> self.shift;
        let (mut lo, mut hi) = (self.first[b] as usize, self.first[b + 1] as usize);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if start_of(mid) <= i {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }
}

/// How a position is mapped to its partition.
#[derive(Debug, Clone, PartialEq)]
enum Locator {
    /// Every partition but the last holds exactly this many values, the last
    /// at most as many (validated by `format::from_bytes`).
    Fixed(usize),
    /// Variable-length partitions.
    Buckets(BucketIndex),
}

/// The read table of one column: a [`ReadEntry`] per partition plus the
/// position → partition locator.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReadTable {
    pub entries: Vec<ReadEntry>,
    locator: Locator,
}

impl ReadTable {
    /// Derive the table of a column of `len` values over `partitions`, whose
    /// lengths sum to `len` and whose `len · width` products sum to the
    /// payload size (both checked by the caller).
    pub fn derive(partitions: &[PartitionMeta], len: usize, fixed_len: Option<usize>) -> Self {
        let mut entries = Vec::with_capacity(partitions.len());
        let (mut start, mut bit_offset) = (0u64, 0u64);
        for p in partitions {
            entries.push(ReadEntry::derive(p, start, bit_offset));
            start += p.len as u64;
            bit_offset += p.len as u64 * p.width as u64;
        }
        let locator = match fixed_len {
            Some(l) => Locator::Fixed(l),
            None => Locator::Buckets(BucketIndex::new(entries.len(), len as u64, |k| {
                entries[k].start
            })),
        };
        Self { entries, locator }
    }

    /// Index of the partition holding position `i < len`.
    #[inline]
    pub fn partition_of(&self, i: usize) -> usize {
        match &self.locator {
            Locator::Fixed(l) => i / l,
            Locator::Buckets(index) => index.locate(i, |k| self.entries[k].start as usize),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Locate every position of a skewed length mix by brute force.
    #[test]
    fn bucket_index_locates_every_position() {
        let mixes: [&[u64]; 5] = [
            &[1],
            &[5, 1, 1, 1, 1, 1, 1, 1000, 1, 2],
            &[1; 37],
            &[4096, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3],
            &[3, 0, 0, 4, 0, 9],
        ];
        for lens in mixes {
            let starts: Vec<u64> = lens
                .iter()
                .scan(0, |s, &l| {
                    let start = *s;
                    *s += l;
                    Some(start)
                })
                .collect();
            let len: u64 = lens.iter().sum();
            let index = BucketIndex::new(starts.len(), len, |k| starts[k]);
            for i in 0..len as usize {
                let want = starts.partition_point(|&s| s as usize <= i) - 1;
                assert_eq!(
                    index.locate(i, |k| starts[k] as usize),
                    want,
                    "{lens:?} at {i}"
                );
            }
        }
    }
}
