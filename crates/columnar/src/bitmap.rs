//! Selection bitmaps used for late materialisation.
//!
//! Filters produce a [`Bitmap`] over row positions; downstream operators
//! (group-by, aggregation) consult the bitmap. On a selective query they
//! decode only the qualifying positions, which is what makes
//! random-access-friendly encodings such as FOR and LeCo shine (§5.1); on a
//! dense one they walk the bitmap's runs ([`Bitmap::for_each_run_in`]) over
//! a bulk-decoded chunk.

/// A fixed-length bitmap over row positions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// All-zeros bitmap of `len` bits.
    pub fn new(len: usize) -> Self {
        Self {
            words: vec![0u64; leco_bitpack::div_ceil(len, 64)],
            len,
        }
    }

    /// All-ones bitmap of `len` bits.
    pub fn all_set(len: usize) -> Self {
        let mut b = Self::new(len);
        b.set_range(0, len);
        b
    }

    /// Clear every bit and resize to `len` positions, reusing the existing
    /// word buffer — per-morsel scratch bitmaps are reset this way so a scan
    /// allocates once per worker, not once per row group.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(leco_bitpack::div_ceil(len, 64), 0);
        self.len = len;
    }

    /// Number of positions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers no positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set position `i`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Get position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set every position in `[from, to)`.  Whole 64-bit words inside the
    /// range are filled in one store each, so setting a dense span (a sorted
    /// filter's hit range, or an unfiltered morsel) costs O(words), not
    /// O(bits).
    pub fn set_range(&mut self, from: usize, to: usize) {
        let to = to.min(self.len);
        if from >= to {
            return;
        }
        let (w0, w1, head, tail) = word_span(from, to);
        if w0 == w1 {
            self.words[w0] |= head & tail;
        } else {
            self.words[w0] |= head;
            for w in &mut self.words[w0 + 1..w1] {
                *w = u64::MAX;
            }
            self.words[w1] |= tail;
        }
    }

    /// OR `nbits` (at most 64) selection bits of `mask` into positions
    /// `pos..pos + nbits` (bit `k` of `mask` lands at position `pos + k`).
    ///
    /// This is how the packed-domain filter kernels publish their per-block
    /// masks: one or two word ORs per 64 rows, at arbitrary (unaligned) bit
    /// positions.  Bits of `mask` at and above `nbits` are ignored.
    #[inline]
    pub fn or_mask_at(&mut self, pos: usize, mask: u64, nbits: usize) {
        debug_assert!(nbits <= 64 && pos + nbits <= self.len);
        if nbits == 0 {
            return;
        }
        let mask = if nbits == 64 {
            mask
        } else {
            mask & ((1u64 << nbits) - 1)
        };
        let (w, off) = (pos / 64, pos % 64);
        self.words[w] |= mask << off;
        if off != 0 && off + nbits > 64 {
            self.words[w + 1] |= mask >> (64 - off);
        }
    }

    /// Number of set positions.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Selectivity = set positions / total positions.
    pub fn selectivity(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count_ones() as f64 / self.len as f64
        }
    }

    /// Number of set positions in `[from, to)` — used by the scan kernels to
    /// decide between per-position random access and a bulk row-group decode.
    pub fn count_ones_in(&self, from: usize, to: usize) -> usize {
        let to = to.min(self.len);
        if from >= to {
            return 0;
        }
        let (w0, w1, head, tail) = word_span(from, to);
        if w0 == w1 {
            return (self.words[w0] & head & tail).count_ones() as usize;
        }
        let inner: usize = self.words[w0 + 1..w1]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        (self.words[w0] & head).count_ones() as usize
            + inner
            + (self.words[w1] & tail).count_ones() as usize
    }

    /// True if no position in `[from, to)` is set — used for row-group
    /// skipping.  Early-exits at the first set bit.
    pub fn all_zero_in(&self, from: usize, to: usize) -> bool {
        self.iter_ones_in(from, to).next().is_none()
    }

    /// Intersect with another bitmap of the same length.
    pub fn and(&mut self, other: &Bitmap) {
        assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Iterate over set positions in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(w_idx, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w_idx * 64 + tz)
                })
            })
            .filter(move |&i| i < self.len)
    }

    /// Iterate over the set positions in `[from, to)` in increasing order,
    /// visiting only the words that overlap the range — so a scan that walks
    /// row groups pays O(range) per group instead of re-skipping the whole
    /// bitmap prefix every time.
    pub fn iter_ones_in(&self, from: usize, to: usize) -> impl Iterator<Item = usize> + '_ {
        let to = to.min(self.len);
        let from = from.min(to);
        let w0 = from / 64;
        let w1 = to.div_ceil(64);
        self.words[w0..w1]
            .iter()
            .enumerate()
            .flat_map(move |(k, &w)| {
                let w_idx = w0 + k;
                let mut bits = w;
                if w_idx == w0 {
                    bits &= u64::MAX << (from % 64);
                }
                std::iter::from_fn(move || {
                    if bits == 0 {
                        return None;
                    }
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(w_idx * 64 + tz)
                })
            })
            .filter(move |&i| i < to)
    }

    /// Call `f(start, end)` for every maximal run of set positions inside
    /// `[from, to)`, in increasing order; `end` is exclusive.
    ///
    /// Works a word at a time: a full word extends the open run without
    /// looking at its bits, and inside a mixed word each run costs two
    /// bit scans. A run that crosses a word edge is reported once. This is
    /// what lets the aggregation kernels loop over contiguous slices of a
    /// decoded buffer instead of over single positions.
    pub fn for_each_run_in(&self, from: usize, to: usize, mut f: impl FnMut(usize, usize)) {
        let to = to.min(self.len);
        if from >= to {
            return;
        }
        let (w0, w1, head, tail) = word_span(from, to);
        // Start of a run that reached the top bit of the previous word.
        let mut open: Option<usize> = None;
        for w in w0..=w1 {
            let mut bits = self.words[w];
            if w == w0 {
                bits &= head;
            }
            if w == w1 {
                bits &= tail;
            }
            let base = w * 64;
            if bits == u64::MAX {
                open.get_or_insert(base);
                continue;
            }
            if let Some(start) = open.take() {
                // `bits` is not all ones, so the open run ends in this word.
                let ones = bits.trailing_ones();
                f(start, base + ones as usize);
                bits &= u64::MAX << ones;
            }
            while bits != 0 {
                let lo = bits.trailing_zeros();
                let hi = lo + (bits >> lo).trailing_ones();
                if hi == 64 {
                    open = Some(base + lo as usize);
                    break;
                }
                f(base + lo as usize, base + hi as usize);
                bits &= u64::MAX << hi;
            }
        }
        if let Some(start) = open {
            // Only a run that reaches bit 63 of the last word stays open, and
            // `tail` keeps that bit only when `to` ends the word.
            f(start, to);
        }
    }
}

/// Word indices and edge masks of the non-empty position range `[from, to)`:
/// the first and last word it touches, the bits of the first word at and
/// above `from`, and the bits of the last word below `to`.
fn word_span(from: usize, to: usize) -> (usize, usize, u64, u64) {
    debug_assert!(from < to);
    let (w0, w1) = (from / 64, (to - 1) / 64);
    (
        w0,
        w1,
        u64::MAX << (from % 64),
        u64::MAX >> (63 - (to - 1) % 64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn set_get_count() {
        let mut b = Bitmap::new(200);
        b.set(0);
        b.set(63);
        b.set(64);
        b.set(199);
        assert_eq!(b.count_ones(), 4);
        assert!(b.get(63) && b.get(64));
        assert!(!b.get(65));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 199]);
    }

    #[test]
    fn range_and_skip_detection() {
        let mut b = Bitmap::new(1_000);
        b.set_range(300, 400);
        assert!(b.all_zero_in(0, 300));
        assert!(!b.all_zero_in(250, 350));
        assert!(b.all_zero_in(400, 1_000));
        assert_eq!(b.count_ones(), 100);
        assert!((b.selectivity() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn and_intersects() {
        let mut a = Bitmap::new(128);
        a.set_range(0, 100);
        let mut b = Bitmap::new(128);
        b.set_range(50, 128);
        a.and(&b);
        assert_eq!(a.iter_ones().count(), 50);
        assert!(a.get(50) && a.get(99) && !a.get(100) && !a.get(49));
    }

    proptest! {
        #[test]
        fn prop_or_mask_matches_per_bit_loop(
            len in 1usize..400,
            pos in 0usize..336,
            nbits in 0usize..65,
            mask in any::<u64>(),
        ) {
            let pos = pos.min(len);
            let nbits = nbits.min(len - pos);
            let mut fast = Bitmap::new(len);
            fast.or_mask_at(pos, mask, nbits);
            let mut slow = Bitmap::new(len);
            for k in 0..nbits {
                if (mask >> k) & 1 == 1 {
                    slow.set(pos + k);
                }
            }
            prop_assert_eq!(fast, slow);
        }

        #[test]
        fn prop_set_range_matches_per_bit_loop(
            len in 1usize..400,
            from in 0usize..420,
            span in 0usize..300,
        ) {
            let mut fast = Bitmap::new(len);
            fast.set_range(from, from + span);
            let mut slow = Bitmap::new(len);
            for i in from..(from + span).min(len) {
                slow.set(i);
            }
            prop_assert_eq!(fast, slow);
            let mut all = Bitmap::new(len);
            for i in 0..len {
                all.set(i);
            }
            prop_assert_eq!(Bitmap::all_set(len), all);
        }
    }

    #[test]
    fn reset_reuses_buffer_and_clears_bits() {
        let mut b = Bitmap::new(100);
        b.set_range(0, 100);
        b.reset(300);
        assert_eq!(b.len(), 300);
        assert_eq!(b.count_ones(), 0);
        b.set(299);
        b.reset(10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn all_set_and_empty() {
        let b = Bitmap::all_set(77);
        assert_eq!(b.count_ones(), 77);
        let e = Bitmap::new(0);
        assert!(e.is_empty());
        assert_eq!(e.selectivity(), 0.0);
    }

    #[test]
    fn ranged_iteration_and_count() {
        let mut b = Bitmap::new(300);
        for p in [0usize, 63, 64, 65, 128, 200, 299] {
            b.set(p);
        }
        for (from, to) in [
            (0, 300),
            (0, 0),
            (64, 65),
            (63, 129),
            (65, 65),
            (201, 300),
            (64, 64),
        ] {
            let got: Vec<usize> = b.iter_ones_in(from, to).collect();
            let expected: Vec<usize> = b.iter_ones().filter(|&p| p >= from && p < to).collect();
            assert_eq!(got, expected, "range {from}..{to}");
            assert_eq!(
                b.count_ones_in(from, to),
                expected.len(),
                "range {from}..{to}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_iter_matches_get(positions in proptest::collection::btree_set(0usize..500, 0..60)) {
            let mut b = Bitmap::new(500);
            for &p in &positions {
                b.set(p);
            }
            let from_iter: Vec<usize> = b.iter_ones().collect();
            let expected: Vec<usize> = positions.into_iter().collect();
            prop_assert_eq!(from_iter, expected);
        }

        #[test]
        fn prop_ranged_iter_matches_filtered_full_iter(
            // Up to 450 of 500 positions, so the head and tail words of a
            // range are often dense.
            positions in proptest::collection::btree_set(0usize..500, 0..450),
            from in 0usize..520,
            span in 0usize..200,
        ) {
            let mut b = Bitmap::new(500);
            for &p in &positions {
                b.set(p);
            }
            let to = from + span;
            let got: Vec<usize> = b.iter_ones_in(from, to).collect();
            let expected: Vec<usize> = b.iter_ones().filter(|&p| p >= from && p < to).collect();
            prop_assert_eq!(b.count_ones_in(from, to), expected.len());
            prop_assert_eq!(got, expected);
        }
    }
}
