//! In-memory segments: the mutable memtable and its frozen, immutable form.
//!
//! A [`MemSegment`] is plain column vectors. When it reaches the configured
//! row budget it is frozen: the column data moves behind an `Arc` and gains
//! an *alive* bitmask.
//! Frozen data never mutates — a delete produces a copy-on-write replacement
//! segment sharing the same column `Arc` with a narrower mask — so a scan
//! that cloned the segment list keeps seeing a consistent snapshot no matter
//! what commits after it.

use std::sync::Arc;

/// The mutable head of a live table: plain column vectors being appended.
#[derive(Debug)]
pub struct MemSegment {
    columns: Vec<Vec<u64>>,
}

impl MemSegment {
    /// An empty segment with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Self {
            columns: (0..ncols).map(|_| Vec::new()).collect(),
        }
    }

    /// Append one row; `row.len()` must equal the column count.
    pub fn push_row(&mut self, row: &[u64]) {
        debug_assert_eq!(row.len(), self.columns.len());
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v);
        }
    }

    /// Rows currently held.
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Whether the segment holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// The column vectors.
    pub fn columns(&self) -> &[Vec<u64>] {
        &self.columns
    }

    /// Remove every row whose `key_col` value equals `key`, returning how
    /// many rows were dropped.
    pub fn purge_key(&mut self, key_col: usize, key: u64) -> u64 {
        let keep: Vec<bool> = self.columns[key_col].iter().map(|&v| v != key).collect();
        let dropped = keep.iter().filter(|k| !**k).count() as u64;
        if dropped == 0 {
            return 0;
        }
        for col in &mut self.columns {
            let mut it = keep.iter();
            col.retain(|_| *it.next().unwrap());
        }
        dropped
    }

    /// Convert into an immutable [`FrozenSegment`] with every row alive.
    pub fn freeze(self, id: u64) -> FrozenSegment {
        let rows = self.rows();
        FrozenSegment {
            id,
            columns: Arc::new(self.columns),
            alive: AliveMask::all_set(rows),
        }
    }
}

/// Fixed-size bitmask over a frozen segment's rows; bit set = row alive.
#[derive(Debug, Clone)]
struct AliveMask {
    words: Vec<u64>,
    live: usize,
}

impl AliveMask {
    fn all_set(rows: usize) -> Self {
        let nwords = rows.div_ceil(64);
        let mut words = vec![u64::MAX; nwords];
        if !rows.is_multiple_of(64) {
            if let Some(w) = words.last_mut() {
                *w = (1u64 << (rows % 64)) - 1;
            }
        }
        Self { words, live: rows }
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn clear(&mut self, i: usize) {
        let w = &mut self.words[i / 64];
        if *w & (1 << (i % 64)) != 0 {
            *w &= !(1 << (i % 64));
            self.live -= 1;
        }
    }
}

/// An immutable, frozen segment: shared column data plus an alive mask.
#[derive(Debug, Clone)]
pub struct FrozenSegment {
    /// Stable identity, preserved across copy-on-write delete masking, so
    /// the compactor can tell which live-list entries correspond to the
    /// segments in its snapshot.
    pub id: u64,
    columns: Arc<Vec<Vec<u64>>>,
    alive: AliveMask,
}

impl FrozenSegment {
    /// Total rows (alive and dead).
    pub fn rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Rows still alive under the mask.
    pub fn live_rows(&self) -> usize {
        self.alive.live
    }

    /// Whether row `i` is alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive.get(i)
    }

    /// The shared column vectors (mask not applied).
    pub fn columns(&self) -> &[Vec<u64>] {
        &self.columns
    }

    /// Copy-on-write delete: a new segment sharing the same column data with
    /// every row whose `key_col` equals `key` masked out. `None` if no row
    /// matched (the caller keeps the original `Arc`).
    pub fn without_key(&self, key_col: usize, key: u64) -> Option<FrozenSegment> {
        let keys = &self.columns[key_col];
        let mut hit = false;
        let mut masked = self.clone(); // clones the mask, shares the columns
        for (i, &v) in keys.iter().enumerate() {
            if v == key && self.alive.get(i) {
                masked.alive.clear(i);
                hit = true;
            }
        }
        hit.then_some(masked)
    }

    /// Iterate the alive row indices in order.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.rows()).filter(|&i| self.alive.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment_with(rows: &[[u64; 3]]) -> MemSegment {
        let mut seg = MemSegment::new(3);
        for row in rows {
            seg.push_row(row);
        }
        seg
    }

    #[test]
    fn purge_drops_every_matching_row() {
        let mut seg = segment_with(&[[1, 10, 0], [2, 20, 0], [1, 30, 0], [3, 40, 0]]);
        assert_eq!(seg.purge_key(0, 1), 2);
        assert_eq!(seg.rows(), 2);
        assert_eq!(seg.columns()[0], vec![2, 3]);
        assert_eq!(seg.columns()[1], vec![20, 40]);
        assert_eq!(seg.purge_key(0, 99), 0);
    }

    #[test]
    fn frozen_cow_masking_leaves_the_original_untouched() {
        let frozen = segment_with(&[[1, 10, 0], [2, 20, 0], [1, 30, 0]]).freeze(7);
        assert_eq!(frozen.live_rows(), 3);
        let masked = frozen.without_key(0, 1).expect("two rows match");
        assert_eq!(masked.id, 7);
        assert_eq!(masked.live_rows(), 1);
        assert_eq!(masked.live_indices().collect::<Vec<_>>(), vec![1]);
        // Original snapshot unchanged; column data shared, not copied.
        assert_eq!(frozen.live_rows(), 3);
        assert!(Arc::ptr_eq(&frozen.columns, &masked.columns));
        assert!(masked.without_key(0, 99).is_none());
    }

    #[test]
    fn alive_mask_partial_last_word() {
        let mut seg = MemSegment::new(1);
        for i in 0..70u64 {
            seg.push_row(&[i]);
        }
        let frozen = seg.freeze(0);
        assert_eq!(frozen.live_rows(), 70);
        assert_eq!(frozen.live_indices().count(), 70);
        let masked = frozen.without_key(0, 69).unwrap();
        assert_eq!(masked.live_rows(), 69);
        assert!(!masked.is_alive(69));
    }
}
