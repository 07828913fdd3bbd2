//! A byte-budgeted LRU cache for data blocks.
//!
//! Mirrors the role of RocksDB's block cache: Figure 22 varies its capacity
//! to show how a smaller index footprint translates into a better data-block
//! hit ratio.
//!
//! Recency is a doubly-linked list threaded through a slab of entries and
//! indexed by the key map, so a hit, an insert and each eviction are O(1).
//! The list is a total order by last access, which makes the victims exactly
//! those of a least-`last_used` scan (the test module keeps that scan as a
//! reference model and checks the two against each other).

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Key identifying a cached block: (sstable id, byte offset of the block).
pub type BlockKey = (u32, u64);

/// End-of-list marker for slab links.
const NIL: usize = usize::MAX;

struct Entry {
    key: BlockKey,
    /// `None` while the slot sits on the free list.
    data: Option<Arc<Vec<u8>>>,
    /// Neighbour towards the most recently used end.
    newer: usize,
    /// Neighbour towards the least recently used end.
    older: usize,
}

struct Inner {
    map: HashMap<BlockKey, usize>,
    slab: Vec<Entry>,
    free: Vec<usize>,
    /// Most recently used entry.
    newest: usize,
    /// Least recently used entry: the next victim.
    oldest: usize,
    used_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Inner {
    fn unlink(&mut self, i: usize) {
        let (newer, older) = (self.slab[i].newer, self.slab[i].older);
        match newer {
            NIL => self.newest = older,
            n => self.slab[n].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o].newer = newer,
        }
    }

    fn push_newest(&mut self, i: usize) {
        self.slab[i].newer = NIL;
        self.slab[i].older = self.newest;
        match self.newest {
            NIL => self.oldest = i,
            n => self.slab[n].newer = i,
        }
        self.newest = i;
    }

    fn alloc(&mut self, key: BlockKey, data: Arc<Vec<u8>>) -> usize {
        let entry = Entry {
            key,
            data: Some(data),
            newer: NIL,
            older: NIL,
        };
        match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        }
    }
}

/// Thread-safe LRU cache with a byte budget.
pub struct BlockCache {
    inner: Mutex<Inner>,
    capacity_bytes: usize,
}

impl BlockCache {
    /// Create a cache with the given capacity in bytes.
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                newest: NIL,
                oldest: NIL,
                used_bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity_bytes,
        }
    }

    /// Capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Look up a block, updating recency and hit statistics.
    pub fn get(&self, key: &BlockKey) -> Option<Arc<Vec<u8>>> {
        let mut inner = self.inner.lock();
        match inner.map.get(key).copied() {
            Some(i) => {
                inner.unlink(i);
                inner.push_newest(i);
                inner.hits += 1;
                leco_obs::counter!("kv.cache.hits").inc();
                inner.slab[i].data.clone()
            }
            None => {
                inner.misses += 1;
                leco_obs::counter!("kv.cache.misses").inc();
                None
            }
        }
    }

    /// Insert a block, evicting least-recently-used entries until the budget
    /// is respected.  Blocks larger than the whole budget are not cached.
    pub fn insert(&self, key: BlockKey, data: Arc<Vec<u8>>) {
        let size = data.len();
        if size > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        match inner.map.get(&key).copied() {
            Some(i) => {
                // Replacement: new bytes, most recent, not an eviction.
                let old = inner.slab[i].data.replace(data).map_or(0, |d| d.len());
                inner.used_bytes -= old;
                inner.unlink(i);
                inner.push_newest(i);
            }
            None => {
                let i = inner.alloc(key, data);
                inner.map.insert(key, i);
                inner.push_newest(i);
            }
        }
        inner.used_bytes += size;
        while inner.used_bytes > self.capacity_bytes {
            // The entry just inserted is the newest and fits on its own, so
            // the oldest is never it.
            let victim = inner.oldest;
            inner.unlink(victim);
            let entry = &mut inner.slab[victim];
            let (victim_key, data) = (entry.key, entry.data.take());
            inner.used_bytes -= data.map_or(0, |d| d.len());
            inner.map.remove(&victim_key);
            inner.free.push(victim);
            inner.evictions += 1;
            leco_obs::counter!("kv.cache.evictions").inc();
        }
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }

    /// Entries evicted to respect the byte budget (replacements of an
    /// existing key are not evictions).
    pub fn eviction_count(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Bytes currently cached.
    pub fn used_bytes(&self) -> usize {
        self.inner.lock().used_bytes
    }

    /// Cached keys, most recently used first.
    #[cfg(test)]
    fn keys_by_recency(&self) -> Vec<BlockKey> {
        let inner = self.inner.lock();
        let mut keys = Vec::with_capacity(inner.map.len());
        let mut i = inner.newest;
        while i != NIL {
            keys.push(inner.slab[i].key);
            i = inner.slab[i].older;
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn hit_and_miss_accounting() {
        let cache = BlockCache::new(1_000);
        assert!(cache.get(&(0, 0)).is_none());
        cache.insert((0, 0), Arc::new(vec![1u8; 100]));
        assert!(cache.get(&(0, 0)).is_some());
        let (hits, misses) = cache.stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn evicts_lru_when_over_budget() {
        let cache = BlockCache::new(250);
        cache.insert((0, 0), Arc::new(vec![0u8; 100]));
        cache.insert((0, 1), Arc::new(vec![0u8; 100]));
        // Touch block 0 so block 1 becomes the LRU victim.
        cache.get(&(0, 0));
        cache.insert((0, 2), Arc::new(vec![0u8; 100]));
        assert!(cache.get(&(0, 0)).is_some());
        assert!(cache.get(&(0, 1)).is_none());
        assert!(cache.get(&(0, 2)).is_some());
        assert!(cache.used_bytes() <= 250);
        assert_eq!(cache.eviction_count(), 1);
    }

    #[test]
    fn hit_rate_tracks_working_set_vs_capacity() {
        // Working set fits: after one cold pass, every access hits.
        let fits = BlockCache::new(16 * 128);
        for round in 0..4u64 {
            for i in 0..16u64 {
                if fits.get(&(0, i)).is_none() {
                    assert_eq!(round, 0, "only the first pass may miss");
                    fits.insert((0, i), Arc::new(vec![0u8; 128]));
                }
            }
        }
        let (hits, misses) = fits.stats();
        assert_eq!((hits, misses), (48, 16));
        assert_eq!(fits.eviction_count(), 0);
        assert!(hits as f64 / (hits + misses) as f64 >= 0.74);

        // Working set 2x capacity with LRU + sequential sweep: pathological,
        // every access evicts the block that will be needed furthest ahead
        // of never — the classic 0% hit rate.
        let thrash = BlockCache::new(16 * 128);
        for _ in 0..4u64 {
            for i in 0..32u64 {
                if thrash.get(&(0, i)).is_none() {
                    thrash.insert((0, i), Arc::new(vec![0u8; 128]));
                }
            }
        }
        let (hits, misses) = thrash.stats();
        assert_eq!(hits, 0, "sequential sweep over 2x capacity never hits");
        assert_eq!(misses, 128);
        assert_eq!(thrash.eviction_count(), 128 - 16);
    }

    #[test]
    fn oversized_blocks_are_not_cached() {
        let cache = BlockCache::new(50);
        cache.insert((1, 1), Arc::new(vec![0u8; 100]));
        assert!(cache.get(&(1, 1)).is_none());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn reinsert_replaces_and_keeps_budget() {
        let cache = BlockCache::new(300);
        cache.insert((0, 0), Arc::new(vec![0u8; 200]));
        cache.insert((0, 0), Arc::new(vec![0u8; 250]));
        assert_eq!(cache.used_bytes(), 250);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = Arc::new(BlockCache::new(10_000));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let c = cache.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..500u64 {
                    c.insert((t, i % 16), Arc::new(vec![t as u8; 128]));
                    c.get(&(t, i % 16));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.used_bytes() <= 10_000);
    }

    /// The cache this module used to ship: every access stamps a monotonic
    /// tick, and eviction scans the whole map for the smallest one.
    struct ReferenceCache {
        map: HashMap<BlockKey, (usize, u64)>,
        capacity_bytes: usize,
        used_bytes: usize,
        tick: u64,
        hits: u64,
        misses: u64,
        evicted: Vec<BlockKey>,
    }

    impl ReferenceCache {
        fn new(capacity_bytes: usize) -> Self {
            Self {
                map: HashMap::new(),
                capacity_bytes,
                used_bytes: 0,
                tick: 0,
                hits: 0,
                misses: 0,
                evicted: Vec::new(),
            }
        }

        fn get(&mut self, key: &BlockKey) -> Option<usize> {
            self.tick += 1;
            match self.map.get_mut(key) {
                Some((size, last_used)) => {
                    *last_used = self.tick;
                    self.hits += 1;
                    Some(*size)
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: BlockKey, size: usize) {
            if size > self.capacity_bytes {
                return;
            }
            self.tick += 1;
            if let Some((old, _)) = self.map.insert(key, (size, self.tick)) {
                self.used_bytes -= old;
            }
            self.used_bytes += size;
            while self.used_bytes > self.capacity_bytes {
                let victim = *self
                    .map
                    .iter()
                    .min_by_key(|(_, &(_, last_used))| last_used)
                    .map(|(k, _)| k)
                    .unwrap();
                let (size, _) = self.map.remove(&victim).unwrap();
                self.used_bytes -= size;
                self.evicted.push(victim);
            }
        }

        fn keys_by_recency(&self) -> Vec<BlockKey> {
            let mut keys: Vec<(u64, BlockKey)> =
                self.map.iter().map(|(k, &(_, t))| (t, *k)).collect();
            keys.sort_unstable_by(|a, b| b.cmp(a));
            keys.into_iter().map(|(_, k)| k).collect()
        }
    }

    /// Random get / insert / replace / oversize sequences under small byte
    /// budgets: both caches must agree on every hit, miss and eviction, the
    /// evicted keys, the bytes held and the full recency order.
    #[test]
    fn lru_matches_min_last_used_reference() {
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = rng.gen_range(64..2_048usize);
            let key_space = rng.gen_range(2..48u64);
            let cache = BlockCache::new(capacity);
            let mut reference = ReferenceCache::new(capacity);
            for step in 0..3_000 {
                let key = (rng.gen_range(0..2u32), rng.gen_range(0..key_space));
                let before = cache.keys_by_recency();
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        let got = cache.get(&key).map(|d| d.len());
                        assert_eq!(got, reference.get(&key), "seed {seed} step {step}");
                    }
                    choice => {
                        let size = match choice {
                            // Oversize: never cached, never evicts.
                            9 => capacity + rng.gen_range(1..64usize),
                            _ => rng.gen_range(1..=capacity / 2),
                        };
                        cache.insert(key, Arc::new(vec![0u8; size]));
                        let evicted_before = reference.evicted.len();
                        reference.insert(key, size);
                        let after = cache.keys_by_recency();
                        let mut evicted: Vec<BlockKey> = before
                            .iter()
                            .filter(|k| !after.contains(k))
                            .copied()
                            .collect();
                        let mut want = reference.evicted[evicted_before..].to_vec();
                        evicted.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(evicted, want, "seed {seed} step {step}: victims");
                    }
                }
                assert_eq!(
                    cache.keys_by_recency(),
                    reference.keys_by_recency(),
                    "seed {seed} step {step}: recency order"
                );
                assert_eq!(cache.used_bytes(), reference.used_bytes);
                assert_eq!(cache.stats(), (reference.hits, reference.misses));
                assert_eq!(cache.eviction_count(), reference.evicted.len() as u64);
                assert!(cache.used_bytes() <= capacity);
            }
        }
    }
}
