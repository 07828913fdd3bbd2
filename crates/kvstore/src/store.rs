//! The store: SSTable file, index block, block cache and the seek path.
//!
//! `Store::load` lays sorted records out into 4 KB data blocks inside a
//! single SSTable file and builds one index block in the configured format.
//! `Store::seek` follows the RocksDB read path the paper measures: search the
//! index block for the candidate data block, fetch it from the block cache or
//! the file, then scan the block for the first record `>= key`.
//!
//! Every method takes `&self`: one `Store` behind an `Arc` serves any number
//! of threads.  Cache misses are positioned reads on the one descriptor
//! opened at load, so concurrent misses never contend on a seek cursor.

use crate::block::{read_record, seek_in_block, BlockBuilder};
use crate::cache::{BlockCache, BlockKey};
use crate::index::{BlockHandle, IndexBlock, IndexBlockFormat};
use std::fs::File;
use std::io::Write;
#[cfg(not(unix))]
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Store construction options.
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Index block format.
    pub index_format: IndexBlockFormat,
    /// Block cache capacity in bytes.
    pub block_cache_bytes: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            index_format: IndexBlockFormat::RestartInterval(1),
            block_cache_bytes: 64 << 20,
        }
    }
}

/// A loaded, immutable key-value store.
pub struct Store {
    file: PositionedFile,
    index: IndexBlock,
    cache: BlockCache,
    options: StoreOptions,
    num_records: usize,
    data_bytes: u64,
    /// Number of data-block reads that went to the file (cache misses).
    disk_reads: AtomicU64,
}

impl Store {
    /// Build a store at `path` from records sorted by key.
    pub fn load<P: AsRef<Path>>(
        path: P,
        records: &[(Vec<u8>, Vec<u8>)],
        options: StoreOptions,
    ) -> std::io::Result<Self> {
        debug_assert!(
            records.windows(2).all(|w| w[0].0 <= w[1].0),
            "records must be sorted"
        );
        let mut file = File::create(path.as_ref())?;
        let mut builder = BlockBuilder::new();
        let mut index_entries: Vec<(Vec<u8>, BlockHandle)> = Vec::new();
        let mut offset = 0u64;
        let flush = |builder: &mut BlockBuilder,
                     file: &mut File,
                     offset: &mut u64,
                     entries: &mut Vec<(Vec<u8>, BlockHandle)>|
         -> std::io::Result<()> {
            if builder.entries() == 0 {
                return Ok(());
            }
            let first_key = builder.first_key().to_vec();
            let block = builder.finish();
            file.write_all(&block)?;
            entries.push((
                first_key,
                BlockHandle {
                    offset: *offset,
                    size: block.len() as u32,
                },
            ));
            *offset += block.len() as u64;
            Ok(())
        };
        for (key, value) in records {
            let entry_size = key.len() + value.len() + 6;
            if builder.is_full(entry_size) {
                flush(&mut builder, &mut file, &mut offset, &mut index_entries)?;
            }
            builder.add(key, value);
        }
        flush(&mut builder, &mut file, &mut offset, &mut index_entries)?;
        file.flush()?;
        let index = IndexBlock::build(&index_entries, options.index_format);
        Ok(Self {
            file: PositionedFile::open(path.as_ref())?,
            index,
            cache: BlockCache::new(options.block_cache_bytes),
            options,
            num_records: records.len(),
            data_bytes: offset,
            disk_reads: AtomicU64::new(0),
        })
    }

    /// Number of records loaded.
    pub fn num_records(&self) -> usize {
        self.num_records
    }

    /// Total data-block bytes on disk.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Size of the index block in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.index.size_bytes()
    }

    /// Index compression ratio versus the uncompressed (RI = 1) layout:
    /// the metric the paper reports per configuration.
    pub fn index_compression_ratio(&self, uncompressed_bytes: usize) -> f64 {
        self.index.size_bytes() as f64 / uncompressed_bytes as f64
    }

    /// Options the store was built with.
    pub fn options(&self) -> &StoreOptions {
        &self.options
    }

    /// Block-cache `(hits, misses)`.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Number of data blocks read from disk so far.
    pub fn disk_reads(&self) -> u64 {
        self.disk_reads.load(Ordering::Relaxed)
    }

    fn read_block(&self, handle: BlockHandle) -> std::io::Result<Arc<Vec<u8>>> {
        let key: BlockKey = (0, handle.offset);
        if let Some(block) = self.cache.get(&key) {
            return Ok(block);
        }
        let mut buf = vec![0u8; handle.size as usize];
        self.file.read_exact_at(&mut buf, handle.offset)?;
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        let block = Arc::new(buf);
        self.cache.insert(key, block.clone());
        Ok(block)
    }

    /// Seek: return the first record whose key is `>= key`, if any.
    ///
    /// Like RocksDB's `Seek`, the search may need to consult the following
    /// data block when the target falls past the end of the candidate block.
    /// Per-call latency is recorded in the `kv.get_ns` histogram.
    pub fn seek(&self, key: &[u8]) -> std::io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        leco_obs::histogram!("kv.get_ns").time(|| self.seek_inner(key))
    }

    fn seek_inner(&self, key: &[u8]) -> std::io::Result<Option<(Vec<u8>, Vec<u8>)>> {
        if self.num_records == 0 {
            return Ok(None);
        }
        let handle = self.index.seek(key);
        let block = self.read_block(handle)?;
        if let Some((k, v)) = seek_in_block(&block, key)? {
            return Ok(Some((k.to_vec(), v.to_vec())));
        }
        // The key is greater than everything in the candidate block: the
        // answer (if any) is the very first entry of the next block.  That
        // block's exact extent is unknown without another index probe, so we
        // over-read directly from the file (bypassing the cache so the
        // over-read never shadows a correctly-sized entry) and only look at
        // its first record.
        let next_offset = handle.offset + handle.size as u64;
        if next_offset >= self.data_bytes {
            return Ok(None);
        }
        self.read_first_record_at(next_offset).map(Some)
    }

    /// First `(key, value)` record of the block starting at `offset`.
    ///
    /// Most blocks fit `BLOCK_SIZE`, but a single record bigger than the
    /// block budget produces an oversized block: a fixed-size over-read
    /// would truncate it mid-record.  The read is therefore extended,
    /// header-first, until the record is complete.  A length field that
    /// points past the end of the data region is an
    /// [`std::io::ErrorKind::InvalidData`] error.
    fn read_first_record_at(&self, offset: u64) -> std::io::Result<KvPair> {
        let avail = (self.data_bytes - offset) as usize;
        let mut buf = vec![0u8; avail.min(crate::block::BLOCK_SIZE)];
        self.file.read_exact_at(&mut buf, offset)?;
        self.disk_reads.fetch_add(1, Ordering::Relaxed);
        // Grow `buf` to at least `needed` bytes of the file tail starting at
        // `offset`; a record can never straddle the end of the data region.
        let ensure = |buf: &mut Vec<u8>, needed: usize| -> std::io::Result<()> {
            if buf.len() >= needed {
                return Ok(());
            }
            if needed > avail {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("corrupt data block at byte {offset}: record runs past the data end"),
                ));
            }
            let old = buf.len();
            buf.resize(needed, 0);
            self.file
                .read_exact_at(&mut buf[old..], offset + old as u64)?;
            self.disk_reads.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        ensure(&mut buf, 2)?;
        let key_len = u16::from_le_bytes([buf[0], buf[1]]) as usize;
        ensure(&mut buf, 2 + key_len + 4)?;
        let len_field = &buf[2 + key_len..2 + key_len + 4];
        let value_len = u32::from_le_bytes(len_field.try_into().expect("4 bytes")) as usize;
        ensure(&mut buf, (2 + key_len + 4).saturating_add(value_len))?;
        let (key, value, _) = read_record(&buf, 0)?;
        Ok((key.to_vec(), value.to_vec()))
    }
}

/// One open file descriptor supporting positioned (`pread`-style) reads that
/// take `&self`, so concurrent readers never contend on a seek cursor.
struct PositionedFile {
    file: File,
    /// Non-unix platforms lack a positioned read on `&File`; serialise
    /// seek+read pairs behind a lock there instead.
    #[cfg(not(unix))]
    cursor: std::sync::Mutex<()>,
}

impl PositionedFile {
    fn open(path: &Path) -> std::io::Result<Self> {
        Ok(Self {
            file: File::open(path)?,
            #[cfg(not(unix))]
            cursor: std::sync::Mutex::new(()),
        })
    }

    #[cfg(unix)]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, offset)
    }

    #[cfg(not(unix))]
    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
        let _guard = self.cursor.lock().unwrap_or_else(|e| e.into_inner());
        let mut f = &self.file;
        f.seek(SeekFrom::Start(offset))?;
        f.read_exact(buf)
    }
}

impl Store {
    /// Exact-match point lookup: the value stored under `key`, or `None`.
    ///
    /// Built on [`Self::seek`] (lower-bound search) plus a key-equality
    /// check — the semantic a network `GET` needs, where a missing key must
    /// return "not found" rather than its successor's value.
    pub fn get(&self, key: &[u8]) -> std::io::Result<Option<Vec<u8>>> {
        Ok(self
            .seek(key)?
            .filter(|(k, _)| k.as_slice() == key)
            .map(|(_, v)| v))
    }
}

/// An owned `(key, value)` record, as returned by [`Store::seek`].
pub type KvPair = (Vec<u8>, Vec<u8>);

/// Run `queries` seek operations across `threads` worker threads, returning
/// the aggregate throughput in operations per second.
pub fn run_seek_workload(store: &Arc<Store>, queries: &[Vec<u8>], threads: usize) -> f64 {
    let threads = threads.max(1);
    let start = leco_obs::Stopwatch::start();
    std::thread::scope(|scope| {
        let chunk = queries.len().div_ceil(threads);
        for part in queries.chunks(chunk.max(1)) {
            let store = Arc::clone(store);
            scope.spawn(move || {
                for q in part {
                    let _ = store.seek(q).expect("seek should not fail");
                }
            });
        }
    });
    queries.len() as f64 / start.elapsed_secs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leco-kv-test-{}-{}", std::process::id(), name));
        p
    }

    fn records(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..n)
            .map(|i| {
                (
                    format!("user{:012}", i as u64 * 37).into_bytes(),
                    format!("value-{i:06}").repeat(5).into_bytes(),
                )
            })
            .collect()
    }

    #[test]
    fn seek_matches_btreemap_reference() {
        let recs = records(20_000);
        let reference: BTreeMap<Vec<u8>, Vec<u8>> = recs.iter().cloned().collect();
        for format in [
            IndexBlockFormat::RestartInterval(1),
            IndexBlockFormat::RestartInterval(16),
            IndexBlockFormat::RestartInterval(128),
            IndexBlockFormat::Leco,
        ] {
            let path = tmp(&format!("seek-{}", format.name()));
            let store = Store::load(
                &path,
                &recs,
                StoreOptions {
                    index_format: format,
                    block_cache_bytes: 1 << 20,
                },
            )
            .unwrap();
            for probe in (0..20_000usize).step_by(371) {
                let key = format!("user{:012}", probe as u64 * 37 + 5).into_bytes();
                let expected = reference
                    .range(key.clone()..)
                    .next()
                    .map(|(k, v)| (k.clone(), v.clone()));
                assert_eq!(
                    store.seek(&key).unwrap(),
                    expected,
                    "{format:?} probe {probe}"
                );
            }
            // Seeks beyond the last key return None.
            assert_eq!(store.seek(b"zzzz").unwrap(), None);
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn leco_index_is_smaller_than_uncompressed_baseline() {
        let recs = records(50_000);
        let p1 = tmp("ri1");
        let p2 = tmp("leco");
        let baseline = Store::load(
            &p1,
            &recs,
            StoreOptions {
                index_format: IndexBlockFormat::RestartInterval(1),
                block_cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        let leco = Store::load(
            &p2,
            &recs,
            StoreOptions {
                index_format: IndexBlockFormat::Leco,
                block_cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        assert!(
            leco.index_size_bytes() < baseline.index_size_bytes() / 2,
            "LeCo {} vs RI=1 {}",
            leco.index_size_bytes(),
            baseline.index_size_bytes()
        );
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn block_cache_hits_grow_with_skewed_access() {
        let recs = records(10_000);
        let path = tmp("cache");
        let store = Store::load(
            &path,
            &recs,
            StoreOptions {
                index_format: IndexBlockFormat::Leco,
                block_cache_bytes: 8 << 20,
            },
        )
        .unwrap();
        // Repeatedly hit the same small key range.
        for _ in 0..5 {
            for probe in 0..100usize {
                let key = format!("user{:012}", probe as u64 * 37).into_bytes();
                store.seek(&key).unwrap();
            }
        }
        let (hits, misses) = store.cache_stats();
        assert!(hits > misses, "hits {hits} misses {misses}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn multithreaded_seek_workload_completes() {
        let recs = records(5_000);
        let path = tmp("threads");
        let store = Arc::new(
            Store::load(
                &path,
                &recs,
                StoreOptions {
                    index_format: IndexBlockFormat::Leco,
                    block_cache_bytes: 4 << 20,
                },
            )
            .unwrap(),
        );
        let queries: Vec<Vec<u8>> = (0..2_000usize)
            .map(|i| format!("user{:012}", (i * 91) as u64 * 37).into_bytes())
            .collect();
        let tput = run_seek_workload(&store, &queries, 4);
        assert!(tput > 0.0);
        std::fs::remove_file(&path).ok();
    }

    /// A store whose middle block is oversized: one record's value is
    /// several times `BLOCK_SIZE`, so the block holding it cannot be
    /// over-read with a fixed-size window.
    fn records_with_oversized_block() -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut recs: Vec<(Vec<u8>, Vec<u8>)> = (0..200usize)
            .map(|i| {
                (
                    format!("a{i:04}").into_bytes(),
                    format!("small-{i}").into_bytes(),
                )
            })
            .collect();
        recs.push((b"b-big".to_vec(), vec![0xAB; 4 * crate::block::BLOCK_SIZE]));
        recs.extend((0..50usize).map(|i| (format!("c{i:04}").into_bytes(), b"tail".to_vec())));
        recs
    }

    /// Regression: seeking a key that falls past the end of a block used to
    /// over-read the *next* block with a fixed 4 KB window; when that
    /// block's first record was larger than the window, parsing the
    /// truncated image sliced out of bounds and panicked.
    #[test]
    fn seek_past_block_end_with_oversized_successor_record() {
        let recs = records_with_oversized_block();
        let path = tmp("oversized");
        let store = Store::load(
            &path,
            &recs,
            StoreOptions {
                index_format: IndexBlockFormat::Leco,
                block_cache_bytes: 1 << 20,
            },
        )
        .unwrap();
        // Greater than every "a…" key, smaller than "b-big": the candidate
        // block is exhausted and the answer is the first record of the
        // oversized successor block.
        let got = store.seek(b"azzz").unwrap();
        assert_eq!(
            got,
            Some((b"b-big".to_vec(), vec![0xAB; 4 * crate::block::BLOCK_SIZE]))
        );
        // Same through the exact-match path: a miss, not the successor.
        assert_eq!(store.get(b"azzz").unwrap(), None);
        assert_eq!(
            store.get(b"b-big").unwrap(),
            Some(vec![0xAB; 4 * crate::block::BLOCK_SIZE])
        );
        std::fs::remove_file(&path).ok();
    }

    /// A record whose key or value length field is inflated past the end of
    /// the file must be an `InvalidData` error on the over-read path, not a
    /// panic and not an allocation of the claimed length.
    #[cfg(unix)]
    #[test]
    fn inflated_length_on_over_read_path_is_invalid_data() {
        use std::os::unix::fs::FileExt as _;
        let recs = records_with_oversized_block();
        let path = tmp("corrupt-over-read");
        let store = Store::load(&path, &recs, StoreOptions::default()).unwrap();
        // "azzz" exhausts the a-blocks; the answer is the first record of the
        // oversized block, read past its index entry.
        let big = store.index.seek(b"b-big").offset;
        let value_len_at = big + 2 + b"b-big".len() as u64;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        for (at, bytes) in [
            (value_len_at, u32::MAX.to_le_bytes().to_vec()),
            (big, u16::MAX.to_le_bytes().to_vec()),
        ] {
            file.write_all_at(&bytes, at).unwrap();
            let err = store.seek(b"azzz").expect_err("corrupt record");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
        std::fs::remove_file(&path).ok();
    }

    /// Four threads share one store whose cache holds four blocks: random
    /// gets plus rounds where every thread misses the same cold block at
    /// once.  Every answer must be right, the cache must stay in budget,
    /// and every lookup must count as exactly one hit or one miss.
    #[test]
    fn concurrent_gets_with_a_tiny_cache() {
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        const RANDOM_PER_ROUND: usize = 10;
        let recs = records(20_000);
        let path = tmp("stress");
        let capacity = 4 * crate::block::BLOCK_SIZE;
        let store = Store::load(
            &path,
            &recs,
            StoreOptions {
                index_format: IndexBlockFormat::Leco,
                block_cache_bytes: capacity,
            },
        )
        .unwrap();
        let barrier = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (store, recs, barrier) = (&store, &recs, &barrier);
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    for round in 0..ROUNDS {
                        // The same key on every thread at once: concurrent
                        // misses on one block, far from the last round's.
                        barrier.wait();
                        let shared = (round * 7_919) % recs.len();
                        let (key, value) = &recs[shared];
                        assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
                        for _ in 0..RANDOM_PER_ROUND {
                            let i = rng.gen_range(0..recs.len());
                            let (key, value) = &recs[i];
                            assert_eq!(store.get(key).unwrap().as_ref(), Some(value));
                            // Between two keys: absent, never the successor.
                            let mut absent = key.clone();
                            absent.push(b'!');
                            assert_eq!(store.get(&absent).unwrap(), None);
                        }
                        assert!(store.cache.used_bytes() <= capacity);
                    }
                });
            }
        });
        let (hits, misses) = store.cache_stats();
        let lookups = (THREADS * ROUNDS * (1 + 2 * RANDOM_PER_ROUND)) as u64;
        assert_eq!(hits + misses, lookups);
        assert!(store.cache.used_bytes() <= capacity);
        assert!(misses > 0 && store.disk_reads() >= misses);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_store() {
        let path = tmp("empty");
        let store = Store::load(&path, &[], StoreOptions::default()).unwrap();
        assert_eq!(store.seek(b"anything").unwrap(), None);
        assert_eq!(store.num_records(), 0);
        std::fs::remove_file(&path).ok();
    }
}
