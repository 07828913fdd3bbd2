//! `leco-kvstore` boundary: a benchmark-owned `Store` over the same shard
//! records the server holds, for the `kvstore` rung of the lookup ladder.
//!
//! Pinned API: `Store::{load, get, cache_stats, disk_reads,
//! index_size_bytes, data_bytes}`, `StoreOptions`, `IndexBlockFormat::Leco`.

pub use leco_kvstore::Store;
use leco_kvstore::{IndexBlockFormat, StoreOptions};
use std::path::Path;

/// 4 MiB of block cache per shard: under a fifth of a shard's ~24 MB of data
/// blocks, so `lookup` is the larger-than-cache workload.
pub const BLOCK_CACHE_BYTES: usize = 4 << 20;

pub fn options() -> StoreOptions {
    StoreOptions {
        index_format: IndexBlockFormat::Leco,
        block_cache_bytes: BLOCK_CACHE_BYTES,
    }
}

pub fn load(path: &Path, records: &[(Vec<u8>, Vec<u8>)]) -> std::io::Result<Store> {
    Store::load(path, records, options())
}

/// Bytes at rest: data blocks plus the index block.
pub fn stored_bytes(store: &Store) -> u64 {
    store.data_bytes() + store.index_size_bytes() as u64
}
