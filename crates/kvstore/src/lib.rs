//! A miniature LSM-style key-value store used for the §5.2 experiment — a
//! stand-in for RocksDB's SSTable + index-block + block-cache read path.
//!
//! The store keeps exactly the pieces whose economics the paper measures:
//!
//! * sorted records laid out in 4 KB [`block`]s inside an SSTable file,
//! * an in-memory [`index`] block mapping separator keys to block handles,
//!   compressed either with RocksDB-style restart-interval prefix-delta
//!   coding or with LeCo (string extension for the keys, integer LeCo for the
//!   block offsets),
//! * an LRU block [`cache`] with a byte budget shared by data blocks, and
//! * a multi-threaded `seek` workload driver ([`store::run_seek_workload`]).
//!
//! A smaller index block leaves more of the cache budget for data blocks
//! (fewer I/Os), and LeCo's O(1) random access avoids decompressing a whole
//! restart interval per lookup — the two effects behind Figure 22.  The
//! LeCo-compressed block-offset column follows the byte layout documented in
//! `docs/FORMAT.md` at the repository root.
//!
//! ```
//! use leco_kvstore::index::{BlockHandle, IndexBlock};
//! use leco_kvstore::IndexBlockFormat;
//!
//! let entries: Vec<(Vec<u8>, BlockHandle)> = (0..100u64)
//!     .map(|i| {
//!         (format!("key{i:04}").into_bytes(),
//!          BlockHandle { offset: i * 4096, size: 4096 })
//!     })
//!     .collect();
//! let leco = IndexBlock::build(&entries, IndexBlockFormat::Leco);
//! let baseline = IndexBlock::build(&entries, IndexBlockFormat::RestartInterval(1));
//! // The perfectly regular offsets compress to almost nothing under LeCo.
//! assert!(leco.size_bytes() < baseline.size_bytes());
//! assert_eq!(leco.seek(b"key0042"), BlockHandle { offset: 42 * 4096, size: 4096 });
//! ```

pub mod block;
pub mod cache;
pub mod index;
pub mod store;

pub use index::IndexBlockFormat;
pub use store::{run_seek_workload, Store, StoreOptions};
