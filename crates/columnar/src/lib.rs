//! A miniature columnar execution engine used for the end-to-end system
//! evaluation (§5.1) — a stand-in for the Apache Arrow + Parquet stack.
//!
//! The engine keeps the pieces of that stack that the LeCo experiments
//! exercise and nothing more:
//!
//! * columns encoded with pluggable lightweight encodings
//!   ([`encoding::Encoding`]: plain, dictionary, Delta, FOR, LeCo),
//! * a row-group based [`file::TableFile`] whose byte images are written to
//!   and read back from real files (optionally block-compressed with the
//!   `lzb` codec standing in for zstd),
//! * selection [`bitmap::Bitmap`]s and late materialisation: filters produce
//!   bitmaps, downstream operators only decode the qualifying positions,
//! * the compute kernels of the paper's queries ([`exec`]): range-filter
//!   pushdown, group-by average aggregation and bitmap sum aggregation,
//! * per-query [`exec::QueryStats`] splitting time into an I/O and a CPU
//!   component, which is exactly the breakdown plotted in Figures 18–21.
//!
//! Scans decode chunks through the word-parallel bulk path
//! ([`EncodedColumn::decode_into`]); LeCo chunks are persisted in the byte
//! format specified by `docs/FORMAT.md` at the repository root.
//!
//! ```
//! use leco_columnar::{EncodedColumn, Encoding};
//!
//! let values: Vec<u64> = (0..20_000u64).map(|i| 500 + i * 3).collect();
//! let col = EncodedColumn::encode(&values, Encoding::Leco);
//! assert!(col.size_bytes() < values.len()); // sub-byte per value
//! assert_eq!(col.get(12_345), values[12_345]);
//!
//! let mut out = Vec::with_capacity(col.len());
//! col.decode_into(&mut out);
//! assert_eq!(out, values);
//! ```

pub mod bitmap;
pub mod encoding;
pub mod exec;
pub mod file;

pub use bitmap::Bitmap;
pub use encoding::{EncodedColumn, Encoding};
pub use exec::{sum_selected, Partial, QueryStats, ScanScratch};
pub use file::{BlockCompression, ChunkReader, TableFile, TableFileOptions};
