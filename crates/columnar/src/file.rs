//! Row-group based table files.
//!
//! `TableFile::write` encodes every column per row group, persists the byte
//! images to a real file on disk (optionally block-compressed with `lzb`, the
//! workspace's zstd stand-in) and keeps zone maps (per-chunk min/max) for
//! row-group skipping.  Scans read the chunk bytes back from the file — that
//! is the I/O component of the §5.1 time breakdowns — and then operate on the
//! equivalent in-memory encoded column for the CPU component.

use crate::encoding::{EncodedColumn, Encoding};
use crate::exec::QueryStats;
use crate::memo::{GroupRunMemo, GROUP_BLOCK};
use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Optional general-purpose block compression layered on top of the
/// lightweight encodings (§5.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCompression {
    /// No block compression.
    None,
    /// `lzb`, the workspace's LZ77-style stand-in for zstd.
    Lzb,
}

/// Options controlling how a table file is written.
#[derive(Debug, Clone, Copy)]
pub struct TableFileOptions {
    /// Column encoding applied to every chunk.
    pub encoding: Encoding,
    /// Rows per row group (the paper uses 10M-row groups; scale down for
    /// laptop-sized experiments).
    pub row_group_size: usize,
    /// Block compression applied to the chunk byte images.
    pub block_compression: BlockCompression,
}

impl Default for TableFileOptions {
    fn default() -> Self {
        Self {
            encoding: Encoding::Leco,
            row_group_size: 100_000,
            block_compression: BlockCompression::None,
        }
    }
}

/// Zone map and location of one column chunk inside the file.
#[derive(Debug, Clone)]
struct ChunkMeta {
    offset: u64,
    stored_len: u64,
    min: u64,
    max: u64,
}

/// Magic that terminates a reopenable table file.
const FOOTER_MAGIC: &[u8; 8] = b"LECOTBL1";
/// Version byte of the footer block.
const FOOTER_VERSION: u8 = 1;

fn bad_data(message: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, message)
}

/// Incremental little-endian reader over the footer block.
struct FooterReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> FooterReader<'a> {
    fn take(&mut self, n: usize) -> std::io::Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(bad_data("table footer truncated".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> std::io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> std::io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> std::io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> std::io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// One row group: per-column chunk metadata plus the in-memory encodings.
#[derive(Debug)]
struct RowGroup {
    row_start: usize,
    rows: usize,
    chunks: Vec<ChunkMeta>,
    columns: Vec<EncodedColumn>,
    /// One empty group-run memo per `(id column, value column)` pair, at
    /// `id · columns + value` (derived on first use, never serialized).
    group_runs: Box<[GroupRunMemo]>,
}

impl RowGroup {
    fn new(
        row_start: usize,
        rows: usize,
        chunks: Vec<ChunkMeta>,
        columns: Vec<EncodedColumn>,
    ) -> Self {
        let pairs = columns.len() * columns.len();
        Self {
            row_start,
            rows,
            chunks,
            columns,
            group_runs: (0..pairs).map(|_| GroupRunMemo::new(GROUP_BLOCK)).collect(),
        }
    }
}

/// A written table file plus the in-memory structures needed to query it.
#[derive(Debug)]
pub struct TableFile {
    path: PathBuf,
    column_names: Vec<String>,
    options: TableFileOptions,
    row_groups: Vec<RowGroup>,
    num_rows: usize,
    file_bytes: u64,
}

impl TableFile {
    /// Encode `columns` (named by `column_names`, all of equal length) into a
    /// file at `path`.
    pub fn write<P: AsRef<Path>>(
        path: P,
        column_names: &[&str],
        columns: &[Vec<u64>],
        options: TableFileOptions,
    ) -> std::io::Result<Self> {
        assert_eq!(column_names.len(), columns.len(), "one name per column");
        assert!(!columns.is_empty(), "at least one column required");
        let num_rows = columns[0].len();
        assert!(
            columns.iter().all(|c| c.len() == num_rows),
            "all columns must have the same length"
        );
        let mut file = File::create(path.as_ref())?;
        let mut row_groups = Vec::new();
        let mut offset = 0u64;
        let rg_size = options.row_group_size.max(1);
        let mut row_start = 0usize;
        while row_start < num_rows || (num_rows == 0 && row_start == 0) {
            let rows = rg_size.min(num_rows - row_start);
            if rows == 0 && num_rows > 0 {
                break;
            }
            let mut chunks = Vec::with_capacity(columns.len());
            let mut encoded_cols = Vec::with_capacity(columns.len());
            for col in columns {
                let slice = &col[row_start..row_start + rows];
                let encoded = EncodedColumn::encode(slice, options.encoding);
                let image = encoded.byte_image();
                let stored = match options.block_compression {
                    BlockCompression::None => image,
                    BlockCompression::Lzb => leco_codecs::lzb::compress(&image),
                };
                file.write_all(&stored)?;
                chunks.push(ChunkMeta {
                    offset,
                    stored_len: stored.len() as u64,
                    min: slice.iter().copied().min().unwrap_or(0),
                    max: slice.iter().copied().max().unwrap_or(0),
                });
                offset += stored.len() as u64;
                encoded_cols.push(encoded);
            }
            row_groups.push(RowGroup::new(row_start, rows, chunks, encoded_cols));
            row_start += rows;
            if num_rows == 0 {
                break;
            }
        }
        let table = Self {
            path: path.as_ref().to_path_buf(),
            column_names: column_names.iter().map(|s| s.to_string()).collect(),
            options,
            row_groups,
            num_rows,
            file_bytes: offset,
        };
        // Footer after the data region: lets `TableFile::open` reload the
        // metadata without touching chunk offsets (they are all relative to
        // the file start, before the footer).
        let footer = table.serialize_footer();
        file.write_all(&footer)?;
        file.write_all(&(footer.len() as u64).to_le_bytes())?;
        file.write_all(FOOTER_MAGIC)?;
        file.flush()?;
        Ok(table)
    }

    fn serialize_footer(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(FOOTER_VERSION);
        out.push(self.options.encoding.tag());
        out.push(match self.options.block_compression {
            BlockCompression::None => 0u8,
            BlockCompression::Lzb => 1u8,
        });
        out.extend_from_slice(&(self.options.row_group_size as u64).to_le_bytes());
        out.extend_from_slice(&(self.num_rows as u64).to_le_bytes());
        out.extend_from_slice(&(self.column_names.len() as u32).to_le_bytes());
        for name in &self.column_names {
            out.extend_from_slice(&(name.len() as u16).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(&(self.row_groups.len() as u32).to_le_bytes());
        for rg in &self.row_groups {
            out.extend_from_slice(&(rg.row_start as u64).to_le_bytes());
            out.extend_from_slice(&(rg.rows as u64).to_le_bytes());
            for chunk in &rg.chunks {
                out.extend_from_slice(&chunk.offset.to_le_bytes());
                out.extend_from_slice(&chunk.stored_len.to_le_bytes());
                out.extend_from_slice(&chunk.min.to_le_bytes());
                out.extend_from_slice(&chunk.max.to_le_bytes());
            }
        }
        out
    }

    /// Reopen a table file written by [`Self::write`]: parse the footer,
    /// read every chunk back and rebuild the in-memory encoded columns.
    ///
    /// Only files whose encoding has a self-describing byte image can be
    /// reopened (`Plain`, `Leco`, `LecoVar` —
    /// see [`EncodedColumn::from_byte_image`]); other encodings return
    /// `ErrorKind::Unsupported`.  A truncated or corrupt footer returns
    /// `ErrorKind::InvalidData`.
    pub fn open<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let mut file = File::open(path.as_ref())?;
        let total = file.metadata()?.len();
        if total < 16 {
            return Err(bad_data(format!(
                "{}: too short to hold a table footer",
                path.as_ref().display()
            )));
        }
        let mut tail = [0u8; 16];
        file.seek(SeekFrom::End(-16))?;
        file.read_exact(&mut tail)?;
        if &tail[8..] != FOOTER_MAGIC {
            return Err(bad_data(format!(
                "{}: missing table footer magic",
                path.as_ref().display()
            )));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().unwrap());
        if footer_len.checked_add(16).is_none_or(|end| end > total) {
            return Err(bad_data("table footer length exceeds the file".into()));
        }
        let mut footer = vec![0u8; footer_len as usize];
        file.seek(SeekFrom::End(-16 - footer_len as i64))?;
        file.read_exact(&mut footer)?;

        let mut r = FooterReader {
            bytes: &footer,
            pos: 0,
        };
        let version = r.u8()?;
        if version != FOOTER_VERSION {
            return Err(bad_data(format!("unknown table footer version {version}")));
        }
        let encoding_tag = r.u8()?;
        let encoding = Encoding::from_tag(encoding_tag)
            .ok_or_else(|| bad_data(format!("unknown encoding tag {encoding_tag}")))?;
        let block_compression = match r.u8()? {
            0 => BlockCompression::None,
            1 => BlockCompression::Lzb,
            other => return Err(bad_data(format!("unknown block-compression tag {other}"))),
        };
        let row_group_size = r.u64()? as usize;
        let num_rows = r.u64()? as usize;
        let ncols = r.u32()? as usize;
        let mut column_names = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let len = r.u16()? as usize;
            let name = std::str::from_utf8(r.take(len)?)
                .map_err(|_| bad_data("column name is not UTF-8".into()))?;
            column_names.push(name.to_string());
        }
        let n_row_groups = r.u32()? as usize;
        let options = TableFileOptions {
            encoding,
            row_group_size,
            block_compression,
        };

        let mut row_groups = Vec::with_capacity(n_row_groups);
        let mut file_bytes = 0u64;
        let mut stored = Vec::new();
        for _ in 0..n_row_groups {
            let row_start = r.u64()? as usize;
            let rows = r.u64()? as usize;
            let mut chunks = Vec::with_capacity(ncols);
            let mut columns = Vec::with_capacity(ncols);
            for _ in 0..ncols {
                let meta = ChunkMeta {
                    offset: r.u64()?,
                    stored_len: r.u64()?,
                    min: r.u64()?,
                    max: r.u64()?,
                };
                if meta
                    .offset
                    .checked_add(meta.stored_len)
                    .is_none_or(|end| end > total - 16 - footer_len)
                {
                    return Err(bad_data("chunk extends past the data region".into()));
                }
                stored.clear();
                stored.resize(meta.stored_len as usize, 0);
                file.seek(SeekFrom::Start(meta.offset))?;
                file.read_exact(&mut stored)?;
                let image = match block_compression {
                    BlockCompression::None => std::mem::take(&mut stored),
                    BlockCompression::Lzb => leco_codecs::lzb::decompress(&stored),
                };
                let column = EncodedColumn::from_byte_image(&image, encoding)?;
                if column.len() != rows {
                    return Err(bad_data(format!(
                        "chunk decodes to {} values, row group holds {rows}",
                        column.len()
                    )));
                }
                file_bytes = file_bytes.max(meta.offset + meta.stored_len);
                chunks.push(meta);
                columns.push(column);
            }
            row_groups.push(RowGroup::new(row_start, rows, chunks, columns));
        }
        let reopened: usize = row_groups.iter().map(|g| g.rows).sum();
        if reopened != num_rows {
            return Err(bad_data(format!(
                "row groups hold {reopened} rows, footer claims {num_rows}"
            )));
        }
        Ok(Self {
            path: path.as_ref().to_path_buf(),
            column_names,
            options,
            row_groups,
            num_rows,
            file_bytes,
        })
    }

    /// Total size of the data file in bytes.
    pub fn file_size_bytes(&self) -> u64 {
        self.file_bytes
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of row groups.
    pub fn num_row_groups(&self) -> usize {
        self.row_groups.len()
    }

    /// Options the file was written with.
    pub fn options(&self) -> &TableFileOptions {
        &self.options
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.column_names.iter().position(|n| n == name)
    }

    /// Row range `[start, start + rows)` of row group `rg`.
    pub fn row_group_range(&self, rg: usize) -> (usize, usize) {
        let g = &self.row_groups[rg];
        (g.row_start, g.row_start + g.rows)
    }

    /// Zone map (min, max) of column `col` in row group `rg`.
    pub fn zone_map(&self, rg: usize, col: usize) -> (u64, u64) {
        let c = &self.row_groups[rg].chunks[col];
        (c.min, c.max)
    }

    /// Open a [`ChunkReader`] over this file: one shared descriptor through
    /// which any number of workers can read chunks concurrently.
    pub fn chunk_reader(&self) -> std::io::Result<ChunkReader<'_>> {
        Ok(ChunkReader {
            table: self,
            file: PositionedFile::open(&self.path)?,
        })
    }

    /// Stored (possibly block-compressed) length in bytes of chunk
    /// `(rg, col)` — what one positioned read of that chunk transfers.
    pub fn chunk_stored_len(&self, rg: usize, col: usize) -> u64 {
        self.row_groups[rg].chunks[col].stored_len
    }

    /// The in-memory encoded column of chunk `(rg, col)`, without charging
    /// any I/O.  Compute-only consumers (e.g. a scan worker that read the
    /// chunk's bytes into its own reused buffer) use this directly.
    pub fn chunk_encoded(&self, rg: usize, col: usize) -> &EncodedColumn {
        &self.row_groups[rg].columns[col]
    }

    /// The `GROUP BY` memo of row group `rg` grouping column `val_col` by
    /// column `id_col`: one exact run of groups per [`GROUP_BLOCK`] rows,
    /// filled by the first [`crate::exec::group_by_avg_chunk_memo`] call
    /// that selects a whole block and read by every later one. Opening or
    /// writing a file fills no memo.
    pub fn group_runs(&self, rg: usize, id_col: usize, val_col: usize) -> &GroupRunMemo {
        let g = &self.row_groups[rg];
        let ncols = g.columns.len();
        assert!(id_col < ncols && val_col < ncols, "column out of range");
        &g.group_runs[id_col * ncols + val_col]
    }

    /// Read the chunk's bytes back from disk (charging I/O, and CPU for block
    /// decompression) and return the in-memory encoded column for compute.
    ///
    /// Convenience wrapper that opens a fresh [`ChunkReader`] per call; scans
    /// that touch many chunks should open one reader and reuse it.
    pub fn read_chunk(
        &self,
        rg: usize,
        col: usize,
        stats: &mut QueryStats,
    ) -> std::io::Result<&EncodedColumn> {
        self.chunk_reader()?.read_chunk(rg, col, stats)
    }

    /// Sum of the encoded chunk sizes of one column across row groups
    /// (before block compression); used to report per-column footprints.
    pub fn column_encoded_bytes(&self, col: usize) -> u64 {
        self.row_groups
            .iter()
            .map(|g| g.columns[col].size_bytes() as u64)
            .sum()
    }
}

/// One open file descriptor supporting positioned (`pread`-style) reads that
/// take `&self`, so concurrent readers never contend on a seek cursor.
#[derive(Debug)]
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

/// The immutable read half of a [`TableFile`]: a shared descriptor plus a
/// borrow of the table's metadata and in-memory encodings.
///
/// Every method takes `&self`, and the underlying reads are positioned
/// (`pread`), so one `ChunkReader` can be shared by a whole pool of scan
/// workers without a mutex around the file cursor.  Per-worker mutable state
/// (decode buffers, selection bitmaps, partial aggregates) lives in
/// [`crate::exec::ScanScratch`] instead.
#[derive(Debug)]
pub struct ChunkReader<'a> {
    table: &'a TableFile,
    file: PositionedFile,
}

impl<'a> ChunkReader<'a> {
    /// The table this reader was opened on.
    pub fn table(&self) -> &'a TableFile {
        self.table
    }

    /// Read the stored bytes of chunk `(rg, col)` into `buf` (overwriting
    /// it), charging I/O to `stats`.  Returns the number of bytes read.
    pub fn read_chunk_bytes(
        &self,
        rg: usize,
        col: usize,
        buf: &mut Vec<u8>,
        stats: &mut QueryStats,
    ) -> std::io::Result<u64> {
        let meta = &self.table.row_groups[rg].chunks[col];
        let io_start = leco_obs::Stopwatch::start();
        buf.clear();
        buf.resize(meta.stored_len as usize, 0);
        self.file.read_exact_at(buf, meta.offset)?;
        stats.charge_io(io_start.elapsed_secs(), meta.stored_len);
        Ok(meta.stored_len)
    }

    /// Read chunk `(rg, col)` — I/O plus block decompression if the file is
    /// block-compressed — and return the in-memory encoded column for
    /// compute.  `stats` is charged for the I/O and decompression CPU.
    pub fn read_chunk(
        &self,
        rg: usize,
        col: usize,
        stats: &mut QueryStats,
    ) -> std::io::Result<&'a EncodedColumn> {
        let mut buf = Vec::new();
        self.read_chunk_bytes(rg, col, &mut buf, stats)?;
        self.decompress_chunk(rg, col, &buf, stats);
        Ok(self.table.chunk_encoded(rg, col))
    }

    /// Block-decompress stored chunk bytes (no-op when the file is not
    /// block-compressed), charging CPU to `stats`.  Split out of
    /// [`Self::read_chunk`] so a caller that reuses its read buffer across
    /// chunks ([`Self::read_chunk_bytes`]) allocates none per read.
    pub fn decompress_chunk(&self, rg: usize, col: usize, stored: &[u8], stats: &mut QueryStats) {
        if self.table.options.block_compression == BlockCompression::Lzb {
            let cpu_start = leco_obs::Stopwatch::start();
            let decompressed = leco_codecs::lzb::decompress(stored);
            stats.charge_cpu(cpu_start.elapsed_secs());
            // The decode path uses the in-memory column; assert the stored
            // image still matches its size so corruption cannot go unnoticed.
            debug_assert_eq!(
                decompressed.len(),
                self.table.chunk_encoded(rg, col).size_bytes()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QueryStats;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "leco-columnar-test-{}-{}",
            std::process::id(),
            name
        ));
        p
    }

    fn sample_columns(n: usize) -> (Vec<&'static str>, Vec<Vec<u64>>) {
        let ts: Vec<u64> = (0..n as u64).map(|i| 1_000_000 + i).collect();
        let id: Vec<u64> = (0..n as u64).map(|i| i % 100 + 1).collect();
        let val: Vec<u64> = (0..n as u64).map(|i| i * 3 + (i % 7)).collect();
        (vec!["ts", "id", "val"], vec![ts, id, val])
    }

    #[test]
    fn write_and_read_chunks() {
        let (names, cols) = sample_columns(50_000);
        let path = tmp("basic");
        let file = TableFile::write(
            &path,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Leco,
                row_group_size: 20_000,
                block_compression: BlockCompression::None,
            },
        )
        .unwrap();
        assert_eq!(file.num_rows(), 50_000);
        assert_eq!(file.num_row_groups(), 3);
        let mut stats = QueryStats::default();
        let chunk = file.read_chunk(1, 2, &mut stats).unwrap();
        let (start, _) = file.row_group_range(1);
        assert_eq!(chunk.get(0), cols[2][start]);
        assert!(stats.io_bytes > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_reader_shared_across_threads() {
        let (names, cols) = sample_columns(50_000);
        let path = tmp("shared");
        let file = TableFile::write(
            &path,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Leco,
                row_group_size: 10_000,
                block_compression: BlockCompression::None,
            },
        )
        .unwrap();
        // One reader, one descriptor; positioned reads from many threads at
        // once must all see the right bytes (no shared-cursor corruption).
        let reader = file.chunk_reader().unwrap();
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let reader = &reader;
                let cols = &cols;
                let file = &file;
                scope.spawn(move || {
                    for rg in 0..file.num_row_groups() {
                        let col = (rg + t) % 3;
                        let mut stats = QueryStats::default();
                        let chunk = reader.read_chunk(rg, col, &mut stats).unwrap();
                        let (start, _) = file.row_group_range(rg);
                        assert_eq!(chunk.get(17), cols[col][start + 17]);
                        assert_eq!(stats.chunks_read, 1);
                        assert_eq!(stats.io_bytes, file.chunk_stored_len(rg, col));
                    }
                });
            }
        });
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn leco_file_smaller_than_default() {
        let (names, cols) = sample_columns(60_000);
        let p1 = tmp("leco");
        let p2 = tmp("default");
        let leco = TableFile::write(
            &p1,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Leco,
                ..Default::default()
            },
        )
        .unwrap();
        let default = TableFile::write(
            &p2,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Default,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(leco.file_size_bytes() < default.file_size_bytes());
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn block_compression_shrinks_redundant_chunks() {
        let (names, cols) = sample_columns(60_000);
        let p1 = tmp("nolzb");
        let p2 = tmp("lzb");
        let plain = TableFile::write(
            &p1,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Plain,
                block_compression: BlockCompression::None,
                ..Default::default()
            },
        )
        .unwrap();
        let compressed = TableFile::write(
            &p2,
            &names,
            &cols,
            TableFileOptions {
                encoding: Encoding::Plain,
                block_compression: BlockCompression::Lzb,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(compressed.file_size_bytes() < plain.file_size_bytes());
        // Reading a block-compressed chunk charges CPU time for decompression.
        let mut stats = QueryStats::default();
        compressed.read_chunk(0, 0, &mut stats).unwrap();
        assert!(stats.cpu_seconds >= 0.0 && stats.io_bytes > 0);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn reopen_round_trips_data_and_metadata() {
        let (names, cols) = sample_columns(25_000);
        for (encoding, compression, tag) in [
            (Encoding::Leco, BlockCompression::None, "leco"),
            (Encoding::LecoVar, BlockCompression::None, "lecovar"),
            (Encoding::Plain, BlockCompression::Lzb, "plain-lzb"),
        ] {
            let path = tmp(&format!("reopen-{tag}"));
            let written = TableFile::write(
                &path,
                &names,
                &cols,
                TableFileOptions {
                    encoding,
                    row_group_size: 7_000,
                    block_compression: compression,
                },
            )
            .unwrap();
            let reopened = TableFile::open(&path).unwrap();
            assert_eq!(reopened.num_rows(), written.num_rows(), "{tag}");
            assert_eq!(reopened.num_row_groups(), written.num_row_groups(), "{tag}");
            assert_eq!(reopened.column_index("val"), Some(2), "{tag}");
            assert_eq!(reopened.options().encoding, encoding, "{tag}");
            for rg in 0..reopened.num_row_groups() {
                assert_eq!(
                    reopened.row_group_range(rg),
                    written.row_group_range(rg),
                    "{tag}"
                );
                for (col, col_values) in cols.iter().enumerate() {
                    assert_eq!(
                        reopened.zone_map(rg, col),
                        written.zone_map(rg, col),
                        "{tag} rg {rg} col {col}"
                    );
                    let (start, end) = reopened.row_group_range(rg);
                    let chunk = reopened.chunk_encoded(rg, col);
                    for probe in [0usize, (end - start) / 2, end - start - 1] {
                        assert_eq!(
                            chunk.get(probe),
                            col_values[start + probe],
                            "{tag} rg {rg} col {col} row {probe}"
                        );
                    }
                }
            }
            // The reopened file still serves positioned chunk reads.
            let mut stats = QueryStats::default();
            let chunk = reopened.read_chunk(1, 2, &mut stats).unwrap();
            let (start, _) = reopened.row_group_range(1);
            assert_eq!(chunk.get(3), cols[2][start + 3], "{tag}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn reopen_rejects_corrupt_footers() {
        let (names, cols) = sample_columns(2_000);
        let path = tmp("reopen-corrupt");
        TableFile::write(&path, &names, &cols, TableFileOptions::default()).unwrap();
        let good = std::fs::read(&path).unwrap();

        // Truncated to lose the footer tail.
        std::fs::write(&path, &good[..good.len() - 8]).unwrap();
        assert!(TableFile::open(&path).is_err());
        // Magic intact but footer length lies.
        let mut lying = good.clone();
        let at = lying.len() - 16;
        lying[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        std::fs::write(&path, &lying).unwrap();
        assert!(TableFile::open(&path).is_err());
        // Entirely too short.
        std::fs::write(&path, b"tiny").unwrap();
        assert!(TableFile::open(&path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zone_maps_cover_chunk_ranges() {
        let (names, cols) = sample_columns(30_000);
        let path = tmp("zones");
        let file = TableFile::write(
            &path,
            &names,
            &cols,
            TableFileOptions {
                row_group_size: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        let (min, max) = file.zone_map(1, 0);
        let (start, end) = file.row_group_range(1);
        assert_eq!(min, cols[0][start]);
        assert_eq!(max, cols[0][end - 1]);
        assert_eq!(file.column_index("val"), Some(2));
        assert_eq!(file.column_index("missing"), None);
        std::fs::remove_file(&path).ok();
    }
}
