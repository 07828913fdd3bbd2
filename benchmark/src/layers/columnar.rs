//! `leco-columnar` boundary: table files, chunk reads and the per-chunk
//! kernels, driven by the benchmark's own single-threaded loop over the
//! row groups a query cannot prune (the `columnar` rung of the ladder).
//!
//! Pinned API: `TableFile::{write, open, num_rows, num_row_groups,
//! row_group_range, zone_map, column_index, chunk_reader, chunk_stored_len,
//! chunk_encoded, file_size_bytes}`, `ChunkReader::read_chunk`,
//! `exec::{filter_chunk_pushdown, group_by_avg_chunk, sum_selected_chunk}`,
//! `Bitmap::{new, reset, set_range, count_ones, iter_ones}`, `QueryStats`,
//! `EncodedColumn::Leco`. Nothing ROADMAP item 3 deletes (the whole-table
//! drivers `exec::{filter_range, filter_range_pushdown, group_by_avg,
//! sum_selected}`) is used.

use crate::ops::{ScanAgg, ScanQuery};
use leco_columnar::exec::{filter_chunk_pushdown, group_by_avg_chunk, sum_selected_chunk};
pub use leco_columnar::{Bitmap, QueryStats, TableFile};
use leco_columnar::{BlockCompression, EncodedColumn, Encoding, TableFileOptions};
use std::collections::HashMap;
use std::path::Path;

pub const ROW_GROUP: usize = 100_000;

pub fn leco_options() -> TableFileOptions {
    TableFileOptions {
        encoding: Encoding::Leco,
        row_group_size: ROW_GROUP,
        block_compression: BlockCompression::None,
    }
}

/// `TableFile::write` with LeCo-var chunks: what the ingest compactor does.
pub fn write_leco_var(
    path: &Path,
    names: &[&str],
    columns: &[Vec<u64>],
    row_group: usize,
) -> std::io::Result<TableFile> {
    let options = TableFileOptions {
        encoding: Encoding::LecoVar,
        row_group_size: row_group,
        block_compression: BlockCompression::None,
    };
    TableFile::write(path, names, columns, options)
}

/// The LeCo column behind chunk `(rg, col)`, if that is its encoding.
pub fn leco_chunk(
    table: &TableFile,
    rg: usize,
    col: usize,
) -> Option<&leco_core::CompressedColumn> {
    match table.chunk_encoded(rg, col) {
        EncodedColumn::Leco(c) => Some(c),
        _ => None,
    }
}

/// Per-thread state of the chunk loop; `sels[rg]` keeps each touched row
/// group's selection so the `core` rung can replay the same positions.
pub struct ChunkScratch {
    pub sels: Vec<Bitmap>,
    pub touched: Vec<usize>,
    decode: Vec<u64>,
    decode2: Vec<u64>,
    groups: HashMap<u64, (u128, u64)>,
}

impl ChunkScratch {
    pub fn new(table: &TableFile) -> ChunkScratch {
        ChunkScratch {
            sels: (0..table.num_row_groups())
                .map(|_| Bitmap::new(0))
                .collect(),
            touched: Vec::new(),
            decode: Vec::new(),
            decode2: Vec::new(),
            groups: HashMap::new(),
        }
    }
}

/// One shard's exact partials from the chunk loop.
#[derive(Default)]
pub struct ChunkPartial {
    pub rows_selected: u64,
    pub sum: u128,
    /// `(id, sum, count)`, sorted by id.
    pub groups: Vec<(u64, u128, u64)>,
    pub stats: QueryStats,
    pub rows_filtered: u64,
}

/// Resolved column positions of a query against `table`'s schema.
pub fn resolve(table: &TableFile, q: &ScanQuery) -> (Option<(usize, u64, u64)>, [usize; 2]) {
    let col = |name: &str| table.column_index(name).expect("sensors schema");
    (
        q.filter.map(|(name, lo, hi)| (col(name), lo, hi)),
        [col("id"), col("val")],
    )
}

/// Evaluate `q` over `table` with the per-chunk kernels: zone-map prune,
/// read each needed chunk, filter in the compressed domain, aggregate.
pub fn run_chunks(
    table: &TableFile,
    q: &ScanQuery,
    s: &mut ChunkScratch,
) -> std::io::Result<ChunkPartial> {
    let (filter, [id_col, val_col]) = resolve(table, q);
    let reader = table.chunk_reader()?;
    let mut out = ChunkPartial::default();
    s.touched.clear();
    s.groups.clear();
    for rg in 0..table.num_row_groups() {
        if let Some((col, lo, hi)) = filter {
            let (zmin, zmax) = table.zone_map(rg, col);
            if zmax < lo || zmin > hi {
                out.stats.row_groups_pruned += 1;
                continue;
            }
        }
        s.touched.push(rg);
        let (start, end) = table.row_group_range(rg);
        let rows = end - start;
        let sel = &mut s.sels[rg];
        sel.reset(rows);
        match filter {
            Some((col, lo, hi)) => {
                let chunk = reader.read_chunk(rg, col, &mut out.stats)?;
                filter_chunk_pushdown(chunk, lo, hi, 0, sel, &mut s.decode, &mut out.stats);
                out.rows_filtered += rows as u64;
            }
            None => sel.set_range(0, rows),
        }
        out.rows_selected += sel.count_ones() as u64;
        match q.agg {
            ScanAgg::Count => {}
            ScanAgg::SumVal => {
                let chunk = reader.read_chunk(rg, val_col, &mut out.stats)?;
                out.sum += sum_selected_chunk(chunk, sel, 0, &mut s.decode);
            }
            ScanAgg::GroupByIdAvgVal => {
                let ids = reader.read_chunk(rg, id_col, &mut out.stats)?;
                let vals = reader.read_chunk(rg, val_col, &mut out.stats)?;
                group_by_avg_chunk(
                    ids,
                    vals,
                    sel,
                    0,
                    &mut s.decode,
                    &mut s.decode2,
                    &mut s.groups,
                );
            }
        }
    }
    out.groups = s
        .groups
        .iter()
        .map(|(&id, &(sum, count))| (id, sum, count))
        .collect();
    out.groups.sort_unstable_by_key(|&(id, _, _)| id);
    Ok(out)
}

/// Bytes and seconds of reading every chunk of `table` once.
pub fn read_all_chunks(table: &TableFile, columns: usize) -> std::io::Result<(u64, f64)> {
    let reader = table.chunk_reader()?;
    let mut stats = QueryStats::default();
    let start = std::time::Instant::now();
    for rg in 0..table.num_row_groups() {
        for col in 0..columns {
            std::hint::black_box(reader.read_chunk(rg, col, &mut stats)?);
        }
    }
    Ok((stats.io_bytes, start.elapsed().as_secs_f64()))
}
