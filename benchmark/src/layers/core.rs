//! `leco-core` boundary.
//!
//! Pinned API: `LecoCompressor::new(LecoConfig::{leco_fix, leco_var})`,
//! `LecoCompressor::compress`, `CompressedColumn::{to_bytes, from_bytes,
//! decode_into, get, filter_range_pushdown, size_bytes, num_partitions, len}`.

pub use leco_core::CompressedColumn;
use leco_core::{LecoCompressor, LecoConfig};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// LeCo-fix: linear models over fixed-length partitions (searched size).
    Fix,
    /// LeCo-var: split–merge variable-length partitions.
    Var,
}

pub fn compress(values: &[u64], scheme: Scheme) -> CompressedColumn {
    let config = match scheme {
        Scheme::Fix => LecoConfig::leco_fix(),
        Scheme::Var => LecoConfig::leco_var(),
    };
    LecoCompressor::new(config).compress(values)
}

pub fn to_bytes(col: &CompressedColumn) -> Vec<u8> {
    col.to_bytes()
}

pub fn from_bytes(bytes: &[u8]) -> Option<CompressedColumn> {
    CompressedColumn::from_bytes(bytes).ok()
}

pub fn decode_into(col: &CompressedColumn, out: &mut Vec<u64>) {
    out.clear();
    col.decode_into(out);
}

/// Random access to every position in `indices`, results into `out`.
pub fn get_many(col: &CompressedColumn, indices: &[u32], out: &mut Vec<u64>) {
    out.clear();
    out.extend(indices.iter().map(|&i| col.get(i as usize)));
}

/// `lo <= v <= hi` in the compressed domain. Matching row ranges go to
/// `ranges`; returns the rows that had to be decoded (boundary + full).
pub fn filter_range(
    col: &CompressedColumn,
    lo: u64,
    hi: u64,
    scratch: &mut Vec<u64>,
    ranges: &mut Vec<(u32, u32)>,
) -> u64 {
    ranges.clear();
    let counts =
        col.filter_range_pushdown(lo, hi, scratch, |a, b| ranges.push((a as u32, b as u32)));
    counts.boundary_rows_decoded + counts.rows_decoded_full
}
