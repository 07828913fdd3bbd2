//! # LeCo — Learned Compression for serial correlations
//!
//! A from-scratch Rust implementation of the LeCo framework (Liu, Zeng &
//! Zhang, SIGMOD 2024): lossless lightweight columnar compression that fits a
//! small regression model per partition of a value sequence and stores only
//! the bit-packed prediction errors ("Model + Delta").
//!
//! The crate mirrors the five modules of the paper's architecture (Figure 3):
//!
//! * [`regressor`] — fits one model to one partition, minimising the *maximum*
//!   prediction error so the delta array can be bit-packed at a fixed width.
//! * [`partition`] — splits the sequence into partitions: fixed-length with an
//!   automatic block-size search, the greedy split–merge variable-length
//!   algorithm, and the comparison partitioners of §4.8 (PLA, Sim-Piece,
//!   la_vector, exact dynamic programming).
//! * [`advisor`] — the Hyper-parameter Advisor: feature extraction, a CART
//!   regressor selector, and the local/global hardness scores that drive the
//!   partition-strategy advice.
//! * [`column`](mod@column) + [`format`](mod@format) — the Encoder/Decoder
//!   pair: a self-describing
//!   storage format with O(1)-ish random access and a fused word-parallel
//!   sequential decoder (bulk delta unpack + in-place model reconstruction;
//!   §3.3's θ₁-accumulation survives as the wide-value fallback).  Every
//!   read path goes through a per-partition read table derived at load
//!   (start, bit offset, prediction route, value envelope).  The byte
//!   layout is specified in `docs/FORMAT.md` at the repository root and
//!   enforced by `tests/format_spec.rs`.
//! * [`string`] — the order-preserving string extension (§3.4).
//!
//! [`delta_var`] implements "Delta-var", the paper's improved Delta encoding
//! that reuses LeCo's variable-length partitioner.
//!
//! ## Quick start
//!
//! ```
//! use leco_core::{LecoConfig, LecoCompressor};
//!
//! // A piecewise-linear sequence: LeCo stores two models + tiny deltas.
//! let values: Vec<u64> = (0..10_000u64)
//!     .map(|i| if i < 5_000 { 10 + 3 * i } else { 100_000 + 7 * (i - 5_000) })
//!     .collect();
//!
//! let compressor = LecoCompressor::new(LecoConfig::leco_var());
//! let column = compressor.compress(&values);
//!
//! assert!(column.size_bytes() < values.len()); // < 1 byte per value here
//! assert_eq!(column.get(7_123), values[7_123]); // random access
//! assert_eq!(column.decode_all(), values);      // lossless
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod advisor;
pub mod column;
pub mod delta_var;
pub mod format;
pub mod model;
pub mod partition;
mod read_table;
pub mod regressor;
pub mod string;
pub mod value;

pub use column::{CompressedColumn, LecoCompressor, PushdownCounts};
pub use model::{Model, Monotone, RegressorKind, SlackBands};
pub use partition::{Partition, PartitionerKind};
pub use value::LecoInt;

/// Top-level configuration: which regressor family and which partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct LecoConfig {
    /// Regressor family used for every partition (or `Auto` to let the
    /// Hyper-parameter Advisor pick per partition).
    pub regressor: RegressorKind,
    /// Partitioning strategy.
    pub partitioner: PartitionerKind,
}

impl LecoConfig {
    /// `LeCo-fix`: linear regressor, fixed-length partitions with an
    /// automatically searched block size (§3.2.1).
    pub fn leco_fix() -> Self {
        Self {
            regressor: RegressorKind::Linear,
            partitioner: PartitionerKind::FixedAuto,
        }
    }

    /// `LeCo-fix` with an explicit partition length.
    pub fn leco_fix_with_len(len: usize) -> Self {
        Self {
            regressor: RegressorKind::Linear,
            partitioner: PartitionerKind::Fixed { len },
        }
    }

    /// `LeCo-var`: linear regressor, split–merge variable-length partitions
    /// (§3.2.2) with the paper's default split aggressiveness.
    pub fn leco_var() -> Self {
        Self {
            regressor: RegressorKind::Linear,
            partitioner: PartitionerKind::SplitMerge { tau: 0.1 },
        }
    }

    /// `LeCo-Poly-fix`: polynomial (degree ≤ 3) regressor, fixed partitions.
    pub fn leco_poly_fix() -> Self {
        Self {
            regressor: RegressorKind::Poly3,
            partitioner: PartitionerKind::FixedAuto,
        }
    }

    /// `LeCo-Poly-var`: polynomial regressor, variable-length partitions.
    pub fn leco_poly_var() -> Self {
        Self {
            regressor: RegressorKind::Poly3,
            partitioner: PartitionerKind::SplitMerge { tau: 0.1 },
        }
    }

    /// Frame-of-Reference expressed inside the LeCo framework: a constant
    /// (horizontal-line) regressor with fixed-length partitions.
    pub fn for_() -> Self {
        Self {
            regressor: RegressorKind::Constant,
            partitioner: PartitionerKind::FixedAuto,
        }
    }
}

impl Default for LecoConfig {
    fn default() -> Self {
        Self::leco_fix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_example_compiles_and_is_lossless() {
        let values: Vec<u64> = (0..2_000u64)
            .map(|i| {
                if i < 1_000 {
                    10 + 3 * i
                } else {
                    100_000 + 7 * (i - 1_000)
                }
            })
            .collect();
        let column = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
        assert_eq!(column.decode_all(), values);
        assert_eq!(column.get(1_500), values[1_500]);
    }

    #[test]
    fn config_presets_differ() {
        assert_ne!(LecoConfig::leco_fix(), LecoConfig::leco_var());
        assert_ne!(LecoConfig::leco_fix(), LecoConfig::for_());
        assert_eq!(LecoConfig::default(), LecoConfig::leco_fix());
    }
}
