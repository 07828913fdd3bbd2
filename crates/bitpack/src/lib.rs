//! Bit-level packing primitives shared by every compression codec in the
//! workspace.
//!
//! The crate provides four building blocks:
//!
//! * [`BitWriter`] / [`BitReader`] — an LSB-first bit stream over `u64` words,
//!   used when a codec needs to emit values of heterogeneous widths
//!   sequentially (e.g. unary codes, rANS state flushes).
//! * [`PackedArray`] — a fixed-width array of unsigned integers with O(1)
//!   random access.  This is the physical representation of every LeCo delta
//!   array and of Frame-of-Reference frames.
//! * [`unpack`] — word-parallel bulk decode kernels (one monomorphised
//!   kernel per bit width) behind [`unpack::unpack_bits_into`], the fast
//!   path under every sequential `decode_into` in the workspace.
//! * [`BitVec`] — an uncompressed bit vector with constant-time `rank1` and
//!   near-constant-time `select1`, used by the Elias-Fano codec to find the
//!   upper-bit bucket of the *i*-th element.
//! * [`zigzag`] / [`unary`] — small helper encodings.
//!
//! In paper terms this crate is the storage substrate beneath §3.1's
//! "Model + Delta" representation: the delta array of Figure 7 is a
//! [`PackedArray`], and the fixed-width payload bytes documented in
//! `docs/FORMAT.md` (§"Packed delta payload") are exactly its backing words.
//!
//! All structures are self-contained (no external dependencies) and carry
//! enough metadata to report their exact serialized size in bytes, which the
//! benchmark harness relies on when computing compression ratios.
//!
//! ```
//! use leco_bitpack::PackedArray;
//!
//! let values: Vec<u64> = (0..1000).map(|i| i % 500).collect();
//! let packed = PackedArray::from_values_auto(&values);
//! assert_eq!(packed.width(), 9); // 499 needs 9 bits
//! assert_eq!(packed.get(123), 123);
//! assert_eq!(packed.try_get(1000), None);
//!
//! // Word-parallel bulk decode into a caller-provided buffer.
//! let mut out = vec![0u64; values.len()];
//! packed.decode_into_slice(&mut out);
//! assert_eq!(out, values);
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bitvec;
pub mod filter;
pub mod packed;
pub mod stream;
pub mod unary;
pub mod unpack;
pub mod zigzag;

pub use bitvec::BitVec;
pub use filter::{filter_deltas_range, filter_packed_range};
pub use packed::PackedArray;
pub use stream::{BitReader, BitWriter};
pub use unpack::{unpack_bits_into, unpack_deltas_into};
pub use zigzag::{zigzag_decode, zigzag_encode};

/// Number of bits needed to represent `v` (0 needs 0 bits).
#[inline]
pub fn bits_for(v: u64) -> u8 {
    (64 - v.leading_zeros()) as u8
}

/// Number of bits needed to represent every value in an unsigned range
/// `[0, max]` (i.e. `bits_for(max)`), returning at least 0 and at most 64.
#[inline]
pub fn width_for_max(max: u64) -> u8 {
    bits_for(max)
}

/// Ceiling division for byte/word sizing computations.
#[inline]
pub fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_for_edge_cases() {
        assert_eq!(bits_for(0), 0);
        assert_eq!(bits_for(1), 1);
        assert_eq!(bits_for(2), 2);
        assert_eq!(bits_for(3), 2);
        assert_eq!(bits_for(4), 3);
        assert_eq!(bits_for(u64::MAX), 64);
        assert_eq!(bits_for(u64::MAX >> 1), 63);
    }

    #[test]
    fn div_ceil_basic() {
        assert_eq!(div_ceil(0, 8), 0);
        assert_eq!(div_ceil(1, 8), 1);
        assert_eq!(div_ceil(8, 8), 1);
        assert_eq!(div_ceil(9, 8), 2);
    }
}
