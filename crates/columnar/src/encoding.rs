//! Pluggable column encodings.
//!
//! `Default` mirrors Parquet's behaviour (dictionary encoding, falling back
//! to plain when the dictionary grows too large); `Delta`, `For` and `Leco`
//! are the lightweight schemes compared in §5.1.  Every encoded column
//! supports random access (`get`), full decode and an exact byte image so the
//! file layer can persist it.

use leco_codecs::{DeltaCodec, ForCodec, IntColumn, OpDict};
use leco_core::{CompressedColumn, LecoCompressor, LecoConfig};

/// Encoding selector for a column chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Parquet's default: dictionary encoding with plain fallback when the
    /// dictionary would exceed ~50% of the chunk.
    Default,
    /// Plain (8 bytes per value).
    Plain,
    /// Delta encoding with fixed frames.
    Delta,
    /// Frame-of-Reference.
    For,
    /// LeCo with linear regressor and fixed-length partitions.
    Leco,
    /// LeCo with linear regressor and *variable-length* partitions: the
    /// split–merge partitioner priced by the exact `CostModel`.  Slower to
    /// encode than [`Encoding::Leco`], smaller on drifting data — the
    /// encoding the ingest compactor uses for cold data.
    LecoVar,
}

impl Encoding {
    /// Label used in result tables.
    pub fn name(&self) -> &'static str {
        match self {
            Encoding::Default => "Default",
            Encoding::Plain => "Plain",
            Encoding::Delta => "Delta",
            Encoding::For => "FOR",
            Encoding::Leco => "LeCo",
            Encoding::LecoVar => "LeCoVar",
        }
    }

    /// Stable one-byte tag persisted in the table-file footer.
    pub fn tag(&self) -> u8 {
        match self {
            Encoding::Default => 0,
            Encoding::Plain => 1,
            Encoding::Delta => 2,
            Encoding::For => 3,
            Encoding::Leco => 4,
            Encoding::LecoVar => 5,
        }
    }

    /// Inverse of [`Self::tag`].
    pub fn from_tag(tag: u8) -> Option<Encoding> {
        Some(match tag {
            0 => Encoding::Default,
            1 => Encoding::Plain,
            2 => Encoding::Delta,
            3 => Encoding::For,
            4 => Encoding::Leco,
            5 => Encoding::LecoVar,
            _ => return None,
        })
    }
}

/// Frame / partition size used by the fixed-length encodings, matching the
/// 10k-entry partitions of the §5.1 experiments.
pub const CHUNK_PARTITION: usize = 10_000;

/// A column chunk encoded with one of the supported encodings.
#[derive(Debug, Clone)]
pub enum EncodedColumn {
    /// Plain values.
    Plain(Vec<u64>),
    /// Order-preserving dictionary.
    Dict(OpDict),
    /// Fixed-frame delta.
    Delta(DeltaCodec),
    /// Frame-of-Reference.
    For(ForCodec),
    /// LeCo.
    Leco(CompressedColumn),
}

impl EncodedColumn {
    /// Encode `values` with `encoding`.
    pub fn encode(values: &[u64], encoding: Encoding) -> Self {
        match encoding {
            Encoding::Plain => EncodedColumn::Plain(values.to_vec()),
            Encoding::Default => {
                let dict = OpDict::encode(values);
                // Parquet-style fallback: if the dictionary does not pay off,
                // store plain.
                if dict.dict_size_bytes() > values.len() * 4 {
                    EncodedColumn::Plain(values.to_vec())
                } else {
                    EncodedColumn::Dict(dict)
                }
            }
            Encoding::Delta => EncodedColumn::Delta(DeltaCodec::encode(values, CHUNK_PARTITION)),
            Encoding::For => EncodedColumn::For(ForCodec::encode(values, CHUNK_PARTITION)),
            Encoding::Leco => EncodedColumn::Leco(
                LecoCompressor::new(LecoConfig::leco_fix_with_len(CHUNK_PARTITION))
                    .compress(values),
            ),
            Encoding::LecoVar => {
                EncodedColumn::Leco(LecoCompressor::new(LecoConfig::leco_var()).compress(values))
            }
        }
    }

    /// Rebuild an encoded column from the byte image persisted by the file
    /// layer ([`Self::byte_image`]).
    ///
    /// Only the self-describing images can be reopened today: `Plain` (raw
    /// little-endian `u64`s) and the LeCo formats (the `docs/FORMAT.md` v2
    /// layout parsed by [`leco_core::CompressedColumn::from_bytes`]).  The
    /// `Default`/`Delta`/`For` images carry no header, so a table written
    /// with those encodings reports `Unsupported` — write-path consumers
    /// that need reopenability (the ingest compactor) use Plain or LeCo.
    pub fn from_byte_image(bytes: &[u8], encoding: Encoding) -> std::io::Result<Self> {
        match encoding {
            Encoding::Plain => {
                if !bytes.len().is_multiple_of(8) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "plain chunk image of {} bytes is not a u64 array",
                            bytes.len()
                        ),
                    ));
                }
                Ok(EncodedColumn::Plain(
                    bytes
                        .chunks_exact(8)
                        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                        .collect(),
                ))
            }
            Encoding::Leco | Encoding::LecoVar => CompressedColumn::from_bytes(bytes)
                .map(EncodedColumn::Leco)
                .map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("corrupt LeCo chunk image: {e:?}"),
                    )
                }),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                format!("{} chunk images cannot be reopened", other.name()),
            )),
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len(),
            EncodedColumn::Dict(c) => c.len(),
            EncodedColumn::Delta(c) => c.len(),
            EncodedColumn::For(c) => c.len(),
            EncodedColumn::Leco(c) => c.len(),
        }
    }

    /// True if the chunk holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Encoded size in bytes (equals the length of [`Self::byte_image`]).
    pub fn size_bytes(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len() * 8,
            EncodedColumn::Dict(c) => c.size_bytes(),
            EncodedColumn::Delta(c) => c.size_bytes(),
            EncodedColumn::For(c) => c.size_bytes(),
            EncodedColumn::Leco(c) => c.size_bytes(),
        }
    }

    /// Random access to position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            EncodedColumn::Plain(v) => v[i],
            EncodedColumn::Dict(c) => c.get(i),
            EncodedColumn::Delta(c) => c.get(i),
            EncodedColumn::For(c) => c.get(i),
            EncodedColumn::Leco(c) => c.get(i),
        }
    }

    /// Decode every value, appending to `out`.
    ///
    /// This is the word-parallel bulk path used by the scan kernels in
    /// [`crate::exec`] so one buffer can be reused across row groups instead
    /// of allocating a fresh vector per chunk.
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        match self {
            EncodedColumn::Plain(v) => out.extend_from_slice(v),
            EncodedColumn::Dict(c) => c.decode_into(out),
            EncodedColumn::Delta(c) => c.decode_into(out),
            EncodedColumn::For(c) => c.decode_into(out),
            EncodedColumn::Leco(c) => c.decode_into(out),
        }
    }

    /// Decode every value.
    pub fn decode_all(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len());
        self.decode_into(&mut out);
        out
    }

    /// The byte image persisted by the file layer.
    pub fn byte_image(&self) -> Vec<u8> {
        match self {
            EncodedColumn::Plain(v) => v.iter().flat_map(|x| x.to_le_bytes()).collect(),
            EncodedColumn::Dict(c) => {
                let mut out = Vec::with_capacity(c.size_bytes());
                c.write_bytes(&mut out);
                out
            }
            EncodedColumn::Delta(c) => {
                let mut out = Vec::with_capacity(c.size_bytes());
                c.write_bytes(&mut out);
                out
            }
            EncodedColumn::For(c) => {
                let mut out = Vec::with_capacity(c.size_bytes());
                c.write_bytes(&mut out);
                out
            }
            EncodedColumn::Leco(c) => c.to_bytes(),
        }
    }

    /// For a sorted chunk, the first position with value `>= target`
    /// (`len` if none).  LeCo uses its model-guided search; the other
    /// encodings binary search through random access.
    pub fn lower_bound_sorted(&self, target: u64) -> usize {
        match self {
            EncodedColumn::Leco(c) => c.lower_bound_sorted(target),
            _ => {
                let mut lo = 0usize;
                let mut hi = self.len();
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    if self.get(mid) < target {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    /// Encoding label.
    pub fn encoding_name(&self) -> &'static str {
        match self {
            EncodedColumn::Plain(_) => "Plain",
            EncodedColumn::Dict(_) => "Default",
            EncodedColumn::Delta(_) => "Delta",
            EncodedColumn::For(_) => "FOR",
            EncodedColumn::Leco(_) => "LeCo",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u64> {
        (0..30_000u64)
            .map(|i| 1_000_000 + i * 7 + (i % 13))
            .collect()
    }

    #[test]
    fn every_encoding_round_trips() {
        let values = sample();
        for enc in [
            Encoding::Default,
            Encoding::Plain,
            Encoding::Delta,
            Encoding::For,
            Encoding::Leco,
        ] {
            let col = EncodedColumn::encode(&values, enc);
            assert_eq!(col.len(), values.len(), "{enc:?}");
            assert_eq!(col.decode_all(), values, "{enc:?}");
            for i in [0usize, 1, 9_999, 10_000, 29_999] {
                assert_eq!(col.get(i), values[i], "{enc:?} at {i}");
            }
        }
    }

    #[test]
    fn byte_image_length_matches_size() {
        let values = sample();
        for enc in [
            Encoding::Default,
            Encoding::Plain,
            Encoding::Delta,
            Encoding::For,
            Encoding::Leco,
        ] {
            let col = EncodedColumn::encode(&values, enc);
            assert_eq!(col.byte_image().len(), col.size_bytes(), "{enc:?}");
        }
    }

    #[test]
    fn default_encoding_falls_back_to_plain_on_unique_values() {
        let values: Vec<u64> = (0..10_000u64).map(|i| i * 1_000_003).collect();
        let col = EncodedColumn::encode(&values, Encoding::Default);
        assert!(matches!(col, EncodedColumn::Plain(_)));
        // Low-cardinality data keeps the dictionary.
        let values: Vec<u64> = (0..10_000u64).map(|i| i % 100).collect();
        let col = EncodedColumn::encode(&values, Encoding::Default);
        assert!(matches!(col, EncodedColumn::Dict(_)));
    }

    #[test]
    fn leco_is_smallest_on_correlated_data() {
        let values = sample();
        let leco = EncodedColumn::encode(&values, Encoding::Leco).size_bytes();
        let for_ = EncodedColumn::encode(&values, Encoding::For).size_bytes();
        let dflt = EncodedColumn::encode(&values, Encoding::Default).size_bytes();
        assert!(leco < for_, "LeCo {leco} vs FOR {for_}");
        assert!(leco < dflt, "LeCo {leco} vs Default {dflt}");
    }

    #[test]
    fn lower_bound_consistent_across_encodings() {
        let values = sample();
        for enc in [Encoding::Plain, Encoding::For, Encoding::Leco] {
            let col = EncodedColumn::encode(&values, enc);
            for target in [0u64, 1_000_000, 1_105_000, u64::MAX] {
                let expected = values.partition_point(|&v| v < target);
                assert_eq!(
                    col.lower_bound_sorted(target),
                    expected,
                    "{enc:?} target {target}"
                );
            }
        }
    }
}
