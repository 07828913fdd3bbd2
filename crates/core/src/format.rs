//! Self-describing serialized storage format (Figure 7).
//!
//! Layout (all integers little endian):
//!
//! ```text
//! magic "LECO" | version u8 (2) | flags u8 | value_width u8
//! | len varint | num_partitions varint | [fixed_len varint if flags & FIXED]
//! then, per partition:
//!   len varint | model (tag + params) | bias zigzag-varint(i128) | width u8
//!   | correction block (num_corrections varint + varint deltas) — PRESENT
//!     ONLY IF `Model::needs_corrections(len)`, i.e. only when the
//!     θ₁-accumulation fallback decoder would actually consult it
//! then the payload:
//!   payload_bits varint | packed u64 words
//! ```
//!
//! Version 1 buffers (correction block unconditionally present, and written
//! even for partitions whose decoder never reads it) remain readable.
//!
//! Partition start positions and payload bit offsets are *derivable* (prefix
//! sums of the partition lengths and `len·width` products) and therefore not
//! stored, matching the paper's accounting where only the model, the bit
//! length and the packed deltas are charged.  [`from_bytes`] derives them,
//! with the rest of the column's read table (`crate::read_table`), after
//! validating every count, length and position against the buffer — a
//! hostile header is a [`FormatError::Corrupt`], never a panic or an
//! allocation the input cannot back.

use crate::column::{CompressedColumn, PartitionMeta};
use crate::model::{Model, SineTerm};
use crate::read_table::{PartitionSums, ReadTable};

const MAGIC: &[u8; 4] = b"LECO";
const VERSION: u8 = 2;
/// Oldest version this decoder still reads.
const MIN_VERSION: u8 = 1;
const FLAG_FIXED: u8 = 1;

/// Error returned when deserialization fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The buffer does not start with the LeCo magic bytes.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u8),
    /// The buffer ended prematurely or a field was out of range.
    Corrupt(&'static str),
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "not a LeCo column (bad magic)"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            FormatError::Corrupt(what) => write!(f, "corrupt column: {what}"),
        }
    }
}

impl std::error::Error for FormatError {}

// ---------------------------------------------------------------------------
// primitive writers / readers
// ---------------------------------------------------------------------------

pub(crate) fn write_varint(out: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

pub(crate) fn varint_len(mut v: u128) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

pub(crate) fn zigzag_i128(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

fn unzigzag_i128(v: u128) -> i128 {
    ((v >> 1) as i128) ^ -((v & 1) as i128)
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.pos + n > self.buf.len() {
            return Err(FormatError::Corrupt("unexpected end of buffer"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.bytes(1)?[0])
    }

    fn f64(&mut self) -> Result<f64, FormatError> {
        let b = self.bytes(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn u64(&mut self) -> Result<u64, FormatError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// A varint that must fit `T` (a count, length or position).
    fn varint_as<T: TryFrom<u128>>(&mut self, what: &'static str) -> Result<T, FormatError> {
        T::try_from(self.varint()?).map_err(|_| FormatError::Corrupt(what))
    }

    fn varint(&mut self) -> Result<u128, FormatError> {
        let mut v: u128 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 128 {
                return Err(FormatError::Corrupt("varint too long"));
            }
            v |= ((byte & 0x7F) as u128) << shift;
            if byte & 0x80 == 0 {
                break;
            }
            shift += 7;
        }
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// model (de)serialization
// ---------------------------------------------------------------------------

const TAG_CONSTANT: u8 = 0;
const TAG_LINEAR: u8 = 1;
const TAG_POLY: u8 = 2;
const TAG_EXP: u8 = 3;
const TAG_LOG: u8 = 4;
const TAG_SINE: u8 = 5;

fn write_model(out: &mut Vec<u8>, model: &Model) {
    match model {
        Model::Constant { value } => {
            out.push(TAG_CONSTANT);
            out.extend_from_slice(&value.to_le_bytes());
        }
        Model::Linear { theta0, theta1 } => {
            out.push(TAG_LINEAR);
            out.extend_from_slice(&theta0.to_le_bytes());
            out.extend_from_slice(&theta1.to_le_bytes());
        }
        Model::Poly { coeffs } => {
            out.push(TAG_POLY);
            out.push(coeffs.len() as u8);
            for c in coeffs {
                out.extend_from_slice(&c.to_le_bytes());
            }
        }
        Model::Exponential { ln_a, b } => {
            out.push(TAG_EXP);
            out.extend_from_slice(&ln_a.to_le_bytes());
            out.extend_from_slice(&b.to_le_bytes());
        }
        Model::Logarithm { theta0, theta1 } => {
            out.push(TAG_LOG);
            out.extend_from_slice(&theta0.to_le_bytes());
            out.extend_from_slice(&theta1.to_le_bytes());
        }
        Model::Sine {
            theta0,
            theta1,
            terms,
        } => {
            out.push(TAG_SINE);
            out.extend_from_slice(&theta0.to_le_bytes());
            out.extend_from_slice(&theta1.to_le_bytes());
            out.push(terms.len() as u8);
            for t in terms {
                out.extend_from_slice(&t.omega.to_le_bytes());
                out.extend_from_slice(&t.a_sin.to_le_bytes());
                out.extend_from_slice(&t.a_cos.to_le_bytes());
            }
        }
    }
}

fn read_model(r: &mut Reader<'_>) -> Result<Model, FormatError> {
    let tag = r.u8()?;
    Ok(match tag {
        TAG_CONSTANT => Model::Constant { value: r.f64()? },
        TAG_LINEAR => Model::Linear {
            theta0: r.f64()?,
            theta1: r.f64()?,
        },
        TAG_POLY => {
            let k = r.u8()? as usize;
            if k > 8 {
                return Err(FormatError::Corrupt("polynomial degree too large"));
            }
            let mut coeffs = Vec::with_capacity(k);
            for _ in 0..k {
                coeffs.push(r.f64()?);
            }
            Model::Poly { coeffs }
        }
        TAG_EXP => Model::Exponential {
            ln_a: r.f64()?,
            b: r.f64()?,
        },
        TAG_LOG => Model::Logarithm {
            theta0: r.f64()?,
            theta1: r.f64()?,
        },
        TAG_SINE => {
            let theta0 = r.f64()?;
            let theta1 = r.f64()?;
            let k = r.u8()? as usize;
            if k > 8 {
                return Err(FormatError::Corrupt("too many sine terms"));
            }
            let mut terms = Vec::with_capacity(k);
            for _ in 0..k {
                terms.push(SineTerm {
                    omega: r.f64()?,
                    a_sin: r.f64()?,
                    a_cos: r.f64()?,
                });
            }
            Model::Sine {
                theta0,
                theta1,
                terms,
            }
        }
        _ => return Err(FormatError::Corrupt("unknown model tag")),
    })
}

// ---------------------------------------------------------------------------
// column (de)serialization
// ---------------------------------------------------------------------------

/// Serialize a column to bytes.
pub fn to_bytes(col: &CompressedColumn) -> Vec<u8> {
    let mut out = Vec::with_capacity(serialized_size(col));
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    out.push(if col.fixed_len.is_some() {
        FLAG_FIXED
    } else {
        0
    });
    out.push(col.value_width as u8);
    write_varint(&mut out, col.len as u128);
    write_varint(&mut out, col.partitions.len() as u128);
    if let Some(l) = col.fixed_len {
        write_varint(&mut out, l as u128);
    }
    for p in &col.partitions {
        write_varint(&mut out, p.len as u128);
        write_model(&mut out, &p.model);
        write_varint(&mut out, zigzag_i128(p.bias));
        out.push(p.width);
        // v2: the correction block exists only when the θ₁-accumulation
        // fallback decoder will consult it.  (The vestigial lists of v1
        // buffers are dropped on load.)
        if p.model.needs_corrections(p.len as usize) {
            write_varint(&mut out, p.corrections.len() as u128);
            let mut prev = 0u32;
            for &c in &p.corrections {
                write_varint(&mut out, (c - prev) as u128);
                prev = c;
            }
        }
    }
    write_varint(&mut out, col.payload_bits as u128);
    for w in &col.payload {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Exact size in bytes of [`to_bytes`] without materialising the buffer.
pub fn serialized_size(col: &CompressedColumn) -> usize {
    let mut size = 4 + 1 + 1 + 1; // magic, version, flags, value_width
    size += varint_len(col.len as u128);
    size += varint_len(col.partitions.len() as u128);
    if let Some(l) = col.fixed_len {
        size += varint_len(l as u128);
    }
    for p in &col.partitions {
        size += varint_len(p.len as u128);
        size += p.model.size_bytes();
        size += varint_len(zigzag_i128(p.bias));
        size += 1; // width
        if p.model.needs_corrections(p.len as usize) {
            size += varint_len(p.corrections.len() as u128);
            let mut prev = 0u32;
            for &c in &p.corrections {
                size += varint_len((c - prev) as u128);
                prev = c;
            }
        }
    }
    size += varint_len(col.payload_bits as u128);
    size += col.payload.len() * 8;
    size
}

/// Deserialize a column.
pub fn from_bytes(bytes: &[u8]) -> Result<CompressedColumn, FormatError> {
    let mut r = Reader::new(bytes);
    if r.bytes(4)? != MAGIC {
        return Err(FormatError::BadMagic);
    }
    let version = r.u8()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(FormatError::UnsupportedVersion(version));
    }
    let flags = r.u8()?;
    let value_width = r.u8()? as usize;
    let len: usize = r.varint_as("column length exceeds usize")?;
    let num_partitions: usize = r.varint_as("partition count exceeds usize")?;
    let fixed_len = if flags & FLAG_FIXED != 0 {
        let l: usize = r.varint_as("fixed partition length exceeds usize")?;
        if l == 0 {
            return Err(FormatError::Corrupt("fixed partition length is zero"));
        }
        Some(l)
    } else {
        None
    };
    // Every capacity below is capped by the bytes left: each partition
    // record, correction and payload word takes at least one byte of input,
    // so a hostile count fails on the buffer's end, not in the allocator.
    let mut partitions = Vec::with_capacity(num_partitions.min(r.remaining()));
    let (mut start, mut bit_offset) = (0u64, 0u64);
    for j in 0..num_partitions {
        let plen: u32 = r.varint_as("partition length exceeds u32")?;
        if let Some(l) = fixed_len {
            // Every partition but the last holds exactly `l` values, the
            // last at most `l`: what `get`'s division by `l` relies on.
            let last = j + 1 == num_partitions;
            if plen as usize > l || (!last && plen as usize != l) {
                return Err(FormatError::Corrupt(
                    "partition length disagrees with fixed_len",
                ));
            }
        }
        let model = read_model(&mut r)?;
        let bias = unzigzag_i128(r.varint()?);
        let width = r.u8()?;
        if width > 64 {
            return Err(FormatError::Corrupt("delta width exceeds 64 bits"));
        }
        // v1 stores the correction block for every partition; v2 only when
        // the accumulation fallback decoder will read it.
        let needs_corrections = model.needs_corrections(plen as usize);
        let mut corrections = Vec::new();
        if version == 1 || needs_corrections {
            let n_corr: usize = r.varint_as("too many corrections")?;
            if n_corr > plen as usize {
                return Err(FormatError::Corrupt("too many corrections"));
            }
            corrections.reserve_exact(n_corr.min(r.remaining()));
            let mut prev = 0u32;
            for _ in 0..n_corr {
                let gap: u32 = r.varint_as("correction position out of range")?;
                prev = prev
                    .checked_add(gap)
                    .filter(|&local| local < plen)
                    .ok_or(FormatError::Corrupt("correction position out of range"))?;
                corrections.push(prev);
            }
            if !needs_corrections {
                // A vestigial v1 list the decoder never reads.
                corrections = Vec::new();
            }
        }
        partitions.push(PartitionMeta {
            len: plen,
            model,
            bias,
            width,
            corrections,
        });
        start += plen as u64;
        bit_offset = bit_offset
            .checked_add(plen as u64 * width as u64)
            .ok_or(FormatError::Corrupt("payload bit count overflows"))?;
    }
    if start != len as u64 {
        return Err(FormatError::Corrupt(
            "partition lengths do not sum to column length",
        ));
    }
    let payload_bits: u64 = r.varint_as("payload bit count mismatch")?;
    if payload_bits != bit_offset {
        return Err(FormatError::Corrupt("payload bit count mismatch"));
    }
    let payload_bits =
        usize::try_from(payload_bits).map_err(|_| FormatError::Corrupt("payload too large"))?;
    let n_words = leco_bitpack::div_ceil(payload_bits, 64);
    if n_words > r.remaining() / 8 {
        return Err(FormatError::Corrupt("unexpected end of buffer"));
    }
    let mut payload = Vec::with_capacity(n_words);
    for _ in 0..n_words {
        payload.push(r.u64()?);
    }
    let mut col = CompressedColumn {
        table: ReadTable::derive(&partitions, len, fixed_len),
        sums: PartitionSums::default(),
        partitions,
        payload,
        payload_bits,
        len,
        fixed_len,
        value_width,
        serialized_bytes: 0,
    };
    col.serialized_bytes = serialized_size(&col);
    Ok(col)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LecoCompressor, LecoConfig};
    use proptest::prelude::*;

    fn sample_column(config: LecoConfig) -> (Vec<u64>, CompressedColumn) {
        let values: Vec<u64> = (0..3_000u64)
            .map(|i| if i % 700 < 350 { i * 5 } else { 1_000_000 + i })
            .collect();
        let col = LecoCompressor::new(config).compress(&values);
        (values, col)
    }

    #[test]
    fn to_bytes_length_matches_serialized_size() {
        for config in [
            LecoConfig::leco_fix(),
            LecoConfig::leco_var(),
            LecoConfig::for_(),
        ] {
            let (_, col) = sample_column(config);
            assert_eq!(col.to_bytes().len(), serialized_size(&col));
            assert_eq!(col.size_bytes(), serialized_size(&col));
        }
    }

    #[test]
    fn round_trip_preserves_values_and_metadata() {
        let (values, col) = sample_column(LecoConfig::leco_var());
        let bytes = col.to_bytes();
        let restored = from_bytes(&bytes).unwrap();
        assert_eq!(restored.len(), col.len());
        assert_eq!(restored.num_partitions(), col.num_partitions());
        assert_eq!(restored.decode_all(), values);
        assert_eq!(restored.get(1234), values[1234]);
        assert_eq!(restored.size_bytes(), col.size_bytes());
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let (_, col) = sample_column(LecoConfig::leco_fix());
        let mut bytes = col.to_bytes();
        assert_eq!(
            from_bytes(&bytes[..bytes.len() - 3]).unwrap_err(),
            FormatError::Corrupt("unexpected end of buffer")
        );
        bytes[0] = b'X';
        assert_eq!(from_bytes(&bytes).unwrap_err(), FormatError::BadMagic);
    }

    #[test]
    fn rejects_unsupported_version() {
        let (_, col) = sample_column(LecoConfig::leco_fix());
        let mut bytes = col.to_bytes();
        bytes[4] = 99;
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            FormatError::UnsupportedVersion(99)
        );
    }

    /// The cost model *is* the serializer's accounting: global header plus
    /// the per-partition `partition_cost_bits_exact` terms plus the payload
    /// framing reproduces the byte size exactly.
    #[test]
    fn exact_partition_costs_decompose_the_serialized_size() {
        use crate::regressor::{partition_cost_bits_exact, DeltaStats};
        for config in [
            LecoConfig::leco_fix(),
            LecoConfig::leco_var(),
            LecoConfig::for_(),
        ] {
            let (_, col) = sample_column(config.clone());
            let mut header = 4
                + 1
                + 1
                + 1
                + varint_len(col.len as u128)
                + varint_len(col.partitions.len() as u128);
            if let Some(l) = col.fixed_len {
                header += varint_len(l as u128);
            }
            let partition_bits: usize = col
                .partitions
                .iter()
                .map(|p| {
                    let stats = DeltaStats {
                        bias: p.bias,
                        width: p.width,
                    };
                    partition_cost_bits_exact(&p.model, p.len as usize, &stats)
                })
                .sum();
            let payload_framing = varint_len(col.payload_bits as u128) + col.payload.len() * 8;
            // partition_cost_bits_exact charges metadata plus the partition's
            // own len·width payload bits; the file stores those same bits
            // word-padded inside the framing, so both sides carry the
            // payload_bits term once.
            assert_eq!(
                (header + payload_framing) * 8 + partition_bits,
                col.to_bytes().len() * 8 + col.payload_bits,
                "{config:?}"
            );
        }
    }

    /// A version-1 buffer — correction block unconditionally present — still
    /// decodes, and re-serializing sheds the vestigial lists.
    #[test]
    fn reads_version_1_buffers() {
        let (values, col) = sample_column(LecoConfig::leco_var());
        // Down-convert: flip the version byte and re-insert the correction
        // blocks (all empty: fast-path partitions) after each width byte.
        let v2 = col.to_bytes();
        let mut v1 = Vec::with_capacity(v2.len() + col.partitions.len());
        let mut r = Reader::new(&v2);
        v1.extend_from_slice(r.bytes(4).unwrap()); // magic
        assert_eq!(r.u8().unwrap(), 2);
        v1.push(1); // version 1
        let flags = r.u8().unwrap();
        v1.push(flags);
        v1.push(r.u8().unwrap()); // value_width
        let start = r.pos;
        let len = r.varint().unwrap();
        let n_parts = r.varint().unwrap();
        if flags & FLAG_FIXED != 0 {
            r.varint().unwrap();
        }
        v1.extend_from_slice(&v2[start..r.pos]);
        assert_eq!(len as usize, values.len());
        for _ in 0..n_parts {
            let start = r.pos;
            let plen = r.varint().unwrap() as usize;
            let model = read_model(&mut r).unwrap();
            r.varint().unwrap(); // bias
            r.u8().unwrap(); // width
            assert!(
                !model.needs_corrections(plen),
                "sample data stays on the fast path"
            );
            v1.extend_from_slice(&v2[start..r.pos]);
            v1.push(0); // v1: empty correction block
        }
        v1.extend_from_slice(&v2[r.pos..]);
        let restored = from_bytes(&v1).unwrap();
        assert_eq!(restored.decode_all(), values);
        // Round-tripping through the current writer yields v2 again.
        assert_eq!(restored.to_bytes(), v2);
    }

    /// Fast-path linear partitions must not spend bytes on corrections the
    /// decoder never reads (the source of the quickstart's leco_var
    /// inversion before format v2).
    #[test]
    fn fast_path_partitions_store_no_corrections() {
        let values: Vec<u64> = (0..200_000u64)
            .map(|i| 1_700_000_000_000 + 40 * i)
            .collect();
        let col = LecoCompressor::new(LecoConfig::leco_var()).compress(&values);
        for p in &col.partitions {
            assert!(!p.model.needs_corrections(p.len as usize));
            assert!(p.corrections.is_empty());
        }
    }

    #[test]
    fn zigzag_i128_round_trip_extremes() {
        for v in [0i128, -1, 1, i128::MAX, i128::MIN, i64::MAX as i128 * 3] {
            assert_eq!(unzigzag_i128(zigzag_i128(v)), v);
        }
    }

    /// A version-2 header — `len`, `num_partitions` and, when `Some`, the
    /// FIXED flag with `fixed_len` — followed by `rest`.
    fn header(len: u128, parts: u128, fixed_len: Option<u128>, rest: &[u8]) -> Vec<u8> {
        let flags = if fixed_len.is_some() { FLAG_FIXED } else { 0 };
        let mut out = MAGIC.to_vec();
        out.extend([VERSION, flags, 8]);
        write_varint(&mut out, len);
        write_varint(&mut out, parts);
        if let Some(l) = fixed_len {
            write_varint(&mut out, l);
        }
        out.extend_from_slice(rest);
        out
    }

    /// `col`'s bytes with the header's `fixed_len` replaced.
    fn reheaded(col: &CompressedColumn, fixed_len: u128) -> Vec<u8> {
        let bytes = col.to_bytes();
        let mut r = Reader::new(&bytes);
        r.bytes(7).unwrap();
        let (len, parts) = (r.varint().unwrap(), r.varint().unwrap());
        r.varint().unwrap();
        header(len, parts, Some(fixed_len), &bytes[r.pos..])
    }

    /// One partition record: `plen` values of `model` at width `width`,
    /// bias 0, with `corrections` (gap varints) as its correction block.
    fn partition_record(plen: u128, model: &Model, width: u8, corrections: &[u128]) -> Vec<u8> {
        let mut out = Vec::new();
        write_varint(&mut out, plen);
        write_model(&mut out, model);
        write_varint(&mut out, zigzag_i128(0));
        out.push(width);
        if !corrections.is_empty() {
            write_varint(&mut out, corrections.len() as u128);
            for &gap in corrections {
                write_varint(&mut out, gap);
            }
        }
        out
    }

    /// A linear model off the fast path, so its correction block is present.
    const WIDE_LINEAR: Model = Model::Linear {
        theta0: 1e19,
        theta1: 0.0,
    };

    fn leco_fix_100() -> CompressedColumn {
        let values: Vec<u64> = (0..1_000u64).map(|i| 7 * i + i % 13).collect();
        LecoCompressor::new(LecoConfig::leco_fix_with_len(100)).compress(&values)
    }

    #[test]
    fn rejects_zero_fixed_len() {
        assert_eq!(
            from_bytes(&reheaded(&leco_fix_100(), 0)).unwrap_err(),
            FormatError::Corrupt("fixed partition length is zero")
        );
    }

    #[test]
    fn rejects_fixed_len_that_disagrees_with_partition_lengths() {
        let col = leco_fix_100();
        // Re-headed to its own length it still loads, and reads right.
        let same = from_bytes(&reheaded(&col, 100)).unwrap();
        assert_eq!(same.decode_all(), col.decode_all());
        assert_eq!(same.get(999), col.get(999));
        // 50 once made 150 of 1 000 `get`s silently wrong; 200 leaves
        // partitions but the last shorter than the header claims; 99 makes
        // the last partition longer.
        for l in [50, 200, 99] {
            assert_eq!(
                from_bytes(&reheaded(&col, l)).unwrap_err(),
                FormatError::Corrupt("partition length disagrees with fixed_len"),
                "fixed_len {l}"
            );
        }
    }

    #[test]
    fn rejects_partition_counts_the_buffer_cannot_hold() {
        // 2^56 partitions once went straight to `Vec::with_capacity`.
        assert_eq!(
            from_bytes(&header(1, 1 << 56, None, &[])).unwrap_err(),
            FormatError::Corrupt("unexpected end of buffer")
        );
        assert_eq!(
            from_bytes(&header(1, 1 << 70, None, &[])).unwrap_err(),
            FormatError::Corrupt("partition count exceeds usize")
        );
    }

    #[test]
    fn rejects_correction_positions_that_overflow_or_leave_the_partition() {
        let column = |gaps: &[u128]| {
            let mut bytes = header(3, 1, None, &partition_record(3, &WIDE_LINEAR, 0, gaps));
            write_varint(&mut bytes, 0); // payload_bits
            from_bytes(&bytes)
        };
        let ok = column(&[0, 2]).unwrap();
        assert_eq!(ok.partitions[0].corrections, vec![0, 2]);
        assert_eq!(ok.decode_all(), vec![10_000_000_000_000_000_000; 3]);
        // `prev += gap` once overflowed (a panic under the test profile),
        // `gap as u32` truncated 2^32 to 0, and positions were not checked
        // against the partition length.
        for gaps in [&[0, u32::MAX as u128][..], &[1 << 32], &[3], &[1, 1, 1]] {
            assert_eq!(
                column(gaps).unwrap_err(),
                FormatError::Corrupt("correction position out of range"),
                "gaps {gaps:?}"
            );
        }
    }

    #[test]
    fn rejects_partition_lengths_beyond_u32() {
        // `plen as u32` once truncated 2^32 + 3 to 3 partition values.
        let constant = Model::Constant { value: 1.0 };
        let mut bytes = header(
            3,
            1,
            None,
            &partition_record((1 << 32) + 3, &constant, 0, &[]),
        );
        write_varint(&mut bytes, 0);
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            FormatError::Corrupt("partition length exceeds u32")
        );
    }

    #[test]
    fn rejects_payloads_and_correction_lists_the_buffer_cannot_hold() {
        // 2^32 − 1 values at 64 bits: a 32 GiB payload claimed by a header.
        let plen = u32::MAX as u128;
        let constant = Model::Constant { value: 1.0 };
        let mut bytes = header(plen, 1, None, &partition_record(plen, &constant, 64, &[]));
        write_varint(&mut bytes, plen * 64);
        assert_eq!(
            from_bytes(&bytes).unwrap_err(),
            FormatError::Corrupt("unexpected end of buffer")
        );
        // A correction block claiming 2^32 − 1 positions (16 GiB of u32s).
        let mut record = partition_record(plen, &WIDE_LINEAR, 0, &[]);
        write_varint(&mut record, plen);
        assert_eq!(
            from_bytes(&header(plen, 1, None, &record)).unwrap_err(),
            FormatError::Corrupt("unexpected end of buffer")
        );
    }

    #[test]
    fn empty_column_round_trips() {
        let col = LecoCompressor::new(LecoConfig::leco_fix()).compress(&[]);
        let restored = from_bytes(&col.to_bytes()).unwrap();
        assert!(restored.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_serialization_round_trip(values in proptest::collection::vec(any::<u64>(), 0..300)) {
            let col = LecoCompressor::new(LecoConfig::leco_fix_with_len(50)).compress(&values);
            let restored = from_bytes(&col.to_bytes()).unwrap();
            prop_assert_eq!(restored.decode_all(), values);
        }

        #[test]
        fn prop_varint_round_trip(v in any::<u128>()) {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            prop_assert_eq!(buf.len(), varint_len(v));
            let mut r = Reader::new(&buf);
            prop_assert_eq!(r.varint().unwrap(), v);
        }
    }
}
