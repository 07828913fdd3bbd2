//! Delta-var: Delta encoding improved with LeCo's variable-length partitioner
//! (§4.2's `Delta-var` baseline).
//!
//! Delta encoding is the LeCo special case whose model is an implicit step
//! function: only the first value of a partition is stored and every other
//! value is reconstructed by accumulating stored gaps.  For Delta the width
//! proxy `Δ(v[i..j))` is exact and updates in O(1) when a point is appended
//! (§3.2.2), so the split phase below uses the exact metric; the merge phase
//! uses exact partition costs.

use crate::partition::Partition;
use crate::read_table::BucketIndex;
use leco_bitpack::{bits_for, stream::read_bits, zigzag_decode, zigzag_encode, BitWriter};

/// Split aggressiveness: inclusion cost threshold as a fraction of the model
/// size (first value + width byte = 72 bits).
const MODEL_BITS: f64 = 72.0;
const MAX_MERGE_PASSES: usize = 6;

#[derive(Debug, Clone)]
struct DeltaPartition {
    start: u64,
    len: u32,
    first: u64,
    width: u8,
    bit_offset: u64,
}

/// A Delta-encoded column with variable-length partitions.
#[derive(Debug, Clone)]
pub struct DeltaVarColumn {
    partitions: Vec<DeltaPartition>,
    payload: Vec<u64>,
    payload_bits: usize,
    len: usize,
    /// Position → partition lookup (derived from the partition starts).
    index: BucketIndex,
}

/// Width in bits of the largest zigzag-coded gap in `values`.
fn gaps_width(values: &[u64]) -> u8 {
    values
        .windows(2)
        .map(|w| bits_for(zigzag_encode(w[1].wrapping_sub(w[0]) as i64)))
        .max()
        .unwrap_or(0)
}

/// Exact cost in bits of one Delta partition.
fn partition_cost_bits(len: usize, width: u8) -> usize {
    MODEL_BITS as usize + len.saturating_sub(1) * width as usize
}

fn split_phase(values: &[u64], tau: f64) -> Vec<Partition> {
    let n = values.len();
    let threshold = tau * MODEL_BITS;
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut width = 0u8;
    let mut j = 1usize;
    while j < n {
        let gap = bits_for(zigzag_encode(values[j].wrapping_sub(values[j - 1]) as i64));
        let new_width = width.max(gap);
        let old_len = j - start;
        let cost = (old_len + 1) as f64 * new_width as f64 - old_len as f64 * width as f64;
        if cost <= threshold {
            width = new_width;
            j += 1;
        } else {
            parts.push(Partition::new(start, j - start));
            start = j;
            width = 0;
            j += 1;
        }
    }
    parts.push(Partition::new(start, n - start));
    parts
}

fn merge_phase(values: &[u64], mut parts: Vec<Partition>) -> Vec<Partition> {
    for _ in 0..MAX_MERGE_PASSES {
        if parts.len() <= 1 {
            break;
        }
        let mut changed = false;
        let mut out: Vec<Partition> = Vec::with_capacity(parts.len());
        let mut cur = parts[0];
        let mut cur_cost = partition_cost_bits(cur.len, gaps_width(&values[cur.start..cur.end()]));
        for &next in &parts[1..] {
            let next_cost =
                partition_cost_bits(next.len, gaps_width(&values[next.start..next.end()]));
            let merged_len = cur.len + next.len;
            let merged_width = gaps_width(&values[cur.start..cur.start + merged_len]);
            let merged_cost = partition_cost_bits(merged_len, merged_width);
            if merged_cost < cur_cost + next_cost {
                cur = Partition::new(cur.start, merged_len);
                cur_cost = merged_cost;
                changed = true;
            } else {
                out.push(cur);
                cur = next;
                cur_cost = next_cost;
            }
        }
        out.push(cur);
        parts = out;
        if !changed {
            break;
        }
    }
    parts
}

impl DeltaVarColumn {
    /// Encode `values` with the default split aggressiveness (τ = 0.1).
    pub fn encode(values: &[u64]) -> Self {
        Self::encode_with_tau(values, 0.1)
    }

    /// Encode with an explicit split aggressiveness τ ∈ [0, 1].
    pub fn encode_with_tau(values: &[u64], tau: f64) -> Self {
        if values.is_empty() {
            return Self {
                partitions: Vec::new(),
                payload: Vec::new(),
                payload_bits: 0,
                len: 0,
                index: BucketIndex::default(),
            };
        }
        let parts = merge_phase(values, split_phase(values, tau.clamp(0.0, 1.0)));
        let mut partitions = Vec::with_capacity(parts.len());
        let mut writer = BitWriter::with_capacity(values.len() * 4);
        for p in &parts {
            let slice = &values[p.start..p.end()];
            let width = gaps_width(slice);
            let bit_offset = writer.len_bits() as u64;
            for w in slice.windows(2) {
                writer.write(zigzag_encode(w[1].wrapping_sub(w[0]) as i64), width);
            }
            partitions.push(DeltaPartition {
                start: p.start as u64,
                len: p.len as u32,
                first: slice[0],
                width,
                bit_offset,
            });
        }
        let (payload, payload_bits) = writer.finish();
        let index = BucketIndex::new(partitions.len(), values.len() as u64, |k| {
            partitions[k].start
        });
        Self {
            partitions,
            payload,
            payload_bits,
            len: values.len(),
            index,
        }
    }

    /// Number of logical values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no values are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of partitions produced by the variable-length partitioner.
    pub fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    /// Compressed size in bytes: per partition the anchor value, a width byte
    /// and a varint length, plus the packed gap payload.
    pub fn size_bytes(&self) -> usize {
        let header: usize = self
            .partitions
            .iter()
            .map(|p| 8 + 1 + varint_len(p.len as u64))
            .sum();
        header + leco_bitpack::div_ceil(self.payload_bits, 8)
    }

    /// Random access: requires sequentially decoding the partition prefix
    /// (the fundamental cost of Delta encoding, §4.3.2).
    pub fn get(&self, i: usize) -> u64 {
        assert!(i < self.len, "index {i} out of bounds");
        let k = self.index.locate(i, |k| self.partitions[k].start as usize);
        let p = &self.partitions[k];
        let local = i - p.start as usize;
        let mut current = p.first;
        let mut bit_pos = p.bit_offset as usize;
        for _ in 0..local {
            let gap = zigzag_decode(read_bits(&self.payload, bit_pos, p.width));
            bit_pos += p.width as usize;
            current = current.wrapping_add(gap as u64);
        }
        current
    }

    /// Decode every value, appending to `out`.
    ///
    /// The zigzag gaps of each partition are bulk-unpacked straight into the
    /// output buffer by the word-parallel kernels, then turned into values by
    /// an in-place prefix sum — the same fused structure as LeCo's partition
    /// decode, with accumulation playing the role of the model.
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        let written = out.len();
        out.resize(written + self.len, 0);
        let mut dst = &mut out[written..];
        for p in &self.partitions {
            let (seg, rest) = dst.split_at_mut(p.len as usize);
            let (head, gaps) = seg.split_first_mut().expect("partitions are non-empty");
            leco_bitpack::unpack_bits_into(&self.payload, p.bit_offset as usize, p.width, gaps);
            let mut current = p.first;
            *head = current;
            for slot in gaps.iter_mut() {
                current = current.wrapping_add(zigzag_decode(*slot) as u64);
                *slot = current;
            }
            dst = rest;
        }
    }

    /// Decode every value.
    pub fn decode_all(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        self.decode_into(&mut out);
        out
    }
}

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn round_trip_sorted() {
        let values: Vec<u64> = (0..20_000u64).map(|i| i * 3 + (i % 5)).collect();
        let c = DeltaVarColumn::encode(&values);
        assert_eq!(c.decode_all(), values);
        for i in (0..values.len()).step_by(997) {
            assert_eq!(c.get(i), values[i]);
        }
    }

    #[test]
    fn variable_partitions_beat_fixed_on_mixed_gaps() {
        // Long stretches of tiny gaps interrupted by bursts of huge gaps:
        // fixed-frame Delta pays the worst-case width everywhere in a frame.
        let mut values = Vec::new();
        let mut v = 0u64;
        for block in 0..40u64 {
            let gap = if block % 4 == 0 { 1_000_000 } else { 1 };
            for _ in 0..500 {
                v += gap;
                values.push(v);
            }
        }
        let var = DeltaVarColumn::encode(&values);
        let fix = leco_bitpack::div_ceil(values.len() * gaps_width(&values) as usize, 8);
        assert!(
            var.size_bytes() < fix,
            "var {} vs single-frame {}",
            var.size_bytes(),
            fix
        );
    }

    #[test]
    fn runs_compress_to_nearly_nothing() {
        let values = vec![777u64; 10_000];
        let c = DeltaVarColumn::encode(&values);
        assert_eq!(c.num_partitions(), 1);
        assert!(c.size_bytes() < 32);
        assert_eq!(c.decode_all(), values);
    }

    #[test]
    fn empty_and_singleton() {
        let c = DeltaVarColumn::encode(&[]);
        assert!(c.is_empty());
        assert!(c.decode_all().is_empty());
        let c = DeltaVarColumn::encode(&[5]);
        assert_eq!(c.get(0), 5);
        assert_eq!(c.decode_all(), vec![5]);
    }

    #[test]
    fn extreme_values_round_trip() {
        let values = vec![u64::MAX, 0, u64::MAX / 2, 3, u64::MAX];
        let c = DeltaVarColumn::encode(&values);
        assert_eq!(c.decode_all(), values);
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(c.get(i), v);
        }
    }

    /// Every index of `get` against the bulk decode, over skewed partition
    /// mixes: long runs next to bursts of one- to three-value partitions.
    #[test]
    fn get_equals_decode_all_at_every_index() {
        // Runs of gap-1 values separated by 2^50 jumps: a jump costs more
        // than a partition header, so every run keeps its own partition.
        let (mut skewed, mut v) = (Vec::new(), 0u64);
        for block in 0..400u64 {
            let run = [1, 1, 2, 3, 1, 700][block as usize % 6];
            v += 1 << 50;
            for k in 0..run {
                skewed.push(v + k);
            }
        }
        for values in [skewed, vec![9u64; 5_000]] {
            let c = DeltaVarColumn::encode(&values);
            let decoded = c.decode_all();
            assert_eq!(decoded, values);
            for (i, &want) in decoded.iter().enumerate() {
                assert_eq!(
                    c.get(i),
                    want,
                    "index {i} of {} partitions",
                    c.num_partitions()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_round_trip(values in proptest::collection::vec(any::<u64>(), 1..400), tau in 0.0f64..0.3) {
            let c = DeltaVarColumn::encode_with_tau(&values, tau);
            prop_assert_eq!(c.decode_all(), values.clone());
            for (i, &v) in values.iter().enumerate() {
                prop_assert_eq!(c.get(i), v);
            }
        }
    }
}
