//! `leco-bitpack` probes, on packed images of the codec workload's values.
//!
//! Pinned API: `PackedArray::{from_values, get, words, len}`,
//! `unpack_bits_into`, `unpack_deltas_into`, `filter_packed_range`.

use crate::harness::{best_of, GIB};
use crate::metrics::Measured;
use crate::stats;
use leco_bitpack::{filter_packed_range, unpack_bits_into, unpack_deltas_into, PackedArray};
use std::hint::black_box;

/// The widths the unpack figure is a geometric mean over.
const WIDTHS: [u8; 4] = [4, 12, 20, 36];

pub fn probes(values: &[u64], indices: &[u32]) -> Measured {
    let mut m = Measured::default();
    let n = values.len();
    let raw_bytes = (n * 8) as f64;
    let masked =
        |width: u8| -> Vec<u64> { values.iter().map(|v| v & ((1u64 << width) - 1)).collect() };
    let mut out = vec![0u64; n];

    let mut unpack = Vec::new();
    for width in WIDTHS {
        let packed = PackedArray::from_values(&masked(width), width);
        let secs = best_of(7, || {
            for _ in 0..8 {
                unpack_bits_into(black_box(packed.words()), 0, width, &mut out);
            }
            black_box(&out);
        });
        unpack.push(8.0 * raw_bytes / GIB / secs);
    }
    m.set("bitpack.unpack_gib_s", stats::geomean(&unpack));

    let input = masked(20);
    let packed = PackedArray::from_values(&input, 20);
    let secs = best_of(7, || {
        for _ in 0..8 {
            unpack_deltas_into(black_box(packed.words()), 0, 20, 1 << 40, &mut out);
        }
        black_box(&out);
    });
    m.set("bitpack.unpack_deltas_gib_s", 8.0 * raw_bytes / GIB / secs);

    let secs = best_of(7, || {
        for _ in 0..4 {
            black_box(PackedArray::from_values(black_box(&input), 20));
        }
    });
    m.set("bitpack.pack_gib_s", 4.0 * raw_bytes / GIB / secs);

    let secs = best_of(7, || {
        let mut acc = 0u64;
        for &i in indices {
            acc = acc.wrapping_add(packed.get(i as usize % n));
        }
        black_box(acc);
    });
    m.set("bitpack.get_ns", secs * 1e9 / indices.len() as f64);

    let secs = best_of(7, || {
        let mut hits = 0u32;
        for _ in 0..8 {
            filter_packed_range(packed.words(), 0, 20, n, 1 << 17, 1 << 19, |_, mask, _| {
                hits += mask.count_ones()
            });
        }
        black_box(hits);
    });
    m.set("bitpack.filter_packed_rows_s", 8.0 * n as f64 / secs);
    m
}
