//! `leco-codecs` probes: the paper's FOR and Delta baselines on the codec
//! workload's columns — reference points for the Pareto claim, not a layer
//! any served workload runs through (tables use LeCo).
//!
//! Pinned API: `ForCodec::encode`, `DeltaCodec::encode`,
//! `IntColumn::{decode_into, get, size_bytes}`.

use crate::harness::{best_of, GIB};
use crate::metrics::Measured;
use leco_codecs::{DeltaCodec, ForCodec, IntColumn};
use std::hint::black_box;

/// Frame length of the §5.1 experiments (`columnar::CHUNK_PARTITION`).
const FRAME: usize = 10_000;

pub fn probes(columns: &[&[u64]], indices: &[u32]) -> Measured {
    let mut m = Measured::default();
    let raw_bytes: f64 = columns.iter().map(|c| (c.len() * 8) as f64).sum();
    let fors: Vec<ForCodec> = columns.iter().map(|c| ForCodec::encode(c, FRAME)).collect();
    let deltas: Vec<DeltaCodec> = columns
        .iter()
        .map(|c| DeltaCodec::encode(c, FRAME))
        .collect();
    let mut out = Vec::new();

    let secs = best_of(5, || {
        for c in columns {
            black_box(ForCodec::encode(black_box(c), FRAME));
        }
    });
    m.set("codecs.for_encode_mb_s", raw_bytes / 1e6 / secs);

    let mut decode = |cols: &[&dyn IntColumn]| {
        best_of(7, || {
            for col in cols {
                out.clear();
                col.decode_into(&mut out);
                black_box(&out);
            }
        })
    };
    let for_cols: Vec<&dyn IntColumn> = fors.iter().map(|c| c as &dyn IntColumn).collect();
    let delta_cols: Vec<&dyn IntColumn> = deltas.iter().map(|c| c as &dyn IntColumn).collect();
    m.set(
        "codecs.for_decode_gib_s",
        raw_bytes / GIB / decode(&for_cols),
    );
    m.set(
        "codecs.delta_decode_gib_s",
        raw_bytes / GIB / decode(&delta_cols),
    );

    let access = |cols: &[&dyn IntColumn], take: usize| {
        let secs = best_of(5, || {
            let mut acc = 0u64;
            for col in cols {
                for &i in &indices[..take] {
                    acc = acc.wrapping_add(col.get(i as usize % col.len()));
                }
            }
            black_box(acc);
        });
        secs * 1e9 / (take * cols.len()) as f64
    };
    m.set("codecs.for_access_ns", access(&for_cols, indices.len()));
    // Delta access replays a frame prefix (~µs each): sample fewer positions.
    m.set(
        "codecs.delta_access_ns",
        access(&delta_cols, indices.len() / 32),
    );

    let size = |cols: &[&dyn IntColumn]| cols.iter().map(|c| c.size_bytes() as f64).sum::<f64>();
    m.set("codecs.for_ratio", size(&for_cols) / raw_bytes);
    m.set("codecs.delta_ratio", size(&delta_cols) / raw_bytes);
    m
}
