//! Cross-crate integration test: the columnar engine produces identical query
//! answers for every encoding, and LeCo files are the smallest on correlated
//! data (the premise of Figures 18–20).

use leco::columnar::{
    exec, Bitmap, BlockCompression, Encoding, QueryStats, TableFile, TableFileOptions,
};
use leco::datasets::tables::{sensor_table, SensorDistribution};
use leco::scan::Scanner;
use std::collections::HashMap;
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leco-it-query-{}-{}", std::process::id(), name));
    p
}

fn reference_groupby(ts: &[u64], id: &[u64], val: &[u64], lo: u64, hi: u64) -> Vec<(u64, f64)> {
    let mut acc: HashMap<u64, (u128, u64)> = HashMap::new();
    for i in 0..ts.len() {
        if (lo..=hi).contains(&ts[i]) {
            let e = acc.entry(id[i]).or_insert((0, 0));
            e.0 += val[i] as u128;
            e.1 += 1;
        }
    }
    let mut out: Vec<(u64, f64)> = acc
        .into_iter()
        .map(|(k, (s, c))| (k, s as f64 / c as f64))
        .collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

#[test]
fn all_encodings_agree_with_the_reference_engine() {
    let rows = 60_000;
    let t = sensor_table(rows, SensorDistribution::Correlated, 3);
    let lo = t.ts[rows / 4];
    let hi = t.ts[rows / 4 + rows / 50];
    let expected = reference_groupby(&t.ts, &t.id, &t.val, lo, hi);
    assert!(!expected.is_empty());

    for encoding in [
        Encoding::Default,
        Encoding::Delta,
        Encoding::For,
        Encoding::Leco,
    ] {
        let path = tmp(&format!("agree-{encoding:?}"));
        let file = TableFile::write(
            &path,
            &["ts", "id", "val"],
            &[t.ts.clone(), t.id.clone(), t.val.clone()],
            TableFileOptions {
                encoding,
                row_group_size: 16_384,
                ..Default::default()
            },
        )
        .unwrap();
        let result = Scanner::new(&file)
            .filter_col(0, lo, hi)
            .sorted_filter(true)
            .group_by_avg_cols(1, 2)
            .run(1)
            .unwrap();
        assert_eq!(result.groups.len(), expected.len(), "{encoding:?}");
        for (g, e) in result.groups.iter().zip(&expected) {
            assert_eq!(g.0, e.0, "{encoding:?}");
            assert_eq!(g.1.to_bits(), e.1.to_bits(), "{encoding:?}");
        }
        let stats = &result.stats;
        assert!(stats.io_bytes > 0 && stats.total_seconds() > 0.0);
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn leco_files_are_smallest_on_correlated_data_and_block_compression_stacks() {
    let rows = 60_000;
    let t = sensor_table(rows, SensorDistribution::Correlated, 3);
    let mut sizes = HashMap::new();
    for encoding in [Encoding::Default, Encoding::For, Encoding::Leco] {
        for compression in [BlockCompression::None, BlockCompression::Lzb] {
            let path = tmp(&format!("size-{encoding:?}-{compression:?}"));
            let file = TableFile::write(
                &path,
                &["ts", "id", "val"],
                &[t.ts.clone(), t.id.clone(), t.val.clone()],
                TableFileOptions {
                    encoding,
                    row_group_size: 30_000,
                    block_compression: compression,
                },
            )
            .unwrap();
            sizes.insert(
                (encoding.name(), compression == BlockCompression::Lzb),
                file.file_size_bytes(),
            );
            std::fs::remove_file(path).ok();
        }
    }
    assert!(sizes[&("LeCo", false)] < sizes[&("FOR", false)]);
    assert!(sizes[&("LeCo", false)] < sizes[&("Default", false)]);
    // Block compression still helps every encoding (Figure 20's stacking).
    for name in ["Default", "FOR", "LeCo"] {
        assert!(sizes[&(name, true)] <= sizes[&(name, false)], "{name}");
    }
}

#[test]
fn bitmap_aggregation_matches_reference_on_every_encoding() {
    let rows = 50_000;
    let t = sensor_table(rows, SensorDistribution::Random, 9);
    let mut bitmap = Bitmap::new(rows);
    bitmap.set_range(1_000, 1_500);
    bitmap.set_range(40_000, 40_050);
    let expected: u128 = bitmap.iter_ones().map(|i| t.val[i] as u128).sum();
    for encoding in [
        Encoding::Default,
        Encoding::Delta,
        Encoding::For,
        Encoding::Leco,
    ] {
        let path = tmp(&format!("bitmap-{encoding:?}"));
        let file = TableFile::write(
            &path,
            &["val"],
            std::slice::from_ref(&t.val),
            TableFileOptions {
                encoding,
                row_group_size: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        let mut stats = QueryStats::default();
        let got = exec::sum_selected(&file, 0, &bitmap, &mut stats).unwrap();
        assert_eq!(got, expected, "{encoding:?}");
        std::fs::remove_file(path).ok();
    }
}
