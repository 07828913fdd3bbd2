//! Differential harness for the aggregation chunk kernels.
//!
//! The locked invariant: `sum_selected_chunk`, `group_by_avg_chunk_zoned`
//! and its map adapter `group_by_avg_chunk` return exactly the integers of
//! a plain fold over `decode_all` and `Bitmap::get`, whichever route they
//! take inside — the sparse random-access route, the dense run walk over the
//! decoded buffers, the dense per-chunk group table (id span at most
//! `rows / 2`) or the sort of the wide-span exact route. The zoned kernel
//! runs with the exact zone map, one wider than the data and one narrower
//! (ids outside it, or `min > max`), on one scratch reused across calls;
//! its groups must come out strictly ascending with every count at least 1.
//!
//! Every case runs over all five chunk encodings (Plain, Dict, Delta, FOR,
//! LeCo), with short frames and partitions so that a chunk holds several of
//! them. The selections cover empty, one bit, full, runs across 64-bit word
//! edges, alternating bits and densities on both sides of the one-in-16
//! dense threshold; `base` offsets that are not a multiple of 64, with set
//! bits outside the chunk that the kernels must ignore; id spans just
//! below, at and above the dense bound; runs of equal ids inside and across
//! selection runs; and ids and values near `u64::MAX`, so that a group's sum
//! passes 2^64. The property tests honour
//! `PROPTEST_CASES` (CI: 2048).

use leco_codecs::{DeltaCodec, ForCodec, OpDict};
use leco_columnar::exec::{
    group_by_avg_chunk, group_by_avg_chunk_zoned, sum_selected_chunk, Group, GroupScratch,
};
use leco_columnar::{Bitmap, EncodedColumn};
use leco_core::{LecoCompressor, LecoConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// Frame and partition length: several per test chunk.
const FRAME: usize = 256;

/// `values` under each of the five chunk encodings.
fn encodings(values: &[u64]) -> Vec<(&'static str, EncodedColumn)> {
    vec![
        ("plain", EncodedColumn::Plain(values.to_vec())),
        ("dict", EncodedColumn::Dict(OpDict::encode(values))),
        (
            "delta",
            EncodedColumn::Delta(DeltaCodec::encode(values, FRAME)),
        ),
        ("for", EncodedColumn::For(ForCodec::encode(values, FRAME))),
        (
            "leco",
            EncodedColumn::Leco(
                LecoCompressor::new(LecoConfig::leco_fix_with_len(FRAME)).compress(values),
            ),
        ),
    ]
}

/// The chunk rows that `sel` selects: its positions `base + i`.
fn selected_rows(sel: &Bitmap, base: usize, rows: usize) -> impl Iterator<Item = usize> + '_ {
    (0..rows).filter(move |&i| sel.get(base + i))
}

fn oracle_sum(vals: &[u64], sel: &Bitmap, base: usize) -> u128 {
    selected_rows(sel, base, vals.len())
        .map(|i| vals[i] as u128)
        .sum()
}

fn oracle_groups(
    ids: &[u64],
    vals: &[u64],
    sel: &Bitmap,
    base: usize,
    mut groups: BTreeMap<u64, (u128, u64)>,
) -> BTreeMap<u64, (u128, u64)> {
    for i in selected_rows(sel, base, ids.len()) {
        let slot = groups.entry(ids[i]).or_insert((0, 0));
        slot.0 += vals[i] as u128;
        slot.1 += 1;
    }
    groups
}

/// A group the kernels must add to, not overwrite: it sits in `groups`
/// before the call, and its id may or may not occur in the chunk.
fn seeded_groups(ids: &[u64]) -> BTreeMap<u64, (u128, u64)> {
    let mut groups = BTreeMap::new();
    groups.insert(ids.first().copied().unwrap_or(7), (u64::MAX as u128 + 5, 3));
    groups.insert(12_345, (1, 1));
    groups
}

/// Run both kernels on every encoding of `ids`/`vals` and compare them with
/// the oracles.
fn check(ids: &[u64], vals: &[u64], sel: &Bitmap, base: usize, label: &str) {
    assert_eq!(ids.len(), vals.len());
    let want_sum = oracle_sum(vals, sel, base);
    let want_groups = oracle_groups(ids, vals, sel, base, seeded_groups(ids));
    let want: Vec<Group> = want_groups
        .iter()
        .map(|(&id, &(s, c))| (id, s, c))
        .collect();
    // One scratch for every call: a table slot a call leaves behind would
    // show in the next call's groups.
    let mut scratch = GroupScratch::default();
    for ((name, id_chunk), (_, val_chunk)) in encodings(ids).into_iter().zip(encodings(vals)) {
        assert_eq!(id_chunk.decode_all(), ids, "{label} {name}: id round trip");
        assert_eq!(
            val_chunk.decode_all(),
            vals,
            "{label} {name}: val round trip"
        );
        // Stale scratch contents must not leak into the result.
        let mut buf = vec![u64::MAX; 5];
        let got = sum_selected_chunk(&val_chunk, sel, base, &mut buf);
        assert_eq!(got, want_sum, "{label} {name}: sum");

        let mut id_buf = vec![3; 7];
        let mut val_buf = vec![u64::MAX; 9];
        let mut groups: HashMap<u64, (u128, u64)> = seeded_groups(ids).into_iter().collect();
        group_by_avg_chunk(
            &id_chunk,
            &val_chunk,
            sel,
            base,
            &mut id_buf,
            &mut val_buf,
            &mut groups,
        );
        let got: BTreeMap<u64, (u128, u64)> = groups.into_iter().collect();
        assert_eq!(got, want_groups, "{label} {name}: groups");

        for (zone_name, zone) in zones(ids) {
            let mut groups: Vec<Group> = seeded_groups(ids)
                .into_iter()
                .map(|(id, (s, c))| (id, s, c))
                .collect();
            group_by_avg_chunk_zoned(
                &id_chunk,
                &val_chunk,
                zone,
                sel,
                base,
                &mut scratch,
                &mut groups,
            );
            let ctx = format!("{label} {name}: zoned groups, {zone_name} zone {zone:?}");
            assert_eq!(groups, want, "{ctx}");
            assert!(groups.windows(2).all(|w| w[0].0 < w[1].0), "{ctx}: order");
            assert!(groups.iter().all(|&(_, _, c)| c >= 1), "{ctx}: counts");
        }
    }
}

/// The zone maps the zoned kernel is run with: the chunk's exact
/// `(min, max)`, one wider than the data, and one narrower (inverted when
/// the span is below 2), as a corrupt footer might hold.
fn zones(ids: &[u64]) -> [(&'static str, (u64, u64)); 3] {
    let min = ids.iter().copied().min().unwrap_or(0);
    let max = ids.iter().copied().max().unwrap_or(0);
    [
        ("exact", (min, max)),
        ("wider", (min.saturating_sub(3), max.saturating_add(3))),
        ("narrower", (min.saturating_add(1), max.saturating_sub(1))),
    ]
}

/// A bitmap of `base + rows + 70` positions with `chunk(i)` deciding chunk
/// row `i`, and every position outside the chunk set, so a kernel that
/// reads past its range counts rows it must not.
fn selection(base: usize, rows: usize, chunk: impl Fn(usize) -> bool) -> Bitmap {
    let mut sel = Bitmap::new(base + rows + 70);
    sel.set_range(0, base);
    sel.set_range(base + rows, sel.len());
    for i in (0..rows).filter(|&i| chunk(i)) {
        sel.set(base + i);
    }
    sel
}

/// Deterministic 64-bit mixer for test data.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// `rows` ids that take every value of `min..=min + span` (for
/// `rows > span`) in a scattered order, so the chunk's span is exactly
/// `span`.
fn ids_with_span(rows: usize, min: u64, span: u64) -> Vec<u64> {
    (0..rows as u64)
        .map(|i| min + (i * 7_919) % (span + 1))
        .collect()
}

/// Values near `u64::MAX`: any two of them sum past 2^64.
fn huge_values(rows: usize) -> Vec<u64> {
    (0..rows as u64).map(|i| u64::MAX - i % 5).collect()
}

/// Whether a selection picks chunk row `i`.
type Pick = Box<dyn Fn(usize) -> bool>;

/// The named selections over a chunk of `rows` rows.
fn selections(rows: usize) -> Vec<(String, Pick)> {
    let mut out: Vec<(String, Pick)> = vec![
        ("empty".into(), Box::new(|_| false)),
        ("first bit".into(), Box::new(|i| i == 0)),
        ("last bit".into(), Box::new(move |i| i == rows - 1)),
        ("bit 64".into(), Box::new(|i| i == 64)),
        ("full".into(), Box::new(|_| true)),
        ("alternating".into(), Box::new(|i| i % 2 == 1)),
        (
            "runs across word edges".into(),
            Box::new(|i| (60..70).contains(&i) || (127..321).contains(&i) || i % 193 > 150),
        ),
        (
            "all but the edges".into(),
            Box::new(move |i| i > 0 && i < rows - 1),
        ),
    ];
    // One row in `k`: 15 is dense, 17 sparse, 16 right at the threshold.
    for k in [2, 15, 16, 17, 64] {
        out.push((format!("every {k}th"), Box::new(move |i| i % k == 3)));
    }
    for (name, one_in) in [("random 1/12", 12), ("random 1/20", 20), ("random 1/2", 2)] {
        out.push((
            name.into(),
            Box::new(move |i| mix(i as u64).is_multiple_of(one_in)),
        ));
    }
    out
}

#[test]
fn kernels_match_the_fold_over_every_selection_and_base() {
    let rows = 1_000;
    let ids: Vec<u64> = (0..rows as u64).map(|i| mix(i) % 40).collect();
    let vals: Vec<u64> = (0..rows as u64).map(|i| mix(i + 9) % 1_000_000).collect();
    for base in [0, 1, 63, 64, 100, 1_037] {
        for (name, chunk) in selections(rows) {
            let sel = selection(base, rows, chunk);
            check(&ids, &vals, &sel, base, &format!("base {base}, {name}"));
        }
    }
}

#[test]
fn id_spans_on_both_sides_of_the_dense_bound() {
    let rows = 2_000;
    let bound = (rows / 2) as u64;
    let vals: Vec<u64> = (0..rows as u64).map(|i| mix(i) % 100_000).collect();
    for min in [0, 1_000_000, u64::MAX - bound - 1] {
        for span in [bound - 1, bound, bound + 1] {
            let ids = ids_with_span(rows, min, span);
            assert_eq!(ids.iter().max().unwrap() - ids.iter().min().unwrap(), span);
            for (name, chunk) in selections(rows) {
                let sel = selection(37, rows, chunk);
                check(
                    &ids,
                    &vals,
                    &sel,
                    37,
                    &format!("min {min}, span {span}, {name}"),
                );
            }
        }
    }
}

/// The `Random` sensor distribution: 100 K rows of ids drawn from
/// `1..=10_000`, so the span (≈ 10 000) is far below the dense bound but
/// neighbouring rows rarely share an id, and the chunk's run overlaps the
/// seeded groups.
#[test]
fn random_ids_over_a_full_size_chunk() {
    let rows = 100_000;
    let ids: Vec<u64> = (0..rows as u64).map(|i| 1 + mix(i) % 10_000).collect();
    let vals: Vec<u64> = (0..rows as u64).map(|i| mix(i + 7) >> 1).collect();
    for (name, chunk) in selections(rows) {
        let sel = selection(64, rows, chunk);
        check(&ids, &vals, &sel, 64, &format!("random ids, {name}"));
    }
}

#[test]
fn sums_pass_two_to_the_64_with_ids_near_u64_max() {
    let rows = 1_500;
    let vals = huge_values(rows);
    let id_sets = [
        // Dense table, ending at u64::MAX.
        ids_with_span(rows, u64::MAX - 99, 99),
        // The widest span: the HashMap route.
        (0..rows as u64)
            .map(|i| if i % 2 == 0 { u64::MAX - i } else { i })
            .collect(),
        // One group holding every row.
        vec![u64::MAX; rows],
    ];
    for ids in &id_sets {
        for base in [0, 5, 64] {
            for (name, chunk) in selections(rows) {
                let sel = selection(base, rows, chunk);
                check(ids, &vals, &sel, base, &format!("base {base}, {name}"));
            }
        }
    }
    // The full selection of one group really does pass 2^64.
    let all = selection(0, rows, |_| true);
    assert!(oracle_sum(&vals, &all, 0) > u64::MAX as u128 * 1_000);
}

#[test]
fn single_row_and_word_sized_chunks() {
    for rows in [1, 63, 64, 65, 128] {
        let ids: Vec<u64> = (0..rows as u64).map(|i| i % 3).collect();
        let vals = huge_values(rows);
        for base in [0, 3, 64] {
            for chunk in [
                Box::new(|_| true) as Pick,
                Box::new(|i| i % 2 == 0),
                Box::new(move |i| i + 1 == rows),
            ] {
                let sel = selection(base, rows, chunk);
                check(
                    &ids,
                    &vals,
                    &sel,
                    base,
                    &format!("rows {rows}, base {base}"),
                );
            }
        }
    }
}

/// The group table adds each piece of equal consecutive ids within a
/// selection run once: ids that alternate (pieces of one row), runs of
/// equal ids that a selection-run edge cuts in two, and one id throughout.
#[test]
fn equal_id_pieces_inside_and_across_selection_runs() {
    let rows = 1_000;
    let vals = huge_values(rows);
    let id_sets: [(&str, Vec<u64>); 3] = [
        ("alternating", (0..rows as u64).map(|i| i % 2).collect()),
        (
            "runs of 37",
            (0..rows as u64).map(|i| 5 + i / 37 % 9).collect(),
        ),
        ("one id", vec![42; rows]),
    ];
    for (ids_name, ids) in &id_sets {
        for base in [0, 3, 64] {
            let mut picks = selections(rows);
            // Selection runs of 50 rows: their edges fall inside id runs.
            picks.push(("runs of 50".into(), Box::new(|i| i % 53 < 50)));
            for (name, chunk) in picks {
                let sel = selection(base, rows, chunk);
                let label = format!("{ids_name}, base {base}, {name}");
                check(ids, &vals, &sel, base, &label);
            }
        }
    }
}

/// Runs reported by `for_each_run_in`.
fn runs_in(b: &Bitmap, from: usize, to: usize) -> Vec<(usize, usize)> {
    let mut runs = Vec::new();
    b.for_each_run_in(from, to, |s, e| runs.push((s, e)));
    runs
}

/// A bitmap over `words.len() * 64 - trim` positions with `words`' bits,
/// each word thinned by ANDing in `thin` further words of `noise`.
fn bitmap_from_words(words: &[u64], trim: usize, noise: u64, thin: u32) -> Bitmap {
    let len = (words.len() * 64).saturating_sub(trim);
    let mut b = Bitmap::new(len);
    for (w, &bits) in words.iter().enumerate() {
        let mut bits = bits;
        for k in 0..thin {
            bits &= mix(noise ^ ((w as u64) << 8) ^ k as u64);
        }
        b.or_mask_at(w * 64, bits, 64.min(len.saturating_sub(w * 64)));
    }
    b
}

proptest! {
    #[test]
    fn prop_runs_match_ranged_iter(
        words in proptest::collection::vec(any::<u64>(), 0..8),
        fill in proptest::collection::vec(0usize..5, 0..8),
        trim in 0usize..64,
        from in 0usize..600,
        span in 0usize..600,
    ) {
        // Some words all ones or all zeros, so runs cross word edges.
        let words: Vec<u64> = words
            .iter()
            .zip(fill.iter().chain(std::iter::repeat(&4)))
            .map(|(&w, &f)| match f {
                0 => u64::MAX,
                1 => 0,
                _ => w,
            })
            .collect();
        let b = bitmap_from_words(&words, trim, 0, 0);
        let to = from + span;
        let runs = runs_in(&b, from, to);
        let covered: Vec<usize> = runs.iter().flat_map(|&(s, e)| s..e).collect();
        let expected: Vec<usize> = b.iter_ones_in(from, to).collect();
        prop_assert_eq!(covered, expected);
        for &(s, e) in &runs {
            prop_assert!(s < e, "empty run {s}..{e}");
        }
        // Maximal: consecutive runs are separated by at least one clear bit.
        for pair in runs.windows(2) {
            prop_assert!(pair[0].1 < pair[1].0, "runs {:?} touch", pair);
        }
    }

    #[test]
    fn prop_kernels_match_the_fold(
        words in proptest::collection::vec(any::<u64>(), 1..40),
        thin in 0u32..6,
        noise in any::<u64>(),
        base in 0usize..130,
        rows in 1usize..1_500,
        span_pick in 0usize..4,
        min_pick in 0usize..3,
        seed in any::<u64>(),
    ) {
        let chunk_bits = bitmap_from_words(&words, 0, noise, thin);
        let sel = selection(base, rows, |i| i < chunk_bits.len() && chunk_bits.get(i));
        let bound = (rows / 2) as u64;
        let span = [0, bound.saturating_sub(1), bound, bound + 1][span_pick];
        let min = [0, 1 << 40, u64::MAX - span][min_pick];
        let ids: Vec<u64> = (0..rows as u64)
            .map(|i| min + mix(seed ^ i) % (span + 1))
            .collect();
        let vals: Vec<u64> = (0..rows as u64)
            .map(|i| mix(!seed ^ i) >> (i % 3 * 31))
            .collect();
        check(&ids, &vals, &sel, base, "prop");
    }
}
