//! `codec`: the paper's microbenchmark, in process, one thread, no server.
//! Six `leco_datasets` columns go through compress → `to_bytes` →
//! `from_bytes` → `decode_into` passes → random `get`s → pushdown filters at
//! three selectivities. `core` and `bitpack` do all the work here; `server`,
//! `scan`, `kvstore` and `ingest` do none. Compress (the write use of
//! `core`) sits beside decode/access/filter (the read uses) in one op
//! stream, so a read-side gain that costs encode shows in `ops_s`.
//!
//! A round is a fixed list of ops, each timed alone and then checked against
//! the raw values; `ops_s` is ops per second of summed op time. The read
//! phases are sized to about the same time as the compress phase.

use crate::harness::{Outcome, Params, GIB};
use crate::layers::core::{self, CompressedColumn, Scheme};
use crate::layers::{bitpack, codecs};
use crate::load::{run_rounds, Round};
use crate::metrics::Measured;
use crate::trace::Recorder;
use crate::{harness, stats};
use leco_datasets::{generate, IntDataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DATASETS: [IntDataset; 6] = [
    IntDataset::Linear,
    IntDataset::Normal,
    IntDataset::Booksale,
    IntDataset::Movieid,
    IntDataset::HousePrice,
    IntDataset::Timestamps,
];
/// Values per column. LeCo-var costs ~2–4 µs per value to compress, so this
/// is what fits twelve compressions into a 2.4 s round next to the read
/// phases; 512 KiB of raw values per column is still far beyond L1.
const VALUES: usize = 65_536;
const SCHEMES: [Scheme; 2] = [Scheme::Fix, Scheme::Var];
const SELECTIVITIES: [f64; 3] = [1e-4, 1e-2, 0.5];
const GETS_PER_OP: usize = 1024;
const INDEX_BATCHES: usize = 64;

struct Column {
    raw: Vec<u64>,
    sorted: Vec<u64>,
}

struct Fixture {
    columns: Vec<Column>,
    /// Deserialised images, `[fix, var]` per column: what the read phases use.
    encoded: Vec<[CompressedColumn; 2]>,
    stored_bytes: u64,
    partitions_var: u64,
    stored_fix: u64,
    stored_var: u64,
    /// `INDEX_BATCHES` × `GETS_PER_OP` seeded positions.
    indices: Vec<u32>,
    /// Filter predicates: `PAIRS` inclusive `[lo, hi]` ranges per filter op.
    bounds: Vec<[(u64, u64); PAIRS]>,
}

/// Number of `(column, scheme)` pairs every read op walks.
const PAIRS: usize = DATASETS.len() * SCHEMES.len();

/// Compress ops take one column each (they are the long ones). Every read
/// op walks all twelve `(column, scheme)` pairs, so ops of one class cost
/// the same whatever the seed made of any single column, and the latency
/// percentiles do not sit on a boundary between cheap and dear columns.
#[derive(Clone, Copy)]
enum Op {
    Compress {
        col: usize,
        scheme: usize,
    },
    /// `to_bytes` then `from_bytes` of every pair.
    Serialize,
    /// One `decode_into` pass over every pair.
    Decode,
    /// `GETS_PER_OP` random `get`s, dealt round-robin over the pairs.
    Access {
        batch: usize,
    },
    /// One pushdown filter per pair; `bounds[pair]` is its `[lo, hi]`.
    Filter {
        bounds: usize,
    },
}

/// Class index of an op, for the per-class rates.
const CLASSES: usize = 6;
const COMPRESS_FIX: usize = 0;
const COMPRESS_VAR: usize = 1;
const SERIALIZE: usize = 2;
const DECODE: usize = 3;
const ACCESS: usize = 4;
const FILTER: usize = 5;

#[derive(Default, Clone, Copy)]
struct ClassTotals {
    seconds: f64,
    /// Bytes (compress, serialize, decode), gets, or rows (filter).
    units: f64,
    /// Second figure: `from_bytes` seconds for serialize, decoded rows for filter.
    extra: f64,
}

fn build_fixture(p: &Params) -> Option<Fixture> {
    let n = if p.mini { 10_000 } else { VALUES };
    let mut fixture = Fixture {
        columns: Vec::new(),
        encoded: Vec::new(),
        stored_bytes: 0,
        partitions_var: 0,
        stored_fix: 0,
        stored_var: 0,
        indices: Vec::new(),
        bounds: Vec::new(),
    };
    for dataset in DATASETS {
        let raw = generate(dataset, n, p.seed);
        let mut sorted = raw.clone();
        sorted.sort_unstable();
        let mut pair = Vec::new();
        for scheme in SCHEMES {
            let bytes = core::to_bytes(&core::compress(&raw, scheme));
            fixture.stored_bytes += bytes.len() as u64;
            let col = core::from_bytes(&bytes)?;
            match scheme {
                Scheme::Fix => fixture.stored_fix += bytes.len() as u64,
                Scheme::Var => {
                    fixture.stored_var += bytes.len() as u64;
                    fixture.partitions_var += col.num_partitions() as u64;
                }
            }
            pair.push(col);
        }
        fixture.encoded.push([pair.remove(0), pair.remove(0)]);
        fixture.columns.push(Column { raw, sorted });
    }
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0xACCE55);
    fixture.indices = (0..INDEX_BATCHES * GETS_PER_OP)
        .map(|_| rng.gen_range(0..n as u32))
        .collect();
    Some(fixture)
}

/// The fixed op list of one round (the same list every round), and the
/// filter predicates it refers to.
fn round_ops(p: &Params, fixture: &mut Fixture) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x0C0DEC);
    let mut ops = Vec::new();
    for _ in 0..p.passes(1) {
        for col in 0..DATASETS.len() {
            for scheme in 0..SCHEMES.len() {
                ops.push(Op::Compress { col, scheme });
            }
        }
    }
    ops.extend((0..p.passes(16)).map(|_| Op::Serialize));
    ops.extend((0..p.passes(160)).map(|_| Op::Decode));
    ops.extend((0..p.passes(9600)).map(|i| Op::Access {
        batch: i % INDEX_BATCHES,
    }));
    for _ in 0..p.passes(70) {
        for sel in SELECTIVITIES {
            let mut bounds = [(0, 0); PAIRS];
            for (pair, slot) in bounds.iter_mut().enumerate() {
                let sorted = &fixture.columns[pair / SCHEMES.len()].sorted;
                let width = ((sorted.len() as f64 * sel) as usize).clamp(1, sorted.len() - 1);
                let start = rng.gen_range(0..sorted.len() - width);
                *slot = (sorted[start], sorted[start + width - 1]);
            }
            ops.push(Op::Filter {
                bounds: fixture.bounds.len(),
            });
            fixture.bounds.push(bounds);
        }
    }
    ops
}

/// Scratch buffers reused across ops so the timed regions do not allocate.
#[derive(Default)]
struct Buffers {
    decoded: Vec<u64>,
    gets: Vec<u64>,
    filter: Vec<u64>,
    ranges: Vec<(u32, u32)>,
    selected: Vec<bool>,
}

/// Run one op: time the calls, then check their results. Returns
/// `(class, seconds, units, extra, ok)`; checking is never inside the timing.
fn run_op(op: Op, fx: &Fixture, s: &mut Buffers) -> (usize, f64, f64, f64, bool) {
    let pair = |k: usize| {
        (
            &fx.columns[k / SCHEMES.len()].raw,
            &fx.encoded[k / SCHEMES.len()][k % SCHEMES.len()],
        )
    };
    let (mut secs, mut units, mut extra, mut ok) = (0.0, 0.0, 0.0, true);
    match op {
        Op::Compress { col, scheme } => {
            let raw = &fx.columns[col].raw;
            let start = Instant::now();
            let compressed = core::compress(raw, SCHEMES[scheme]);
            let secs = start.elapsed().as_secs_f64();
            core::decode_into(&compressed, &mut s.decoded);
            let class = if scheme == 0 {
                COMPRESS_FIX
            } else {
                COMPRESS_VAR
            };
            (class, secs, (raw.len() * 8) as f64, 0.0, s.decoded == *raw)
        }
        Op::Serialize => {
            for k in 0..PAIRS {
                let (_, column) = pair(k);
                let start = Instant::now();
                let bytes = core::to_bytes(column);
                let to = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let back = core::from_bytes(&bytes);
                let from = start.elapsed().as_secs_f64();
                ok &= back.is_some_and(|b| {
                    b.len() == column.len() && b.size_bytes() == column.size_bytes()
                });
                (secs, units, extra) = (secs + to + from, units + bytes.len() as f64, extra + from);
            }
            (SERIALIZE, secs, units, extra, ok)
        }
        Op::Decode => {
            for k in 0..PAIRS {
                let (raw, column) = pair(k);
                let start = Instant::now();
                core::decode_into(column, &mut s.decoded);
                secs += start.elapsed().as_secs_f64();
                units += (raw.len() * 8) as f64;
                ok &= s.decoded == *raw;
            }
            (DECODE, secs, units, 0.0, ok)
        }
        Op::Access { batch } => {
            let indices = &fx.indices[batch * GETS_PER_OP..(batch + 1) * GETS_PER_OP];
            let per_pair = GETS_PER_OP / PAIRS;
            for k in 0..PAIRS {
                let (raw, column) = pair(k);
                let indices = &indices[k * per_pair..(k + 1) * per_pair];
                let start = Instant::now();
                core::get_many(column, indices, &mut s.gets);
                secs += start.elapsed().as_secs_f64();
                ok &= indices
                    .iter()
                    .zip(&s.gets)
                    .all(|(&i, &v)| raw[i as usize] == v);
            }
            (ACCESS, secs, (per_pair * PAIRS) as f64, 0.0, ok)
        }
        Op::Filter { bounds } => {
            for k in 0..PAIRS {
                let (raw, column) = pair(k);
                let (lo, hi) = fx.bounds[bounds][k];
                let start = Instant::now();
                let decoded = core::filter_range(column, lo, hi, &mut s.filter, &mut s.ranges);
                secs += start.elapsed().as_secs_f64();
                // Oracle: the bitmap a plain pass over the raw values gives.
                s.selected.clear();
                s.selected.resize(raw.len(), false);
                for &(a, b) in &s.ranges {
                    for slot in &mut s.selected[a as usize..b as usize] {
                        ok &= !*slot; // ranges must be disjoint
                        *slot = true;
                    }
                }
                ok &= raw
                    .iter()
                    .zip(&s.selected)
                    .all(|(&v, &sel)| (lo <= v && v <= hi) == sel);
                (units, extra) = (units + raw.len() as f64, extra + decoded as f64);
            }
            (FILTER, secs, units, extra, ok)
        }
    }
}

fn run_round(
    ops: &[Op],
    fx: &Fixture,
    mut rec: Option<&mut Recorder>,
) -> (Round, [ClassTotals; CLASSES]) {
    let mut round = Round::default();
    let mut classes = [ClassTotals::default(); CLASSES];
    let mut scratch = Buffers::default();
    round.lat_ns.reserve(ops.len());
    for (i, &op) in ops.iter().enumerate() {
        let started = rec.as_ref().map(|r| r.now_ns());
        let (class, secs, units, extra, ok) = run_op(op, fx, &mut scratch);
        if let (Some(rec), Some(start)) = (rec.as_deref_mut(), started) {
            rec.push("op", 0, i as u32, start, start + (secs * 1e9) as u64);
        }
        classes[class].seconds += secs;
        classes[class].units += units;
        classes[class].extra += extra;
        round.seconds += secs;
        round.lat_ns.push((secs * 1e9) as u64);
        round.failed += !ok as u64;
    }
    round.ops = ops.len() as u64;
    (round, classes)
}

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let (mut fixture, setup_s) = harness::repeat_setup(p.mini, |_| {
        build_fixture(p).ok_or_else(|| std::io::Error::other("from_bytes rejected to_bytes output"))
    })?;
    let ops = round_ops(p, &mut fixture);
    let raw_bytes = (DATASETS.len() * fixture.columns[0].raw.len() * 8) as f64;

    // Warm-up: one pass over the read phases' first ops fills caches and
    // faults in the scratch buffers.
    let warm: Vec<Op> = ops
        .iter()
        .copied()
        .filter(|op| !matches!(op, Op::Compress { .. }))
        .take(200)
        .collect();
    run_round(&warm, &fixture, None);

    let epoch = Instant::now();
    let mut per_round = Vec::new();
    let rounds = run_rounds(p, epoch, |_, trace| {
        let mut rec = trace.map(|epoch| Recorder::new(epoch, 1));
        let (mut round, classes) = run_round(&ops, &fixture, rec.as_mut());
        round.spans = rec.map_or_else(Vec::new, |r| r.spans);
        per_round.push(classes);
        round
    });

    let metrics = if !p.trace {
        rounds.end_to_end(setup_s, fixture.stored_bytes as f64 / (2.0 * raw_bytes))
    } else {
        let mut m = Measured::default();
        // Per-class rates: median over rounds of (units ÷ seconds).
        let rate = |class: usize, f: &dyn Fn(&ClassTotals) -> f64| {
            stats::median(&per_round.iter().map(|c| f(&c[class])).collect::<Vec<_>>())
        };
        m.set(
            "core.compress_fix_mb_s",
            rate(COMPRESS_FIX, &|c| c.units / 1e6 / c.seconds),
        );
        m.set(
            "core.compress_var_mb_s",
            rate(COMPRESS_VAR, &|c| c.units / 1e6 / c.seconds),
        );
        m.set("core.ratio_fix", fixture.stored_fix as f64 / raw_bytes);
        m.set("core.ratio_var", fixture.stored_var as f64 / raw_bytes);
        m.set("core.partitions_var", fixture.partitions_var as f64);
        m.set(
            "core.decode_gib_s",
            rate(DECODE, &|c| c.units / GIB / c.seconds),
        );
        m.set(
            "core.access_ns",
            rate(ACCESS, &|c| c.seconds * 1e9 / c.units),
        );
        m.set("core.filter_rows_s", rate(FILTER, &|c| c.units / c.seconds));
        m.set(
            "core.decoded_fraction",
            rate(FILTER, &|c| c.extra / c.units),
        );
        m.set(
            "core.to_bytes_gib_s",
            rate(SERIALIZE, &|c| c.units / GIB / (c.seconds - c.extra)),
        );
        m.set(
            "core.from_bytes_gib_s",
            rate(SERIALIZE, &|c| c.units / GIB / c.extra),
        );
        let columns: Vec<&[u64]> = fixture.columns.iter().map(|c| c.raw.as_slice()).collect();
        m.extend(bitpack::probes(columns[2], &fixture.indices));
        m.extend(codecs::probes(
            &columns,
            &fixture.indices[..8 * GETS_PER_OP],
        ));
        rounds.diagnostics(&mut m);
        super::write_trace("codec", &rounds.spans)?;
        m
    };
    Ok(Outcome {
        attempted: rounds.summary.attempted,
        failed: rounds.summary.failed,
        metrics,
    })
}
