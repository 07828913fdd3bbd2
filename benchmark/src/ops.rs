//! Seeded operation generators for the three served workloads. The program
//! under test receives only the generated commands; the same seed always
//! yields the same list (`op_hash` makes that checkable).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the rendered commands: the identity of an op list.
#[cfg(test)]
pub fn op_hash<'a>(commands: impl Iterator<Item = &'a str>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for cmd in commands {
        for &b in cmd.as_bytes().iter().chain(b"\n") {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

// ───────────────────────── scan ─────────────────────────

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanClass {
    /// ts window 0.1–1 %, COUNT or SUM val: fixed-overhead and pushdown bound.
    Narrow,
    /// ts window 10–50 %, GROUPBY id AGG avg val: bulk decode and aggregate.
    Wide,
    /// FILTER id over a 1 % band, COUNT: a predicate off the sort key.
    Offkey,
    /// No filter, SUM val.
    Full,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScanAgg {
    Count,
    SumVal,
    GroupByIdAvgVal,
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanQuery {
    pub class: ScanClass,
    /// `(column, lo, hi)`, inclusive.
    pub filter: Option<(&'static str, u64, u64)>,
    pub agg: ScanAgg,
}

impl ScanQuery {
    pub fn command(&self, table: &str) -> String {
        let mut cmd = format!("SCAN {table}");
        if let Some((col, lo, hi)) = self.filter {
            cmd.push_str(&format!(" FILTER {col} {lo} {hi}"));
        }
        match self.agg {
            ScanAgg::Count => {}
            ScanAgg::SumVal => cmd.push_str(" SUM val"),
            ScanAgg::GroupByIdAvgVal => cmd.push_str(" GROUPBY id AGG avg val"),
        }
        cmd
    }
}

/// Queries in the pool and the exact number of each class (40/20/25/15 %).
pub const SCAN_POOL: usize = 240;
const SCAN_MIX: [(ScanClass, usize); 4] = [
    (ScanClass::Narrow, 96),
    (ScanClass::Wide, 48),
    (ScanClass::Offkey, 60),
    (ScanClass::Full, 36),
];

/// The seeded pool of 240 queries over a `sensors(ts,id,val)` table whose
/// `ts` spans `[ts_min, ts_max]` and whose `id` spans `1..=10_000`.
pub fn scan_pool(seed: u64, ts_min: u64, ts_max: u64) -> Vec<ScanQuery> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA9);
    let span = (ts_max - ts_min).max(1000);
    let mut pool = Vec::with_capacity(SCAN_POOL);
    for (class, count) in SCAN_MIX {
        for i in 0..count {
            let window = |rng: &mut StdRng, lo_frac: f64, hi_frac: f64| {
                let width = (span as f64 * rng.gen_range(lo_frac..hi_frac)) as u64;
                let lo = ts_min + rng.gen_range(0..span - width);
                ("ts", lo, lo + width)
            };
            pool.push(match class {
                ScanClass::Narrow => ScanQuery {
                    class,
                    filter: Some(window(&mut rng, 0.001, 0.01)),
                    agg: if i % 2 == 0 {
                        ScanAgg::Count
                    } else {
                        ScanAgg::SumVal
                    },
                },
                ScanClass::Wide => ScanQuery {
                    class,
                    filter: Some(window(&mut rng, 0.10, 0.50)),
                    agg: ScanAgg::GroupByIdAvgVal,
                },
                ScanClass::Offkey => {
                    let lo = rng.gen_range(1..=9_900u64);
                    ScanQuery {
                        class,
                        filter: Some(("id", lo, lo + 99)),
                        agg: ScanAgg::Count,
                    }
                }
                ScanClass::Full => ScanQuery {
                    class,
                    filter: None,
                    agg: ScanAgg::SumVal,
                },
            });
        }
    }
    shuffle(&mut pool, &mut rng);
    pool
}

/// `ops` pool indices for one connection: whole shuffled passes over the
/// pool, so every window of 240 ops holds the exact class mix.
pub fn scan_sequence(seed: u64, conn: usize, ops: usize) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ (conn as u64 + 1) << 20));
    let mut seq = Vec::with_capacity(ops);
    let mut pass: Vec<u16> = (0..SCAN_POOL as u16).collect();
    while seq.len() < ops {
        shuffle(&mut pass, &mut rng);
        seq.extend(pass.iter().take(ops - seq.len()));
    }
    seq
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

// ───────────────────────── lookup ─────────────────────────

pub const KEY_BYTES: usize = 16;
pub const VALUE_BYTES: usize = 100;
pub const MGET_KEYS: usize = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOp {
    /// `absent` asks for the odd neighbour of record `idx`, which is never stored.
    Get {
        idx: u32,
        absent: bool,
    },
    MGet([u32; MGET_KEYS]),
}

/// 16-byte key of record `idx`; stored keys are even, absent ones odd.
pub fn lookup_key(idx: u32, absent: bool, out: &mut String) {
    use std::fmt::Write;
    write!(out, "k{:015}", idx as u64 * 2 + absent as u64).expect("write to String");
}

/// 100-byte value of record `idx` under `seed` (lower-case hex digits).
pub fn lookup_value(idx: u32, seed: u64, out: &mut String) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut state = splitmix(seed ^ ((idx as u64) << 8));
    let mut written = 0;
    while written < VALUE_BYTES {
        state = splitmix(state);
        let mut word = state;
        for _ in 0..16.min(VALUE_BYTES - written) {
            out.push(HEX[(word & 15) as usize] as char);
            word >>= 4;
            written += 1;
        }
    }
}

impl LookupOp {
    pub fn rendered(&self) -> String {
        let mut out = String::new();
        self.command(&mut out);
        out
    }

    pub fn command(&self, out: &mut String) {
        match self {
            LookupOp::Get { idx, absent } => {
                out.push_str("GET ");
                lookup_key(*idx, *absent, out);
            }
            LookupOp::MGet(keys) => {
                out.push_str("MGET");
                for &idx in keys {
                    out.push(' ');
                    lookup_key(idx, false, out);
                }
            }
        }
    }
}

/// 7/8 `GET` (1 in 16 of them for an absent key), 1/8 `MGET` × 8, keys drawn
/// Zipf(θ = 0.99) by rank and scrambled over the key space so hot keys do not
/// share data blocks.
pub fn lookup_ops(seed: u64, conn: usize, ops: usize, n_keys: u32) -> Vec<LookupOp> {
    let zipf = leco_datasets::zipf::Zipf::new(n_keys as usize, 0.99);
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ (conn as u64 + 1) << 24));
    // An odd multiplier that shares no factor with n_keys permutes the ranks.
    let mut mult = (2_654_435_761u64 % n_keys as u64) | 1;
    while gcd(mult, n_keys as u64) != 1 {
        mult += 2;
    }
    let draw = |rng: &mut StdRng| ((zipf.sample(rng) as u64 * mult) % n_keys as u64) as u32;
    let mut gets = 0u32;
    (0..ops)
        .map(|i| {
            if i % 8 == 7 {
                let mut keys = [0u32; MGET_KEYS];
                for k in &mut keys {
                    *k = draw(&mut rng);
                }
                LookupOp::MGet(keys)
            } else {
                gets += 1;
                LookupOp::Get {
                    idx: draw(&mut rng),
                    absent: gets % 16 == 5,
                }
            }
        })
        .collect()
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

// ───────────────────────── ingest ─────────────────────────

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestOp {
    Put {
        k: u64,
        ts: u64,
        val: u64,
    },
    /// `SCAN events FILTER ts lo hi SUM val` over the latest 5 % of this
    /// connection's timestamps.
    Scan {
        lo: u64,
        hi: u64,
    },
    Del {
        k: u64,
    },
}

/// Ops per chunk and their split: 61 `PUT`, 2 `SCAN`, 1 `DEL`.
pub const INGEST_CHUNK: usize = 64;
pub const PUTS_PER_CHUNK: u64 = 61;
/// A `DEL` targets a put this many chunks back: long acknowledged, and old
/// enough to have been frozen or compacted.
const DEL_LAG_CHUNKS: u64 = 8;

/// The ingest streams are written for exactly this many connections.
pub const INGEST_CONNS: u64 = 2;
/// Put indices from here up are never put: targets of the first deletes.
pub const NEVER_PUT: u64 = 1 << 31;
const VAL_CONN_SHIFT: u32 = 40;

/// Keys interleave the connections' put indices, so keys rise with time and
/// every compacted file covers a narrow key range: a `DEL` then makes the
/// compactor rewrite the one file that can hold its key, not every older one.
pub fn ingest_key(conn: usize, put_index: u64) -> u64 {
    put_index * INGEST_CONNS + conn as u64
}

/// `(connection, put index)` of a key.
pub fn ingest_key_parts(k: u64) -> (usize, u64) {
    ((k % INGEST_CONNS) as usize, k / INGEST_CONNS)
}

/// 20 random bits, plus the key's connection at bit 40. Up to 2²⁰ rows,
/// `SUM val >> 40` is therefore the exact number of connection-1 rows among
/// the rows summed: one range scan counts each connection's rows.
pub fn ingest_val(k: u64, seed: u64) -> u64 {
    (splitmix(k ^ seed) & 0xF_FFFF) | (k % INGEST_CONNS) << VAL_CONN_SHIFT
}

/// Rows of each connection behind a `(COUNT, SUM val)` pair.
pub fn ingest_rows_by_conn(rows: u64, sum: u128) -> [u64; INGEST_CONNS as usize] {
    let conn1 = (sum >> VAL_CONN_SHIFT) as u64;
    [rows - conn1.min(rows), conn1]
}

impl IngestOp {
    pub fn rendered(&self) -> String {
        match *self {
            IngestOp::Put { k, ts, val } => format!("PUT events {k} {ts} {val}"),
            IngestOp::Scan { lo, hi } => format!("SCAN events FILTER ts {lo} {hi} SUM val"),
            IngestOp::Del { k } => format!("DEL events {k}"),
        }
    }
}

/// Chunks `[first_chunk, first_chunk + chunks)` of connection `conn`'s
/// stream. Put indices and timestamps continue across chunks, so later
/// rounds extend the same table instead of replaying keys.
pub fn ingest_ops(seed: u64, conn: usize, first_chunk: u64, chunks: u64) -> Vec<IngestOp> {
    let mut ops = Vec::with_capacity(chunks as usize * INGEST_CHUNK);
    for chunk in first_chunk..first_chunk + chunks {
        let mut put_index = chunk * PUTS_PER_CHUNK;
        for slot in 0..INGEST_CHUNK {
            ops.push(match slot {
                21 | 53 => {
                    let hi = put_index;
                    IngestOp::Scan {
                        lo: hi - (hi / 20).max(INGEST_CHUNK as u64).min(hi),
                        hi,
                    }
                }
                63 => {
                    let pick = splitmix(seed ^ chunk << 8 ^ conn as u64) % PUTS_PER_CHUNK;
                    let target = match chunk.checked_sub(DEL_LAG_CHUNKS) {
                        Some(old) => old * PUTS_PER_CHUNK + pick,
                        // Nothing old enough yet: delete a key that was never put.
                        None => NEVER_PUT + chunk,
                    };
                    IngestOp::Del {
                        k: ingest_key(conn, target),
                    }
                }
                _ => {
                    let k = ingest_key(conn, put_index);
                    put_index += 1;
                    IngestOp::Put {
                        k,
                        ts: put_index - 1,
                        val: ingest_val(k, seed),
                    }
                }
            });
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(n: usize, total: usize) -> f64 {
        n as f64 / total as f64
    }

    #[test]
    fn scan_ops_repeat_per_seed_and_hold_the_mix() {
        let render = |seed: u64| -> Vec<String> {
            let pool = scan_pool(seed, 1_000_000, 9_000_000);
            scan_sequence(seed, 0, 2400)
                .iter()
                .map(|&q| pool[q as usize].command("sensors"))
                .collect()
        };
        let (a, b, c) = (render(1), render(1), render(2));
        let hash = |v: &[String]| op_hash(v.iter().map(String::as_str));
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));
        // Different connections get different streams of the same pool.
        assert_ne!(scan_sequence(1, 0, 240), scan_sequence(1, 1, 240));

        let pool = scan_pool(1, 1_000_000, 9_000_000);
        let seq = scan_sequence(1, 0, 2400);
        for (class, want) in [
            (ScanClass::Narrow, 0.40),
            (ScanClass::Wide, 0.20),
            (ScanClass::Offkey, 0.25),
            (ScanClass::Full, 0.15),
        ] {
            let n = seq
                .iter()
                .filter(|&&q| pool[q as usize].class == class)
                .count();
            assert!((share(n, seq.len()) - want).abs() <= 0.01, "{class:?}");
        }
        for q in &pool {
            if let Some((_, lo, hi)) = q.filter {
                assert!(lo <= hi);
            }
        }
    }

    #[test]
    fn lookup_ops_repeat_per_seed_and_hold_the_mix() {
        let render = |seed: u64| -> Vec<String> {
            lookup_ops(seed, 0, 16_000, 10_000)
                .iter()
                .map(LookupOp::rendered)
                .collect()
        };
        let (a, b, c) = (render(1), render(1), render(2));
        let hash = |v: &[String]| op_hash(v.iter().map(String::as_str));
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));

        let ops = lookup_ops(1, 0, 16_000, 10_000);
        let mgets = ops
            .iter()
            .filter(|op| matches!(op, LookupOp::MGet(_)))
            .count();
        let absent = ops
            .iter()
            .filter(|op| matches!(op, LookupOp::Get { absent: true, .. }))
            .count();
        assert!((share(mgets, ops.len()) - 1.0 / 8.0).abs() <= 0.01);
        assert!((share(absent, ops.len() - mgets) - 1.0 / 16.0).abs() <= 0.01);
        let mut key = String::new();
        lookup_key(7, true, &mut key);
        assert_eq!((key.as_str(), key.len()), ("k000000000000015", KEY_BYTES));
        let mut value = String::new();
        lookup_value(7, 1, &mut value);
        assert_eq!(value.len(), VALUE_BYTES);
        // Zipf: the hottest tenth of the keys draws well over half the gets.
        let mut hits = std::collections::HashMap::new();
        for op in &ops {
            if let LookupOp::Get { idx, .. } = op {
                *hits.entry(*idx).or_insert(0u32) += 1;
            }
        }
        let mut counts: Vec<u32> = hits.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: u32 = counts.iter().take(1000).sum();
        assert!(share(top as usize, ops.len() - mgets) > 0.5);
    }

    #[test]
    fn ingest_ops_repeat_per_seed_and_hold_the_mix() {
        let render = |seed: u64| -> Vec<String> {
            ingest_ops(seed, 1, 0, 100)
                .iter()
                .map(IngestOp::rendered)
                .collect()
        };
        let (a, b, c) = (render(1), render(1), render(2));
        let hash = |v: &[String]| op_hash(v.iter().map(String::as_str));
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&c));

        let ops = ingest_ops(1, 1, 0, 100);
        let count = |f: fn(&IngestOp) -> bool| ops.iter().filter(|op| f(op)).count();
        let puts = count(|op| matches!(op, IngestOp::Put { .. }));
        let scans = count(|op| matches!(op, IngestOp::Scan { .. }));
        let dels = count(|op| matches!(op, IngestOp::Del { .. }));
        assert!((share(puts, ops.len()) - 61.0 / 64.0).abs() <= 0.01);
        assert!((share(scans, ops.len()) - 2.0 / 64.0).abs() <= 0.01);
        assert!((share(dels, ops.len()) - 1.0 / 64.0).abs() <= 0.01);
        // Put keys are unique, and a later range continues where this one ends.
        let keys: std::collections::HashSet<u64> = ops
            .iter()
            .filter_map(|op| match op {
                IngestOp::Put { k, .. } => Some(*k),
                _ => None,
            })
            .collect();
        assert_eq!(keys.len(), puts);
        let next = ingest_ops(1, 1, 100, 1);
        assert_eq!(
            next[0],
            IngestOp::Put {
                k: ingest_key(1, 6100),
                ts: 6100,
                val: ingest_val(ingest_key(1, 6100), 1)
            }
        );
        // Every delete of an existing key targets a put at least 8 chunks old.
        for (i, op) in ops.iter().enumerate() {
            if let IngestOp::Del { k } = op {
                let chunk = (i / INGEST_CHUNK) as u64;
                let (conn, target) = ingest_key_parts(*k);
                assert_eq!(conn, 1);
                assert!(target >= NEVER_PUT || target < (chunk - 7) * PUTS_PER_CHUNK);
            }
            if let IngestOp::Put { k, val, .. } = op {
                assert_eq!(ingest_rows_by_conn(1, *val as u128), [0, 1]);
                assert_eq!(ingest_key_parts(*k).0, 1);
            }
        }
    }
}
