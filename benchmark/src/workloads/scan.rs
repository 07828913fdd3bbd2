//! `scan`: `SCAN` over a static `sensors(ts,id,val)` table (LeCo-fix chunks,
//! 100 K-row groups, in memory) through a live server: 2 connections ×
//! depth 1, closed loop. `scan` + `columnar` + `core` decode and pushdown
//! dominate; `kvstore` and `ingest` are bypassed. The `narrow` class is
//! fixed-overhead and pushdown bound, `wide` and `full` are bulk-decode and
//! aggregate bound, so `lat_p50_us` and `lat_p99_us` separate the two.
//!
//! Every reply is checked against a plain-`Vec<u64>` evaluation of the
//! 240-query pool (`rows_selected`, `sum`, `groups`).

use crate::harness::{self, Outcome, Params, GIB};
use crate::layers::columnar::{self, ChunkScratch, TableFile};
use crate::layers::server::{self, Client, Reply, Running, CONNECTIONS, SHARDS};
use crate::layers::{core, obs, scan};
use crate::load::{run_round, run_rounds, Conn};
use crate::metrics::Measured;
use crate::ops::{scan_pool, scan_sequence, ScanAgg, ScanQuery};
use crate::trace::Recorder;
use crate::{stats, sys};
use leco_datasets::tables::{sensor_table, SensorDistribution, SensorTable};
use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::time::Instant;

/// 10 row groups, 5 per shard. A narrow query still scans one 100 K-row
/// group, as it would in a larger table; `wide` and `full` scale with this.
const ROWS: usize = 1_000_000;
/// Closed-loop throughput this mix reaches on the 2-vCPU builder box.
const OPS_PER_SECOND: f64 = 420.0;
const LADDER_OPS: usize = 200;
/// Every rung of a sample query is timed twice and the shorter kept: the
/// queries are reads, and one scheduler hiccup in 200 moved a mean by 0.8 ms.
const RUNG_REPS: usize = 2;
const TABLE: &str = "sensors";
const MAX_ID: usize = 10_000;

#[derive(Debug, PartialEq)]
struct Expected {
    rows_selected: u64,
    sum: u128,
    groups: Vec<(u64, f64)>,
}

/// The oracle: evaluate `q` over the raw columns, nothing shared with the
/// engine. Group averages use the engine's documented formula (exact
/// integer sum and count, one division).
fn oracle(t: &SensorTable, q: &ScanQuery) -> Expected {
    let col = |name: &str| match name {
        "ts" => &t.ts,
        "id" => &t.id,
        _ => &t.val,
    };
    let mut out = Expected {
        rows_selected: 0,
        sum: 0,
        groups: Vec::new(),
    };
    let mut by_id = vec![(0u128, 0u64); MAX_ID + 1];
    let filter = q.filter.map(|(name, lo, hi)| (col(name), lo, hi));
    for row in 0..t.ts.len() {
        if let Some((values, lo, hi)) = filter {
            if values[row] < lo || values[row] > hi {
                continue;
            }
        }
        out.rows_selected += 1;
        match q.agg {
            ScanAgg::Count => {}
            ScanAgg::SumVal => out.sum += t.val[row] as u128,
            ScanAgg::GroupByIdAvgVal => {
                let slot = &mut by_id[t.id[row] as usize];
                slot.0 += t.val[row] as u128;
                slot.1 += 1;
            }
        }
    }
    out.groups = by_id
        .iter()
        .enumerate()
        .filter(|(_, &(_, count))| count > 0)
        .map(|(id, &(sum, count))| (id as u64, sum as f64 / count as f64))
        .collect();
    out
}

struct Fixture {
    server: Running,
    pool: Vec<ScanQuery>,
    commands: Vec<String>,
    expected: Vec<Expected>,
    stored_bytes: u64,
    rows: usize,
    shard_files: Vec<PathBuf>,
    table: SensorTable,
    /// Last field: removed after the server has shut down.
    scratch: sys::Scratch,
}

fn build_fixture(p: &Params, rep: usize) -> std::io::Result<Fixture> {
    let rows = if p.mini { 10_000 } else { ROWS };
    let table = sensor_table(rows, SensorDistribution::Correlated, p.seed);
    let scratch = sys::Scratch::new(&format!("scan-{rep}"))?;
    let set = server::ShardSetBuilder::new(scratch.path(), SHARDS)
        .table_options(columnar::leco_options())
        .table(
            TABLE,
            &["ts", "id", "val"],
            vec![table.ts.clone(), table.id.clone(), table.val.clone()],
        )
        .build()?;
    let stored_bytes = set
        .shards
        .iter()
        .map(|s| s.tables[TABLE].file_size_bytes())
        .sum();
    let shard_files = (0..SHARDS)
        .map(|k| scratch.path().join(format!("{TABLE}-s{k}.tbl")))
        .collect();
    let server = server::start(set)?;
    let (ts_min, ts_max) = (
        *table.ts.iter().min().expect("rows > 0"),
        *table.ts.iter().max().expect("rows > 0"),
    );
    let pool = scan_pool(p.seed, ts_min, ts_max);
    Ok(Fixture {
        commands: pool.iter().map(|q| q.command(TABLE)).collect(),
        expected: pool.iter().map(|q| oracle(&table, q)).collect(),
        scratch,
        server,
        pool,
        stored_bytes,
        rows,
        shard_files,
        table,
    })
}

struct ScanConn<'a> {
    commands: &'a [String],
    expected: &'a [Expected],
}

fn matches(reply: &Reply, want: &Expected) -> bool {
    reply.rows_selected == want.rows_selected
        && reply.sum == want.sum
        && reply.groups == want.groups
}

impl Conn for ScanConn<'_> {
    type Op = u16;

    fn command(&mut self, op: &u16, out: &mut String) {
        out.push_str(&self.commands[*op as usize]);
    }

    fn verify(&mut self, op: &u16, reply: &Reply) -> bool {
        matches(reply, &self.expected[*op as usize])
    }
}

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let (fx, setup_s) = harness::repeat_setup(p.mini, |rep| build_fixture(p, rep))?;
    let ops_per_round = p.ops_per_round(OPS_PER_SECOND, CONNECTIONS, 60) / CONNECTIONS;
    let sequences: Vec<Vec<u16>> = (0..CONNECTIONS)
        .map(|c| scan_sequence(p.seed, c, ops_per_round))
        .collect();
    let acked: Vec<AtomicU64> = (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect();
    let addr = fx.server.addr();
    let mut conns: Vec<ScanConn> = (0..CONNECTIONS)
        .map(|_| ScanConn {
            commands: &fx.commands,
            expected: &fx.expected,
        })
        .collect();
    let round_of = |conns: &mut [ScanConn], take: usize, trace: Option<Instant>| {
        let ops: Vec<&[u16]> = sequences.iter().map(|s| &s[..take.min(s.len())]).collect();
        run_round(addr, conns, &ops, 1, &acked, trace)
    };

    // Warm-up: page cache, server threads, allocator.
    round_of(&mut conns, ops_per_round / 10 + 1, None);

    let before = obs::snapshot();
    let epoch = Instant::now();
    let rounds = run_rounds(p, epoch, |_, trace| {
        round_of(&mut conns, ops_per_round, trace)
    });
    let (mut attempted, mut failed) = (rounds.summary.attempted, rounds.summary.failed);

    let metrics = if !p.trace {
        rounds.end_to_end(setup_s, fx.stored_bytes as f64 / (fx.rows * 24) as f64)
    } else {
        let mut m = Measured::default();
        let mut rec = Recorder::new(epoch, 9);
        let (ladder_attempted, ladder_failed) = ladder(p, &fx, &mut rec, &mut m)?;
        attempted += ladder_attempted;
        failed += ladder_failed;
        probes(&fx, &mut m)?;
        m.set(
            "server.errors",
            obs::snapshot().counter_since(&before, "srv.errors"),
        );
        rounds.diagnostics(&mut m);
        rec.spans.extend(rounds.spans);
        super::write_trace("scan", &rec.spans)?;
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// Merge per-shard `(rows_selected, sum, (id, sum, count) partials)` and
/// finalise the group averages like the engine: exact sums, one division.
fn merge_shards<'a>(
    shards: impl Iterator<Item = (u64, u128, &'a Vec<(u64, u128, u64)>)>,
) -> Expected {
    let mut out = Expected {
        rows_selected: 0,
        sum: 0,
        groups: Vec::new(),
    };
    let mut by_id = std::collections::BTreeMap::<u64, (u128, u64)>::new();
    for (rows_selected, sum, groups) in shards {
        out.rows_selected += rows_selected;
        out.sum += sum;
        for &(id, sum, count) in groups {
            let slot = by_id.entry(id).or_default();
            slot.0 += sum;
            slot.1 += count;
        }
    }
    out.groups = by_id
        .iter()
        .map(|(&id, &(sum, count))| (id, sum as f64 / count as f64))
        .collect();
    out
}

/// The layer ladder: the same logical query timed at each layer boundary
/// from outside, top to bottom. With more than one shard the critical path
/// is the slowest shard, so each rung below the server is the maximum over
/// the shard files.
fn ladder(
    p: &Params,
    fx: &Fixture,
    rec: &mut Recorder,
    m: &mut Measured,
) -> std::io::Result<(u64, u64)> {
    let tables: Vec<TableFile> = fx
        .shard_files
        .iter()
        .map(TableFile::open)
        .collect::<Result<_, _>>()?;
    let mut scratch: Vec<ChunkScratch> = tables.iter().map(ChunkScratch::new).collect();
    let mut client = Client::connect(fx.server.addr())?;
    let sample = scan_sequence(p.seed ^ 0x1ADD, 0, if p.mini { 24 } else { LADDER_OPS });
    let (mut buf, mut ranges, mut gets, mut positions) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |ns: u64| ns as f64 / 1e3;
    let mut rows = [const { Vec::new() }; 5]; // noop, request, scan, columnar, core (µs)
    let (mut failed, mut reply_bytes) = (0u64, 0usize);
    let (mut pruned, mut groups_seen, mut morsels) = (0u64, 0u64, 0u64);
    let (mut rows_filtered, mut rows_decoded) = (0u64, 0u64);

    for (i, &qi) in sample.iter().enumerate() {
        let (q, want) = (&fx.pool[qi as usize], &fx.expected[qi as usize]);
        let op = i as u32;
        let root = rec.open("ladder.op", 0, op);

        let (noop, noop_ns) = rec.time_best("rung.server.noop", root, op, RUNG_REPS, || {
            server::request(&mut client, "GET absent")
        });
        failed += !noop.is_ok_and(|r| r.code == 200 && r.value.is_none()) as u64;
        let (reply, request_ns) = rec.time_best("rung.server.request", root, op, RUNG_REPS, || {
            server::request(&mut client, &fx.commands[qi as usize])
        });
        failed += !reply.is_ok_and(|r| r.code == 200 && matches(&r, want)) as u64;

        // scan rung: one Scanner run per shard file.
        let mut scan_ns = 0;
        let mut results = Vec::new();
        for table in &tables {
            let (result, ns) =
                rec.time_best("rung.scan", root, op, RUNG_REPS, || scan::run(table, q));
            scan_ns = scan_ns.max(ns);
            results.push(result?);
        }
        let merged = merge_shards(
            results
                .iter()
                .map(|r| (r.rows_selected, r.sum, &r.group_partials)),
        );
        failed += (merged != *want) as u64;
        pruned += results
            .iter()
            .map(|r| r.stats.row_groups_pruned)
            .sum::<u64>();
        morsels += results.iter().map(|r| r.morsels as u64).sum::<u64>();
        groups_seen += tables
            .iter()
            .map(|t| t.num_row_groups() as u64)
            .sum::<u64>();

        // columnar rung: the benchmark's own loop over the unpruned chunks.
        let mut columnar_ns = 0;
        let mut partials = Vec::new();
        for (table, s) in tables.iter().zip(&mut scratch) {
            let (partial, ns) = rec.time_best("rung.columnar", root, op, RUNG_REPS, || {
                columnar::run_chunks(table, q, s)
            });
            columnar_ns = columnar_ns.max(ns);
            partials.push(partial?);
        }
        let merged = merge_shards(partials.iter().map(|c| (c.rows_selected, c.sum, &c.groups)));
        failed += (merged != *want) as u64;
        for c in &partials {
            rows_filtered += c.rows_filtered;
            rows_decoded += c.stats.boundary_rows_decoded + c.stats.rows_decoded_full;
        }

        // core rung: the same chunks' compressed-domain filter, then the
        // decode or random access the aggregate needs for that selection.
        let mut core_ns = 0;
        for (table, s) in tables.iter().zip(&scratch) {
            let (filter, [id_col, val_col]) = columnar::resolve(table, q);
            let agg_cols: &[usize] = match q.agg {
                ScanAgg::Count => &[],
                ScanAgg::SumVal => &[val_col],
                ScanAgg::GroupByIdAvgVal => &[id_col, val_col],
            };
            let ((), ns) = rec.time_best("rung.core", root, op, RUNG_REPS, || {
                for &rg in &s.touched {
                    if let Some((col, lo, hi)) = filter {
                        if let Some(chunk) = columnar::leco_chunk(table, rg, col) {
                            core::filter_range(chunk, lo, hi, &mut buf, &mut ranges);
                        }
                    }
                    let sel = &s.sels[rg];
                    let selected = sel.count_ones();
                    let dense = selected * 16 >= sel.len();
                    if selected > 0 && !dense {
                        positions.clear();
                        positions.extend(sel.iter_ones().map(|i| i as u32));
                    }
                    for &col in agg_cols {
                        let Some(chunk) = columnar::leco_chunk(table, rg, col) else {
                            continue;
                        };
                        if dense {
                            core::decode_into(chunk, &mut buf);
                        } else if selected > 0 {
                            core::get_many(chunk, &positions, &mut gets);
                        }
                        std::hint::black_box((&buf, &gets));
                    }
                }
            });
            core_ns = core_ns.max(ns);
        }
        rec.close(root);

        reply_bytes += server::reply_bytes(&mut client, &fx.commands[qi as usize])?;
        for (row, ns) in rows
            .iter_mut()
            .zip([noop_ns, request_ns, scan_ns, columnar_ns, core_ns])
        {
            row.push(us(ns));
        }
    }

    let n = sample.len() as f64;
    let mean = |k: usize| stats::mean(&rows[k]);
    // A rung's self time is its time minus the rung below it.
    let self_of = |upper: usize, lower: usize| {
        stats::mean(
            &rows[upper]
                .iter()
                .zip(&rows[lower])
                .map(|(a, b)| a - b)
                .collect::<Vec<_>>(),
        )
    };
    let (server_self, scan_self, columnar_self, core_self) =
        (mean(0), self_of(2, 3), self_of(3, 4), mean(4));
    m.set("ladder.roundtrip_us", mean(1));
    m.set("server.self_us", server_self);
    m.set("scan.self_us", scan_self);
    m.set("columnar.self_us", columnar_self);
    m.set("core.self_us", core_self);
    m.set(
        "ladder.residual_us",
        mean(1) - server_self - scan_self - columnar_self - core_self,
    );
    super::noop_metrics(&rows[0], m);
    m.set("server.reply_bytes_per_op", reply_bytes as f64 / n);
    m.set(
        "scan.pruned_fraction",
        pruned as f64 / groups_seen.max(1) as f64,
    );
    m.set("scan.morsels_per_query", morsels as f64 / n);
    m.set(
        "columnar.decoded_fraction",
        rows_decoded as f64 / rows_filtered.max(1) as f64,
    );
    Ok((5 * sample.len() as u64, failed))
}

/// Standalone probes of the `columnar` and `scan` layers on this table, and
/// the server's protocol costs on this command mix.
fn probes(fx: &Fixture, m: &mut Measured) -> std::io::Result<()> {
    let reps = 5;
    // write: shard 0's first two row groups, LeCo-fix like the fixture.
    let slice = (2 * columnar::ROW_GROUP).min(fx.rows / SHARDS);
    let columns = [&fx.table.ts, &fx.table.id, &fx.table.val].map(|c| c[..slice].to_vec());
    let path = fx.scratch.path().join("probe-write.tbl");
    let mut write_err = None;
    let secs = harness::best_of(3, || {
        write_err = TableFile::write(
            &path,
            &["ts", "id", "val"],
            &columns,
            columnar::leco_options(),
        )
        .err();
    });
    if let Some(e) = write_err {
        return Err(e);
    }
    m.set("columnar.write_rows_s", slice as f64 / secs);

    let mut opened = Vec::new();
    let secs = harness::best_of(reps, || {
        opened = fx.shard_files.iter().map(TableFile::open).collect();
    });
    m.set("columnar.open_ms", secs * 1e3 / fx.shard_files.len() as f64);
    let tables: Vec<TableFile> = opened.into_iter().collect::<Result<_, _>>()?;
    let table_rows: usize = tables.iter().map(TableFile::num_rows).sum();

    let (mut bytes, mut read_secs) = (0, f64::MAX);
    for _ in 0..reps {
        let mut total = (0u64, 0.0);
        for table in &tables {
            let (b, s) = columnar::read_all_chunks(table, 3)?;
            total = (total.0 + b, total.1 + s);
        }
        (bytes, read_secs) = (total.0, read_secs.min(total.1));
    }
    m.set("columnar.read_chunk_gib_s", bytes as f64 / GIB / read_secs);

    // Kernel rates through the chunk loop: a 1 % ts window counted (filter),
    // then unfiltered group-by and sum (every row selected).
    let (ts_min, ts_max) = (fx.table.ts[0], *fx.table.ts.last().expect("rows > 0"));
    let mid = ts_min + (ts_max - ts_min) / 2;
    let kernel = |filter, agg| ScanQuery {
        class: crate::ops::ScanClass::Full,
        filter,
        agg,
    };
    let filter_q = kernel(
        Some(("ts", mid, mid + (ts_max - ts_min) / 100)),
        ScanAgg::Count,
    );
    let mut scratch: Vec<ChunkScratch> = tables.iter().map(ChunkScratch::new).collect();
    let mut rate =
        |q: &ScanQuery, per_rows: &dyn Fn(&columnar::ChunkPartial, &TableFile) -> u64| {
            let mut rows = 0;
            let secs = harness::best_of(reps, || {
                rows = 0;
                for (table, s) in tables.iter().zip(&mut scratch) {
                    let partial =
                        columnar::run_chunks(table, q, s).expect("chunk loop over an open table");
                    rows += per_rows(&partial, table);
                }
            });
            rows as f64 / secs
        };
    m.set(
        "columnar.filter_chunk_rows_s",
        rate(&filter_q, &|c, _| c.rows_filtered),
    );
    m.set(
        "columnar.group_by_chunk_rows_s",
        rate(&kernel(None, ScanAgg::GroupByIdAvgVal), &|_, t| {
            t.num_rows() as u64
        }),
    );
    m.set(
        "columnar.sum_chunk_rows_s",
        rate(&kernel(None, ScanAgg::SumVal), &|_, t| t.num_rows() as u64),
    );

    let full = kernel(None, ScanAgg::SumVal);
    let secs = harness::best_of(reps, || {
        for table in &tables {
            std::hint::black_box(scan::run(table, &full).expect("scan of an open table").sum);
        }
    });
    m.set("scan.run_rows_s", table_rows as f64 / secs);
    // A query whose window lies beyond every zone map: pruned to zero
    // morsels, so what remains is the fixed cost of one Scanner run.
    let empty = kernel(Some(("ts", u64::MAX - 1, u64::MAX)), ScanAgg::Count);
    let runs = 200;
    let secs = harness::best_of(reps, || {
        for _ in 0..runs {
            std::hint::black_box(scan::run(&tables[0], &empty).expect("empty scan").morsels);
        }
    });
    m.set("scan.empty_query_us", secs * 1e6 / runs as f64);

    m.set("server.parse_ns", server::probe_parse_ns(&fx.commands));
    m.set("server.frame_ns", server::probe_frame_ns(&fx.commands));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_matches_a_hand_computed_table() {
        let t = SensorTable {
            ts: vec![10, 20, 30, 40],
            id: vec![1, 1, 2, 2],
            val: vec![5, 7, 100, 300],
        };
        let q = |filter, agg| ScanQuery {
            class: crate::ops::ScanClass::Narrow,
            filter,
            agg,
        };
        let got = oracle(&t, &q(Some(("ts", 20, 40)), ScanAgg::GroupByIdAvgVal));
        assert_eq!(got.rows_selected, 3);
        assert_eq!(got.groups, vec![(1, 7.0), (2, 200.0)]);
        assert_eq!(oracle(&t, &q(None, ScanAgg::SumVal)).sum, 412);
        assert_eq!(
            oracle(&t, &q(Some(("id", 2, 2)), ScanAgg::Count)).rows_selected,
            2
        );
        let (a, b) = (vec![(1, 10, 2)], vec![(1, 20, 1), (3, 9, 3)]);
        let merged = merge_shards([(2, 5, &a), (4, 6, &b)].into_iter());
        assert_eq!((merged.rows_selected, merged.sum), (6, 11));
        assert_eq!(merged.groups, vec![(1, 10.0), (3, 3.0)]);
    }
}
