//! `lookup`: `GET`/`MGET` over 400 K records (16 B keys, 100 B values) with a
//! LeCo index and a block cache under a fifth of each shard's data — the
//! larger-than-cache workload. 2 connections × depth 32, closed loop.
//! `server` framing and dispatch and `kvstore` index + cache do the work;
//! bulk decode is bypassed and `core` appears only as random access inside
//! the index. A `server` or `kvstore` change must show here; a decode-kernel
//! change must not.
//!
//! Every value returned is compared with the value the seed gives that key;
//! an absent key must come back not found.

use crate::harness::{self, Outcome, Params};
use crate::layers::kvstore::{self, Store};
use crate::layers::obs;
use crate::layers::server::{self, Client, Reply, Running, CONNECTIONS, SHARDS};
use crate::load::{run_round, run_rounds, Conn};
use crate::metrics::Measured;
use crate::ops::{lookup_key, lookup_ops, lookup_value, LookupOp, KEY_BYTES, VALUE_BYTES};
use crate::trace::Recorder;
use crate::{stats, sys};
use std::sync::atomic::AtomicU64;
use std::time::Instant;

const RECORDS: u32 = 400_000;
/// Closed-loop throughput this mix reaches on the 2-vCPU builder box.
const OPS_PER_SECOND: f64 = 40_000.0;
const DEPTH: usize = 32;
const LADDER_OPS: usize = 200;
/// Direct `Store::get` calls replayed for the hit/miss split.
const PROBE_GETS: usize = 100_000;

fn records(n: u32, seed: u64) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|idx| {
            let (mut key, mut value) = (
                String::with_capacity(KEY_BYTES),
                String::with_capacity(VALUE_BYTES),
            );
            lookup_key(idx, false, &mut key);
            lookup_value(idx, seed, &mut value);
            (key.into_bytes(), value.into_bytes())
        })
        .collect()
}

struct Fixture {
    server: Running,
    n_keys: u32,
    stored_bytes: u64,
    index_bytes: u64,
    /// Last field: removed after the server has shut down.
    scratch: sys::Scratch,
}

fn build_fixture(p: &Params, rep: usize) -> std::io::Result<Fixture> {
    let n_keys = if p.mini { 10_000 } else { RECORDS };
    let scratch = sys::Scratch::new(&format!("lookup-{rep}"))?;
    let set = server::ShardSetBuilder::new(scratch.path(), SHARDS)
        .store_options(kvstore::options())
        .records(records(n_keys, p.seed))
        .build()?;
    Ok(Fixture {
        stored_bytes: set
            .shards
            .iter()
            .map(|s| kvstore::stored_bytes(&s.store))
            .sum(),
        index_bytes: set
            .shards
            .iter()
            .map(|s| s.store.index_size_bytes() as u64)
            .sum(),
        server: server::start(set)?,
        n_keys,
        scratch,
    })
}

struct LookupConn {
    seed: u64,
    want: String,
}

impl LookupConn {
    fn value_is(&mut self, idx: u32, got: Option<&str>) -> bool {
        self.want.clear();
        lookup_value(idx, self.seed, &mut self.want);
        got == Some(self.want.as_str())
    }
}

impl Conn for LookupConn {
    type Op = LookupOp;

    fn command(&mut self, op: &LookupOp, out: &mut String) {
        op.command(out);
    }

    fn verify(&mut self, op: &LookupOp, reply: &Reply) -> bool {
        match op {
            LookupOp::Get { absent: true, .. } => reply.value.is_none(),
            LookupOp::Get { idx, .. } => self.value_is(*idx, reply.value.as_deref()),
            LookupOp::MGet(keys) => {
                reply.values.len() == keys.len()
                    && keys
                        .iter()
                        .zip(&reply.values)
                        .all(|(&idx, got)| self.value_is(idx, got.as_deref()))
            }
        }
    }
}

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let (fx, setup_s) = harness::repeat_setup(p.mini, |rep| build_fixture(p, rep))?;
    let ops_per_round = p.ops_per_round(OPS_PER_SECOND, 8 * CONNECTIONS, 1600) / CONNECTIONS;
    let streams: Vec<Vec<LookupOp>> = (0..CONNECTIONS)
        .map(|c| lookup_ops(p.seed, c, ops_per_round, fx.n_keys))
        .collect();
    let acked: Vec<AtomicU64> = (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect();
    let addr = fx.server.addr();
    let mut conns: Vec<LookupConn> = (0..CONNECTIONS)
        .map(|_| LookupConn {
            seed: p.seed,
            want: String::new(),
        })
        .collect();
    let round_of = |conns: &mut [LookupConn], take: usize, trace: Option<Instant>| {
        let ops: Vec<&[LookupOp]> = streams.iter().map(|s| &s[..take.min(s.len())]).collect();
        run_round(addr, conns, &ops, DEPTH, &acked, trace)
    };

    // Warm-up: fill the block caches to their steady state.
    round_of(&mut conns, ops_per_round / 4 + 1, None);

    let before = obs::snapshot();
    let epoch = Instant::now();
    let rounds = run_rounds(p, epoch, |_, trace| {
        round_of(&mut conns, ops_per_round, trace)
    });
    let after = obs::snapshot();
    let (mut attempted, mut failed) = (rounds.summary.attempted, rounds.summary.failed);

    let metrics = if !p.trace {
        let user_bytes = fx.n_keys as u64 * (KEY_BYTES + VALUE_BYTES) as u64;
        rounds.end_to_end(setup_s, fx.stored_bytes as f64 / user_bytes as f64)
    } else {
        let mut m = Measured::default();
        // The served stores' own cache counters, over the measured rounds.
        let (hits, misses) = (
            after.counter_since(&before, "kv.cache.hits"),
            after.counter_since(&before, "kv.cache.misses"),
        );
        m.set("kvstore.cache_hit_ratio", hits / (hits + misses).max(1.0));
        m.set(
            "kvstore.index_bytes_per_key",
            fx.index_bytes as f64 / fx.n_keys as f64,
        );
        let mut rec = Recorder::new(epoch, 9);
        let (extra_attempted, extra_failed) =
            ladder_and_probes(p, &fx, &streams[0], &mut rec, &mut m)?;
        attempted += extra_attempted;
        failed += extra_failed;
        m.set(
            "server.errors",
            obs::snapshot().counter_since(&before, "srv.errors"),
        );
        rounds.diagnostics(&mut m);
        rec.spans.extend(rounds.spans);
        super::write_trace("lookup", &rec.spans)?;
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

/// A benchmark-owned `Store::load` of the same shard records gives the
/// `kvstore` rung (`Store::get` timed from outside) and the hit/miss split.
fn ladder_and_probes(
    p: &Params,
    fx: &Fixture,
    stream: &[LookupOp],
    rec: &mut Recorder,
    m: &mut Measured,
) -> std::io::Result<(u64, u64)> {
    let all = records(fx.n_keys, p.seed);
    let mut per_shard: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); SHARDS];
    for (key, value) in all {
        per_shard[server::shard_for_key(&key, SHARDS)].push((key, value));
    }
    let start = Instant::now();
    let stores: Vec<Store> = per_shard
        .iter()
        .enumerate()
        .map(|(k, recs)| kvstore::load(&fx.scratch.path().join(format!("own-kv-s{k}.sst")), recs))
        .collect::<Result<_, _>>()?;
    m.set("kvstore.load_s", start.elapsed().as_secs_f64());
    drop(per_shard);
    let store_of = |key: &str| &stores[server::shard_for_key(key.as_bytes(), SHARDS)];
    let mut conn = LookupConn {
        seed: p.seed,
        want: String::new(),
    };
    let mut failed = 0u64;

    // Hit/miss split: replay GETs straight into the stores, classifying each
    // call by whether it had to read a block from the file.
    let (mut hit_ns, mut miss_ns) = (Vec::new(), Vec::new());
    let mut key = String::new();
    let reads_before: u64 = stores.iter().map(Store::disk_reads).sum();
    let mut gets = 0u64;
    for op in stream.iter().take(if p.mini { 2_000 } else { PROBE_GETS }) {
        let LookupOp::Get { idx, absent } = *op else {
            continue;
        };
        key.clear();
        lookup_key(idx, absent, &mut key);
        let store = store_of(&key);
        let reads = store.disk_reads();
        let start = Instant::now();
        let got = store.get(key.as_bytes())?;
        let ns = start.elapsed().as_nanos() as u64;
        if store.disk_reads() == reads {
            &mut hit_ns
        } else {
            &mut miss_ns
        }
        .push(ns);
        let got = got.as_deref().map(|v| std::str::from_utf8(v).unwrap_or(""));
        failed += !(if absent {
            got.is_none()
        } else {
            conn.value_is(idx, got)
        }) as u64;
        gets += 1;
    }
    hit_ns.sort_unstable();
    miss_ns.sort_unstable();
    m.set("kvstore.get_hit_ns", stats::percentile(&hit_ns, 0.5) as f64);
    m.set(
        "kvstore.get_miss_ns",
        stats::percentile(&miss_ns, 0.5) as f64,
    );
    let reads_after: u64 = stores.iter().map(Store::disk_reads).sum();
    m.set(
        "kvstore.disk_reads_per_get",
        (reads_after - reads_before) as f64 / gets.max(1) as f64,
    );
    let mut attempted = gets;

    // Ladder: Client::request → Store::get. The server's own share is the
    // absent-key GET round trip (the socket + dispatch floor) less what the
    // store spends on that key.
    let mut client = Client::connect(fx.server.addr())?;
    let mut absent_key = String::new();
    lookup_key(0, true, &mut absent_key);
    let noop_cmd = format!("GET {absent_key}");
    let mut rows = [const { Vec::new() }; 4]; // noop, noop store, request, store (µs)
    let mut reply_bytes = 0usize;
    let mut cmd = String::new();
    let sample: Vec<&LookupOp> = stream
        .iter()
        .rev()
        .take(if p.mini { 24 } else { LADDER_OPS })
        .collect();
    for (i, op) in sample.iter().enumerate() {
        let op_id = i as u32;
        let root = rec.open("ladder.op", 0, op_id);
        let (noop, noop_ns) = rec.time("rung.server.noop", root, op_id, || {
            server::request(&mut client, &noop_cmd)
        });
        failed += !noop.is_ok_and(|r| r.code == 200 && r.value.is_none()) as u64;
        let (_, noop_store_ns) = rec.time("rung.kvstore.noop", root, op_id, || {
            store_of(&absent_key).get(absent_key.as_bytes())
        });
        cmd.clear();
        op.command(&mut cmd);
        let (reply, request_ns) = rec.time("rung.server.request", root, op_id, || {
            server::request(&mut client, &cmd)
        });
        failed += !reply.is_ok_and(|r| r.code == 200 && conn.verify(op, &r)) as u64;
        let keys: Vec<String> = cmd.split(' ').skip(1).map(str::to_string).collect();
        let ((), store_ns) = rec.time("rung.kvstore", root, op_id, || {
            for key in &keys {
                std::hint::black_box(store_of(key).get(key.as_bytes()).is_ok());
            }
        });
        rec.close(root);
        reply_bytes += server::reply_bytes(&mut client, &cmd)?;
        for (row, ns) in rows
            .iter_mut()
            .zip([noop_ns, noop_store_ns, request_ns, store_ns])
        {
            row.push(ns as f64 / 1e3);
        }
    }
    attempted += 2 * sample.len() as u64;
    let mean = |k: usize| stats::mean(&rows[k]);
    let (server_self, kvstore_self) = (mean(0) - mean(1), mean(3));
    m.set("ladder.roundtrip_us", mean(2));
    m.set("server.self_us", server_self);
    m.set("kvstore.self_us", kvstore_self);
    m.set("ladder.residual_us", mean(2) - server_self - kvstore_self);
    super::noop_metrics(&rows[0], m);
    m.set(
        "server.reply_bytes_per_op",
        reply_bytes as f64 / sample.len() as f64,
    );

    let commands: Vec<String> = stream.iter().take(2_000).map(LookupOp::rendered).collect();
    m.set("server.parse_ns", server::probe_parse_ns(&commands));
    m.set("server.frame_ns", server::probe_frame_ns(&commands));
    Ok((attempted, failed))
}
