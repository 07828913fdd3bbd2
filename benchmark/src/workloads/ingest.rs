//! `ingest`: the write path through a live server. A live table
//! `events(k,ts,val)` takes 61/64 `PUT`, 2/64 `SCAN events FILTER ts <latest
//! 5 %> SUM val` and 1/64 `DEL` of an older own key over 2 connections ×
//! depth 16, closed loop, with the background compactor on and one fsync per
//! commit (the flush policy, never varied). WAL append + fsync, freeze,
//! partition + encode (`core` LeCo-var under `columnar`) and the manifest
//! swap all run, with reads beside the writes over all three tiers — so a
//! write gain that slows live scans (or the reverse) shows.
//!
//! Checks: every reply code; every live scan against bounds from this
//! connection's own acknowledged puts; after the rounds a `FLUSH` and an
//! exact `COUNT` and `SUM val` against puts − deletes; and a crash-copy
//! check (a process-kill image, taken mid-way through the last round).

use crate::harness::{self, Outcome, Params};
use crate::layers::ingest::{self as live, LiveTable, COLUMNS, ROW_BYTES, TABLE};
use crate::layers::server::{self, Client, Reply, Running, CONNECTIONS, SHARDS};
use crate::layers::{columnar, core, obs};
use crate::load::{run_round, run_rounds, Conn};
use crate::metrics::Measured;
use crate::ops::{
    ingest_key, ingest_key_parts, ingest_ops, ingest_rows_by_conn, ingest_val, IngestOp,
    INGEST_CHUNK, INGEST_CONNS, NEVER_PUT, PUTS_PER_CHUNK,
};
use crate::trace::Recorder;
use crate::{stats, sys};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop throughput this mix reaches on the 2-vCPU builder box (one
/// fsync per PUT on a shared virtual disk).
const OPS_PER_SECOND: f64 = 6_500.0;
const DEPTH: usize = 16;
const _: () = assert!(CONNECTIONS as u64 == INGEST_CONNS);
const LADDER_OPS: usize = 200;
/// Chunks of warm-up before the first round (per connection).
const WARMUP_CHUNKS: u64 = 32;

struct Fixture {
    server: Running,
    /// Every connection's whole op stream, warm-up then the rounds, with each
    /// op's command already rendered (the load generator then only copies).
    streams: Vec<Vec<(IngestOp, String)>>,
    /// Last field: removed after the server has shut down.
    scratch: sys::Scratch,
}

fn build_fixture(p: &Params, total_chunks: u64, rep: usize) -> std::io::Result<Fixture> {
    let scratch = sys::Scratch::new(&format!("ingest-{rep}"))?;
    let set = server::ShardSetBuilder::new(scratch.path(), SHARDS)
        .live_table(TABLE, &COLUMNS, live::config(true))
        .build()?;
    Ok(Fixture {
        server: server::start(set)?,
        streams: (0..CONNECTIONS)
            .map(|c| {
                let ops = ingest_ops(p.seed, c, 0, total_chunks);
                ops.into_iter().map(|op| (op, op.rendered())).collect()
            })
            .collect(),
        scratch,
    })
}

fn live_dir(root: &Path, shard: usize) -> PathBuf {
    root.join(format!("live-{TABLE}-s{shard}"))
}

/// What one connection has sent and had acknowledged, for the scan bounds
/// and the final-state oracle.
#[derive(Default)]
struct IngestConn {
    puts_acked: u64,
    sum_put: u128,
    /// Put indices of existing keys this connection has asked to delete
    /// (ascending: each delete targets a later chunk than the one before).
    del_targets_sent: Vec<u64>,
    dels_acked: u64,
    sum_deleted: u128,
    /// `puts_acked` at the moment each in-flight scan was sent.
    scans_in_flight: VecDeque<u64>,
    seed: u64,
}

/// Put index of a delete's target, if it names a key that was put.
fn existing_target(k: u64) -> Option<u64> {
    let (_, index) = ingest_key_parts(k);
    (index < NEVER_PUT).then_some(index)
}

impl Conn for IngestConn {
    type Op = (IngestOp, String);

    fn command(&mut self, (op, command): &Self::Op, out: &mut String) {
        match op {
            IngestOp::Scan { .. } => self.scans_in_flight.push_back(self.puts_acked),
            IngestOp::Del { k } => self.del_targets_sent.extend(existing_target(*k)),
            IngestOp::Put { .. } => {}
        }
        out.push_str(command);
    }

    fn verify(&mut self, (op, _): &Self::Op, reply: &Reply) -> bool {
        match *op {
            IngestOp::Put { val, .. } => {
                self.puts_acked += 1;
                self.sum_put += val as u128;
                true
            }
            IngestOp::Del { k } => {
                if existing_target(k).is_some() {
                    self.dels_acked += 1;
                    self.sum_deleted += ingest_val(k, self.seed) as u128;
                }
                true
            }
            IngestOp::Scan { lo, hi } => {
                // Rows with lo <= ts <= hi. At least: this connection's puts
                // acknowledged before the scan was sent, less every delete it
                // had sent by now. At most: one row per ts per connection.
                let acked_at_send = self.scans_in_flight.pop_front().expect("scan was sent");
                let own = acked_at_send.min(hi + 1).saturating_sub(lo);
                let in_window = |t: &u64| (lo..=hi).contains(t);
                let deleted = self
                    .del_targets_sent
                    .iter()
                    .rev()
                    .take_while(|t| **t >= lo)
                    .filter(|t| in_window(t))
                    .count();
                let at_least = own.saturating_sub(deleted as u64);
                let at_most = CONNECTIONS as u64 * (hi - lo + 1);
                (at_least..=at_most).contains(&reply.rows_selected)
                    && reply.sum < (reply.rows_selected as u128 + 1) << 41
            }
        }
    }
}

/// A copy of every shard's live directory, taken while the load runs.
struct CrashCopy {
    dir: PathBuf,
    /// Per connection: ops acknowledged before the copy began, and an upper
    /// bound on ops sent by the time it ended.
    acked_before: Vec<u64>,
    sent_by_end: Vec<u64>,
    retries: u64,
}

/// Copy `src` file by file; the copy is consistent if the manifest read
/// first still reads the same afterwards (table files and the WAL it names
/// are only deleted after a manifest swap) and no compaction finished.
fn copy_live_dir(src: &Path, dst: &Path) -> std::io::Result<bool> {
    std::fs::remove_dir_all(dst).ok();
    std::fs::create_dir_all(dst)?;
    let compactions = obs::snapshot();
    let manifest = std::fs::read(src.join("MANIFEST"))?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let name = entry.file_name();
        if name != "MANIFEST" && name != "MANIFEST.tmp" && entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), dst.join(&name))?;
        }
    }
    std::fs::write(dst.join("MANIFEST"), &manifest)?;
    let unchanged = std::fs::read(src.join("MANIFEST"))? == manifest;
    Ok(unchanged && obs::snapshot().counter_since(&compactions, "ing.compactions") == 0.0)
}

fn take_crash_copy(root: &Path, acked: &[AtomicU64], wait_for: u64) -> std::io::Result<CrashCopy> {
    // Bounded: a connection that died never acknowledges its share.
    let deadline = Instant::now() + Duration::from_secs(60);
    while acked.iter().map(|a| a.load(Ordering::Acquire)).sum::<u64>() < wait_for
        && Instant::now() < deadline
    {
        std::thread::sleep(Duration::from_millis(2));
    }
    let dir = root.join("crash-copy");
    let mut retries = 0;
    loop {
        let acked_before: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
        let mut consistent = true;
        for shard in 0..SHARDS {
            // An error here is a file deleted under the copy: same as a swap.
            consistent &=
                copy_live_dir(&live_dir(root, shard), &live_dir(&dir, shard)).unwrap_or(false);
        }
        if consistent || retries == 50 {
            let sent_by_end = acked
                .iter()
                .map(|a| a.load(Ordering::Acquire) + DEPTH as u64)
                .collect();
            return if consistent {
                Ok(CrashCopy {
                    dir,
                    acked_before,
                    sent_by_end,
                    retries,
                })
            } else {
                Err(std::io::Error::other(
                    "no consistent crash copy in 50 attempts",
                ))
            };
        }
        retries += 1;
    }
}

pub fn run(p: &Params) -> std::io::Result<Outcome> {
    let chunks_per_round = (p.ops_per_round(OPS_PER_SECOND, INGEST_CHUNK * CONNECTIONS, 1280)
        / CONNECTIONS
        / INGEST_CHUNK) as u64;
    let warmup = if p.mini { 2 } else { WARMUP_CHUNKS };
    let total_chunks = warmup + p.rounds() as u64 * chunks_per_round;
    let (fx, setup_s) = harness::repeat_setup(p.mini, |rep| build_fixture(p, total_chunks, rep))?;
    let acked: Vec<AtomicU64> = (0..CONNECTIONS).map(|_| AtomicU64::new(0)).collect();
    let addr = fx.server.addr();
    let mut conns: Vec<IngestConn> = (0..CONNECTIONS)
        .map(|_| IngestConn {
            seed: p.seed,
            ..Default::default()
        })
        .collect();
    let round_of =
        |conns: &mut [IngestConn], first_chunk: u64, chunks: u64, trace: Option<Instant>| {
            let range =
                first_chunk as usize * INGEST_CHUNK..(first_chunk + chunks) as usize * INGEST_CHUNK;
            let ops: Vec<&[(IngestOp, String)]> =
                fx.streams.iter().map(|s| &s[range.clone()]).collect();
            run_round(addr, conns, &ops, DEPTH, &acked, trace)
        };

    let warm = round_of(&mut conns, 0, warmup, None);
    let (mut attempted, mut failed) = (warm.ops, warm.failed);

    let before = obs::snapshot();
    let epoch = Instant::now();
    let mut crash_copy = None;
    let rounds = run_rounds(p, epoch, |r, trace| {
        let first_chunk = warmup + r as u64 * chunks_per_round;
        let last = r + 1 == p.rounds();
        std::thread::scope(|scope| {
            for a in &acked {
                a.store(0, Ordering::Release);
            }
            // Mid-way through the last round, image every shard's directory.
            let copier = last.then(|| {
                let half = chunks_per_round * (INGEST_CHUNK * CONNECTIONS) as u64 / 2;
                let (root, acked) = (fx.scratch.path(), &acked);
                scope.spawn(move || take_crash_copy(root, acked, half))
            });
            let round = round_of(&mut conns, first_chunk, chunks_per_round, trace);
            crash_copy = copier.map(|h| h.join().expect("copier does not panic"));
            round
        })
    });
    let after = obs::snapshot();
    attempted += rounds.summary.attempted;
    failed += rounds.summary.failed;

    // Exact final state: FLUSH, then COUNT and SUM val against puts − deletes.
    let mut client = Client::connect(addr)?;
    let puts: u64 = conns.iter().map(|c| c.puts_acked).sum();
    let live_rows = puts - conns.iter().map(|c| c.dels_acked).sum::<u64>();
    let live_sum: u128 = conns.iter().map(|c| c.sum_put - c.sum_deleted).sum();
    let flush = server::request(&mut client, "FLUSH")?;
    let count = server::request(&mut client, &format!("SCAN {TABLE}"))?;
    let sum = server::request(&mut client, &format!("SCAN {TABLE} SUM val"))?;
    attempted += 3;
    failed += (flush.code != 200) as u64;
    failed += (count.code != 200 || count.rows_selected != live_rows) as u64;
    failed += (sum.code != 200 || sum.rows_selected != live_rows || sum.sum != live_sum) as u64;

    // Crash copy: everything acknowledged before the copy began must be in it.
    let crash = check_crash_copy(
        p,
        crash_copy.expect("last round ran")?,
        total_chunks - chunks_per_round,
    )?;
    attempted += crash.rows_required;
    failed += crash.rows_lost;

    let metrics = if !p.trace {
        // Bytes at rest after the flush: what a fresh open keeps (it sweeps
        // replaced files), against the raw bytes of the rows still live.
        drop(client);
        let root = fx.scratch.path().to_path_buf();
        drop(fx.server);
        let mut stored = 0;
        for shard in 0..SHARDS {
            drop(live::open(&live_dir(&root, shard), false)?);
            stored += sys::dir_bytes(&live_dir(&root, shard), |_| true)?;
        }
        rounds.end_to_end(setup_s, stored as f64 / (live_rows * ROW_BYTES) as f64)
    } else {
        let mut m = Measured::default();
        let delta = |name: &str| after.counter_since(&before, name);
        let put_rows = delta("ing.put_rows").max(1.0);
        m.set(
            "ingest.commits_per_put",
            delta("ing.wal_commits") / put_rows,
        );
        m.set(
            "ingest.wal_bytes_per_row",
            delta("ing.wal_bytes") / put_rows,
        );
        m.set("ingest.compactions", delta("ing.compactions"));
        m.set(
            "ingest.compact_busy_ratio",
            after.hist_seconds_since(&before, "ing.compact_secs")
                / (rounds.seconds * SHARDS as f64),
        );
        // Every table file ever written is still on disk (replaced files are
        // swept at the next open), so the directories give the bytes written.
        let mut table_bytes = 0;
        for shard in 0..SHARDS {
            table_bytes += sys::dir_bytes(&live_dir(fx.scratch.path(), shard), |n| {
                n.starts_with("file-")
            })?;
        }
        let wal_bytes = after.counter_since(&obs::Snapshot::default(), "ing.wal_bytes");
        m.set(
            "ingest.write_bytes_per_user_byte",
            (wal_bytes + table_bytes as f64) / (puts * ROW_BYTES) as f64,
        );
        m.set(
            "ingest.recover_rows_s",
            crash.rows_recovered as f64 / crash.reopen_seconds,
        );
        m.set("ingest.lost_acked_rows", crash.rows_lost as f64);
        let mut rec = Recorder::new(epoch, 9);
        let (extra_attempted, extra_failed) =
            ladder_and_probes(p, &fx, &mut client, &mut rec, &mut m)?;
        attempted += extra_attempted;
        failed += extra_failed;
        m.set(
            "server.errors",
            obs::snapshot().counter_since(&before, "srv.errors"),
        );
        rounds.diagnostics(&mut m);
        rec.spans.extend(rounds.spans);
        super::write_trace("ingest", &rec.spans)?;
        m
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

struct CrashCheck {
    rows_required: u64,
    rows_lost: u64,
    rows_recovered: u64,
    reopen_seconds: f64,
}

/// `LiveTable::open` every shard of the copy (timed) and range-scan each
/// connection's acknowledged key range. `chunks_before` is how many chunks
/// per connection ran before the last round.
fn check_crash_copy(
    p: &Params,
    copy: CrashCopy,
    chunks_before: u64,
) -> std::io::Result<CrashCheck> {
    let start = Instant::now();
    let tables: Vec<LiveTable> = (0..SHARDS)
        .map(|shard| live::open(&live_dir(&copy.dir, shard), false))
        .collect::<Result<_, _>>()?;
    let reopen_seconds = start.elapsed().as_secs_f64();
    let mut out = CrashCheck {
        rows_required: 0,
        rows_lost: 0,
        rows_recovered: tables.iter().map(live::rows_held).sum(),
        reopen_seconds,
    };
    for conn in 0..CONNECTIONS {
        // The last round's op list says what the acknowledged prefix put and
        // what the sent prefix may have deleted.
        let acked_ops = copy.acked_before[conn] as usize;
        let last_round_chunks = copy.sent_by_end[conn].div_ceil(INGEST_CHUNK as u64) + 1;
        let ops = ingest_ops(p.seed, conn, chunks_before, last_round_chunks);
        let puts_in = |prefix: usize| {
            ops[..prefix.min(ops.len())]
                .iter()
                .filter(|op| matches!(op, IngestOp::Put { .. }))
                .count() as u64
        };
        let acked_puts = chunks_before * PUTS_PER_CHUNK + puts_in(acked_ops);
        if acked_puts == 0 {
            continue;
        }
        // Deletes of existing keys below `acked_puts`: all of the earlier
        // rounds' (one per chunk) plus those sent in this round so far.
        let earlier = ingest_ops(p.seed, conn, 0, chunks_before);
        let sent = copy.sent_by_end[conn] as usize;
        let deleted = earlier
            .iter()
            .chain(&ops[..sent.min(ops.len())])
            .filter(|op| matches!(op, IngestOp::Del { k } if existing_target(*k).is_some_and(|t| t < acked_puts)))
            .count() as u64;
        let required = acked_puts - deleted;
        // Every key up to this connection's last acknowledged put; the
        // other connection's rows in that range are told apart by `val`.
        let mut found = 0;
        for table in &tables {
            let (rows, sum) = live::count_and_sum_keys(table, 0, ingest_key(conn, acked_puts - 1))?;
            found += ingest_rows_by_conn(rows, sum)[conn];
        }
        out.rows_required += required;
        out.rows_lost += required.saturating_sub(found);
    }
    if copy.retries > 0 {
        eprintln!(
            "ingest: crash copy needed {} retries (a compaction finished mid-copy)",
            copy.retries
        );
    }
    drop(tables);
    std::fs::remove_dir_all(&copy.dir).ok();
    Ok(out)
}

/// The PUT ladder (`Client::request` → `LiveTable::put` → `Wal::append` +
/// `commit`), the compaction ladder (`LiveTable::flush` of N frozen rows →
/// `TableFile::write(LecoVar)` → LeCo-var `compress` of the same columns),
/// and the standalone `ingest` probes, all on benchmark-owned directories.
fn ladder_and_probes(
    p: &Params,
    fx: &Fixture,
    client: &mut Client,
    rec: &mut Recorder,
    m: &mut Measured,
) -> std::io::Result<(u64, u64)> {
    let root = fx.scratch.path().join("own");
    std::fs::create_dir_all(&root)?;
    let table = live::open(&root.join("table"), false)?;
    let mut wal = live::WalProbe::create(&root.join("probe.wal"))?;
    let mut failed = 0u64;
    // Put indices no load connection reaches.
    let row_of = |i: u64| {
        let k = ingest_key(0, (1 << 32) + i);
        [k, i, ingest_val(k, p.seed)]
    };

    let sample = if p.mini { 24 } else { LADDER_OPS };
    let mut rows = [const { Vec::new() }; 4]; // noop, request, put, wal (µs)
    let mut reply_bytes = 0;
    for i in 0..sample as u64 {
        let op = i as u32;
        let row = row_of(i);
        let span = rec.open("ladder.op", 0, op);
        let (noop, noop_ns) = rec.time("rung.server.noop", span, op, || {
            server::request(client, "GET absent")
        });
        failed += !noop.is_ok_and(|r| r.code == 200 && r.value.is_none()) as u64;
        let cmd = format!("PUT {TABLE} {} {} {}", row[0], row[1], row[2]);
        let (reply, request_ns) = rec.time("rung.server.request", span, op, || {
            server::request(client, &cmd)
        });
        failed += !reply.is_ok_and(|r| r.code == 200) as u64;
        let (put, put_ns) = rec.time("rung.ingest.put", span, op, || table.put(&row));
        put?;
        let (commit, wal_ns) = rec.time("rung.ingest.wal", span, op, || {
            wal.append(&row).and_then(|()| wal.commit())
        });
        commit?;
        rec.close(span);
        let extra = row_of((1 << 20) + i);
        reply_bytes += server::reply_bytes(
            client,
            &format!("PUT {TABLE} {} {} {}", extra[0], extra[1], extra[2]),
        )?;
        for (dst, ns) in rows.iter_mut().zip([noop_ns, request_ns, put_ns, wal_ns]) {
            dst.push(ns as f64 / 1e3);
        }
    }
    let mean = |k: usize| stats::mean(&rows[k]);
    m.set("ladder.roundtrip_us", mean(1));
    m.set("server.self_us", mean(0));
    m.set("ingest.self_us", mean(2));
    m.set("ladder.residual_us", mean(1) - mean(0) - mean(2));
    m.set("ingest.put_us", stats::median(&rows[2]));
    m.set("ingest.wal_commit_us", stats::median(&rows[3]));
    super::noop_metrics(&rows[0], m);
    m.set(
        "server.reply_bytes_per_op",
        reply_bytes as f64 / sample as f64,
    );

    // WAL append rate without the fsync: many rows, one commit.
    let batch: Vec<[u64; 3]> = (0..if p.mini { 2_000 } else { 100_000 })
        .map(|i| row_of((1 << 24) + i))
        .collect();
    let wal_path = root.join("append.wal");
    let mut append = live::WalProbe::create(&wal_path)?;
    let start = Instant::now();
    for row in &batch {
        append.append(row)?;
    }
    let secs = start.elapsed().as_secs_f64();
    append.commit()?;
    m.set(
        "ingest.wal_append_mb_s",
        std::fs::metadata(&wal_path)?.len() as f64 / 1e6 / secs,
    );

    // Group commit as the API offers it today: one fsync per batch.
    let refs: Vec<&[u64]> = batch.iter().map(|r| r.as_slice()).collect();
    let start = Instant::now();
    for group in refs.chunks(1024) {
        table.put_batch(group)?;
    }
    m.set(
        "ingest.put_batch_rows_s",
        batch.len() as f64 / start.elapsed().as_secs_f64(),
    );

    // Live scan over memtable + frozen segments, then the compaction ladder.
    let held = live::rows_held(&table);
    let start = Instant::now();
    let (scanned, _) = live::sum_all(&table)?;
    m.set(
        "ingest.scan_rows_s",
        scanned as f64 / start.elapsed().as_secs_f64(),
    );
    failed += (scanned != held) as u64;
    let start = Instant::now();
    let report = table.flush()?;
    m.set(
        "ingest.flush_rows_s",
        report.rows_flushed as f64 / start.elapsed().as_secs_f64(),
    );
    failed += (report.rows_flushed != held) as u64;

    let mut columns: Vec<Vec<u64>> = vec![Vec::new(); COLUMNS.len()];
    for i in 0..sample as u64 {
        columns
            .iter_mut()
            .zip(row_of(i))
            .for_each(|(c, v)| c.push(v));
    }
    for row in &batch {
        columns.iter_mut().zip(row).for_each(|(c, v)| c.push(*v));
    }
    let start = Instant::now();
    let written = columnar::write_leco_var(
        &root.join("same-columns.tbl"),
        &COLUMNS,
        &columns,
        live::config(false).row_group_size,
    )?;
    let write_secs = start.elapsed().as_secs_f64();
    m.set(
        "columnar.write_rows_s",
        written.num_rows() as f64 / write_secs,
    );
    let start = Instant::now();
    let row_group = live::config(false).row_group_size;
    for column in &columns {
        for chunk in column.chunks(row_group) {
            std::hint::black_box(core::compress(chunk, core::Scheme::Var).len());
        }
    }
    let compress_secs = start.elapsed().as_secs_f64();
    m.set(
        "core.compress_var_mb_s",
        (held * ROW_BYTES) as f64 / 1e6 / compress_secs,
    );
    // Per flushed row, in µs: the table-file layer's own share and the codec's.
    m.set(
        "columnar.self_us",
        (write_secs - compress_secs) * 1e6 / held as f64,
    );
    m.set("core.self_us", compress_secs * 1e6 / held as f64);

    let commands: Vec<String> = fx.streams[0]
        .iter()
        .take(1024)
        .map(|(_, command)| command.clone())
        .collect();
    m.set("server.parse_ns", server::probe_parse_ns(&commands));
    m.set("server.frame_ns", server::probe_frame_ns(&commands));
    Ok((2 * sample as u64 + 2, failed))
}
