//! Shards: routing, the per-shard worker loop, and the manifest.
//!
//! Each shard worker is one thread owning its slice of the live tables and
//! a receiver of [`ShardJob`]s.  Read-only data never goes through a worker:
//! point lookups route to exactly one shard by key hash ([`shard_for_key`])
//! and read that shard's shared [`Store`] on the connection thread, and a
//! static table's scan runs a [`Scanner`] over each shard's row-group file
//! on the connection thread too.  Every scan, static or live, covers every
//! shard's slice of the table and comes back as one exact integer
//! [`Partial`] per shard, which the connection folds with
//! [`Partial::merge`] and finalizes once, so a sharded result is
//! bit-identical to a single in-process scan.
//!
//! A bad request (unknown table or column) and an internal failure both
//! come back as replies, never as a dead worker: the worker loop only exits
//! when every job sender is gone.

use leco_bench::report::Json;
use leco_columnar::{Partial, TableFile};
use leco_ingest::LiveTable;
use leco_kvstore::Store;
use leco_scan::{ScanError, ScanSpec, Scanner};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};

/// FNV-1a over the key bytes — the stable, dependency-free routing hash the
/// manifest records.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard owning `key` under `shards`-way hash routing.
pub fn shard_for_key(key: &[u8], shards: usize) -> usize {
    (fnv1a64(key) % shards.max(1) as u64) as usize
}

/// One shard's slice of every table plus its key-value store.
pub struct ShardData {
    /// Shard index in `0..shards`.
    pub id: usize,
    /// Table name → this shard's row-group file for that table.
    /// [`Server::start`](crate::Server::start) moves these out to the
    /// connection threads, which scan them; the worker never sees them.
    pub tables: HashMap<String, TableFile>,
    /// Live table name → this shard's WAL-backed ingestible slice.  Rows
    /// route here by the key column's hash, so one key's rows all live on
    /// one shard.
    pub live_tables: HashMap<String, LiveTable>,
    /// This shard's slice of the key space, shared read-only with every
    /// connection thread.
    pub store: Arc<Store>,
}

/// What a shard worker is asked to do.
pub enum ShardCmd {
    /// One shard's share of a `SCAN` of a live table.
    Scan {
        /// Table name.
        table: String,
        /// The filter and aggregate, columns by name.
        spec: ScanSpec,
    },
    /// Ingest one row into a live table (the row's key routed it here).
    Put {
        /// Live table name.
        table: String,
        /// One value per column, schema order.
        row: Vec<u64>,
    },
    /// Delete every live row with this key from a live table.
    Del {
        /// Live table name.
        table: String,
        /// Key-column value.
        key: u64,
    },
    /// Freeze and compact every live table on this shard.
    Flush,
}

/// A shard's answer to one [`ShardCmd`].
#[derive(Debug, PartialEq)]
pub enum ShardReply {
    /// `Scan`: this shard's exact partials.
    Scan(Box<Partial>),
    /// `Put` / `Del`: the write is durable (WAL fsync'd) on this shard.
    Acked,
    /// `Flush`: rows this shard moved into immutable table files.
    Flushed {
        /// Live rows flushed out of frozen segments.
        rows_flushed: u64,
        /// New table files written.
        files_written: u64,
    },
    /// The request named a table/column this shard does not have → `400`.
    BadRequest(String),
    /// The shard failed to execute a well-formed request → `500`.
    Error(String),
}

/// One unit of work sent to a shard: the command plus the reply route.
pub struct ShardJob {
    /// What to execute.
    pub cmd: ShardCmd,
    /// Identifies this shard's contribution when a request fans out.
    pub tag: usize,
    /// Where the reply goes; a dropped receiver (dead connection) is fine.
    pub reply: mpsc::Sender<(usize, ShardReply)>,
}

/// The shard worker loop: run jobs against `data`'s live tables until every
/// sender is gone.
///
/// Each wake-up drains the whole queue and walks it in arrival order. A
/// run of consecutive `Put`s to one live table is group-committed: one
/// [`LiveTable::put_batch`], one WAL fsync, and every row in it is acked
/// only after that returns (a failed commit answers `500` to all of them).
/// Every other job runs alone, in queue order, so a live `Scan` sees every
/// write queued before it.  Static tables are not the worker's: their scans
/// run on the connection threads.
///
/// `scan_threads` is the threads each live-table scan on this shard uses,
/// the worker's own included.  Errors are turned into replies — a bad
/// request never kills the worker.
pub fn run_shard_worker(data: &ShardData, jobs: mpsc::Receiver<ShardJob>, scan_threads: usize) {
    let mut queue: Vec<ShardJob> = Vec::new();
    while let Ok(job) = jobs.recv() {
        queue.push(job);
        queue.extend(jobs.try_iter());
        leco_obs::gauge!("srv.shard.queue_depth").sub(queue.len() as i64);
        leco_obs::counter!("srv.shard.jobs").add(queue.len() as u64);
        for run in queue.chunk_by(|a, b| same_put_table(&a.cmd, &b.cmd)) {
            let replies = match &run[0].cmd {
                ShardCmd::Put { table, .. } => {
                    let rows: Vec<&[u64]> = run
                        .iter()
                        .map(|job| match &job.cmd {
                            ShardCmd::Put { row, .. } => row.as_slice(),
                            _ => unreachable!("a put run holds only puts"),
                        })
                        .collect();
                    put_rows(data, table, &rows)
                }
                cmd => vec![execute(data, cmd, scan_threads)],
            };
            for (job, reply) in run.iter().zip(replies) {
                // A send error means the connection died mid-request; the
                // shard just moves on.
                let _ = job.reply.send((job.tag, reply));
            }
        }
        queue.clear();
    }
}

/// Whether `a` and `b` are both `Put`s to the same table.
fn same_put_table(a: &ShardCmd, b: &ShardCmd) -> bool {
    matches!((a, b), (ShardCmd::Put { table: x, .. }, ShardCmd::Put { table: y, .. }) if x == y)
}

/// Commit `rows` to the live table `table` under one WAL fsync: one reply
/// per row, in order. A row of the wrong arity gets its own `400` and stays
/// out of the batch; the rest are acked together once the batch is durable.
fn put_rows(data: &ShardData, table: &str, rows: &[&[u64]]) -> Vec<ShardReply> {
    let Some(live) = data.live_tables.get(table) else {
        let unknown = || ShardReply::BadRequest(format!("unknown live table {table:?}"));
        return rows.iter().map(|_| unknown()).collect();
    };
    let checked: Vec<std::io::Result<()>> = rows.iter().map(|row| live.check_row(row)).collect();
    let good: Vec<&[u64]> = rows
        .iter()
        .zip(&checked)
        .filter(|(_, check)| check.is_ok())
        .map(|(row, _)| *row)
        .collect();
    // `put_batch` returns only after the WAL batch is fsync'd, so these
    // replies are the durability acknowledgement.
    let committed = live.put_batch(&good);
    checked
        .into_iter()
        .map(|check| match (check, &committed) {
            (Err(e), _) => ShardReply::BadRequest(e.to_string()),
            (Ok(()), Ok(())) => ShardReply::Acked,
            (Ok(()), Err(e)) => ShardReply::Error(format!("shard {}: put failed: {e}", data.id)),
        })
        .collect()
}

fn execute(data: &ShardData, cmd: &ShardCmd, scan_threads: usize) -> ShardReply {
    match cmd {
        ShardCmd::Scan { table, spec } => execute_scan(data, table, spec, scan_threads),
        ShardCmd::Put { table, row } => put_rows(data, table, &[row])
            .pop()
            .expect("one reply per row"),
        ShardCmd::Del { table, key } => {
            let Some(live) = data.live_tables.get(table) else {
                return ShardReply::BadRequest(format!("unknown live table {table:?}"));
            };
            match live.delete(*key) {
                Ok(()) => ShardReply::Acked,
                Err(e) => ShardReply::Error(format!("shard {}: del failed: {e}", data.id)),
            }
        }
        ShardCmd::Flush => {
            let mut rows_flushed = 0u64;
            let mut files_written = 0u64;
            for (name, live) in &data.live_tables {
                match live.flush() {
                    Ok(report) => {
                        rows_flushed += report.rows_flushed;
                        files_written += report.files_written as u64;
                    }
                    Err(e) => {
                        return ShardReply::Error(format!(
                            "shard {}: flush of {name:?} failed: {e}",
                            data.id
                        ))
                    }
                }
            }
            ShardReply::Flushed {
                rows_flushed,
                files_written,
            }
        }
    }
}

/// One shard's share of a live table's scan, through [`LiveTable::scan`].
/// A column the table does not have is the resolver's
/// [`ScanError::ColumnNotFound`], answered `400` as [`scan_file`] answers it.
fn execute_scan(data: &ShardData, table: &str, spec: &ScanSpec, scan_threads: usize) -> ShardReply {
    let Some(live) = data.live_tables.get(table) else {
        return ShardReply::BadRequest(format!("unknown table {table:?}"));
    };
    match live.scan(spec, scan_threads) {
        Ok(partial) => ShardReply::Scan(Box::new(partial)),
        Err(e) => match e.get_ref().and_then(|inner| inner.downcast_ref()) {
            Some(ScanError::ColumnNotFound(_)) => ShardReply::BadRequest(e.to_string()),
            _ => ShardReply::Error(format!("shard {}: live scan failed: {e}", data.id)),
        },
    }
}

/// Shard `shard`'s share of a static table's scan: a [`Scanner`] built from
/// `spec` over that shard's `file`, run on the calling thread plus
/// `scan_threads - 1` pool workers.  A column the file does not have
/// answers `400`; any other failure answers `500`, naming the shard.
pub(crate) fn scan_file(
    shard: usize,
    file: &TableFile,
    spec: &ScanSpec,
    scan_threads: usize,
) -> ShardReply {
    match Scanner::from_spec(file, spec).and_then(|scan| scan.run_partial(scan_threads)) {
        Ok((partial, _)) => ShardReply::Scan(Box::new(partial)),
        Err(e @ ScanError::ColumnNotFound(_)) => ShardReply::BadRequest(e.to_string()),
        Err(e) => ShardReply::Error(format!("shard {shard}: scan failed: {e}")),
    }
}

/// The manifest: which shard holds which rows of which table, and how keys
/// route.  Written next to the shard files as `manifest.json` so an
/// operator (or a future reload path) can see the layout.
#[derive(Debug, Clone)]
pub struct Manifest {
    /// Number of shards.
    pub shards: usize,
    /// Key routing scheme (always FNV-1a modulo shards today).
    pub kv_routing: String,
    /// Records per shard store, indexed by shard.
    pub kv_records: Vec<u64>,
    /// Per table: `(name, per-shard (row_start, rows))` — contiguous row
    /// ranges, shard `k` holding the `k`-th slice.
    pub tables: Vec<(String, Vec<(u64, u64)>)>,
    /// Live (writable) tables: `(name, key_col)`.  A `PUT`/`DEL` routes to
    /// `fnv1a64(row[key_col]) % shards`; a scan fans out to every shard
    /// worker, queued behind the writes sent before it.
    pub live_tables: Vec<(String, usize)>,
}

impl Manifest {
    /// Render as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shards".into(), Json::Num(self.shards as f64)),
            ("kv_routing".into(), Json::Str(self.kv_routing.clone())),
            (
                "kv_records".into(),
                Json::Arr(
                    self.kv_records
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            (
                "tables".into(),
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|(name, slices)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(name.clone())),
                                (
                                    "slices".into(),
                                    Json::Arr(
                                        slices
                                            .iter()
                                            .map(|&(start, rows)| {
                                                Json::Obj(vec![
                                                    ("row_start".into(), Json::Num(start as f64)),
                                                    ("rows".into(), Json::Num(rows as f64)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "live_tables".into(),
                Json::Arr(
                    self.live_tables
                        .iter()
                        .map(|(name, key_col)| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(name.clone())),
                                ("key_col".into(), Json::Num(*key_col as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::ShardSetBuilder;
    use leco_ingest::IngestConfig;
    use std::path::{Path, PathBuf};

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leco-server-shard-{}-{name}", std::process::id()));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    /// One shard holding live tables `a(k, v)` and `b(k, v, w)`, compacted
    /// only by `FLUSH`.
    fn live_shard(dir: &Path) -> ShardData {
        let config = IngestConfig {
            segment_rows: 64,
            compact_min_segments: 2,
            row_group_size: 32,
            auto_compact: false,
            key_col: 0,
        };
        let mut set = ShardSetBuilder::new(dir, 1)
            .live_table("a", &["k", "v"], config)
            .live_table("b", &["k", "v", "w"], config)
            .build()
            .unwrap();
        set.shards.pop().unwrap()
    }

    /// A seeded job mix over tables `a` and `b`: mostly `PUT`s, with `DEL`s,
    /// `SCAN`s and one `FLUSH` among them, a wrong-arity `PUT` inside a run
    /// of `PUT`s, and a `PUT` and a `SCAN` naming an unknown table.
    fn job_mix(seed: u64) -> Vec<ShardCmd> {
        let mut state = seed;
        let mut next = move |n: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % n
        };
        let mut cmds = Vec::new();
        for i in 0..300u64 {
            let table = if next(4) == 0 { "b" } else { "a" };
            let width = if table == "a" { 2 } else { 3 };
            cmds.push(match (i, next(16)) {
                (100, _) => ShardCmd::Put {
                    table: "a".into(),
                    row: vec![1, 2, 3],
                },
                (150, _) => ShardCmd::Flush,
                (200, _) => ShardCmd::Put {
                    table: "nosuch".into(),
                    row: vec![1, 2],
                },
                (201, _) => ShardCmd::Scan {
                    table: "nosuch".into(),
                    spec: ScanSpec::count(),
                },
                (_, 0) => ShardCmd::Del {
                    table: table.into(),
                    key: next(40),
                },
                (_, 1) => ShardCmd::Scan {
                    table: table.into(),
                    spec: ScanSpec::count().filter("k", 5, 25).sum("v"),
                },
                (_, 2) => ShardCmd::Scan {
                    table: table.into(),
                    spec: ScanSpec::count().group_by_avg("k", "v"),
                },
                _ => ShardCmd::Put {
                    table: table.into(),
                    row: (0..width).map(|c| next(40) + 1_000 * c).collect(),
                },
            });
        }
        // The wrong-arity put sits inside a run of puts to `a`.
        for i in [99, 101] {
            cmds[i] = ShardCmd::Put {
                table: "a".into(),
                row: vec![7, i as u64],
            };
        }
        cmds
    }

    /// What a `SCAN … FILTER k 5 25 SUM v` and a `COUNT` of `rows` answer.
    fn model_scan(rows: &[Vec<u64>], filtered: bool) -> (u64, u128) {
        let hits = rows
            .iter()
            .filter(|r| !filtered || (5..=25).contains(&r[0]));
        (
            hits.clone().count() as u64,
            hits.map(|r| r[1] as u128).sum(),
        )
    }

    #[test]
    fn group_commit_answers_like_one_job_at_a_time() {
        const SEED: u64 = 33;
        let (twin_dir, dir) = (tmp_dir("oracle-twin"), tmp_dir("oracle-batched"));
        let (twin, shard) = (live_shard(&twin_dir), live_shard(&dir));

        // Oracle: every job through `execute`, one at a time, checked
        // against an in-memory model of the rows queued before each scan.
        let mut model: HashMap<&str, Vec<Vec<u64>>> = HashMap::new();
        let cmds = job_mix(SEED);
        let mut want = Vec::new();
        for cmd in &cmds {
            let reply = execute(&twin, cmd, 2);
            match cmd {
                ShardCmd::Put { table, row } if reply == ShardReply::Acked => {
                    model.entry(table).or_default().push(row.clone())
                }
                ShardCmd::Del { table, key } => {
                    assert_eq!(reply, ShardReply::Acked);
                    model.entry(table).or_default().retain(|r| r[0] != *key);
                }
                ShardCmd::Scan { table, spec } if table != "nosuch" => {
                    let ShardReply::Scan(partial) = &reply else {
                        panic!("scan of {table} answered {reply:?}");
                    };
                    let rows = model.get(table.as_str()).map_or(&[][..], Vec::as_slice);
                    let (count, sum) = model_scan(rows, spec.filter.is_some());
                    assert_eq!(partial.rows_selected, count, "scan of {table}");
                    if spec.filter.is_some() {
                        assert_eq!(partial.sum, sum, "scan of {table}");
                    }
                }
                _ => {}
            }
            want.push(reply);
        }
        let puts = cmds
            .iter()
            .filter(|c| matches!(c, ShardCmd::Put { .. }))
            .count() as u64;
        assert!(matches!(want[100], ShardReply::BadRequest(_)));
        assert_eq!(
            (&want[99], &want[101]),
            (&ShardReply::Acked, &ShardReply::Acked)
        );

        // The same jobs, queued up front and drained by the worker.
        let (tx, rx) = mpsc::channel();
        let mut reply_rxs = Vec::new();
        for (tag, cmd) in job_mix(SEED).into_iter().enumerate() {
            let (reply, reply_rx) = mpsc::channel();
            tx.send(ShardJob { cmd, tag, reply }).unwrap();
            reply_rxs.push(reply_rx);
        }
        drop(tx);
        let commits_before = leco_obs::counter!("ing.wal_commits").value();
        run_shard_worker(&shard, rx, 2);
        let commits = leco_obs::counter!("ing.wal_commits").value() - commits_before;
        let got: Vec<ShardReply> = reply_rxs
            .iter()
            .enumerate()
            .map(|(tag, rx)| {
                let (reply_tag, reply) = rx.try_recv().expect("every job is answered");
                assert_eq!(reply_tag, tag);
                reply
            })
            .collect();
        assert_eq!(got, want);
        assert!(commits < puts, "{commits} WAL commits for {puts} puts");

        // Final state: COUNT and SUM agree with the twin and the model.
        for table in ["a", "b"] {
            let sum = ShardCmd::Scan {
                table: table.into(),
                spec: ScanSpec::count().sum("v"),
            };
            let (got, want) = (execute(&shard, &sum, 1), execute(&twin, &sum, 1));
            assert_eq!(got, want, "final scan of {table}");
            let (count, total) = model_scan(&model[table], false);
            let ShardReply::Scan(partial) = got else {
                panic!("final scan of {table} answered {got:?}");
            };
            assert_eq!((partial.rows_selected, partial.sum), (count, total));
        }
        drop((twin, shard));
        std::fs::remove_dir_all(&twin_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 7] {
            for i in 0..1000u64 {
                let key = format!("user{i:08}");
                let s = shard_for_key(key.as_bytes(), shards);
                assert!(s < shards);
                assert_eq!(s, shard_for_key(key.as_bytes(), shards), "stable");
            }
        }
        // All shards get some keys (FNV spreads this keyspace).
        let mut seen = [false; 4];
        for i in 0..1000u64 {
            seen[shard_for_key(format!("user{i:08}").as_bytes(), 4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
