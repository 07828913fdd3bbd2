//! The threaded TCP frontend: accept loop → per-connection handler →
//! shard dispatch → ordered replies.
//!
//! One thread per connection reads length-prefixed frames and parses
//! commands.  Read-only work is answered right there: `GET`/`MGET` against
//! each shard's shared read-only [`Store`], and a `SCAN` of a static table
//! over each shard's shared row-group file, one file after another.
//! `PUT`/`DEL`/`FLUSH` and a `SCAN` of a live table go to the shard workers
//! over channels.  Reads drain the socket buffer into a [`FrameCursor`], so
//! a pipelining client's burst of requests is dispatched as one *batch* —
//! every shard worker involved works in parallel — and the replies are
//! written back in request order.
//!
//! Failure isolation: a malformed request earns a `400` reply and the
//! connection lives on; a shard-side failure earns a `500`; only a corrupt
//! frame length (oversized prefix) closes the connection, because a
//! length-prefixed stream cannot be resynchronised.  Shutdown is clean:
//! [`Server::shutdown`] wakes the accept loop, lets every connection finish
//! its current batch, drains the shard workers and joins every thread.

use crate::protocol::{
    encode_scan_reply, error_response, ok_response, parse_request, response_code, FrameCursor,
    FrameError, Request, MAX_FRAME,
};
use crate::shard::{
    run_shard_worker, scan_file, shard_for_key, Manifest, ShardCmd, ShardData, ShardJob, ShardReply,
};
use crate::ShardSet;
use leco_bench::report::Json;
use leco_columnar::{Partial, TableFile};
use leco_kvstore::Store;
use leco_obs::Stopwatch;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests, benchmarks).
    pub addr: String,
    /// Threads one scan of one shard's file uses, the calling thread
    /// included: a static table's shard files are scanned one after another
    /// on the connection thread, a live table's on each shard worker.
    pub scan_threads: usize,
    /// Most requests dispatched as one pipelined batch.
    pub max_batch: usize,
    /// How often blocked reads wake up to check for shutdown.
    pub poll_interval: Duration,
    /// How long a connection waits for a shard worker's reply before
    /// answering `500`.  Work done on the connection thread (`GET`, `MGET`,
    /// a static-table `SCAN`) has no timeout.
    pub reply_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            scan_threads: 2,
            max_batch: 64,
            poll_interval: Duration::from_millis(25),
            reply_timeout: Duration::from_secs(30),
        }
    }
}

/// A running server.  Dropping it without calling [`Self::shutdown`] leaks
/// the listener thread for the process lifetime; call `shutdown` for a
/// clean stop.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
    shard_handles: Vec<JoinHandle<()>>,
    shard_txs: Vec<mpsc::Sender<ShardJob>>,
}

#[derive(Clone)]
struct ConnContext {
    txs: Vec<mpsc::Sender<ShardJob>>,
    /// Each shard's store, indexed by shard id: point lookups read it here.
    stores: Vec<Arc<Store>>,
    /// Each static table's row-group files, indexed by shard id: scans of a
    /// static table read them here.
    tables: Arc<HashMap<String, Vec<TableFile>>>,
    manifest: Arc<Manifest>,
    shutdown: Arc<AtomicBool>,
    config: ServerConfig,
}

impl Server {
    /// Start serving `set` according to `config`: one worker thread per
    /// shard, one accept thread, one thread per accepted connection.
    ///
    /// A static table that some shard lacks is `InvalidInput`: a scan must
    /// cover every shard's slice.
    pub fn start(mut set: ShardSet, config: ServerConfig) -> std::io::Result<Server> {
        let tables = Arc::new(take_static_tables(&mut set.shards)?);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let manifest = Arc::new(set.manifest);

        let stores: Vec<Arc<Store>> = set.shards.iter().map(|s| Arc::clone(&s.store)).collect();
        let mut shard_txs = Vec::with_capacity(set.shards.len());
        let mut shard_handles = Vec::with_capacity(set.shards.len());
        for data in set.shards {
            let (tx, rx) = mpsc::channel::<ShardJob>();
            let scan_threads = config.scan_threads;
            shard_handles.push(std::thread::spawn(move || {
                run_shard_worker(&data, rx, scan_threads);
            }));
            shard_txs.push(tx);
        }

        let conn_handles: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_handle = {
            let conn_handles = Arc::clone(&conn_handles);
            let template = ConnContext {
                txs: shard_txs.clone(),
                stores,
                tables,
                manifest,
                shutdown: Arc::clone(&shutdown),
                config,
            };
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if template.shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let ctx = template.clone();
                    let handle = std::thread::spawn(move || handle_connection(stream, ctx));
                    conn_handles.lock().expect("conn list lock").push(handle);
                }
            })
        };

        Ok(Server {
            local_addr,
            shutdown,
            accept_handle: Some(accept_handle),
            conn_handles,
            shard_handles,
            shard_txs,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, let in-flight batches finish, drain the shard
    /// workers, and join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Connections notice the flag at their next poll tick and exit.
        let handles = std::mem::take(&mut *self.conn_handles.lock().expect("conn list lock"));
        for handle in handles {
            let _ = handle.join();
        }
        // With every connection gone, dropping our senders starves the
        // shard workers' `recv` and they exit.
        self.shard_txs.clear();
        for handle in self.shard_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Move every shard's static table files out of `shards` into one map,
/// each table's files in shard order, so connection threads can scan them
/// and the shard workers keep only live tables and stores.
fn take_static_tables(
    shards: &mut [ShardData],
) -> std::io::Result<HashMap<String, Vec<TableFile>>> {
    let mut tables: HashMap<String, Vec<TableFile>> = HashMap::new();
    for shard in shards.iter_mut() {
        for (name, file) in std::mem::take(&mut shard.tables) {
            tables.entry(name).or_default().push(file);
        }
    }
    match tables.iter().find(|(_, files)| files.len() != shards.len()) {
        Some((name, _)) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("table {name:?} is not on every shard"),
        )),
        None => Ok(tables),
    }
}

/// RAII guard for the connection gauge.
struct ConnGauge;

impl ConnGauge {
    fn new() -> Self {
        leco_obs::counter!("srv.connections_total").inc();
        leco_obs::gauge!("srv.connections").add(1);
        ConnGauge
    }
}

impl Drop for ConnGauge {
    fn drop(&mut self) {
        leco_obs::gauge!("srv.connections").sub(1);
    }
}

fn handle_connection(stream: TcpStream, ctx: ConnContext) {
    let _gauge = ConnGauge::new();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.config.poll_interval));
    let mut stream = stream;
    let mut cursor = FrameCursor::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut out = Vec::new();

    'conn: loop {
        if ctx.shutdown.load(Ordering::Acquire) {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return, // clean EOF
            Ok(n) => cursor.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }

        // Drain complete frames into a batch and dispatch them all before
        // waiting on any reply: that is what turns a pipelining client into
        // parallel work across the shard workers.
        loop {
            out.clear();
            let mut batch: Vec<Pending> = Vec::new();
            loop {
                if batch.len() >= ctx.config.max_batch {
                    break;
                }
                match cursor.next_frame() {
                    Ok(Some(payload)) => batch.push(dispatch(&payload, &ctx)),
                    Ok(None) => break,
                    Err(FrameError::Oversized(len)) => {
                        // The stream cannot be resynchronised: answer every
                        // dispatched request, send the error, close.
                        for pending in batch {
                            write_reply(&mut out, pending.resolve(&ctx));
                        }
                        write_reply(
                            &mut out,
                            Reply::Json(error_response(
                                400,
                                &FrameError::Oversized(len).to_string(),
                            )),
                        );
                        let _ = stream.write_all(&out);
                        return;
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            for pending in batch {
                write_reply(&mut out, pending.resolve(&ctx));
            }
            if stream.write_all(&out).is_err() {
                break 'conn;
            }
        }
    }
}

/// A reply ready to be framed.
#[derive(Debug)]
enum Reply {
    /// Every reply but a successful `SCAN`: one JSON object.
    Json(Json),
    /// A successful `SCAN`: the shards' merged partial and their count,
    /// sent as one binary frame.
    Scan(Box<Partial>, usize),
}

impl From<Json> for Reply {
    fn from(json: Json) -> Self {
        Reply::Json(json)
    }
}

/// Append `reply` as one frame to `out`: the payload is written in place
/// and its length patched in afterwards.  A payload over [`MAX_FRAME`]
/// becomes a JSON `500` instead, because the client would have to drop the
/// connection on it.
fn write_reply(out: &mut Vec<u8>, reply: Reply) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let ok = match &reply {
        Reply::Json(json) => {
            out.extend_from_slice(json.render().as_bytes());
            response_code(json) == 200
        }
        Reply::Scan(partial, shards) => {
            encode_scan_reply(out, partial, *shards);
            true
        }
    };
    let len = out.len() - start - 4;
    if len > MAX_FRAME {
        out.truncate(start);
        let capped = error_response(500, "reply exceeds the frame cap");
        return write_reply(out, Reply::Json(capped));
    }
    out[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    if !ok {
        leco_obs::counter!("srv.errors").inc();
    }
}

/// A dispatched request: either answered on the connection thread or
/// waiting on shard workers.
enum Pending {
    Ready {
        reply: Reply,
        latency: &'static str,
        started: Stopwatch,
    },
    Waiting {
        rx: mpsc::Receiver<(usize, ShardReply)>,
        expect: usize,
        kind: WaitKind,
        latency: &'static str,
        started: Stopwatch,
    },
}

enum WaitKind {
    Scan,
    Write,
    Flush,
}

impl Pending {
    /// Wait for the outstanding shard replies (if any) and build the
    /// response, recording the per-command latency histogram.
    fn resolve(self, ctx: &ConnContext) -> Reply {
        match self {
            Pending::Ready {
                reply,
                latency,
                started,
            } => {
                leco_obs::histogram(latency).record(started.elapsed_ns());
                reply
            }
            Pending::Waiting {
                rx,
                expect,
                kind,
                latency,
                started,
            } => {
                let mut replies = Vec::with_capacity(expect);
                while replies.len() < expect {
                    match rx.recv_timeout(ctx.config.reply_timeout) {
                        Ok(reply) => replies.push(reply),
                        Err(_) => {
                            leco_obs::histogram(latency).record(started.elapsed_ns());
                            return Reply::Json(error_response(500, "shard reply timed out"));
                        }
                    }
                }
                let reply = assemble(kind, replies);
                leco_obs::histogram(latency).record(started.elapsed_ns());
                reply
            }
        }
    }
}

fn dispatch(payload: &[u8], ctx: &ConnContext) -> Pending {
    leco_obs::counter!("srv.requests").inc();
    let started = Stopwatch::start();
    let request = match parse_request(payload) {
        Ok(request) => request,
        Err(message) => {
            return Pending::Ready {
                reply: error_response(400, &message).into(),
                latency: "srv.latency.error_ns",
                started,
            }
        }
    };
    let shards = ctx.txs.len();
    match request {
        Request::Get { key } => {
            leco_obs::counter!("srv.cmd.get").inc();
            let shard = shard_for_key(&key, shards);
            let reply = match ctx.stores[shard].get(&key) {
                Ok(value) => ok_response(found_value(value)),
                Err(e) => error_response(500, &format!("shard {shard}: get failed: {e}")),
            };
            Pending::Ready {
                reply: reply.into(),
                latency: "srv.latency.get_ns",
                started,
            }
        }
        Request::MGet { keys } => {
            leco_obs::counter!("srv.cmd.mget").inc();
            let mut values = Vec::with_capacity(keys.len());
            // The reply names the lowest-numbered failing shard, and that
            // shard's first failing key in request order.
            let mut failure: Option<(usize, std::io::Error)> = None;
            for key in &keys {
                let shard = shard_for_key(key, shards);
                match ctx.stores[shard].get(key) {
                    Ok(value) => values.push(Json::Obj(found_value(value))),
                    Err(e) => {
                        if failure.as_ref().is_none_or(|&(first, _)| shard < first) {
                            failure = Some((shard, e));
                        }
                    }
                }
            }
            let reply = match failure {
                None => ok_response(vec![("values".into(), Json::Arr(values))]),
                Some((shard, e)) => {
                    error_response(500, &format!("shard {shard}: multi_get failed: {e}"))
                }
            };
            Pending::Ready {
                reply: reply.into(),
                latency: "srv.latency.mget_ns",
                started,
            }
        }
        Request::Put { table, row } => {
            leco_obs::counter!("srv.cmd.put").inc();
            let Some(&(_, key_col)) = ctx
                .manifest
                .live_tables
                .iter()
                .find(|(name, _)| *name == table)
            else {
                return Pending::Ready {
                    reply: error_response(400, &format!("unknown live table {table:?}")).into(),
                    latency: "srv.latency.put_ns",
                    started,
                };
            };
            if key_col >= row.len() {
                return Pending::Ready {
                    reply: error_response(
                        400,
                        &format!(
                            "PUT row has {} values but the key column is #{key_col}",
                            row.len()
                        ),
                    )
                    .into(),
                    latency: "srv.latency.put_ns",
                    started,
                };
            }
            let (reply_tx, rx) = mpsc::channel();
            let target = shard_for_key(&row[key_col].to_le_bytes(), shards);
            send_job(
                ctx,
                target,
                ShardJob {
                    cmd: ShardCmd::Put { table, row },
                    tag: target,
                    reply: reply_tx,
                },
            );
            Pending::Waiting {
                rx,
                expect: 1,
                kind: WaitKind::Write,
                latency: "srv.latency.put_ns",
                started,
            }
        }
        Request::Del { table, key } => {
            leco_obs::counter!("srv.cmd.del").inc();
            if !ctx
                .manifest
                .live_tables
                .iter()
                .any(|(name, _)| *name == table)
            {
                return Pending::Ready {
                    reply: error_response(400, &format!("unknown live table {table:?}")).into(),
                    latency: "srv.latency.del_ns",
                    started,
                };
            }
            let (reply_tx, rx) = mpsc::channel();
            let target = shard_for_key(&key.to_le_bytes(), shards);
            send_job(
                ctx,
                target,
                ShardJob {
                    cmd: ShardCmd::Del { table, key },
                    tag: target,
                    reply: reply_tx,
                },
            );
            Pending::Waiting {
                rx,
                expect: 1,
                kind: WaitKind::Write,
                latency: "srv.latency.del_ns",
                started,
            }
        }
        Request::Flush => {
            leco_obs::counter!("srv.cmd.flush").inc();
            let (reply_tx, rx) = mpsc::channel();
            for target in 0..shards {
                send_job(
                    ctx,
                    target,
                    ShardJob {
                        cmd: ShardCmd::Flush,
                        tag: target,
                        reply: reply_tx.clone(),
                    },
                );
            }
            Pending::Waiting {
                rx,
                expect: shards,
                kind: WaitKind::Flush,
                latency: "srv.latency.flush_ns",
                started,
            }
        }
        Request::Scan { table, spec } => {
            leco_obs::counter!("srv.cmd.scan").inc();
            let live = ctx
                .manifest
                .live_tables
                .iter()
                .any(|(name, _)| *name == table);
            if !live {
                // A static table is read-only, so no queued write can be
                // ahead of this scan: run each shard's file here, in order.
                let reply = match ctx.tables.get(&table) {
                    Some(files) => {
                        let replies = files
                            .iter()
                            .enumerate()
                            .map(|(k, file)| {
                                (k, scan_file(k, file, &spec, ctx.config.scan_threads))
                            })
                            .collect();
                        assemble(WaitKind::Scan, replies)
                    }
                    None => error_response(400, &format!("unknown table {table:?}")).into(),
                };
                return Pending::Ready {
                    reply,
                    latency: "srv.latency.scan_ns",
                    started,
                };
            }
            // A live table's scan queues behind the writes sent before it.
            let (reply_tx, rx) = mpsc::channel();
            for target in 0..shards {
                send_job(
                    ctx,
                    target,
                    ShardJob {
                        cmd: ShardCmd::Scan {
                            table: table.clone(),
                            spec: spec.clone(),
                        },
                        tag: target,
                        reply: reply_tx.clone(),
                    },
                );
            }
            Pending::Waiting {
                rx,
                expect: shards,
                kind: WaitKind::Scan,
                latency: "srv.latency.scan_ns",
                started,
            }
        }
        Request::Stats => {
            leco_obs::counter!("srv.cmd.stats").inc();
            Pending::Ready {
                reply: stats_response(ctx).into(),
                latency: "srv.latency.stats_ns",
                started,
            }
        }
    }
}

fn send_job(ctx: &ConnContext, target: usize, job: ShardJob) {
    leco_obs::gauge!("srv.shard.queue_depth").add(1);
    if ctx.txs[target].send(job).is_err() {
        // Worker gone (shutdown race): the reply channel was moved into the
        // failed send, so the waiter times out and answers 500.
        leco_obs::gauge!("srv.shard.queue_depth").sub(1);
    }
}

fn assemble(kind: WaitKind, mut replies: Vec<(usize, ShardReply)>) -> Reply {
    // Deterministic merge order regardless of shard completion order.
    replies.sort_by_key(|&(tag, _)| tag);
    // Any failure dominates: 400 before 500 so the client sees its own
    // mistake rather than a cascade.
    for (_, reply) in &replies {
        if let ShardReply::BadRequest(message) = reply {
            return Reply::Json(error_response(400, message));
        }
    }
    for (_, reply) in &replies {
        if let ShardReply::Error(message) = reply {
            return Reply::Json(error_response(500, message));
        }
    }
    let mismatched = || Reply::Json(error_response(500, "shard returned a mismatched reply"));
    match kind {
        WaitKind::Write => match replies.pop() {
            // The shard replies only after its WAL commit, so reaching here
            // means the write is on stable storage.
            Some((_, ShardReply::Acked)) => {
                Reply::Json(ok_response(vec![("durable".into(), Json::Bool(true))]))
            }
            _ => mismatched(),
        },
        WaitKind::Flush => {
            let mut rows_flushed = 0u64;
            let mut files_written = 0u64;
            for (_, reply) in replies {
                let ShardReply::Flushed {
                    rows_flushed: rows,
                    files_written: files,
                } = reply
                else {
                    return mismatched();
                };
                rows_flushed += rows;
                files_written += files;
            }
            Reply::Json(ok_response(vec![
                ("rows_flushed".into(), Json::Num(rows_flushed as f64)),
                ("files_written".into(), Json::Num(files_written as f64)),
            ]))
        }
        WaitKind::Scan => {
            let mut merged = Box::<Partial>::default();
            let n_shards = replies.len();
            for (_, reply) in replies {
                let ShardReply::Scan(partial) = reply else {
                    return mismatched();
                };
                merged.merge(*partial);
            }
            Reply::Scan(merged, n_shards)
        }
    }
}

/// The `found` / `value` fields of one point lookup's answer.
fn found_value(value: Option<Vec<u8>>) -> Vec<(String, Json)> {
    vec![
        ("found".into(), Json::Bool(value.is_some())),
        (
            "value".into(),
            value.map_or(Json::Null, |v| {
                Json::Str(String::from_utf8_lossy(&v).into_owned())
            }),
        ),
    ]
}

fn stats_response(ctx: &ConnContext) -> Json {
    let counter = |name: &'static str| Json::Num(leco_obs::counter(name).value() as f64);
    let gauge = |name: &'static str| Json::Num(leco_obs::gauge(name).value() as f64);
    ok_response(vec![
        ("shards".into(), Json::Num(ctx.txs.len() as f64)),
        (
            "tables".into(),
            Json::Arr(
                ctx.manifest
                    .tables
                    .iter()
                    .map(|(name, _)| Json::Str(name.clone()))
                    .collect(),
            ),
        ),
        (
            "live_tables".into(),
            Json::Arr(
                ctx.manifest
                    .live_tables
                    .iter()
                    .map(|(name, _)| Json::Str(name.clone()))
                    .collect(),
            ),
        ),
        (
            "kv_records".into(),
            Json::Num(ctx.manifest.kv_records.iter().sum::<u64>() as f64),
        ),
        (
            "metrics".into(),
            Json::Obj(vec![
                ("connections".into(), gauge("srv.connections")),
                ("connections_total".into(), counter("srv.connections_total")),
                ("requests".into(), counter("srv.requests")),
                ("errors".into(), counter("srv.errors")),
                ("cmd_get".into(), counter("srv.cmd.get")),
                ("cmd_mget".into(), counter("srv.cmd.mget")),
                ("cmd_scan".into(), counter("srv.cmd.scan")),
                ("cmd_put".into(), counter("srv.cmd.put")),
                ("cmd_del".into(), counter("srv.cmd.del")),
                ("cmd_flush".into(), counter("srv.cmd.flush")),
                ("cmd_stats".into(), counter("srv.cmd.stats")),
                ("shard_jobs".into(), counter("srv.shard.jobs")),
                ("shard_queue_depth".into(), gauge("srv.shard.queue_depth")),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture::ShardSetBuilder;
    use crate::protocol::decode_scan_reply;
    use leco_columnar::TableFileOptions;
    use leco_ingest::IngestConfig;
    use leco_scan::{ScanSpec, Scanner};

    /// A static `SCAN` is answered by `dispatch` itself, even though no shard
    /// worker drains the queues; a live one waits in every shard's queue.
    #[test]
    fn static_scans_answer_inline_and_live_scans_queue_for_the_workers() {
        let dir = std::env::temp_dir().join(format!("leco-server-inline-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let rows = 20_000u64;
        let ts: Vec<u64> = (0..rows).map(|i| 5 * i + i % 3).collect();
        let id: Vec<u64> = (0..rows).map(|i| i % 7).collect();
        let val: Vec<u64> = (0..rows).map(|i| (i * 31) % 1_000).collect();
        let mut set = ShardSetBuilder::new(&dir, 2)
            .table_options(TableFileOptions {
                row_group_size: 4096,
                ..Default::default()
            })
            .table("t", &["ts", "id", "val"], vec![ts, id, val])
            .live_table("l", &["k", "v"], IngestConfig::default())
            .build()
            .unwrap();
        // The receivers are held, never drained: no worker runs.
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..2).map(|_| mpsc::channel::<ShardJob>()).unzip();
        let ctx = ConnContext {
            txs,
            stores: set.shards.iter().map(|s| Arc::clone(&s.store)).collect(),
            tables: Arc::new(take_static_tables(&mut set.shards).unwrap()),
            manifest: Arc::new(set.manifest.clone()),
            shutdown: Arc::new(AtomicBool::new(false)),
            config: ServerConfig::default(),
        };

        for (request, spec) in [
            ("SCAN t", ScanSpec::count()),
            (
                "SCAN t FILTER ts 30000 60000 SUM val",
                ScanSpec::count().filter("ts", 30_000, 60_000).sum("val"),
            ),
            (
                "SCAN t GROUPBY id AGG avg val",
                ScanSpec::count().group_by_avg("id", "val"),
            ),
        ] {
            let Pending::Ready {
                reply: Reply::Scan(got, shards),
                ..
            } = dispatch(request.as_bytes(), &ctx)
            else {
                panic!("{request} was not answered inline");
            };
            let mut want = Partial::default();
            for k in 0..2 {
                let file = TableFile::open(dir.join(format!("t-s{k}.tbl"))).unwrap();
                let scan = Scanner::from_spec(&file, &spec).unwrap();
                want.merge(scan.run_partial(1).unwrap().0);
            }
            assert!(want.rows_selected > 0, "{request}");
            assert_eq!((*got, shards), (want, 2), "{request}");
        }
        for rx in &rxs {
            assert!(rx.try_recv().is_err(), "a static scan queued a job");
        }

        let Pending::Waiting { expect: 2, .. } = dispatch(b"SCAN l SUM v", &ctx) else {
            panic!("a live scan was answered without its shard workers");
        };
        for (k, rx) in rxs.iter().enumerate() {
            let job = rx
                .try_recv()
                .expect("the live scan is queued on every shard");
            assert_eq!(job.tag, k);
            assert!(matches!(&job.cmd, ShardCmd::Scan { table, .. } if table == "l"));
            assert!(rx.try_recv().is_err(), "one job per shard");
        }
        drop((ctx, set));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_static_table_missing_from_a_shard_is_refused() {
        let dir = std::env::temp_dir().join(format!("leco-server-partial-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut set = ShardSetBuilder::new(&dir, 2)
            .table("t", &["a"], vec![(0..10).collect()])
            .build()
            .unwrap();
        set.shards[1].tables.clear();
        let err = Server::start(set, ServerConfig::default())
            .err()
            .expect("a table on one shard of two is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), r#"table "t" is not on every shard"#);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn frames(wire: &[u8]) -> Vec<Vec<u8>> {
        let mut cursor = FrameCursor::new();
        cursor.push(wire);
        let mut out = Vec::new();
        while let Some(frame) = cursor.next_frame().unwrap() {
            out.push(frame);
        }
        assert_eq!(cursor.pending_bytes(), 0);
        out
    }

    fn capped_error() -> String {
        error_response(500, "reply exceeds the frame cap").render()
    }

    #[test]
    fn replies_over_the_frame_cap_become_a_json_500() {
        let mut huge = Partial::default();
        for id in 0..40_000u64 {
            huge.groups.push((id, u128::MAX, u64::MAX));
        }
        let mut small = Partial {
            rows_selected: 3,
            ..Partial::default()
        };
        small.groups.push((9, 10, 4));
        let mut out = Vec::new();
        write_reply(&mut out, Reply::Json(ok_response(vec![])));
        write_reply(
            &mut out,
            Reply::Json(ok_response(vec![(
                "value".into(),
                Json::Str("x".repeat(MAX_FRAME)),
            )])),
        );
        write_reply(&mut out, Reply::Scan(Box::new(huge), 2));
        write_reply(&mut out, Reply::Scan(Box::new(small.clone()), 1));
        let got = frames(&out);
        assert_eq!(got.len(), 4);
        assert_eq!(got[0], ok_response(vec![]).render().as_bytes());
        assert_eq!(got[1], capped_error().as_bytes());
        assert_eq!(got[2], capped_error().as_bytes());
        let mut want = Vec::new();
        encode_scan_reply(&mut want, &small, 1);
        assert_eq!(got[3], want);
        let scan = decode_scan_reply(&got[3]).unwrap();
        assert_eq!(scan.get("groups").unwrap().render(), "[[9,2.5]]");
    }

    #[test]
    fn a_reply_exactly_at_the_frame_cap_is_sent() {
        let empty = ok_response(vec![("value".into(), Json::Str(String::new()))]);
        let pad = MAX_FRAME - empty.render().len();
        let full = ok_response(vec![("value".into(), Json::Str("y".repeat(pad)))]);
        let mut out = Vec::new();
        write_reply(&mut out, Reply::Json(full.clone()));
        let got = frames(&out);
        assert_eq!(got[0].len(), MAX_FRAME);
        assert_eq!(got[0], full.render().as_bytes());
    }
}
