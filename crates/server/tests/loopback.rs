//! Loopback integration tests: a real [`Server`] on an OS-assigned port,
//! real [`Client`] connections, and the full frame → parse → shard →
//! merge → reply path.
//!
//! The heavyweight check is [`scan_over_tcp_bit_identical_across_shard_counts`]:
//! the same queries answered by a 1-, 2- and 4-shard server and by an
//! in-process [`leco_scan::Scanner`] over the unsharded table must agree
//! on every result bit, including the f64 group averages.

use leco_bench::report::Json;
use leco_columnar::{Encoding, TableFile, TableFileOptions};
use leco_ingest::IngestConfig;
use leco_scan::Scanner;
use leco_server::protocol::response_code;
use leco_server::{shard_for_key, Client, Server, ServerConfig, ShardSetBuilder};
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("leco-loopback-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    p
}

fn table_options() -> TableFileOptions {
    TableFileOptions {
        encoding: Encoding::Leco,
        row_group_size: 4096,
        ..Default::default()
    }
}

/// `rows`-row test table: a sorted-ish `ts`, a small-cardinality `id`, and
/// a correlated `val` — enough structure for LeCo encoding and group-by.
fn test_columns(rows: u64) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let ts: Vec<u64> = (0..rows).map(|i| 1_000 + i * 3 + (i * i) % 7).collect();
    let id: Vec<u64> = (0..rows).map(|i| (i * 2_654_435_761) % 13).collect();
    let val: Vec<u64> = (0..rows).map(|i| 500 + (i * 37) % 10_000).collect();
    (ts, id, val)
}

fn test_records(n: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..n)
        .map(|i| {
            (
                format!("key{i:06}").into_bytes(),
                format!("value-{i}").into_bytes(),
            )
        })
        .collect()
}

fn start_server(dir: &PathBuf, shards: usize, rows: u64, records: usize) -> Server {
    let (ts, id, val) = test_columns(rows);
    let set = ShardSetBuilder::new(dir, shards)
        .table_options(table_options())
        .table("sensors", &["ts", "id", "val"], vec![ts, id, val])
        .records(test_records(records))
        .build()
        .expect("fixture builds");
    Server::start(set, ServerConfig::default()).expect("server starts")
}

fn get_value(reply: &Json) -> Option<String> {
    assert_eq!(response_code(reply), 200, "GET failed: {}", reply.render());
    if reply.get("found") == Some(&Json::Bool(true)) {
        reply
            .get("value")
            .and_then(Json::as_str)
            .map(str::to_string)
    } else {
        None
    }
}

#[test]
fn pipelined_requests_answer_in_order_on_one_connection() {
    let dir = tmp_dir("pipeline");
    let server = start_server(&dir, 2, 5_000, 500);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Queue a burst of requests — more than one batch — before reading
    // anything.  Replies must come back in request order even though the
    // keys route to different shards.
    let n = 200usize;
    for i in 0..n {
        match i % 3 {
            0 => client.send(&format!("GET key{:06}", i % 500)).unwrap(),
            1 => client.send(&format!("GET nosuchkey{i}")).unwrap(),
            _ => client
                .send(&format!("MGET key{:06} key{:06}", i % 500, (i + 1) % 500))
                .unwrap(),
        }
    }
    for i in 0..n {
        let reply = client.recv().unwrap();
        match i % 3 {
            0 => assert_eq!(
                get_value(&reply).as_deref(),
                Some(format!("value-{}", i % 500).as_str()),
                "request {i}"
            ),
            1 => assert_eq!(get_value(&reply), None, "request {i}"),
            _ => {
                assert_eq!(response_code(&reply), 200, "request {i}");
                let values = reply.get("values").and_then(Json::as_arr).unwrap();
                assert_eq!(values.len(), 2);
                assert_eq!(
                    values[0].get("value").and_then(Json::as_str),
                    Some(format!("value-{}", i % 500).as_str()),
                    "request {i}"
                );
            }
        }
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_connections_hit_different_shards() {
    let dir = tmp_dir("concurrent");
    let shards = 4;
    let server = start_server(&dir, shards, 20_000, 2_000);
    let addr = server.local_addr();

    // Each worker thread pins its GETs to one shard's keys, so all four
    // shards serve point lookups while the scans fan out over everything.
    std::thread::scope(|scope| {
        for worker in 0..8usize {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let my_shard = worker % shards;
                let my_keys: Vec<usize> = (0..2_000)
                    .filter(|i| shard_for_key(format!("key{i:06}").as_bytes(), shards) == my_shard)
                    .collect();
                assert!(!my_keys.is_empty(), "shard {my_shard} owns no keys");
                for (j, &i) in my_keys.iter().enumerate().take(100) {
                    let reply = client.request(&format!("GET key{i:06}")).unwrap();
                    assert_eq!(
                        get_value(&reply).as_deref(),
                        Some(format!("value-{i}").as_str())
                    );
                    if j % 25 == 0 {
                        let scan = client.request("SCAN sensors FILTER ts 1000 20000").unwrap();
                        assert_eq!(response_code(&scan), 200);
                        assert_eq!(scan.get("shards").and_then(Json::as_f64), Some(4.0));
                    }
                }
            });
        }
    });
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_requests_get_errors_and_the_connection_survives() {
    let dir = tmp_dir("malformed");
    let server = start_server(&dir, 2, 5_000, 100);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Every malformed payload answers 400 — and the connection keeps
    // working afterwards.
    for bad in [
        &b""[..],                                  // empty frame
        b"FROBNICATE now",                         // unknown command
        b"GET",                                    // missing key
        b"MGET",                                   // no keys
        b"SCAN",                                   // no table
        b"SCAN sensors FILTER ts 9 x",             // non-numeric bound
        b"SCAN sensors GROUPBY id AGG median val", // unsupported aggregate
        b"\xff\xfe\x00garbage",                    // invalid UTF-8
    ] {
        client.send_payload(bad).unwrap();
        let reply = client.recv().unwrap();
        assert_eq!(response_code(&reply), 400, "payload {bad:?}");
    }
    // Well-formed frame, bad semantics: unknown table is 400 from the
    // manifest check; unknown column is 400 from the shard.
    for bad in ["SCAN nosuchtable", "SCAN sensors FILTER nosuchcol 1 2"] {
        let reply = client.request(bad).unwrap();
        assert_eq!(response_code(&reply), 400, "{bad}");
    }
    // The same connection still answers real requests.
    let reply = client.request("GET key000042").unwrap();
    assert_eq!(get_value(&reply).as_deref(), Some("value-42"));

    // A corrupt frame *length* is the one unrecoverable case: the server
    // answers 400 and closes, because the stream cannot be resynchronised.
    let mut corrupt = Client::connect(server.local_addr()).unwrap();
    corrupt.send_raw(&(u32::MAX).to_le_bytes()).unwrap();
    let reply = corrupt.recv().unwrap();
    assert_eq!(response_code(&reply), 400);
    assert!(corrupt.recv().is_err(), "connection should be closed");

    // ... and the first connection is still unaffected.
    let reply = client.request("GET key000007").unwrap();
    assert_eq!(get_value(&reply).as_deref(), Some("value-7"));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_length_after_answered_requests_sends_only_the_error() {
    let dir = tmp_dir("corrupt_after_replies");
    let server = start_server(&dir, 2, 5_000, 100);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.request("GET key000042").unwrap();
    assert_eq!(get_value(&reply).as_deref(), Some("value-42"));
    let reply = client.request("SCAN sensors SUM val").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());
    // The replies already written must not be sent again ahead of the
    // error that closes the connection.
    client.send_raw(&(u32::MAX).to_le_bytes()).unwrap();
    let reply = client.recv().unwrap();
    assert_eq!(response_code(&reply), 400, "{}", reply.render());
    assert!(client.recv().is_err(), "connection should be closed");
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn scan_over_tcp_bit_identical_across_shard_counts() {
    let rows = 30_000u64;
    let (ts, id, val) = test_columns(rows);

    // Ground truth: one unsharded table file scanned in-process.
    let truth_dir = tmp_dir("scan-truth");
    std::fs::create_dir_all(&truth_dir).unwrap();
    let truth_file = TableFile::write(
        truth_dir.join("sensors.tbl"),
        &["ts", "id", "val"],
        &[ts.clone(), id.clone(), val.clone()],
        table_options(),
    )
    .unwrap();

    // (filter, aggregate) matrix: count, sum and group-by-avg, filtered
    // and unfiltered, including an empty-result window.
    let filters: [Option<(u64, u64)>; 3] = [None, Some((20_000, 55_000)), Some((2, 7))];
    for shards in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("scan-{shards}"));
        let set = ShardSetBuilder::new(&dir, shards)
            .table_options(table_options())
            .table(
                "sensors",
                &["ts", "id", "val"],
                vec![ts.clone(), id.clone(), val.clone()],
            )
            .records(test_records(10))
            .build()
            .unwrap();
        let server = Server::start(set, ServerConfig::default()).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();

        for filter in filters {
            let clause = filter
                .map(|(lo, hi)| format!(" FILTER ts {lo} {hi}"))
                .unwrap_or_default();

            // COUNT: selected-row cardinality must match exactly.
            let expect = || {
                let scan = Scanner::new(&truth_file);
                match filter {
                    Some((lo, hi)) => scan.filter("ts", lo, hi),
                    None => scan,
                }
            };
            let truth = expect().run(2).unwrap();
            let reply = client.request(&format!("SCAN sensors{clause}")).unwrap();
            assert_eq!(response_code(&reply), 200, "{}", reply.render());
            assert_eq!(
                reply.get("rows_selected").and_then(Json::as_f64),
                Some(truth.rows_selected as f64),
                "count, {shards} shard(s), filter {filter:?}"
            );

            // SUM: the u128 travels as a decimal string, compared textually.
            let truth = expect().sum("val").run(2).unwrap();
            let reply = client
                .request(&format!("SCAN sensors{clause} SUM val"))
                .unwrap();
            assert_eq!(
                reply.get("sum").and_then(Json::as_str),
                Some(truth.sum.to_string().as_str()),
                "sum, {shards} shard(s), filter {filter:?}"
            );

            // GROUP BY … AVG: every f64 average must be bit-identical to
            // the single-scan result after its JSON round-trip.
            let truth = expect().group_by_avg("id", "val").run(2).unwrap();
            let reply = client
                .request(&format!("SCAN sensors{clause} GROUPBY id AGG avg val"))
                .unwrap();
            let groups = reply.get("groups").and_then(Json::as_arr).unwrap();
            assert_eq!(
                groups.len(),
                truth.groups.len(),
                "groups, {shards} shard(s), filter {filter:?}"
            );
            for (got, &(want_id, want_avg)) in groups.iter().zip(&truth.groups) {
                let pair = got.as_arr().unwrap();
                assert_eq!(pair[0].as_f64(), Some(want_id as f64));
                let got_avg = pair[1].as_f64().unwrap();
                assert_eq!(
                    got_avg.to_bits(),
                    want_avg.to_bits(),
                    "group {want_id}: sharded avg {got_avg} != in-process {want_avg}, \
                     {shards} shard(s), filter {filter:?}"
                );
            }
        }
        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_dir_all(&truth_dir).ok();
}

#[test]
fn a_truncated_shard_file_answers_500_naming_the_shard_and_the_connection_survives() {
    let dir = tmp_dir("truncated");
    let server = start_server(&dir, 2, 20_000, 100);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.request("SCAN sensors SUM val").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());

    // Every chunk read of shard 1 now runs past the end of its file.
    std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join("sensors-s1.tbl"))
        .unwrap()
        .set_len(0)
        .unwrap();
    for request in [
        "SCAN sensors SUM val",
        "SCAN sensors GROUPBY id AGG avg val",
    ] {
        let reply = client.request(request).unwrap();
        assert_eq!(response_code(&reply), 500, "{request}: {}", reply.render());
        assert_eq!(
            reply.get("error").and_then(Json::as_str),
            Some("shard 1: scan failed: scan I/O error: failed to fill whole buffer"),
            "{request}"
        );
    }
    // A filter that only shard 0's zone maps admit reads nothing of shard 1.
    let reply = client.request("SCAN sensors FILTER ts 0 2000").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());

    let reply = client.request("GET key000042").unwrap();
    assert_eq!(get_value(&reply).as_deref(), Some("value-42"));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Write path: PUT / DEL / FLUSH against live tables.
// ---------------------------------------------------------------------------

/// Ingest tuning for the tests: tiny segments so a few hundred PUTs cross
/// several freeze boundaries, no background compactor so FLUSH timing is
/// deterministic and recovery really exercises the WAL.
fn live_config() -> IngestConfig {
    IngestConfig {
        segment_rows: 32,
        compact_min_segments: 2,
        row_group_size: 64,
        auto_compact: false,
        key_col: 0,
    }
}

fn start_live_server(dir: &PathBuf, shards: usize) -> Server {
    let (ts, id, val) = test_columns(64);
    let set = ShardSetBuilder::new(dir, shards)
        .table_options(table_options())
        .table("sensors", &["ts", "id", "val"], vec![ts, id, val])
        .live_table("events", &["key", "id", "val"], live_config())
        .records(test_records(10))
        .build()
        .expect("fixture builds");
    Server::start(set, ServerConfig::default()).expect("server starts")
}

fn live_row(i: u64) -> (u64, u64, u64) {
    (i, i % 5, 100 + i * 7)
}

/// The three probes every live-table check runs, as protocol strings.
const LIVE_PROBES: [&str; 4] = [
    "SCAN events",
    "SCAN events FILTER key 20 90 SUM val",
    "SCAN events SUM val",
    "SCAN events GROUPBY id AGG avg val",
];

/// Snapshot the probe replies as rendered JSON (minus the morsel counter,
/// which legitimately differs between memtable and file scans).
fn probe_replies(client: &mut Client) -> Vec<String> {
    LIVE_PROBES
        .iter()
        .map(|probe| {
            let reply = client.request(probe).unwrap();
            assert_eq!(response_code(&reply), 200, "{probe}: {}", reply.render());
            let mut obj: Vec<(String, Json)> = ["rows_selected", "sum", "groups"]
                .iter()
                .map(|k| (k.to_string(), reply.get(k).cloned().unwrap()))
                .collect();
            obj.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Obj(obj).render()
        })
        .collect()
}

#[test]
fn put_is_visible_before_and_after_flush_at_every_shard_count() {
    let n = 150u64;
    let mut baseline: Option<(Vec<String>, Vec<String>)> = None;
    for shards in [1usize, 2, 4] {
        let dir = tmp_dir(&format!("put-vis-{shards}"));
        let server = start_live_server(&dir, shards);
        let mut client = Client::connect(server.local_addr()).unwrap();

        for i in 0..n {
            let (key, id, val) = live_row(i);
            let reply = client
                .request(&format!("PUT events {key} {id} {val}"))
                .unwrap();
            assert_eq!(response_code(&reply), 200, "{}", reply.render());
            assert_eq!(reply.get("durable"), Some(&Json::Bool(true)));
        }

        // Unflushed rows are served straight from the memtables.
        let before = probe_replies(&mut client);
        let count = client.request("SCAN events").unwrap();
        assert_eq!(
            count.get("rows_selected").and_then(Json::as_f64),
            Some(n as f64),
            "{shards} shard(s): every PUT visible before FLUSH"
        );

        // FLUSH moves every row into immutable table files...
        let reply = client.request("FLUSH").unwrap();
        assert_eq!(response_code(&reply), 200, "{}", reply.render());
        assert_eq!(
            reply.get("rows_flushed").and_then(Json::as_f64),
            Some(n as f64),
            "{shards} shard(s): FLUSH reports the flushed rows"
        );

        // ... without changing a single answer bit.
        let after = probe_replies(&mut client);
        assert_eq!(
            before, after,
            "{shards} shard(s): FLUSH changed scan results"
        );

        // And every shard count answers identically (the JSON includes the
        // f64 group averages, so this is a bit-level comparison).
        match &baseline {
            None => baseline = Some((before, after)),
            Some((b_before, b_after)) => {
                assert_eq!(&before, b_before, "{shards} shard(s) vs 1 shard, pre-FLUSH");
                assert_eq!(&after, b_after, "{shards} shard(s) vs 1 shard, post-FLUSH");
            }
        }

        server.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// One pipelined burst mixing the lookup route (`GET`/`MGET`, answered on
/// the connection thread) with the shard-worker route (`SCAN`/`PUT`) and a
/// malformed line: replies come back in request order, each with the right
/// contents, and a `SCAN` sent after a `PUT` in the same burst sees it.
#[test]
fn mixed_pipelined_burst_answers_in_request_order() {
    let dir = tmp_dir("mixed-burst");
    let shards = 2;
    let server = start_live_server(&dir, shards);
    let mut client = Client::connect(server.local_addr()).unwrap();

    // Present keys on both shards, so the MGET spans them.
    let on_shard = |s: usize| {
        (0..10)
            .find(|&i| shard_for_key(format!("key{i:06}").as_bytes(), shards) == s)
            .expect("every shard owns a key")
    };
    let (a, b) = (on_shard(0), on_shard(1));
    let burst = [
        format!("GET key{a:06}"),
        "GET key999999".to_string(),
        format!("MGET key{b:06} nosuchkey key{a:06} key000010"),
        "SCAN sensors".to_string(),
        "FROBNICATE now".to_string(),
        "PUT events 7 2 700".to_string(),
        "SCAN events SUM val".to_string(),
        format!("GET key{b:06}"),
    ];
    for command in &burst {
        client.send(command).unwrap();
    }
    let replies: Vec<Json> = burst.iter().map(|_| client.recv().unwrap()).collect();

    assert_eq!(get_value(&replies[0]), Some(format!("value-{a}")));
    assert_eq!(get_value(&replies[1]), None);
    let values = replies[2].get("values").and_then(Json::as_arr).unwrap();
    let found: Vec<Option<&str>> = values
        .iter()
        .map(|v| v.get("value").and_then(Json::as_str))
        .collect();
    let (want_a, want_b) = (format!("value-{a}"), format!("value-{b}"));
    assert_eq!(
        found,
        [Some(want_b.as_str()), None, Some(want_a.as_str()), None]
    );
    assert_eq!(
        replies[3].get("rows_selected").and_then(Json::as_f64),
        Some(64.0)
    );
    assert_eq!(response_code(&replies[4]), 400);
    assert_eq!(replies[5].get("durable"), Some(&Json::Bool(true)));
    assert_eq!(replies[6].get("sum").and_then(Json::as_str), Some("700"));
    assert_eq!(get_value(&replies[7]), Some(want_b));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_recovers_every_acknowledged_put_and_del() {
    let dir = tmp_dir("restart");
    let n = 120u64;
    let expected_sum: u128 = (0..n)
        .filter(|&i| i % 11 != 3)
        .map(|i| live_row(i).2 as u128)
        .sum();
    let expected_rows: u64 = (0..n).filter(|&i| i % 11 != 3).count() as u64;

    // Session 1: acknowledge writes, never FLUSH, then tear the server down
    // — with auto-compaction off, everything acknowledged lives only in the
    // WALs, so recovery below is real replay, not file reopening.
    {
        let server = start_live_server(&dir, 3);
        let mut client = Client::connect(server.local_addr()).unwrap();
        for i in 0..n {
            let (key, id, val) = live_row(i);
            let reply = client
                .request(&format!("PUT events {key} {id} {val}"))
                .unwrap();
            assert_eq!(response_code(&reply), 200);
        }
        // Delete a stripe of keys; the acks make these durable too.
        for i in (0..n).filter(|&i| i % 11 == 3) {
            let reply = client.request(&format!("DEL events {i}")).unwrap();
            assert_eq!(response_code(&reply), 200);
            assert_eq!(reply.get("durable"), Some(&Json::Bool(true)));
        }
        server.shutdown();
    }

    // Session 2: rebuild over the same directory. Every acknowledged PUT
    // minus every acknowledged DEL must be back, exactly.
    let server = start_live_server(&dir, 3);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.request("SCAN events SUM val").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());
    assert_eq!(
        reply.get("rows_selected").and_then(Json::as_f64),
        Some(expected_rows as f64),
        "acknowledged rows after restart"
    );
    assert_eq!(
        reply.get("sum").and_then(Json::as_str),
        Some(expected_sum.to_string().as_str()),
        "acknowledged bytes after restart"
    );

    // The recovered table keeps working: new writes land on top.
    let reply = client.request("PUT events 9999 1 77").unwrap();
    assert_eq!(response_code(&reply), 200);
    let reply = client.request("SCAN events FILTER key 9999 9999").unwrap();
    assert_eq!(reply.get("rows_selected").and_then(Json::as_f64), Some(1.0));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_writes_get_400_and_the_connection_survives() {
    let dir = tmp_dir("bad-writes");
    let server = start_live_server(&dir, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();

    for bad in [
        "PUT",                   // no table
        "PUT events",            // no values
        "PUT events 1 x 3",      // non-numeric value
        "PUT events -1 2 3",     // negative value
        "PUT nosuchtable 1 2 3", // unknown live table (manifest check)
        "PUT sensors 1 2 3",     // static tables don't take writes
        "PUT events 1 2",        // arity mismatch (shard-side check)
        "PUT events 1 2 3 4",    // arity mismatch the other way
        "DEL events",            // no key
        "DEL events x",          // non-numeric key
        "DEL nosuchtable 5",     // unknown live table
        "FLUSH please",          // FLUSH takes no arguments
    ] {
        let reply = client.request(bad).unwrap();
        assert_eq!(response_code(&reply), 400, "{bad}: {}", reply.render());
    }

    // No phantom rows appeared, and the same connection still ingests.
    let reply = client.request("SCAN events").unwrap();
    assert_eq!(reply.get("rows_selected").and_then(Json::as_f64), Some(0.0));
    let reply = client.request("PUT events 5 1 500").unwrap();
    assert_eq!(response_code(&reply), 200);
    let reply = client.request("SCAN events SUM val").unwrap();
    assert_eq!(reply.get("rows_selected").and_then(Json::as_f64), Some(1.0));
    assert_eq!(reply.get("sum").and_then(Json::as_str), Some("500"));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Row groups across every shard's compacted files of the live `events`
/// table.
fn live_row_groups(dir: &std::path::Path, shards: usize) -> usize {
    (0..shards)
        .flat_map(|k| std::fs::read_dir(dir.join(format!("live-events-s{k}"))).unwrap())
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "tbl"))
        .map(|path| TableFile::open(&path).unwrap().num_row_groups())
        .sum()
}

#[test]
fn live_scan_counts_surviving_row_groups_as_morsels() {
    let shards = 2;
    let dir = tmp_dir("live-morsels");
    let server = start_live_server(&dir, shards);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let n = 300u64;
    for i in 0..n {
        let (key, id, val) = live_row(i);
        let reply = client
            .request(&format!("PUT events {key} {id} {val}"))
            .unwrap();
        assert_eq!(response_code(&reply), 200, "{}", reply.render());
    }
    let morsels = |client: &mut Client, request: &str| {
        let reply = client.request(request).unwrap();
        assert_eq!(response_code(&reply), 200, "{}", reply.render());
        assert_eq!(
            reply.get("rows_scanned").and_then(Json::as_f64),
            Some(n as f64),
            "{request}: a live table scans every live row"
        );
        reply.get("morsels").and_then(Json::as_f64).unwrap()
    };

    // Memtable and frozen rows are not morsels.
    assert_eq!(morsels(&mut client, "SCAN events"), 0.0);

    let reply = client.request("FLUSH").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());
    let row_groups = live_row_groups(&dir, shards);
    assert!(row_groups >= 1);
    assert_eq!(morsels(&mut client, "SCAN events"), row_groups as f64);
    assert_eq!(
        morsels(&mut client, "SCAN events FILTER key 1000000 2000000"),
        0.0,
        "a filter every zone map misses runs no morsel"
    );

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_column_answers_the_same_400_on_static_and_live_tables() {
    let dir = tmp_dir("unknown-column");
    let server = start_live_server(&dir, 2);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let reply = client.request("PUT events 1 2 3").unwrap();
    assert_eq!(response_code(&reply), 200, "{}", reply.render());

    for clause in [
        "FILTER nosuch 1 2",
        "SUM nosuch",
        "GROUPBY nosuch AGG avg val",
        "GROUPBY id AGG avg nosuch",
    ] {
        let replies: Vec<Json> = ["sensors", "events"]
            .iter()
            .map(|table| client.request(&format!("SCAN {table} {clause}")).unwrap())
            .collect();
        assert_eq!(response_code(&replies[0]), 400, "{clause}");
        assert_eq!(
            replies[0].get("error").and_then(Json::as_str),
            Some(r#"column not found: "nosuch""#),
            "{clause}"
        );
        assert_eq!(
            replies[0].render(),
            replies[1].render(),
            "{clause}: static and live tables disagree"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
