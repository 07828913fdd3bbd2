//! Which thread runs a `SCAN`, observed through `STATS`: a static table's
//! scan runs on the connection thread and never reaches a shard worker, a
//! live table's scan queues one job on every shard.
//!
//! `srv.shard.jobs` is a process-wide counter, so this file holds only this
//! test: no other test in its process sends a job to a shard worker.

use leco_bench::report::Json;
use leco_columnar::{Encoding, TableFileOptions};
use leco_ingest::IngestConfig;
use leco_server::protocol::response_code;
use leco_server::{Client, Server, ServerConfig, ShardSetBuilder};

fn shard_jobs(client: &mut Client) -> f64 {
    let stats = client.request("STATS").unwrap();
    assert_eq!(response_code(&stats), 200, "{}", stats.render());
    stats
        .get("metrics")
        .and_then(|m| m.get("shard_jobs"))
        .and_then(Json::as_f64)
        .expect("STATS reports shard_jobs")
}

#[test]
fn static_scans_skip_the_shard_queues_and_live_scans_use_them() {
    leco_obs::set_enabled(true);
    let dir = std::env::temp_dir().join(format!("leco-scan-routing-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let shards = 3;
    let rows = 9_000u64;
    let ts: Vec<u64> = (0..rows).map(|i| 10 * i).collect();
    let val: Vec<u64> = (0..rows).map(|i| i % 100).collect();
    let set = ShardSetBuilder::new(&dir, shards)
        .table_options(TableFileOptions {
            encoding: Encoding::Leco,
            row_group_size: 1024,
            ..Default::default()
        })
        .table("sensors", &["ts", "val"], vec![ts, val])
        .live_table(
            "events",
            &["key", "val"],
            IngestConfig {
                auto_compact: false,
                ..Default::default()
            },
        )
        .build()
        .unwrap();
    let server = Server::start(set, ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let before = shard_jobs(&mut client);
    for i in 0..20u64 {
        let request = match i % 3 {
            0 => "SCAN sensors".to_string(),
            1 => format!(
                "SCAN sensors FILTER ts {} {} SUM val",
                100 * i,
                40_000 + 100 * i
            ),
            _ => "SCAN sensors SUM nosuch".to_string(),
        };
        let reply = client.request(&request).unwrap();
        let want = if i % 3 == 2 { 400 } else { 200 };
        assert_eq!(response_code(&reply), want, "{request}: {}", reply.render());
    }
    assert_eq!(
        shard_jobs(&mut client),
        before,
        "a static SCAN reached a shard worker"
    );

    for round in 1..=4u64 {
        let reply = client.request("SCAN events SUM val").unwrap();
        assert_eq!(response_code(&reply), 200, "{}", reply.render());
        assert_eq!(
            shard_jobs(&mut client),
            before + (round * shards as u64) as f64,
            "live SCAN #{round} runs one job per shard"
        );
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
