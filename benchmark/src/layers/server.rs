//! `leco-server` boundary: fixture building, the live server, the blocking
//! client, and the two protocol probes.
//!
//! Pinned API: `ShardSetBuilder::{new, table_options, store_options, table,
//! live_table, records, build}`, `Server::{start, local_addr, shutdown}`,
//! `ServerConfig`, `Client::{connect, send, recv, request}`, `shard_for_key`,
//! `protocol::{parse_request, frame_into, FrameCursor, response_code}`.
//! Reply values are `leco_bench::report::Json`; this file reads them only
//! through their methods and never names the type (ROADMAP item 3 moves it).

use leco_server::protocol::{frame_into, parse_request, response_code, FrameCursor};
use leco_server::Server;
pub use leco_server::{shard_for_key, Client, ShardSet, ShardSetBuilder};
use std::net::SocketAddr;
use std::time::Instant;

/// Sized for `nproc` = 2: two shard workers, one scan thread each.
pub const SHARDS: usize = 2;
pub const CONNECTIONS: usize = 2;

/// A started server; dropping it shuts it down and joins every thread, so a
/// fixture that is dropped never leaves shard data or threads behind.
pub struct Running(Option<Server>);

pub fn start(set: ShardSet) -> std::io::Result<Running> {
    let config = leco_server::ServerConfig {
        scan_threads: 1,
        ..Default::default()
    };
    Server::start(set, config).map(|server| Running(Some(server)))
}

impl Running {
    pub fn addr(&self) -> SocketAddr {
        self.0.as_ref().expect("running until dropped").local_addr()
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// The fields of a reply the oracles compare, copied out of the JSON.
#[derive(Debug, Default)]
pub struct Reply {
    pub code: u16,
    /// `GET`: the value, `None` when not found.
    pub value: Option<String>,
    /// `MGET`: one entry per key, in request order.
    pub values: Vec<Option<String>>,
    /// `SCAN`.
    pub rows_selected: u64,
    pub sum: u128,
    pub groups: Vec<(u64, f64)>,
}

pub fn recv(client: &mut Client) -> std::io::Result<Reply> {
    let json = client.recv()?;
    Ok(Reply {
        code: response_code(&json),
        value: json
            .get("value")
            .and_then(|v| v.as_str())
            .map(str::to_string),
        values: json
            .get("values")
            .and_then(|v| v.as_arr())
            .map_or_else(Vec::new, |items| {
                items
                    .iter()
                    .map(|item| {
                        item.get("value")
                            .and_then(|v| v.as_str())
                            .map(str::to_string)
                    })
                    .collect()
            }),
        rows_selected: json
            .get("rows_selected")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0) as u64,
        sum: json
            .get("sum")
            .and_then(|v| v.as_str())
            .and_then(|s| s.parse().ok())
            .unwrap_or(0),
        groups: json
            .get("groups")
            .and_then(|v| v.as_arr())
            .map_or_else(Vec::new, |items| {
                items
                    .iter()
                    .filter_map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((pair.first()?.as_f64()? as u64, pair.get(1)?.as_f64()?))
                    })
                    .collect()
            }),
    })
}

pub fn request(client: &mut Client, command: &str) -> std::io::Result<Reply> {
    client.send(command)?;
    recv(client)
}

/// Rendered size of the reply to `command` (ladder sample ops only).
pub fn reply_bytes(client: &mut Client, command: &str) -> std::io::Result<usize> {
    Ok(client.request(command)?.render().len())
}

/// ns per `parse_request` over `commands`.
pub fn probe_parse_ns(commands: &[String]) -> f64 {
    let reps = (200_000 / commands.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..reps {
        for cmd in commands {
            std::hint::black_box(parse_request(std::hint::black_box(cmd.as_bytes())).is_ok());
        }
    }
    start.elapsed().as_nanos() as f64 / (reps * commands.len()) as f64
}

/// ns per command to frame it and to pull it back out of a `FrameCursor`.
pub fn probe_frame_ns(commands: &[String]) -> f64 {
    let reps = (200_000 / commands.len().max(1)).max(1);
    let mut wire = Vec::new();
    let start = Instant::now();
    for _ in 0..reps {
        wire.clear();
        for cmd in commands {
            frame_into(&mut wire, cmd.as_bytes());
        }
        let mut cursor = FrameCursor::new();
        cursor.push(&wire);
        while let Ok(Some(frame)) = cursor.next_frame() {
            std::hint::black_box(frame);
        }
    }
    start.elapsed().as_nanos() as f64 / (reps * commands.len()) as f64
}
