//! `leco-server` — a threaded TCP query frontend over sharded LeCo stores.
//!
//! This crate turns the library stack into a *served* database: a
//! length-prefixed line protocol (`GET`, `MGET`, `SCAN`, `PUT`, `DEL`,
//! `FLUSH`, `STATS`) accepted by a thread-per-connection frontend over `N`
//! shards — each owning a slice of every row-group table file, an optional
//! WAL-backed [`leco_ingest::LiveTable`] slice, and a
//! [`leco_kvstore::Store`].  Read-only data is served on the connection
//! thread: point lookups read the shared stores, and a `SCAN` of a static
//! table runs a [`leco_scan::Scanner`] over each shard's file in turn.
//! Writes, `FLUSH` and scans of live tables run on one worker thread per
//! shard.  Every scan, on either thread, runs the `leco-scan` work-stealing
//! pool underneath.  See `docs/SERVING.md`
//! for the frame layout, routing rules and lifecycle, and `docs/INGEST.md`
//! for the write path behind `PUT`/`DEL`/`FLUSH`.
//!
//! * **Routing.**  Point lookups read the store of `fnv1a64(key) % shards`
//!   ([`shard::shard_for_key`]); scans cover every shard's slice and merge
//!   *integer partials*, so a sharded result is bit-identical to a single
//!   in-process [`leco_scan::Scanner`] run at any shard count.
//! * **Concurrency.**  Connections run in parallel, so concurrent read-only
//!   requests — lookups and static scans — are bounded only by the number of
//!   connections.  A connection drains every buffered request frame into
//!   one batch: reads in it run one after another on its thread, while the
//!   writes and live scans in it are dispatched together before any reply
//!   is awaited, so a pipelining client keeps all shard workers busy.
//! * **Isolation.**  Malformed requests answer `400` and the connection
//!   survives; shard failures answer `500` and the worker survives; only a
//!   corrupt frame length closes the connection.
//! * **Observability.**  Connection gauge, request/error counters,
//!   per-command latency histograms and the shard queue-depth gauge, all in
//!   the `srv.*` namespace of the [`leco_obs`] registry.
//!
//! ```no_run
//! use leco_server::{Client, Server, ServerConfig, ShardSetBuilder};
//!
//! # fn demo() -> std::io::Result<()> {
//! let ts: Vec<u64> = (0..10_000).collect();
//! let val: Vec<u64> = (0..10_000).map(|i| i * 7).collect();
//! let set = ShardSetBuilder::new("/tmp/leco-serve", 2)
//!     .table("t", &["ts", "val"], vec![ts, val])
//!     .records(vec![(b"alpha".to_vec(), b"1".to_vec())])
//!     .build()?;
//! let server = Server::start(set, ServerConfig::default())?;
//! let mut client = Client::connect(server.local_addr())?;
//! let reply = client.request("SCAN t FILTER ts 100 200")?;
//! assert_eq!(leco_server::protocol::response_code(&reply), 200);
//! server.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod fixture;
pub mod protocol;
pub mod server;
pub mod shard;

pub use client::Client;
pub use fixture::{LiveTableSpec, ShardSet, ShardSetBuilder, TableSpec};
pub use protocol::{Request, MAX_FRAME};
pub use server::{Server, ServerConfig};
pub use shard::{shard_for_key, Manifest, ShardData};
