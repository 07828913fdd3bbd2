//! `leco-server` — a threaded TCP query frontend over sharded LeCo stores.
//!
//! This crate turns the library stack into a *served* database: a
//! length-prefixed line protocol (`GET`, `MGET`, `SCAN`, `PUT`, `DEL`,
//! `FLUSH`, `STATS`) accepted by a thread-per-connection frontend over `N`
//! shards — each owning a slice of every row-group table file, an optional
//! WAL-backed [`leco_ingest::LiveTable`] slice, and a
//! [`leco_kvstore::Store`].  Point lookups read the shared stores on the
//! connection thread; everything else runs on one worker thread per shard,
//! with the `leco-scan` work-stealing pool underneath every shard-local
//! scan.  See `docs/SERVING.md`
//! for the frame layout, routing rules and lifecycle, and `docs/INGEST.md`
//! for the write path behind `PUT`/`DEL`/`FLUSH`.
//!
//! * **Routing.**  Point lookups read the store of `fnv1a64(key) % shards`
//!   ([`shard::shard_for_key`]); scans fan out to all shards and merge
//!   *integer partials*, so a sharded result is bit-identical to a single
//!   in-process [`leco_scan::Scanner`] run at any shard count.
//! * **Pipelining.**  A connection drains every buffered request frame into
//!   one batch and dispatches the whole batch before awaiting replies, so a
//!   pipelining client keeps all shard workers busy from a single socket.
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
