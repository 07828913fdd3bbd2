//! Building a sharded on-disk dataset: split tables and sorted key-value
//! records across `N` shards, write one row-group file and one SSTable per
//! shard, and record the layout in a [`Manifest`].
//!
//! Tables are split into contiguous near-equal row slices — shard `k` owns
//! rows `[k·n/N, (k+1)·n/N)` — so a fan-out scan covers every row exactly
//! once.  Records are hash-partitioned by key ([`shard_for_key`]), which
//! preserves their sorted order within each shard, the invariant
//! [`Store::load`] requires.

use crate::shard::{shard_for_key, Manifest, ShardData};
use leco_columnar::{TableFile, TableFileOptions};
use leco_ingest::{IngestConfig, LiveTable};
use leco_kvstore::{Store, StoreOptions};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A table to shard: name, column names, equal-length columns.
pub struct TableSpec {
    /// Table name, as addressed by `SCAN`.
    pub name: String,
    /// Column names.
    pub column_names: Vec<String>,
    /// One `Vec<u64>` per column.
    pub columns: Vec<Vec<u64>>,
}

/// A live (writable) table to open on every shard.
pub struct LiveTableSpec {
    /// Table name, as addressed by `PUT`/`DEL`/`SCAN`.
    pub name: String,
    /// Column names (the schema every `PUT` row must match).
    pub column_names: Vec<String>,
    /// Per-shard ingest tuning (segment size, compaction policy, key column).
    pub config: IngestConfig,
}

/// Builder for a sharded dataset directory.
pub struct ShardSetBuilder {
    dir: PathBuf,
    shards: usize,
    table_options: TableFileOptions,
    store_options: StoreOptions,
    tables: Vec<TableSpec>,
    live_tables: Vec<LiveTableSpec>,
    records: Vec<(Vec<u8>, Vec<u8>)>,
}

/// The built shard set: per-shard data ready to hand to the server, plus
/// the manifest describing the layout.
pub struct ShardSet {
    /// One entry per shard, indexed by shard id.
    pub shards: Vec<ShardData>,
    /// The layout that was built (also written to `manifest.json`).
    pub manifest: Manifest,
}

impl ShardSetBuilder {
    /// Start a builder writing shard files under `dir` (created if needed).
    pub fn new<P: AsRef<Path>>(dir: P, shards: usize) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
            shards: shards.max(1),
            table_options: TableFileOptions::default(),
            store_options: StoreOptions::default(),
            tables: Vec::new(),
            live_tables: Vec::new(),
            records: Vec::new(),
        }
    }

    /// Use non-default table-file options (encoding, row-group size …).
    pub fn table_options(mut self, options: TableFileOptions) -> Self {
        self.table_options = options;
        self
    }

    /// Use non-default store options (index format, cache budget).
    pub fn store_options(mut self, options: StoreOptions) -> Self {
        self.store_options = options;
        self
    }

    /// Add a table to shard across the set.
    pub fn table(mut self, name: &str, column_names: &[&str], columns: Vec<Vec<u64>>) -> Self {
        assert_eq!(column_names.len(), columns.len(), "one name per column");
        self.tables.push(TableSpec {
            name: name.to_string(),
            column_names: column_names.iter().map(|s| s.to_string()).collect(),
            columns,
        });
        self
    }

    /// Add a live (writable) table: every shard opens — or, on restart,
    /// recovers — its own WAL-backed [`LiveTable`] under
    /// `live-<name>-s<k>/`, so acknowledged `PUT`s survive a rebuild of the
    /// same directory.
    pub fn live_table(mut self, name: &str, column_names: &[&str], config: IngestConfig) -> Self {
        self.live_tables.push(LiveTableSpec {
            name: name.to_string(),
            column_names: column_names.iter().map(|s| s.to_string()).collect(),
            config,
        });
        self
    }

    /// Add the key-value records (must be sorted by key, like
    /// [`Store::load`]).
    pub fn records(mut self, records: Vec<(Vec<u8>, Vec<u8>)>) -> Self {
        self.records = records;
        self
    }

    /// Write every shard's files and assemble the [`ShardSet`].
    ///
    /// A table name may be added once, as a table or as a live table: a
    /// `SCAN` routes by name, so a name used twice is `InvalidInput` and
    /// nothing is written.
    pub fn build(self) -> std::io::Result<ShardSet> {
        let mut seen = HashSet::new();
        let live_names = self.live_tables.iter().map(|t| &t.name);
        for name in self.tables.iter().map(|t| &t.name).chain(live_names) {
            if !seen.insert(name) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("table name {name:?} is used twice"),
                ));
            }
        }
        std::fs::create_dir_all(&self.dir)?;
        let n = self.shards;

        // Hash-partition the records; per-shard order stays sorted because
        // filtering preserves the global order.
        let mut per_shard_records: Vec<Vec<(Vec<u8>, Vec<u8>)>> = vec![Vec::new(); n];
        for (key, value) in &self.records {
            per_shard_records[shard_for_key(key, n)].push((key.clone(), value.clone()));
        }

        let mut manifest = Manifest {
            shards: n,
            kv_routing: "fnv1a64(key) % shards".to_string(),
            kv_records: per_shard_records.iter().map(|r| r.len() as u64).collect(),
            tables: Vec::new(),
            live_tables: Vec::new(),
        };

        let mut shards = Vec::with_capacity(n);
        for (k, records) in per_shard_records.iter().enumerate() {
            let store_path = self.dir.join(format!("kv-s{k}.sst"));
            let store = Store::load(&store_path, records, self.store_options)?;
            shards.push(ShardData {
                id: k,
                tables: HashMap::new(),
                live_tables: HashMap::new(),
                store: Arc::new(store),
            });
        }

        for spec in &self.live_tables {
            let names: Vec<&str> = spec.column_names.iter().map(String::as_str).collect();
            for (k, shard) in shards.iter_mut().enumerate() {
                let live_dir = self.dir.join(format!("live-{}-s{k}", spec.name));
                let live = LiveTable::open(&live_dir, &names, spec.config)?;
                shard.live_tables.insert(spec.name.clone(), live);
            }
            manifest
                .live_tables
                .push((spec.name.clone(), spec.config.key_col));
        }

        for spec in &self.tables {
            let rows = spec.columns.first().map_or(0, Vec::len);
            assert!(
                spec.columns.iter().all(|c| c.len() == rows),
                "table {:?}: all columns must have the same length",
                spec.name
            );
            assert!(
                rows >= n,
                "table {:?}: {} rows cannot be split across {} shards",
                spec.name,
                rows,
                n
            );
            let names: Vec<&str> = spec.column_names.iter().map(String::as_str).collect();
            let mut slices = Vec::with_capacity(n);
            for (k, shard) in shards.iter_mut().enumerate() {
                let start = k * rows / n;
                let end = (k + 1) * rows / n;
                let slice_cols: Vec<Vec<u64>> = spec
                    .columns
                    .iter()
                    .map(|c| c[start..end].to_vec())
                    .collect();
                let path = self.dir.join(format!("{}-s{k}.tbl", spec.name));
                let file = TableFile::write(&path, &names, &slice_cols, self.table_options)?;
                shard.tables.insert(spec.name.clone(), file);
                slices.push((start as u64, (end - start) as u64));
            }
            manifest.tables.push((spec.name.clone(), slices));
        }

        std::fs::write(self.dir.join("manifest.json"), manifest.to_json().render())?;
        Ok(ShardSet { shards, manifest })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("leco-server-fixture-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn shards_cover_every_row_and_record_exactly_once() {
        let dir = tmp_dir("cover");
        let rows = 10_001usize;
        let ts: Vec<u64> = (0..rows as u64).map(|i| 1000 + i).collect();
        let val: Vec<u64> = (0..rows as u64).map(|i| i * 3).collect();
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..500u64)
            .map(|i| {
                (
                    format!("k{i:05}").into_bytes(),
                    format!("v{i}").into_bytes(),
                )
            })
            .collect();
        let set = ShardSetBuilder::new(&dir, 3)
            .table("t", &["ts", "val"], vec![ts, val])
            .records(records.clone())
            .build()
            .unwrap();
        assert_eq!(set.shards.len(), 3);
        let total_rows: usize = set.shards.iter().map(|s| s.tables["t"].num_rows()).sum();
        assert_eq!(total_rows, rows);
        let total_records: usize = set.shards.iter().map(|s| s.store.num_records()).sum();
        assert_eq!(total_records, records.len());
        // Every record lands on the shard its hash names, and is found there.
        for (key, value) in records.iter().step_by(37) {
            let k = shard_for_key(key, 3);
            assert_eq!(set.shards[k].store.get(key).unwrap().as_ref(), Some(value));
        }
        // Slices in the manifest are contiguous and complete.
        let (_, slices) = &set.manifest.tables[0];
        let mut next = 0u64;
        for &(start, len) in slices {
            assert_eq!(start, next);
            next = start + len;
        }
        assert_eq!(next, rows as u64);
        assert!(dir.join("manifest.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn assert_rejected(builder: ShardSetBuilder, dir: &Path) {
        let err = builder
            .build()
            .err()
            .expect("a name used twice is rejected");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert_eq!(err.to_string(), r#"table name "t" is used twice"#);
        assert!(!dir.exists(), "a rejected set writes nothing");
    }

    #[test]
    fn a_table_name_added_twice_is_rejected() {
        let dir = tmp_dir("twice-static");
        std::fs::remove_dir_all(&dir).ok();
        let builder = ShardSetBuilder::new(&dir, 2)
            .table("t", &["a"], vec![(0..10).collect()])
            .table("u", &["a"], vec![(0..10).collect()])
            .table("t", &["b"], vec![(10..20).collect()]);
        assert_rejected(builder, &dir);
    }

    #[test]
    fn a_table_and_a_live_table_may_not_share_a_name() {
        let dir = tmp_dir("twice-mixed");
        std::fs::remove_dir_all(&dir).ok();
        let builder = ShardSetBuilder::new(&dir, 2)
            .table("t", &["k", "v"], vec![(0..10).collect(), (0..10).collect()])
            .live_table("t", &["k", "v"], IngestConfig::default());
        assert_rejected(builder, &dir);
    }
}
