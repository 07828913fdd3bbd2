//! The metric registry: every name the benchmark may print, with its unit
//! and direction. `BENCHMARK.json` lists exactly these (a self-test holds
//! the two together). With `--trace 0` a run prints every end-to-end
//! metric, with `--trace 1` every per-layer metric; a layer a workload does
//! not exercise reads 0 there (the "not this workload" prediction of the
//! interaction table in the README).

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Relative worsening of the median that counts as a regression
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const WORKLOADS: &[&str] = &["codec", "scan", "lookup", "ingest"];

pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_s", "ops/s", "higher", 0.25),
    e2e("lat_p50_us", "us", "lower", 0.25),
    e2e("lat_p99_us", "us", "lower", 0.25),
    e2e("stored_bytes_per_user_byte", "B/B", "lower", 0.15),
    e2e("peak_rss_mb", "MiB", "lower", 0.15),
];

pub const PER_LAYER: &[MetricDef] = &[
    // bitpack — measured in `codec`
    layer("bitpack.unpack_gib_s", "GiB/s", "higher"),
    layer("bitpack.unpack_deltas_gib_s", "GiB/s", "higher"),
    layer("bitpack.pack_gib_s", "GiB/s", "higher"),
    layer("bitpack.get_ns", "ns", "lower"),
    layer("bitpack.filter_packed_rows_s", "rows/s", "higher"),
    // codecs (the paper's baselines) — measured in `codec`
    layer("codecs.for_decode_gib_s", "GiB/s", "higher"),
    layer("codecs.delta_decode_gib_s", "GiB/s", "higher"),
    layer("codecs.for_access_ns", "ns", "lower"),
    layer("codecs.delta_access_ns", "ns", "lower"),
    layer("codecs.for_encode_mb_s", "MB/s", "higher"),
    layer("codecs.for_ratio", "B/B", "lower"),
    layer("codecs.delta_ratio", "B/B", "lower"),
    // core — rates in `codec`; self time in `scan`, `ingest`
    layer("core.compress_fix_mb_s", "MB/s", "higher"),
    layer("core.compress_var_mb_s", "MB/s", "higher"),
    layer("core.ratio_fix", "B/B", "lower"),
    layer("core.ratio_var", "B/B", "lower"),
    layer("core.partitions_var", "count", "lower"),
    layer("core.decode_gib_s", "GiB/s", "higher"),
    layer("core.access_ns", "ns", "lower"),
    layer("core.filter_rows_s", "rows/s", "higher"),
    layer("core.decoded_fraction", "ratio", "lower"),
    layer("core.to_bytes_gib_s", "GiB/s", "higher"),
    layer("core.from_bytes_gib_s", "GiB/s", "higher"),
    layer("core.self_us", "us", "lower"),
    // columnar — `scan`; write rate also in `ingest` (compaction)
    layer("columnar.write_rows_s", "rows/s", "higher"),
    layer("columnar.open_ms", "ms", "lower"),
    layer("columnar.read_chunk_gib_s", "GiB/s", "higher"),
    layer("columnar.filter_chunk_rows_s", "rows/s", "higher"),
    layer("columnar.group_by_chunk_rows_s", "rows/s", "higher"),
    layer("columnar.sum_chunk_rows_s", "rows/s", "higher"),
    layer("columnar.decoded_fraction", "ratio", "lower"),
    layer("columnar.self_us", "us", "lower"),
    // scan — `scan`
    layer("scan.run_rows_s", "rows/s", "higher"),
    layer("scan.empty_query_us", "us", "lower"),
    layer("scan.pruned_fraction", "ratio", "higher"),
    layer("scan.morsels_per_query", "count", "lower"),
    layer("scan.self_us", "us", "lower"),
    // kvstore — `lookup`
    layer("kvstore.get_hit_ns", "ns", "lower"),
    layer("kvstore.get_miss_ns", "ns", "lower"),
    layer("kvstore.cache_hit_ratio", "ratio", "higher"),
    layer("kvstore.disk_reads_per_get", "count", "lower"),
    layer("kvstore.index_bytes_per_key", "B", "lower"),
    layer("kvstore.load_s", "s", "lower"),
    layer("kvstore.self_us", "us", "lower"),
    // ingest — `ingest`
    layer("ingest.wal_commit_us", "us", "lower"),
    layer("ingest.wal_append_mb_s", "MB/s", "higher"),
    layer("ingest.put_us", "us", "lower"),
    layer("ingest.put_batch_rows_s", "rows/s", "higher"),
    layer("ingest.flush_rows_s", "rows/s", "higher"),
    layer("ingest.scan_rows_s", "rows/s", "higher"),
    layer("ingest.recover_rows_s", "rows/s", "higher"),
    layer("ingest.commits_per_put", "count", "lower"),
    layer("ingest.wal_bytes_per_row", "B", "lower"),
    layer("ingest.write_bytes_per_user_byte", "B/B", "lower"),
    layer("ingest.compactions", "count", "lower"),
    layer("ingest.compact_busy_ratio", "ratio", "lower"),
    layer("ingest.lost_acked_rows", "count", "lower"),
    layer("ingest.self_us", "us", "lower"),
    // server — every served workload
    layer("server.parse_ns", "ns", "lower"),
    layer("server.frame_ns", "ns", "lower"),
    layer("server.reply_bytes_per_op", "B", "lower"),
    layer("server.noop_roundtrip_us", "us", "lower"),
    layer("server.noop_round_spread", "ratio", "lower"),
    layer("server.errors", "count", "lower"),
    layer("server.self_us", "us", "lower"),
    // ladder and harness diagnostics
    layer("ladder.roundtrip_us", "us", "lower"),
    layer("ladder.residual_us", "us", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.round_spread", "ratio", "lower"),
];

/// A run's measured values, by metric name.
#[derive(Default)]
pub struct Measured(pub Vec<(&'static str, f64)>);

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    pub fn extend(&mut self, other: Measured) {
        for (name, value) in other.0 {
            self.set(name, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn registry_respects_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} unit {}", m.name, m.unit);
            assert!(matches!(m.better, "higher" | "lower"), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w) && seen.insert(w), "{w}");
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repo root and this registry must agree.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = parse(&text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = doc.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better)
                );
                let fields = entry.as_obj().unwrap().len();
                if key == "end_to_end" {
                    assert_eq!(entry.get("bound").and_then(Value::as_f64), Some(def.bound));
                    assert_eq!(fields, 4, "{}", def.name);
                } else {
                    assert_eq!(fields, 3, "{}", def.name);
                }
            }
        }
        for w in doc.get("workloads").and_then(Value::as_arr).unwrap() {
            let why = w.get("why").and_then(Value::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.as_obj().unwrap().len(), 2);
        }
        let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
