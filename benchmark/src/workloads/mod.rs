//! The four workloads. Each runs in its own process (so `peak_rss_mb` and
//! caches do not leak between them); `run` dispatches on the name.

pub mod codec;
pub mod ingest;
pub mod lookup;
pub mod scan;

use crate::harness::{Outcome, Params};
use crate::metrics::Measured;
use crate::stats;
use crate::trace::{chrome_json, Span};

pub fn run(workload: &str, params: &Params) -> std::io::Result<Outcome> {
    match workload {
        "codec" => codec::run(params),
        "scan" => scan::run(params),
        "lookup" => lookup::run(params),
        "ingest" => ingest::run(params),
        other => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("unknown workload {other:?}"),
        )),
    }
}

/// Spans kept in a written trace; a traced lookup round alone has ~10⁵.
const TRACE_FILE_SPANS: usize = 50_000;

/// Write `benchmark/out/trace-<workload>.json` (Chrome `trace_event`).
pub fn write_trace(workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let dir = crate::sys::out_dir();
    std::fs::create_dir_all(&dir)?;
    let kept = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    std::fs::write(
        dir.join(format!("trace-{workload}.json")),
        chrome_json(kept),
    )
}

/// `server.noop_roundtrip_us` (absent-key `GET` at depth 1: the socket +
/// dispatch floor) with its spread over five consecutive slices of the
/// ladder, because this number is the one the scheduler moves most.
pub fn noop_metrics(noop_us: &[f64], m: &mut Measured) {
    m.set("server.noop_roundtrip_us", stats::median(noop_us));
    let slices: Vec<f64> = noop_us
        .chunks(noop_us.len().div_ceil(5).max(1))
        .map(stats::median)
        .collect();
    m.set("server.noop_round_spread", stats::spread(&slices));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use std::sync::Mutex;

    /// The passes share the process-wide `leco_obs` registry and the
    /// `tmp-<pid>-…` scratch names, so they run one at a time.
    static SERIAL: Mutex<()> = Mutex::new(());

    /// A miniature (10 K-row, one-round) pass; returns the metrics it set.
    fn mini(workload: &str, trace: bool) -> crate::metrics::Measured {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let params = Params {
            seed: 7,
            seconds: 1.0,
            trace,
            mini: true,
        };
        let outcome = run(workload, &params).expect(workload);
        assert_eq!(outcome.failed, 0, "{workload}: failed_ratio must be 0");
        assert!(outcome.attempted > 0);
        outcome.metrics
    }

    fn untraced_reports_every_end_to_end_metric(workload: &str) {
        let m = mini(workload, false);
        for def in END_TO_END {
            let value = m
                .get(def.name)
                .unwrap_or_else(|| panic!("{workload}: {} missing", def.name));
            assert!(
                value > 0.0 && value.is_finite(),
                "{workload}: {} = {value}",
                def.name
            );
        }
        assert_eq!(m.0.len(), END_TO_END.len());
    }

    fn traced_reports_its_layers(workload: &str, layers: &[&str]) {
        let m = mini(workload, true);
        for (name, value) in &m.0 {
            assert!(
                PER_LAYER.iter().any(|d| d.name == *name),
                "{workload}: unknown metric {name}"
            );
            assert!(value.is_finite(), "{workload}: {name} = {value}");
        }
        for layer in layers {
            assert!(
                m.0.iter().any(|(n, v)| n.starts_with(layer) && *v != 0.0),
                "{workload}: nothing from {layer}"
            );
        }
        assert!(crate::sys::out_dir()
            .join(format!("trace-{workload}.json"))
            .exists());
    }

    #[test]
    fn codec_mini_passes() {
        untraced_reports_every_end_to_end_metric("codec");
        traced_reports_its_layers("codec", &["bitpack.", "codecs.", "core."]);
    }

    #[test]
    fn scan_mini_passes() {
        untraced_reports_every_end_to_end_metric("scan");
        traced_reports_its_layers(
            "scan",
            &["core.", "columnar.", "scan.", "server.", "ladder."],
        );
    }

    #[test]
    fn lookup_mini_passes() {
        untraced_reports_every_end_to_end_metric("lookup");
        traced_reports_its_layers("lookup", &["kvstore.", "server.", "ladder."]);
    }

    #[test]
    fn ingest_mini_passes() {
        untraced_reports_every_end_to_end_metric("ingest");
        let m = mini("ingest", true);
        assert_eq!(m.get("ingest.lost_acked_rows"), Some(0.0));
        traced_reports_its_layers(
            "ingest",
            &["ingest.", "columnar.", "core.", "server.", "ladder."],
        );
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let params = Params {
            seed: 1,
            seconds: 1.0,
            trace: false,
            mini: true,
        };
        assert!(run("nope", &params).is_err());
    }
}
