//! Benchmark-regression checking: compare a current `BENCH_*.json` report
//! against a committed baseline and report violations.
//!
//! Two metric classes, matching how reproducible each quantity is:
//!
//! * **Compression ratios** are deterministic given the data-set size and
//!   seed, so any increase over the baseline is a regression — compared
//!   *exactly* (a hair of parse epsilon only).
//! * **Throughputs / latencies** depend on the machine, so they only fail
//!   beyond a generous noise tolerance: a tripwire for order-of-magnitude
//!   regressions (a dropped fast path, an accidental O(n²)), not for run
//!   jitter.
//!
//! Which sections and columns mean what is declared per benchmark in
//! [`rules_for`]; rows are matched by their identity columns, and a row or
//! section present in the baseline but missing from the current report is
//! itself a violation (so a benchmark cannot silently stop measuring).
//! The `bench_check` binary (`src/bin/bench_check.rs`) wires this into CI's
//! `bench-gate` job.

use crate::report::Json;

/// How a metric column is compared against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Deterministic ratio: any increase is a regression.
    RatioExact,
    /// Higher is better (throughput): fail when current < baseline/(1+tol).
    HigherBetter,
    /// Lower is better (latency): fail when current > baseline·(1+tol).
    LowerBetter,
    /// Deterministic count: any drift, in either direction, is a counting
    /// bug (used for the obs registry's exact accounting metrics).
    Exact,
}

/// One comparison rule: which columns of which section to check, and how.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Section label inside the report (`sections[].label`).
    pub section: &'static str,
    /// Columns identifying a row within the section (matched exactly).
    pub key_columns: &'static [&'static str],
    /// Metric columns to compare; empty means "all non-key columns".
    pub value_columns: &'static [&'static str],
    /// Informational columns never gated (only meaningful with empty
    /// `value_columns`).
    pub skip_columns: &'static [&'static str],
    /// Comparison mode for the value columns.
    pub metric: Metric,
}

/// The comparison rules for a benchmark, by report name (`"bench"` field).
/// Returns an empty slice for reports without a gate (their presence is
/// still checked by the binary's file handling).
pub fn rules_for(bench: &str) -> &'static [Rule] {
    match bench {
        "fig10_micro" => &[
            Rule {
                section: "ratio",
                key_columns: &["dataset"],
                value_columns: &[],
                // "LeCo model%" is a size *breakdown*, not a compression
                // ratio: shrinking the payload raises it.  Informational.
                skip_columns: &["LeCo model%"],
                metric: Metric::RatioExact,
            },
            Rule {
                section: "access_ns",
                key_columns: &["dataset"],
                value_columns: &[],
                skip_columns: &[],
                metric: Metric::LowerBetter,
            },
            Rule {
                section: "decode",
                key_columns: &["dataset"],
                value_columns: &[],
                skip_columns: &[],
                metric: Metric::HigherBetter,
            },
        ],
        "fig16_partitioners" => &[Rule {
            section: "partitioners",
            key_columns: &["dataset", "partitioner"],
            value_columns: &["compression ratio"],
            skip_columns: &[],
            metric: Metric::RatioExact,
        }],
        "scan" => &[Rule {
            section: "scaling",
            key_columns: &["threads"],
            value_columns: &["rows_per_second"],
            skip_columns: &[],
            metric: Metric::HigherBetter,
        }],
        "scan_selectivity" => &[
            // The fraction of scanned rows the pushdown kernels had to
            // decode is deterministic (fixed seed, fixed LECO_N): any
            // increase means the model inverse lost coverage.
            Rule {
                section: "selectivity",
                key_columns: &["selectivity"],
                value_columns: &["decoded_fraction"],
                skip_columns: &[],
                metric: Metric::RatioExact,
            },
            // Wall-clock tripwire with the usual generous tolerance.
            Rule {
                section: "selectivity",
                key_columns: &["selectivity"],
                value_columns: &["pushdown_wall_seconds"],
                skip_columns: &[],
                metric: Metric::LowerBetter,
            },
        ],
        // Registry snapshot deltas around a scan and a seeded cache
        // workload: deterministic given `LECO_N` and the data-set seed, so
        // they are held exactly in both directions.  The `overhead` and
        // `informational` sections are machine-dependent and gated
        // separately (`check_overhead`) or not at all.
        "scan_obs" => &[Rule {
            section: "deterministic",
            key_columns: &["metric"],
            value_columns: &["value"],
            skip_columns: &[],
            metric: Metric::Exact,
        }],
        // The served-database load test (`repro_serve`).  Every sweep point
        // must stay error-free — the load generator verifies reply
        // *contents*, so a single error means a correctness bug, not noise —
        // while throughput and median latency get the usual machine-noise
        // tripwire.  p95/p99 are informational: tail latencies on shared CI
        // runners are too jittery to gate.
        "serve" => &[
            Rule {
                section: "sweep",
                key_columns: &["connections", "target_qps"],
                value_columns: &["errors"],
                skip_columns: &[],
                metric: Metric::Exact,
            },
            Rule {
                section: "sweep",
                key_columns: &["connections", "target_qps"],
                value_columns: &["qps"],
                skip_columns: &[],
                metric: Metric::HigherBetter,
            },
            Rule {
                section: "sweep",
                key_columns: &["connections", "target_qps"],
                value_columns: &["p50_us"],
                skip_columns: &[],
                metric: Metric::LowerBetter,
            },
        ],
        // The write path (`repro_ingest`).  Recovery counts are
        // deterministic given `LECO_N` (replay of a fixed WAL) and held
        // exactly in both directions: `rows_recovered` must equal the rows
        // written and `replay_divergence` — the scan-visible difference
        // between the pre-kill and post-replay table — must stay zero.
        // Ingest / replay / compaction throughputs get the factor-of-4
        // machine-noise tripwire.
        "ingest" => &[
            Rule {
                section: "recovery",
                key_columns: &["phase"],
                value_columns: &["rows_recovered", "replay_divergence"],
                skip_columns: &[],
                metric: Metric::Exact,
            },
            Rule {
                section: "recovery",
                key_columns: &["phase"],
                value_columns: &["rows_per_second"],
                skip_columns: &[],
                metric: Metric::HigherBetter,
            },
            Rule {
                section: "ingest",
                key_columns: &["phase"],
                value_columns: &["rows_per_second"],
                skip_columns: &[],
                metric: Metric::HigherBetter,
            },
            Rule {
                section: "compaction",
                key_columns: &["phase"],
                value_columns: &["rows_per_second"],
                skip_columns: &[],
                metric: Metric::HigherBetter,
            },
        ],
        _ => &[],
    }
}

/// Absolute gate on the observability layer's cost: fail when any
/// `overhead_ratio` in the report's `overhead` section exceeds `max_ratio`.
/// Unlike [`compare_reports`] this checks the *current* report against a
/// fixed budget, not against a baseline — the acceptable overhead does not
/// drift with the machine that recorded the baseline.
pub fn check_overhead(current: &Json, max_ratio: f64) -> Vec<Violation> {
    let bench = current
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    let mut violations = Vec::new();
    let Some(rows) = section(current, "overhead").and_then(Json::as_arr) else {
        violations.push(Violation {
            bench,
            section: "overhead".into(),
            row: "-".into(),
            column: "-".into(),
            message: "overhead section missing from current report".into(),
        });
        return violations;
    };
    for row in rows {
        let key = row_key(row, &["experiment"]).unwrap_or_else(|| "-".into());
        match row.get("overhead_ratio").and_then(parse_metric) {
            Some(ratio) if ratio <= max_ratio => {}
            Some(ratio) => violations.push(Violation {
                bench: bench.clone(),
                section: "overhead".into(),
                row: key,
                column: "overhead_ratio".into(),
                message: format!(
                    "obs overhead {:.2}% exceeds the {:.2}% budget",
                    ratio * 100.0,
                    max_ratio * 100.0
                ),
            }),
            None => violations.push(Violation {
                bench: bench.clone(),
                section: "overhead".into(),
                row: key,
                column: "overhead_ratio".into(),
                message: "overhead_ratio missing or non-numeric".into(),
            }),
        }
    }
    violations
}

/// One detected regression (or structural mismatch).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Report name.
    pub bench: String,
    /// Section label.
    pub section: String,
    /// Identity of the row (joined key-column values).
    pub row: String,
    /// Column the violation is about.
    pub column: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} [{}] {}: {}",
            self.bench, self.section, self.row, self.column, self.message
        )
    }
}

/// Parse a metric cell: plain numbers pass through; `"12.3%"`, `"45ns"` and
/// `"2.30 GB/s"`-style suffixed strings are stripped to their number.
/// `None` for non-numeric cells (`"n/a"`, labels).
pub fn parse_metric(value: &Json) -> Option<f64> {
    match value {
        Json::Num(v) => Some(*v),
        Json::Str(s) => {
            let digits: String = s
                .chars()
                .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
                .collect();
            if digits.is_empty() {
                None
            } else {
                digits.parse().ok()
            }
        }
        _ => None,
    }
}

fn section<'a>(report: &'a Json, label: &str) -> Option<&'a Json> {
    report
        .get("sections")?
        .as_arr()?
        .iter()
        .find(|s| s.get("label").and_then(Json::as_str) == Some(label))?
        .get("data")
}

fn row_key(row: &Json, key_columns: &[&str]) -> Option<String> {
    let mut parts = Vec::with_capacity(key_columns.len());
    for k in key_columns {
        let v = row.get(k)?;
        parts.push(match v {
            Json::Str(s) => s.clone(),
            Json::Num(n) => format!("{n}"),
            other => other.render(),
        });
    }
    Some(parts.join("/"))
}

fn columns_of(row: &Json) -> Vec<&str> {
    match row {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => Vec::new(),
    }
}

/// Compare one current report against its baseline under the given rules.
/// `tolerance` is the relative noise band for throughput/latency metrics
/// (e.g. `0.5` = fail only beyond ±50%).
pub fn compare_reports(baseline: &Json, current: &Json, tolerance: f64) -> Vec<Violation> {
    let bench = baseline
        .get("bench")
        .and_then(Json::as_str)
        .unwrap_or("<unnamed>")
        .to_string();
    let mut violations = Vec::new();
    let mut fail = |section: &str, row: &str, column: &str, message: String| {
        violations.push(Violation {
            bench: bench.clone(),
            section: section.to_string(),
            row: row.to_string(),
            column: column.to_string(),
            message,
        });
    };
    for rule in rules_for(&bench) {
        let Some(base_rows) = section(baseline, rule.section).and_then(Json::as_arr) else {
            continue; // not in the baseline (e.g. optional --dp section)
        };
        let Some(cur_rows) = section(current, rule.section).and_then(Json::as_arr) else {
            fail(
                rule.section,
                "-",
                "-",
                "section missing from current report".into(),
            );
            continue;
        };
        for base_row in base_rows {
            let Some(key) = row_key(base_row, rule.key_columns) else {
                continue;
            };
            let Some(cur_row) = cur_rows
                .iter()
                .find(|r| row_key(r, rule.key_columns).as_deref() == Some(&key))
            else {
                fail(
                    rule.section,
                    &key,
                    "-",
                    "row missing from current report".into(),
                );
                continue;
            };
            let columns: Vec<&str> = if rule.value_columns.is_empty() {
                columns_of(base_row)
                    .into_iter()
                    .filter(|c| !rule.key_columns.contains(c) && !rule.skip_columns.contains(c))
                    .collect()
            } else {
                rule.value_columns.to_vec()
            };
            for column in columns {
                let (Some(base_cell), cur_cell) = (base_row.get(column), cur_row.get(column))
                else {
                    continue;
                };
                let Some(base_v) = parse_metric(base_cell) else {
                    continue; // "n/a" in the baseline: nothing to hold
                };
                let Some(cur_v) = cur_cell.and_then(parse_metric) else {
                    fail(
                        rule.section,
                        &key,
                        column,
                        "metric missing or non-numeric in current report".into(),
                    );
                    continue;
                };
                match rule.metric {
                    Metric::Exact => {
                        if (cur_v - base_v).abs() > 1e-9 {
                            fail(
                                rule.section,
                                &key,
                                column,
                                format!("deterministic metric drifted: {base_v} -> {cur_v}"),
                            );
                        }
                    }
                    Metric::RatioExact => {
                        if cur_v > base_v + 1e-9 {
                            fail(
                                rule.section,
                                &key,
                                column,
                                format!("ratio regressed: {base_v} -> {cur_v}"),
                            );
                        }
                    }
                    Metric::HigherBetter => {
                        // Ratio form so tolerances ≥ 1 stay meaningful
                        // (±tol means "within a factor of 1 + tol").
                        if cur_v < base_v / (1.0 + tolerance) {
                            fail(
                                rule.section,
                                &key,
                                column,
                                format!(
                                    "throughput regressed beyond {:.0}% tolerance: {base_v} -> {cur_v}",
                                    tolerance * 100.0
                                ),
                            );
                        }
                    }
                    Metric::LowerBetter => {
                        if cur_v > base_v * (1.0 + tolerance) {
                            fail(
                                rule.section,
                                &key,
                                column,
                                format!(
                                    "latency regressed beyond {:.0}% tolerance: {base_v} -> {cur_v}",
                                    tolerance * 100.0
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(bench: &str, section_label: &str, rows: Vec<Json>) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str(bench.into())),
            (
                "sections".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("label".into(), Json::Str(section_label.into())),
                    ("data".into(), Json::Arr(rows)),
                ])]),
            ),
        ])
    }

    fn fig16_row(dataset: &str, partitioner: &str, ratio: &str) -> Json {
        Json::Obj(vec![
            ("dataset".into(), Json::Str(dataset.into())),
            ("partitioner".into(), Json::Str(partitioner.into())),
            ("compression ratio".into(), Json::Str(ratio.into())),
            ("#partitions".into(), Json::Num(21.0)),
        ])
    }

    #[test]
    fn identical_reports_pass() {
        let r = report(
            "fig16_partitioners",
            "partitioners",
            vec![fig16_row("timestamps", "LeCo-var", "4.7%")],
        );
        assert!(compare_reports(&r, &r, 0.5).is_empty());
    }

    #[test]
    fn perturbed_ratio_fails_exactly() {
        let base = report(
            "fig16_partitioners",
            "partitioners",
            vec![fig16_row("timestamps", "LeCo-var", "4.7%")],
        );
        let worse = report(
            "fig16_partitioners",
            "partitioners",
            vec![fig16_row("timestamps", "LeCo-var", "4.8%")],
        );
        let violations = compare_reports(&base, &worse, 0.5);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("ratio regressed"));
        // Improvements are not violations.
        assert!(compare_reports(&worse, &base, 0.5).is_empty());
        // #partitions is informational, not gated.
        let more_parts = report(
            "fig16_partitioners",
            "partitioners",
            vec![Json::Obj(vec![
                ("dataset".into(), Json::Str("timestamps".into())),
                ("partitioner".into(), Json::Str("LeCo-var".into())),
                ("compression ratio".into(), Json::Str("4.7%".into())),
                ("#partitions".into(), Json::Num(99.0)),
            ])],
        );
        assert!(compare_reports(&base, &more_parts, 0.5).is_empty());
    }

    #[test]
    fn throughput_uses_noise_tolerance_both_ways() {
        let row = |rps: f64| {
            Json::Obj(vec![
                ("threads".into(), Json::Num(1.0)),
                ("rows_per_second".into(), Json::Num(rps)),
                ("wall_seconds".into(), Json::Num(1.0)),
            ])
        };
        let base = report("scan", "scaling", vec![row(1.0e7)]);
        let within = report("scan", "scaling", vec![row(0.8e7)]);
        let beyond = report("scan", "scaling", vec![row(0.4e7)]);
        assert!(compare_reports(&base, &within, 0.5).is_empty());
        let violations = compare_reports(&base, &beyond, 0.5);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].message.contains("throughput regressed"));
    }

    #[test]
    fn latency_direction_is_lower_better() {
        let row = |label: &str, ns: &str| {
            Json::Obj(vec![
                ("dataset".into(), Json::Str(label.into())),
                ("LeCo".into(), Json::Str(ns.into())),
            ])
        };
        let base = report("fig10_micro", "access_ns", vec![row("linear", "100ns")]);
        let slower = report("fig10_micro", "access_ns", vec![row("linear", "190ns")]);
        let way_slower = report("fig10_micro", "access_ns", vec![row("linear", "400ns")]);
        assert!(compare_reports(&base, &slower, 1.0).is_empty());
        assert_eq!(compare_reports(&base, &way_slower, 1.0).len(), 1);
    }

    #[test]
    fn missing_rows_and_sections_are_violations() {
        let base = report(
            "fig16_partitioners",
            "partitioners",
            vec![fig16_row("timestamps", "LeCo-var", "4.7%")],
        );
        let empty = report("fig16_partitioners", "partitioners", vec![]);
        assert_eq!(compare_reports(&base, &empty, 0.5).len(), 1);
        let no_section = report("fig16_partitioners", "other", vec![]);
        assert_eq!(compare_reports(&base, &no_section, 0.5).len(), 1);
    }

    #[test]
    fn n_a_cells_are_skipped() {
        let row = |cell: &str| {
            Json::Obj(vec![
                ("dataset".into(), Json::Str("movieid".into())),
                ("Elias-Fano".into(), Json::Str(cell.into())),
            ])
        };
        let base = report("fig10_micro", "ratio", vec![row("n/a")]);
        let cur = report("fig10_micro", "ratio", vec![row("n/a")]);
        assert!(compare_reports(&base, &cur, 0.5).is_empty());
    }

    #[test]
    fn model_share_column_is_informational() {
        // Shrinking the payload raises the model *share* even though every
        // actual ratio improved; the gate must not fire on it.
        let row = |share: &str| {
            Json::Obj(vec![
                ("dataset".into(), Json::Str("linear".into())),
                ("LeCo".into(), Json::Str("5.0%".into())),
                ("LeCo model%".into(), Json::Str(share.into())),
            ])
        };
        let base = report("fig10_micro", "ratio", vec![row("17.1%")]);
        let cur = report("fig10_micro", "ratio", vec![row("19.0%")]);
        assert!(compare_reports(&base, &cur, 0.5).is_empty());
    }

    #[test]
    fn tolerances_at_or_above_one_still_gate() {
        let row = |rps: f64| {
            Json::Obj(vec![
                ("threads".into(), Json::Num(1.0)),
                ("rows_per_second".into(), Json::Num(rps)),
            ])
        };
        // tol = 3.0 means "within a factor of 4".
        let base = report("scan", "scaling", vec![row(4.0e7)]);
        let within = report("scan", "scaling", vec![row(1.1e7)]);
        let beyond = report("scan", "scaling", vec![row(0.9e7)]);
        assert!(compare_reports(&base, &within, 3.0).is_empty());
        assert_eq!(compare_reports(&base, &beyond, 3.0).len(), 1);
    }

    #[test]
    fn exact_metric_fails_in_both_directions() {
        let row = |v: f64| {
            Json::Obj(vec![
                ("metric".into(), Json::Str("scan.morsels".into())),
                ("value".into(), Json::Num(v)),
            ])
        };
        let base = report("scan_obs", "deterministic", vec![row(40.0)]);
        let same = report("scan_obs", "deterministic", vec![row(40.0)]);
        let more = report("scan_obs", "deterministic", vec![row(41.0)]);
        let fewer = report("scan_obs", "deterministic", vec![row(39.0)]);
        assert!(compare_reports(&base, &same, 0.5).is_empty());
        // Unlike RatioExact, *any* drift is a violation — an undercount is
        // as much a counting bug as an overcount.
        assert_eq!(compare_reports(&base, &more, 0.5).len(), 1);
        assert_eq!(compare_reports(&base, &fewer, 0.5).len(), 1);
    }

    #[test]
    fn serve_gate_holds_errors_exactly_and_tripwires_performance() {
        let row = |qps: f64, p50: f64, errors: f64| {
            Json::Obj(vec![
                ("connections".into(), Json::Num(8.0)),
                ("target_qps".into(), Json::Num(0.0)),
                ("requests".into(), Json::Num(3200.0)),
                ("qps".into(), Json::Num(qps)),
                ("p50_us".into(), Json::Num(p50)),
                ("p95_us".into(), Json::Num(900.0)),
                ("p99_us".into(), Json::Num(2000.0)),
                ("errors".into(), Json::Num(errors)),
            ])
        };
        let base = report("serve", "sweep", vec![row(10_000.0, 100.0, 0.0)]);
        // Jitter within the factor-of-4 band passes; tails never gate.
        let jitter = report("serve", "sweep", vec![row(4_000.0, 350.0, 0.0)]);
        assert!(compare_reports(&base, &jitter, 3.0).is_empty());
        // A single verification error fails regardless of tolerance.
        let one_error = report("serve", "sweep", vec![row(10_000.0, 100.0, 1.0)]);
        let violations = compare_reports(&base, &one_error, 3.0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].column, "errors");
        // Order-of-magnitude performance loss trips both directions' wires.
        let collapsed = report("serve", "sweep", vec![row(1_000.0, 2_000.0, 0.0)]);
        assert_eq!(compare_reports(&base, &collapsed, 3.0).len(), 2);
    }

    #[test]
    fn ingest_gate_holds_recovery_counts_exactly_and_tripwires_throughput() {
        let recovery_row = |recovered: f64, divergence: f64, rps: f64| {
            Json::Obj(vec![
                ("phase".into(), Json::Str("replay".into())),
                ("rows_recovered".into(), Json::Num(recovered)),
                ("replay_divergence".into(), Json::Num(divergence)),
                ("rows_per_second".into(), Json::Num(rps)),
            ])
        };
        let base = report("ingest", "recovery", vec![recovery_row(5000.0, 0.0, 1e6)]);
        // Throughput jitter within the factor-of-4 band passes.
        let jitter = report("ingest", "recovery", vec![recovery_row(5000.0, 0.0, 3e5)]);
        assert!(compare_reports(&base, &jitter, 3.0).is_empty());
        // A lost row fails regardless of tolerance — in either direction.
        let lost = report("ingest", "recovery", vec![recovery_row(4999.0, 0.0, 1e6)]);
        assert_eq!(compare_reports(&base, &lost, 3.0).len(), 1);
        let phantom = report("ingest", "recovery", vec![recovery_row(5001.0, 0.0, 1e6)]);
        assert_eq!(compare_reports(&base, &phantom, 3.0).len(), 1);
        // Any scan-visible divergence after replay is a correctness bug.
        let diverged = report("ingest", "recovery", vec![recovery_row(5000.0, 1.0, 1e6)]);
        let violations = compare_reports(&base, &diverged, 3.0);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].column, "replay_divergence");
        // An order-of-magnitude replay slowdown trips the wire.
        let slow = report("ingest", "recovery", vec![recovery_row(5000.0, 0.0, 2e5)]);
        assert_eq!(compare_reports(&base, &slow, 3.0).len(), 1);
    }

    #[test]
    fn overhead_gate_is_absolute() {
        let with_ratio = |ratio: f64| {
            report(
                "scan_obs",
                "overhead",
                vec![Json::Obj(vec![
                    ("experiment".into(), Json::Str("count_scan".into())),
                    ("overhead_ratio".into(), Json::Num(ratio)),
                ])],
            )
        };
        assert!(check_overhead(&with_ratio(0.02), 0.05).is_empty());
        // Negative overhead (obs-on happened to be faster) passes.
        assert!(check_overhead(&with_ratio(-0.01), 0.05).is_empty());
        let over = check_overhead(&with_ratio(0.09), 0.05);
        assert_eq!(over.len(), 1);
        assert!(over[0].message.contains("exceeds"));
        // A report without the section cannot silently pass the gate.
        let missing = report("scan_obs", "deterministic", vec![]);
        assert_eq!(check_overhead(&missing, 0.05).len(), 1);
    }

    #[test]
    fn parse_metric_strips_suffixes() {
        assert_eq!(parse_metric(&Json::Str("12.3%".into())), Some(12.3));
        assert_eq!(parse_metric(&Json::Str("45ns".into())), Some(45.0));
        assert_eq!(parse_metric(&Json::Str("2.30 GB/s".into())), Some(2.30));
        assert_eq!(parse_metric(&Json::Str("n/a".into())), None);
        assert_eq!(parse_metric(&Json::Num(7.5)), Some(7.5));
    }
}
