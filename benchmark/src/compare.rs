//! `stack_bench compare <setA.jsonl> <setB.jsonl> [--record FILE]`: the
//! repeatability report. A set is what `run.sh` writes: one line per
//! (workload, pass), `{"workload":…,"trace":0|1,"seed":…,"result":{…}}`.
//! Prints both medians (over a set's passes) of every (metric, workload)
//! pair with their relative gap. Fails when two runs of the same code
//! disagree by more than a metric's bound, or at all on a metric that must
//! repeat exactly; when a pass or a metric is missing from a set; when
//! tracing costs more than `MAX_TRACE_OVERHEAD`; and on any failed operation.

use crate::json::{obj, parse, Value};
use crate::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;

/// Metrics that are pure functions of the seed: two sets must agree exactly.
const EXACT: &[(&str, &[&str])] = &[
    ("stored_bytes_per_user_byte", &["codec", "scan", "lookup"]),
    ("core.decoded_fraction", &["codec"]),
    ("core.partitions_var", &["codec"]),
    ("core.ratio_fix", &["codec"]),
    ("core.ratio_var", &["codec"]),
    ("columnar.decoded_fraction", &["scan"]),
    ("scan.pruned_fraction", &["scan"]),
    ("scan.morsels_per_query", &["scan"]),
    ("kvstore.index_bytes_per_key", &["lookup"]),
];

/// Metrics one workload alone has, which the result line therefore cannot
/// carry as end-to-end metrics (every workload prints every one of those):
/// each is gated here, on its own, in its home workload, so that no class of
/// `codec` op hides in the blend that is `codec`'s `ops_s`. (The serialise
/// round trip, 0.4 % of that blend, is reported but not gated: its rates
/// moved 25 % between passes of the same code.)
const GATED: &[(&str, &str, f64)] = &[
    ("core.compress_fix_mb_s", "codec", 0.10),
    ("core.compress_var_mb_s", "codec", 0.10),
    ("core.decode_gib_s", "codec", 0.10),
    ("core.access_ns", "codec", 0.10),
    ("core.filter_rows_s", "codec", 0.10),
    ("ingest.write_bytes_per_user_byte", "ingest", 0.05),
];

/// The end-to-end metrics that are medians over a pass's rounds: where the
/// rounds themselves disagree by more than the bound, a pair within the
/// bound is unresolved, not unchanged.
const ROUND_MEDIANS: &[&str] = &["ops_s", "lat_p50_us", "lat_p99_us"];

/// `bench.trace_overhead_ratio` above this fails the report.
const MAX_TRACE_OVERHEAD: f64 = 0.05;

/// How a (metric, workload) pair is judged.
enum Rule {
    Exact,
    /// Relative gap between the sets' medians.
    Bound(f64),
    /// The median over the passes of both sets together (a property of the
    /// benchmark, not of a set) above this. Where those passes' quartiles are
    /// themselves further apart than this, the pair is unresolved instead: a
    /// single `ingest` pass reads its tracing cost no better than ± 0.08.
    AtMost(f64),
    Reported,
}

fn rule(name: &str, workload: &str, end_to_end_bound: Option<f64>) -> Rule {
    if EXACT
        .iter()
        .any(|(n, ws)| *n == name && ws.contains(&workload))
    {
        Rule::Exact
    } else if let Some(bound) = end_to_end_bound {
        Rule::Bound(bound)
    } else if let Some(&(_, _, bound)) = GATED.iter().find(|g| g.0 == name && g.1 == workload) {
        Rule::Bound(bound)
    } else if name == "bench.trace_overhead_ratio" {
        Rule::AtMost(MAX_TRACE_OVERHEAD)
    } else {
        Rule::Reported
    }
}

struct Set {
    lines: Vec<Value>,
}

impl Set {
    fn read(path: &str) -> Result<Set, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Set::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn parse(text: &str) -> Result<Set, String> {
        let lines = text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(parse)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Set { lines })
    }

    /// The set's passes of `workload` with that trace setting.
    fn of<'a>(&'a self, workload: &'a str, trace: bool) -> impl Iterator<Item = &'a Value> {
        self.lines.iter().filter(move |l| {
            l.get("workload").and_then(Value::as_str) == Some(workload)
                && l.get("trace").and_then(Value::as_f64) == Some(trace as u8 as f64)
        })
    }

    /// `name` in each of the set's passes of `workload` with that trace
    /// setting (`repeat.sh` makes several passes of each kind per set).
    fn values(&self, workload: &str, trace: bool, name: &str) -> Vec<f64> {
        self.of(workload, trace)
            .filter_map(|l| {
                l.get("result")?
                    .get("metrics")?
                    .get(name)?
                    .get("value")?
                    .as_f64()
            })
            .collect()
    }

    /// Median of `name` over those passes.
    fn metric(&self, workload: &str, trace: bool, name: &str) -> Option<f64> {
        let values = self.values(workload, trace, name);
        (!values.is_empty()).then(|| crate::stats::median(&values))
    }

    fn passes(&self, workload: &str, trace: bool) -> usize {
        self.of(workload, trace).count()
    }

    fn failed(&self) -> f64 {
        self.lines
            .iter()
            .filter_map(|l| l.get("result")?.get("failed")?.as_f64())
            .sum()
    }
}

pub fn main(args: &[String]) -> ExitCode {
    let (Some(path_a), Some(path_b)) = (args.first(), args.get(1)) else {
        eprintln!("usage: stack_bench compare <setA.jsonl> <setB.jsonl> [--record FILE]");
        return ExitCode::from(2);
    };
    let record = args
        .iter()
        .position(|a| a == "--record")
        .and_then(|i| args.get(i + 1));
    let (a, b) = match (Set::read(path_a), Set::read(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("stack_bench compare: {e}");
            return ExitCode::FAILURE;
        }
    };

    let over = report(&a, &b);
    let failed = a.failed() + b.failed();
    println!("\nfailed operations over both sets: {failed}; pairs over their bound, not identical or missing: {over}");
    if let Some(path) = record {
        let fingerprint = crate::sys::fingerprint()
            .into_iter()
            .map(|(k, v)| (k, Value::Str(v)))
            .collect();
        let doc = obj(vec![
            ("note", Value::Str("two sets of passes of the same code, taking turns (benchmark/repeat.sh); end-to-end numbers come from untraced passes".into())),
            ("claim", Value::Null),
            ("machine", obj(fingerprint)),
            ("set_a", Value::Arr(a.lines)),
            ("set_b", Value::Arr(b.lines)),
        ]);
        if let Err(e) = std::fs::write(path, doc.render() + "\n") {
            eprintln!("stack_bench compare: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if over == 0 && failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print the report; returns how many pairs are over their bound, not
/// identical, missing, or short of passes.
fn report(a: &Set, b: &Set) -> usize {
    let mut over = 0;
    for workload in WORKLOADS {
        for trace in [false, true] {
            let (na, nb) = (a.passes(workload, trace), b.passes(workload, trace));
            if na == 0 || na != nb {
                let pass = if trace { "traced" } else { "untraced" };
                println!("{workload}: {na} {pass} passes in set A, {nb} in set B");
                over += 1;
            }
        }
    }
    println!(
        "{:<34} {:<8} {:>16} {:>16} {:>9} {:>7}",
        "metric", "workload", "set A", "set B", "gap", "bound"
    );
    for (defs, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
        for def in defs {
            for workload in WORKLOADS {
                let (Some(va), Some(vb)) = (
                    a.metric(workload, trace, def.name),
                    b.metric(workload, trace, def.name),
                ) else {
                    println!("{:<34} {:<8} missing from a set", def.name, workload);
                    over += 1;
                    continue;
                };
                let rule = rule(def.name, workload, (!trace).then_some(def.bound));
                if trace && va == 0.0 && vb == 0.0 && matches!(rule, Rule::Reported) {
                    continue; // a layer this workload does not exercise
                }
                let gap = if va == 0.0 {
                    0.0
                } else {
                    (vb - va).abs() / va.abs()
                };
                let mut unresolved = None;
                let (bound, verdict) = match rule {
                    Rule::Exact => ("exact".to_string(), (va != vb).then_some("NOT IDENTICAL")),
                    Rule::Bound(bound) => (
                        format!("{bound:.2}"),
                        (va == 0.0 || vb == 0.0 || gap > bound).then_some("OVER BOUND"),
                    ),
                    Rule::AtMost(most) => {
                        let mut pooled = a.values(workload, trace, def.name);
                        pooled.extend(b.values(workload, trace, def.name));
                        let (q1, q3) = crate::stats::quartiles(&pooled);
                        let resolved = q3 - q1 <= most;
                        if !resolved {
                            unresolved =
                                Some("UNRESOLVED (passes disagree by more than the limit)");
                        }
                        (
                            format!("<={most:.2}"),
                            (resolved && crate::stats::median(&pooled) > most)
                                .then_some("TOO HIGH"),
                        )
                    }
                    Rule::Reported => ("-".to_string(), None),
                };
                if verdict.is_some() {
                    over += 1;
                } else if ROUND_MEDIANS.contains(&def.name) {
                    let spread = |set: &Set| set.metric(workload, true, "bench.round_spread");
                    let rounds = spread(a).unwrap_or(0.0).max(spread(b).unwrap_or(0.0));
                    if rounds > def.bound {
                        unresolved = Some("UNRESOLVED (bench.round_spread over the bound)");
                    }
                }
                println!(
                    "{:<34} {:<8} {:>16.4} {:>16.4} {:>8.2}% {:>7}  {}",
                    def.name,
                    workload,
                    va,
                    vb,
                    gap * 100.0,
                    bound,
                    verdict.or(unresolved).unwrap_or("")
                );
            }
        }
    }
    over
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Outcome;
    use crate::metrics::Measured;

    /// A set with one untraced and one traced pass per workload, every
    /// metric at `value(name, workload)`, less the pass named by `skip`.
    fn set(value: impl Fn(&str, &str) -> f64, skip: Option<(&str, bool)>) -> Set {
        let mut lines = Vec::new();
        for workload in WORKLOADS {
            for (defs, trace) in [(END_TO_END, false), (PER_LAYER, true)] {
                if skip == Some((workload, trace)) {
                    continue;
                }
                let mut metrics = Measured::default();
                for def in defs {
                    metrics.set(def.name, value(def.name, workload));
                }
                let outcome = Outcome {
                    attempted: 100,
                    failed: 0,
                    metrics,
                };
                lines.push(obj(vec![
                    ("workload", Value::Str(workload.to_string())),
                    ("trace", Value::Num(trace as u8 as f64)),
                    ("seed", Value::Num(1.0)),
                    ("result", crate::result_json(&outcome, defs)),
                ]));
            }
        }
        let text: Vec<String> = lines.iter().map(Value::render).collect();
        Set::parse(&text.join("\n")).unwrap()
    }

    fn base(name: &str, _workload: &str) -> f64 {
        match name {
            "bench.trace_overhead_ratio" => 0.01,
            "bench.round_spread" => 0.05,
            _ => 2.0,
        }
    }

    #[test]
    fn equal_sets_pass_and_a_missing_pass_fails() {
        assert_eq!(report(&set(base, None), &set(base, None)), 0);
        // A traced pass that died leaves no line: its exact metrics must not
        // pass for want of data.
        let lost = set(base, Some(("ingest", true)));
        assert!(report(&set(base, None), &lost) > 0);
        assert!(report(&lost, &lost) > 0);
    }

    #[test]
    fn each_gated_rate_is_held_to_its_own_bound() {
        for &(gated, home, bound) in GATED {
            let moved = |by: f64| {
                move |name: &str, workload: &str| {
                    base(name, workload)
                        * if name == gated && workload == home {
                            by
                        } else {
                            1.0
                        }
                }
            };
            let within = set(moved(1.0 - 0.8 * bound), None);
            let beyond = set(moved(1.0 - 1.5 * bound), None);
            assert_eq!(report(&set(base, None), &within), 0, "{gated}");
            assert_eq!(report(&set(base, None), &beyond), 1, "{gated}");
        }
    }

    #[test]
    fn exact_metrics_tracing_cost_and_end_to_end_bounds() {
        let with = |metric: &'static str, at: &'static str, v: f64| {
            move |name: &str, workload: &str| {
                if name == metric && workload == at {
                    v
                } else {
                    base(name, workload)
                }
            }
        };
        let reference = set(base, None);
        let inexact = set(with("scan.pruned_fraction", "scan", 2.0001), None);
        assert_eq!(report(&reference, &inexact), 1);
        let costly = set(with("bench.trace_overhead_ratio", "lookup", 0.08), None);
        assert_eq!(report(&costly, &costly), 1);
        // ... unless the passes disagree about it by more than the limit.
        let cheap = set(with("bench.trace_overhead_ratio", "lookup", -0.02), None);
        assert_eq!(report(&costly, &cheap), 0);
        let slower = set(with("ops_s", "lookup", 1.4), None);
        assert_eq!(report(&reference, &slower), 1);
        // Rounds that disagree by more than the bound mark a pair unresolved;
        // that is a label, not a failure.
        let restless = set(with("bench.round_spread", "ingest", 0.4), None);
        assert_eq!(report(&reference, &restless), 0);
    }
}
