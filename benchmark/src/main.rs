//! `stack_bench` — the repo's benchmark. See `benchmark/README.md`.
//!
//! `stack_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process, prints every metric by name with its
//! unit on stderr, and prints one JSON object as the last line of stdout.
//! `stack_bench compare <setA.jsonl> <setB.jsonl> [--record <file>]` is the
//! repeatability report behind `repeat.sh`.

mod compare;
mod harness;
mod json;
mod layers;
mod load;
mod metrics;
mod ops;
mod stats;
mod sys;
mod trace;
mod workloads;

use harness::{Outcome, Params};
use json::{obj, Value};
use metrics::{MetricDef, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: stack_bench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       stack_bench compare <setA.jsonl> <setB.jsonl> [--record FILE]",
        metrics::WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

/// The result object: every metric of the pass that ran, by name. A layer
/// metric this workload does not measure reads 0.
fn result_json(outcome: &Outcome, defs: &[MetricDef]) -> Value {
    let metrics = defs
        .iter()
        .map(|def| {
            let value = outcome.metrics.get(def.name).unwrap_or(0.0);
            (
                def.name.to_string(),
                obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(def.unit.into())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Value::Bool(outcome.failed == 0)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare::main(&args[1..]);
    }
    let mut workload = None;
    let mut params = Params {
        seed: 1,
        seconds: harness::CALIBRATED_SECONDS,
        trace: false,
        mini: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| params.seed = v).is_ok(),
            "--seconds" => {
                value.parse().map(|v| params.seconds = v).is_ok() && params.seconds > 0.0
            }
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    params.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !parsed {
            return usage();
        }
    }
    let Some(workload) = workload else {
        return usage();
    };

    let outcome = match workloads::run(&workload, &params) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("stack_bench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if params.trace { PER_LAYER } else { END_TO_END };
    let pass = if params.trace { "traced" } else { "untraced" };
    eprintln!(
        "# {workload} ({pass}, seed {}, {} s): attempted {} failed {} failed_ratio {}",
        params.seed,
        params.seconds,
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for def in defs {
        if let Some(value) = outcome.metrics.get(def.name) {
            eprintln!(
                "{:<36} {:>18.4} {:<8} ({} is better)",
                def.name, value, def.unit, def.better
            );
        }
    }
    println!("{}", result_json(&outcome, defs).render());
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Measured;

    #[test]
    fn result_json_reparses_with_exactly_the_contract_keys() {
        for defs in [END_TO_END, PER_LAYER] {
            let mut metrics = Measured::default();
            metrics.set(defs[0].name, 1.2034);
            let outcome = Outcome {
                attempted: 1000,
                failed: 0,
                metrics,
            };
            let text = result_json(&outcome, defs).render();
            assert!(!text.contains('\n'));
            let back = json::parse(&text).unwrap();
            let keys: Vec<&str> = back
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(back.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(back.get("attempted").unwrap().as_f64(), Some(1000.0));
            let listed = back.get("metrics").unwrap().as_obj().unwrap();
            assert_eq!(listed.len(), defs.len());
            for ((name, entry), def) in listed.iter().zip(defs) {
                assert_eq!(name, def.name);
                assert_eq!(entry.get("unit").unwrap().as_str(), Some(def.unit));
                assert!(entry.get("value").unwrap().as_f64().is_some());
                assert_eq!(entry.as_obj().unwrap().len(), 2);
            }
            assert_eq!(listed[0].1.get("value").unwrap().as_f64(), Some(1.2034));
        }
    }
}
