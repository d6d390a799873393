//! Warn-only CI perf gate: compares a fresh `sim_throughput --json` dump
//! against the newest recorded entry in the repo-root trajectory file
//! (`BENCH_sim_throughput.json`) and emits a GitHub `::warning::`
//! annotation for every `simulate/*` case that regressed by more than the
//! threshold.
//!
//! ```text
//! cargo run -p smt-bench --bin perf_gate -- bench_smoke.json BENCH_sim_throughput.json
//! ```
//!
//! The exit code is always 0: shared CI runners are far too noisy to gate
//! a merge on throughput (single-digit-percent signal under tens-of-percent
//! noise), so the gate's job is to leave a visible annotation a human can
//! weigh, not to block.

use std::process::ExitCode;

use smt_experiments::json::{parse_value, Value};

/// Regression threshold: warn when `current / recorded < 0.85`.
const THRESHOLD: f64 = 0.85;

/// The members of a top-level JSON object; empty for anything else
/// (unreadable or malformed input leaves nothing to compare).
fn members(text: &str) -> Vec<(String, Value)> {
    match parse_value(text) {
        Ok(Value::Object(members)) => members,
        _ => Vec::new(),
    }
}

/// The `case → Mcycles/s` numbers among `members`, in order.
fn mcycles(members: &[(String, Value)]) -> Vec<(String, f64)> {
    members
        .iter()
        .filter_map(|(k, v)| Some((k.strip_suffix("/mcycles_per_s")?.to_string(), v.as_f64()?)))
        .collect()
}

/// The flat `case → Mcycles/s` map of a `--json` bench dump.
fn bench_cases(text: &str) -> Vec<(String, f64)> {
    mcycles(&members(text))
}

/// The newest `pr*` entry of the trajectory file: its direct
/// `case → Mcycles/s` children (ratio blocks like `vs_pr6` are nested
/// objects, not numbers, and drop out).
fn last_recorded(text: &str) -> (String, Vec<(String, f64)>) {
    members(text)
        .iter()
        .rev()
        .find_map(|(k, v)| match v {
            Value::Object(entry) if k.starts_with("pr") => Some((k.clone(), mcycles(entry))),
            _ => None,
        })
        .unwrap_or_default()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [current_path, recorded_path] = args.as_slice() else {
        eprintln!("usage: perf_gate <bench.json> <BENCH_sim_throughput.json>");
        // Even usage errors stay warn-only in CI; the harness bitrot shows
        // up in the step log either way.
        return ExitCode::SUCCESS;
    };
    let read = |p: &String| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            println!("::warning::perf-gate: cannot read {p}: {e}");
            String::new()
        })
    };
    let current = bench_cases(&read(current_path));
    let (entry, recorded) = last_recorded(&read(recorded_path));
    if entry.is_empty() || current.is_empty() {
        println!(
            "::warning::perf-gate: nothing to compare (no recorded entry or empty bench dump)"
        );
        return ExitCode::SUCCESS;
    }
    let mut warned = 0;
    let mut compared = 0;
    for (case, was) in &recorded {
        // Only the end-to-end simulation cases: the micro cases swing too
        // hard on shared runners to be worth an annotation each.
        if !case.starts_with("simulate/") {
            continue;
        }
        let Some((_, now)) = current.iter().find(|(c, _)| c == case) else {
            println!(
                "::warning::perf-gate: {case} recorded in {entry} but missing from the bench dump"
            );
            warned += 1;
            continue;
        };
        compared += 1;
        let ratio = now / was;
        if ratio < THRESHOLD {
            println!(
                "::warning::perf-gate: {case} at {now:.2} Mcycles/s is {ratio:.2}x the {entry} \
                 record ({was:.2}); >15% below — rerun interleaved A/B locally before trusting this"
            );
            warned += 1;
        }
    }
    println!("perf-gate: {compared} simulate/* cases compared against {entry}, {warned} warnings (informational only)");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRAJECTORY: &str = r#"{
      "_file": "doc { with braces } and \"quotes\"",
      "pr1": {
        "simulate/4thr/Matrix/mcycles_per_s": 2.0,
        "other/case/mcycles_per_s": 1.0
      },
      "pr2": {
        "simulate/4thr/Matrix/mcycles_per_s": 3.0,
        "simulate/4thr/LL7/mcycles_per_s": 1.5,
        "vs_pr1": {
          "simulate/4thr/Matrix": 1.5,
          "note": "prose: 10% faster { unbalanced"
        }
      }
    }"#;

    #[test]
    fn last_entry_wins_and_nested_ratios_are_excluded() {
        let (entry, cases) = last_recorded(TRAJECTORY);
        assert_eq!(entry, "pr2");
        assert_eq!(
            cases,
            vec![
                ("simulate/4thr/Matrix".to_string(), 3.0),
                ("simulate/4thr/LL7".to_string(), 1.5),
            ]
        );
    }

    #[test]
    fn bench_dump_parses_flat_cases() {
        let dump = r#"{"mode": "smoke",
            "simulate/4thr/Matrix/mcycles_per_s": 2.5,
            "simulate/4thr/Matrix/best_ms": 0.4,
            "simulate/4thr/Matrix/cycles": 1006}"#;
        let cases = bench_cases(dump);
        assert_eq!(cases, vec![("simulate/4thr/Matrix".to_string(), 2.5)]);
    }

    #[test]
    fn the_recorded_trajectory_selects_its_newest_entry() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_sim_throughput.json"
        );
        let text = std::fs::read_to_string(path).expect("trajectory file is readable");
        let (entry, cases) = last_recorded(&text);
        assert_eq!(entry, "pr7");
        let names: Vec<&str> = cases.iter().map(|(c, _)| c.as_str()).collect();
        assert_eq!(
            names,
            [
                "simulate/4thr/Matrix",
                "simulate/4thr/LL7",
                "simulate/4thr/Sieve",
                "store_forwarding/4thr/dense",
                "store_forwarding/4thr/deep_su",
                "fetch_policy_overhead/TrueRoundRobin",
                "fetch_policy_overhead/MaskedRoundRobin",
                "fetch_policy_overhead/ConditionalSwitch",
                "trace_overhead/matrix/off",
                "trace_overhead/matrix/cpi_stack",
                "trace_overhead/matrix/full_tracer",
                "functional_interpreter/matrix",
            ]
        );
        assert_eq!(cases[0].1, 3.13);
    }
}
