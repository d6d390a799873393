//! Report goldens: every table `report --test` prints, Markdown and JSON,
//! must match the committed goldens byte for byte — whether the runner
//! demands its simulations lazily, one generator at a time, or records
//! them first and prewarms them on a worker pool, as the `report` binary
//! does.
//!
//! To regenerate after an *intentional* change to a table, run:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test report_golden
//! ```
//!
//! and commit the updated `tests/goldens/report_test.{md,json}` together
//! with an explanation of why the tables legitimately changed.

mod support;

use smt_experiments::runner::Runner;
use smt_experiments::{figures, json, Table};
use smt_workloads::Scale;

const MARKDOWN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens/report_test.md");
const JSON_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/goldens/report_test.json"
);

fn render(runner: &mut Runner) -> Vec<Table> {
    figures::all()
        .into_iter()
        .map(|(_, generator)| generator(runner))
        .collect()
}

/// Checks the tables as `report --test` prints them (each table followed
/// by a blank line) and as `report --test --json` writes them.
fn check(tables: &[Table]) {
    let markdown: String = tables.iter().map(|t| format!("{t}\n")).collect();
    support::check_golden(MARKDOWN_PATH, &markdown);
    support::check_golden(JSON_PATH, &json::tables_to_json(tables));
}

#[test]
fn lazily_demanded_report_matches_goldens() {
    check(&render(&mut Runner::new(Scale::Test)));
}

#[test]
fn prewarmed_report_matches_goldens() {
    let mut recorder = Runner::recorder(Scale::Test);
    render(&mut recorder);
    let jobs = recorder.into_recorded();
    let mut runner = Runner::new(Scale::Test);
    runner.prewarm(&jobs, 3);
    let prewarmed = runner.runs();
    check(&render(&mut runner));
    assert_eq!(
        runner.runs(),
        prewarmed,
        "generation after a prewarm is all memo hits"
    );
}
