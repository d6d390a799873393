//! Regenerates every table and figure of the paper's evaluation.
//!
//! One path at every worker count: the demanded simulations are first
//! *recorded* (no execution), then prewarmed on `--workers` pool threads
//! (default: every core), and finally the tables are generated from the
//! warmed memo — byte-identical at any worker count. See `runner.rs` for
//! the mechanism.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin report            # paper scale
//! cargo run --release -p smt-experiments --bin report -- --test  # tiny inputs
//! cargo run --release -p smt-experiments --bin report -- --json results.json
//! cargo run --release -p smt-experiments --bin report -- --workers 1
//! cargo run --release -p smt-experiments --bin report -- --perf results/report_perf.json
//! ```

use std::io::Write as _;
use std::time::Instant;

use smt_experiments::runner::Runner;
use smt_experiments::{figures, flag_value, json, Cell};
use smt_workloads::Scale;

fn write_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        }
    }
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
    f.write_all(contents.as_bytes())
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--test") {
        Scale::Test
    } else {
        Scale::Paper
    };
    let json_path = flag_value(&args, "--json");
    let perf_path = flag_value(&args, "--perf");
    let workers = flag_value(&args, "--workers").map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |n| n.parse().expect("--workers takes a positive integer"),
    );

    let start = Instant::now();
    // Recording pass: collect every simulation the generators demand.
    let mut recorder = Runner::recorder(scale);
    for (_, generator) in figures::all() {
        let _ = generator(&mut recorder);
    }
    let jobs = recorder.into_recorded();
    eprintln!(
        "[report] prewarming {} demanded simulations on {workers} workers …",
        jobs.len()
    );
    let mut runner = Runner::new(scale);
    runner.prewarm(&jobs, workers);
    eprintln!(
        "[report]   prewarmed {} unique runs in {:.1}s",
        runner.runs(),
        start.elapsed().as_secs_f64()
    );

    let mut tables = Vec::new();
    for (name, generator) in figures::all() {
        eprintln!("[report] generating {name} …");
        let gen_start = Instant::now();
        let table = generator(&mut runner);
        eprintln!(
            "[report]   {name} done in {:.1}s ({} simulations so far)",
            gen_start.elapsed().as_secs_f64(),
            runner.runs()
        );
        println!("{table}");
        tables.push(table);
    }
    let wall = start.elapsed().as_secs_f64();
    let cycles = runner.sim_cycles();
    eprintln!(
        "[report] total verified simulations: {} ({} simulated cycles, {:.1}s wall, \
         {:.0} simulated cycles/s)",
        runner.runs(),
        cycles,
        wall,
        cycles as f64 / wall
    );

    if let Some(path) = json_path {
        write_file(&path, &json::tables_to_json(&tables));
        eprintln!("[report] wrote {path}");
    }
    if let Some(path) = perf_path {
        let perf = json::object_to_json(&[
            ("scale", Cell::Text(format!("{scale:?}"))),
            ("workers", Cell::Int(workers as u64)),
            ("simulations", Cell::Int(runner.runs())),
            ("simulated_cycles", Cell::Int(cycles)),
            ("wall_seconds", Cell::Float(wall)),
            (
                "simulated_cycles_per_second",
                Cell::Float(cycles as f64 / wall),
            ),
        ]);
        write_file(&path, &perf);
        eprintln!("[report] wrote {path}");
    }
}
