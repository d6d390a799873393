//! Command-line client for the simulation server.
//!
//! ```text
//! sweep-client --addr 127.0.0.1:7711 ping
//! sweep-client --addr 127.0.0.1:7711 status
//! sweep-client --addr 127.0.0.1:7711 submit --grid paper --out results.json
//! sweep-client --addr 127.0.0.1:7711 submit \
//!     --cell '{"workload":"sieve","policy":"ic","threads":8}' --progress --cpi
//! sweep-client --addr 127.0.0.1:7711 fetch '{"workload":"sieve"}'
//! sweep-client --addr 127.0.0.1:7711 shutdown
//! ```
//!
//! `submit` prints one line per answered cell and, with `--out`, writes
//! the merged `results.json` — byte-identical to what a direct `sweep`
//! run over the same cells would produce. Exits nonzero if any cell
//! failed or the server refused the submission.

use std::process::ExitCode;

use smt_experiments::flag_value;
use smt_experiments::json::parse_value;
use smt_serve::client::Client;
use smt_serve::proto;

fn connect(args: &[String]) -> Client {
    let addr = flag_value(args, "--addr").expect("--addr <host:port> is required");
    Client::connect(&addr).unwrap_or_else(|e| panic!("sweep-client: cannot reach {addr}: {e}"))
}

fn parse_cell(text: &str) -> smt_experiments::sweep::CellSpec {
    let v = parse_value(text).unwrap_or_else(|e| panic!("--cell is not JSON: {e}"));
    proto::spec_from_value(&v).unwrap_or_else(|e| panic!("--cell is not a cell spec: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let verb = args
        .iter()
        .find(|a| !a.starts_with("--") && flag_value(&args, "--addr").as_deref() != Some(a))
        .cloned()
        .expect("usage: sweep-client --addr <host:port> ping|status|submit|fetch|shutdown …");

    match verb.as_str() {
        "ping" => {
            let pong = connect(&args).ping().expect("ping failed");
            println!("{}", pong.to_line());
        }
        "status" => {
            let status = connect(&args).status().expect("status failed");
            println!("{}", status.to_line());
        }
        "fetch" => {
            let spec_text = args
                .iter()
                .skip_while(|a| a.as_str() != "fetch")
                .nth(1)
                .expect("usage: sweep-client --addr <host:port> fetch '<cell json>'");
            let spec = parse_cell(spec_text);
            match connect(&args).fetch(&spec).expect("fetch failed") {
                Some(rec) => println!("{}: {} ipc={:?}", rec.id, rec.status.as_str(), rec.ipc),
                None => {
                    println!("{}: miss", spec.id());
                    return ExitCode::FAILURE;
                }
            }
        }
        "shutdown" => {
            connect(&args).shutdown().expect("shutdown failed");
            println!("sweep-client: server acknowledged shutdown");
        }
        "submit" => {
            let cells: Vec<_> = args
                .iter()
                .enumerate()
                .filter(|(_, a)| a.as_str() == "--cell")
                .map(|(i, _)| parse_cell(args.get(i + 1).expect("--cell takes a JSON cell spec")))
                .collect();
            let grid = flag_value(&args, "--grid");
            assert!(
                !cells.is_empty() || grid.is_some(),
                "submit needs --grid <name> and/or --cell '<json>'"
            );
            let progress = args.iter().any(|a| a == "--progress");
            let cpi = args.iter().any(|a| a == "--cpi");
            let outcome = connect(&args)
                .submit(&cells, grid.as_deref(), progress, cpi, &mut |p| {
                    eprintln!("… {} @ cycle {} ({} committed)", p.id, p.cycle, p.committed);
                })
                .expect("submit failed");
            for (_, rec) in &outcome.cells {
                println!("{}: {} ipc={:?}", rec.id, rec.status.as_str(), rec.ipc);
            }
            for (id, reason) in &outcome.failed {
                eprintln!("FAILED {id}: {reason}");
            }
            eprintln!(
                "sweep-client: {} cells ({} cached, {} scheduled, {} joined, {} failed)",
                outcome.cells.len() + outcome.failed.len(),
                outcome.cached,
                outcome.scheduled,
                outcome.joined,
                outcome.failed.len()
            );
            if let Some(path) = flag_value(&args, "--out") {
                std::fs::write(&path, outcome.results_json()).expect("writing --out failed");
                eprintln!("sweep-client: results at {path}");
            }
            if !outcome.failed.is_empty() {
                return ExitCode::FAILURE;
            }
        }
        other => panic!("unknown verb {other:?} (ping|status|submit|fetch|shutdown)"),
    }
    ExitCode::SUCCESS
}
