//! The benchmark's Rust half: the parts of each workload that must call
//! the repository's public API in-process. `run.py` runs it.
//!
//! ```text
//! perfbench client --addr <ip:port> --seed <n> --results <file>
//! perfbench exec --stdout <file> --stderr <file> --timeout-s <n> \
//!     [--ready <path> [--ready-text <text>] [--stop-when-ready]] -- <program> [args...]
//! perfbench trace --workload <name> --seed <n> --dir <dir> --spans <file> [--addr <ip:port>]
//! ```
//!
//! `client` is the untraced `served-test` load generator: closed loop,
//! one connection open at a time. `exec` runs one program and reports
//! its wall time, when it became ready, and its own peak RSS (see
//! `launch.rs`). `trace` is the traced run: it repeats a workload's work
//! through public calls with a span around each call into a layer,
//! writes the spans to `--spans` and any outputs under `--dir` at the
//! end, and prints its counters as one JSON object on the last stdout
//! line.

mod launch;
mod served;
mod spans;
mod traced;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

/// Named counts a run reports, printed as one JSON object.
#[derive(Default)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.0.entry(name).or_insert(0) += n;
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":{v}");
        }
        out.push('}');
        out
    }
}

/// The splitmix64 generator: the benchmark's only source of randomness,
/// seeded from `--seed`.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn required(args: &[String], flag: &str) -> String {
    flag_value(args, flag).unwrap_or_else(|| {
        eprintln!("perfbench: {flag} is required");
        std::process::exit(2);
    })
}

fn number(args: &[String], flag: &str) -> u64 {
    required(args, flag).parse().unwrap_or_else(|_| {
        eprintln!("perfbench: {flag} takes a whole number");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("client") => served::client(&served::ClientArgs {
            addr: required(&args, "--addr"),
            seed: number(&args, "--seed"),
            results: PathBuf::from(required(&args, "--results")),
        }),
        Some("exec") => match args.iter().position(|a| a == "--") {
            Some(i) => {
                let opts = &args[..i];
                let ready = flag_value(opts, "--ready").map(|path| launch::Ready {
                    path: PathBuf::from(path),
                    text: flag_value(opts, "--ready-text"),
                    stop: opts.iter().any(|a| a == "--stop-when-ready"),
                });
                launch::exec(
                    &args[i + 1..],
                    &PathBuf::from(required(opts, "--stdout")),
                    &PathBuf::from(required(opts, "--stderr")),
                    Duration::from_secs(number(opts, "--timeout-s")),
                    ready.as_ref(),
                )
            }
            None => Err("exec needs -- <program> [args...]".to_string()),
        },
        Some("trace") => traced::trace(&traced::TraceArgs {
            workload: required(&args, "--workload"),
            seed: number(&args, "--seed"),
            dir: PathBuf::from(required(&args, "--dir")),
            spans: PathBuf::from(required(&args, "--spans")),
            addr: flag_value(&args, "--addr"),
        }),
        _ => Err("usage: perfbench client|exec|trace ... (see the crate docs)".to_string()),
    };
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
