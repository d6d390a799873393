//! The persistent simulation server.
//!
//! Binds a TCP listener, opens (or creates) a content-addressed cell
//! store, and serves the line-delimited JSON protocol until a client
//! sends `shutdown`. Several servers may share one `--store` directory
//! — every store write is atomic tmp+rename, so concurrent processes
//! de-duplicate through the filesystem.
//!
//! ```text
//! cargo run --release -p smt-serve --bin serve -- --store target/serve
//! cargo run --release -p smt-serve --bin serve -- \
//!     --addr 127.0.0.1:7711 --store target/serve --scale paper --workers 8
//! cargo run --release -p smt-serve --bin serve -- \
//!     --store target/serve --corpus corpus
//! ```
//!
//! `--corpus <dir>` attaches an on-disk workload corpus: submissions may
//! then name corpus kernels and `'+'`-joined per-thread mixes
//! (`mpd+matmul`) as workloads.
//!
//! The first stdout line is always
//! `serve: listening on <ip>:<port> (...)` — scripts and the test
//! suites parse it to learn the ephemeral port when `--addr` ends in
//! `:0` (the default).

use std::path::PathBuf;
use std::sync::Arc;

use smt_corpus::Corpus;
use smt_experiments::flag_value;
use smt_experiments::sweep::SweepOptions;
use smt_serve::server::Server;
use smt_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store = PathBuf::from(
        flag_value(&args, "--store").expect("--store <dir> is required (the shared cell store)"),
    );
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".to_string());
    let scale = match flag_value(&args, "--scale").as_deref() {
        None | Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
        Some(other) => panic!("--scale takes test|paper, not {other}"),
    };
    let mut opts = SweepOptions {
        scale,
        ..SweepOptions::default()
    };
    if let Some(w) = flag_value(&args, "--workers") {
        opts.workers = w.parse().expect("--workers takes a positive integer");
        assert!(opts.workers > 0, "--workers takes a positive integer");
    }
    if let Some(n) = flag_value(&args, "--checkpoint-every") {
        let n: u64 = n.parse().expect("--checkpoint-every takes a cycle count");
        assert!(n > 0, "--checkpoint-every takes a positive cycle count");
        opts.checkpoint_every = Some(n);
    }
    if let Some(v) = flag_value(&args, "--code-version") {
        opts.code_version = v;
    }
    // With a corpus attached, submissions may name corpus kernels and
    // '+'-joined per-thread mixes; without one, such cells are refused
    // with a typed error at admission.
    if let Some(dir) = flag_value(&args, "--corpus") {
        let corpus = Corpus::load(&dir)
            .unwrap_or_else(|e| panic!("--corpus {dir}: cannot load the workload corpus: {e}"));
        opts.corpus = Some(Arc::new(corpus));
    }

    let workers = opts.workers;
    let server = Server::start(&addr, &store, opts).expect("serve: bind/store failed");
    // Scripts parse this exact first line for the bound port.
    println!(
        "serve: listening on {} ({} workers, store {})",
        server.addr(),
        workers,
        store.display()
    );
    server.join();
    println!("serve: shut down");
}
