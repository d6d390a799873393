//! The `served-test` workload's client side: one connection to a running
//! `serve`, closed loop (each request waits for the previous reply).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use smt_experiments::sweep::{CellRecord, CellSpec, Grid, Scheduler};
use smt_serve::client::{Client, SubmitOutcome};

use crate::spans::Tracer;
use crate::{Counters, SplitMix};

/// Cached resubmissions after the cold submission of each pass.
const RESUBMITS: usize = 5;
/// Closed-loop `Client::fetch` lookups per pass (and in the traced run).
pub const LOOKUPS: usize = 2000;

pub struct ClientArgs {
    pub addr: String,
    pub seed: u64,
    pub results: PathBuf,
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn submit_grid(client: &mut Client) -> Result<SubmitOutcome, String> {
    client
        .submit(&[], Some("paper"), false, false, &mut |_| {})
        .map_err(|e| format!("submit failed: {e}"))
}

/// Failed operations of one submission: per-cell failures, plus (for a
/// resubmission over a warm store) any cell scheduled instead of served
/// from cache, and any byte difference from the first submission.
fn submit_failures(out: &SubmitOutcome, expect: Option<&str>) -> u64 {
    let mut failed = out.failed.len() as u64;
    if let Some(bytes) = expect {
        failed += out.scheduled + out.joined;
        failed += u64::from(out.results_json() != bytes);
    }
    failed
}

/// The lookup stream: `n` cells of the paper grid drawn with the seeded
/// generator, so a seed fixes the request order.
pub fn lookup_order(seed: u64, n: usize) -> Vec<CellSpec> {
    let cells = Grid::paper().cells();
    let mut rng = SplitMix::new(seed);
    (0..n)
        .map(|_| cells[rng.below(cells.len())].clone())
        .collect()
}

fn by_id(out: &SubmitOutcome) -> HashMap<String, CellRecord> {
    out.cells
        .iter()
        .map(|(_, rec)| (rec.id.clone(), rec.clone()))
        .collect()
}

fn list(values: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, v) in values.iter().enumerate() {
        let _ = write!(s, "{}{v}", if i == 0 { "" } else { "," });
    }
    s.push(']');
    s
}

/// Cold submission, cached resubmissions, then the seeded lookup stream,
/// with one connection open at a time: each submission on a connection
/// of its own (as separate `sweep-client submit` runs would make, and
/// timed with it), then one connection for all lookups. Prints the
/// timings and the operation counts as one JSON object.
pub fn client(a: &ClientArgs) -> Result<String, String> {
    let mut attempted = 0u64;
    let mut failed = 0u64;

    let t = Instant::now();
    let cold = submit_grid(&mut connect(&a.addr)?)?;
    let cold_s = t.elapsed().as_secs_f64();
    let bytes = cold.results_json();
    std::fs::write(&a.results, &bytes).map_err(|e| format!("{}: {e}", a.results.display()))?;
    attempted += cold.cells.len() as u64 + cold.failed.len() as u64;
    failed += submit_failures(&cold, None);

    let mut resubmit_s = Vec::with_capacity(RESUBMITS);
    for _ in 0..RESUBMITS {
        let t = Instant::now();
        let again = submit_grid(&mut connect(&a.addr)?)?;
        resubmit_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += u64::from(submit_failures(&again, Some(&bytes)) > 0);
    }

    let expected = by_id(&cold);
    let mut c = connect(&a.addr)?;
    let mut lookup_ms = Vec::with_capacity(LOOKUPS);
    for spec in lookup_order(a.seed, LOOKUPS) {
        let t = Instant::now();
        let got = c.fetch(&spec);
        lookup_ms.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += 1;
        let ok = matches!(&got, Ok(Some(rec)) if expected.get(&rec.id) == Some(rec));
        failed += u64::from(!ok);
    }
    let cycles: u64 = cold.cells.iter().map(|(_, r)| r.cycles).sum();
    Ok(format!(
        "{{\"cells\":{},\"cycles\":{cycles},\"cold_s\":{cold_s},\"resubmit_s\":{},\
         \"lookup_ms\":{},\"attempted\":{attempted},\"failed\":{failed}}}",
        cold.cells.len(),
        list(&resubmit_s),
        list(&lookup_ms),
    ))
}

/// The traced `served-test` client: the same cold submission, one cached
/// resubmission and the same lookup stream as [`client`], on the same
/// connections, with spans around every client call, and each lookup
/// paired with an in-process [`Scheduler::probe`] of the same cell on the
/// server's store (`store`) so that the socket's share (`serve.wire_ms`)
/// can be told apart from the store's. Returns the served records for
/// the caller's replay checks.
pub fn trace_client(
    tr: &mut Tracer,
    n: &mut Counters,
    addr: &str,
    store: &Scheduler,
    seed: u64,
) -> Result<SubmitOutcome, String> {
    let cold = tr.span("serve.submit", 0, || submit_grid(&mut connect(addr)?))?;
    let bytes = tr.span("json.render", 0, || cold.results_json());
    n.add("json.bytes", bytes.len() as u64);
    n.add(
        "attempted",
        cold.cells.len() as u64 + cold.failed.len() as u64,
    );
    n.add("failed", submit_failures(&cold, None));
    let again = tr.span("serve.submit", 1, || submit_grid(&mut connect(addr)?))?;
    n.add("attempted", 1);
    n.add(
        "failed",
        u64::from(submit_failures(&again, Some(&bytes)) > 0),
    );

    let expected = by_id(&cold);
    let mut c = connect(addr)?;
    for (i, spec) in lookup_order(seed, LOOKUPS).iter().enumerate() {
        let id = i as u64;
        let lookup = tr.begin("lookup", id);
        let got = tr.span("serve.fetch", id, || c.fetch(spec));
        let probed = tr.span("store.probe", id, || store.probe(spec));
        tr.end(lookup);
        n.add(
            if probed.is_some() {
                "store.hits"
            } else {
                "store.misses"
            },
            1,
        );
        n.add("attempted", 1);
        let ok = matches!(&got, Ok(Some(rec))
            if expected.get(&rec.id) == Some(rec) && probed.as_ref() == Some(rec));
        n.add("failed", u64::from(!ok));
    }
    c.shutdown().map_err(|e| format!("shutdown failed: {e}"))?;
    Ok(cold)
}
