//! Sweep-as-a-service: the design-space engine behind a TCP socket.
//!
//! `smt-serve` wraps the sweep machinery
//! ([`smt_experiments::sweep`]) in a persistent daemon. A server owns a
//! content-addressed cell store and a worker pool; clients connect over
//! TCP, speak newline-delimited JSON ([`proto`]), and submit single
//! cells or whole grids. Cells already in the store are answered from
//! cache in microseconds; misses are simulated once — concurrent
//! submissions of the same cell share one execution — and streamed back
//! as they finish, optionally with per-quantum progress telemetry and a
//! live CPI-stack breakdown.
//!
//! Because the store is the same atomic tmp+rename cell cache the
//! `sweep` binary uses, several server processes can share one store
//! directory for multi-process scale-out, and results served over the
//! socket are byte-identical to a direct run's `results.json` (the
//! black-box suite asserts this).
//!
//! Modules:
//!
//! - [`proto`] — wire format: requests, responses, spec/record codecs.
//! - [`server`] — accept loop, worker pool, in-flight dedup, shutdown.
//! - [`client`] — blocking client used by `sweep-client` and the tests.

pub mod client;
pub mod proto;
pub mod server;
