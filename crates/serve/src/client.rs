//! Blocking client for the serve protocol, used by the `sweep-client`
//! binary and the black-box test suites.
//!
//! The client owns one TCP connection and runs one request/response
//! exchange at a time. [`Client::submit`] streams: it forwards progress
//! events to a callback as they arrive and returns once the server's
//! `done` line lands, with every cell record reconstructed bit-exactly
//! — [`SubmitOutcome::results_json`] then renders the same bytes a direct
//! sweep's `results.json` would hold.

use std::fmt;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};

use smt_experiments::json::{write_json_line, Frame, JsonLineReader, Value};
use smt_experiments::sweep::{results_json, CellRecord, CellSpec};

use crate::proto::{self};

/// Anything that can go wrong talking to a server.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server's bytes did not follow the protocol (wrong type, bad
    /// frame, connection closed mid-exchange).
    Protocol(String),
    /// The server answered with a typed `error` response.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(s) => write!(f, "protocol violation: {s}"),
            ClientError::Server(s) => write!(f, "server error: {s}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One progress observation forwarded during [`Client::submit`].
#[derive(Clone, Debug)]
pub struct Progress {
    /// The simulating cell's id.
    pub id: String,
    /// Current simulated cycle.
    pub cycle: u64,
    /// Instructions committed so far.
    pub committed: u64,
}

/// What one submission produced.
#[derive(Clone, Debug)]
pub struct SubmitOutcome {
    /// Every produced cell, sorted by id — the sweep's merge order.
    pub cells: Vec<(CellSpec, CellRecord)>,
    /// Cells answered from the server's store without simulating.
    pub cached: u64,
    /// Cells the server scheduled fresh for this submission.
    pub scheduled: u64,
    /// Cells that joined an execution another submission started.
    pub joined: u64,
    /// Per-cell failures: `(cell id, reason)`.
    pub failed: Vec<(String, String)>,
}

impl SubmitOutcome {
    /// Renders the cells exactly as a direct sweep writes `results.json`
    /// (sorted, one object per cell, shortest-round-trip floats) — byte
    /// identity between served and direct results is the core contract.
    #[must_use]
    pub fn results_json(&self) -> String {
        results_json(&self.cells)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    frames: JsonLineReader<BufReader<TcpStream>>,
    out: TcpStream,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Fails on resolution or connection errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let out = TcpStream::connect(addr)?;
        Ok(Client {
            frames: JsonLineReader::new(BufReader::new(out.try_clone()?)),
            out,
        })
    }

    fn send(&mut self, req: &Value) -> Result<(), ClientError> {
        write_json_line(&mut self.out, req)?;
        Ok(())
    }

    /// Reads one response object, surfacing typed server errors.
    fn read_response(&mut self) -> Result<Value, ClientError> {
        match self.frames.next_value()? {
            None => Err(ClientError::Protocol(
                "connection closed mid-exchange".into(),
            )),
            Some(Frame::Value(v)) => {
                let kind = v
                    .get("type")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ClientError::Protocol("response without a type".into()))?;
                // A submit-stream per-cell error carries an id and is part
                // of the stream, not a terminal failure; only id-less
                // errors abort the exchange here.
                if kind == "error" && v.get("id").is_none() {
                    let reason = v
                        .get("reason")
                        .and_then(Value::as_str)
                        .unwrap_or("unspecified")
                        .to_string();
                    return Err(ClientError::Server(reason));
                }
                Ok(v)
            }
            Some(_) => Err(ClientError::Protocol(
                "server sent an unparseable line".into(),
            )),
        }
    }

    fn expect(&mut self, kind: &str) -> Result<Value, ClientError> {
        let v = self.read_response()?;
        let got = v.get("type").and_then(Value::as_str).unwrap_or("");
        if got == kind {
            Ok(v)
        } else {
            Err(ClientError::Protocol(format!(
                "expected a {kind:?} response, got {got:?}"
            )))
        }
    }

    /// Liveness probe; returns the server's `pong` (code version, scale,
    /// worker count).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn ping(&mut self) -> Result<Value, ClientError> {
        self.send(&verb("ping"))?;
        self.expect("pong")
    }

    /// Queue/worker/counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn status(&mut self) -> Result<Value, ClientError> {
        self.send(&verb("status"))?;
        self.expect("status")
    }

    /// Cache-only probe for one cell: its record if the server's store
    /// holds it, `None` on a miss. Never triggers simulation.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn fetch(&mut self, spec: &CellSpec) -> Result<Option<CellRecord>, ClientError> {
        self.send(&Value::Object(vec![
            ("verb".into(), "fetch".into()),
            ("cell".into(), proto::spec_to_value(spec)),
        ]))?;
        let v = self.read_response()?;
        match v.get("type").and_then(Value::as_str) {
            Some("cell") => {
                let (_, rec) = proto::parse_cell_response(&v).map_err(ClientError::Protocol)?;
                Ok(Some(rec))
            }
            Some("miss") => Ok(None),
            other => Err(ClientError::Protocol(format!(
                "expected cell|miss, got {other:?}"
            ))),
        }
    }

    /// Submits cells (and/or a named grid) and blocks until every one
    /// has been answered, forwarding progress events to `on_progress`.
    ///
    /// `cpi` asks the server to attach a live CPI-stack breakdown to
    /// freshly simulated cells (cached cells never carry one).
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors (a rejected submission —
    /// unknown grid, over-cap cell count — surfaces as
    /// [`ClientError::Server`]). Per-cell simulation failures do *not*
    /// error: they land in [`SubmitOutcome::failed`].
    pub fn submit(
        &mut self,
        cells: &[CellSpec],
        grid: Option<&str>,
        progress: bool,
        cpi: bool,
        on_progress: &mut dyn FnMut(Progress),
    ) -> Result<SubmitOutcome, ClientError> {
        let mut fields = vec![("verb".into(), Value::from("submit"))];
        if let Some(name) = grid {
            fields.push(("grid".into(), name.into()));
        }
        if !cells.is_empty() {
            fields.push((
                "cells".into(),
                Value::Array(cells.iter().map(proto::spec_to_value).collect()),
            ));
        }
        if progress {
            fields.push(("progress".into(), true.into()));
        }
        if cpi {
            fields.push(("cpi".into(), true.into()));
        }
        self.send(&Value::Object(fields))?;

        let accepted = self.expect("accepted")?;
        let count = |key: &str| accepted.get(key).and_then(Value::as_u64).unwrap_or(0);
        let mut outcome = SubmitOutcome {
            cells: Vec::new(),
            cached: count("cached"),
            scheduled: count("scheduled"),
            joined: count("joined"),
            failed: Vec::new(),
        };
        loop {
            let v = self.read_response()?;
            match v.get("type").and_then(Value::as_str) {
                Some("cell") => {
                    let pair = proto::parse_cell_response(&v).map_err(ClientError::Protocol)?;
                    outcome.cells.push(pair);
                }
                Some("progress") => {
                    let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
                    on_progress(Progress {
                        id: v
                            .get("id")
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string(),
                        cycle: field("cycle"),
                        committed: field("committed"),
                    });
                }
                Some("error") => {
                    // Per-cell failure inside the stream (id-less errors
                    // were already turned into Err by read_response).
                    let text = |k: &str| {
                        v.get(k)
                            .and_then(Value::as_str)
                            .unwrap_or_default()
                            .to_string()
                    };
                    outcome.failed.push((text("id"), text("reason")));
                }
                Some("done") => break,
                other => {
                    return Err(ClientError::Protocol(format!(
                        "unexpected {other:?} in submit stream"
                    )))
                }
            }
        }
        outcome.cells.sort_by(|a, b| a.1.id.cmp(&b.1.id));
        Ok(outcome)
    }

    /// Asks the server to stop. Consumes the client: the connection is
    /// closed once the server acknowledges.
    ///
    /// # Errors
    ///
    /// Transport, protocol, or server errors.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send(&verb("shutdown"))?;
        self.expect("bye")?;
        Ok(())
    }
}

fn verb(name: &str) -> Value {
    Value::Object(vec![("verb".into(), name.into())])
}
