//! Cycle-accurate simulator of a **multithreaded superscalar** (SMT)
//! processor, reproducing *Gulati & Bagherzadeh, "Performance Study of a
//! Multithreaded Superscalar Microprocessor", HPCA 1996*.
//!
//! The modelled machine is the SDSP — a 4-wide fetch/decode RISC with a
//! combined reorder-buffer/instruction-window ("scheduling unit"), full
//! register renaming, 2-bit branch prediction, and oldest-first out-of-order
//! issue of up to 8 instructions per cycle — extended to keep up to six
//! threads resident simultaneously:
//!
//! * **N program counters** with three fetch policies
//!   ([`FetchPolicy::TrueRoundRobin`], [`FetchPolicy::MaskedRoundRobin`],
//!   [`FetchPolicy::ConditionalSwitch`]);
//! * a **thread-ID field** per scheduling-unit entry, with globally unique
//!   renaming tags so wakeup/issue logic is thread-blind;
//! * **selective squash** of only the mispredicting thread's younger
//!   entries;
//! * **Flexible Result Commit** — any of the bottom four reorder-buffer
//!   blocks may commit when its thread has no older block resident
//!   ([`CommitPolicy::Flexible`]);
//! * statically partitioned 128-entry register file, shared 8 KB data
//!   cache, shared 8-entry store buffer, shared BTB.
//!
//! # Quickstart
//!
//! ```
//! use smt_core::{SimConfig, Simulator};
//! use smt_isa::builder::ProgramBuilder;
//!
//! // Every thread computes tid * 2 into a private register.
//! let mut b = ProgramBuilder::new();
//! let r = b.reg();
//! b.add(r, b.tid_reg(), b.tid_reg());
//! b.halt();
//! let program = b.build(4)?;
//!
//! let mut sim = Simulator::new(SimConfig::default(), &program);
//! let stats = sim.run()?;
//! assert_eq!(sim.reg(3, r), 6);
//! println!("IPC = {:.2}", stats.ipc());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Module map
//!
//! | module | contents |
//! |--------|----------|
//! | [`commit`] | [`CommitSink`]: the observable architectural commit stream |
//! | [`config`] | [`SimConfig`] and the policy enums (the paper's Table 2) |
//! | [`fetch`] | instruction unit: PCs, fetch policies (Section 5.1) |
//! | [`su`] | scheduling unit: blocks, renaming lookups, commit selection |
//! | [`sim`] | the pipeline itself |
//! | [`stats`] | [`SimStats`] and the paper's speedup formula |
//! | [`error`] | [`SimError`] |
//!
//! Pipeline observability (lifecycle tracing, CPI-stack stall attribution,
//! occupancy telemetry) lives in the re-exported [`trace`] crate; attach a
//! [`trace::TraceSink`] through [`Observers`] with [`Simulator::run_with`]
//! or [`Simulator::step_with`]. With no sink the
//! event plumbing compiles away — traced and untraced runs are
//! cycle-for-cycle identical, and untraced runs pay nothing.

pub mod commit;
pub mod config;
pub mod error;
pub mod fasthash;
pub mod fetch;
pub mod sim;
pub mod stats;
pub mod su;

pub use smt_trace as trace;

pub use commit::{CommitSink, Retirement};
pub use config::{CommitPolicy, ConfigError, FetchPolicy, RenamingMode, SimConfig};
pub use error::SimError;
pub use sim::{config_identity, program_identity, Observers, Simulator, Tenant, ThreadPrograms};
pub use smt_checkpoint::Snapshot;
pub use smt_isa::spelling::Spellings;
pub use smt_uarch::PredictorKind;
pub use stats::{BranchStats, SimStats};
pub use trace::{TraceEvent, TraceSink};
