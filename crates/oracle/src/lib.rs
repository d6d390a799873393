//! Lockstep co-simulation oracle: replays the cycle simulator's
//! architectural commit stream on the functional reference interpreter and
//! diffs every retirement.
//!
//! The cycle machine in `smt-core` and the interpreter in `smt-isa` share
//! one semantics module, so they can only disagree about *which*
//! instructions retire and *what* they observe — exactly the properties
//! that squash recovery, store-to-load forwarding, renaming, and fault
//! precision must preserve. The oracle attaches to a run as a
//! [`CommitSink`]: at every architecturally retired instruction it steps
//! the interpreter's matching thread once and compares
//!
//! * the **program counter** (control-flow divergence: a wrong-path commit
//!   or a missed squash shows up here first),
//! * the **destination register value** (bad forwarding, lost writeback,
//!   renaming mix-ups),
//! * the **store address and data** (disambiguation bugs),
//! * **fault identity** (kind, address, and pc of a memory fault raised at
//!   commit or at a non-speculative issue).
//!
//! After a clean run each tenant's final register windows, memory
//! segment, and per-thread retirement counts are cross-checked too.
//!
//! What is intentionally **not** compared: anything about *timing* (cycle
//! counts, issue order, commit interleaving across threads — the
//! interpreter has no clock), and the satisfaction timing of `WAIT`. The
//! machine may observe a `POST` increment at writeback before the `POST`
//! retires, so a satisfied `WAIT` can legally reach commit before the
//! increment appears in the replayed stream; the oracle accepts the
//! machine's observation and force-retires the interpreter's `WAIT`
//! (see [`smt_isa::interp::Interp::retire_wait_satisfied`]). A `WAIT`
//! falsely reported satisfied still surfaces downstream, as every value
//! that the premature continuation computes is diffed.
//!
//! The first mismatch is frozen into a [`Divergence`] that reports the
//! retirement index, cycle, scheduling-unit block id, thread, pc, and the
//! surrounding disassembly.

use std::fmt;

use smt_core::{
    CommitSink, Observers, Retirement, SimConfig, SimError, SimStats, Simulator, Snapshot, Tenant,
    ThreadPrograms,
};
use smt_isa::interp::{Interp, InterpError, Progress};
use smt_isa::semantics::effective_addr;
use smt_isa::{Opcode, Program, Reg};
use smt_mem::MemError;

/// How a retirement disagreed with the reference interpreter.
#[derive(Clone, Debug, PartialEq)]
pub enum DivergenceKind {
    /// The stream retires a pc the reference thread is not at.
    Pc {
        /// The pc the reference thread would execute next.
        reference: usize,
    },
    /// A retirement arrived for a thread the reference already halted.
    AfterHalt,
    /// Destination register committed a different value.
    Dest {
        /// Destination register.
        reg: Reg,
        /// Value the simulator committed.
        sim: u64,
        /// Value the reference computed.
        reference: u64,
    },
    /// Store effective address mismatch.
    StoreAddr {
        /// Address the simulator's store buffered.
        sim: u64,
        /// Address the reference computed.
        reference: u64,
    },
    /// Store data mismatch.
    StoreData {
        /// Data the simulator's store buffered.
        sim: u64,
        /// Data the reference computed.
        reference: u64,
    },
    /// The reference blocked or faulted where the simulator retired.
    Reference(String),
    /// The simulator faulted; the reference executed on cleanly.
    MissingFault {
        /// The fault the simulator raised.
        fault: MemError,
    },
    /// Both faulted, but on different kinds, addresses, or pcs.
    FaultMismatch {
        /// The simulator's fault.
        sim: MemError,
        /// The reference's fault.
        reference: InterpError,
    },
    /// Final architectural state differs after a clean run.
    FinalState(String),
    /// The run itself failed (watchdog, invalid configuration).
    Harness(String),
}

/// The first observed disagreement between the machine and the reference.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Index of the offending retirement in the commit stream (0-based).
    pub seqno: u64,
    /// Cycle the offending block committed (0 when not tied to an event).
    pub cycle: u64,
    /// Scheduling-unit block id (0 when not tied to an event).
    pub block: u64,
    /// Offending thread.
    pub tid: usize,
    /// Program counter of the offending retirement.
    pub pc: usize,
    /// Disassembly of the offending instruction.
    pub disasm: String,
    /// What disagreed.
    pub kind: DivergenceKind,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at retirement #{} (cycle {}, SU block {}, thread {}, pc {})",
            self.seqno, self.cycle, self.block, self.tid, self.pc
        )?;
        writeln!(f, "  insn: {}", self.disasm)?;
        match &self.kind {
            DivergenceKind::Pc { reference } => {
                write!(f, "  pc mismatch: reference thread is at pc {reference}")
            }
            DivergenceKind::AfterHalt => {
                write!(f, "  retirement after the reference thread halted")
            }
            DivergenceKind::Dest {
                reg,
                sim,
                reference,
            } => write!(f, "  dest {reg}: sim {sim:#x} != reference {reference:#x}"),
            DivergenceKind::StoreAddr { sim, reference } => write!(
                f,
                "  store address: sim {sim:#x} != reference {reference:#x}"
            ),
            DivergenceKind::StoreData { sim, reference } => {
                write!(f, "  store data: sim {sim:#x} != reference {reference:#x}")
            }
            DivergenceKind::Reference(msg) => write!(f, "  reference: {msg}"),
            DivergenceKind::MissingFault { fault } => write!(
                f,
                "  sim faulted ({fault}) but the reference executed on cleanly"
            ),
            DivergenceKind::FaultMismatch { sim, reference } => {
                write!(
                    f,
                    "  fault mismatch: sim `{sim}` != reference `{reference}`"
                )
            }
            DivergenceKind::FinalState(msg) => write!(f, "  final state: {msg}"),
            DivergenceKind::Harness(msg) => write!(f, "  harness: {msg}"),
        }
    }
}

/// Summary of a verified run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Report {
    /// Cycles the simulator took (up to the fault, if any).
    pub cycles: u64,
    /// Instructions architecturally retired.
    pub instructions: u64,
    /// `(tid, pc)` of an agreed memory fault that ended the run, if any.
    pub fault: Option<(usize, usize)>,
}

/// The lockstep oracle over a machine's [`Tenant`] table: one reference
/// interpreter per tenant, running the tenant's program on as many
/// threads as it owns — exactly the tenant's architectural contract. A
/// retirement is localized to its tenant (thread id relative to the
/// tenant's first thread, store address relative to its data segment)
/// before it is diffed; memory faults already carry tenant-local
/// addresses. Attach to a run as the commit sink of
/// [`Simulator::run_with`], or use [`verify`] for the whole
/// run-and-diff workflow.
#[derive(Debug)]
pub struct Oracle<'p> {
    /// Each tenant, copied when the oracle is built (so the machine may
    /// be replaced by a restored copy mid-run), with its reference.
    refs: Vec<(Tenant<'p>, Interp<'p>)>,
    /// Per hardware thread, the index of its tenant in `refs`.
    tenant_of: Vec<usize>,
    /// How many interpreter steps to search for an expected fault. The
    /// faulting instruction trails the last emitted retirement by at most
    /// the scheduling unit's capacity (its block may commit behind done
    /// older entries that haven't committed yet).
    fault_bound: usize,
    seqno: u64,
    divergence: Option<Box<Divergence>>,
    confirmed_fault: Option<(usize, usize)>,
}

impl<'p> Oracle<'p> {
    /// Creates an oracle for a machine of `tenants` (see
    /// [`Simulator::tenants`]). `fault_bound` should be at least the
    /// scheduling-unit depth (use `config.su_depth`).
    #[must_use]
    pub fn new(tenants: &[Tenant<'p>], fault_bound: usize) -> Self {
        Oracle {
            refs: tenants
                .iter()
                .map(|t| (t.clone(), Interp::new(t.program, t.threads.len())))
                .collect(),
            tenant_of: tenants
                .iter()
                .enumerate()
                .flat_map(|(i, t)| t.threads.clone().map(move |_| i))
                .collect(),
            fault_bound: fault_bound.max(4),
            seqno: 0,
            divergence: None,
            confirmed_fault: None,
        }
    }

    /// The first divergence observed, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_deref()
    }

    fn diverge(&mut self, r: &Retirement, kind: DivergenceKind) {
        if self.divergence.is_some() {
            return;
        }
        let program = self.refs[self.tenant_of[r.tid]].0.program;
        self.divergence = Some(Box::new(Divergence {
            seqno: self.seqno,
            cycle: r.cycle,
            block: r.block,
            tid: r.tid,
            pc: r.pc,
            disasm: context_disasm(program, r.pc),
            kind,
        }));
    }

    /// Steps the reference thread forward expecting it to raise `fault` at
    /// `pc`. Used for commit-time faults (delivered as a stream event) and
    /// issue-time faults of the non-speculative sync ops (which abort the
    /// run without an event). Records a divergence on disagreement.
    pub fn expect_fault(&mut self, tid: usize, pc: usize, fault: MemError) {
        if self.divergence.is_some() || self.confirmed_fault.is_some() {
            return;
        }
        let Some(kind) = self.step_to_fault(tid, pc, fault) else {
            self.confirmed_fault = Some((tid, pc));
            return;
        };
        let template = Retirement {
            cycle: 0,
            block: 0,
            tid,
            pc,
            insn: smt_isa::DecodedInsn::new(smt_isa::Instruction::NOP),
            dest: None,
            mem: None,
            fault: Some(fault),
        };
        self.diverge(&template, kind);
    }

    /// Walks thread `tid`'s reference forward until it faults too: the
    /// faulting instruction may trail the last emitted retirement, as
    /// older same-thread instructions can be done but uncommitted when a
    /// non-speculative sync op faults at issue, and a commit fault skips
    /// the healthy leading entries of its own block. Returns how the
    /// reference disagreed, or `None` when it faulted identically.
    fn step_to_fault(&mut self, tid: usize, pc: usize, fault: MemError) -> Option<DivergenceKind> {
        let (tenant, interp) = &mut self.refs[self.tenant_of[tid]];
        let local = tid - tenant.threads.start;
        for _ in 0..self.fault_bound {
            if interp.is_halted(local) {
                break;
            }
            match interp.step_thread(local) {
                Ok(Progress::Stepped) => {}
                Ok(Progress::Blocked | Progress::Halted) => break,
                Err(reference) => {
                    return (!faults_match(fault, local, pc, reference)).then_some(
                        DivergenceKind::FaultMismatch {
                            sim: fault,
                            reference,
                        },
                    );
                }
            }
        }
        Some(DivergenceKind::MissingFault { fault })
    }

    fn check(&mut self, r: &Retirement) {
        if let Some(fault) = r.fault {
            self.expect_fault(r.tid, r.pc, fault);
        } else if let Some(kind) = self.diff(r) {
            self.diverge(r, kind);
        }
    }

    /// Replays a fault-free retirement on its tenant's reference and
    /// returns what disagreed, if anything.
    fn diff(&mut self, r: &Retirement) -> Option<DivergenceKind> {
        let (tenant, interp) = &mut self.refs[self.tenant_of[r.tid]];
        let tid = r.tid - tenant.threads.start;
        if interp.is_halted(tid) {
            return Some(DivergenceKind::AfterHalt);
        }
        let reference_pc = interp.thread_pc(tid);
        if reference_pc != r.pc {
            return Some(DivergenceKind::Pc {
                reference: reference_pc,
            });
        }
        // Stores: derive the reference address/data from the *pre-step*
        // register state, then compare against what the machine released to
        // its store buffer.
        if r.op() == Opcode::Sd {
            let insn = tenant
                .program
                .fetch(r.pc)
                .expect("retired pc is inside the text segment");
            let base = interp.reg(tid, insn.rs1);
            let reference_addr = effective_addr(base, insn.imm);
            let reference_data = interp.reg(tid, insn.rs2);
            let (sim_addr, sim_data) = r.mem.expect("store retirement carries its access");
            // Wrapping subtraction keeps a store below the tenant's
            // segment unequal to every tenant-local address.
            let sim_addr = sim_addr.wrapping_sub(tenant.base);
            if sim_addr != reference_addr {
                return Some(DivergenceKind::StoreAddr {
                    sim: sim_addr,
                    reference: reference_addr,
                });
            }
            if sim_data != reference_data {
                return Some(DivergenceKind::StoreData {
                    sim: sim_data,
                    reference: reference_data,
                });
            }
        }
        match interp.step_thread(tid) {
            Ok(Progress::Stepped) => {}
            Ok(Progress::Halted) => {
                if r.op() != Opcode::Halt {
                    return Some(DivergenceKind::Reference(
                        "halted on a non-halt retirement".into(),
                    ));
                }
            }
            Ok(Progress::Blocked) => {
                if r.op() != Opcode::Wait {
                    return Some(DivergenceKind::Reference(
                        "blocked on a non-wait retirement".into(),
                    ));
                }
                // The machine observed the flag satisfied (a POST that
                // has executed but not yet retired) — legal; accept.
                interp.retire_wait_satisfied(tid);
            }
            Err(e) => {
                return Some(DivergenceKind::Reference(format!(
                    "faulted where the sim retired: {e}"
                )));
            }
        }
        let (reg, sim) = r.dest?;
        let reference = interp.reg(tid, reg);
        (reference != sim).then_some(DivergenceKind::Dest {
            reg,
            sim,
            reference,
        })
    }

    /// The end-of-run diff of a clean run, per tenant against its own
    /// reference: every thread halted, its retirement count and register
    /// window, then the tenant's memory segment. Returns the first
    /// offending thread and what differs.
    fn final_state(&self, sim: &Simulator<'_>, stats: &SimStats) -> Option<(usize, String)> {
        let window = sim.reg_file().len() / sim.config().threads;
        for (tenant, interp) in &self.refs {
            let local_window = interp.reg_file().len() / tenant.threads.len();
            for (local, tid) in tenant.threads.clone().enumerate() {
                let (sim_count, reference_count) =
                    (stats.committed[tid], interp.retired_counts()[local]);
                let sim_regs = &sim.reg_file()[tid * window..][..window];
                let reference_regs = &interp.reg_file()[local * local_window..][..window];
                let what = if !interp.is_halted(local) {
                    "its reference has not halted".to_string()
                } else if sim_count != reference_count {
                    format!(
                        "retirement counts differ: sim {sim_count}, reference {reference_count}"
                    )
                } else if sim_regs != reference_regs {
                    "register windows differ".to_string()
                } else {
                    continue;
                };
                return Some((tid, format!("thread {tid}: {what}")));
            }
            if tenant.segment(sim.memory()) != interp.mem_words() {
                let tid = tenant.threads.start;
                return Some((
                    tid,
                    format!("threads {:?}: memory segments differ", tenant.threads),
                ));
            }
        }
        None
    }
}

impl CommitSink for Oracle<'_> {
    fn retired(&mut self, r: &Retirement) {
        if self.divergence.is_none() {
            self.check(r);
        }
        self.seqno += 1;
    }
}

fn faults_match(sim: MemError, tid: usize, pc: usize, reference: InterpError) -> bool {
    match (sim, reference) {
        (
            MemError::OutOfBounds { addr, .. },
            InterpError::OutOfBounds {
                addr: ra,
                tid: rt,
                pc: rp,
            },
        )
        | (
            MemError::Unaligned { addr },
            InterpError::Unaligned {
                addr: ra,
                tid: rt,
                pc: rp,
            },
        ) => addr == ra && tid == rt && pc == rp,
        _ => false,
    }
}

/// Disassembly of `pc` with two instructions of context on each side.
fn context_disasm(program: &Program, pc: usize) -> String {
    use fmt::Write as _;
    let mut out = String::new();
    let lo = pc.saturating_sub(2);
    for p in lo..=pc + 2 {
        let Some(insn) = program.fetch(p) else {
            continue;
        };
        let marker = if p == pc { ">" } else { " " };
        let _ = write!(out, "\n    {marker} {p:4}: {insn}");
    }
    out
}

/// Runs `programs` under `config` with the oracle attached and returns
/// the run summary, or the first divergence. `programs` is one program
/// every thread shares or a mix of one per thread (see
/// [`ThreadPrograms`]); either way each [`Tenant`]'s commit stream, final
/// register windows, memory segment and retirement counts are checked
/// against a reference run of its own program on its own threads.
///
/// A memory fault is *not* a divergence when the reference faults
/// identically (same kind, address, thread, and pc) — the report then
/// carries the fault location. Final register-file/memory comparison is
/// skipped on fault paths (the machine stops mid-program by design).
///
/// # Errors
///
/// The first [`Divergence`], including harness-level failures (watchdog
/// timeout, invalid configuration) as [`DivergenceKind::Harness`].
pub fn verify<'p>(
    programs: impl Into<ThreadPrograms<'p>>,
    config: SimConfig,
) -> Result<Report, Box<Divergence>> {
    verify_spliced(programs.into(), config, None)
}

/// Like [`verify`], but additionally exercises checkpoint/restore: every
/// `every` cycles the run is interrupted, the machine is serialized to
/// the snapshot wire format, decoded back, and **replaced** by the
/// restored copy, which then continues under the same oracle. A clean
/// report therefore certifies not only that the commit stream matches
/// the reference, but that mid-run snapshots are transparent — the
/// stream across every splice point is indistinguishable from an
/// uninterrupted run's.
///
/// # Errors
///
/// The first [`Divergence`]; snapshot encode/decode/restore failures
/// surface as [`DivergenceKind::Harness`].
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn verify_with_checkpoints<'p>(
    programs: impl Into<ThreadPrograms<'p>>,
    config: SimConfig,
    every: u64,
) -> Result<Report, Box<Divergence>> {
    assert!(every > 0, "checkpoint interval must be positive");
    verify_spliced(programs.into(), config, Some(every))
}

/// The body of [`verify`] and [`verify_with_checkpoints`]: builds the
/// machine and its oracle, runs, and diffs the final state.
fn verify_spliced(
    programs: ThreadPrograms<'_>,
    config: SimConfig,
    every: Option<u64>,
) -> Result<Report, Box<Divergence>> {
    let fault_bound = config.su_depth;
    let mut sim = Simulator::try_new(config, programs.clone())
        .map_err(|e| harness_divergence(e.to_string()))?;
    let mut oracle = Oracle::new(sim.tenants(), fault_bound);
    let outcome = run_spliced(&mut sim, &programs, &mut oracle, every)?;
    conclude(&sim, oracle, outcome)
}

/// Runs `sim` to completion under `sink`, replacing the machine by its
/// own serialized, decoded, and restored copy every `every` cycles when
/// an interval is given.
fn run_spliced<'p>(
    sim: &mut Simulator<'p>,
    programs: &ThreadPrograms<'p>,
    sink: &mut dyn CommitSink,
    every: Option<u64>,
) -> Result<Result<SimStats, SimError>, Box<Divergence>> {
    let Some(every) = every else {
        return Ok(sim.run_with(Observers::commits(sink)));
    };
    loop {
        for _ in 0..every {
            if sim.finished() {
                break;
            }
            if sim.cycle() >= sim.config().max_cycles {
                return Ok(Err(SimError::Watchdog {
                    cycles: sim.config().max_cycles,
                }));
            }
            if let Err(e) = sim.step_with(Observers::commits(sink)) {
                return Ok(Err(e));
            }
        }
        if sim.finished() {
            // No cycles left to run: this only finalizes the statistics,
            // exactly as an uninterrupted run would.
            return Ok(sim.run_with(Observers::commits(sink)));
        }
        let bytes = sim.checkpoint().to_bytes();
        let snap = Snapshot::from_bytes(&bytes)
            .map_err(|e| harness_divergence(format!("snapshot decode: {e}")))?;
        *sim = Simulator::restore(sim.config().clone(), programs.clone(), &snap)
            .map_err(|e| harness_divergence(format!("snapshot restore: {e}")))?;
    }
}

fn harness_divergence(msg: String) -> Box<Divergence> {
    Box::new(Divergence {
        seqno: 0,
        cycle: 0,
        block: 0,
        tid: 0,
        pc: 0,
        disasm: String::new(),
        kind: DivergenceKind::Harness(msg),
    })
}

/// Epilogue of [`verify`] and [`verify_with_checkpoints`]: folds
/// the run outcome, any recorded divergence, and the final-state diff
/// into a [`Report`].
fn conclude(
    sim: &Simulator<'_>,
    mut oracle: Oracle<'_>,
    outcome: Result<SimStats, SimError>,
) -> Result<Report, Box<Divergence>> {
    match outcome {
        Ok(stats) => {
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            if let Some((tid, msg)) = oracle.final_state(sim, &stats) {
                return Err(Box::new(Divergence {
                    seqno: oracle.seqno,
                    cycle: stats.cycles,
                    block: 0,
                    tid,
                    pc: 0,
                    disasm: String::new(),
                    kind: DivergenceKind::FinalState(msg),
                }));
            }
            Ok(Report {
                cycles: stats.cycles,
                instructions: stats.committed_total(),
                fault: None,
            })
        }
        Err(SimError::Mem { err, tid, pc }) => {
            // Commit-time faults arrive as a stream event and are already
            // checked; issue-time faults of the non-speculative sync ops
            // abort without one — check now.
            oracle.expect_fault(tid, pc, err);
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            debug_assert_eq!(oracle.confirmed_fault, Some((tid, pc)));
            Ok(Report {
                cycles: sim.cycle(),
                instructions: sim.stats().committed.iter().sum(),
                fault: Some((tid, pc)),
            })
        }
        Err(e) => {
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            Err(harness_divergence(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_core::FetchPolicy;
    use smt_isa::builder::ProgramBuilder;
    use smt_isa::DecodedInsn;

    fn sum_program() -> Program {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(8 * 8);
        let [sum, i, limit, addr] = b.regs();
        b.li(sum, 0);
        b.li(i, 1);
        b.li(limit, 15);
        let top = b.label();
        b.bind(top);
        b.add(sum, sum, i);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(sum, addr, 0);
        b.halt();
        b.build(8).unwrap()
    }

    #[test]
    fn clean_runs_verify_across_policies_and_threads() {
        let p = sum_program();
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::ConditionalSwitch,
        ] {
            for threads in [1usize, 2, 4, 8] {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(policy);
                let report =
                    verify(&p, config).unwrap_or_else(|d| panic!("{policy}/{threads}: {d}"));
                assert!(report.fault.is_none());
                assert!(report.instructions > 0);
            }
        }
    }

    #[test]
    fn checkpointed_runs_verify_and_match_uninterrupted_reports() {
        let p = sum_program();
        for threads in [1usize, 2, 4] {
            let config = SimConfig::default().with_threads(threads);
            let plain = verify(&p, config.clone()).unwrap_or_else(|d| panic!("{threads}: {d}"));
            // A small prime interval lands snapshots on awkward cycles.
            let spliced = verify_with_checkpoints(&p, config, 13)
                .unwrap_or_else(|d| panic!("{threads} checkpointed: {d}"));
            assert_eq!(spliced, plain, "{threads}: splices must be transparent");
        }
    }

    #[test]
    fn checkpointed_run_confirms_agreed_faults_too() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let report = verify_with_checkpoints(&p, SimConfig::default().with_threads(1), 3)
            .expect("faults agree across splices");
        assert!(report.fault.is_some());
    }

    #[test]
    fn agreed_fault_is_not_a_divergence() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let report = verify(&p, SimConfig::default().with_threads(1)).expect("faults agree");
        let (tid, pc) = report.fault.expect("run ended in a fault");
        assert_eq!(tid, 0);
        assert_eq!(p.fetch(pc).unwrap().op, Opcode::Sd);
    }

    #[test]
    fn synchronized_producer_consumer_verifies() {
        let mut b = ProgramBuilder::new();
        let flag = b.alloc_zeroed(8);
        let slot = b.alloc_zeroed(8);
        let out = b.alloc_zeroed(8 * 8);
        let [fl, sl, v, one, zero, addr] = b.regs();
        b.li(fl, flag as i64);
        b.li(sl, slot as i64);
        b.li(one, 1);
        b.li(zero, 0);
        let consumer = b.label();
        let store = b.label();
        b.bne(b.tid_reg(), zero, consumer);
        b.li(v, 777);
        b.sd(v, sl, 0);
        b.post(fl);
        b.j(store);
        b.bind(consumer);
        b.wait(fl, one);
        b.bind(store);
        b.ld(v, sl, 0);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(v, addr, 0);
        b.halt();
        let p = b.build(4).unwrap();
        for threads in [2usize, 4] {
            verify(&p, SimConfig::default().with_threads(threads))
                .unwrap_or_else(|d| panic!("{threads} threads: {d}"));
        }
    }

    fn blur_like_program() -> Program {
        // Memory-heavy: repeatedly loads neighbours and stores averages.
        let mut b = ProgramBuilder::new();
        let src = b.alloc_zeroed(16 * 8);
        let dst = b.alloc_zeroed(16 * 8);
        let [i, limit, addr, v, w, acc] = b.regs();
        b.li(i, 1);
        b.li(limit, 15);
        let top = b.label();
        b.bind(top);
        b.slli(addr, i, 3);
        b.addi(addr, addr, src as i32);
        b.sd(i, addr, 0);
        b.ld(v, addr, -8);
        b.ld(w, addr, 0);
        b.add(acc, v, w);
        b.addi(addr, addr, (dst as i32) - (src as i32));
        b.sd(acc, addr, 0);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.halt();
        b.build(1).unwrap()
    }

    #[test]
    fn hetero_mixes_verify_across_policies() {
        let a = sum_program();
        let b = blur_like_program();
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::Icount,
        ] {
            let config = SimConfig::default()
                .with_threads(2)
                .with_fetch_policy(policy);
            let report = verify(&[&a, &b], config).unwrap_or_else(|d| panic!("{policy} mix: {d}"));
            assert!(report.fault.is_none());
            assert!(report.instructions > 0);
        }
        // Four threads, two of each program, interleaved.
        let config = SimConfig::default().with_threads(4);
        verify(&[&a, &b, &a, &b], config).unwrap_or_else(|d| panic!("4-thread mix: {d}"));
    }

    #[test]
    fn hetero_checkpointed_runs_match_uninterrupted_reports() {
        let a = sum_program();
        let b = blur_like_program();
        let config = SimConfig::default().with_threads(2);
        let plain = verify(&[&a, &b], config.clone()).unwrap_or_else(|d| panic!("{d}"));
        let spliced = verify_with_checkpoints(&[&a, &b], config, 13)
            .unwrap_or_else(|d| panic!("checkpointed mix: {d}"));
        assert_eq!(spliced, plain, "mix splices must be transparent");
    }

    #[test]
    fn hetero_agreed_fault_is_not_a_divergence() {
        // Thread 1's program faults; thread 0's is healthy. The fault
        // must be confirmed against thread 1's own reference with its
        // thread-local address.
        let healthy = sum_program();
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let faulty = b.build(1).unwrap();
        let report = verify(&[&healthy, &faulty], SimConfig::default().with_threads(2))
            .expect("fault agrees with thread 1's reference");
        let (tid, pc) = report.fault.expect("run ends in a fault");
        assert_eq!(tid, 1);
        assert_eq!(faulty.fetch(pc).unwrap().op, Opcode::Sd);
    }

    #[test]
    fn mix_store_corruption_is_caught() {
        // Replay a real mix stream with thread 1's store aliased one
        // slot over: the localized compare must trip StoreAddr.
        let a = sum_program();
        let b = blur_like_program();
        let config = SimConfig::default().with_threads(2);
        let mut sim = Simulator::try_new(config.clone(), &[&a, &b]).unwrap();
        let (_, stream) = capture(&mut sim);
        let mut o = Oracle::new(sim.tenants(), 8);
        let mut corrupted = false;
        for r in &stream {
            let mut r = *r;
            if !corrupted && r.tid == 1 && r.op() == Opcode::Sd {
                let (addr, data) = r.mem.unwrap();
                r.mem = Some((addr + 8, data));
                corrupted = true;
            }
            o.retired(&r);
        }
        assert!(corrupted, "stream contains a thread-1 store");
        let d = o.divergence().expect("aliased store detected");
        assert_eq!(d.tid, 1, "divergence names the corrupted thread");
        assert!(matches!(d.kind, DivergenceKind::StoreAddr { .. }));
    }

    /// Runs `sim` to the end and returns its stats and commit stream.
    fn capture(sim: &mut Simulator<'_>) -> (SimStats, Vec<Retirement>) {
        struct Capture(Vec<Retirement>);
        impl CommitSink for Capture {
            fn retired(&mut self, r: &Retirement) {
                self.0.push(*r);
            }
        }
        let mut cap = Capture(Vec::new());
        let stats = sim.run_with(Observers::commits(&mut cap)).unwrap();
        (stats, cap.0)
    }

    /// Replays `stream` on `sink` without thread `tid`'s last two
    /// retirements (its final store and its halt).
    fn replay_without_tail(sink: &mut dyn CommitSink, stream: &[Retirement], tid: usize) {
        let mut skip = stream.iter().filter(|r| r.tid == tid).count() - 2;
        for r in stream {
            if r.tid == tid {
                if skip == 0 {
                    continue;
                }
                skip -= 1;
            }
            sink.retired(r);
        }
    }

    #[test]
    fn dropped_tail_fails_the_uniform_final_state_diff() {
        let p = sum_program();
        let mut sim = Simulator::new(SimConfig::default().with_threads(2), &p);
        let (stats, stream) = capture(&mut sim);
        let mut o = Oracle::new(sim.tenants(), 8);
        replay_without_tail(&mut o, &stream, 1);
        assert!(o.divergence().is_none(), "a clean prefix checks clean");
        let d = conclude(&sim, o, Ok(stats)).expect_err("the dropped tail is caught");
        assert!(matches!(d.kind, DivergenceKind::FinalState(_)), "{d}");
    }

    #[test]
    fn dropped_tail_fails_the_mix_final_state_diff_and_names_the_thread() {
        let a = sum_program();
        let b = blur_like_program();
        let mut sim = Simulator::try_new(SimConfig::default().with_threads(2), &[&a, &b]).unwrap();
        let (stats, stream) = capture(&mut sim);
        let mut o = Oracle::new(sim.tenants(), 8);
        replay_without_tail(&mut o, &stream, 1);
        assert!(o.divergence().is_none(), "a clean prefix checks clean");
        let d = conclude(&sim, o, Ok(stats)).expect_err("the dropped tail is caught");
        assert!(matches!(d.kind, DivergenceKind::FinalState(_)), "{d}");
        assert!(d.to_string().contains("thread 1"), "{d}");
        assert_eq!(d.tid, 1, "{d}");
    }

    /// Feeding the oracle a corrupted stream by hand proves each check
    /// trips independently of any simulator bug.
    #[test]
    fn synthetic_stream_corruptions_are_caught() {
        let mut b = ProgramBuilder::new();
        let slot = b.alloc_zeroed(8);
        let [v, base] = b.regs();
        b.li(v, 5); //            pc 0
        b.li(base, slot as i64); // pc 1 (may span several insns — use decoded pcs)
        b.sd(v, base, 0);
        b.halt();
        let p = b.build(1).unwrap();
        // `li v, 5` lowers to `lui v, 0; addi v, v, 5`.
        let event = |pc: usize, value: u64| {
            let insn = DecodedInsn::new(*p.fetch(pc).unwrap());
            Retirement {
                cycle: 1,
                block: 0,
                tid: 0,
                pc,
                insn,
                dest: insn.dest.map(|rd| (rd, value)),
                mem: None,
                fault: None,
            }
        };

        let solo = Simulator::new(SimConfig::default().with_threads(1), &p);

        // Wrong pc: the reference is at the entry, stream claims pc 1.
        let mut o = Oracle::new(solo.tenants(), 8);
        o.retired(&event(1, 5));
        assert!(matches!(
            o.divergence().unwrap().kind,
            DivergenceKind::Pc { .. }
        ));

        // Wrong dest value: the `addi` writes 5, stream claims 6.
        let mut o = Oracle::new(solo.tenants(), 8);
        o.retired(&event(0, 0)); // lui v, 0 — correct
        assert!(o.divergence().is_none());
        o.retired(&event(1, 6));
        let d = o.divergence().expect("value corruption detected").clone();
        assert_eq!(
            d.kind,
            DivergenceKind::Dest {
                reg: v,
                sim: 6,
                reference: 5,
            }
        );
        assert!(d.to_string().contains("dest"));

        // Missing fault: stream claims a fault the reference won't raise.
        let mut o = Oracle::new(solo.tenants(), 8);
        let mut e = event(0, 0);
        e.dest = None;
        e.fault = Some(MemError::OutOfBounds {
            addr: 1 << 40,
            size: 64,
        });
        o.retired(&e);
        assert!(matches!(
            o.divergence().unwrap().kind,
            DivergenceKind::MissingFault { .. }
        ));
    }

    #[test]
    fn store_corruption_is_caught_before_the_reference_steps() {
        let mut b = ProgramBuilder::new();
        let slot = b.alloc_zeroed(16);
        let [v, base] = b.regs();
        b.li(v, 9);
        b.li(base, slot as i64);
        b.sd(v, base, 0);
        b.halt();
        let p = b.build(1).unwrap();
        // Drive the reference to the store by replaying the real stream
        // prefix, then corrupt the store's address.
        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        let (_, stream) = capture(&mut sim);
        let mut o = Oracle::new(sim.tenants(), 8);
        for r in &stream {
            let mut r = *r;
            if r.op() == Opcode::Sd {
                let (addr, data) = r.mem.unwrap();
                r.mem = Some((addr + 8, data)); // aliased to the wrong slot
            }
            o.retired(&r);
        }
        assert!(matches!(
            o.divergence().expect("address corruption detected").kind,
            DivergenceKind::StoreAddr { .. }
        ));
    }
}
