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
//! After a clean run the final register file, memory image, and per-thread
//! retirement counts are cross-checked too.
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
    CommitSink, Observers, Retirement, SimConfig, SimError, SimStats, Simulator, Snapshot,
    ThreadPrograms,
};
use smt_isa::interp::{Interp, InterpError, Progress};
use smt_isa::semantics::effective_addr;
use smt_isa::{Opcode, Program, Reg, WORD_BYTES};
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

/// The lockstep oracle. Attach to a run as the commit sink of
/// [`Simulator::run_with`], or use [`verify`] for the whole
/// run-and-diff workflow.
#[derive(Debug)]
pub struct Oracle<'p> {
    interp: Interp<'p>,
    program: &'p Program,
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
    /// Creates an oracle for a `threads`-thread run of `program`.
    /// `fault_bound` should be at least the scheduling-unit depth (use
    /// `config.su_depth`).
    #[must_use]
    pub fn new(program: &'p Program, threads: usize, fault_bound: usize) -> Self {
        Oracle {
            interp: Interp::new(program, threads),
            program,
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

    /// The reference interpreter (for end-of-run state comparison).
    #[must_use]
    pub fn interp(&self) -> &Interp<'p> {
        &self.interp
    }

    fn diverge(&mut self, r: &Retirement, kind: DivergenceKind) {
        if self.divergence.is_some() {
            return;
        }
        self.divergence = Some(Box::new(Divergence {
            seqno: self.seqno,
            cycle: r.cycle,
            block: r.block,
            tid: r.tid,
            pc: r.pc,
            disasm: context_disasm(self.program, r.pc),
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
        // The faulting instruction may trail the last emitted retirement:
        // older same-thread instructions can be done but uncommitted when a
        // non-speculative sync op faults at issue, and a commit fault skips
        // the healthy leading entries of its own block. Walk the reference
        // forward until it faults too.
        for _ in 0..self.fault_bound {
            if self.interp.is_halted(tid) {
                break;
            }
            match self.interp.step_thread(tid) {
                Ok(Progress::Stepped) => {}
                Ok(Progress::Blocked | Progress::Halted) => break,
                Err(reference) => {
                    if faults_match(fault, tid, pc, reference) {
                        self.confirmed_fault = Some((tid, pc));
                    } else {
                        self.diverge(
                            &template,
                            DivergenceKind::FaultMismatch {
                                sim: fault,
                                reference,
                            },
                        );
                    }
                    return;
                }
            }
        }
        self.diverge(&template, DivergenceKind::MissingFault { fault });
    }

    fn check(&mut self, r: &Retirement) {
        if let Some(fault) = r.fault {
            self.expect_fault(r.tid, r.pc, fault);
            return;
        }
        if self.interp.is_halted(r.tid) {
            self.diverge(r, DivergenceKind::AfterHalt);
            return;
        }
        let reference_pc = self.interp.thread_pc(r.tid);
        if reference_pc != r.pc {
            self.diverge(
                r,
                DivergenceKind::Pc {
                    reference: reference_pc,
                },
            );
            return;
        }
        // Stores: derive the reference address/data from the *pre-step*
        // register state, then compare against what the machine released to
        // its store buffer.
        if r.op() == Opcode::Sd {
            let insn = self
                .program
                .fetch(r.pc)
                .expect("retired pc is inside the text segment");
            let base = self.interp.reg(r.tid, insn.rs1);
            let reference_addr = effective_addr(base, insn.imm);
            let reference_data = self.interp.reg(r.tid, insn.rs2);
            let (sim_addr, sim_data) = r.mem.expect("store retirement carries its access");
            if sim_addr != reference_addr {
                self.diverge(
                    r,
                    DivergenceKind::StoreAddr {
                        sim: sim_addr,
                        reference: reference_addr,
                    },
                );
                return;
            }
            if sim_data != reference_data {
                self.diverge(
                    r,
                    DivergenceKind::StoreData {
                        sim: sim_data,
                        reference: reference_data,
                    },
                );
                return;
            }
        }
        match self.interp.step_thread(r.tid) {
            Ok(Progress::Stepped) => {}
            Ok(Progress::Halted) => {
                if r.op() != Opcode::Halt {
                    self.diverge(
                        r,
                        DivergenceKind::Reference("halted on a non-halt retirement".into()),
                    );
                    return;
                }
            }
            Ok(Progress::Blocked) => {
                if r.op() == Opcode::Wait {
                    // The machine observed the flag satisfied (a POST that
                    // has executed but not yet retired) — legal; accept.
                    self.interp.retire_wait_satisfied(r.tid);
                } else {
                    self.diverge(
                        r,
                        DivergenceKind::Reference("blocked on a non-wait retirement".into()),
                    );
                    return;
                }
            }
            Err(e) => {
                self.diverge(
                    r,
                    DivergenceKind::Reference(format!("faulted where the sim retired: {e}")),
                );
                return;
            }
        }
        if let Some((reg, sim_value)) = r.dest {
            let reference = self.interp.reg(r.tid, reg);
            if reference != sim_value {
                self.diverge(
                    r,
                    DivergenceKind::Dest {
                        reg,
                        sim: sim_value,
                        reference,
                    },
                );
            }
        }
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
/// [`ThreadPrograms`]); a mix runs under a [`MixOracle`], which checks
/// each thread's commit stream, final register window, memory segment,
/// and retirement count against a solo 1-thread reference run of its own
/// program.
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

/// The body of [`verify`] and [`verify_with_checkpoints`]: picks the
/// oracle the machine's form needs, runs, and diffs the final state.
fn verify_spliced(
    programs: ThreadPrograms<'_>,
    config: SimConfig,
    every: Option<u64>,
) -> Result<Report, Box<Divergence>> {
    let fault_bound = config.su_depth;
    let mut sim = Simulator::try_new(config, programs.clone())
        .map_err(|e| harness_divergence(e.to_string()))?;
    let threads = sim.config().threads;
    if sim.is_multiprogram() {
        let mix: Vec<&Program> = (0..threads).map(|t| sim.program_of(t)).collect();
        let bases: Vec<u64> = (0..threads).map(|t| sim.thread_segment(t).0).collect();
        let mut oracle = MixOracle::new(&mix, &bases, fault_bound);
        let outcome = run_spliced(&mut sim, &programs, &mut oracle, every)?;
        conclude_mix(&sim, oracle, outcome)
    } else {
        let mut oracle = Oracle::new(sim.program_of(0), threads, fault_bound);
        let outcome = run_spliced(&mut sim, &programs, &mut oracle, every)?;
        conclude(&sim, oracle, outcome)
    }
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

/// Lockstep oracle for a heterogeneous program mix: one reference
/// interpreter per hardware thread, each running its own program as a
/// 1-thread machine — exactly the mix's architectural contract. Store
/// addresses are localized (the machine's flat backing memory is global;
/// each reference speaks thread-local addresses) before comparison;
/// memory faults already carry thread-local addresses by construction.
#[derive(Debug)]
pub struct MixOracle<'p> {
    /// One per-thread oracle, each over a 1-thread interpreter. Thread
    /// `tid`'s retirements are localized and replayed on `oracles[tid]`.
    oracles: Vec<Oracle<'p>>,
    /// Per-thread byte offset of the thread's data segment in the flat
    /// backing memory ([`Simulator::thread_segment`]).
    bases: Vec<u64>,
    seqno: u64,
    divergence: Option<Box<Divergence>>,
    confirmed_fault: Option<(usize, usize)>,
}

impl<'p> MixOracle<'p> {
    /// Creates a mix oracle: `programs[tid]` runs on thread `tid`, whose
    /// data segment starts `bases[tid]` bytes into the flat memory.
    ///
    /// # Panics
    ///
    /// Panics if `programs` and `bases` disagree in length.
    #[must_use]
    pub fn new(programs: &[&'p Program], bases: &[u64], fault_bound: usize) -> Self {
        assert_eq!(
            programs.len(),
            bases.len(),
            "one memory base per mix program"
        );
        MixOracle {
            oracles: programs
                .iter()
                .map(|p| Oracle::new(p, 1, fault_bound))
                .collect(),
            bases: bases.to_vec(),
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

    /// Thread `tid`'s reference interpreter.
    #[must_use]
    pub fn interp(&self, tid: usize) -> &Interp<'p> {
        self.oracles[tid].interp()
    }

    /// Expects thread `tid`'s reference to fault like the machine did
    /// (see [`Oracle::expect_fault`]). The fault's address is
    /// thread-local on both sides.
    pub fn expect_fault(&mut self, tid: usize, pc: usize, fault: MemError) {
        if self.divergence.is_some() || self.confirmed_fault.is_some() {
            return;
        }
        self.oracles[tid].expect_fault(0, pc, fault);
        self.reap(tid);
    }

    /// Lifts thread `tid`'s inner oracle verdicts (divergence, confirmed
    /// fault) into the mix-level state, restoring the global thread id
    /// and stream position.
    fn reap(&mut self, tid: usize) {
        if let Some((_, pc)) = self.oracles[tid].confirmed_fault.take() {
            self.confirmed_fault = Some((tid, pc));
        }
        if self.divergence.is_some() {
            return;
        }
        if let Some(mut d) = self.oracles[tid].divergence.take() {
            d.tid = tid;
            d.seqno = self.seqno;
            self.divergence = Some(d);
        }
    }
}

impl CommitSink for MixOracle<'_> {
    fn retired(&mut self, r: &Retirement) {
        if self.divergence.is_none() {
            let mut local = *r;
            local.tid = 0;
            if let Some((addr, data)) = local.mem {
                // Wrapping subtraction keeps a cross-segment store (a
                // global address below this thread's base) unequal to
                // every thread-local address instead of panicking.
                local.mem = Some((addr.wrapping_sub(self.bases[r.tid]), data));
            }
            self.oracles[r.tid].check(&local);
            self.reap(r.tid);
        }
        self.seqno += 1;
    }
}

/// Mix counterpart of [`conclude`]: the final-state diff runs per
/// thread, against each thread's own reference — its register window,
/// its memory segment, its retirement count.
fn conclude_mix(
    sim: &Simulator<'_>,
    mut oracle: MixOracle<'_>,
    outcome: Result<SimStats, SimError>,
) -> Result<Report, Box<Divergence>> {
    match outcome {
        Ok(stats) => {
            if let Some(d) = oracle.divergence.take() {
                return Err(d);
            }
            let threads = oracle.oracles.len();
            let window = sim.reg_file().len() / threads;
            let mut final_state_error = None;
            for (tid, o) in oracle.oracles.iter().enumerate() {
                let interp = o.interp();
                let (base, span) = sim.thread_segment(tid);
                let lo = (base / WORD_BYTES) as usize;
                let hi = lo + (span / WORD_BYTES) as usize;
                if !interp.finished() {
                    final_state_error = Some(format!("thread {tid}: its reference has not halted"));
                } else if stats.committed[tid] != interp.retired_counts().iter().sum::<u64>() {
                    final_state_error = Some(format!(
                        "thread {tid}: retirement counts differ: sim {}, reference {}",
                        stats.committed[tid],
                        interp.retired_counts().iter().sum::<u64>()
                    ));
                } else if sim.reg_file()[tid * window..(tid + 1) * window]
                    != interp.reg_file()[..window]
                {
                    final_state_error = Some(format!("thread {tid}: register windows differ"));
                } else if sim.memory().words()[lo..hi] != *interp.mem_words() {
                    final_state_error = Some(format!("thread {tid}: memory segments differ"));
                }
                if final_state_error.is_some() {
                    break;
                }
            }
            if let Some(msg) = final_state_error {
                return Err(Box::new(Divergence {
                    seqno: oracle.seqno,
                    cycle: stats.cycles,
                    block: 0,
                    tid: 0,
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
            let final_state_error = if !oracle.interp.finished() {
                Some("sim finished but reference threads have not halted".to_string())
            } else if stats.committed != oracle.interp.retired_counts() {
                Some(format!(
                    "per-thread retirement counts differ: sim {:?}, reference {:?}",
                    stats.committed,
                    oracle.interp.retired_counts()
                ))
            } else if sim.reg_file() != oracle.interp.reg_file() {
                Some("final register files differ".to_string())
            } else if sim.memory().words() != oracle.interp.mem_words() {
                Some("final memory images differ".to_string())
            } else {
                None
            };
            if let Some(msg) = final_state_error {
                return Err(Box::new(Divergence {
                    seqno: oracle.seqno,
                    cycle: stats.cycles,
                    block: 0,
                    tid: 0,
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
        struct Capture(Vec<Retirement>);
        impl CommitSink for Capture {
            fn retired(&mut self, r: &Retirement) {
                self.0.push(*r);
            }
        }
        let mut cap = Capture(Vec::new());
        sim.run_with(Observers::commits(&mut cap)).unwrap();
        let bases = [sim.thread_segment(0).0, sim.thread_segment(1).0];
        let mut o = MixOracle::new(&[&a, &b], &bases, 8);
        let mut corrupted = false;
        for r in &cap.0 {
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

        // Wrong pc: the reference is at the entry, stream claims pc 1.
        let mut o = Oracle::new(&p, 1, 8);
        o.retired(&event(1, 5));
        assert!(matches!(
            o.divergence().unwrap().kind,
            DivergenceKind::Pc { .. }
        ));

        // Wrong dest value: the `addi` writes 5, stream claims 6.
        let mut o = Oracle::new(&p, 1, 8);
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
        let mut o = Oracle::new(&p, 1, 8);
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
        struct Capture(Vec<Retirement>);
        impl CommitSink for Capture {
            fn retired(&mut self, r: &Retirement) {
                self.0.push(*r);
            }
        }
        let mut cap = Capture(Vec::new());
        sim.run_with(Observers::commits(&mut cap)).unwrap();
        let mut o = Oracle::new(&p, 1, 8);
        for r in &cap.0 {
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
