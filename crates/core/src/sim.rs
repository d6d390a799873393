//! The cycle-accurate simultaneous-multithreading superscalar simulator.
//!
//! Pipeline stages run in reverse order within a cycle (commit → store drain
//! → writeback → issue → decode → fetch), so each stage observes the
//! previous cycle's downstream state, and a result written back in cycle *c*
//! can wake a dependant issuing in cycle *c* (bypassing) while newly decoded
//! instructions wait until *c + 1* to issue.
//!
//! See the crate docs for the architecture overview and DESIGN.md for the
//! paper mapping.

use std::collections::VecDeque;
use std::ops::Range;

use smt_checkpoint::{DecodeError, Reader, Snapshot, Writer};
use smt_isa::semantics::{alu_result, branch_taken, effective_addr};
use smt_isa::{window_size, FuClass, Opcode, Program, Reg, MAX_THREADS, WORD_BYTES};
use smt_mem::{CacheStats, DataCache, MainMemory, MemError, Outcome, StoreBuffer};
use smt_trace::{DecodedSlot, MemKind, Occupancy, RetireKind, SlotCause, TraceEvent, TraceSink};
use smt_uarch::{FuPool, Predictor, TagAllocator};

use crate::commit::{CommitSink, Retirement};
use crate::config::{warm, FetchPolicy, RenamingMode, SimConfig};
use crate::error::SimError;
use crate::fetch::{FetchedBlock, FetchedInsn, InstructionUnit};
use crate::stats::{FuUsage, SimStats};
use crate::su::{EntryState, Lookup, Operand, SchedulingUnit, StagedEntry, NO_SRC};

/// Section tags of the snapshot payload, in serialization order. A tag
/// mismatch on decode pinpoints the diverging component instead of
/// reporting garbage fields downstream of a framing error.
mod sec {
    pub const CORE: u32 = 1;
    pub const SU: u32 = 2;
    pub const FETCH: u32 = 3;
    pub const PREDICTOR: u32 = 4;
    pub const FU: u32 = 5;
    pub const TAGS: u32 = 6;
    pub const CACHE: u32 = 7;
    pub const STORE_BUFFER: u32 = 8;
    pub const MEMORY: u32 = 9;
    pub const FETCH_BUFFER: u32 = 10;
    pub const STATS: u32 = 11;
}

/// Section tags of a *warm* (fork-only) snapshot payload. Disjoint from
/// [`sec`] so an exact-restore path handed a warm payload (or vice versa)
/// fails on the very first section tag.
mod wsec {
    pub const ARCH: u32 = 101;
    pub const MEMORY: u32 = 102;
}

/// Stable identity hash of a configuration, as stored in a
/// [`Snapshot`]'s `config_hash` and used to key result caches: equal
/// configurations hash equally across processes and runs.
#[must_use]
pub fn config_identity(config: &SimConfig) -> u64 {
    smt_checkpoint::stable_hash(config)
}

/// Stable identity hash of a program — its text, entry point, and data
/// image. Labels and other assembler conveniences do not contribute:
/// two builds that produce the same machine program hash equally.
#[must_use]
pub fn program_identity(program: &Program) -> u64 {
    smt_checkpoint::stable_hash(&(program.text(), program.entry(), program.data()))
}

/// The program(s) a machine runs: one program every hardware thread
/// shares (SPMD), or a heterogeneous **mix** of one program per thread.
///
/// Converts from `&Program` and from a slice (or array) of `&Program`s:
/// a one-element slice is the shared form, a `threads`-element slice a
/// mix (see [`Simulator::try_new`]).
#[derive(Clone, Debug)]
pub struct ThreadPrograms<'p>(Vec<&'p Program>);

impl<'p> From<&'p Program> for ThreadPrograms<'p> {
    fn from(program: &'p Program) -> Self {
        ThreadPrograms(vec![program])
    }
}

impl<'p> From<&[&'p Program]> for ThreadPrograms<'p> {
    fn from(programs: &[&'p Program]) -> Self {
        ThreadPrograms(programs.to_vec())
    }
}

impl<'p, const N: usize> From<&[&'p Program; N]> for ThreadPrograms<'p> {
    fn from(programs: &[&'p Program; N]) -> Self {
        ThreadPrograms(programs.to_vec())
    }
}

impl<'p> From<&'p [Program]> for ThreadPrograms<'p> {
    fn from(programs: &'p [Program]) -> Self {
        ThreadPrograms(programs.iter().collect())
    }
}

/// One program on the machine and the hardware threads that run it.
///
/// Every machine is a table of tenants in thread order. A uniform (SPMD)
/// machine is one tenant that owns threads `0..threads` and the whole
/// data memory; a heterogeneous mix is one tenant per thread. A tenant's
/// threads see themselves as threads `0..n` of an `n`-thread machine
/// (`r0` is the thread's place in the tenant, `r1` the tenant's thread
/// count) and its data segment as an address space of its own starting
/// at 0: architecturally, each tenant runs as if alone on a machine of
/// its thread count, sharing the pipeline, cache and store buffer.
#[derive(Clone, Debug)]
pub struct Tenant<'p> {
    /// The program the tenant's threads run.
    pub program: &'p Program,
    /// The hardware threads that run it.
    pub threads: Range<usize>,
    /// Byte offset of the tenant's data segment in the flat backing
    /// memory.
    pub base: u64,
    /// Size of the data segment in bytes — the bound its threads'
    /// accesses are checked against, so faults carry tenant-local
    /// addresses identical to a solo run of the program.
    pub span: u64,
}

impl Tenant<'_> {
    /// The tenant's data segment, out of the machine's flat `memory`.
    #[must_use]
    pub fn segment<'m>(&self, memory: &'m MainMemory) -> &'m [u64] {
        let lo = (self.base / WORD_BYTES) as usize;
        &memory.words()[lo..lo + (self.span / WORD_BYTES) as usize]
    }
}

/// The observers of a run or step: an optional [`CommitSink`] for the
/// architectural commit stream and an optional [`TraceSink`] for the
/// pipeline lifecycle events. Observers see the machine; they cannot
/// perturb it.
#[derive(Default)]
pub struct Observers<'a> {
    /// Receives every retirement, in commit order.
    pub commits: Option<&'a mut dyn CommitSink>,
    /// Receives every lifecycle event.
    pub trace: Option<&'a mut dyn TraceSink>,
}

impl<'a> Observers<'a> {
    /// A commit sink alone.
    #[must_use]
    pub fn commits(sink: &'a mut dyn CommitSink) -> Self {
        Observers {
            commits: Some(sink),
            trace: None,
        }
    }

    /// A trace sink alone.
    #[must_use]
    pub fn trace(sink: &'a mut dyn TraceSink) -> Self {
        Observers {
            commits: None,
            trace: Some(sink),
        }
    }
}

/// The simulator. Owns all machine state for one run of its
/// [`Tenant`]s: one program every thread shares, or one per thread (see
/// [`ThreadPrograms`]).
///
/// ```
/// use smt_core::{SimConfig, Simulator};
/// use smt_isa::builder::ProgramBuilder;
///
/// let mut b = ProgramBuilder::new();
/// let r = b.reg();
/// b.li(r, 41);
/// b.addi(r, r, 1);
/// b.halt();
/// let program = b.build(2)?;
///
/// let mut sim = Simulator::new(SimConfig::default().with_threads(2), &program);
/// let stats = sim.run()?;
/// assert_eq!(sim.reg(0, r), 42);
/// assert_eq!(sim.reg(1, r), 42);
/// assert!(stats.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulator<'p> {
    config: SimConfig,
    /// The tenant table, in thread order.
    tenants: Vec<Tenant<'p>>,
    /// Per thread, the owning tenant's program, segment base and segment
    /// span, so fetch and address translation are a plain index by
    /// thread.
    programs: Vec<&'p Program>,
    mem_base: Vec<u64>,
    mem_span: Vec<u64>,
    cycle: u64,
    su: SchedulingUnit,
    iu: InstructionUnit,
    predictor: Predictor,
    fu: FuPool,
    tags: TagAllocator,
    regfile: Vec<u64>,
    window: usize,
    mem: MainMemory,
    cache: DataCache,
    sb: StoreBuffer,
    /// Fetched groups awaiting decode, oldest first; holds at most
    /// `config.fetch_threads` groups (each port contributes one per cycle).
    /// Per-thread order within the queue is fetch order.
    fetch_queue: VecDeque<FetchedBlock>,
    /// Per-thread age-ordered positions `(block id, entry idx)` of resident
    /// store/sync entries that are not yet done. Mirrors the scheduling
    /// unit so the load/store ordering gates are a front peek instead of a
    /// window scan: an access at `(bid, ei)` is blocked iff the thread's
    /// oldest outstanding store/sync sits at a strictly older position.
    memsync: Vec<VecDeque<(u64, usize)>>,
    /// Decode's staging buffer, drained into the scheduling unit by
    /// `push_block` and reused every cycle (never reallocated in steady
    /// state — sized to one block at construction).
    decode_buf: Vec<StagedEntry>,
    /// The ICOUNT fetch policy's per-thread occupancy scratch, reused
    /// every cycle (only written when that policy is selected).
    occupancy_buf: Vec<u32>,
    /// Next decode-order instruction identity (see [`StagedEntry::uid`]).
    next_uid: u64,
    /// [`drain`](Self::drain) is parking the machine: the fetch stage
    /// produces nothing until the pipeline empties. Transient (never
    /// serialized) — `drain` sets and clears it around its own stepping.
    fetch_suppressed: bool,
    stats: SimStats,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or the program does not fit
    /// the register partition; use [`Simulator::try_new`] for a fallible
    /// variant.
    #[must_use]
    pub fn new(config: SimConfig, programs: impl Into<ThreadPrograms<'p>>) -> Self {
        Self::try_new(config, programs).expect("valid configuration and compatible program")
    }

    /// Fallible constructor.
    ///
    /// `programs` is one program every thread runs — one [`Tenant`] that
    /// owns the machine — or a **program mix** of exactly
    /// `config.threads` programs, one tenant per hardware thread (see
    /// [`ThreadPrograms`]). A one-program slice is the shared form, so a
    /// 1-thread mix and its snapshots are interchangeable with the SPMD
    /// machine's.
    ///
    /// # Errors
    ///
    /// * [`SimError::Program`] if a mix does not hold exactly
    ///   `config.threads` programs,
    /// * [`SimError::Config`] if the configuration fails validation,
    /// * [`SimError::RegisterWindow`] if a program names a register
    ///   outside the per-thread window implied by the thread count.
    pub fn try_new(
        config: SimConfig,
        programs: impl Into<ThreadPrograms<'p>>,
    ) -> Result<Self, SimError> {
        let programs = programs.into().0;
        let n = config.threads;
        let owners: Vec<(&'p Program, Range<usize>)> = match programs.len() {
            1 => vec![(programs[0], 0..n)],
            m if m == n => programs
                .into_iter()
                .zip(0..n)
                .map(|(p, t)| (p, t..t + 1))
                .collect(),
            m => {
                return Err(SimError::Program(format!(
                    "mix of {m} programs for {n} threads"
                )))
            }
        };
        Self::build(config, owners)
    }

    /// Builds the machine from its tenant table: every thread's register
    /// seeds, entry pc, program and segment, and the flat memory image,
    /// come from the tenant that owns it.
    fn build(
        config: SimConfig,
        owners: Vec<(&'p Program, Range<usize>)>,
    ) -> Result<Self, SimError> {
        config.validate()?;
        let window = window_size(config.threads);
        for (program, _) in &owners {
            for (pc, insn) in program.decoded().iter().enumerate() {
                let regs = [insn.dest, insn.srcs[0], insn.srcs[1]];
                for reg in regs.into_iter().flatten() {
                    if reg.index() >= window {
                        return Err(SimError::RegisterWindow {
                            pc,
                            reg,
                            window,
                            threads: config.threads,
                        });
                    }
                }
            }
        }
        let mut words: Vec<u64> = Vec::new();
        let mut tenants = Vec::with_capacity(owners.len());
        for (program, threads) in owners {
            let base = words.len() as u64 * WORD_BYTES;
            words.extend(program.data().to_words());
            let span = words.len() as u64 * WORD_BYTES - base;
            tenants.push(Tenant {
                program,
                threads,
                base,
                span,
            });
        }
        let mut regfile = vec![0u64; window * config.threads];
        let mut programs = Vec::with_capacity(config.threads);
        let mut mem_base = Vec::with_capacity(config.threads);
        let mut mem_span = Vec::with_capacity(config.threads);
        for t in &tenants {
            for tid in t.threads.clone() {
                regfile[tid * window] = (tid - t.threads.start) as u64;
                regfile[tid * window + 1] = t.threads.len() as u64;
                programs.push(t.program);
                mem_base.push(t.base);
                mem_span.push(t.span);
            }
        }
        let entries: Vec<usize> = programs.iter().map(|p| p.entry()).collect();
        let mem = MainMemory::from_words(words);
        let mut su = SchedulingUnit::new(config.su_blocks(), config.block_size);
        su.reserve_threads(config.threads);
        Ok(Simulator {
            su,
            iu: InstructionUnit::with_entries(
                config.fetch_policy,
                &entries,
                config.fetch_width,
                config.aligned_fetch,
            ),
            predictor: Predictor::build(config.predictor, config.btb_entries, config.threads),
            fu: FuPool::new(config.fu),
            tags: TagAllocator::new(config.su_depth),
            regfile,
            window,
            mem,
            cache: DataCache::new(config.cache),
            sb: StoreBuffer::new(config.store_buffer),
            fetch_queue: VecDeque::with_capacity(config.fetch_threads),
            memsync: vec![VecDeque::with_capacity(config.su_depth); config.threads],
            decode_buf: Vec::with_capacity(config.block_size),
            occupancy_buf: vec![0; config.threads],
            next_uid: 0,
            fetch_suppressed: false,
            stats: SimStats {
                committed: vec![0; config.threads],
                issue_histogram: vec![0; config.issue_width + 1],
                ..SimStats::default()
            },
            cycle: 0,
            config,
            tenants,
            programs,
            mem_base,
            mem_span,
        })
    }

    /// The tenant table, in thread order: each tenant's program, the
    /// hardware threads that run it, and its data segment
    /// ([`Tenant::segment`]).
    #[must_use]
    pub fn tenants(&self) -> &[Tenant<'p>] {
        &self.tenants
    }

    /// Translates a tenant-local data address to its location in the
    /// flat backing memory, reproducing [`MainMemory`]'s fault order
    /// (alignment first, then bounds) against the thread's own segment:
    /// a thread faults with exactly the address and bound it would see
    /// were its tenant alone on the machine.
    fn translate(&self, tid: usize, addr: u64) -> Result<u64, MemError> {
        if !addr.is_multiple_of(WORD_BYTES) {
            return Err(MemError::Unaligned { addr });
        }
        if addr >= self.mem_span[tid] {
            return Err(MemError::OutOfBounds {
                addr,
                size: self.mem_span[tid],
            });
        }
        Ok(self.mem_base[tid] + addr)
    }

    /// The identity vector stored in snapshots: one program hash per
    /// tenant.
    fn identity_vec(&self) -> Vec<u64> {
        self.tenants
            .iter()
            .map(|t| program_identity(t.program))
            .collect()
    }

    /// The initial flat-memory contents — the snapshot delta baseline.
    fn baseline_words(&self) -> Vec<u64> {
        self.tenants
            .iter()
            .flat_map(|t| t.program.data().to_words())
            .collect()
    }

    /// The configuration of this run.
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether the machine has fully drained (all threads retired, pipeline
    /// and store buffer empty).
    #[must_use]
    pub fn finished(&self) -> bool {
        self.iu.all_retired()
            && self.su.is_empty()
            && self.sb.is_empty()
            && self.fetch_queue.is_empty()
    }

    /// Architectural register `r` of thread `tid`.
    ///
    /// # Panics
    ///
    /// Panics if `tid` or `r` is out of range for the partition.
    #[must_use]
    pub fn reg(&self, tid: usize, r: Reg) -> u64 {
        assert!(tid < self.config.threads, "thread {tid} out of range");
        assert!(r.index() < self.window, "register {r} outside the window");
        self.regfile[tid * self.window + r.index()]
    }

    /// The whole physical register file (thread windows concatenated) —
    /// layout-compatible with [`smt_isa::interp::Interp::reg_file`].
    #[must_use]
    pub fn reg_file(&self) -> &[u64] {
        &self.regfile
    }

    /// Architectural memory word at byte address `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-bounds addresses.
    #[must_use]
    pub fn mem_word(&self, addr: u64) -> u64 {
        self.mem.read(addr).expect("valid address")
    }

    /// Architectural data memory.
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Statistics accumulated so far (fully populated after [`run`]).
    ///
    /// [`run`]: Self::run
    #[must_use]
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The instruction unit (fetch policy state), for tests probing
    /// per-cycle policy behaviour via [`step`](Self::step).
    #[must_use]
    pub fn fetch_unit(&self) -> &InstructionUnit {
        &self.iu
    }

    /// Runs to completion.
    ///
    /// # Errors
    ///
    /// * [`SimError::Watchdog`] if `max_cycles` elapse first (deadlock),
    /// * [`SimError::Mem`] on a non-speculative memory fault.
    pub fn run(&mut self) -> Result<SimStats, SimError> {
        self.run_inner(None, None)
    }

    /// Runs to completion with `observers` attached: the commit sink
    /// receives every architecturally retired instruction in commit order
    /// (see [`CommitSink`]), the trace sink every pipeline lifecycle event
    /// (see [`TraceSink`]).
    ///
    /// Behaviorally identical to [`run`](Self::run): observers see the
    /// machine, they cannot perturb it — observed and unobserved runs are
    /// cycle-for-cycle identical.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run). On a commit-time memory fault the
    /// commit sink receives one final event with [`Retirement::fault`]
    /// set before the error is returned.
    pub fn run_with(&mut self, observers: Observers<'_>) -> Result<SimStats, SimError> {
        self.run_inner(observers.commits, observers.trace)
    }

    fn run_inner(
        &mut self,
        mut sink: Option<&mut dyn CommitSink>,
        mut trace: Option<&mut dyn TraceSink>,
    ) -> Result<SimStats, SimError> {
        while !self.finished() {
            if self.cycle >= self.config.max_cycles {
                return Err(SimError::Watchdog {
                    cycles: self.config.max_cycles,
                });
            }
            self.step_inner(sink.as_deref_mut(), trace.as_deref_mut())?;
        }
        self.finalize_stats();
        Ok(self.stats.clone())
    }

    /// Advances the machine one cycle.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run), minus the watchdog.
    pub fn step(&mut self) -> Result<(), SimError> {
        self.step_inner(None, None)
    }

    /// Advances one cycle with `observers` attached (see
    /// [`run_with`](Self::run_with)).
    ///
    /// # Errors
    ///
    /// Same as [`step`](Self::step).
    pub fn step_with(&mut self, observers: Observers<'_>) -> Result<(), SimError> {
        self.step_inner(observers.commits, observers.trace)
    }

    fn step_inner(
        &mut self,
        sink: Option<&mut (dyn CommitSink + '_)>,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), SimError> {
        self.commit_stage(sink, trace.as_deref_mut())?;
        self.drain_store_stage()?;
        self.writeback_stage(trace.as_deref_mut())?;
        self.issue_stage(trace.as_deref_mut())?;
        self.decode_stage(trace.as_deref_mut());
        self.fetch_stage();
        self.stats.su_occupancy_sum += self.su.num_entries() as u64;
        if let Some(t) = trace {
            let occ = self.occupancy();
            t.event(&TraceEvent::CycleEnd {
                cycle: self.cycle,
                occ: &occ,
            });
        }
        self.cycle += 1;
        Ok(())
    }

    /// Snapshot of structure occupancy at the end of the current cycle.
    fn occupancy(&self) -> Occupancy {
        let mut resident = [0u32; MAX_THREADS];
        for bi in 0..self.su.num_blocks() {
            let tid = self.su.block_tid(bi);
            if tid < MAX_THREADS {
                resident[tid] += self.su.block_len(bi) as u32;
            }
        }
        Occupancy {
            su_entries: self.su.num_entries() as u32,
            su_blocks: self.su.num_blocks() as u32,
            store_buffer: self.sb.len() as u32,
            outstanding_misses: self.cache.outstanding_refills(self.cycle) as u32,
            fetch_buffer: !self.fetch_queue.is_empty(),
            resident,
        }
    }

    fn finalize_stats(&mut self) {
        self.stats.cycles = self.cycle;
        self.stats.cache = *self.cache.stats();
        self.stats.fu = FuUsage {
            busy_cycles: FuClass::ALL
                .iter()
                .map(|&class| {
                    let count = self.fu.config().class(class).count;
                    (
                        class,
                        (0..count).map(|i| self.fu.busy_cycles(class, i)).collect(),
                    )
                })
                .collect(),
        };
    }

    // ---- commit -------------------------------------------------------------

    fn commit_stage(
        &mut self,
        mut sink: Option<&mut (dyn CommitSink + '_)>,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), SimError> {
        if let Some(i) = self
            .su
            .find_committable(self.config.commit_policy, self.config.commit_window_blocks)
        {
            // Faults must be precise at block granularity: if any entry in
            // the committing block faulted, raise the (oldest) fault before
            // a single architectural side effect — no register writes, no
            // store buffering, no predictor updates, no retirement. The
            // block-level flag makes the common (fault-free) case a single
            // test; the entry scan runs only on the way to aborting.
            if self.su.block_has_fault(i) {
                let tid = self.su.block_tid(i);
                let ei = (0..self.su.block_len(i))
                    .find(|&ei| self.su.fault_at(i, ei).is_some())
                    .expect("fault flag implies a faulted entry");
                let err = self
                    .su
                    .fault_at(i, ei)
                    .expect("find predicate guarantees a fault");
                let pc = self.su.pc_at(i, ei);
                let insn = self.su.insn_at(i, ei);
                let uid = self.su.uid_at(i, ei);
                if let Some(s) = sink.as_deref_mut() {
                    s.retired(&Retirement {
                        cycle: self.cycle,
                        block: self.su.block_id(i),
                        tid,
                        pc,
                        insn,
                        dest: None,
                        mem: None,
                        fault: Some(err),
                    });
                }
                if let Some(t) = trace.as_deref_mut() {
                    t.event(&TraceEvent::Retired {
                        cycle: self.cycle,
                        uid,
                        kind: RetireKind::Fault,
                    });
                }
                return Err(SimError::Mem { err, tid, pc });
            }
            if self.buffer_block_stores(i) {
                let bid = self.su.block_id(i);
                let tid = self.su.block_tid(i);
                for ei in 0..self.su.block_len(i) {
                    let e = self.su.commit_view(i, ei);
                    if let Some(rd) = e.insn.dest {
                        self.regfile[tid * self.window + rd.index()] = e.result;
                    }
                    let mut architectural = true;
                    match e.insn.op {
                        op if op.is_cond_branch() => {
                            // Predictor history updates when the instruction
                            // is shifted out, per the paper.
                            self.predictor.update(tid, e.pc, e.taken, e.target);
                        }
                        Opcode::J => self.predictor.update(tid, e.pc, true, e.target),
                        Opcode::Halt => self.iu.retire(tid),
                        Opcode::Wait if !e.sync_satisfied => {
                            // Spin retirement: discard the failed poll and
                            // refetch the WAIT, like a software spin loop.
                            self.iu.redirect(tid, e.pc);
                            self.stats.wait_spin_cycles += 1;
                            architectural = false;
                        }
                        _ => {}
                    }
                    if architectural {
                        self.stats.committed[tid] += 1;
                        if let Some(s) = sink.as_deref_mut() {
                            s.retired(&Retirement {
                                cycle: self.cycle,
                                block: bid,
                                tid,
                                pc: e.pc,
                                insn: e.insn,
                                dest: e.insn.dest.map(|rd| (rd, e.result)),
                                mem: (e.insn.op == Opcode::Sd).then_some((e.mem_addr, e.result)),
                                fault: None,
                            });
                        }
                    }
                    if let Some(t) = trace.as_deref_mut() {
                        t.event(&TraceEvent::Retired {
                            cycle: self.cycle,
                            uid: e.uid,
                            kind: if architectural {
                                RetireKind::Arch
                            } else {
                                RetireKind::Spin
                            },
                        });
                    }
                    self.tags.free(e.tag);
                }
                // Frees the block's row and deregisters every entry — the
                // committed stores leave the forwarding index here.
                self.su.free_block(i);
            } else {
                // The paper's restricted store policy: a committing store
                // needs a store-buffer slot; a full buffer stalls commit.
                self.stats.store_buffer_full_stalls += 1;
            }
        }
        // Masked Round Robin: mask the thread whose bottom block cannot
        // commit; harmless under the other policies.
        self.iu.update_mask(self.su.bottom_block_status());
        Ok(())
    }

    /// Pushes the committing block's stores into the store buffer (released
    /// immediately: commit *is* the release point). Returns whether every
    /// store made it; progress is guaranteed because the buffer drains one
    /// entry per cycle regardless of pipeline state.
    fn buffer_block_stores(&mut self, bi: usize) -> bool {
        let tid = self.su.block_tid(bi);
        for ei in 0..self.su.block_len(bi) {
            // Faulting blocks never reach here: commit pre-scans for
            // faults before buffering any of the block's stores.
            if self.su.insn_at(bi, ei).op != Opcode::Sd || self.su.store_buffered_at(bi, ei) {
                continue;
            }
            let tag = self.su.tag_at(bi, ei).raw();
            let addr = self.su.mem_addr_at(bi, ei);
            let value = self.su.result_at(bi, ei);
            let pc = self.su.pc_at(bi, ei);
            if self.sb.insert(tag, tid, addr, value, pc).is_err() {
                return false;
            }
            self.sb.release(tag);
            self.su.set_store_buffered(bi, ei);
        }
        true
    }

    // ---- store drain ----------------------------------------------------------

    fn drain_store_stage(&mut self) -> Result<(), SimError> {
        let Some(entry) = self.sb.peek_drainable() else {
            return Ok(());
        };
        match self.cache.access(entry.addr, self.cycle) {
            Outcome::Blocked { .. } => Ok(()), // cache port busy; retry next cycle
            _ => {
                self.mem
                    .write(entry.addr, entry.value)
                    .map_err(|err| SimError::Mem {
                        err,
                        tid: entry.tid,
                        pc: entry.pc,
                    })?;
                self.sb.remove_id(entry.id);
                Ok(())
            }
        }
    }

    // ---- writeback --------------------------------------------------------------

    fn writeback_stage(
        &mut self,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), SimError> {
        // The scheduling unit's completion heap hands out due completions
        // in the reference order: earliest `done_at`, oldest position
        // breaking ties.
        for _ in 0..self.config.writeback_width {
            let Some((bi, ei)) = self.su.pop_completion(self.cycle) else {
                break;
            };
            self.complete_entry(bi, ei, trace.as_deref_mut())?;
        }
        Ok(())
    }

    fn complete_entry(
        &mut self,
        bi: usize,
        ei: usize,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), SimError> {
        let now = self.cycle;
        self.su.mark_done(bi, ei);
        let tid = self.su.block_tid(bi);
        let pc = self.su.pc_at(bi, ei);
        let insn = self.su.insn_at(bi, ei);
        let result = self.su.result_at(bi, ei);
        if let Some(t) = trace.as_deref_mut() {
            t.event(&TraceEvent::Completed {
                cycle: now,
                uid: self.su.uid_at(bi, ei),
            });
        }
        if insn.is_memsync() {
            let bid = self.su.block_id(bi);
            let q = &mut self.memsync[tid];
            let pos = q
                .iter()
                .position(|&p| p == (bid, ei))
                .expect("completing store/sync is tracked in the ordering queue");
            q.remove(pos);
        }
        if insn.op == Opcode::Sd && self.su.fault_at(bi, ei).is_none() {
            // A completed non-faulted store becomes a forwarding source
            // until commit or squash removes it.
            self.su.fwd_insert(bi, ei);
        }
        if insn.dest.is_some() {
            self.su.broadcast(bi, ei, result, now);
        }
        match insn.op {
            Opcode::Post => {
                // Non-speculative by the issue gate; apply the increment.
                // The stashed address lives in `result`.
                self.mem
                    .fetch_add(result)
                    .map_err(|err| SimError::Mem { err, tid, pc })?;
            }
            Opcode::Wait
                // A satisfied WAIT releases the thread's fetch suspension;
                // an unsatisfied one keeps fetch parked and will retire as a
                // spin (commit refetches the WAIT itself).
                if self.su.sync_satisfied_at(bi, ei) => {
                    self.iu.resume_if(tid, self.su.tag_at(bi, ei));
                }
            op if op.is_cond_branch() => {
                let taken = self.su.taken_at(bi, ei);
                let target = self.su.target_at(bi, ei);
                let actual_next = if taken { target } else { pc + 1 };
                let predicted_next = if self.su.predicted_taken_at(bi, ei) {
                    self.su.predicted_target_at(bi, ei)
                } else {
                    pc + 1
                };
                self.stats.branches.resolved += 1;
                if actual_next != predicted_next {
                    self.stats.branches.mispredicted += 1;
                    self.su.set_mispredicted(bi, ei);
                    self.squash_wrong_path(tid, bi, ei, actual_next, trace);
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Selective squash: discard every younger same-thread entry, reclaim
    /// their tags, and redirect the thread's fetch. (Stores only enter the
    /// store buffer at commit, so nothing speculative can be resident
    /// there.)
    fn squash_wrong_path(
        &mut self,
        tid: usize,
        bi: usize,
        ei: usize,
        correct_pc: usize,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) {
        // The squash deregisters removed entries from the waiter, producer,
        // and forwarding indexes itself; the simulator only settles the
        // state it owns (tags, ordering queues, fetch redirect).
        let removed = self.su.squash_after(tid, bi, ei).len();
        self.stats.squashed += removed as u64;
        let mut squashed_memsync = 0;
        for idx in 0..removed {
            let r = self.su.squashed_at(idx);
            self.tags.free(r.tag);
            if let Some(t) = trace.as_deref_mut() {
                t.event(&TraceEvent::Squashed {
                    cycle: self.cycle,
                    uid: r.uid,
                });
            }
            // Done store/sync entries already left the ordering queue when
            // they completed; only outstanding ones are still tracked.
            if r.memsync_outstanding {
                squashed_memsync += 1;
            }
        }
        // Squashed entries are the thread's youngest, so its squashed
        // store/sync positions are exactly the back of the ordering queue.
        for _ in 0..squashed_memsync {
            self.memsync[tid].pop_back();
        }
        self.iu.redirect(tid, correct_pc);
        // Any of the thread's groups waiting at decode are wrong-path too;
        // their storage goes back to the fetcher's pool.
        let mut i = 0;
        while i < self.fetch_queue.len() {
            if self.fetch_queue[i].tid == tid {
                let b = self.fetch_queue.remove(i).expect("index in bounds");
                self.iu.recycle(b.insns);
            } else {
                i += 1;
            }
        }
    }

    // ---- issue ---------------------------------------------------------------------

    fn issue_stage(
        &mut self,
        mut trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<(), SimError> {
        let mut budget = self.config.issue_width;
        let mut bi = 0;
        while bi < self.su.num_blocks() && budget > 0 {
            // The ready mask holds exactly the unissued entries with no
            // operand waiting on a producer — the only candidates the
            // reference window scan could issue. Bypass timing is still
            // checked per entry (an operand written back this cycle may not
            // be usable yet without bypassing), so a set bit is necessary
            // but not sufficient. Issuing clears the entry's own bit, and
            // nothing during issue can set new bits, so the snapshot walk
            // visits the same candidates in the same (oldest-first) order.
            let mut mask = self.su.ready_mask(bi);
            while mask != 0 && budget > 0 {
                let ei = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if self.try_issue_entry(bi, ei, trace.as_deref_mut())? {
                    budget -= 1;
                    self.stats.issued += 1;
                }
            }
            bi += 1;
        }
        let issued_now = self.config.issue_width - budget;
        self.stats.issue_histogram[issued_now] += 1;
        Ok(())
    }

    /// Attempts to issue the entry at `(bi, ei)`. Returns whether it issued.
    fn try_issue_entry(
        &mut self,
        bi: usize,
        ei: usize,
        trace: Option<&mut (dyn TraceSink + '_)>,
    ) -> Result<bool, SimError> {
        let now = self.cycle;
        let bypass = self.config.bypass;
        if self.su.state_at(bi, ei) != EntryState::Waiting {
            return Ok(false);
        }
        let ops = self.su.ops_at(bi, ei);
        let (Some(a), Some(b)) = (ops[0].value_at(now, bypass), ops[1].value_at(now, bypass))
        else {
            return Ok(false);
        };
        let insn = self.su.insn_at(bi, ei);
        let tid = self.su.block_tid(bi);
        let class = insn.fu;
        match class {
            FuClass::Load => {
                // Restricted load policy: wait until every older same-thread
                // store has its address (is in the store buffer) and no
                // older sync is pending. The per-thread ordering queue holds
                // outstanding store/sync positions oldest-first.
                let bid = self.su.block_id(bi);
                let blocked = self.memsync[tid]
                    .front()
                    .is_some_and(|&front| front < (bid, ei));
                if blocked || !self.fu.can_issue(class, now) {
                    return Ok(false);
                }
                // The effective address is thread-local; the cache, the
                // forwarding index, and the backing memory all speak
                // global (translated) addresses, so cross-thread
                // forwarding and mix cache interference are physical.
                let mut addr = effective_addr(a, insn.imm);
                let (result, fault, data_ready, memk) = match self.translate(tid, addr) {
                    Err(err) => (0, Some(err), now, MemKind::None), // speculative fault: defer
                    Ok(gaddr) => {
                        addr = gaddr;
                        let mem_value = self.mem.read(gaddr).expect("translated address is valid");
                        match self.forward_value(tid, bid, ei, gaddr) {
                            // Forwarded data bypasses the cache entirely.
                            Some(v) => (v, None, now, MemKind::Forwarded),
                            None => match self.cache.access(gaddr, now) {
                                Outcome::Blocked { .. } => return Ok(false),
                                Outcome::Hit => (mem_value, None, now, MemKind::Hit),
                                Outcome::Miss { ready_at } => {
                                    (mem_value, None, ready_at, MemKind::Miss)
                                }
                                Outcome::PendingHit { ready_at } => {
                                    (mem_value, None, ready_at, MemKind::PendingHit)
                                }
                            },
                        }
                    }
                };
                let done_at = self
                    .fu
                    .try_issue(class, now)
                    .expect("can_issue checked")
                    .max(data_ready);
                self.su.set_result(bi, ei, result);
                self.su.set_mem_addr(bi, ei, addr);
                self.su.set_dcache_miss(bi, ei, data_ready > now);
                if let Some(err) = fault {
                    self.su.set_fault(bi, ei, err);
                }
                self.su.mark_executing(bi, ei, done_at);
                self.emit_issued(bi, ei, done_at, memk, trace);
                Ok(true)
            }
            FuClass::Store => {
                // Preserve per-thread store order (forwarding relies on it)
                // and order around sync primitives. A store is in the queue
                // itself, so the front is older only if it differs from us.
                let blocked = self.memsync[tid]
                    .front()
                    .is_some_and(|&front| front < (self.su.block_id(bi), ei));
                if blocked || !self.fu.can_issue(class, now) {
                    return Ok(false);
                }
                // Stores hold their *global* address (the forwarding
                // index and store buffer match loads by address); a
                // faulting store keeps its thread-local one for precise
                // reporting.
                let mut addr = effective_addr(a, insn.imm);
                let fault = match self.translate(tid, addr) {
                    Ok(gaddr) => {
                        addr = gaddr;
                        None
                    }
                    Err(err) => Some(err),
                };
                let done_at = self.fu.try_issue(class, now).expect("can_issue checked");
                self.su.set_mem_addr(bi, ei, addr);
                self.su.set_result(bi, ei, b); // store data, held until commit
                if let Some(err) = fault {
                    self.su.set_fault(bi, ei, err);
                }
                self.su.mark_executing(bi, ei, done_at);
                self.emit_issued(bi, ei, done_at, MemKind::None, trace);
                Ok(true)
            }
            FuClass::Sync => {
                // Non-speculative: only the thread's oldest unfinished
                // instruction may execute a sync primitive.
                if self.su.any_older_unfinished(tid, bi, ei) {
                    return Ok(false);
                }
                let pc = self.su.pc_at(bi, ei);
                match insn.op {
                    Opcode::Wait => {
                        if !self.fu.can_issue(class, now) {
                            return Ok(false);
                        }
                        let gaddr =
                            self.translate(tid, a)
                                .map_err(|err| SimError::Mem { err, tid, pc })?;
                        let flag = self.mem.read(gaddr).expect("translated address is valid");
                        let satisfied = (flag as i64) >= (b as i64);
                        let done_at = self.fu.try_issue(class, now).expect("checked");
                        self.su.set_sync_satisfied(bi, ei, satisfied);
                        self.su.mark_executing(bi, ei, done_at);
                        self.emit_issued(bi, ei, done_at, MemKind::None, trace);
                        Ok(true)
                    }
                    Opcode::Post => {
                        // Validate the address now; the increment itself is
                        // applied at writeback.
                        let gaddr =
                            self.translate(tid, a)
                                .map_err(|err| SimError::Mem { err, tid, pc })?;
                        if !self.fu.can_issue(class, now) {
                            return Ok(false);
                        }
                        let done_at = self.fu.try_issue(class, now).expect("checked");
                        // Stash the (global) address in `result` for
                        // writeback's fetch_add.
                        self.su.set_result(bi, ei, gaddr);
                        self.su.mark_executing(bi, ei, done_at);
                        self.emit_issued(bi, ei, done_at, MemKind::None, trace);
                        Ok(true)
                    }
                    other => unreachable!("non-sync opcode {other} in sync class"),
                }
            }
            FuClass::Ctu => {
                if !self.fu.can_issue(class, now) {
                    return Ok(false);
                }
                let done_at = self.fu.try_issue(class, now).expect("checked");
                let (taken, target) = match insn.op {
                    Opcode::J => (true, insn.imm as usize),
                    Opcode::Halt => (false, 0),
                    op => (branch_taken(op, a, b), insn.imm as usize),
                };
                self.su.set_taken_target(bi, ei, taken, target);
                self.su.mark_executing(bi, ei, done_at);
                self.emit_issued(bi, ei, done_at, MemKind::None, trace);
                Ok(true)
            }
            _ => {
                if !self.fu.can_issue(class, now) {
                    return Ok(false);
                }
                let done_at = self.fu.try_issue(class, now).expect("checked");
                self.su
                    .set_result(bi, ei, alu_result(insn.op, a, b, insn.imm));
                self.su.mark_executing(bi, ei, done_at);
                self.emit_issued(bi, ei, done_at, MemKind::None, trace);
                Ok(true)
            }
        }
    }

    /// Emits the [`TraceEvent::Issued`] event for the entry at `(bi, ei)`.
    fn emit_issued(
        &self,
        bi: usize,
        ei: usize,
        done_at: u64,
        mem: MemKind,
        trace: Option<&mut (dyn TraceSink + '_)>,
    ) {
        if let Some(t) = trace {
            t.event(&TraceEvent::Issued {
                cycle: self.cycle,
                uid: self.su.uid_at(bi, ei),
                fu: self.su.insn_at(bi, ei).fu,
                done_at,
                mem,
            });
        }
    }

    /// Store-to-load forwarding for a load at `(lbid, lei)` (stable block
    /// id + entry index): the youngest matching store among — in search
    /// order — the load's own thread's *older* completed stores, other
    /// threads' completed **non-speculative** stores (no unresolved older
    /// control transfer of their thread), and the store buffer of committed
    /// stores. `None` falls through to the cache/memory.
    ///
    /// The scheduling unit's forwarding index holds exactly the resident
    /// completed non-faulted stores, chained youngest-first per address
    /// bucket, so the youngest-first window walk of the reference model
    /// collapses to one chain traversal. Block ids are monotone along the
    /// window, so `(block id, entry index)` ordering *is* window-position
    /// ordering.
    fn forward_value(&self, tid: usize, lbid: u64, lei: usize, addr: u64) -> Option<u64> {
        self.su
            .forward_resident(tid, lbid, lei, addr)
            .or_else(|| self.sb.forward(addr))
    }

    // ---- decode ---------------------------------------------------------------------

    fn decode_stage(&mut self, mut trace: Option<&mut (dyn TraceSink + '_)>) {
        // Slot accounting contract (see `smt_trace`): every cycle this stage
        // disposes of exactly `block_size × fetch_threads` decode slots —
        // one `block_size`-slot lane per fetch port, each slot either a
        // `Decoded` instruction or part of a `SlotsLost` with a leaf cause —
        // so the CPI stack sums to `width × cycles` by construction.
        let mut qi = 0usize;
        let mut deferred_operand: u32 = 0;
        let mut deferred_width: u32 = 0;
        for _ in 0..self.config.fetch_threads {
            self.decode_lane(
                &mut qi,
                &mut deferred_operand,
                &mut deferred_width,
                trace.as_deref_mut(),
            );
        }
    }

    /// One decode lane: takes the oldest eligible queued fetch group and
    /// admits up to `block_size` of its instructions into the scheduling
    /// unit.
    ///
    /// `qi` is the queue index the eligibility scan resumes from; a group
    /// this cycle's lanes deferred (scoreboard retry, or the undrained
    /// remainder of an oversize group) stays queued at `qi` and the cursor
    /// moves past it. `deferred_operand`/`deferred_width` record the
    /// deferring threads: per-thread decode is in order, so a younger group
    /// of a deferred thread must not enter ahead of its stalled elder.
    fn decode_lane(
        &mut self,
        qi: &mut usize,
        deferred_operand: &mut u32,
        deferred_width: &mut u32,
        trace: Option<&mut (dyn TraceSink + '_)>,
    ) {
        let width = self.config.block_size as u32;
        let deferred = *deferred_operand | *deferred_width;
        while *qi < self.fetch_queue.len() && deferred & (1 << self.fetch_queue[*qi].tid) != 0 {
            *qi += 1;
        }
        if *qi >= self.fetch_queue.len() {
            if let Some(t) = trace {
                let cause = if self.fetch_queue.is_empty() {
                    self.frontend_starve_cause()
                } else if *deferred_operand != 0 {
                    // Only in-order-held groups remain, the eldest stalled
                    // on a scoreboard retry.
                    SlotCause::OperandWait
                } else {
                    // Held behind an oversize group draining one block per
                    // cycle: decode-bandwidth fragmentation.
                    SlotCause::Fragment
                };
                t.event(&TraceEvent::SlotsLost {
                    cycle: self.cycle,
                    cause,
                    slots: width,
                });
            }
            return;
        }
        if !self.su.has_space() {
            // The paper's "scheduling unit stall": entries cannot shift, so
            // no new block enters (counted once per stalled lane).
            self.stats.su_stall_cycles += 1;
            if let Some(t) = trace {
                t.event(&TraceEvent::SlotsLost {
                    cycle: self.cycle,
                    cause: self.head_stall_cause(),
                    slots: width,
                });
            }
            return;
        }
        let block = self
            .fetch_queue
            .remove(*qi)
            .expect("eligibility scan checked the index");
        let tid = block.tid;
        let now = self.cycle;
        // The staging buffer moves out of `self` for the loop's duration so
        // decode can push to it while querying the scheduling unit; every
        // exit path puts it back, and it is never reallocated in steady
        // state (sized to one block at construction).
        let mut staged = std::mem::take(&mut self.decode_buf);
        staged.clear();
        let mut leftover: Vec<FetchedInsn> = Vec::new();
        let cswitch = self.config.fetch_policy == FetchPolicy::ConditionalSwitch;

        for (idx, f) in block.insns.iter().enumerate() {
            if staged.len() >= self.config.block_size {
                // A fetch group wider than a scheduling-unit block drains
                // one block per cycle; the remainder keeps its turn.
                leftover = block.insns[idx..].to_vec();
                break;
            }
            // Resolve sources: in-group producers first (youngest), then the
            // scheduling unit, then the committed register file. An in-group
            // producer's slot handle is known before admission via
            // `staging_handle` (the next block's row is fixed).
            let mut ops = [Operand::Unused, Operand::Unused];
            let mut wait_src = [NO_SRC, NO_SRC];
            let mut scoreboard_stall = false;
            for (k, src) in f.insn.srcs.into_iter().enumerate() {
                let Some(reg) = src else { continue };
                let in_group = staged
                    .iter()
                    .enumerate()
                    .rev()
                    .find(|(_, p)| p.insn.dest == Some(reg))
                    .map(|(pi, p)| Lookup::Pending(p.tag, self.su.staging_handle(pi)));
                let lookup = in_group.unwrap_or_else(|| self.su.lookup(tid, reg));
                ops[k] = match lookup {
                    Lookup::Available(v) => Operand::Ready {
                        value: v,
                        since: now,
                    },
                    Lookup::NotFound => Operand::Ready {
                        value: self.regfile[tid * self.window + reg.index()],
                        since: now,
                    },
                    Lookup::Pending(t, src) => {
                        if self.config.renaming == RenamingMode::Scoreboard {
                            scoreboard_stall = true;
                            break;
                        }
                        wait_src[k] = src;
                        Operand::Waiting { tag: t }
                    }
                };
            }
            if scoreboard_stall {
                leftover = block.insns[idx..].to_vec();
                break;
            }
            let tag = self
                .tags
                .alloc()
                .expect("tag pool sized to the scheduling unit");
            let mut entry = StagedEntry::new(tag, f.pc, f.insn);
            entry.uid = self.next_uid;
            self.next_uid += 1;
            entry.ops = ops;
            entry.wait_src = wait_src;
            entry.predicted_taken = f.predicted_taken;
            entry.predicted_target = f.predicted_target;
            match f.insn.op {
                Opcode::J => {
                    // Unconditional jumps resolve at decode: fix the fetch
                    // PC if the predictor sent fetch the wrong way, and
                    // record a perfect prediction so execute never squashes.
                    let target = f.insn.imm as usize;
                    let fetch_followed = f.predicted_taken && f.predicted_target == target;
                    entry.predicted_taken = true;
                    entry.predicted_target = target;
                    staged.push(entry);
                    if !fetch_followed {
                        self.iu.set_pc(tid, target);
                        // Fetch ran down the fall-through path; any of the
                        // thread's younger queued groups came from it.
                        self.drop_queued_groups(tid);
                    }
                    if cswitch && f.insn.triggers_cswitch() {
                        self.iu.signal_switch(tid);
                    }
                    // Anything after the jump in this group is dead. If a
                    // `halt` was among the dead slots, fetch saw it and
                    // stopped — undo that: the program doesn't halt here.
                    self.discard_tail(tid, &block.insns[idx + 1..]);
                    break;
                }
                Opcode::Wait => {
                    // A decoded WAIT suspends fetch for its thread until it
                    // completes, preventing the spin from flooding the unit.
                    // Groups fetched past the WAIT before decode saw it are
                    // dropped — they re-fetch from `resume_pc` when the
                    // suspension lifts, or not at all if the WAIT spins.
                    self.iu.suspend(tid, tag, f.pc + 1);
                    self.drop_queued_groups(tid);
                    if cswitch {
                        self.iu.signal_switch(tid);
                    }
                    staged.push(entry);
                    self.discard_tail(tid, &block.insns[idx + 1..]);
                    break;
                }
                Opcode::Halt => {
                    staged.push(entry);
                    break;
                }
                _ => {
                    if cswitch && f.insn.triggers_cswitch() {
                        self.iu.signal_switch(tid);
                    }
                    staged.push(entry);
                }
            }
        }

        if staged.is_empty() {
            // Scoreboard stall on the very first instruction: retry the
            // whole group next cycle (it keeps its queue position; this
            // lane's later siblings skip the thread to stay in order).
            self.decode_buf = staged;
            if let Some(t) = trace {
                let held = block.insns.len() as u32;
                t.event(&TraceEvent::SlotsLost {
                    cycle: self.cycle,
                    cause: SlotCause::OperandWait,
                    slots: held.min(width),
                });
                if width > held {
                    t.event(&TraceEvent::SlotsLost {
                        cycle: self.cycle,
                        cause: SlotCause::Fragment,
                        slots: width - held,
                    });
                }
            }
            self.fetch_queue.insert(*qi, block);
            *deferred_operand |= 1 << tid;
            *qi += 1;
            return;
        }
        let bid = self.su.push_block(tid, &staged);
        for (ei, e) in staged.iter().enumerate() {
            if e.insn.is_memsync() {
                self.memsync[tid].push_back((bid, ei));
            }
        }
        if let Some(t) = trace {
            for (ei, e) in staged.iter().enumerate() {
                t.event(&TraceEvent::Decoded {
                    cycle: self.cycle,
                    slot: &DecodedSlot {
                        uid: e.uid,
                        tid,
                        pc: e.pc,
                        insn: e.insn,
                        block: bid,
                        entry: ei,
                        fetched_at: block.fetched_at,
                    },
                });
            }
            // Slots not filled by decoded instructions: held by a
            // scoreboard-stalled remainder (retried next cycle), or simply
            // absent from a short fetch group / discarded past a
            // block-ending instruction.
            let decoded = staged.len() as u32;
            let held = (leftover.len() as u32).min(width - decoded);
            if held > 0 {
                t.event(&TraceEvent::SlotsLost {
                    cycle: self.cycle,
                    cause: SlotCause::OperandWait,
                    slots: held,
                });
            }
            if width > decoded + held {
                t.event(&TraceEvent::SlotsLost {
                    cycle: self.cycle,
                    cause: SlotCause::Fragment,
                    slots: width - decoded - held,
                });
            }
        }
        staged.clear();
        self.decode_buf = staged;
        if !leftover.is_empty() {
            // The undrained remainder keeps the group's queue position: one
            // scheduling-unit block per group per cycle. The drained
            // original's storage goes back to the fetcher.
            self.fetch_queue.insert(
                *qi,
                FetchedBlock {
                    tid,
                    insns: leftover,
                    fetched_at: block.fetched_at,
                },
            );
            self.iu.recycle(block.insns);
            *deferred_width |= 1 << tid;
            *qi += 1;
        } else {
            // The consumed fetch group's storage goes back to the fetcher.
            self.iu.recycle(block.insns);
        }
    }

    /// Drops every queued fetch group of `tid` — decode redirected or
    /// suspended the thread, so fetch's younger run-ahead groups are stale.
    /// A `halt` fetch stopped on inside a dropped group is revoked, like
    /// [`discard_tail`](Self::discard_tail): the thread re-fetches from its
    /// corrected PC and re-encounters any real halt there.
    fn drop_queued_groups(&mut self, tid: usize) {
        let mut saw_halt = false;
        let mut i = 0;
        while i < self.fetch_queue.len() {
            if self.fetch_queue[i].tid == tid {
                let b = self.fetch_queue.remove(i).expect("index in bounds");
                saw_halt |= b.insns.iter().any(|f| f.insn.op == Opcode::Halt);
                self.iu.recycle(b.insns);
            } else {
                i += 1;
            }
        }
        if saw_halt {
            self.iu.clear_fetch_halted(tid);
        }
    }

    /// Why the decode frontend has nothing to offer this cycle: every
    /// unretired thread is parked on a `WAIT` (synchronization), or fetch
    /// simply produced no block (thread count, wasted fetch slots, drain).
    fn frontend_starve_cause(&self) -> SlotCause {
        let mut unretired = 0usize;
        let mut suspended = 0usize;
        for tid in 0..self.config.threads {
            if !self.iu.is_retired(tid) {
                unretired += 1;
                if self.iu.is_suspended(tid) {
                    suspended += 1;
                }
            }
        }
        if unretired > 0 && suspended == unretired {
            SlotCause::SyncWait
        } else {
            SlotCause::FetchStarved
        }
    }

    /// Why the scheduling unit is full: classifies the oldest unfinished
    /// instruction of the bottom (oldest) block — the head of the machine —
    /// since nothing can shift until it leaves. Called only on a decode
    /// stall with a full unit, so a bottom block exists.
    fn head_stall_cause(&self) -> SlotCause {
        let now = self.cycle;
        let Some(ei) = self.su.first_unfinished(0) else {
            // Everything in the bottom block is done but it has not left:
            // commit bandwidth (one block per cycle) or a store stuck on a
            // full store buffer.
            return if self.sb.len() == self.sb.capacity() {
                SlotCause::StoreBufFull
            } else {
                SlotCause::SuFull
            };
        };
        let insn = self.su.insn_at(0, ei);
        match self.su.state_at(0, ei) {
            EntryState::Waiting => {
                if !self.su.operands_ready_at(0, ei, now, self.config.bypass) {
                    return SlotCause::OperandWait;
                }
                match insn.fu {
                    FuClass::Sync => SlotCause::SyncWait,
                    class @ (FuClass::Load | FuClass::Store) => {
                        let older_memsync = self.memsync[self.su.block_tid(0)]
                            .front()
                            .is_some_and(|&front| front < (self.su.block_id(0), ei));
                        if older_memsync {
                            SlotCause::MemOrder
                        } else if class == FuClass::Load
                            && self.fu.can_issue(class, now)
                            && self.cache.refill_busy(now)
                        {
                            // The FU would take it, but every MSHR is busy,
                            // so the cache rejects new accesses.
                            SlotCause::DCachePort
                        } else {
                            SlotCause::FuBusy
                        }
                    }
                    _ => SlotCause::FuBusy,
                }
            }
            EntryState::Executing { .. } => {
                if insn.fu == FuClass::Load && self.su.dcache_miss_at(0, ei) {
                    SlotCause::DCacheMiss
                } else if insn.fu == FuClass::Sync {
                    SlotCause::SyncWait
                } else {
                    SlotCause::FuBusy
                }
            }
            EntryState::Done => unreachable!("filtered above"),
        }
    }

    /// Discards the unreached tail of a decode group (instructions after a
    /// jump or a suspending `WAIT`). If fetch had stopped on a `halt` in
    /// that tail, the stop is revoked so the thread keeps fetching.
    fn discard_tail(&mut self, tid: usize, tail: &[FetchedInsn]) {
        if tail.iter().any(|f| f.insn.op == Opcode::Halt) {
            self.iu.clear_fetch_halted(tid);
        }
    }

    // ---- fetch ----------------------------------------------------------------------

    fn fetch_stage(&mut self) {
        if self.fetch_suppressed {
            return; // drain(): the front end is parked
        }
        let ports = self.config.fetch_threads;
        if self.fetch_queue.len() >= ports {
            return; // decode is backed up; the queue holds a block per port
        }
        // Speculation-depth limit: recompute every thread's stall flag from
        // the scheduling unit before any port selects. The flags are
        // transient by construction — nothing between here and selection
        // changes the unresolved-branch population.
        if self.config.spec_depth > 0 {
            for tid in 0..self.config.threads {
                let deep = self.su.unresolved_branches(tid) >= self.config.spec_depth as u32;
                self.iu.set_spec_stall(tid, deep);
            }
        }
        // The ICOUNT signal: per-thread instructions resident in the
        // scheduling unit plus those queued ahead of decode. Computed only
        // when the policy reads it, so the other policies pay nothing; the
        // scratch vector is owned by the simulator and reused every cycle.
        let icount = self.config.fetch_policy == FetchPolicy::Icount;
        if icount {
            self.occupancy_buf.iter_mut().for_each(|c| *c = 0);
            for bi in 0..self.su.num_blocks() {
                self.occupancy_buf[self.su.block_tid(bi)] += self.su.block_len(bi) as u32;
            }
            for b in &self.fetch_queue {
                self.occupancy_buf[b.tid] += b.insns.len() as u32;
            }
        }
        // Each port serves a distinct thread this cycle.
        let mut granted: u32 = 0;
        for _ in self.fetch_queue.len()..ports {
            let occupancy: &[u32] = if icount { &self.occupancy_buf } else { &[] };
            let Some(tid) = self.iu.select_fetch(occupancy, granted) else {
                self.stats.fetch_idle_cycles += 1;
                continue;
            };
            granted |= 1 << tid;
            match self
                .iu
                .fetch_block(tid, self.programs[tid], &mut self.predictor)
            {
                Some(mut block) => {
                    block.fetched_at = self.cycle;
                    self.stats.fetched_blocks += 1;
                    if icount {
                        self.occupancy_buf[tid] += block.insns.len() as u32;
                    }
                    self.fetch_queue.push_back(block);
                }
                None => self.stats.fetch_idle_cycles += 1,
            }
        }
    }

    // ---- checkpoint / restore -------------------------------------------------

    /// Captures the complete machine state as a versioned [`Snapshot`].
    ///
    /// The snapshot plus the same configuration and program fully
    /// determine the machine: [`restore`](Self::restore) followed by
    /// [`run`](Self::run) is bit-identical to never having stopped —
    /// same cycle count, same statistics, same architectural state,
    /// same commit stream.
    ///
    /// Serialized: every stateful structure (scheduling unit, fetch
    /// unit, predictor, functional units, tag allocator, cache, store
    /// buffer, fetch buffer, statistics, register file) plus memory as
    /// a sparse delta against the program's data image. Derived state
    /// (renaming indexes, ordering queues, the forwarding index) is
    /// recomputed on restore.
    #[must_use]
    pub fn checkpoint(&self) -> Snapshot {
        let mut w = Writer::new();
        w.section(sec::CORE);
        w.put_u64(self.cycle);
        w.put_u64(self.next_uid);
        w.put_usize(self.regfile.len());
        for &v in &self.regfile {
            w.put_u64(v);
        }
        w.section(sec::SU);
        self.su.save(&mut w);
        w.section(sec::FETCH);
        self.iu.save(&mut w);
        w.section(sec::PREDICTOR);
        self.predictor.save(&mut w);
        w.section(sec::FU);
        self.fu.save(&mut w);
        w.section(sec::TAGS);
        self.tags.save(&mut w);
        w.section(sec::CACHE);
        self.cache.save(&mut w);
        w.section(sec::STORE_BUFFER);
        self.sb.save(&mut w);
        w.section(sec::MEMORY);
        self.mem.save_delta(&self.baseline_words(), &mut w);
        w.section(sec::FETCH_BUFFER);
        w.put_usize(self.fetch_queue.len());
        for b in &self.fetch_queue {
            w.put_usize(b.tid);
            w.put_u64(b.fetched_at);
            w.put_usize(b.insns.len());
            for f in &b.insns {
                // Like an SU entry, the decoded instruction is
                // recovered from the program text via its pc.
                w.put_usize(f.pc);
                w.put_bool(f.predicted_taken);
                w.put_usize(f.predicted_target);
            }
        }
        w.section(sec::STATS);
        save_stats(&self.stats, &mut w);
        Snapshot {
            config_hash: config_identity(&self.config),
            program_hashes: self.identity_vec(),
            cycle: self.cycle,
            warm: None,
            payload: w.into_bytes(),
        }
    }

    /// Whether the pipeline is empty (scheduling unit, store buffer, and
    /// fetch queue all drained) — the machine state a warm snapshot can
    /// capture exactly. A finished machine is quiescent too.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.su.is_empty() && self.sb.is_empty() && self.fetch_queue.is_empty()
    }

    /// Parks the machine at a quiescent point: suppresses fetch and steps
    /// until every in-flight instruction has left the pipeline (retired,
    /// squashed, or spin-discarded) and the store buffer has written back.
    /// Execution stays exact — drain only stops *new* fetch, so the
    /// machine lands at an architecturally precise point a few cycles past
    /// where it was. Threads spinning on an unsatisfied `WAIT` drain too:
    /// the poll retires as a spin and the thread re-fetches it after a
    /// fork or resume.
    ///
    /// # Errors
    ///
    /// Same as [`run`](Self::run) — the watchdog still applies.
    pub fn drain(&mut self) -> Result<(), SimError> {
        self.fetch_suppressed = true;
        let result = (|| {
            while !self.is_quiescent() {
                if self.cycle >= self.config.max_cycles {
                    return Err(SimError::Watchdog {
                        cycles: self.config.max_cycles,
                    });
                }
                self.step_inner(None, None)?;
            }
            Ok(())
        })();
        self.fetch_suppressed = false;
        result
    }

    /// Captures a **warm** snapshot: only the configuration-independent
    /// state — register file, per-thread architectural PCs and retirement,
    /// and the memory delta. The machine must be [quiescent] (normally
    /// via [`drain`](Self::drain)) so that this *is* the complete machine
    /// state; everything microarchitectural (scheduling unit, caches,
    /// predictor, BTB, functional units, fetch policy cursors) is empty
    /// or cold by construction and is rebuilt cold by
    /// [`fork_warm`](Self::fork_warm), then rewarmed inside the forked
    /// run's own measurement window.
    ///
    /// `relaxed` names the configuration fields a fork may change (see
    /// [`warm`]); it is sorted and deduplicated into the snapshot.
    ///
    /// # Errors
    ///
    /// [`SimError::Snapshot`] if the machine is not quiescent or
    /// `relaxed` contains an unknown field id.
    ///
    /// [quiescent]: Self::is_quiescent
    pub fn checkpoint_warm(&self, relaxed: &[u32]) -> Result<Snapshot, SimError> {
        if !self.is_quiescent() {
            return Err(SimError::Snapshot(
                "warm checkpoint of a non-quiescent machine; call drain() first".into(),
            ));
        }
        let mut relaxed: Vec<u32> = relaxed.to_vec();
        relaxed.sort_unstable();
        relaxed.dedup();
        if let Some(&id) = relaxed.iter().find(|&&id| !warm::is_known(id)) {
            return Err(SimError::Snapshot(format!(
                "unknown relaxed configuration field id {id}"
            )));
        }
        let mut w = Writer::new();
        w.section(wsec::ARCH);
        w.put_usize(self.regfile.len());
        for &v in &self.regfile {
            w.put_u64(v);
        }
        w.put_usize(self.config.threads);
        for tid in 0..self.config.threads {
            w.put_usize(self.iu.pc(tid));
            w.put_bool(self.iu.is_retired(tid));
        }
        w.section(wsec::MEMORY);
        self.mem.save_delta(&self.baseline_words(), &mut w);
        Ok(Snapshot {
            config_hash: config_identity(&self.config),
            program_hashes: self.identity_vec(),
            cycle: self.cycle,
            warm: Some(smt_checkpoint::WarmIdentity {
                warm_hash: warm::identity(&self.config, &relaxed),
                relaxed,
            }),
            payload: w.into_bytes(),
        })
    }

    /// Builds a fresh machine under `config` and seeds it with a warm
    /// snapshot's architectural state: memory, register file, and each
    /// thread's PC and retirement carry over; everything else (caches,
    /// predictor, BTB, functional units, scheduling unit, fetch cursors,
    /// statistics) starts cold, and the cycle counter restarts at zero —
    /// the forked run measures exactly its own window.
    ///
    /// `config` may differ from the snapshot's source configuration only
    /// in the snapshot's relaxed fields; the program identities must match
    /// exactly, position by position for a mix.
    ///
    /// # Errors
    ///
    /// * [`SimError::Snapshot`] if the snapshot has no warm identity
    ///   (exact snapshots must go through [`restore`](Self::restore)),
    ///   names an unknown relaxed field, differs from `config` in a
    ///   non-relaxed field, was taken of a different program, or its
    ///   payload fails to decode;
    /// * whatever [`try_new`](Self::try_new) reports.
    pub fn fork_warm(
        config: SimConfig,
        programs: impl Into<ThreadPrograms<'p>>,
        snapshot: &Snapshot,
    ) -> Result<Self, SimError> {
        let mut sim = Self::try_new(config, programs)?;
        sim.check_warm_identity(snapshot)?;
        sim.apply_warm(snapshot)
            .map_err(|e| SimError::Snapshot(e.to_string()))?;
        Ok(sim)
    }

    /// The fork-time identity gate: the snapshot must carry a warm
    /// identity whose hash matches this machine's configuration under the
    /// snapshot's own relaxed list, and the program identity must match
    /// exactly.
    fn check_warm_identity(&self, snapshot: &Snapshot) -> Result<(), SimError> {
        let Some(w) = &snapshot.warm else {
            return Err(SimError::Snapshot(
                "snapshot has no warm identity; use restore() for exact resumption".into(),
            ));
        };
        if let Some(&id) = w.relaxed.iter().find(|&&id| !warm::is_known(id)) {
            return Err(SimError::Snapshot(format!(
                "warm snapshot relaxes unknown configuration field id {id}"
            )));
        }
        let want = warm::identity(&self.config, &w.relaxed);
        if w.warm_hash != want {
            return Err(SimError::Snapshot(format!(
                "warm identity {:#018x} does not match {want:#018x}: the target \
                 configuration differs in a field the snapshot did not relax",
                w.warm_hash
            )));
        }
        let want = self.identity_vec();
        if snapshot.program_hashes != want {
            return Err(SimError::Snapshot(format!(
                "warm snapshot was taken of program(s) {:#018x?}, not {want:#018x?}",
                snapshot.program_hashes
            )));
        }
        Ok(())
    }

    /// Decodes a warm payload into a freshly built machine. Only the
    /// architectural state is overwritten; `self` keeps its cold
    /// microarchitecture, zero cycle counter, and zeroed statistics.
    fn apply_warm(&mut self, snapshot: &Snapshot) -> Result<(), DecodeError> {
        let malformed = DecodeError::Malformed;
        let mut r = Reader::new(&snapshot.payload);
        r.expect_section(wsec::ARCH)?;
        let n = r.take_usize()?;
        if n != self.regfile.len() {
            return Err(malformed(format!(
                "register file of {n} words, partition holds {}",
                self.regfile.len()
            )));
        }
        for slot in &mut self.regfile {
            *slot = r.take_u64()?;
        }
        let threads = r.take_usize()?;
        if threads != self.config.threads {
            return Err(malformed(format!(
                "thread state for {threads} threads, config has {}",
                self.config.threads
            )));
        }
        for tid in 0..threads {
            let pc = r.take_usize()?;
            let retired = r.take_bool()?;
            if retired {
                self.iu.retire(tid);
            } else {
                if self.programs[tid].fetch_decoded(pc).is_none() {
                    return Err(malformed(format!(
                        "thread {tid} parked at pc {pc}, outside its program"
                    )));
                }
                self.iu.set_pc(tid, pc);
            }
        }
        r.expect_section(wsec::MEMORY)?;
        self.mem = MainMemory::restore_delta(&self.baseline_words(), &mut r)?;
        r.finish()?;
        Ok(())
    }

    /// Rebuilds a simulator from a [`checkpoint`](Self::checkpoint)
    /// taken under the same configuration and program(s). A mix's
    /// snapshot must match the mix **position by position** — restoring
    /// under a permuted or partially swapped mix fails closed.
    ///
    /// # Errors
    ///
    /// * [`SimError::Snapshot`] if the snapshot's identity hashes do
    ///   not match `config`/`programs`, or its payload fails to decode;
    /// * whatever [`try_new`](Self::try_new) reports for the
    ///   configuration/program pair itself.
    pub fn restore(
        config: SimConfig,
        programs: impl Into<ThreadPrograms<'p>>,
        snapshot: &Snapshot,
    ) -> Result<Self, SimError> {
        if snapshot.warm.is_some() {
            return Err(SimError::Snapshot(
                "warm snapshot holds architectural state only; use fork_warm()".into(),
            ));
        }
        let want = config_identity(&config);
        if snapshot.config_hash != want {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken under config {:#018x}, not {want:#018x}",
                snapshot.config_hash
            )));
        }
        let mut sim = Self::try_new(config, programs)?;
        let want = sim.identity_vec();
        if snapshot.program_hashes != want {
            return Err(SimError::Snapshot(format!(
                "snapshot was taken of program(s) {:#018x?}, not {want:#018x?}",
                snapshot.program_hashes
            )));
        }
        sim.apply_snapshot(snapshot)
            .map_err(|e| SimError::Snapshot(e.to_string()))?;
        Ok(sim)
    }

    /// Overwrites a freshly constructed machine with the snapshot's
    /// state and recomputes everything the snapshot omits: the memory
    /// ordering queues and forwarding index (rescanned from the
    /// restored window), the tag allocator's resident set, and the
    /// renaming indexes (rebuilt inside [`SchedulingUnit::restore`]).
    fn apply_snapshot(&mut self, snapshot: &Snapshot) -> Result<(), DecodeError> {
        let malformed = DecodeError::Malformed;
        let decoded: Vec<&[smt_isa::DecodedInsn]> =
            self.programs.iter().map(|p| p.decoded()).collect();
        let mut r = Reader::new(&snapshot.payload);
        r.expect_section(sec::CORE)?;
        self.cycle = r.take_u64()?;
        if self.cycle != snapshot.cycle {
            return Err(malformed(format!(
                "header cycle {} disagrees with payload cycle {}",
                snapshot.cycle, self.cycle
            )));
        }
        self.next_uid = r.take_u64()?;
        let n = r.take_usize()?;
        if n != self.regfile.len() {
            return Err(malformed(format!(
                "register file of {n} words, partition holds {}",
                self.regfile.len()
            )));
        }
        for slot in &mut self.regfile {
            *slot = r.take_u64()?;
        }
        r.expect_section(sec::SU)?;
        let mut su = SchedulingUnit::restore(
            self.config.su_blocks(),
            self.config.block_size,
            &mut r,
            &decoded,
        )?;
        su.reserve_threads(self.config.threads);
        r.expect_section(sec::FETCH)?;
        self.iu = InstructionUnit::restore(
            self.config.threads,
            self.config.fetch_policy,
            self.config.fetch_width,
            self.config.aligned_fetch,
            &mut r,
        )?;
        r.expect_section(sec::PREDICTOR)?;
        self.predictor = Predictor::restore(self.config.predictor, self.config.threads, &mut r)?;
        r.expect_section(sec::FU)?;
        self.fu = FuPool::restore(self.config.fu, &mut r)?;
        r.expect_section(sec::TAGS)?;
        // Exactly the resident window entries hold live tags: commit
        // frees a store's tag before the store-buffer entry drains, so
        // buffered stores reference already-freed ids.
        let resident = su.resident_tags();
        self.tags = TagAllocator::restore(self.config.su_depth, &mut r, &resident)?;
        r.expect_section(sec::CACHE)?;
        self.cache = DataCache::restore(self.config.cache, &mut r)?;
        r.expect_section(sec::STORE_BUFFER)?;
        self.sb = StoreBuffer::restore(self.config.store_buffer, &mut r)?;
        r.expect_section(sec::MEMORY)?;
        self.mem = MainMemory::restore_delta(&self.baseline_words(), &mut r)?;
        r.expect_section(sec::FETCH_BUFFER)?;
        let queued = r.take_usize()?;
        if queued > self.config.fetch_threads {
            return Err(malformed(format!(
                "{queued} queued fetch groups with {} fetch ports",
                self.config.fetch_threads
            )));
        }
        self.fetch_queue = VecDeque::with_capacity(self.config.fetch_threads);
        for _ in 0..queued {
            let tid = r.take_usize()?;
            if tid >= self.config.threads {
                return Err(malformed(format!(
                    "fetch group owned by thread {tid} of {}",
                    self.config.threads
                )));
            }
            let fetched_at = r.take_u64()?;
            let n = r.take_usize()?;
            if n == 0 || n > self.config.fetch_width {
                return Err(malformed(format!(
                    "fetch group of {n} instructions (fetch width {})",
                    self.config.fetch_width
                )));
            }
            let mut insns = Vec::with_capacity(n);
            for _ in 0..n {
                let pc = r.take_usize()?;
                let insn = *decoded[tid].get(pc).ok_or_else(|| {
                    DecodeError::Malformed(format!("fetch-group pc {pc} outside the program"))
                })?;
                let predicted_taken = r.take_bool()?;
                let predicted_target = r.take_usize()?;
                insns.push(FetchedInsn {
                    pc,
                    insn,
                    predicted_taken,
                    predicted_target,
                });
            }
            self.fetch_queue.push_back(FetchedBlock {
                tid,
                insns,
                fetched_at,
            });
        }
        r.expect_section(sec::STATS)?;
        self.stats = restore_stats(&mut r)?;
        if self.stats.committed.len() != self.config.threads {
            return Err(malformed(format!(
                "commit counters for {} threads, config has {}",
                self.stats.committed.len(),
                self.config.threads
            )));
        }
        if self.stats.issue_histogram.len() != self.config.issue_width + 1 {
            return Err(malformed(format!(
                "issue histogram of {} bins for issue width {}",
                self.stats.issue_histogram.len(),
                self.config.issue_width
            )));
        }
        r.finish()?;

        // Rebuild the derived cross-references from the restored window
        // (the scheduling unit rebuilt its own indexes — renaming,
        // waiters, forwarding — inside `SchedulingUnit::restore`).
        self.memsync = vec![VecDeque::with_capacity(self.config.su_depth); self.config.threads];
        for bi in 0..su.num_blocks() {
            let tid = su.block_tid(bi);
            if tid >= self.config.threads {
                return Err(malformed(format!(
                    "resident block of thread {tid} in a {}-thread run",
                    self.config.threads
                )));
            }
            let bid = su.block_id(bi);
            for ei in 0..su.block_len(bi) {
                // Outstanding (not yet written back) store/sync entries
                // populate the per-thread ordering queues; blocks iterate
                // oldest-first, so each queue comes out age-ordered.
                if su.insn_at(bi, ei).is_memsync() && !su.is_done_at(bi, ei) {
                    self.memsync[tid].push_back((bid, ei));
                }
            }
        }
        self.su = su;
        Ok(())
    }

    /// Renders the full machine state for debugging (threads, fetch buffer,
    /// every scheduling-unit entry, store buffer).
    #[must_use]
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "cycle {}", self.cycle);
        for tid in 0..self.config.threads {
            let _ = writeln!(
                out,
                "  thread {tid}: pc={} retired={} fetch_halted={} suspended={}",
                self.iu.pc(tid),
                self.iu.is_retired(tid),
                self.iu.is_fetch_halted(tid),
                self.iu.is_suspended(tid),
            );
        }
        if self.fetch_queue.is_empty() {
            let _ = writeln!(out, "  fetch queue: empty");
        }
        for b in &self.fetch_queue {
            let _ = writeln!(
                out,
                "  fetch queue: tid {} × {} insns @pc {}",
                b.tid,
                b.insns.len(),
                b.insns[0].pc
            );
        }
        for bi in 0..self.su.num_blocks() {
            let _ = writeln!(
                out,
                "  block {bi} (id {}, tid {}):",
                self.su.block_id(bi),
                self.su.block_tid(bi)
            );
            for ei in 0..self.su.block_len(bi) {
                let ready: Vec<bool> = self
                    .su
                    .ops_at(bi, ei)
                    .iter()
                    .map(|o| o.value_at(self.cycle, true).is_some())
                    .collect();
                let _ = writeln!(
                    out,
                    "    {} pc={} `{}` state={:?} ops_ready={:?} fault={:?}",
                    self.su.tag_at(bi, ei),
                    self.su.pc_at(bi, ei),
                    self.su.insn_at(bi, ei),
                    self.su.state_at(bi, ei),
                    ready,
                    self.su.fault_at(bi, ei)
                );
            }
        }
        let _ = writeln!(
            out,
            "  store buffer: {}/{} entries",
            self.sb.len(),
            self.sb.capacity()
        );
        out
    }
}

/// Serializes every [`SimStats`] field. The cache and functional-unit
/// aggregates are copied from their owning structures only by
/// [`Simulator::run`]'s final fix-up, but they are carried anyway so a
/// snapshot of an already-finished machine round-trips exactly.
fn save_stats(stats: &SimStats, w: &mut Writer) {
    w.put_u64(stats.cycles);
    w.put_usize(stats.committed.len());
    for &c in &stats.committed {
        w.put_u64(c);
    }
    w.put_u64(stats.fetched_blocks);
    w.put_u64(stats.fetch_idle_cycles);
    w.put_u64(stats.su_stall_cycles);
    w.put_u64(stats.issued);
    w.put_u64(stats.store_buffer_full_stalls);
    w.put_u64(stats.wait_spin_cycles);
    w.put_u64(stats.squashed);
    w.put_u64(stats.su_occupancy_sum);
    w.put_u64(stats.branches.resolved);
    w.put_u64(stats.branches.mispredicted);
    w.put_u64(stats.cache.accesses);
    w.put_u64(stats.cache.hits);
    w.put_u64(stats.cache.misses);
    w.put_u64(stats.cache.blocked);
    w.put_usize(stats.fu.busy_cycles.len());
    for (class, per_unit) in &stats.fu.busy_cycles {
        let ci = FuClass::ALL
            .iter()
            .position(|c| c == class)
            .expect("every class is in FuClass::ALL");
        w.put_usize(ci);
        w.put_usize(per_unit.len());
        for &busy in per_unit {
            w.put_u64(busy);
        }
    }
    w.put_usize(stats.issue_histogram.len());
    for &bin in &stats.issue_histogram {
        w.put_u64(bin);
    }
}

fn restore_stats(r: &mut Reader<'_>) -> Result<SimStats, DecodeError> {
    let cycles = r.take_u64()?;
    let n = r.take_usize()?;
    let mut committed = Vec::with_capacity(n.min(MAX_THREADS));
    for _ in 0..n {
        committed.push(r.take_u64()?);
    }
    let fetched_blocks = r.take_u64()?;
    let fetch_idle_cycles = r.take_u64()?;
    let su_stall_cycles = r.take_u64()?;
    let issued = r.take_u64()?;
    let store_buffer_full_stalls = r.take_u64()?;
    let wait_spin_cycles = r.take_u64()?;
    let squashed = r.take_u64()?;
    let su_occupancy_sum = r.take_u64()?;
    let branches = crate::stats::BranchStats {
        resolved: r.take_u64()?,
        mispredicted: r.take_u64()?,
    };
    let cache = CacheStats {
        accesses: r.take_u64()?,
        hits: r.take_u64()?,
        misses: r.take_u64()?,
        blocked: r.take_u64()?,
    };
    let classes = r.take_usize()?;
    if classes > FuClass::ALL.len() {
        return Err(DecodeError::Malformed(format!(
            "{classes} functional-unit classes, machine has {}",
            FuClass::ALL.len()
        )));
    }
    let mut busy_cycles = Vec::with_capacity(classes);
    for _ in 0..classes {
        let ci = r.take_usize()?;
        let class = *FuClass::ALL.get(ci).ok_or_else(|| {
            DecodeError::Malformed(format!("functional-unit class index {ci} out of range"))
        })?;
        let units = r.take_usize()?;
        let mut per_unit = Vec::with_capacity(units.min(64));
        for _ in 0..units {
            per_unit.push(r.take_u64()?);
        }
        busy_cycles.push((class, per_unit));
    }
    let bins = r.take_usize()?;
    let mut issue_histogram = Vec::with_capacity(bins.min(64));
    for _ in 0..bins {
        issue_histogram.push(r.take_u64()?);
    }
    Ok(SimStats {
        cycles,
        committed,
        fetched_blocks,
        fetch_idle_cycles,
        su_stall_cycles,
        issued,
        store_buffer_full_stalls,
        wait_spin_cycles,
        squashed,
        su_occupancy_sum,
        branches,
        cache,
        fu: FuUsage { busy_cycles },
        issue_histogram,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommitPolicy;
    use smt_isa::builder::ProgramBuilder;
    use smt_isa::interp::Interp;

    fn run_and_check(program: &Program, config: SimConfig) -> SimStats {
        let threads = config.threads;
        let mut sim = Simulator::new(config, program);
        let stats = sim.run().expect("run completes");
        let mut interp = Interp::new(program, threads);
        interp.run().expect("reference completes");
        assert_eq!(
            sim.memory().words(),
            interp.mem_words(),
            "architectural memory must match the reference interpreter"
        );
        assert_eq!(
            sim.reg_file(),
            interp.reg_file(),
            "register file must match the reference interpreter"
        );
        stats
    }

    fn sum_program() -> Program {
        // Each thread sums 1..=20 into out[tid].
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(6 * 8);
        let [sum, i, limit, addr] = b.regs();
        b.li(sum, 0);
        b.li(i, 1);
        b.li(limit, 21);
        let top = b.label();
        b.bind(top);
        b.add(sum, sum, i);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(sum, addr, 0);
        b.halt();
        b.build(6).unwrap()
    }

    #[test]
    fn single_thread_loop_matches_reference() {
        let p = sum_program();
        let stats = run_and_check(&p, SimConfig::default().with_threads(1));
        assert!(stats.cycles > 0);
        assert!(
            stats.committed_total() > 60,
            "loop body commits ~20×3 instructions"
        );
    }

    #[test]
    fn four_threads_match_reference_under_every_fetch_policy() {
        let p = sum_program();
        for policy in [
            FetchPolicy::TrueRoundRobin,
            FetchPolicy::MaskedRoundRobin,
            FetchPolicy::ConditionalSwitch,
            FetchPolicy::Icount,
        ] {
            let stats = run_and_check(&p, SimConfig::default().with_fetch_policy(policy));
            assert_eq!(stats.committed.len(), 4);
            assert!(
                stats.committed.iter().all(|&c| c > 0),
                "{policy}: all threads commit"
            );
        }
    }

    #[test]
    fn commit_policies_agree_architecturally() {
        let p = sum_program();
        let flexible = run_and_check(&p, SimConfig::default());
        let lowest = run_and_check(
            &p,
            SimConfig::default().with_commit_policy(CommitPolicy::LowestOnly),
        );
        assert_eq!(flexible.committed_total(), lowest.committed_total());
    }

    #[test]
    fn multithreading_beats_single_thread_on_parallel_work() {
        // A compute-heavy kernel with long-latency FP ops: four threads
        // should clearly outperform one thread running the same per-thread
        // work (each thread does identical work, so 4 threads do 4× the
        // total work; per-unit-of-work cycles must drop).
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(6 * 8);
        let [x, y, i, limit, addr] = b.regs();
        b.lif(x, 1.0);
        b.lif(y, 1.000001);
        b.li(i, 0);
        b.li(limit, 50);
        let top = b.label();
        b.bind(top);
        b.fmul(x, x, y);
        b.fadd(x, x, y);
        b.fsub(x, x, y);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(x, addr, 0);
        b.halt();
        let p = b.build(4).unwrap();

        let st = run_and_check(&p, SimConfig::default().with_threads(1));
        let mt = run_and_check(&p, SimConfig::default().with_threads(4));
        // 4 threads, ~4× the committed work, in well under 4× the cycles.
        assert!(mt.committed_total() > 3 * st.committed_total());
        let st_cpi = st.cycles as f64 / st.committed_total() as f64;
        let mt_cpi = mt.cycles as f64 / mt.committed_total() as f64;
        assert!(
            mt_cpi < st_cpi * 0.9,
            "expected ≥10% CPI gain from SMT: single {st_cpi:.3}, multi {mt_cpi:.3}"
        );
    }

    #[test]
    fn wait_post_synchronization_runs_to_completion() {
        // tid 0 produces, others consume through a flag.
        let mut b = ProgramBuilder::new();
        let flag = b.alloc_zeroed(8);
        let slot = b.alloc_zeroed(8);
        let out = b.alloc_zeroed(6 * 8);
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
        let p = b.build(3).unwrap();

        let stats = run_and_check(&p, SimConfig::default().with_threads(3));
        assert!(stats.wait_spin_cycles > 0 || stats.cycles > 0);
    }

    #[test]
    fn watchdog_catches_deadlock() {
        let mut b = ProgramBuilder::new();
        let flag = b.alloc_zeroed(8);
        let [fl, target] = b.regs();
        b.li(fl, flag as i64);
        b.li(target, 5);
        b.wait(fl, target); // nobody posts
        b.halt();
        let p = b.build(2).unwrap();
        let mut sim = Simulator::new(
            SimConfig::default().with_threads(2).with_max_cycles(20_000),
            &p,
        );
        assert_eq!(sim.run(), Err(SimError::Watchdog { cycles: 20_000 }));
    }

    #[test]
    fn out_of_bounds_store_faults_at_commit() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        assert!(matches!(sim.run(), Err(SimError::Mem { tid: 0, .. })));
    }

    #[test]
    fn faulting_block_commits_no_architectural_state() {
        // Block 2 (pcs 4..8) holds a register write, a healthy store, and a
        // faulting store. The fault must be precise at block granularity:
        // none of the block's side effects may land — not the register
        // write, not the healthy store.
        let mut b = ProgramBuilder::new();
        let [bad, ok, vaddr] = b.regs();
        let slot = b.alloc_zeroed(8);
        b.addi(bad, b.tid_reg(), 1); // pc 0: bad = 1
        b.slli(bad, bad, 40); //        pc 1: bad = 1 << 40 (out of bounds)
        b.addi(vaddr, b.tid_reg(), slot as i32); // pc 2: valid slot address
        b.addi(ok, b.tid_reg(), 0); //  pc 3: pad to the block boundary
        b.addi(ok, ok, 42); //          pc 4: register write in faulting block
        b.sd(ok, vaddr, 0); //          pc 5: healthy store in faulting block
        b.sd(ok, bad, 0); //            pc 6: faulting store
        b.halt(); //                    pc 7
        let p = b.build(1).unwrap();

        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        let err = sim.run().expect_err("out-of-bounds store faults");
        assert!(
            matches!(err, SimError::Mem { tid: 0, pc: 6, .. }),
            "fault attributed to the faulting store, got {err:?}"
        );
        assert_eq!(
            sim.reg_file()[ok.index()],
            0,
            "register write from the faulting block must not commit"
        );
        assert!(
            sim.memory().words().iter().all(|&w| w == 0),
            "healthy store from the faulting block must not reach memory"
        );
        assert!(
            sim.sb.is_empty(),
            "no store from the faulting block is buffered"
        );
    }

    #[test]
    fn store_drain_fault_reports_the_store_pc() {
        // A fault detected when a buffered store drains to memory must be
        // attributed to the store's own pc (it used to report pc 0). The
        // drain path is driven directly: with a symmetric read/write
        // validity check, issue-time reads catch bad addresses first, so
        // the public API cannot reach a drain-time fault today.
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build(1).unwrap();
        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        sim.sb.insert(1, 0, 1 << 40, 5, 77).unwrap();
        sim.sb.release(1);
        let err = sim
            .drain_store_stage()
            .expect_err("out-of-bounds drain faults");
        assert!(
            matches!(err, SimError::Mem { tid: 0, pc: 77, .. }),
            "drain fault carries the store's pc, got {err:?}"
        );
    }

    #[test]
    fn program_with_too_many_registers_is_rejected() {
        let mut b = ProgramBuilder::new();
        for _ in 0..29 {
            let _ = b.reg();
        }
        let last = b.reg(); // 32nd register including the two seeded ones
        b.addi(last, last, 1);
        b.halt();
        let p = b.build(4).unwrap(); // fits 4 threads (window 32)
        assert!(Simulator::try_new(SimConfig::default().with_threads(6), &p).is_err());
        assert!(Simulator::try_new(SimConfig::default().with_threads(4), &p).is_ok());
    }

    #[test]
    fn checkpoint_restore_resumes_bit_identically() {
        let p = sum_program();
        let config = SimConfig::default();
        let mut reference = Simulator::new(config.clone(), &p);
        let ref_stats = reference.run().unwrap();

        let mut sim = Simulator::new(config.clone(), &p);
        for _ in 0..37 {
            sim.step().unwrap();
        }
        // Round-trip through the wire format, not just the in-memory type.
        let bytes = sim.checkpoint().to_bytes();
        let snap = smt_checkpoint::Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.cycle, 37);
        let mut resumed = Simulator::restore(config, &p, &snap).unwrap();
        let stats = resumed.run().unwrap();

        assert_eq!(stats, ref_stats, "resumed stats must match uninterrupted");
        assert_eq!(resumed.cycle(), reference.cycle());
        assert_eq!(resumed.reg_file(), reference.reg_file());
        assert_eq!(resumed.memory().words(), reference.memory().words());
    }

    #[test]
    fn checkpoint_of_finished_machine_round_trips() {
        let p = sum_program();
        let config = SimConfig::default();
        let mut sim = Simulator::new(config.clone(), &p);
        let stats = sim.run().unwrap();
        let snap = sim.checkpoint();
        let restored = Simulator::restore(config, &p, &snap).unwrap();
        assert!(restored.finished());
        assert_eq!(restored.stats(), &stats);
        assert_eq!(restored.reg_file(), sim.reg_file());
    }

    #[test]
    fn restore_rejects_mismatched_identities() {
        let p = sum_program();
        let config = SimConfig::default();
        let mut sim = Simulator::new(config.clone(), &p);
        sim.step().unwrap();
        let snap = sim.checkpoint();

        // Different configuration: same program, different thread count.
        let other = config.clone().with_threads(2);
        assert!(matches!(
            Simulator::restore(other, &p, &snap),
            Err(SimError::Snapshot(_))
        ));

        // Different program under the same configuration.
        let mut b = ProgramBuilder::new();
        b.halt();
        let q = b.build(4).unwrap();
        assert!(matches!(
            Simulator::restore(config, &q, &snap),
            Err(SimError::Snapshot(_))
        ));
    }

    /// A second kernel for mixes: writes a recognizable pattern through
    /// loads and stores, architecturally disjoint from `sum_program`.
    fn pattern_program() -> Program {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(4 * 8);
        let [v, i, limit, addr] = b.regs();
        b.li(i, 0);
        b.li(limit, 4);
        let top = b.label();
        b.bind(top);
        b.slli(addr, i, 3);
        b.addi(addr, addr, out as i32);
        b.slli(v, i, 4);
        b.addi(v, v, 7);
        b.sd(v, addr, 0);
        b.ld(v, addr, 0);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.halt();
        b.build(1).unwrap()
    }

    #[test]
    fn hetero_mix_matches_per_thread_references() {
        let a = sum_program();
        let b = pattern_program();
        let config = SimConfig::default().with_threads(2);
        let mut sim = Simulator::try_new(config, &[&a, &b]).unwrap();
        assert_eq!(sim.tenants().len(), 2);
        let stats = sim.run().unwrap();
        let w = window_size(2);
        for (tid, (p, t)) in [&a, &b].into_iter().zip(sim.tenants()).enumerate() {
            assert_eq!(t.threads, tid..tid + 1);
            let mut interp = Interp::new(p, 1);
            interp.run().unwrap();
            assert_eq!(
                t.segment(sim.memory()),
                interp.mem_words(),
                "thread {tid}: its memory segment must match a solo run"
            );
            assert_eq!(
                stats.committed[tid],
                interp.retired_counts().iter().sum::<u64>(),
                "thread {tid}: commit count"
            );
            assert_eq!(
                &sim.reg_file()[tid * w..tid * w + w],
                &interp.reg_file()[..w],
                "thread {tid}: register window"
            );
        }
    }

    #[test]
    fn hetero_checkpoint_restore_resumes_bit_identically() {
        let a = sum_program();
        let b = pattern_program();
        let config = SimConfig::default().with_threads(2);
        let mut reference = Simulator::try_new(config.clone(), &[&a, &b]).unwrap();
        let ref_stats = reference.run().unwrap();

        let mut sim = Simulator::try_new(config.clone(), &[&a, &b]).unwrap();
        for _ in 0..23 {
            sim.step().unwrap();
        }
        let bytes = sim.checkpoint().to_bytes();
        let snap = smt_checkpoint::Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(snap.program_hashes.len(), 2, "mix identity is per-thread");
        let mut resumed = Simulator::restore(config, &[&a, &b], &snap).unwrap();
        let stats = resumed.run().unwrap();

        assert_eq!(stats, ref_stats, "resumed stats must match uninterrupted");
        assert_eq!(resumed.cycle(), reference.cycle());
        assert_eq!(resumed.reg_file(), reference.reg_file());
        assert_eq!(resumed.memory().words(), reference.memory().words());
    }

    #[test]
    fn restore_rejects_mismatched_mix() {
        let a = sum_program();
        let b = pattern_program();
        let config = SimConfig::default().with_threads(2);
        let mut sim = Simulator::try_new(config.clone(), &[&a, &b]).unwrap();
        sim.step().unwrap();
        let snap = sim.checkpoint();

        // Swapped mix order: the identity vector is positional.
        assert!(matches!(
            Simulator::restore(config.clone(), &[&b, &a], &snap),
            Err(SimError::Snapshot(_))
        ));
        // A mix snapshot is not a homogeneous snapshot of either program.
        assert!(matches!(
            Simulator::restore(config.clone(), &a, &snap),
            Err(SimError::Snapshot(_))
        ));
        // And a homogeneous snapshot is not a mix snapshot.
        let mut homog = Simulator::new(config.clone(), &a);
        homog.step().unwrap();
        let hsnap = homog.checkpoint();
        assert!(matches!(
            Simulator::restore(config, &[&a, &a], &hsnap),
            Err(SimError::Snapshot(_))
        ));
    }

    #[test]
    fn single_thread_mix_is_homogeneous() {
        // At one thread the two forms are architecturally identical, so
        // their snapshots interchange.
        let p = pattern_program();
        let config = SimConfig::default().with_threads(1);
        let mut sim = Simulator::try_new(config.clone(), &[&p]).unwrap();
        assert_eq!(sim.tenants().len(), 1);
        sim.step().unwrap();
        let snap = sim.checkpoint();
        assert!(Simulator::restore(config, &p, &snap).is_ok());
    }

    #[test]
    fn program_slices_are_shared_or_per_thread() {
        let p = pattern_program();
        let config = SimConfig::default().with_threads(2);
        let shared = Simulator::try_new(config.clone(), &[&p]).unwrap();
        assert_eq!(shared.tenants().len(), 1);
        assert_eq!(shared.tenants()[0].threads, 0..2);
        let mix = Simulator::try_new(config.clone(), &[&p, &p]).unwrap();
        let owned: Vec<_> = mix.tenants().iter().map(|t| t.threads.clone()).collect();
        assert_eq!(owned, [0..1, 1..2]);
        for wrong in [&[][..], &[&p, &p, &p][..]] {
            assert!(matches!(
                Simulator::try_new(config.clone(), wrong),
                Err(SimError::Program(_))
            ));
        }
    }

    #[test]
    fn register_window_violation_is_typed() {
        let mut b = ProgramBuilder::new();
        for _ in 0..29 {
            let _ = b.reg();
        }
        let last = b.reg();
        b.addi(last, last, 1);
        b.halt();
        let p = b.build(4).unwrap();
        let err = Simulator::try_new(SimConfig::default().with_threads(6), &p)
            .expect_err("32 registers exceed the 6-thread window");
        assert!(
            matches!(
                err,
                SimError::RegisterWindow {
                    window: 21,
                    threads: 6,
                    ..
                }
            ),
            "expected a typed register-window error, got {err:?}"
        );
        assert!(err.to_string().contains("21-register window"));
    }

    #[test]
    fn stats_are_internally_consistent() {
        let p = sum_program();
        let mut sim = Simulator::new(SimConfig::default(), &p);
        let stats = sim.run().unwrap();
        let interp_count = {
            let mut i = Interp::new(&p, 4);
            i.run().unwrap().total_retired()
        };
        assert_eq!(
            stats.committed_total(),
            interp_count,
            "cycle sim must commit exactly the architectural instruction count"
        );
        assert!(
            stats.issued >= stats.committed_total(),
            "wrong-path issues are extra"
        );
        assert_eq!(stats.cache.accesses, stats.cache.hits + stats.cache.misses);
    }

    #[test]
    fn spec_depth_limit_stays_architecturally_exact() {
        let p = sum_program();
        let tight = run_and_check(&p, SimConfig::default().with_spec_depth(1));
        let free = run_and_check(&p, SimConfig::default());
        assert_eq!(tight.committed_total(), free.committed_total());
        assert!(
            tight.cycles >= free.cycles,
            "a 1-deep speculation limit cannot speed the loop up: {} < {}",
            tight.cycles,
            free.cycles
        );
    }

    #[test]
    fn drain_parks_at_quiescence_and_stays_exact() {
        let p = sum_program();
        let config = SimConfig::default();
        let mut sim = Simulator::new(config.clone(), &p);
        for _ in 0..30 {
            sim.step().unwrap();
        }
        assert!(!sim.is_quiescent(), "mid-loop the pipeline holds work");
        sim.drain().unwrap();
        assert!(sim.is_quiescent());
        assert!(!sim.finished(), "drain parks, it does not finish the run");

        // Draining only withholds new fetch; finishing the run from the
        // parked machine still lands on the reference architecture.
        sim.run().unwrap();
        let mut interp = Interp::new(&p, config.threads);
        interp.run().unwrap();
        assert_eq!(sim.memory().words(), interp.mem_words());
        assert_eq!(sim.reg_file(), interp.reg_file());
    }

    #[test]
    fn warm_fork_resumes_architecture_under_variant_configs() {
        let p = sum_program();
        let source = SimConfig::default();
        let mut sim = Simulator::new(source.clone(), &p);
        for _ in 0..30 {
            sim.step().unwrap();
        }
        sim.drain().unwrap();
        // Round-trip the wire format: warm snapshots are v4 on disk.
        let bytes = sim.checkpoint_warm(&warm::relax_all()).unwrap().to_bytes();
        let snap = smt_checkpoint::Snapshot::from_bytes(&bytes).unwrap();
        assert!(snap.warm.is_some());

        let mut interp = Interp::new(&p, source.threads);
        interp.run().unwrap();
        let variants = [
            source.clone(),
            source.clone().with_su_depth(8),
            source
                .clone()
                .with_predictor(smt_uarch::PredictorKind::Gshare)
                .with_spec_depth(1),
            source.clone().with_fetch_threads(2).with_fetch_width(16),
        ];
        for config in variants {
            let mut fork = Simulator::fork_warm(config.clone(), &p, &snap).unwrap();
            assert_eq!(fork.cycle(), 0, "the fork measures its own window only");
            let stats = fork.run().unwrap();
            assert!(stats.cycles > 0 && stats.committed_total() > 0);
            assert_eq!(
                fork.memory().words(),
                interp.mem_words(),
                "fork under {config:?} diverged architecturally"
            );
            assert_eq!(fork.reg_file(), interp.reg_file());
        }
    }

    #[test]
    fn warm_fork_mix_resumes_per_thread_architecture() {
        let a = sum_program();
        let b = pattern_program();
        let config = SimConfig::default().with_threads(2);
        let mut sim = Simulator::try_new(config.clone(), &[&a, &b]).unwrap();
        for _ in 0..25 {
            sim.step().unwrap();
        }
        sim.drain().unwrap();
        let snap = sim.checkpoint_warm(&[warm::SU_DEPTH, warm::CACHE]).unwrap();

        let variant = config.clone().with_su_depth(8);
        let mut fork = Simulator::fork_warm(variant, &[&a, &b], &snap).unwrap();
        fork.run().unwrap();
        let w = window_size(2);
        for (tid, (p, t)) in [&a, &b].into_iter().zip(fork.tenants()).enumerate() {
            let mut interp = Interp::new(p, 1);
            interp.run().unwrap();
            assert_eq!(t.segment(fork.memory()), interp.mem_words());
            assert_eq!(
                &fork.reg_file()[tid * w..tid * w + w],
                &interp.reg_file()[..w]
            );
        }

        // The mix fork gate is positional, like exact restore.
        assert!(matches!(
            Simulator::fork_warm(config.clone().with_su_depth(8), &[&b, &a], &snap),
            Err(SimError::Snapshot(_))
        ));
    }

    #[test]
    fn warm_fork_fails_closed() {
        let p = sum_program();
        let source = SimConfig::default();
        let mut sim = Simulator::new(source.clone(), &p);
        for _ in 0..30 {
            sim.step().unwrap();
        }

        // A warm checkpoint of a busy pipeline is refused outright.
        assert!(matches!(
            sim.checkpoint_warm(&[warm::SU_DEPTH]),
            Err(SimError::Snapshot(_))
        ));
        sim.drain().unwrap();
        assert!(matches!(
            sim.checkpoint_warm(&[warm::SPEC_DEPTH + 1]),
            Err(SimError::Snapshot(_))
        ));
        let snap = sim.checkpoint_warm(&[warm::SU_DEPTH]).unwrap();

        // Forking may vary relaxed fields only.
        assert!(Simulator::fork_warm(source.clone().with_su_depth(4), &p, &snap).is_ok());
        assert!(matches!(
            Simulator::fork_warm(source.clone().with_fetch_width(16), &p, &snap),
            Err(SimError::Snapshot(_))
        ));
        // The thread count is identity, never relaxable.
        assert!(matches!(
            Simulator::fork_warm(source.clone().with_threads(2), &p, &snap),
            Err(SimError::Snapshot(_))
        ));
        // Program identity must match exactly.
        let q = pattern_program();
        assert!(matches!(
            Simulator::fork_warm(source.clone(), &q, &snap),
            Err(SimError::Snapshot(_))
        ));
        // Forging extra relaxed fields without the matching hash fails:
        // the identity binds the relaxed list itself.
        let mut forged = snap.clone();
        forged
            .warm
            .as_mut()
            .unwrap()
            .relaxed
            .push(warm::FETCH_WIDTH);
        assert!(matches!(
            Simulator::fork_warm(source.clone().with_fetch_width(16), &p, &forged),
            Err(SimError::Snapshot(_))
        ));

        // Warm and exact snapshots do not interchange.
        assert!(matches!(
            Simulator::restore(source.clone(), &p, &snap),
            Err(SimError::Snapshot(_))
        ));
        let exact = sim.checkpoint();
        assert!(matches!(
            Simulator::fork_warm(source, &p, &exact),
            Err(SimError::Snapshot(_))
        ));
    }
}
