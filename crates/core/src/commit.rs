//! Commit-stream observation: a pluggable sink receiving every
//! architecturally retired instruction in commit order.
//!
//! The cycle simulator's only externally visible contract is its commit
//! stream — which instructions retire, in what order, with what register
//! and memory effects. A [`CommitSink`] taps that stream without touching
//! the machine: [`Simulator::run_with`], given one, delivers a [`Retirement`]
//! per architecturally retiring instruction, and the default
//! [`Simulator::run`] path compiles to exactly the code it had before the
//! sink existed (the sink is an `Option` checked once per retirement; no
//! event is even constructed when unset).
//!
//! The primary consumer is the lockstep oracle in `smt-oracle`, which
//! replays the stream on the functional interpreter and diffs every
//! retirement. Spin retirements of unsatisfied `WAIT`s are *not*
//! architectural (the instruction refetches) and are not delivered.
//!
//! [`Simulator::run`]: crate::Simulator::run
//! [`Simulator::run_with`]: crate::Simulator::run_with

use smt_isa::{DecodedInsn, Opcode, Reg};
use smt_mem::MemError;

/// One architecturally retired instruction, observed at commit.
#[derive(Clone, Copy, Debug)]
pub struct Retirement {
    /// Cycle in which the instruction's block committed.
    pub cycle: u64,
    /// Scheduling-unit block id the instruction retired from (monotone
    /// along the run; pins the divergence to a window position).
    pub block: u64,
    /// Owning thread.
    pub tid: usize,
    /// Program counter of the retiring instruction.
    pub pc: usize,
    /// The predecoded instruction (carries the opcode and displays as its
    /// disassembly).
    pub insn: DecodedInsn,
    /// Destination register and the value committed to it, if any.
    pub dest: Option<(Reg, u64)>,
    /// For stores: effective address and data released to the store buffer.
    pub mem: Option<(u64, u64)>,
    /// A memory fault raised precisely at this commit. The instruction does
    /// *not* retire architecturally; the simulator aborts with the same
    /// fault immediately after delivering this event, so a sink sees
    /// exactly where the machine stopped. `dest`/`mem` are `None` — a
    /// faulting block commits no side effects.
    pub fault: Option<MemError>,
}

impl Retirement {
    /// The retiring opcode.
    #[must_use]
    pub fn op(&self) -> Opcode {
        self.insn.op
    }
}

/// Observer of the architectural commit stream.
///
/// Implementations must not assume anything about *timing* — consecutive
/// retirements may share a cycle (a block commits whole) and cycles with no
/// retirement are silent.
pub trait CommitSink {
    /// Called once per architecturally retired instruction, in commit
    /// order, plus once for a commit-time fault (with
    /// [`Retirement::fault`] set) immediately before the run aborts.
    fn retired(&mut self, r: &Retirement);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sim::{Observers, Simulator};
    use smt_isa::builder::ProgramBuilder;

    /// Records the stream for assertions.
    #[derive(Default)]
    struct Recorder {
        events: Vec<Retirement>,
    }

    impl CommitSink for Recorder {
        fn retired(&mut self, r: &Retirement) {
            self.events.push(*r);
        }
    }

    #[test]
    fn stream_matches_architectural_run() {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(2 * 8);
        let [v, addr] = b.regs();
        b.li(v, 41);
        b.addi(v, v, 1);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(v, addr, 0);
        b.halt();
        let p = b.build(2).unwrap();

        let mut sim = Simulator::new(SimConfig::default().with_threads(2), &p);
        let mut rec = Recorder::default();
        let stats = sim
            .run_with(Observers::commits(&mut rec))
            .expect("program completes");

        assert_eq!(
            rec.events.len() as u64,
            stats.committed_total(),
            "one event per architectural commit"
        );
        // Per-thread pc order is program order.
        for tid in 0..2 {
            let pcs: Vec<usize> = rec
                .events
                .iter()
                .filter(|e| e.tid == tid)
                .map(|e| e.pc)
                .collect();
            let mut sorted = pcs.clone();
            sorted.sort_unstable();
            assert_eq!(pcs, sorted, "thread {tid} retires in program order");
        }
        // The store event carries the committed address and data.
        let stores: Vec<&Retirement> = rec.events.iter().filter(|e| e.op() == Opcode::Sd).collect();
        assert_eq!(stores.len(), 2);
        for s in stores {
            assert_eq!(s.mem, Some((out + 8 * s.tid as u64, 42)));
            assert_eq!(s.dest, None);
            assert!(s.fault.is_none());
        }
        // Register-writing events carry the committed value.
        assert!(rec
            .events
            .iter()
            .filter(|e| e.tid == 0)
            .any(|e| e.dest == Some((v, 42))));
        // Block ids never decrease along the stream; cycles never decrease.
        for w in rec.events.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
        }
    }

    #[test]
    fn observed_run_is_bit_identical_to_unobserved() {
        let mut b = ProgramBuilder::new();
        let out = b.alloc_zeroed(4 * 8);
        let [acc, i, limit, addr] = b.regs();
        b.li(acc, 0);
        b.li(i, 0);
        b.li(limit, 12);
        let top = b.label();
        b.bind(top);
        b.add(acc, acc, i);
        b.addi(i, i, 1);
        b.blt(i, limit, top);
        b.slli(addr, b.tid_reg(), 3);
        b.addi(addr, addr, out as i32);
        b.sd(acc, addr, 0);
        b.halt();
        let p = b.build(4).unwrap();

        let mut plain = Simulator::new(SimConfig::default(), &p);
        let plain_stats = plain.run().unwrap();
        let mut observed = Simulator::new(SimConfig::default(), &p);
        let mut rec = Recorder::default();
        let observed_stats = observed.run_with(Observers::commits(&mut rec)).unwrap();
        assert_eq!(plain_stats, observed_stats, "observation changes nothing");
        assert_eq!(plain.reg_file(), observed.reg_file());
        assert_eq!(plain.memory().words(), observed.memory().words());
        assert!(!rec.events.is_empty());
    }

    #[test]
    fn commit_fault_is_delivered_before_abort() {
        let mut b = ProgramBuilder::new();
        let r = b.reg();
        b.li(r, 1 << 40);
        b.sd(r, r, 0);
        b.halt();
        let p = b.build(1).unwrap();
        let mut sim = Simulator::new(SimConfig::default().with_threads(1), &p);
        let mut rec = Recorder::default();
        let err = sim
            .run_with(Observers::commits(&mut rec))
            .expect_err("store faults");
        let last = rec.events.last().expect("fault event delivered");
        let fault = last.fault.expect("last event carries the fault");
        assert!(matches!(
            err,
            crate::SimError::Mem { tid: 0, pc, err }
                if pc == last.pc && err == fault
        ));
        assert_eq!(last.dest, None, "faulting block commits no side effects");
        assert_eq!(last.mem, None);
    }
}
