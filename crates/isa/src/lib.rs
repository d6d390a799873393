//! SDSP-like RISC instruction set architecture.
//!
//! This crate defines everything *architectural* about the simulated
//! processor of Gulati & Bagherzadeh (HPCA '96): the register file contract,
//! the instruction set, binary encodings, a program-builder DSL standing in
//! for the paper's SDSP C compiler, a text assembler, and a functional
//! (instruction-at-a-time) reference interpreter used as the correctness
//! oracle for the cycle-accurate simulator in `smt-core`.
//!
//! # Architectural summary
//!
//! * 128 physical registers ([`REG_FILE_SIZE`]), statically partitioned into
//!   equal per-thread windows; instructions name *thread-relative* registers.
//! * 64-bit integer registers; floating point uses the same registers with
//!   IEEE-754 binary64 bit patterns (see [`semantics`]).
//! * Byte-addressed memory, 8-byte aligned loads/stores ([`WORD_BYTES`]).
//! * Fixed 32-bit instruction encodings ([`encode`]).
//! * Explicit synchronization primitives `WAIT`/`POST` for the paper's
//!   homogeneous-multitasking parallel model.
//!
//! # Example
//!
//! ```
//! use smt_isa::builder::ProgramBuilder;
//! use smt_isa::interp::Interp;
//!
//! // sum[tid] = tid + nthreads, on every thread
//! let mut b = ProgramBuilder::new();
//! let out = b.alloc_zeroed(4 * 8); // one output slot per thread
//! let (tid, n) = (b.tid_reg(), b.nthreads_reg());
//! let sum = b.reg();
//! let addr = b.reg();
//! b.add(sum, tid, n);
//! b.slli(addr, tid, 3);
//! b.addi(addr, addr, out as i32);
//! b.sd(sum, addr, 0);
//! b.halt();
//! let program = b.build(4)?;
//!
//! let mut interp = Interp::new(&program, 4);
//! interp.run()?;
//! assert_eq!(interp.load_word(out + 8), 1 + 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod asm;
pub mod builder;
pub mod encode;
pub mod insn;
pub mod interp;
pub mod op;
pub mod predecode;
pub mod program;
pub mod reg;
pub mod semantics;
pub mod spelling;

pub use insn::Instruction;
pub use op::{FuClass, Opcode};
pub use predecode::DecodedInsn;
pub use program::Program;
pub use reg::Reg;

/// Number of physical registers in the shared register file.
///
/// The paper statically partitions these equally among the resident threads
/// (Section 3: "all threads are allotted equal numbers of registers").
pub const REG_FILE_SIZE: usize = 128;

/// Size in bytes of a memory word (and of every load/store access).
pub const WORD_BYTES: u64 = 8;

/// Maximum number of simultaneously resident threads the register file can
/// be partitioned for. The paper evaluates 1–6 threads; the partition math
/// extends evenly to 8 (`128 / 8 = 16` registers per window), which the
/// differential fuzzer uses to stress the machine beyond the paper's sweep.
/// Every kernel in `smt-workloads` still fits the 6-thread window of 21.
pub const MAX_THREADS: usize = 8;

/// Per-thread register window size for an `n`-thread partition.
///
/// # Panics
///
/// Panics if `n` is zero or greater than [`MAX_THREADS`].
#[must_use]
pub fn window_size(n: usize) -> usize {
    assert!(
        (1..=MAX_THREADS).contains(&n),
        "thread count {n} out of range 1..={MAX_THREADS}"
    );
    REG_FILE_SIZE / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_sizes_partition_the_file() {
        assert_eq!(window_size(1), 128);
        assert_eq!(window_size(2), 64);
        assert_eq!(window_size(3), 42);
        assert_eq!(window_size(4), 32);
        assert_eq!(window_size(5), 25);
        assert_eq!(window_size(6), 21);
        assert_eq!(window_size(7), 18);
        assert_eq!(window_size(8), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_size_rejects_zero() {
        let _ = window_size(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_size_rejects_too_many() {
        let _ = window_size(9);
    }
}
