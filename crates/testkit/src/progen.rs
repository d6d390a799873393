//! Constrained-random SPMD program generation for differential fuzzing.
//!
//! A [`Plan`] is the *concrete* random content of a test program — segment
//! kinds, ALU step operands, memory slot choices, loop trip counts — drawn
//! once from a seed-deterministic [`Rng`]. Lowering a plan to a
//! [`Program`] is a **pure function** of the plan, an enabled-segment mask,
//! and a thread count ([`Plan::build`]). That split is what makes failures
//! minimizable: the greedy minimizer in [`crate::shrink`] toggles mask
//! bits, and because disabling a segment consumes no randomness, every
//! sub-program of a failing seed is reachable from `(seed, mask)` alone.
//!
//! The generated programs are deliberately hostile to an out-of-order SMT
//! pipeline while staying *commit-order checkable* by the lockstep oracle:
//!
//! * **Branchy** — data-dependent diamonds, nested counted loops, and an
//!   always-taken guard over a poison load that a cold BTB mispredicts,
//!   forcing a squash of a speculative wrong-path **fault**.
//! * **Aliasing** — private per-thread memory slots addressed both
//!   statically and through data-dependent indices, so loads and stores
//!   collide unpredictably and exercise disambiguation and store-to-load
//!   forwarding.
//! * **Cross-thread traffic** — shared slots that all threads store to
//!   concurrently. Every store writes the slot's *canonical constant* (the
//!   value the data image starts with), so a load observes the same value
//!   under any interleaving or forwarding path: the traffic stresses the
//!   memory system without making retire-order replay ambiguous.
//! * **Synchronization** — counting barriers built from `POST`/`WAIT`,
//!   uniform across threads (so any mask is deadlock-free).
//! * **Long latency** — FP chains (including `fdiv`/`fsqrt`) and integer
//!   `mul`/`div`/`rem`, feeding the Conditional-Switch fetch policy.
//!
//! A rare *fault tail* ends the program with an out-of-bounds store, so
//! the fuzzer also covers agreed-fault termination.

use smt_isa::builder::{BuildError, ProgramBuilder};
use smt_isa::{Program, Reg};

use crate::Rng;

/// Number of mutable value registers (`v0..v3`) a plan computes with.
pub const NUM_VALS: usize = 4;
/// Private memory slots per thread (power of two: indices are masked).
const PRIV_SLOTS: u64 = 8;
/// Shared slots all threads store canonical constants to.
const SHARED_SLOTS: u64 = 4;
/// Threads the private region is sized for (the architectural maximum, so
/// the data layout does not depend on the simulated thread count).
const MAX_THREADS: u64 = 8;

/// Tuning knobs for [`Plan::generate`].
#[derive(Clone, Copy, Debug)]
pub struct GenConfig {
    /// Segment count range (inclusive).
    pub min_segments: usize,
    /// See `min_segments`.
    pub max_segments: usize,
    /// Maximum outer-loop trip count (at least 1).
    pub max_outer_iters: u64,
    /// One plan in `fault_tail_odds` ends with an out-of-bounds store.
    pub fault_tail_odds: u64,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            min_segments: 3,
            max_segments: 9,
            max_outer_iters: 4,
            fault_tail_odds: 16,
        }
    }
}

/// One integer ALU step over the value registers.
#[derive(Clone, Copy, Debug)]
pub struct AluStep {
    /// Operation.
    pub op: AluOp,
    /// Destination value-register index.
    pub d: u8,
    /// First source index.
    pub a: u8,
    /// Second source index (register forms).
    pub b: u8,
    /// Immediate (immediate forms; shift immediates are masked to 0..63).
    pub imm: i16,
}

/// Integer operations a generated ALU step may use. All are total in the
/// shared semantics (division by zero and shift overflows are defined), so
/// any operand draw is safe.
#[derive(Clone, Copy, Debug)]
pub enum AluOp {
    /// `add d, a, b`
    Add,
    /// `sub d, a, b`
    Sub,
    /// `and d, a, b`
    And,
    /// `or d, a, b`
    Or,
    /// `xor d, a, b`
    Xor,
    /// `sll d, a, b`
    Sll,
    /// `srl d, a, b`
    Srl,
    /// `sra d, a, b`
    Sra,
    /// `slt d, a, b`
    Slt,
    /// `sltu d, a, b`
    Sltu,
    /// `mul d, a, b` (long latency)
    Mul,
    /// `div d, a, b` (long latency; `x/0 = !0`)
    Div,
    /// `rem d, a, b` (long latency; `x%0 = x`)
    Rem,
    /// `addi d, a, imm`
    Addi,
    /// `andi d, a, imm`
    Andi,
    /// `ori d, a, imm`
    Ori,
    /// `xori d, a, imm`
    Xori,
    /// `slli d, a, imm&63`
    Slli,
    /// `srli d, a, imm&63`
    Srli,
}

const ALU_OPS: &[AluOp] = &[
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Rem,
    AluOp::Addi,
    AluOp::Andi,
    AluOp::Ori,
    AluOp::Xori,
    AluOp::Slli,
    AluOp::Srli,
];

/// One floating-point step (value registers reinterpreted as f64 bits).
#[derive(Clone, Copy, Debug)]
pub struct FpStep {
    /// Operation.
    pub op: FpOp,
    /// Destination value-register index.
    pub d: u8,
    /// First source index.
    pub a: u8,
    /// Second source index (binary forms).
    pub b: u8,
}

/// FP operations a generated step may use.
#[derive(Clone, Copy, Debug)]
pub enum FpOp {
    /// `fadd`
    Fadd,
    /// `fsub`
    Fsub,
    /// `fmul`
    Fmul,
    /// `fdiv` (long latency)
    Fdiv,
    /// `fneg`
    Fneg,
    /// `fabs`
    Fabs,
    /// `fsqrt` (long latency)
    Fsqrt,
    /// `flt`
    Flt,
    /// `i2f`
    I2f,
    /// `f2i`
    F2i,
}

const FP_OPS: &[FpOp] = &[
    FpOp::Fadd,
    FpOp::Fsub,
    FpOp::Fmul,
    FpOp::Fdiv,
    FpOp::Fneg,
    FpOp::Fabs,
    FpOp::Fsqrt,
    FpOp::Flt,
    FpOp::I2f,
    FpOp::F2i,
];

/// One private-memory step. Slots are per-thread, so ordering is the
/// thread's own program order and replay is exact.
#[derive(Clone, Copy, Debug)]
pub enum MemStep {
    /// `sd v, [base + slot*8]`
    Store {
        /// Source value-register index.
        v: u8,
        /// Static private slot.
        slot: u8,
    },
    /// `ld v, [base + slot*8]`
    Load {
        /// Destination value-register index.
        v: u8,
        /// Static private slot.
        slot: u8,
    },
    /// `sd v, [base + (v[idx] & 7)*8]` — data-dependent aliasing.
    StoreIndexed {
        /// Source value-register index.
        v: u8,
        /// Index register (masked to the slot pool).
        idx: u8,
    },
    /// `ld v, [base + (v[idx] & 7)*8]`
    LoadIndexed {
        /// Destination value-register index.
        v: u8,
        /// Index register (masked to the slot pool).
        idx: u8,
    },
}

/// One shared-memory step. Stores write the canonical constant; loads are
/// therefore interleaving-invariant.
#[derive(Clone, Copy, Debug)]
pub enum SharedStep {
    /// `sd cval, [shared + slot*8]`
    Store {
        /// Shared slot.
        slot: u8,
    },
    /// `ld v, [shared + slot*8]` (always observes the canonical constant)
    Load {
        /// Destination value-register index.
        v: u8,
        /// Shared slot.
        slot: u8,
    },
}

/// One independently removable piece of a generated program's loop body.
#[derive(Clone, Debug)]
pub enum Segment {
    /// Straight-line integer work.
    Alu(Vec<AluStep>),
    /// Straight-line FP work (long-latency units).
    Fp(Vec<FpStep>),
    /// Private loads/stores with static and data-dependent addresses.
    Mem(Vec<MemStep>),
    /// Cross-thread canonical-constant traffic.
    Shared(Vec<SharedStep>),
    /// Data-dependent branch: `if v[cond] & 1 { then } else { else }`.
    Diamond {
        /// Value register whose low bit selects the arm.
        cond: u8,
        /// Taken arm.
        then_steps: Vec<AluStep>,
        /// Fall-through arm.
        else_steps: Vec<AluStep>,
    },
    /// Counted inner loop around a small ALU body.
    InnerLoop {
        /// Trip count (small).
        iters: u8,
        /// Loop body.
        body: Vec<AluStep>,
    },
    /// Branch-heavy weave: a run of conditional sites all keyed to the
    /// outer loop counter's parity, with alternating sense site to site.
    /// Every site therefore flips direction on every outer iteration —
    /// anti-correlated with its own previous outcome, the worst case for a
    /// per-site 2-bit counter and exactly what a history-indexed predictor
    /// learns. Each site runs one of two ALU steps depending on the arm.
    BranchWeave {
        /// Sense of the first site (subsequent sites alternate).
        flip: bool,
        /// Per-site `(taken-arm, fall-through-arm)` steps.
        arms: Vec<(AluStep, AluStep)>,
    },
    /// Always-taken branch over a wrong-path poison load: a cold BTB
    /// predicts fall-through, so the machine speculatively issues a load
    /// of an out-of-bounds address and must squash its fault.
    PoisonGuard,
    /// Counting barrier over all threads (uniform per round, so masking it
    /// in or out can never deadlock).
    Barrier,
}

/// The concrete random content of one generated program.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Seed the plan was generated from (for reproduction lines).
    pub seed: u64,
    /// Outer-loop trip count.
    pub outer_iters: u64,
    /// Loop-body segments, maskable individually.
    pub segments: Vec<Segment>,
    /// Whether the program ends with an out-of-bounds store (maskable as
    /// the last mask bit).
    pub fault_tail: bool,
    /// Initial values of `v0..v3`.
    pub init_vals: [i32; NUM_VALS],
    /// Which initial values get `+ tid` (thread-diverse data).
    pub tid_salt: [bool; NUM_VALS],
    /// Canonical constant stored in (and pre-loaded into) shared slots.
    pub cval: u32,
}

impl Plan {
    /// Draws a plan from `seed`.
    #[must_use]
    pub fn generate(seed: u64, cfg: &GenConfig) -> Self {
        let mut rng = Rng::new(seed);
        let r = &mut rng;
        let n_segments = r.range_usize(cfg.min_segments, cfg.max_segments + 1);
        let segments = (0..n_segments).map(|_| gen_segment(r)).collect();
        let mut init_vals = [0i32; NUM_VALS];
        let mut tid_salt = [false; NUM_VALS];
        for i in 0..NUM_VALS {
            init_vals[i] = r.range_i64(i64::from(i32::MIN), i64::from(i32::MAX)) as i32;
            tid_salt[i] = r.coin();
        }
        Plan {
            seed,
            outer_iters: 1 + r.below(cfg.max_outer_iters),
            segments,
            fault_tail: r.below(cfg.fault_tail_odds) == 0,
            init_vals,
            tid_salt,
            cval: (r.next_u64() >> 33) as u32 | 1,
        }
    }

    /// Length of the enabled mask [`Plan::build`] takes: one bit per
    /// segment plus a final bit gating the fault tail.
    #[must_use]
    pub fn mask_len(&self) -> usize {
        self.segments.len() + 1
    }

    /// Lowers the full plan (everything enabled).
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`] (cannot occur for generated plans — the
    /// register budget fits the maximum thread count).
    pub fn build_full(&self, threads: usize) -> Result<Program, BuildError> {
        self.build(&vec![true; self.mask_len()], threads)
    }

    /// Pure lowering of the plan under an enabled mask. Disabled segments
    /// are skipped entirely; no randomness is consumed, so `(seed, mask)`
    /// reproduces the exact program.
    ///
    /// # Errors
    ///
    /// Propagates [`BuildError`].
    ///
    /// # Panics
    ///
    /// Panics if `enabled.len() != self.mask_len()`.
    pub fn build(&self, enabled: &[bool], threads: usize) -> Result<Program, BuildError> {
        assert_eq!(enabled.len(), self.mask_len(), "mask length");
        let b = &mut ProgramBuilder::new();

        // Data layout (independent of the mask and the thread count):
        // shared slots pre-initialized to the canonical constant, one sync
        // flag word per barrier segment, then the private regions.
        let shared = b.data_u64(&vec![u64::from(self.cval); SHARED_SLOTS as usize]);
        let n_barriers = self
            .segments
            .iter()
            .filter(|s| matches!(s, Segment::Barrier))
            .count() as u64;
        let sync = b.alloc_zeroed(8 * n_barriers.max(1));
        let priv_base = b.alloc_zeroed(MAX_THREADS * PRIV_SLOTS * 8);

        let [base, shb, syn, cval, cnt, cnt2, one, s0, s1] = b.regs();
        let vals: [Reg; NUM_VALS] = b.regs();
        let tid = b.tid_reg();

        // Prologue.
        b.li(base, priv_base as i64);
        b.slli(s0, tid, (PRIV_SLOTS * 8).trailing_zeros() as i32);
        b.add(base, base, s0);
        b.li(shb, shared as i64);
        b.li(syn, sync as i64);
        b.li(cval, i64::from(self.cval));
        b.li(one, 1);
        for (i, &v) in vals.iter().enumerate() {
            b.li(v, i64::from(self.init_vals[i]));
            if self.tid_salt[i] {
                b.add(v, v, tid);
            }
        }
        // Seed cross-thread store traffic (same canonical values the data
        // image already holds, so ordering is invisible).
        for slot in 0..SHARED_SLOTS {
            b.sd(cval, shb, (slot * 8) as i32);
        }
        b.li(cnt, self.outer_iters as i64);

        let top = b.label();
        b.bind(top);
        let mut flag = 0u64;
        for (seg, &on) in self.segments.iter().zip(enabled) {
            let is_barrier = matches!(seg, Segment::Barrier);
            if on {
                lower_segment(
                    b,
                    seg,
                    LowerCtx {
                        base,
                        shb,
                        syn,
                        cval,
                        cnt,
                        cnt2,
                        one,
                        s0,
                        s1,
                        vals,
                        flag,
                        outer_iters: self.outer_iters,
                    },
                );
            }
            // Flag words stay assigned to their segment even when disabled,
            // so masking one barrier off does not re-home the others.
            flag += u64::from(is_barrier);
        }
        b.addi(cnt, cnt, -1);
        b.bge(cnt, one, top);

        // Epilogue: make the final value registers architecturally visible
        // in memory too.
        for (i, &v) in vals.iter().enumerate() {
            b.sd(v, base, (i * 8) as i32);
        }
        if self.fault_tail && enabled[self.segments.len()] {
            b.li(s0, 1 << 40);
            b.sd(vals[0], s0, 0);
        }
        b.halt();
        b.build(threads)
    }

    /// One-line description of the enabled segments, for repro reports.
    #[must_use]
    pub fn describe(&self, enabled: &[bool]) -> String {
        let mut parts: Vec<String> = self
            .segments
            .iter()
            .zip(enabled)
            .filter(|&(_, &on)| on)
            .map(|(s, _)| match s {
                Segment::Alu(v) => format!("alu[{}]", v.len()),
                Segment::Fp(v) => format!("fp[{}]", v.len()),
                Segment::Mem(v) => format!("mem[{}]", v.len()),
                Segment::Shared(v) => format!("shared[{}]", v.len()),
                Segment::Diamond { .. } => "diamond".into(),
                Segment::InnerLoop { iters, .. } => format!("loop[{iters}]"),
                Segment::BranchWeave { arms, .. } => format!("weave[{}]", arms.len()),
                Segment::PoisonGuard => "poison".into(),
                Segment::Barrier => "barrier".into(),
            })
            .collect();
        if self.fault_tail && enabled[self.segments.len()] {
            parts.push("fault-tail".into());
        }
        format!(
            "iters={} segments={{{}}}",
            self.outer_iters,
            parts.join(", ")
        )
    }
}

/// A heterogeneous per-thread program mix drawn from one base seed: slot
/// `t` gets its own independent [`Plan`] generated from a seed mixed with
/// the slot index, and is lowered *at one thread* — each program owns its
/// thread's private world, so [`Segment::Barrier`] self-satisfies and the
/// mix can never deadlock regardless of what the other slots run.
///
/// The minimization mask is the concatenation of the per-slot masks, so
/// the standard subset minimizer shrinks all programs of a failing mix at
/// once; `(seed, threads, mask)` reproduces the exact failing mix.
#[derive(Clone, Debug)]
pub struct MixPlan {
    /// Base seed the per-slot seeds derive from (for repro lines).
    pub seed: u64,
    /// One plan per hardware thread, in slot order.
    pub plans: Vec<Plan>,
}

impl MixPlan {
    /// Draws `threads` independent plans from `seed`.
    #[must_use]
    pub fn generate(seed: u64, threads: usize, cfg: &GenConfig) -> Self {
        let plans = (0..threads)
            .map(|slot| Plan::generate(Self::slot_seed(seed, slot), cfg))
            .collect();
        MixPlan { seed, plans }
    }

    /// The derived seed for one slot: a splitmix64 finalization of the
    /// base seed offset by the slot index, so adjacent base seeds and
    /// adjacent slots still get decorrelated plan streams.
    #[must_use]
    pub fn slot_seed(seed: u64, slot: usize) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(slot as u64 + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Length of the concatenated enabled mask [`MixPlan::build`] takes:
    /// the sum of the per-slot [`Plan::mask_len`]s.
    #[must_use]
    pub fn mask_len(&self) -> usize {
        self.plans.iter().map(Plan::mask_len).sum()
    }

    /// Lowers every slot (everything enabled).
    ///
    /// # Errors
    ///
    /// Propagates the first [`BuildError`] (cannot occur for generated
    /// plans).
    pub fn build_full(&self) -> Result<Vec<Program>, BuildError> {
        self.build(&vec![true; self.mask_len()])
    }

    /// Pure lowering of every slot under its slice of the concatenated
    /// mask, each at one thread. No randomness is consumed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`BuildError`].
    ///
    /// # Panics
    ///
    /// Panics if `enabled.len() != self.mask_len()`.
    pub fn build(&self, enabled: &[bool]) -> Result<Vec<Program>, BuildError> {
        assert_eq!(enabled.len(), self.mask_len(), "mix mask length");
        let mut at = 0;
        self.plans
            .iter()
            .map(|plan| {
                let slice = &enabled[at..at + plan.mask_len()];
                at += plan.mask_len();
                plan.build(slice, 1)
            })
            .collect()
    }

    /// One-line per-slot description of the enabled segments, for repro
    /// reports.
    #[must_use]
    pub fn describe(&self, enabled: &[bool]) -> String {
        let mut at = 0;
        self.plans
            .iter()
            .enumerate()
            .map(|(slot, plan)| {
                let slice = &enabled[at..at + plan.mask_len()];
                at += plan.mask_len();
                format!("t{slot}: {}", plan.describe(slice))
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// Registers and layout facts a segment lowering needs.
#[derive(Clone, Copy)]
struct LowerCtx {
    base: Reg,
    shb: Reg,
    syn: Reg,
    cval: Reg,
    cnt: Reg,
    cnt2: Reg,
    one: Reg,
    s0: Reg,
    s1: Reg,
    vals: [Reg; NUM_VALS],
    /// Sync flag index for a barrier segment.
    flag: u64,
    outer_iters: u64,
}

fn gen_segment(r: &mut Rng) -> Segment {
    // Weighted kind pick: memory and branches dominate, sync and poison
    // stay occasional so most masks keep several of each hazard class.
    match r.below(18) {
        0..=2 => Segment::Alu(gen_alu_steps(r, 5)),
        3..=4 => Segment::Fp((0..r.range_usize(1, 5)).map(|_| gen_fp_step(r)).collect()),
        5..=8 => Segment::Mem((0..r.range_usize(2, 7)).map(|_| gen_mem_step(r)).collect()),
        9..=10 => Segment::Shared(
            (0..r.range_usize(2, 6))
                .map(|_| gen_shared_step(r))
                .collect(),
        ),
        11..=12 => Segment::Diamond {
            cond: r.below(NUM_VALS as u64) as u8,
            then_steps: gen_alu_steps(r, 3),
            else_steps: gen_alu_steps(r, 3),
        },
        13 => Segment::InnerLoop {
            iters: r.range_usize(2, 5) as u8,
            body: gen_alu_steps(r, 3),
        },
        14 => Segment::PoisonGuard,
        15..=16 => Segment::BranchWeave {
            flip: r.coin(),
            arms: (0..r.range_usize(2, 6))
                .map(|_| (gen_alu_step(r), gen_alu_step(r)))
                .collect(),
        },
        _ => Segment::Barrier,
    }
}

fn gen_alu_step(r: &mut Rng) -> AluStep {
    AluStep {
        op: r.pick_copy(ALU_OPS),
        d: r.below(NUM_VALS as u64) as u8,
        a: r.below(NUM_VALS as u64) as u8,
        b: r.below(NUM_VALS as u64) as u8,
        imm: r.range_i64(i64::from(i16::MIN), i64::from(i16::MAX)) as i16,
    }
}

fn gen_alu_steps(r: &mut Rng, max: usize) -> Vec<AluStep> {
    (0..r.range_usize(1, max + 1))
        .map(|_| gen_alu_step(r))
        .collect()
}

fn gen_fp_step(r: &mut Rng) -> FpStep {
    FpStep {
        op: r.pick_copy(FP_OPS),
        d: r.below(NUM_VALS as u64) as u8,
        a: r.below(NUM_VALS as u64) as u8,
        b: r.below(NUM_VALS as u64) as u8,
    }
}

fn gen_mem_step(r: &mut Rng) -> MemStep {
    let v = r.below(NUM_VALS as u64) as u8;
    match r.below(4) {
        0 => MemStep::Store {
            v,
            slot: r.below(PRIV_SLOTS) as u8,
        },
        1 => MemStep::Load {
            v,
            slot: r.below(PRIV_SLOTS) as u8,
        },
        2 => MemStep::StoreIndexed {
            v,
            idx: r.below(NUM_VALS as u64) as u8,
        },
        _ => MemStep::LoadIndexed {
            v,
            idx: r.below(NUM_VALS as u64) as u8,
        },
    }
}

fn gen_shared_step(r: &mut Rng) -> SharedStep {
    let slot = r.below(SHARED_SLOTS) as u8;
    if r.coin() {
        SharedStep::Store { slot }
    } else {
        SharedStep::Load {
            v: r.below(NUM_VALS as u64) as u8,
            slot,
        }
    }
}

fn lower_alu(b: &mut ProgramBuilder, step: &AluStep, vals: &[Reg; NUM_VALS]) {
    let (d, a, r2) = (
        vals[step.d as usize],
        vals[step.a as usize],
        vals[step.b as usize],
    );
    let imm = i32::from(step.imm);
    match step.op {
        AluOp::Add => b.add(d, a, r2),
        AluOp::Sub => b.sub(d, a, r2),
        AluOp::And => b.and(d, a, r2),
        AluOp::Or => b.or(d, a, r2),
        AluOp::Xor => b.xor(d, a, r2),
        AluOp::Sll => b.sll(d, a, r2),
        AluOp::Srl => b.srl(d, a, r2),
        AluOp::Sra => b.sra(d, a, r2),
        AluOp::Slt => b.slt(d, a, r2),
        AluOp::Sltu => b.sltu(d, a, r2),
        AluOp::Mul => b.mul(d, a, r2),
        AluOp::Div => b.div(d, a, r2),
        AluOp::Rem => b.rem(d, a, r2),
        AluOp::Addi => b.addi(d, a, imm),
        AluOp::Andi => b.andi(d, a, imm),
        AluOp::Ori => b.ori(d, a, imm),
        AluOp::Xori => b.xori(d, a, imm),
        AluOp::Slli => b.slli(d, a, imm & 63),
        AluOp::Srli => b.srli(d, a, imm & 63),
    }
}

fn lower_segment(b: &mut ProgramBuilder, seg: &Segment, cx: LowerCtx) {
    match seg {
        Segment::Alu(steps) => {
            for s in steps {
                lower_alu(b, s, &cx.vals);
            }
        }
        Segment::Fp(steps) => {
            for s in steps {
                let (d, a, r2) = (
                    cx.vals[s.d as usize],
                    cx.vals[s.a as usize],
                    cx.vals[s.b as usize],
                );
                match s.op {
                    FpOp::Fadd => b.fadd(d, a, r2),
                    FpOp::Fsub => b.fsub(d, a, r2),
                    FpOp::Fmul => b.fmul(d, a, r2),
                    FpOp::Fdiv => b.fdiv(d, a, r2),
                    FpOp::Fneg => b.fneg(d, a),
                    FpOp::Fabs => b.fabs(d, a),
                    FpOp::Fsqrt => b.fsqrt(d, a),
                    FpOp::Flt => b.flt(d, a, r2),
                    FpOp::I2f => b.i2f(d, a),
                    FpOp::F2i => b.f2i(d, a),
                }
            }
        }
        Segment::Mem(steps) => {
            for s in steps {
                match *s {
                    MemStep::Store { v, slot } => {
                        b.sd(cx.vals[v as usize], cx.base, i32::from(slot) * 8);
                    }
                    MemStep::Load { v, slot } => {
                        b.ld(cx.vals[v as usize], cx.base, i32::from(slot) * 8);
                    }
                    MemStep::StoreIndexed { v, idx } => {
                        lower_indexed_addr(b, cx, idx);
                        b.sd(cx.vals[v as usize], cx.s0, 0);
                    }
                    MemStep::LoadIndexed { v, idx } => {
                        lower_indexed_addr(b, cx, idx);
                        b.ld(cx.vals[v as usize], cx.s0, 0);
                    }
                }
            }
        }
        Segment::Shared(steps) => {
            for s in steps {
                match *s {
                    SharedStep::Store { slot } => b.sd(cx.cval, cx.shb, i32::from(slot) * 8),
                    SharedStep::Load { v, slot } => {
                        b.ld(cx.vals[v as usize], cx.shb, i32::from(slot) * 8);
                    }
                }
            }
        }
        Segment::Diamond {
            cond,
            then_steps,
            else_steps,
        } => {
            let then_l = b.label();
            let join = b.label();
            b.andi(cx.s0, cx.vals[*cond as usize], 1);
            b.beq(cx.s0, cx.one, then_l);
            for s in else_steps {
                lower_alu(b, s, &cx.vals);
            }
            b.j(join);
            b.bind(then_l);
            for s in then_steps {
                lower_alu(b, s, &cx.vals);
            }
            b.bind(join);
        }
        Segment::InnerLoop { iters, body } => {
            let itop = b.label();
            b.li(cx.cnt2, i64::from(*iters));
            b.bind(itop);
            for s in body {
                lower_alu(b, s, &cx.vals);
            }
            b.addi(cx.cnt2, cx.cnt2, -1);
            b.bge(cx.cnt2, cx.one, itop);
        }
        Segment::BranchWeave { flip, arms } => {
            // s1 = outer parity; it flips every iteration, so every site
            // below alternates taken/not-taken across the outer loop.
            b.andi(cx.s1, cx.cnt, 1);
            for (i, (taken_step, fall_step)) in arms.iter().enumerate() {
                let taken = b.label();
                let join = b.label();
                if (i % 2 == 0) == *flip {
                    b.beq(cx.s1, cx.one, taken);
                } else {
                    b.bne(cx.s1, cx.one, taken);
                }
                lower_alu(b, fall_step, &cx.vals);
                b.j(join);
                b.bind(taken);
                lower_alu(b, taken_step, &cx.vals);
                b.bind(join);
            }
        }
        Segment::PoisonGuard => {
            // Always taken; a cold BTB predicts fall-through, so the
            // machine fetches and may issue the poison load speculatively,
            // then must squash it (and purge its fault) on resolve.
            let skip = b.label();
            b.beq(cx.one, cx.one, skip);
            b.li(cx.s0, 1 << 40);
            b.ld(cx.s0, cx.s0, 0);
            b.bind(skip);
        }
        Segment::Barrier => {
            // Counting barrier, round r = outer_iters + 1 - cnt:
            // post the flag, then wait for it to reach r * nthreads.
            b.addi(cx.s0, cx.syn, (cx.flag * 8) as i32);
            b.post(cx.s0);
            b.li(cx.s1, cx.outer_iters as i64 + 1);
            b.sub(cx.s1, cx.s1, cx.cnt);
            b.mul(cx.s1, cx.s1, b.nthreads_reg());
            b.wait(cx.s0, cx.s1);
        }
    }
}

/// `s0 = base + (v[idx] & (PRIV_SLOTS-1)) * 8`
fn lower_indexed_addr(b: &mut ProgramBuilder, cx: LowerCtx, idx: u8) {
    b.andi(cx.s0, cx.vals[idx as usize], PRIV_SLOTS as i32 - 1);
    b.slli(cx.s0, cx.s0, 3);
    b.add(cx.s0, cx.s0, cx.base);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::interp::Interp;

    #[test]
    fn generation_is_seed_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            let a = Plan::generate(seed, &cfg);
            let b = Plan::generate(seed, &cfg);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            let pa = a.build_full(4).unwrap();
            let pb = b.build_full(4).unwrap();
            assert_eq!(pa.text().len(), pb.text().len());
        }
    }

    #[test]
    fn plans_fit_the_register_budget_at_max_threads() {
        let cfg = GenConfig::default();
        for seed in 0..100 {
            let plan = Plan::generate(seed, &cfg);
            for threads in [1, 2, 4, 8] {
                plan.build_full(threads)
                    .unwrap_or_else(|e| panic!("seed {seed}, {threads} threads: {e}"));
            }
        }
    }

    #[test]
    fn generated_programs_terminate_on_the_reference() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let plan = Plan::generate(seed, &cfg);
            let p = plan.build_full(4).unwrap();
            let mut interp = Interp::new(&p, 4);
            match interp.run() {
                Ok(_) => assert!(interp.finished(), "seed {seed}"),
                // A fault tail is the only legal non-halt ending.
                Err(e) => assert!(plan.fault_tail, "seed {seed}: unexpected {e}"),
            }
        }
    }

    #[test]
    fn masking_any_single_segment_stays_runnable() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let plan = Plan::generate(seed, &cfg);
            for off in 0..plan.mask_len() {
                let mut mask = vec![true; plan.mask_len()];
                mask[off] = false;
                let p = plan.build(&mask, 2).unwrap();
                let mut interp = Interp::new(&p, 2);
                if let Err(e) = interp.run() {
                    assert!(
                        plan.fault_tail && mask[plan.segments.len()],
                        "seed {seed} mask-off {off}: unexpected {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_mask_is_just_prologue_and_epilogue() {
        let plan = Plan::generate(7, &GenConfig::default());
        let mask = vec![false; plan.mask_len()];
        let p = plan.build(&mask, 1).unwrap();
        let mut interp = Interp::new(&p, 1);
        interp.run().unwrap();
        assert!(interp.finished());
    }

    #[test]
    fn branch_weaves_are_generated_and_run() {
        let cfg = GenConfig::default();
        let mut saw = false;
        for seed in 0..200 {
            let plan = Plan::generate(seed, &cfg);
            if !plan
                .segments
                .iter()
                .any(|s| matches!(s, Segment::BranchWeave { .. }))
            {
                continue;
            }
            saw = true;
            let p = plan.build_full(2).unwrap();
            let mut interp = Interp::new(&p, 2);
            if let Err(e) = interp.run() {
                assert!(plan.fault_tail, "seed {seed}: unexpected {e}");
            }
        }
        assert!(saw, "no BranchWeave drawn in 200 seeds");
    }

    #[test]
    fn describes_enabled_segments() {
        let plan = Plan::generate(3, &GenConfig::default());
        let all = vec![true; plan.mask_len()];
        let desc = plan.describe(&all);
        assert!(desc.contains("iters="), "{desc}");
    }

    #[test]
    fn mix_plans_are_deterministic_and_slot_diverse() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let a = MixPlan::generate(seed, 4, &cfg);
            let b = MixPlan::generate(seed, 4, &cfg);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "seed {seed}");
            let seeds: std::collections::HashSet<u64> = a.plans.iter().map(|p| p.seed).collect();
            assert_eq!(seeds.len(), 4, "seed {seed}: slot seeds collide");
        }
    }

    #[test]
    fn mix_slots_run_solo_on_the_reference() {
        let cfg = GenConfig::default();
        for seed in 0..20 {
            let mix = MixPlan::generate(seed, 2, &cfg);
            for (slot, p) in mix.build_full().unwrap().iter().enumerate() {
                let mut interp = Interp::new(p, 1);
                if let Err(e) = interp.run() {
                    assert!(
                        mix.plans[slot].fault_tail,
                        "seed {seed} slot {slot}: unexpected {e}"
                    );
                }
            }
        }
    }

    #[test]
    fn mix_mask_slices_address_their_own_slot() {
        let mix = MixPlan::generate(11, 3, &GenConfig::default());
        assert_eq!(
            mix.mask_len(),
            mix.plans.iter().map(Plan::mask_len).sum::<usize>()
        );
        // Disabling everything in slot 1 must leave slots 0 and 2 at their
        // full-build instruction counts.
        let full = mix.build_full().unwrap();
        let mut mask = vec![true; mix.mask_len()];
        let base = mix.plans[0].mask_len();
        mask[base..base + mix.plans[1].mask_len()].fill(false);
        let partial = mix.build(&mask).unwrap();
        assert_eq!(full[0].text().len(), partial[0].text().len());
        assert_eq!(full[2].text().len(), partial[2].text().len());
        assert!(partial[1].text().len() < full[1].text().len());
        let desc = mix.describe(&mask);
        assert!(desc.contains("t0:") && desc.contains("t2:"), "{desc}");
    }
}
