//! The CPI-stack accountant: attributes every slot of frontend/commit
//! bandwidth — `block_size × fetch_threads` slots per cycle — to one leaf
//! cause.
//!
//! The invariant, enforced by tests across every workload × policy ×
//! thread-count point: after [`CpiStack::finish`], the per-cause slot
//! counts sum to exactly `width × cycles`. It holds by construction
//! (see [`crate::event`]): the decoder disposes of exactly `width`
//! slots per cycle, either as admitted instructions (whose final
//! classification is deferred to their retire/squash event) or as
//! immediately classified losses, so the accountant is pure counting — no
//! per-instruction state, no event correlation.

use crate::event::{RetireKind, SlotCause, TraceEvent, TraceSink};

/// The finished attribution of one run's slot bandwidth.
#[derive(Clone, Debug)]
pub struct CpiBreakdown {
    /// Slots per cycle (the machine's `block_size × fetch_threads`).
    pub width: u32,
    /// Cycles accounted.
    pub cycles: u64,
    /// Instructions architecturally committed (slot count of
    /// [`SlotCause::Committed`]).
    pub committed: u64,
    /// Slots per cause, indexed by [`SlotCause::index`].
    pub slots: [u64; SlotCause::COUNT],
}

impl CpiBreakdown {
    /// Slots attributed to `cause`.
    #[must_use]
    pub fn slot_count(&self, cause: SlotCause) -> u64 {
        self.slots[cause.index()]
    }

    /// Sum over every cause — must equal `width × cycles`.
    #[must_use]
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Share of the machine's slot bandwidth attributed to `cause`, in
    /// percent (0 when no cycles ran).
    #[must_use]
    pub fn share_pct(&self, cause: SlotCause) -> f64 {
        let total = u64::from(self.width) * self.cycles;
        if total == 0 {
            0.0
        } else {
            100.0 * self.slot_count(cause) as f64 / total as f64
        }
    }

    /// Cycles per committed instruction implied by the stack (`f64::NAN`
    /// when nothing committed).
    #[must_use]
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.committed as f64
    }

    /// Multi-line text table of the stack, causes in declaration order,
    /// zero rows skipped.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "CPI stack: {} cycles x {} slots = {} ({} committed, CPI {:.3})",
            self.cycles,
            self.width,
            self.total_slots(),
            self.committed,
            self.cpi()
        );
        for &cause in &SlotCause::ALL {
            let n = self.slot_count(cause);
            if n == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<14} {:>12} slots  {:>6.2} %",
                cause.name(),
                n,
                self.share_pct(cause)
            );
        }
        out
    }
}

/// The accumulating sink. Install on a run, then call
/// [`finish`](CpiStack::finish) to classify any still-in-flight slots and
/// read the [`CpiBreakdown`].
#[derive(Clone, Debug)]
pub struct CpiStack {
    width: u32,
    cycles: u64,
    slots: [u64; SlotCause::COUNT],
    /// Instructions admitted but not yet retired/squashed. Zero after a
    /// run that drains.
    pending: u64,
}

impl CpiStack {
    /// An accountant for a machine disposing `width` slots per cycle
    /// (`SimConfig::trace_shape().width`, i.e. `block_size × fetch_threads`).
    #[must_use]
    pub fn new(width: u32) -> Self {
        CpiStack {
            width,
            cycles: 0,
            slots: [0; SlotCause::COUNT],
            pending: 0,
        }
    }

    fn add(&mut self, cause: SlotCause, n: u64) {
        self.slots[cause.index()] += n;
    }

    /// Buckets any still-pending instructions as [`SlotCause::InFlight`]
    /// (only an aborted or truncated run has any) and returns the
    /// breakdown.
    #[must_use]
    pub fn finish(mut self) -> CpiBreakdown {
        let leftover = self.pending;
        self.add(SlotCause::InFlight, leftover);
        self.pending = 0;
        CpiBreakdown {
            width: self.width,
            cycles: self.cycles,
            committed: self.slots[SlotCause::Committed.index()],
            slots: self.slots,
        }
    }
}

impl TraceSink for CpiStack {
    fn event(&mut self, ev: &TraceEvent<'_>) {
        match *ev {
            TraceEvent::Decoded { .. } => self.pending += 1,
            TraceEvent::SlotsLost { cause, slots, .. } => self.add(cause, u64::from(slots)),
            TraceEvent::Retired { kind, .. } => {
                self.pending -= 1;
                let cause = match kind {
                    RetireKind::Arch => SlotCause::Committed,
                    RetireKind::Spin => SlotCause::SyncWait,
                    RetireKind::Fault => SlotCause::InFlight,
                };
                self.add(cause, 1);
            }
            TraceEvent::Squashed { .. } => {
                self.pending -= 1;
                self.add(SlotCause::SquashDiscard, 1);
            }
            TraceEvent::CycleEnd { .. } => self.cycles += 1,
            TraceEvent::Issued { .. } | TraceEvent::Completed { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecodedSlot, Occupancy};
    use smt_isa::{DecodedInsn, Instruction};

    fn slot(uid: u64) -> DecodedSlot {
        DecodedSlot {
            uid,
            tid: 0,
            pc: 0,
            insn: DecodedInsn::new(Instruction::NOP),
            block: 0,
            entry: 0,
            fetched_at: 0,
        }
    }

    #[test]
    fn accounts_a_hand_driven_cycle_exactly() {
        let mut c = CpiStack::new(4);
        let occ = Occupancy::default();
        // Cycle 0: 2 decoded + 2 fragment slots.
        c.event(&TraceEvent::Decoded {
            cycle: 0,
            slot: &slot(0),
        });
        c.event(&TraceEvent::Decoded {
            cycle: 0,
            slot: &slot(1),
        });
        c.event(&TraceEvent::SlotsLost {
            cycle: 0,
            cause: SlotCause::Fragment,
            slots: 2,
        });
        c.event(&TraceEvent::CycleEnd {
            cycle: 0,
            occ: &occ,
        });
        // Cycle 1: frontend starved; uid 0 commits, uid 1 squashes.
        c.event(&TraceEvent::Retired {
            cycle: 1,
            uid: 0,
            kind: RetireKind::Arch,
        });
        c.event(&TraceEvent::Squashed { cycle: 1, uid: 1 });
        c.event(&TraceEvent::SlotsLost {
            cycle: 1,
            cause: SlotCause::FetchStarved,
            slots: 4,
        });
        c.event(&TraceEvent::CycleEnd {
            cycle: 1,
            occ: &occ,
        });

        let b = c.finish();
        assert_eq!(b.cycles, 2);
        assert_eq!(b.total_slots(), 8, "sum equals width x cycles");
        assert_eq!(b.slot_count(SlotCause::Committed), 1);
        assert_eq!(b.slot_count(SlotCause::SquashDiscard), 1);
        assert_eq!(b.slot_count(SlotCause::Fragment), 2);
        assert_eq!(b.slot_count(SlotCause::FetchStarved), 4);
        assert_eq!(b.slot_count(SlotCause::InFlight), 0);
        assert_eq!(b.committed, 1);
    }

    #[test]
    fn spin_retire_counts_as_sync_wait() {
        let mut c = CpiStack::new(4);
        c.event(&TraceEvent::Decoded {
            cycle: 0,
            slot: &slot(7),
        });
        c.event(&TraceEvent::Retired {
            cycle: 3,
            uid: 7,
            kind: RetireKind::Spin,
        });
        let b = c.finish();
        assert_eq!(b.slot_count(SlotCause::SyncWait), 1);
        assert_eq!(b.committed, 0);
    }

    #[test]
    fn unresolved_instructions_land_in_flight() {
        let mut c = CpiStack::new(4);
        c.event(&TraceEvent::Decoded {
            cycle: 0,
            slot: &slot(0),
        });
        c.event(&TraceEvent::Decoded {
            cycle: 0,
            slot: &slot(1),
        });
        let b = c.finish();
        assert_eq!(b.slot_count(SlotCause::InFlight), 2);
    }

    #[test]
    fn render_lists_only_nonzero_causes() {
        let mut c = CpiStack::new(4);
        c.event(&TraceEvent::SlotsLost {
            cycle: 0,
            cause: SlotCause::FuBusy,
            slots: 4,
        });
        c.event(&TraceEvent::CycleEnd {
            cycle: 0,
            occ: &Occupancy::default(),
        });
        let text = c.finish().render();
        assert!(text.contains("fu-busy"));
        assert!(!text.contains("dcache-miss"));
    }
}
