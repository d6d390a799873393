//! The scheduling unit: the SDSP's combined reorder buffer and instruction
//! window (Section 2.2), extended with a thread-ID field per entry
//! (Section 3.2).
//!
//! The unit is organized in *blocks* — decode groups of up to four
//! instructions from one thread. Capacity is counted in blocks, matching the
//! hardware, where a partially valid fetch block still occupies a full row
//! of the shifting structure. Entries hold renamed operands (value or
//! producer tag), so the issue logic "does not have to concern itself with
//! the thread that an instruction belongs to".
//!
//! # Data layout
//!
//! The unit is a struct-of-arrays slab. A *row* is a block slot; a *slot*
//! holds one instruction. Rows have `stride = block_size.next_power_of_two()`
//! slots, so a dense `u16` *handle* names a slot as
//! `row << shift | entry_index` and splits back with a shift and a mask.
//! Every per-entry field lives in its own parallel array indexed by handle
//! (tags, pcs, operands, results, deferred faults, flag bits), and every
//! per-block field in an array indexed by row (block id, thread, length,
//! per-row bitmasks). Block order is a ring of row indices (`order`), and a
//! free-list of rows recycles storage — after warmup the unit never touches
//! the allocator.
//!
//! The hardware's associative searches (wakeup broadcast, writeback
//! selection, commit readiness, decode rename lookup, store-to-load
//! forwarding) are modelled with index structures over handles instead of
//! full-window scans, without changing a single observable outcome (the
//! cycle-exactness goldens in `tests/` pin this down):
//!
//! * **Ready/unissued bitmasks** — each row keeps `unissued`, `ready`,
//!   `done`, and `ctrl` masks, one bit per slot. The issue stage scans
//!   `ready` with `trailing_zeros`, touching exactly the issuable entries;
//!   commit readiness (`find_committable`, `bottom_block_status`) is a
//!   popcount, and the memory-ordering gates (`any_older_unfinished*`) are
//!   mask tests. (An event-driven sorted ready *list* was prototyped in an
//!   earlier PR and benchmarked slower than this scan at these window
//!   sizes; see `BENCH_sim_throughput.json` pr2.)
//! * **Waiter lists** — intrusive linked lists threaded through
//!   `waiter_next`, headed at the *producer's* slot: node `2·handle + k` is
//!   operand `k` of the consumer at `handle`. [`broadcast`] walks exactly
//!   the registered consumers. (Keying by producer handle rather than tag
//!   value removes the hash map the old layout needed — raw tags are never
//!   reused, so their value space is unbounded.)
//! * **Completion queue** — issued entries enter a sorted queue keyed by
//!   `(done_at, block id, handle)`; [`pop_completion`] pops the earliest.
//!   Block ids grow monotonically along the ring and handles grow with the
//!   entry index inside a row, so the queue order reproduces the reference
//!   scan's tie-break (earliest `done_at`, oldest position first) exactly.
//!   Squashed entries are invalidated lazily: a popped record is discarded
//!   unless it still names a resident entry executing toward that deadline.
//! * **Producer lists** — decode rename lookup resolves `(tid, reg)` to the
//!   youngest in-flight producer through an age-ordered list of handles per
//!   architectural register.
//! * **Forwarding chains** — completed, unfaulted stores are linked into
//!   one of a fixed set of address-hashed buckets, youngest first, so a
//!   load's store-to-load forwarding probe walks only resident stores that
//!   hash like its address. (This replaces the simulator's old
//!   address-keyed hash map, which allocated on every new store address.)
//!
//! The invariant making the index structures sound: `(block id, entry
//! index)` identifies an entry *forever*. Entries are never appended to a
//! resident block, and squashes only drain from the young end, so a stale
//! reference can dangle but never alias a different instruction. Rows carry
//! their block id (`u64::MAX` when free), which doubles as the generation
//! check for lazy invalidation.
//!
//! [`broadcast`]: SchedulingUnit::broadcast
//! [`pop_completion`]: SchedulingUnit::pop_completion

use std::collections::VecDeque;

use smt_isa::{DecodedInsn, REG_FILE_SIZE};
use smt_uarch::Tag;

use crate::config::CommitPolicy;

/// A renamed source operand.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operand {
    /// The instruction does not read this operand slot.
    Unused,
    /// Value known, available for issue from cycle `since` (same cycle with
    /// bypassing, the next cycle without).
    Ready {
        /// The operand value.
        value: u64,
        /// Cycle the value became available.
        since: u64,
    },
    /// Waiting for the producer with this renaming tag to write back.
    Waiting {
        /// Producer's tag.
        tag: Tag,
    },
}

impl Operand {
    /// The value, if ready and usable at cycle `now` under the given
    /// bypassing rule. `Unused` operands read as zero.
    #[must_use]
    pub fn value_at(&self, now: u64, bypass: bool) -> Option<u64> {
        match *self {
            Operand::Unused => Some(0),
            Operand::Ready { value, since } => {
                let usable = if bypass { since <= now } else { since < now };
                usable.then_some(value)
            }
            Operand::Waiting { .. } => None,
        }
    }
}

/// Execution state of a scheduling-unit entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EntryState {
    /// Not yet issued.
    Waiting,
    /// Issued; result arrives at `done_at`.
    Executing {
        /// Writeback cycle.
        done_at: u64,
    },
    /// Result written back (or no result to produce).
    Done,
}

/// Result of a decode-time operand lookup.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Lookup {
    /// No in-flight producer: read the committed register file.
    NotFound,
    /// Producer still executing: wait on its tag. Carries the producer's
    /// slot handle so the consumer can register on its waiter list.
    Pending(Tag, u16),
    /// Producer has written back: take the value directly.
    Available(u64),
}

/// "No handle": the null link of every intrusive list in the slab, and the
/// `wait_src` value of an operand slot that is not waiting on a producer.
pub const NO_SRC: u16 = u16::MAX;

/// Flag bits of the per-slot `flags` array.
const F_PRED_TAKEN: u8 = 1 << 0;
const F_TAKEN: u8 = 1 << 1;
const F_MISPREDICTED: u8 = 1 << 2;
const F_STORE_BUFFERED: u8 = 1 << 3;
const F_SYNC_SATISFIED: u8 = 1 << 4;
const F_DCACHE_MISS: u8 = 1 << 5;
const F_FWD_INDEXED: u8 = 1 << 6;

/// Buckets of the store-to-load forwarding index. Fixed so the index never
/// allocates; collisions are filtered by comparing effective addresses.
const FWD_BUCKETS: usize = 64;

/// Bucket of an effective address. Addresses are word-aligned in the common
/// case, so the low three bits carry no entropy; fold some higher bits in
/// to spread strided access patterns.
#[inline]
fn fwd_bucket(addr: u64) -> usize {
    let x = addr >> 3;
    ((x ^ (x >> 6) ^ (x >> 12)) & (FWD_BUCKETS as u64 - 1)) as usize
}

/// Mask with the low `n` bits set (`n <= 32`).
#[inline]
fn low_mask(n: usize) -> u32 {
    debug_assert!(n <= 32);
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// One instruction of a decode group, staged for [`push_block`]. Decode
/// fills these in a reusable buffer, resolving operands (and recording the
/// producer handle of each `Waiting` operand in `wait_src`) before the
/// group is admitted as a block.
///
/// [`push_block`]: SchedulingUnit::push_block
#[derive(Clone, Copy, Debug)]
pub struct StagedEntry {
    /// Globally unique renaming tag.
    pub tag: Tag,
    /// Decode-order instruction identity (unique per run, never reused —
    /// unlike tags). This is the key lifecycle tracing uses to correlate
    /// events across stages.
    pub uid: u64,
    /// Instruction index (for predictor updates and debugging).
    pub pc: usize,
    /// The predecoded instruction.
    pub insn: DecodedInsn,
    /// Renamed source operands.
    pub ops: [Operand; 2],
    /// For each `Waiting` operand, the producer's slot handle ([`NO_SRC`]
    /// otherwise). In-group producers use [`SchedulingUnit::staging_handle`].
    pub wait_src: [u16; 2],
    /// Fetch-time prediction: taken?
    pub predicted_taken: bool,
    /// Fetch-time prediction: target if taken.
    pub predicted_target: usize,
}

impl StagedEntry {
    /// A fresh staged entry with both operands unused.
    #[must_use]
    pub fn new(tag: Tag, pc: usize, insn: DecodedInsn) -> Self {
        StagedEntry {
            tag,
            uid: 0,
            pc,
            insn,
            ops: [Operand::Unused; 2],
            wait_src: [NO_SRC; 2],
            predicted_taken: false,
            predicted_target: 0,
        }
    }
}

/// What the caller needs to know about one squashed entry: enough to free
/// its tag, trace the squash, and unwind the memory-sync queue.
#[derive(Clone, Copy, Debug)]
pub struct SquashedEntry {
    /// The entry's renaming tag (the caller returns it to the allocator).
    pub tag: Tag,
    /// Lifecycle identity, for tracing.
    pub uid: u64,
    /// Whether the entry was a memory-sync instruction that had not yet
    /// completed — i.e. it still occupies a slot in the simulator's
    /// per-thread memory-ordering queue.
    pub memsync_outstanding: bool,
}

/// Copy-out view of one entry of a committing block.
#[derive(Clone, Copy, Debug)]
pub struct CommittedEntry {
    /// Renaming tag (the caller returns it to the allocator).
    pub tag: Tag,
    /// Lifecycle identity, for tracing and the commit sink.
    pub uid: u64,
    /// Instruction index.
    pub pc: usize,
    /// The predecoded instruction.
    pub insn: DecodedInsn,
    /// Result value (architectural destination value, if any).
    pub result: u64,
    /// Effective address of an executed load/store.
    pub mem_addr: u64,
    /// Resolved control-transfer outcome: taken?
    pub taken: bool,
    /// Resolved target.
    pub target: usize,
    /// For `WAIT`: whether the poll found the condition satisfied.
    pub sync_satisfied: bool,
}

/// The scheduling unit proper: a struct-of-arrays slab (see the module
/// docs for the layout).
#[derive(Clone, Debug)]
pub struct SchedulingUnit {
    // ---- dimensions ----
    capacity_blocks: usize,
    block_size: usize,
    /// `log2(stride)`: a handle is `row << shift | entry_index`.
    shift: u32,
    /// `stride - 1`: masks a handle down to its entry index.
    col_mask: usize,
    next_block_id: u64,
    /// Resident instruction count (kept so occupancy sampling is O(1)).
    entries_count: usize,
    // ---- block ring ----
    /// Resident rows, oldest first. A plain vector: indexed on every
    /// accessor call, so the wrap arithmetic of a deque costs more than
    /// the O(blocks) shift on the (per-block, not per-cycle) removal.
    order: Vec<u16>,
    /// Free rows (LIFO). `free.last()` is the row the next push will use.
    free: Vec<u16>,
    // ---- per-row (indexed by row) ----
    /// Block id of the resident block, `u64::MAX` when the row is free.
    /// Doubles as the generation check for lazy invalidation.
    row_id: Vec<u64>,
    row_tid: Vec<u8>,
    row_len: Vec<u8>,
    /// Whether any entry of the row carries a deferred fault — kept
    /// coherent by [`set_fault`](Self::set_fault) and recomputed on partial
    /// squash, so the commit stage's precise-fault check is a flag test.
    row_faulted: Vec<bool>,
    /// One bit per slot: entry is resident and not yet issued.
    mask_unissued: Vec<u32>,
    /// One bit per slot: entry is unissued and no operand is waiting on a
    /// producer (issue candidates; bypass timing is re-checked at issue).
    mask_ready: Vec<u32>,
    /// One bit per slot: entry has written back.
    mask_done: Vec<u32>,
    /// `low_mask(row_len)` per row: `mask_done == row_full` is the
    /// all-written-back test the commit scan runs every cycle (an equality
    /// compare — `count_ones()` lowers to a slow software popcount on
    /// baseline x86-64).
    row_full: Vec<u32>,
    /// One bit per slot: entry is a control transfer.
    mask_ctrl: Vec<u32>,
    // ---- per-slot (indexed by handle) ----
    tag: Vec<u64>,
    uid: Vec<u64>,
    pc: Vec<u32>,
    insn: Vec<DecodedInsn>,
    ops: Vec<[Operand; 2]>,
    /// Producer handle each `Waiting` operand is registered on.
    wait_src: Vec<[u16; 2]>,
    done_at: Vec<u64>,
    result: Vec<u64>,
    mem_addr: Vec<u64>,
    fault: Vec<Option<smt_mem::MemError>>,
    predicted_target: Vec<u32>,
    target: Vec<u32>,
    flags: Vec<u8>,
    // ---- wakeup index ----
    /// Head of the waiter list of the producer at each slot ([`NO_SRC`] =
    /// empty). Nodes are `2·consumer_handle + operand_index`.
    waiter_head: Vec<u16>,
    /// Next link per waiter node.
    waiter_next: Vec<u16>,
    // ---- store-to-load forwarding index ----
    /// Head of each address-hashed chain of completed resident stores.
    fwd_head: [u16; FWD_BUCKETS],
    /// Next link per slot (chains are sorted youngest first).
    fwd_next: Vec<u16>,
    // ---- rename index ----
    /// Age-ordered in-flight producer handles, oldest at the front, in a
    /// flat table indexed by `tid * REG_FILE_SIZE + reg` (grown on demand —
    /// the unit does not know the thread count).
    producers: Vec<VecDeque<u16>>,
    // ---- writeback selection ----
    /// Issued entries as `(done_at, block id, handle)`, kept sorted
    /// ascending from `comp_head`; `completions[comp_head]` is the next
    /// completion. Issue deadlines mostly arrive in order, so sorted
    /// insertion beats a binary heap here (and squashed records are
    /// discarded lazily on pop). A flat vector with a consumed-prefix
    /// cursor instead of a deque: the hot insert is a plain `push`, and
    /// pops advance the cursor without wrap arithmetic; the prefix is
    /// compacted away once it outgrows a small bound.
    completions: Vec<(u64, u64, u16)>,
    comp_head: usize,
    /// Reusable buffer backing [`squash_after`](Self::squash_after)'s
    /// return value.
    squash_buf: Vec<SquashedEntry>,
}

impl SchedulingUnit {
    /// Creates an empty unit holding `capacity_blocks` blocks of
    /// `block_size` instructions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero, if `block_size` exceeds the
    /// 32-bit row masks, or if the slab would not fit `u16` handles.
    #[must_use]
    pub fn new(capacity_blocks: usize, block_size: usize) -> Self {
        assert!(
            capacity_blocks > 0 && block_size > 0,
            "degenerate scheduling unit"
        );
        assert!(block_size <= 32, "block size exceeds the row bitmasks");
        let stride = block_size.next_power_of_two();
        let shift = stride.trailing_zeros();
        let slots = capacity_blocks << shift;
        // Waiter nodes are 2·handle + k, and both handles and nodes must
        // stay below the u16 null sentinel.
        assert!(
            slots * 2 < NO_SRC as usize,
            "unit too large for u16 handles"
        );
        let dummy = DecodedInsn::new(smt_isa::Instruction::halt());
        SchedulingUnit {
            capacity_blocks,
            block_size,
            shift,
            col_mask: stride - 1,
            next_block_id: 0,
            entries_count: 0,
            order: Vec::with_capacity(capacity_blocks),
            free: (0..capacity_blocks as u16).rev().collect(),
            row_id: vec![u64::MAX; capacity_blocks],
            row_tid: vec![0; capacity_blocks],
            row_len: vec![0; capacity_blocks],
            row_faulted: vec![false; capacity_blocks],
            mask_unissued: vec![0; capacity_blocks],
            mask_ready: vec![0; capacity_blocks],
            mask_done: vec![0; capacity_blocks],
            row_full: vec![0; capacity_blocks],
            mask_ctrl: vec![0; capacity_blocks],
            tag: vec![0; slots],
            uid: vec![0; slots],
            pc: vec![0; slots],
            insn: vec![dummy; slots],
            ops: vec![[Operand::Unused; 2]; slots],
            wait_src: vec![[NO_SRC; 2]; slots],
            done_at: vec![0; slots],
            result: vec![0; slots],
            mem_addr: vec![0; slots],
            fault: vec![None; slots],
            predicted_target: vec![0; slots],
            target: vec![0; slots],
            flags: vec![0; slots],
            waiter_head: vec![NO_SRC; slots],
            waiter_next: vec![NO_SRC; slots * 2],
            fwd_head: [NO_SRC; FWD_BUCKETS],
            fwd_next: vec![NO_SRC; slots],
            producers: Vec::new(),
            completions: Vec::with_capacity(slots),
            comp_head: 0,
            squash_buf: Vec::with_capacity(slots),
        }
    }

    /// Pre-grows the rename index for `n` threads so the first decode of
    /// each thread does not pay for table growth, pre-sizing each producer
    /// list to the window (its hard upper bound) so steady state never
    /// touches the allocator.
    pub fn reserve_threads(&mut self, n: usize) {
        let slots = self.capacity_blocks << self.shift;
        if self.producers.len() < n * REG_FILE_SIZE {
            self.producers
                .resize_with(n * REG_FILE_SIZE, || VecDeque::with_capacity(slots));
        }
    }

    // ---- geometry helpers -----------------------------------------------------------

    /// The row holding the block at ring position `bi`.
    #[inline]
    fn row(&self, bi: usize) -> usize {
        self.order[bi] as usize
    }

    /// Handle of entry `ei` of the block at ring position `bi`.
    #[inline]
    fn handle(&self, bi: usize, ei: usize) -> usize {
        (self.row(bi) << self.shift) | ei
    }

    #[inline]
    fn split(&self, h: usize) -> (usize, usize) {
        (h >> self.shift, h & self.col_mask)
    }

    /// Age key of a resident slot: `(block id, entry index)` — totally
    /// ordered across the window because block ids are monotone.
    #[inline]
    fn age_key(&self, h: usize) -> (u64, usize) {
        (self.row_id[h >> self.shift], h & self.col_mask)
    }

    // ---- capacity -------------------------------------------------------------------

    /// Whether a new block can enter.
    #[must_use]
    pub fn has_space(&self) -> bool {
        self.order.len() < self.capacity_blocks
    }

    /// Number of resident blocks.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.order.len()
    }

    /// Number of resident instructions (valid entries, not padded slots).
    #[must_use]
    pub fn num_entries(&self) -> usize {
        self.entries_count
    }

    /// Whether the unit is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Position of the block with id `bid`, if still resident. The ring
    /// holds at most a handful of blocks and most lookups land near the
    /// young end, so a reverse linear scan beats a binary search here; ids
    /// are monotone, so the scan can stop early.
    fn pos_of(&self, bid: u64) -> Option<usize> {
        let mut i = self.order.len();
        while i > 0 {
            i -= 1;
            let id = self.row_id[self.order[i] as usize];
            if id == bid {
                return Some(i);
            }
            if id < bid {
                return None;
            }
        }
        None
    }

    // ---- block-level reads ----------------------------------------------------------

    /// Block id of the block at position `i` (0 = oldest).
    #[must_use]
    pub fn block_id(&self, i: usize) -> u64 {
        self.row_id[self.row(i)]
    }

    /// Owning thread of the block at position `i`.
    #[must_use]
    pub fn block_tid(&self, i: usize) -> usize {
        self.row_tid[self.row(i)] as usize
    }

    /// Number of entries of the block at position `i`.
    #[must_use]
    pub fn block_len(&self, i: usize) -> usize {
        self.row_len[self.row(i)] as usize
    }

    /// Whether any entry of the block carries a deferred fault.
    #[must_use]
    pub fn block_has_fault(&self, i: usize) -> bool {
        self.row_faulted[self.row(i)]
    }

    /// Issue candidates of the block at position `i`: one bit per entry
    /// that is unissued with no operand waiting on a producer. The issue
    /// stage scans this with `trailing_zeros`; bypass timing (`value_at`)
    /// is re-checked per candidate.
    #[must_use]
    pub fn ready_mask(&self, i: usize) -> u32 {
        self.mask_ready[self.row(i)]
    }

    /// Entry index of the oldest unfinished (not `Done`) entry of the
    /// block at position `i`, if any — drives head-stall attribution.
    #[must_use]
    pub fn first_unfinished(&self, i: usize) -> Option<usize> {
        let row = self.row(i);
        let m = low_mask(self.row_len[row] as usize) & !self.mask_done[row];
        (m != 0).then(|| m.trailing_zeros() as usize)
    }

    /// Number of thread `tid`'s resident conditional branches that have
    /// not yet written back — the unresolved speculation depth the fetch
    /// stage gates on when a speculation-depth limit is configured.
    /// Unconditional control transfers don't count: jumps resolve at
    /// decode and `halt` is never speculated past.
    #[must_use]
    pub fn unresolved_branches(&self, tid: usize) -> u32 {
        let mut n = 0;
        for &row16 in &self.order {
            let row = row16 as usize;
            if self.row_tid[row] as usize != tid {
                continue;
            }
            let mut m = self.mask_ctrl[row] & !self.mask_done[row];
            while m != 0 {
                let ei = m.trailing_zeros() as usize;
                m &= m - 1;
                if self.insn[(row << self.shift) | ei].is_cond_branch() {
                    n += 1;
                }
            }
        }
        n
    }

    // ---- entry-level reads ----------------------------------------------------------

    /// Renaming tag of entry `(bi, ei)`.
    #[must_use]
    pub fn tag_at(&self, bi: usize, ei: usize) -> Tag {
        Tag::from_raw(self.tag[self.handle(bi, ei)])
    }

    /// Lifecycle uid of entry `(bi, ei)`.
    #[must_use]
    pub fn uid_at(&self, bi: usize, ei: usize) -> u64 {
        self.uid[self.handle(bi, ei)]
    }

    /// Instruction index of entry `(bi, ei)`.
    #[must_use]
    pub fn pc_at(&self, bi: usize, ei: usize) -> usize {
        self.pc[self.handle(bi, ei)] as usize
    }

    /// Predecoded instruction of entry `(bi, ei)`.
    #[must_use]
    pub fn insn_at(&self, bi: usize, ei: usize) -> DecodedInsn {
        self.insn[self.handle(bi, ei)]
    }

    /// Renamed operands of entry `(bi, ei)`.
    #[must_use]
    pub fn ops_at(&self, bi: usize, ei: usize) -> [Operand; 2] {
        self.ops[self.handle(bi, ei)]
    }

    /// Pipeline state of entry `(bi, ei)`.
    #[must_use]
    pub fn state_at(&self, bi: usize, ei: usize) -> EntryState {
        let row = self.row(bi);
        let bit = 1u32 << ei;
        if self.mask_done[row] & bit != 0 {
            EntryState::Done
        } else if self.mask_unissued[row] & bit != 0 {
            EntryState::Waiting
        } else {
            EntryState::Executing {
                done_at: self.done_at[(row << self.shift) | ei],
            }
        }
    }

    /// Whether entry `(bi, ei)` has written back.
    #[must_use]
    pub fn is_done_at(&self, bi: usize, ei: usize) -> bool {
        self.mask_done[self.row(bi)] & (1 << ei) != 0
    }

    /// Result value of entry `(bi, ei)`.
    #[must_use]
    pub fn result_at(&self, bi: usize, ei: usize) -> u64 {
        self.result[self.handle(bi, ei)]
    }

    /// Effective address of entry `(bi, ei)` (loads/stores, once issued).
    #[must_use]
    pub fn mem_addr_at(&self, bi: usize, ei: usize) -> u64 {
        self.mem_addr[self.handle(bi, ei)]
    }

    /// Deferred memory fault of entry `(bi, ei)`, if any.
    #[must_use]
    pub fn fault_at(&self, bi: usize, ei: usize) -> Option<smt_mem::MemError> {
        self.fault[self.handle(bi, ei)]
    }

    /// Fetch-time prediction of entry `(bi, ei)`: taken?
    #[must_use]
    pub fn predicted_taken_at(&self, bi: usize, ei: usize) -> bool {
        self.flags[self.handle(bi, ei)] & F_PRED_TAKEN != 0
    }

    /// Fetch-time predicted target of entry `(bi, ei)`.
    #[must_use]
    pub fn predicted_target_at(&self, bi: usize, ei: usize) -> usize {
        self.predicted_target[self.handle(bi, ei)] as usize
    }

    /// Resolved control-transfer outcome of entry `(bi, ei)`: taken?
    #[must_use]
    pub fn taken_at(&self, bi: usize, ei: usize) -> bool {
        self.flags[self.handle(bi, ei)] & F_TAKEN != 0
    }

    /// Resolved control-transfer target of entry `(bi, ei)`.
    #[must_use]
    pub fn target_at(&self, bi: usize, ei: usize) -> usize {
        self.target[self.handle(bi, ei)] as usize
    }

    /// Whether the committed store at `(bi, ei)` is already in the store
    /// buffer (commit may take several cycles when the buffer is tight).
    #[must_use]
    pub fn store_buffered_at(&self, bi: usize, ei: usize) -> bool {
        self.flags[self.handle(bi, ei)] & F_STORE_BUFFERED != 0
    }

    /// For `WAIT` at `(bi, ei)`: whether the poll found the condition
    /// satisfied.
    #[must_use]
    pub fn sync_satisfied_at(&self, bi: usize, ei: usize) -> bool {
        self.flags[self.handle(bi, ei)] & F_SYNC_SATISFIED != 0
    }

    /// Whether the issued load at `(bi, ei)` gets its data later than issue
    /// (cache miss or pending hit).
    #[must_use]
    pub fn dcache_miss_at(&self, bi: usize, ei: usize) -> bool {
        self.flags[self.handle(bi, ei)] & F_DCACHE_MISS != 0
    }

    /// Whether both operands of entry `(bi, ei)` are usable at `now`.
    #[must_use]
    pub fn operands_ready_at(&self, bi: usize, ei: usize, now: u64, bypass: bool) -> bool {
        self.ops[self.handle(bi, ei)]
            .iter()
            .all(|o| o.value_at(now, bypass).is_some())
    }

    /// Copy-out view of entry `(bi, ei)` for the commit drain.
    #[must_use]
    pub fn commit_view(&self, bi: usize, ei: usize) -> CommittedEntry {
        let h = self.handle(bi, ei);
        CommittedEntry {
            tag: Tag::from_raw(self.tag[h]),
            uid: self.uid[h],
            pc: self.pc[h] as usize,
            insn: self.insn[h],
            result: self.result[h],
            mem_addr: self.mem_addr[h],
            taken: self.flags[h] & F_TAKEN != 0,
            target: self.target[h] as usize,
            sync_satisfied: self.flags[h] & F_SYNC_SATISFIED != 0,
        }
    }

    // ---- entry-level writes ---------------------------------------------------------

    /// Sets the result value of entry `(bi, ei)`.
    pub fn set_result(&mut self, bi: usize, ei: usize, value: u64) {
        let h = self.handle(bi, ei);
        self.result[h] = value;
    }

    /// Sets the effective address of entry `(bi, ei)`.
    pub fn set_mem_addr(&mut self, bi: usize, ei: usize, addr: u64) {
        let h = self.handle(bi, ei);
        self.mem_addr[h] = addr;
    }

    /// Records the resolved outcome of the control transfer at `(bi, ei)`.
    pub fn set_taken_target(&mut self, bi: usize, ei: usize, taken: bool, target: usize) {
        let h = self.handle(bi, ei);
        if taken {
            self.flags[h] |= F_TAKEN;
        } else {
            self.flags[h] &= !F_TAKEN;
        }
        self.target[h] = target as u32;
    }

    /// Marks the control transfer at `(bi, ei)` as mispredicted.
    pub fn set_mispredicted(&mut self, bi: usize, ei: usize) {
        let h = self.handle(bi, ei);
        self.flags[h] |= F_MISPREDICTED;
    }

    /// Marks the committed store at `(bi, ei)` as pushed into the store
    /// buffer.
    pub fn set_store_buffered(&mut self, bi: usize, ei: usize) {
        let h = self.handle(bi, ei);
        self.flags[h] |= F_STORE_BUFFERED;
    }

    /// Records the poll outcome of the `WAIT` at `(bi, ei)`.
    pub fn set_sync_satisfied(&mut self, bi: usize, ei: usize, satisfied: bool) {
        let h = self.handle(bi, ei);
        if satisfied {
            self.flags[h] |= F_SYNC_SATISFIED;
        } else {
            self.flags[h] &= !F_SYNC_SATISFIED;
        }
    }

    /// Marks the issued load at `(bi, ei)` as getting its data later than
    /// issue.
    pub fn set_dcache_miss(&mut self, bi: usize, ei: usize, miss: bool) {
        let h = self.handle(bi, ei);
        if miss {
            self.flags[h] |= F_DCACHE_MISS;
        } else {
            self.flags[h] &= !F_DCACHE_MISS;
        }
    }

    /// Records a deferred fault on entry `(bi, ei)`, keeping the block-level
    /// flag coherent. All fault writes must go through here.
    pub fn set_fault(&mut self, bi: usize, ei: usize, err: smt_mem::MemError) {
        let row = self.row(bi);
        self.fault[(row << self.shift) | ei] = Some(err);
        self.row_faulted[row] = true;
    }

    // ---- decode: staging and admission ----------------------------------------------

    /// Handle that entry `idx` of the *next* pushed block will occupy —
    /// lets decode record in-group producer handles while staging. Valid
    /// until the next block push or removal.
    ///
    /// # Panics
    ///
    /// Panics if the unit is full.
    #[must_use]
    pub fn staging_handle(&self, idx: usize) -> u16 {
        let row = *self.free.last().expect("scheduling unit full");
        ((row as usize) << self.shift | idx) as u16
    }

    /// Admits a decode group as the youngest block, indexing its producers
    /// and waiting operands. Returns the block id.
    ///
    /// # Panics
    ///
    /// Panics if the unit is full or the group is empty or oversized.
    pub fn push_block(&mut self, tid: usize, entries: &[StagedEntry]) -> u64 {
        assert!(
            !entries.is_empty() && entries.len() <= self.block_size,
            "block of {} entries (block size {})",
            entries.len(),
            self.block_size
        );
        debug_assert!(tid <= u8::MAX as usize, "thread id exceeds the slab");
        let row = self.free.pop().expect("scheduling unit full") as usize;
        let id = self.next_block_id;
        self.next_block_id += 1;
        self.row_id[row] = id;
        self.row_tid[row] = tid as u8;
        self.row_len[row] = entries.len() as u8;
        self.row_faulted[row] = false;
        let mut unissued = 0u32;
        let mut ready = 0u32;
        let mut ctrl = 0u32;
        for (ei, e) in entries.iter().enumerate() {
            let h = (row << self.shift) | ei;
            debug_assert!(e.pc <= u32::MAX as usize);
            self.tag[h] = e.tag.raw();
            self.uid[h] = e.uid;
            self.pc[h] = e.pc as u32;
            self.insn[h] = e.insn;
            self.ops[h] = e.ops;
            self.wait_src[h] = e.wait_src;
            self.done_at[h] = 0;
            self.result[h] = 0;
            self.mem_addr[h] = 0;
            self.fault[h] = None;
            self.predicted_target[h] = e.predicted_target as u32;
            self.target[h] = 0;
            self.flags[h] = if e.predicted_taken { F_PRED_TAKEN } else { 0 };
            debug_assert_eq!(self.waiter_head[h], NO_SRC, "stale waiter list");
            unissued |= 1 << ei;
            if e.insn.is_control() {
                ctrl |= 1 << ei;
            }
            let mut waiting = false;
            for k in 0..2 {
                if matches!(e.ops[k], Operand::Waiting { .. }) {
                    waiting = true;
                    self.link_waiter(h, k);
                } else {
                    debug_assert_eq!(e.wait_src[k], NO_SRC);
                }
            }
            if !waiting {
                ready |= 1 << ei;
            }
            if let Some(reg) = e.insn.dest {
                self.producer_list(tid, reg.index()).push_back(h as u16);
            }
        }
        self.mask_unissued[row] = unissued;
        self.mask_ready[row] = ready;
        self.mask_done[row] = 0;
        self.row_full[row] = unissued;
        self.mask_ctrl[row] = ctrl;
        self.entries_count += entries.len();
        self.order.push(row as u16);
        id
    }

    /// Links operand `k` of the consumer at `h` onto its producer's waiter
    /// list (`wait_src` must already name the producer).
    fn link_waiter(&mut self, h: usize, k: usize) {
        let p = self.wait_src[h][k];
        debug_assert_ne!(p, NO_SRC, "waiting operand without a producer handle");
        debug_assert!(
            matches!(self.ops[h][k], Operand::Waiting { tag } if tag.raw() == self.tag[p as usize]),
            "wait_src names a slot with a different tag"
        );
        let node = (h * 2 + k) as u16;
        self.waiter_next[node as usize] = self.waiter_head[p as usize];
        self.waiter_head[p as usize] = node;
    }

    /// Unlinks waiter node `node` from producer `p`'s list, tolerating an
    /// already-cleared list (squash may clear the producer first).
    fn unlink_waiter(&mut self, p: u16, node: u16) {
        let head = self.waiter_head[p as usize];
        if head == node {
            self.waiter_head[p as usize] = self.waiter_next[node as usize];
            return;
        }
        let mut cur = head;
        while cur != NO_SRC {
            let next = self.waiter_next[cur as usize];
            if next == node {
                self.waiter_next[cur as usize] = self.waiter_next[node as usize];
                return;
            }
            cur = next;
        }
    }

    /// Mutable producer list for `(tid, reg)`, growing the flat table on
    /// first touch of a new thread.
    fn producer_list(&mut self, tid: usize, reg: usize) -> &mut VecDeque<u16> {
        let idx = tid * REG_FILE_SIZE + reg;
        if idx >= self.producers.len() {
            let slots = self.capacity_blocks << self.shift;
            self.producers
                .resize_with((tid + 1) * REG_FILE_SIZE, || VecDeque::with_capacity(slots));
        }
        &mut self.producers[idx]
    }

    /// Decode-time operand lookup: the *youngest* in-flight producer of
    /// `(tid, reg)`, per the paper's associative search "modified … to
    /// succeed only if the thread number and the register number match".
    #[must_use]
    pub fn lookup(&self, tid: usize, reg: smt_isa::Reg) -> Lookup {
        let Some(&h) = self
            .producers
            .get(tid * REG_FILE_SIZE + reg.index())
            .and_then(VecDeque::back)
        else {
            return Lookup::NotFound;
        };
        let (row, ei) = self.split(h as usize);
        debug_assert_eq!(self.insn[h as usize].dest, Some(reg));
        if self.mask_done[row] & (1 << ei) != 0 {
            Lookup::Available(self.result[h as usize])
        } else {
            Lookup::Pending(Tag::from_raw(self.tag[h as usize]), h)
        }
    }

    // ---- wakeup / writeback ---------------------------------------------------------

    /// Broadcasts the writeback of the producer at `(bi, ei)`: every
    /// operand waiting on it becomes ready with `value` at cycle `now`.
    /// Walks exactly the registered waiter nodes — O(consumers), not
    /// O(window).
    pub fn broadcast(&mut self, bi: usize, ei: usize, value: u64, now: u64) {
        let p = self.handle(bi, ei);
        let mut node = self.waiter_head[p];
        self.waiter_head[p] = NO_SRC;
        while node != NO_SRC {
            let n = node as usize;
            let (h, k) = (n / 2, n % 2);
            node = self.waiter_next[n];
            debug_assert!(
                matches!(self.ops[h][k], Operand::Waiting { tag } if tag.raw() == self.tag[p]),
                "waiter list names a slot not waiting on this producer"
            );
            self.ops[h][k] = Operand::Ready { value, since: now };
            self.wait_src[h][k] = NO_SRC;
            let (row, c) = self.split(h);
            if self.mask_unissued[row] & (1 << c) != 0
                && !matches!(self.ops[h][k ^ 1], Operand::Waiting { .. })
            {
                self.mask_ready[row] |= 1 << c;
            }
        }
    }

    /// Sorted insertion into the completion queue (ascending by
    /// `(done_at, block id, handle)` — equivalent to the reference order
    /// `(done_at, block id, entry index)` because handles grow with the
    /// entry index inside a row).
    fn insert_completion(&mut self, key: (u64, u64, u16)) {
        if self.completions.last().is_none_or(|&c| c < key) {
            self.completions.push(key);
            return;
        }
        // Out-of-order deadline: place it within the live suffix (records
        // before the cursor are already consumed and about to be compacted).
        let live = &self.completions[self.comp_head..];
        let pos = self.comp_head + live.partition_point(|&c| c < key);
        self.completions.insert(pos, key);
    }

    /// Records that the entry at `(bi, ei)` issued and completes at
    /// `done_at`: the entry leaves the ready/unissued masks and the
    /// completion queue learns about the event.
    ///
    /// # Panics
    ///
    /// Panics if the entry has already issued.
    pub fn mark_executing(&mut self, bi: usize, ei: usize, done_at: u64) {
        let row = self.row(bi);
        let bit = 1u32 << ei;
        assert!(
            self.mask_unissued[row] & bit != 0,
            "entry issues exactly once"
        );
        self.mask_unissued[row] &= !bit;
        self.mask_ready[row] &= !bit;
        let h = (row << self.shift) | ei;
        self.done_at[h] = done_at;
        self.insert_completion((done_at, self.row_id[row], h as u16));
    }

    /// Marks the entry at `(bi, ei)` as written back (`Done`).
    ///
    /// # Panics
    ///
    /// Panics if the entry is already `Done`.
    pub fn mark_done(&mut self, bi: usize, ei: usize) {
        let row = self.row(bi);
        let bit = 1u32 << ei;
        assert!(
            self.mask_done[row] & bit == 0,
            "entry completes exactly once"
        );
        self.mask_done[row] |= bit;
        self.mask_unissued[row] &= !bit;
        self.mask_ready[row] &= !bit;
    }

    /// Pops the next completion at or before cycle `now`: the `Executing`
    /// entry with the earliest `done_at`, oldest position breaking ties.
    /// Stale queue records — squashed entries — are discarded on the way.
    pub fn pop_completion(&mut self, now: u64) -> Option<(usize, usize)> {
        if self.comp_head == self.completions.len() {
            self.completions.clear();
            self.comp_head = 0;
        } else if self.comp_head >= 128 {
            self.completions.drain(..self.comp_head);
            self.comp_head = 0;
        }
        while let Some(&(done_at, bid, h)) = self.completions.get(self.comp_head) {
            if done_at > now {
                return None;
            }
            self.comp_head += 1;
            // Lazy invalidation: the record is live only if its row still
            // holds the same block (generation check via the id), the slot
            // is still within the (possibly squash-truncated) block, and
            // the entry is still executing toward this very deadline.
            let (row, ei) = self.split(h as usize);
            if self.row_id[row] != bid || ei >= self.row_len[row] as usize {
                continue;
            }
            let bit = 1u32 << ei;
            if self.mask_done[row] & bit != 0 || self.mask_unissued[row] & bit != 0 {
                continue;
            }
            if self.done_at[h as usize] != done_at {
                continue;
            }
            let bi = self.pos_of(bid).expect("resident row id names a block");
            return Some((bi, ei));
        }
        None
    }

    // ---- memory-ordering gates ------------------------------------------------------

    /// Whether any entry of `tid` *older* than position `(bi, ei)` has not
    /// yet written back. Used by the `SYNC` issue gate.
    #[must_use]
    pub fn any_older_unfinished(&self, tid: usize, bi: usize, ei: usize) -> bool {
        self.any_older_masked(tid, bi, ei, None)
    }

    /// Whether any *control transfer* of `tid` older than `(bi, ei)` has
    /// not yet written back — i.e. the position is still speculative. Used
    /// by cross-thread store-to-load forwarding.
    #[must_use]
    pub fn any_older_unfinished_ctrl(&self, tid: usize, bi: usize, ei: usize) -> bool {
        self.any_older_masked(tid, bi, ei, Some(()))
    }

    fn any_older_masked(&self, tid: usize, bi: usize, ei: usize, ctrl: Option<()>) -> bool {
        for b in 0..=bi {
            let row = self.order[b] as usize;
            if self.row_tid[row] as usize != tid {
                continue;
            }
            let limit = if b == bi {
                ei
            } else {
                self.row_len[row] as usize
            };
            let mut m = low_mask(limit) & !self.mask_done[row];
            if ctrl.is_some() {
                m &= self.mask_ctrl[row];
            }
            if m != 0 {
                return true;
            }
        }
        false
    }

    // ---- store-to-load forwarding ---------------------------------------------------

    /// Indexes the completed, unfaulted store at `(bi, ei)` for
    /// store-to-load forwarding (chains are youngest first).
    pub fn fwd_insert(&mut self, bi: usize, ei: usize) {
        let h = self.handle(bi, ei);
        debug_assert_eq!(self.flags[h] & F_FWD_INDEXED, 0, "store indexed twice");
        self.flags[h] |= F_FWD_INDEXED;
        let b = fwd_bucket(self.mem_addr[h]);
        let key = self.age_key(h);
        let mut prev = NO_SRC;
        let mut cur = self.fwd_head[b];
        while cur != NO_SRC && self.age_key(cur as usize) > key {
            prev = cur;
            cur = self.fwd_next[cur as usize];
        }
        self.fwd_next[h] = cur;
        if prev == NO_SRC {
            self.fwd_head[b] = h as u16;
        } else {
            self.fwd_next[prev as usize] = h as u16;
        }
    }

    /// Unlinks slot `h` from its forwarding chain (no-op if not indexed).
    fn fwd_unlink(&mut self, h: usize) {
        if self.flags[h] & F_FWD_INDEXED == 0 {
            return;
        }
        self.flags[h] &= !F_FWD_INDEXED;
        let b = fwd_bucket(self.mem_addr[h]);
        let mut prev = NO_SRC;
        let mut cur = self.fwd_head[b];
        while cur != NO_SRC {
            if cur as usize == h {
                if prev == NO_SRC {
                    self.fwd_head[b] = self.fwd_next[h];
                } else {
                    self.fwd_next[prev as usize] = self.fwd_next[h];
                }
                return;
            }
            prev = cur;
            cur = self.fwd_next[cur as usize];
        }
        debug_assert!(false, "indexed store missing from its chain");
    }

    /// The youngest completed resident store at `addr` that may legally
    /// serve the load of `tid` at `(lbid, lei)`: a same-thread store older
    /// than the load, or a non-speculative other-thread store. `None` means
    /// the caller should fall back to the committed store buffer.
    #[must_use]
    pub fn forward_resident(&self, tid: usize, lbid: u64, lei: usize, addr: u64) -> Option<u64> {
        let mut cur = self.fwd_head[fwd_bucket(addr)];
        while cur != NO_SRC {
            let h = cur as usize;
            cur = self.fwd_next[h];
            if self.mem_addr[h] != addr {
                continue;
            }
            let (row, ei) = self.split(h);
            let stid = self.row_tid[row] as usize;
            if stid == tid {
                if (self.row_id[row], ei) < (lbid, lei) {
                    return Some(self.result[h]);
                }
                // A younger same-thread store cannot serve this load.
                continue;
            }
            let sbi = self
                .pos_of(self.row_id[row])
                .expect("forwarding chains name resident rows");
            if !self.any_older_unfinished_ctrl(stid, sbi, ei) {
                return Some(self.result[h]);
            }
        }
        None
    }

    // ---- squash ---------------------------------------------------------------------

    /// Deregisters the entry at slot `h` (known to be leaving the unit)
    /// from the waiter, producer, and forwarding indexes.
    fn deindex_entry(&mut self, h: usize) {
        for k in 0..2 {
            if matches!(self.ops[h][k], Operand::Waiting { .. }) {
                let p = self.wait_src[h][k];
                if p != NO_SRC {
                    self.unlink_waiter(p, (h * 2 + k) as u16);
                }
                self.wait_src[h][k] = NO_SRC;
            }
        }
        if let Some(reg) = self.insn[h].dest {
            let row = h >> self.shift;
            let tid = self.row_tid[row] as usize;
            let list = &mut self.producers[tid * REG_FILE_SIZE + reg.index()];
            // Commit frees the thread's oldest block (front of its lists),
            // squash removes its youngest entries (back) — the scan only
            // runs for the entries in between, which neither path produces.
            if list.front() == Some(&(h as u16)) {
                list.pop_front();
            } else if list.back() == Some(&(h as u16)) {
                list.pop_back();
            } else {
                let pos = list
                    .iter()
                    .rposition(|&x| x as usize == h)
                    .expect("producer was indexed");
                list.remove(pos);
            }
        }
        self.fwd_unlink(h);
        // The departing entry's own waiter list: its consumers are either
        // already woken (list empty) or being removed by the same squash,
        // and each unlinks itself tolerantly — clear defensively.
        self.waiter_head[h] = NO_SRC;
    }

    /// Returns the row at ring position `i` to the free list.
    fn release_row(&mut self, i: usize) {
        let row = self.order.remove(i) as usize;
        self.row_id[row] = u64::MAX;
        self.row_len[row] = 0;
        self.row_faulted[row] = false;
        self.mask_unissued[row] = 0;
        self.mask_ready[row] = 0;
        self.mask_done[row] = 0;
        self.row_full[row] = 0;
        self.mask_ctrl[row] = 0;
        self.free.push(row as u16);
    }

    /// Selectively squashes the wrong path after a mispredicted control
    /// transfer: every entry of `tid` *younger* than `(bi, ei)` is removed
    /// ("all entries above the mispredicted one, and with a matching thread
    /// ID, are discarded"). Blocks of other threads are untouched. Returns
    /// the removed entries oldest-first (caller frees tags); the slice
    /// borrows a buffer reused across squashes, so nothing is allocated on
    /// this path.
    ///
    /// Removed entries leave the waiter/producer/forwarding indexes
    /// eagerly (bounding memory); their completion-queue records decay
    /// lazily.
    pub fn squash_after(&mut self, tid: usize, bi: usize, ei: usize) -> &[SquashedEntry] {
        self.squash_buf.clear();
        // Younger entries within the same block.
        let row = self.row(bi);
        let len = self.row_len[row] as usize;
        for c in ei + 1..len {
            let h = (row << self.shift) | c;
            self.squash_buf.push(SquashedEntry {
                tag: Tag::from_raw(self.tag[h]),
                uid: self.uid[h],
                memsync_outstanding: self.insn[h].is_memsync()
                    && self.mask_done[row] & (1 << c) == 0,
            });
            self.deindex_entry(h);
        }
        let keep = low_mask(ei + 1);
        self.row_len[row] = (ei + 1) as u8;
        self.mask_unissued[row] &= keep;
        self.mask_ready[row] &= keep;
        self.mask_done[row] &= keep;
        self.row_full[row] = keep;
        self.mask_ctrl[row] &= keep;
        // The fault flag may have named a squashed entry; recompute over
        // the surviving few entries.
        if self.row_faulted[row] {
            self.row_faulted[row] = (0..=ei).any(|c| self.fault[(row << self.shift) | c].is_some());
        }
        // Younger blocks of the same thread (whole blocks, by construction).
        let mut i = bi + 1;
        while i < self.order.len() {
            let r = self.order[i] as usize;
            if self.row_tid[r] as usize != tid {
                i += 1;
                continue;
            }
            for c in 0..self.row_len[r] as usize {
                let h = (r << self.shift) | c;
                self.squash_buf.push(SquashedEntry {
                    tag: Tag::from_raw(self.tag[h]),
                    uid: self.uid[h],
                    memsync_outstanding: self.insn[h].is_memsync()
                        && self.mask_done[r] & (1 << c) == 0,
                });
                self.deindex_entry(h);
            }
            self.release_row(i);
        }
        self.entries_count -= self.squash_buf.len();
        &self.squash_buf
    }

    /// Entry `idx` of the last [`squash_after`](Self::squash_after) result —
    /// an indexed copy-out so callers can interleave reads with their own
    /// mutations without holding the slice borrow.
    #[must_use]
    pub fn squashed_at(&self, idx: usize) -> SquashedEntry {
        self.squash_buf[idx]
    }

    // ---- commit ---------------------------------------------------------------------

    /// Finds the committable block under `policy`: the lowest block among
    /// the bottom `window` whose entries are all done, and below which no
    /// block of the same thread remains (per-thread in-order commit).
    /// O(window), not O(window × block size): readiness is a popcount.
    #[must_use]
    pub fn find_committable(&self, policy: CommitPolicy, window: usize) -> Option<usize> {
        let window = match policy {
            CommitPolicy::LowestOnly => 1,
            CommitPolicy::Flexible => window,
        };
        for i in 0..self.order.len().min(window) {
            let row = self.order[i] as usize;
            if self.mask_done[row] != self.row_full[row] {
                continue;
            }
            let tid = self.row_tid[row];
            let blocked_by_older = self
                .order
                .iter()
                .take(i)
                .any(|&older| self.row_tid[older as usize] == tid);
            if !blocked_by_older {
                return Some(i);
            }
        }
        None
    }

    /// Removes the committed block at position `i`, deregistering its
    /// entries from every index and recycling the row. Callers copy out
    /// whatever they need (e.g. via [`commit_view`](Self::commit_view))
    /// *before* freeing.
    pub fn free_block(&mut self, i: usize) {
        let row = self.row(i);
        let len = self.row_len[row] as usize;
        for c in 0..len {
            self.deindex_entry((row << self.shift) | c);
        }
        self.entries_count -= len;
        self.release_row(i);
    }

    /// The thread owning the lower-most block, and whether that block could
    /// commit this cycle — drives the Masked Round-Robin fetch mask.
    #[must_use]
    pub fn bottom_block_status(&self) -> Option<(usize, bool)> {
        self.order.first().map(|&r| {
            let row = r as usize;
            let blocked = self.mask_done[row] != self.row_full[row];
            (self.row_tid[row] as usize, blocked)
        })
    }

    /// Raw tags of every resident entry, oldest block first — feeds the
    /// tag allocator's liveness check on snapshot restore.
    #[must_use]
    pub fn resident_tags(&self) -> Vec<u64> {
        let mut tags = Vec::with_capacity(self.entries_count);
        for &r in &self.order {
            let row = r as usize;
            for c in 0..self.row_len[row] as usize {
                tags.push(self.tag[(row << self.shift) | c]);
            }
        }
        tags
    }

    // ---- checkpointing --------------------------------------------------------------

    /// Serializes resident blocks (ids, threads, entries) plus the block-id
    /// counter, in the same wire layout as every prior format: the index
    /// structures, masks, and free lists are derived state, rebuilt on
    /// restore by the same code decode uses.
    pub fn save(&self, w: &mut smt_checkpoint::Writer) {
        w.put_u64(self.next_block_id);
        w.put_usize(self.order.len());
        for bi in 0..self.order.len() {
            let row = self.order[bi] as usize;
            w.put_u64(self.row_id[row]);
            w.put_usize(self.row_tid[row] as usize);
            w.put_usize(self.row_len[row] as usize);
            for ei in 0..self.row_len[row] as usize {
                let h = (row << self.shift) | ei;
                w.put_u64(self.tag[h]);
                w.put_u64(self.uid[h]);
                w.put_usize(self.row_tid[row] as usize);
                w.put_usize(self.pc[h] as usize);
                for op in &self.ops[h] {
                    match *op {
                        Operand::Unused => w.put_u8(0),
                        Operand::Ready { value, since } => {
                            w.put_u8(1);
                            w.put_u64(value);
                            w.put_u64(since);
                        }
                        Operand::Waiting { tag } => {
                            w.put_u8(2);
                            w.put_u64(tag.raw());
                        }
                    }
                }
                match self.state_at(bi, ei) {
                    EntryState::Waiting => w.put_u8(0),
                    EntryState::Executing { done_at } => {
                        w.put_u8(1);
                        w.put_u64(done_at);
                    }
                    EntryState::Done => w.put_u8(2),
                }
                w.put_u64(self.result[h]);
                w.put_bool(self.flags[h] & F_PRED_TAKEN != 0);
                w.put_usize(self.predicted_target[h] as usize);
                w.put_bool(self.flags[h] & F_TAKEN != 0);
                w.put_usize(self.target[h] as usize);
                w.put_bool(self.flags[h] & F_MISPREDICTED != 0);
                match self.fault[h] {
                    None => w.put_u8(0),
                    Some(smt_mem::MemError::OutOfBounds { addr, size }) => {
                        w.put_u8(1);
                        w.put_u64(addr);
                        w.put_u64(size);
                    }
                    Some(smt_mem::MemError::Unaligned { addr }) => {
                        w.put_u8(2);
                        w.put_u64(addr);
                    }
                }
                w.put_u64(self.mem_addr[h]);
                w.put_bool(self.flags[h] & F_STORE_BUFFERED != 0);
                w.put_bool(self.flags[h] & F_SYNC_SATISFIED != 0);
                w.put_bool(self.flags[h] & F_DCACHE_MISS != 0);
            }
        }
    }

    /// Rebuilds a unit from [`save`](Self::save)d state, re-deriving every
    /// index (masks, waiter links, producers, completions, forwarding
    /// chains) from the serialized entry contents. Fails closed on any
    /// structural inconsistency — including a waiting operand whose
    /// producer is not resident, which no genuine snapshot can contain.
    /// `decoded` holds one predecoded instruction table per thread
    /// (heterogeneous mixes run a distinct program per thread; a
    /// homogeneous run passes the same table for every slot), so each
    /// entry's instruction is recovered from its *owning thread's* text.
    pub fn restore(
        capacity_blocks: usize,
        block_size: usize,
        r: &mut smt_checkpoint::Reader<'_>,
        decoded: &[&[DecodedInsn]],
    ) -> Result<Self, smt_checkpoint::DecodeError> {
        let malformed = |what: String| -> smt_checkpoint::DecodeError {
            smt_checkpoint::DecodeError::Malformed(what)
        };
        let mut su = SchedulingUnit::new(capacity_blocks, block_size);
        let next_block_id = r.take_u64()?;
        let n_blocks = r.take_usize()?;
        if n_blocks > capacity_blocks {
            return Err(malformed(format!(
                "{n_blocks} blocks for a {capacity_blocks}-block unit"
            )));
        }
        for _ in 0..n_blocks {
            let id = r.take_u64()?;
            let tid = r.take_usize()?;
            let n_entries = r.take_usize()?;
            if n_entries == 0 || n_entries > block_size {
                return Err(malformed(format!(
                    "block of {n_entries} entries (block size {block_size})"
                )));
            }
            if id < su.next_block_id || id >= next_block_id || tid > u8::MAX as usize {
                return Err(malformed(format!("non-monotone block id {id}")));
            }
            let text = *decoded.get(tid).ok_or_else(|| {
                malformed(format!(
                    "block of thread {tid} in a {}-thread run",
                    decoded.len()
                ))
            })?;
            let row = su.free.pop().expect("capacity checked above") as usize;
            su.row_id[row] = id;
            su.row_tid[row] = tid as u8;
            su.row_len[row] = n_entries as u8;
            su.next_block_id = id + 1;
            let mut fault_seen = false;
            for ei in 0..n_entries {
                let h = (row << su.shift) | ei;
                su.tag[h] = r.take_u64()?;
                su.uid[h] = r.take_u64()?;
                let etid = r.take_usize()?;
                if etid != tid {
                    return Err(malformed(format!(
                        "entry of thread {etid} in a block of thread {tid}"
                    )));
                }
                let pc = r.take_usize()?;
                su.insn[h] = *text
                    .get(pc)
                    .ok_or_else(|| malformed(format!("entry pc {pc} outside program text")))?;
                su.pc[h] = pc as u32;
                for k in 0..2 {
                    su.ops[h][k] = match r.take_u8()? {
                        0 => Operand::Unused,
                        1 => Operand::Ready {
                            value: r.take_u64()?,
                            since: r.take_u64()?,
                        },
                        2 => Operand::Waiting {
                            tag: Tag::from_raw(r.take_u64()?),
                        },
                        v => return Err(malformed(format!("operand discriminant {v}"))),
                    };
                    su.wait_src[h][k] = NO_SRC;
                }
                let bit = 1u32 << ei;
                match r.take_u8()? {
                    0 => su.mask_unissued[row] |= bit,
                    1 => {
                        su.done_at[h] = r.take_u64()?;
                        su.insert_completion((su.done_at[h], id, h as u16));
                    }
                    2 => su.mask_done[row] |= bit,
                    v => return Err(malformed(format!("entry state discriminant {v}"))),
                }
                su.result[h] = r.take_u64()?;
                let mut flags = 0u8;
                if r.take_bool()? {
                    flags |= F_PRED_TAKEN;
                }
                su.predicted_target[h] = r.take_usize()? as u32;
                if r.take_bool()? {
                    flags |= F_TAKEN;
                }
                su.target[h] = r.take_usize()? as u32;
                if r.take_bool()? {
                    flags |= F_MISPREDICTED;
                }
                su.fault[h] = match r.take_u8()? {
                    0 => None,
                    1 => Some(smt_mem::MemError::OutOfBounds {
                        addr: r.take_u64()?,
                        size: r.take_u64()?,
                    }),
                    2 => Some(smt_mem::MemError::Unaligned {
                        addr: r.take_u64()?,
                    }),
                    v => return Err(malformed(format!("fault discriminant {v}"))),
                };
                fault_seen |= su.fault[h].is_some();
                su.mem_addr[h] = r.take_u64()?;
                if r.take_bool()? {
                    flags |= F_STORE_BUFFERED;
                }
                if r.take_bool()? {
                    flags |= F_SYNC_SATISFIED;
                }
                if r.take_bool()? {
                    flags |= F_DCACHE_MISS;
                }
                su.flags[h] = flags;
                if su.insn[h].is_control() {
                    su.mask_ctrl[row] |= bit;
                }
            }
            su.row_faulted[row] = fault_seen;
            su.row_full[row] = low_mask(n_entries);
            // Resolve waiting operands to producer handles and rebuild the
            // wakeup, ready, rename, and forwarding indexes. Producers of
            // an operand are always older than their consumer, so they are
            // already placed (earlier block, or earlier slot of this row).
            for ei in 0..n_entries {
                let h = (row << su.shift) | ei;
                let mut waiting = false;
                for k in 0..2 {
                    if let Operand::Waiting { tag } = su.ops[h][k] {
                        waiting = true;
                        let p = su.find_resident_tag(tag.raw(), row, ei).ok_or_else(|| {
                            malformed(format!(
                                "waiting operand with no resident producer (tag {})",
                                tag.raw()
                            ))
                        })?;
                        su.wait_src[h][k] = p;
                        su.link_waiter(h, k);
                    }
                }
                if !waiting && su.mask_unissued[row] & (1 << ei) != 0 {
                    su.mask_ready[row] |= 1 << ei;
                }
                if let Some(reg) = su.insn[h].dest {
                    su.producer_list(tid, reg.index()).push_back(h as u16);
                }
            }
            su.entries_count += n_entries;
            su.order.push(row as u16);
            // Rebuild the forwarding index here so the simulator does not
            // have to: chains hold every completed unfaulted store, placed
            // by age key once its row has joined the ring.
            for ei in 0..n_entries {
                let h = (row << su.shift) | ei;
                if su.insn[h].op == smt_isa::Opcode::Sd
                    && su.mask_done[row] & (1 << ei) != 0
                    && su.fault[h].is_none()
                {
                    let bi = su.order.len() - 1;
                    su.fwd_insert(bi, ei);
                }
            }
        }
        su.next_block_id = next_block_id;
        Ok(su)
    }

    /// Handle of the resident entry carrying raw tag `t`, searching every
    /// ringed row plus slots `0..limit` of `extra_row` (the row being
    /// restored). Cold path: only snapshot restore uses it.
    fn find_resident_tag(&self, t: u64, extra_row: usize, limit: usize) -> Option<u16> {
        for &r in &self.order {
            let row = r as usize;
            for c in 0..self.row_len[row] as usize {
                let h = (row << self.shift) | c;
                if self.tag[h] == t {
                    return Some(h as u16);
                }
            }
        }
        for c in 0..limit {
            let h = (extra_row << self.shift) | c;
            if self.tag[h] == t {
                return Some(h as u16);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::{Instruction, Opcode, Reg};
    use smt_uarch::TagAllocator;

    fn staged(tags: &mut TagAllocator, dest: u8) -> StagedEntry {
        let insn = Instruction::i2(Opcode::Addi, Reg::new(dest), Reg::new(2), 1);
        let mut e = StagedEntry::new(tags.alloc().unwrap(), 0, DecodedInsn::new(insn));
        e.ops = [Operand::Ready { value: 0, since: 0 }, Operand::Unused];
        e
    }

    /// Push a block and drive entry 0 to `Done` with `result`.
    fn push_done(su: &mut SchedulingUnit, tid: usize, e: StagedEntry, result: u64) {
        su.push_block(tid, &[e]);
        let bi = su.num_blocks() - 1;
        su.mark_executing(bi, 0, 0);
        su.mark_done(bi, 0);
        su.set_result(bi, 0, result);
    }

    #[test]
    fn capacity_is_counted_in_blocks() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(2, 4);
        su.push_block(0, &[staged(&mut tags, 3)]); // partial block
        su.push_block(1, &[staged(&mut tags, 3)]);
        assert!(
            !su.has_space(),
            "two blocks fill a two-block unit even when partial"
        );
        assert_eq!(su.num_entries(), 2);
    }

    #[test]
    fn lookup_finds_youngest_same_thread_producer() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(4, 4);
        push_done(&mut su, 0, staged(&mut tags, 5), 11);
        let younger = staged(&mut tags, 5);
        let ytag = younger.tag;
        su.push_block(0, &[younger]);
        su.push_block(1, &[staged(&mut tags, 5)]);
        assert!(matches!(su.lookup(0, Reg::new(5)), Lookup::Pending(t, _) if t == ytag));
        assert_eq!(su.lookup(0, Reg::new(9)), Lookup::NotFound);
        // Thread 1's producer is independent.
        assert!(matches!(su.lookup(1, Reg::new(5)), Lookup::Pending(..)));
    }

    #[test]
    fn lookup_returns_value_once_done() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(4, 4);
        push_done(&mut su, 0, staged(&mut tags, 7), 99);
        assert_eq!(su.lookup(0, Reg::new(7)), Lookup::Available(99));
    }

    #[test]
    fn lookup_falls_back_after_producer_leaves() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(4, 4);
        push_done(&mut su, 0, staged(&mut tags, 5), 0);
        su.push_block(0, &[staged(&mut tags, 5)]);
        // Commit the old producer: the younger one still answers.
        su.free_block(0);
        assert!(matches!(su.lookup(0, Reg::new(5)), Lookup::Pending(..)));
        // Remove the younger one too: no producer remains.
        su.free_block(0);
        assert_eq!(su.lookup(0, Reg::new(5)), Lookup::NotFound);
    }

    #[test]
    fn broadcast_wakes_waiters() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(4, 4);
        let producer = staged(&mut tags, 5);
        let ptag = producer.tag;
        su.push_block(0, &[producer]);
        let Lookup::Pending(tag, src) = su.lookup(0, Reg::new(5)) else {
            panic!("producer should be pending");
        };
        let mut consumer = staged(&mut tags, 6);
        consumer.ops[0] = Operand::Waiting { tag };
        consumer.wait_src[0] = src;
        su.push_block(0, &[consumer]);
        assert_eq!(su.ready_mask(1), 0, "waiting consumer is not ready");
        assert_eq!(tag, ptag);
        su.broadcast(0, 0, 123, 7);
        let op = su.ops_at(1, 0)[0];
        assert_eq!(
            op,
            Operand::Ready {
                value: 123,
                since: 7
            }
        );
        assert_eq!(su.ready_mask(1), 1, "woken consumer becomes a candidate");
        assert_eq!(
            op.value_at(7, true),
            Some(123),
            "bypassing: usable same cycle"
        );
        assert_eq!(op.value_at(7, false), None, "no bypassing: next cycle");
        assert_eq!(op.value_at(8, false), Some(123));
    }

    #[test]
    fn broadcast_after_squash_of_consumer_is_harmless() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        let producer = staged(&mut tags, 5);
        su.push_block(0, &[producer]);
        let Lookup::Pending(tag, src) = su.lookup(0, Reg::new(5)) else {
            panic!("producer should be pending");
        };
        let branch = staged(&mut tags, 6);
        let mut consumer = staged(&mut tags, 7);
        consumer.ops[0] = Operand::Waiting { tag };
        consumer.wait_src[0] = src;
        su.push_block(0, &[branch, consumer]);
        // Squash the consumer (younger than the branch at (1, 0)).
        let removed = su.squash_after(0, 1, 0);
        assert_eq!(removed.len(), 1);
        // The producer's broadcast must not touch the dead slot.
        su.broadcast(0, 0, 99, 3);
        assert_eq!(su.block_len(1), 1, "only the branch remains");
    }

    #[test]
    fn completions_pop_in_deadline_then_age_order() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3), staged(&mut tags, 4)]);
        su.push_block(1, &[staged(&mut tags, 3)]);
        // Issue out of age order with equal and distinct deadlines.
        su.mark_executing(1, 0, 5); // young block, early deadline
        su.mark_executing(0, 1, 5); // old block, same deadline
        su.mark_executing(0, 0, 7); // oldest entry, late deadline
        assert_eq!(su.pop_completion(4), None, "nothing due yet");
        assert_eq!(
            su.pop_completion(5),
            Some((0, 1)),
            "tie goes to the older position"
        );
        su.mark_done(0, 1);
        assert_eq!(su.pop_completion(5), Some((1, 0)));
        su.mark_done(1, 0);
        assert_eq!(su.pop_completion(5), None, "third entry not due");
        assert_eq!(su.pop_completion(9), Some((0, 0)));
    }

    #[test]
    fn stale_completions_of_squashed_entries_are_discarded() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3), staged(&mut tags, 4)]);
        su.push_block(0, &[staged(&mut tags, 5)]);
        su.mark_executing(0, 1, 2); // will be squashed
        su.mark_executing(1, 0, 2); // will be squashed (whole block)
        su.squash_after(0, 0, 0);
        assert_eq!(
            su.pop_completion(10),
            None,
            "squashed completions never surface"
        );
        // A new block reusing the same positions must not be confused with
        // the squashed records (fresh block id).
        su.push_block(0, &[staged(&mut tags, 6)]);
        su.mark_executing(1, 0, 3);
        assert_eq!(su.pop_completion(10), Some((1, 0)));
    }

    #[test]
    fn squash_removes_younger_same_thread_only() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3), staged(&mut tags, 4)]);
        su.push_block(1, &[staged(&mut tags, 3)]);
        su.push_block(0, &[staged(&mut tags, 5), staged(&mut tags, 6)]);
        let removed = su.squash_after(0, 0, 0);
        assert_eq!(removed.len(), 3, "one in-block + one 2-entry block");
        assert_eq!(su.num_blocks(), 2);
        assert_eq!(su.num_entries(), 2);
        assert_eq!(su.block_tid(1), 1, "other thread untouched");
    }

    #[test]
    fn flexible_commit_skips_blocked_thread() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        // Bottom block (thread 0): not done.
        su.push_block(0, &[staged(&mut tags, 3)]);
        // Next (thread 1): done.
        push_done(&mut su, 1, staged(&mut tags, 3), 0);
        // Thread 0 again, done — but blocked by its own older block.
        push_done(&mut su, 0, staged(&mut tags, 4), 0);

        assert_eq!(su.find_committable(CommitPolicy::LowestOnly, 4), None);
        assert_eq!(su.find_committable(CommitPolicy::Flexible, 4), Some(1));
        // Window of 1 behaves like lowest-only.
        assert_eq!(su.find_committable(CommitPolicy::Flexible, 1), None);
    }

    #[test]
    fn commit_window_is_bounded() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3)]); // not done
        for tid in [1, 2, 3] {
            su.push_block(tid, &[staged(&mut tags, 3)]); // not done
        }
        push_done(&mut su, 4, staged(&mut tags, 3), 0); // 5th: outside window
        assert_eq!(su.find_committable(CommitPolicy::Flexible, 4), None);
    }

    #[test]
    fn any_older_unfinished_scans_only_same_thread() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3)]);
        su.push_block(1, &[staged(&mut tags, 3)]);
        su.push_block(0, &[staged(&mut tags, 4)]);
        // From thread 0's youngest entry, an older unfinished thread-0
        // entry exists.
        assert!(su.any_older_unfinished(0, 2, 0));
        // From thread 1's entry, no older thread-1 entry exists.
        assert!(!su.any_older_unfinished(1, 1, 0));
        // An entry cannot see itself.
        assert!(!su.any_older_unfinished(0, 0, 0));
        // Once the older entry completes, the gate opens.
        su.mark_executing(0, 0, 1);
        su.mark_done(0, 0);
        assert!(!su.any_older_unfinished(0, 2, 0));
    }

    #[test]
    fn ctrl_gate_sees_only_control_transfers() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        // An unfinished ALU op is not a speculation source …
        su.push_block(0, &[staged(&mut tags, 3)]);
        su.push_block(0, &[staged(&mut tags, 4)]);
        assert!(!su.any_older_unfinished_ctrl(0, 1, 0));
        // … an unfinished branch is.
        let branch = StagedEntry::new(
            tags.alloc().unwrap(),
            0,
            DecodedInsn::new(Instruction::branch(
                Opcode::Beq,
                Reg::new(2),
                Reg::new(2),
                0,
            )),
        );
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[branch]);
        su.push_block(0, &[staged(&mut tags, 4)]);
        assert!(su.any_older_unfinished_ctrl(0, 1, 0));
    }

    #[test]
    fn forwarding_chain_finds_youngest_older_store() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        let store = |tags: &mut TagAllocator| {
            StagedEntry::new(
                tags.alloc().unwrap(),
                0,
                DecodedInsn::new(Instruction::store(Reg::new(3), Reg::new(2), 0)),
            )
        };
        // Two completed stores to the same address, then the load's block.
        for (v, bi) in [(10u64, 0usize), (20, 1)] {
            su.push_block(0, &[store(&mut tags)]);
            su.mark_executing(bi, 0, 1);
            su.set_mem_addr(bi, 0, 64);
            su.set_result(bi, 0, v);
            su.mark_done(bi, 0);
            su.fwd_insert(bi, 0);
        }
        su.push_block(0, &[staged(&mut tags, 4)]);
        let lbid = su.block_id(2);
        assert_eq!(
            su.forward_resident(0, lbid, 0, 64),
            Some(20),
            "youngest older store wins"
        );
        assert_eq!(su.forward_resident(0, lbid, 0, 128), None, "address filter");
        // A load older than both stores cannot take either.
        assert_eq!(su.forward_resident(0, su.block_id(0), 0, 64), None);
        // Cross-thread: visible only while non-speculative (no unfinished
        // older control transfer in the store's thread — trivially true).
        assert_eq!(su.forward_resident(1, 0, 0, 64), Some(20));
        // Squashing the younger store unlinks it from the chain.
        su.squash_after(0, 0, 0);
        assert_eq!(su.forward_resident(1, 0, 0, 64), Some(10));
    }

    #[test]
    fn bottom_block_status_reports_commit_failure() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        assert_eq!(su.bottom_block_status(), None);
        su.push_block(2, &[staged(&mut tags, 3)]);
        assert_eq!(su.bottom_block_status(), Some((2, true)));
        su.mark_executing(0, 0, 1);
        su.mark_done(0, 0);
        assert_eq!(su.bottom_block_status(), Some((2, false)));
    }

    #[test]
    fn fault_flag_tracks_set_and_partial_squash() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(8, 4);
        su.push_block(0, &[staged(&mut tags, 3), staged(&mut tags, 4)]);
        assert!(!su.block_has_fault(0));
        su.set_fault(0, 1, smt_mem::MemError::Unaligned { addr: 3 });
        assert!(su.block_has_fault(0));
        // Squashing away the faulted entry must clear the flag …
        su.squash_after(0, 0, 0);
        assert!(!su.block_has_fault(0));
        // … and a squash that keeps the faulted entry must preserve it.
        su.set_fault(0, 0, smt_mem::MemError::Unaligned { addr: 3 });
        su.push_block(0, &[staged(&mut tags, 5)]);
        su.squash_after(0, 0, 0);
        assert!(su.block_has_fault(0));
        assert_eq!(su.num_blocks(), 1);
    }

    #[test]
    fn staging_handles_match_pushed_block() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(4, 4);
        let h0 = su.staging_handle(0);
        let h1 = su.staging_handle(1);
        let producer = staged(&mut tags, 5);
        let ptag = producer.tag;
        let mut consumer = staged(&mut tags, 6);
        consumer.ops[0] = Operand::Waiting { tag: ptag };
        consumer.wait_src[0] = h0;
        su.push_block(0, &[producer, consumer]);
        assert_ne!(h0, h1);
        // In-group dependency: broadcasting the producer wakes the
        // consumer staged against its in-group handle.
        su.broadcast(0, 0, 55, 2);
        assert_eq!(
            su.ops_at(0, 1)[0],
            Operand::Ready {
                value: 55,
                since: 2
            }
        );
    }

    #[test]
    fn rows_are_recycled_without_aliasing() {
        let mut tags = TagAllocator::new(256);
        let mut su = SchedulingUnit::new(2, 4);
        for _ in 0..10 {
            push_done(&mut su, 0, staged(&mut tags, 3), 1);
            su.free_block(0);
        }
        assert!(su.is_empty());
        assert_eq!(su.num_entries(), 0);
        // Ids keep growing across row reuse.
        su.push_block(0, &[staged(&mut tags, 3)]);
        assert_eq!(su.block_id(0), 10);
    }

    #[test]
    #[should_panic(expected = "block of 5 entries")]
    fn oversized_block_rejected() {
        let mut tags = TagAllocator::new(64);
        let mut su = SchedulingUnit::new(2, 4);
        let es: Vec<StagedEntry> = (0..5).map(|_| staged(&mut tags, 3)).collect();
        su.push_block(0, &es);
    }
}
