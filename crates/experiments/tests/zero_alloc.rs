//! Steady-state stepping must never touch the heap: every queue, slab,
//! and scratch buffer is pre-sized from `SimConfig` at construction (or
//! grown to its high-water mark during the first few hundred cycles) and
//! reused thereafter. A counting global allocator proves it — this lives
//! in its own integration-test binary because `#[global_allocator]` is
//! process-wide. The tests run on parallel threads, so the allocator
//! counts only on a thread that has armed it: one test's setup never
//! lands inside another's measurement window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smt_core::{SimConfig, Simulator};
use smt_workloads::{workload, Scale, WorkloadKind};

/// Counts allocation events (alloc + realloc); frees are not interesting
/// — a free implies a matching earlier allocation.
struct CountingAlloc;

thread_local! {
    /// Whether this thread's allocations are being counted, and how many
    /// were. Const-initialized without destructors, so touching them
    /// from inside the allocator never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if ARMED.with(Cell::get) {
        ALLOCS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation events across `cycles` steps of a warmed-up simulation.
fn steady_state_allocs(kind: WorkloadKind, warmup: u64, cycles: u64) -> u64 {
    let program = workload(kind, Scale::Paper).build(4).expect("kernel fits");
    let mut sim = Simulator::new(SimConfig::default(), &program);
    for _ in 0..warmup {
        assert!(!sim.finished(), "workload too short to reach steady state");
        sim.step().expect("steps");
    }
    let before = ALLOCS.with(Cell::get);
    ARMED.with(|a| a.set(true));
    for _ in 0..cycles {
        assert!(!sim.finished(), "workload too short to hold steady state");
        sim.step().expect("steps");
    }
    ARMED.with(|a| a.set(false));
    let n = ALLOCS.with(Cell::get) - before;
    println!("{kind:?}: {n} allocation events across {cycles} steady-state cycles");
    n
}

#[test]
fn matrix_steady_state_makes_no_heap_allocations() {
    assert_eq!(steady_state_allocs(WorkloadKind::Matrix, 2_000, 10_000), 0);
}

#[test]
fn ll7_steady_state_makes_no_heap_allocations() {
    // Recorded for the record alongside Matrix: LL7's recurrence chains
    // drive different queue high-water marks, and it too settles to zero.
    // (The whole paper-scale run is 9063 cycles, so the window is smaller.)
    assert_eq!(steady_state_allocs(WorkloadKind::Ll7, 2_000, 5_000), 0);
}
