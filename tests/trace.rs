//! Observability contract tests.
//!
//! Two properties make `smt-trace` safe to wire through the hot pipeline:
//!
//! 1. **Tracing never perturbs the machine.** A traced run and an untraced
//!    run of the same configuration produce bit-identical `SimStats` — the
//!    committed `tests/goldens/cycle_exact.txt` covers the untraced side,
//!    and this file pins the traced side to it across every workload ×
//!    fetch policy × thread count.
//! 2. **The CPI stack accounts every slot.** After any completed run,
//!    the per-cause slot counts sum to exactly `block_size × cycles`, and
//!    the `committed` cause equals the architectural instruction count.

use smt_superscalar::core::trace::{CpiStack, SlotCause, Tracer};
use smt_superscalar::core::{FetchPolicy, Observers, SimConfig, SimError, Simulator};
use smt_workloads::{workload, Scale, WorkloadKind};

const FETCH: [FetchPolicy; 3] = [
    FetchPolicy::TrueRoundRobin,
    FetchPolicy::MaskedRoundRobin,
    FetchPolicy::ConditionalSwitch,
];
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Every buildable (workload, fetch, threads) point at test scale. An
/// 8-thread partition leaves each thread a 16-register window, which the
/// register-hungry kernels exceed — those points drop out, and the loop
/// proves nothing below 8 threads ever does.
fn sweep(mut f: impl FnMut(WorkloadKind, FetchPolicy, usize, SimConfig, &smt_isa::Program)) {
    let mut skipped = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = workload(kind, Scale::Test);
        for threads in THREADS {
            let program = match w.build(threads) {
                Ok(p) => p,
                Err(_) => {
                    skipped.push((kind, threads));
                    continue;
                }
            };
            for fetch in FETCH {
                let config = SimConfig::default()
                    .with_threads(threads)
                    .with_fetch_policy(fetch);
                f(kind, fetch, threads, config, &program);
            }
        }
    }
    assert!(
        skipped.iter().all(|&(_, threads)| threads == 8),
        "kernels only outgrow the register window at 8 threads: {skipped:?}"
    );
    assert!(
        skipped.len() < WorkloadKind::ALL.len(),
        "some kernels must still build at 8 threads"
    );
    // The same overflow is a *typed* error at the simulator boundary: a
    // kernel built for a roomier partition is refused with
    // `SimError::RegisterWindow` (which the sweep engine records as an
    // infeasible cell), never a panic.
    for &(kind, threads) in &skipped {
        let program = workload(kind, Scale::Test)
            .build(4)
            .expect("the kernel fits a 4-thread partition");
        let err = Simulator::try_new(SimConfig::default().with_threads(threads), &program)
            .expect_err("the 8-thread window cannot hold the kernel");
        assert!(
            matches!(err, SimError::RegisterWindow { threads: 8, .. }),
            "{kind:?}: expected a typed register-window error, got {err:?}"
        );
    }
}

#[test]
fn traced_runs_are_bit_identical_to_untraced() {
    sweep(|kind, fetch, threads, config, program| {
        let untraced = {
            let mut sim = Simulator::new(config.clone(), program);
            sim.run().expect("test-scale runs complete")
        };
        let mut tracer = Tracer::new(config.trace_shape(), 256);
        let mut sim = Simulator::new(config, program);
        let traced = sim
            .run_with(Observers::trace(&mut tracer))
            .expect("traced runs complete");
        assert_eq!(
            untraced, traced,
            "{kind:?}/{fetch:?}/{threads}t: tracing must not perturb the machine"
        );
    });
}

#[test]
fn cpi_stack_sums_to_width_times_cycles() {
    sweep(|kind, fetch, threads, config, program| {
        let width = config.block_size as u64;
        let mut cpi = CpiStack::new(config.block_size as u32);
        let mut sim = Simulator::new(config, program);
        let stats = sim
            .run_with(Observers::trace(&mut cpi))
            .expect("traced runs complete");
        let b = cpi.finish();
        let point = format!("{kind:?}/{fetch:?}/{threads}t");
        assert_eq!(b.cycles, stats.cycles, "{point}: cycle counts agree");
        assert_eq!(
            b.total_slots(),
            width * stats.cycles,
            "{point}: every slot of every cycle is attributed"
        );
        assert_eq!(
            b.committed,
            stats.committed_total(),
            "{point}: committed slots are the architectural instructions"
        );
        assert_eq!(
            b.slot_count(SlotCause::SquashDiscard),
            stats.squashed,
            "{point}: squash slots match the squash counter"
        );
        assert_eq!(
            b.slot_count(SlotCause::InFlight),
            0,
            "{point}: a drained machine leaves nothing in flight"
        );
    });
}

#[test]
fn occupancy_telemetry_samples_every_cycle() {
    let kind = WorkloadKind::Sieve;
    let w = workload(kind, Scale::Test);
    let program = w.build(4).unwrap();
    let config = SimConfig::default().with_threads(4);
    let mut tracer = Tracer::new(config.trace_shape(), 64);
    let mut sim = Simulator::new(config, &program);
    let stats = sim.run_with(Observers::trace(&mut tracer)).unwrap();
    let occ = &tracer.occupancy;
    assert_eq!(occ.su_entries.samples(), stats.cycles);
    assert_eq!(occ.store_buffer.samples(), stats.cycles);
    assert!(
        (occ.su_entries.mean() - stats.avg_su_occupancy()).abs() < 1e-9,
        "telemetry mean equals the simulator's own occupancy average"
    );
    // The 64-record ring kept the tail of a >64-instruction run.
    assert!(tracer.lifecycle.dropped() > 0);
    assert_eq!(tracer.lifecycle.records().len(), 64);
}
