//! Internal debugging aid: run a workload with tracing attached and, if it
//! fails to finish, dump the machine state *plus* the last-K-cycle
//! instruction lifecycles, the occupancy telemetry, and the CPI stack —
//! enough to see what the machine was doing when it wedged, not just where
//! it stopped.
//!
//! ```text
//! debug_stuck [workload, default sieve] [threads] [--cycles N] [--last K]
//! ```

use smt_core::{Observers, SimConfig, Simulator};
use smt_trace::Tracer;
use smt_workloads::{workload, Scale, WorkloadKind};

fn flag_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let kind = args
        .first()
        .and_then(|s| s.parse().ok())
        .unwrap_or(WorkloadKind::Sieve);
    let threads: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(6);
    let max_cycles = flag_value(&args, "--cycles").unwrap_or(200_000);
    let last_k = flag_value(&args, "--last").unwrap_or(64) as usize;

    let w = workload(kind, Scale::Test);
    let program = w.build(threads).unwrap();
    let config = SimConfig::default().with_threads(threads);
    // The ring keeps the youngest records, so a stuck run leaves exactly
    // the lifecycle window leading up to the wedge.
    let mut tracer = Tracer::new(config.trace_shape(), last_k);
    let mut sim = Simulator::new(config, &program);
    for _ in 0..max_cycles {
        if sim.finished() {
            println!("finished at cycle {}", sim.cycle());
            println!("{}", tracer.occupancy.render());
            println!("{}", tracer.into_breakdown().render());
            return;
        }
        sim.step_with(Observers::trace(&mut tracer)).unwrap();
    }
    println!("STUCK at cycle {}:\n{}", sim.cycle(), sim.dump());
    println!(
        "last {} decoded instructions:\n{}",
        tracer.lifecycle.records().len(),
        tracer.lifecycle.render()
    );
    println!("{}", tracer.occupancy.render());
    println!("{}", tracer.into_breakdown().render());
}
