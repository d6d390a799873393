//! Differential fuzzer: constrained-random programs, every front end,
//! every thread count, checked instruction-by-instruction against the
//! functional reference by the lockstep oracle.
//!
//! Each seed generates one program [`Plan`]; the plan is lowered per thread
//! count and verified under every [`FRONTENDS`] point — all four fetch
//! policies, every predictor family, and the two-port/wide-fetch shapes.
//! Each seed also drives a heterogeneous column: a [`MixPlan`] of 2 and 4
//! *different* generated programs, one per thread, verified per thread
//! against solo reference runs under [`MIX_FRONTENDS`].
//! Any divergence is greedily minimized (segments are masked off while the
//! failure reproduces — for mixes, across the concatenated per-thread
//! masks) and reported as a `(seed, mask)` pair that regenerates the exact
//! failing program(s) — then the process exits nonzero.
//!
//! ```text
//! cargo run --release -p smt-experiments --bin fuzz                    # 200 seeds
//! cargo run --release -p smt-experiments --bin fuzz -- --seeds 500
//! cargo run --release -p smt-experiments --bin fuzz -- --start-seed 1000 --seeds 100
//! cargo run --release -p smt-experiments --bin fuzz -- --workers 4
//! cargo run --release -p smt-experiments --bin fuzz -- --trace-on-divergence
//! cargo run --release -p smt-experiments --bin fuzz -- --checkpoint-every 50
//! ```
//!
//! With `--checkpoint-every N`, every verification interrupts the machine
//! each N cycles, round-trips it through the snapshot wire format, and
//! resumes the restored copy — so each random program also exercises
//! checkpoint/restore, and a splice that perturbs the commit stream is a
//! divergence like any other.
//!
//! With `--trace-on-divergence`, each minimized failure is re-run with a
//! windowed lifecycle recorder and the report gains the per-instruction
//! fetch/decode/issue/writeback/retire timeline around the diverging
//! cycle — the pipeline's view of the bug, not just its first symptom.

use std::fmt;
use std::time::Instant;

use smt_core::{FetchPolicy, Observers, PredictorKind, SimConfig, Simulator, ThreadPrograms};
use smt_experiments::flag_value;
use smt_experiments::sweep::par_map;
use smt_isa::builder::BuildError;
use smt_isa::Program;
use smt_oracle::{verify, verify_with_checkpoints, Divergence, Report};
use smt_testkit::progen::{GenConfig, MixPlan, Plan};
use smt_testkit::shrink;
use smt_trace::Tracer;

/// One front-end shape: fetch policy × predictor family × ports × width.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FrontEnd {
    policy: FetchPolicy,
    predictor: PredictorKind,
    fetch_threads: usize,
    fetch_width: usize,
}

impl fmt::Display for FrontEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} ports={} width={}",
            self.policy, self.predictor, self.fetch_threads, self.fetch_width
        )
    }
}

const fn fe(
    policy: FetchPolicy,
    predictor: PredictorKind,
    fetch_threads: usize,
    fetch_width: usize,
) -> FrontEnd {
    FrontEnd {
        policy,
        predictor,
        fetch_threads,
        fetch_width,
    }
}

/// The verified front ends: the three original single-port policies, the
/// ICOUNT policy, each alternative predictor family, and the two-port /
/// 8-wide shapes (which also cross the families).
const FRONTENDS: [FrontEnd; 8] = [
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    fe(
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        1,
        4,
    ),
    fe(FetchPolicy::Icount, PredictorKind::SharedBtb, 1, 4),
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::Gshare, 1, 4),
    fe(
        FetchPolicy::TrueRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    fe(FetchPolicy::Icount, PredictorKind::Gshare, 2, 8),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::PartitionedBtb,
        2,
        8,
    ),
];
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Front ends for the heterogeneous-mix column: every fetch policy
/// appears once, crossed with varied predictor families and one two-port
/// / 8-wide shape, at a quarter of the homogeneous matrix's cost.
const MIX_FRONTENDS: [FrontEnd; 4] = [
    fe(FetchPolicy::TrueRoundRobin, PredictorKind::SharedBtb, 1, 4),
    fe(FetchPolicy::Icount, PredictorKind::Gshare, 1, 4),
    fe(
        FetchPolicy::MaskedRoundRobin,
        PredictorKind::PartitionedBtb,
        1,
        4,
    ),
    fe(
        FetchPolicy::ConditionalSwitch,
        PredictorKind::SharedBtb,
        2,
        8,
    ),
];

/// Thread counts for the mix column: a mix of `t` programs only exists at
/// `t` threads, and one thread is the homogeneous case.
const MIX_THREADS: [usize; 2] = [2, 4];

/// Generous for generated programs (thousands of cycles each), tight
/// enough that a livelocked machine fails fast as a harness divergence.
const FUZZ_MAX_CYCLES: u64 = 2_000_000;

fn config(frontend: FrontEnd, threads: usize) -> SimConfig {
    SimConfig::default()
        .with_threads(threads)
        .with_fetch_policy(frontend.policy)
        .with_predictor(frontend.predictor)
        // A machine cannot have more fetch ports than resident threads;
        // clamping keeps the two-port shapes verifiable at one thread.
        .with_fetch_threads(frontend.fetch_threads.min(threads))
        .with_fetch_width(frontend.fetch_width)
        .with_max_cycles(FUZZ_MAX_CYCLES)
}

/// One divergence, fully reproducible from the fields.
struct Failure {
    seed: u64,
    frontend: FrontEnd,
    threads: usize,
    report: String,
}

/// Cycles either side of the divergence covered by the lifecycle window.
const TRACE_SPAN: u64 = 32;

/// Re-runs `programs` with a lifecycle recorder windowed around the
/// diverging cycle and renders the captured timeline. The rerun may end in
/// a fault or hang (that can be the divergence itself); the window is
/// whatever was recorded up to that point.
fn lifecycle_window<'p>(
    programs: impl Into<ThreadPrograms<'p>>,
    frontend: FrontEnd,
    threads: usize,
    cycle: u64,
) -> String {
    let cfg = config(frontend, threads);
    let (start, end) = (cycle.saturating_sub(TRACE_SPAN), cycle + TRACE_SPAN);
    let cap = usize::try_from((end - start + 1) * cfg.block_size as u64).unwrap_or(4096);
    let mut tracer = Tracer::new(cfg.trace_shape(), cap).with_window(start, end);
    let mut sim = match Simulator::try_new(cfg, programs) {
        Ok(sim) => sim,
        Err(e) => return format!("(no lifecycle window: rebuild failed: {e})\n"),
    };
    let outcome = sim.run_with(Observers::trace(&mut tracer));
    let mut out = format!("lifecycle window, instructions decoded in cycles {start}..={end}:\n");
    out.push_str(&tracer.lifecycle.render());
    if let Err(e) = outcome {
        out.push_str(&format!("(traced rerun ended early: {e})\n"));
    }
    out
}

/// Runs the oracle, optionally splicing a snapshot round-trip into the
/// machine every `checkpoint_every` cycles.
fn run_verify<'p>(
    programs: impl Into<ThreadPrograms<'p>>,
    cfg: SimConfig,
    checkpoint_every: Option<u64>,
) -> Result<Report, Box<Divergence>> {
    match checkpoint_every {
        Some(every) => verify_with_checkpoints(programs, cfg, every),
        None => verify(programs, cfg),
    }
}

/// A generated workload the fuzzer verifies and shrinks: a [`Plan`]
/// lowered for a thread count (one tenant on every thread) or a
/// [`MixPlan`] (one tenant per thread). Either lowers a `(seed, mask)`
/// pair to the program(s) a machine runs, so one minimizer and one
/// report serve both.
trait Subject {
    /// The generating seed.
    fn seed(&self) -> u64;
    /// Hardware threads the program(s) run on.
    fn threads(&self) -> usize;
    /// Independently removable segments, across every program.
    fn mask_len(&self) -> usize;
    /// The program(s) under an enabled mask, pure in `(seed, mask)`.
    fn lower(&self, mask: &[bool]) -> Result<Vec<Program>, BuildError>;
    /// The enabled segments, for the report.
    fn describe(&self, mask: &[bool]) -> String;
    /// The call that rebuilds the program(s) from the printed mask.
    fn repro(&self) -> String;
}

/// One generated program every thread runs.
struct Spmd<'a> {
    plan: &'a Plan,
    threads: usize,
}

impl Subject for Spmd<'_> {
    fn seed(&self) -> u64 {
        self.plan.seed
    }
    fn threads(&self) -> usize {
        self.threads
    }
    fn mask_len(&self) -> usize {
        self.plan.mask_len()
    }
    fn lower(&self, mask: &[bool]) -> Result<Vec<Program>, BuildError> {
        self.plan.build(mask, self.threads).map(|p| vec![p])
    }
    fn describe(&self, mask: &[bool]) -> String {
        self.plan.describe(mask)
    }
    fn repro(&self) -> String {
        format!(
            "Plan::generate({}, &GenConfig::default()).build(&mask, {})",
            self.plan.seed, self.threads
        )
    }
}

/// Masks concatenate across the slots, so segments vanish from every
/// thread's program at once until only the interacting parts remain.
impl Subject for MixPlan {
    fn seed(&self) -> u64 {
        self.seed
    }
    fn threads(&self) -> usize {
        self.plans.len()
    }
    fn mask_len(&self) -> usize {
        MixPlan::mask_len(self)
    }
    fn lower(&self, mask: &[bool]) -> Result<Vec<Program>, BuildError> {
        self.build(mask)
    }
    fn describe(&self, mask: &[bool]) -> String {
        MixPlan::describe(self, mask)
    }
    fn repro(&self) -> String {
        format!(
            "MixPlan::generate({}, {}, &GenConfig::default()).build(&mask)",
            self.seed,
            self.plans.len()
        )
    }
}

/// Verifies one seed: its plan at every thread count under every
/// [`FRONTENDS`] point, then its 2- and 4-program mixes under every
/// [`MIX_FRONTENDS`] point. Returns the number of verifications done and
/// the first failure, minimized.
fn fuzz_seed(
    seed: u64,
    gen_cfg: &GenConfig,
    trace: bool,
    checkpoint_every: Option<u64>,
) -> (u64, Option<Failure>) {
    let plan = Plan::generate(seed, gen_cfg);
    let spmd = THREAD_COUNTS.map(|threads| Spmd {
        plan: &plan,
        threads,
    });
    let mixes = MIX_THREADS.map(|threads| MixPlan::generate(seed, threads, gen_cfg));
    let columns = spmd
        .iter()
        .map(|s| (s as &dyn Subject, &FRONTENDS[..]))
        .chain(
            mixes
                .iter()
                .map(|m| (m as &dyn Subject, &MIX_FRONTENDS[..])),
        );
    let mut runs = 0;
    for (subject, frontends) in columns {
        let programs = subject
            .lower(&vec![true; subject.mask_len()])
            .unwrap_or_else(|e| panic!("{} must lower: {e}", subject.repro()));
        for &frontend in frontends {
            runs += 1;
            let cfg = config(frontend, subject.threads());
            if let Err(d) = run_verify(&programs[..], cfg.clone(), checkpoint_every) {
                // Minimize under the same verifier that failed: a
                // checkpoint-specific bug would vanish under the plain one.
                let fails = |_: &[bool], ps: &[Program]| {
                    run_verify(ps, cfg.clone(), checkpoint_every).err()
                };
                return (runs, Some(minimize(subject, frontend, &d, trace, fails)));
            }
        }
    }
    (runs, None)
}

/// Shrinks a failing subject to a mask under which `fails` (given the
/// mask and its lowering) still reports a divergence, and formats the
/// repro report.
fn minimize(
    subject: &dyn Subject,
    frontend: FrontEnd,
    original: &Divergence,
    trace: bool,
    fails: impl Fn(&[bool], &[Program]) -> Option<Box<Divergence>>,
) -> Failure {
    let mask = shrink::minimize(subject.mask_len(), |mask| {
        subject
            .lower(mask)
            .is_ok_and(|ps| fails(mask, &ps).is_some())
    });
    let minimized = subject
        .lower(&mask)
        .expect("minimizer only keeps buildable masks");
    // The minimizer's last accepted mask failed moments ago; a pass here
    // would mean nondeterminism, which is itself worth reporting loudly.
    let divergence = fails(&mask, &minimized).map_or_else(|| original.clone(), |d| *d);
    let (seed, threads) = (subject.seed(), subject.threads());
    let window = if trace {
        lifecycle_window(&minimized[..], frontend, threads, divergence.cycle)
    } else {
        String::new()
    };
    let report = format!(
        "seed {seed} diverges under {frontend} with {threads} thread(s)\n\
         minimized mask: {mask_bits}  ({desc})\n\
         repro: {repro}\n\
         {divergence}\n{listing}{window}",
        mask_bits = mask
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect::<String>(),
        desc = subject.describe(&mask),
        repro = subject.repro(),
        listing = listing(&minimized),
    );
    Failure {
        seed,
        frontend,
        threads,
        report,
    }
}

/// The disassembly of every program, one block per tenant.
fn listing(programs: &[Program]) -> String {
    let mut out = String::new();
    for (tenant, p) in programs.iter().enumerate() {
        out.push_str(&format!(
            "  tenant {tenant} program ({} instructions):\n",
            p.text().len()
        ));
        for (pc, insn) in p.text().iter().enumerate() {
            out.push_str(&format!("    {pc:4}: {insn}\n"));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds: u64 =
        flag_value(&args, "--seeds").map_or(200, |v| v.parse().expect("--seeds takes a count"));
    let start: u64 = flag_value(&args, "--start-seed")
        .map_or(0, |v| v.parse().expect("--start-seed takes a seed"));
    let workers: usize = flag_value(&args, "--workers").map_or_else(
        || {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        },
        |v| v.parse().expect("--workers takes a positive integer"),
    );
    let workers = workers.clamp(1, seeds.max(1) as usize);
    let trace = args.iter().any(|a| a == "--trace-on-divergence");
    let checkpoint_every: Option<u64> = flag_value(&args, "--checkpoint-every").map(|v| {
        let n = v.parse().expect("--checkpoint-every takes a cycle count");
        assert!(n > 0, "--checkpoint-every takes a positive cycle count");
        n
    });
    let gen_cfg = GenConfig::default();

    let began = Instant::now();
    let seed_list: Vec<u64> = (start..start + seeds).collect();
    let per_seed = par_map(&seed_list, workers, |&seed| {
        fuzz_seed(seed, &gen_cfg, trace, checkpoint_every)
    });
    let elapsed = began.elapsed();

    let total_runs: u64 = per_seed.iter().map(|(r, _)| r).sum();
    let failures: Vec<Failure> = per_seed.into_iter().filter_map(|(_, f)| f).collect();

    let secs = elapsed.as_secs_f64();
    let splices = checkpoint_every.map_or(String::new(), |n| {
        format!(", snapshot round-trip every {n} cycles")
    });
    println!(
        "fuzz: {total_runs} verifications over {seeds} seeds x {} front ends x {:?} threads \
         (+ mixes: {} front ends x {:?} slots) \
         in {secs:.1}s ({:.0} programs/sec, {workers} workers{splices})",
        FRONTENDS.len(),
        THREAD_COUNTS,
        MIX_FRONTENDS.len(),
        MIX_THREADS,
        f64::from(u32::try_from(total_runs).unwrap_or(u32::MAX)) / secs.max(1e-9),
    );
    if failures.is_empty() {
        println!("fuzz: no divergences");
        return;
    }
    for f in &failures {
        eprintln!(
            "\n=== FAILURE: seed {} / {} / {} thread(s) ===\n{}",
            f.seed, f.frontend, f.threads, f.report
        );
    }
    eprintln!("fuzz: {} diverging seed(s)", failures.len());
    std::process::exit(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_oracle::DivergenceKind;

    /// Plants the failure "diverges while segment `k` is enabled": the
    /// minimizer must shrink `subject` to exactly that segment, print the
    /// subject's repro call, and print a mask that `rebuild` (the repro
    /// call) turns into the printed program(s).
    fn shrinks_to_planted_segment(
        subject: &dyn Subject,
        k: usize,
        rebuild: impl Fn(&[bool]) -> Vec<Program>,
    ) {
        let planted = Divergence {
            seqno: 0,
            cycle: 0,
            block: 0,
            tid: 0,
            pc: 0,
            disasm: String::new(),
            kind: DivergenceKind::Harness("planted".into()),
        };
        let fails = |mask: &[bool], _: &[Program]| mask[k].then(|| Box::new(planted.clone()));
        let report = minimize(subject, FRONTENDS[0], &planted, false, fails).report;

        let mut only_k = vec![false; subject.mask_len()];
        only_k[k] = true;
        let printed: Vec<bool> = report
            .lines()
            .find_map(|l| l.strip_prefix("minimized mask: "))
            .and_then(|rest| rest.split_whitespace().next())
            .expect("report prints the mask")
            .chars()
            .map(|c| c == '1')
            .collect();
        assert_eq!(printed, only_k, "{report}");
        assert!(
            report.contains(&format!("repro: {}\n", subject.repro())),
            "{report}"
        );
        assert!(report.contains("harness: planted"), "{report}");
        assert!(report.contains(&listing(&rebuild(&printed))), "{report}");
    }

    #[test]
    fn minimizer_shrinks_a_plan_to_the_planted_segment() {
        let plan = Plan::generate(7, &GenConfig::default());
        let subject = Spmd {
            plan: &plan,
            threads: 2,
        };
        shrinks_to_planted_segment(&subject, 1, |mask| {
            vec![Plan::generate(7, &GenConfig::default())
                .build(mask, 2)
                .unwrap()]
        });
    }

    #[test]
    fn minimizer_shrinks_a_mix_to_the_planted_segment() {
        let mix = MixPlan::generate(7, 2, &GenConfig::default());
        // A segment of thread 1's program, past thread 0's mask.
        let k = mix.plans[0].mask_len() + 1;
        shrinks_to_planted_segment(&mix, k, |mask| {
            MixPlan::generate(7, 2, &GenConfig::default())
                .build(mask)
                .unwrap()
        });
    }
}
