//! Memoizing simulation runner used by the figure generators.
//!
//! The paper's figures share many configuration points (the 4-thread
//! True-RR default appears in nearly every one), so the runner memoizes
//! each demanded [`Job`]. It is a thin memo over the sweep engine's
//! executor pieces: kernels come from the shared program memo, prewarming
//! runs on the one worker pool ([`par_map`]), and every run goes through
//! the same run-and-verify loop as a sweep cell before it is memoized — a
//! figure can never be generated from a wrong-answer simulation.
//!
//! # Record, prewarm, generate
//!
//! The `report` binary renders in three steps:
//!
//! 1. **Record** — run every generator against a [`Runner::recorder`],
//!    which executes nothing and instead collects the demanded [`Job`]s
//!    (placeholder results keep the generators' arithmetic well-defined);
//! 2. **Prewarm** — [`Runner::prewarm`] deduplicates the jobs and runs
//!    them on the worker pool, merging the verified results into the memo;
//! 3. **Generate** — rerun the generators against the warmed runner.
//!    Every lookup hits the memo, so the emitted tables are byte-identical
//!    to a lazily demanded run (simulations are deterministic) at any
//!    worker count.

use std::collections::{HashMap, HashSet};

use smt_core::{CommitPolicy, FetchPolicy, SimConfig, SimStats, Simulator};
use smt_mem::CacheKind;
use smt_trace::{CpiBreakdown, SlotCause};
use smt_uarch::FuConfig;
use smt_workloads::{Scale, WorkloadKind};

use crate::sweep::{par_map, Programs, WorkSpec};

/// The dimensions the paper sweeps, as a hashable cache key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct RunKey {
    /// Benchmark.
    pub kind: WorkloadKind,
    /// Resident threads.
    pub threads: usize,
    /// Fetch policy.
    pub fetch: FetchPolicy,
    /// Commit policy.
    pub commit: CommitPolicy,
    /// Cache organization.
    pub cache: CacheKind,
    /// Scheduling-unit depth in entries.
    pub su_depth: usize,
    /// Whether the enhanced ("++") functional-unit complement is used.
    pub enhanced_fu: bool,
}

impl RunKey {
    /// The paper's default configuration point for `kind`: 4 threads,
    /// True Round Robin, flexible commit, 4-way cache, 32-entry SU,
    /// default functional units.
    #[must_use]
    pub fn default_point(kind: WorkloadKind) -> Self {
        RunKey {
            kind,
            threads: 4,
            fetch: FetchPolicy::TrueRoundRobin,
            commit: CommitPolicy::Flexible,
            cache: CacheKind::SetAssociative,
            su_depth: 32,
            enhanced_fu: false,
        }
    }

    /// The single-threaded base case of the same benchmark.
    #[must_use]
    pub fn base_case(kind: WorkloadKind) -> Self {
        RunKey {
            threads: 1,
            ..Self::default_point(kind)
        }
    }

    /// Lowers the key to a full simulator configuration.
    #[must_use]
    pub fn to_config(self) -> SimConfig {
        let fu = if self.enhanced_fu {
            FuConfig::paper_enhanced()
        } else {
            FuConfig::paper_default()
        };
        SimConfig::default()
            .with_threads(self.threads)
            .with_fetch_policy(self.fetch)
            .with_commit_policy(self.commit)
            .with_cache_kind(self.cache)
            .with_su_depth(self.su_depth)
            .with_fu(fu)
    }
}

/// One simulation demanded by a figure generator: the memo key, and what
/// the recording pass captures for [`Runner::prewarm`]. Each distinct job
/// is exactly one simulation.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Job {
    /// A sweep point ([`Runner::run`]).
    Key(RunKey),
    /// An arbitrary-configuration run ([`Runner::run_config`]). The
    /// configuration is boxed to keep the enum small next to [`RunKey`].
    Config(WorkloadKind, Box<SimConfig>),
    /// A traced run accumulating the CPI stack ([`Runner::run_cpi`]).
    Cpi(RunKey),
}

/// What one job measured: the run's statistics, plus its CPI stack for
/// [`Job::Cpi`]. Boxed so the memo and the pool's result vectors hold
/// pointers rather than copies of the statistics, which keeps `report`'s
/// peak RSS down.
type Measured = Box<(SimStats, Option<CpiBreakdown>)>;

/// Builds, runs, and verifies one job's simulation through the one run
/// loop ([`Programs::run_and_verify`]), with a CPI stack attached only for
/// [`Job::Cpi`]. Traced runs are cycle-for-cycle identical to untraced
/// ones (the golden tests prove it).
///
/// # Panics
///
/// Panics if the kernel does not lower, the simulation errors, its
/// architectural result fails the workload checker, or a CPI stack misses
/// a slot — a figure must never be built from a broken run.
fn execute(programs: &Programs, job: &Job) -> Measured {
    let (kind, config) = match job {
        Job::Key(key) | Job::Cpi(key) => (key.kind, key.to_config()),
        Job::Config(kind, config) => (*kind, config.as_ref().clone()),
    };
    let work = WorkSpec::uniform(kind);
    let name = format!("{work} under {config:?}");
    let (built, _) = programs.get(&work, config.threads);
    let program = built
        .as_ref()
        .as_ref()
        .unwrap_or_else(|e| panic!("{work} at {} threads: {e}", config.threads));
    let mut sim = Simulator::new(config, &program[..]);
    let cpi = matches!(job, Job::Cpi(_));
    Box::new(programs.run_and_verify(&work, &name, &mut sim, cpi, None, &mut |_| {}))
}

/// The placeholder handed out while recording: one committed slot in one
/// one-wide cycle, so the generators' ratios, speedups and shares stay
/// finite.
fn placeholder() -> Measured {
    let stats = SimStats {
        cycles: 1,
        ..SimStats::default()
    };
    let mut slots = [0u64; SlotCause::COUNT];
    slots[SlotCause::Committed.index()] = 1;
    let breakdown = CpiBreakdown {
        width: 1,
        cycles: 1,
        committed: 1,
        slots,
    };
    Box::new((stats, Some(breakdown)))
}

/// Memoizing, self-verifying runner.
pub struct Runner {
    programs: Programs,
    memo: HashMap<Job, Measured>,
    runs: u64,
    sim_cycles: u64,
    recording: Option<Vec<Job>>,
}

impl Runner {
    /// Creates a runner at the given problem scale.
    #[must_use]
    pub fn new(scale: Scale) -> Self {
        Runner {
            programs: Programs::new(scale, None),
            memo: HashMap::new(),
            runs: 0,
            sim_cycles: 0,
            recording: None,
        }
    }

    /// Creates a *recording* runner: every run executes nothing, returns
    /// a placeholder, and logs the demanded [`Job`] for
    /// [`Runner::into_recorded`].
    #[must_use]
    pub fn recorder(scale: Scale) -> Self {
        Runner {
            recording: Some(Vec::new()),
            ..Self::new(scale)
        }
    }

    /// The jobs demanded of a [`Runner::recorder`], in demand order
    /// (with duplicates; [`Runner::prewarm`] deduplicates).
    #[must_use]
    pub fn into_recorded(self) -> Vec<Job> {
        self.recording.unwrap_or_default()
    }

    /// Number of actual (non-memoized) simulations performed.
    #[must_use]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Total simulated cycles across all actual runs (for throughput
    /// reporting).
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.sim_cycles
    }

    /// Number of distinct `(kind, threads)` kernels built so far — every
    /// other run at the same point reuses the shared program.
    #[must_use]
    pub fn programs_built(&self) -> usize {
        self.programs.len()
    }

    fn memoize(&mut self, job: Job, measured: Measured) {
        self.runs += 1;
        self.sim_cycles += measured.0.cycles;
        self.memo.insert(job, measured);
    }

    /// Runs the deduplicated `jobs` not yet memoized on `workers` pool
    /// threads and merges the verified results into the memo. Later
    /// demands for these jobs are memo hits, so a generation pass after a
    /// prewarm emits exactly what a lazy pass would.
    ///
    /// # Panics
    ///
    /// Panics if any simulation errors or fails verification.
    pub fn prewarm(&mut self, jobs: &[Job], workers: usize) {
        let mut seen = HashSet::new();
        let pending: Vec<&Job> = jobs
            .iter()
            .filter(|job| !self.memo.contains_key(*job) && seen.insert(*job))
            .collect();
        let programs = &self.programs;
        let measured = par_map(&pending, workers, |job| execute(programs, job));
        for (job, m) in pending.into_iter().zip(measured) {
            self.memoize(job.clone(), m);
        }
    }

    /// The one demand path: records `job` when recording, else recalls
    /// or executes and memoizes it.
    fn demand(&mut self, job: Job) -> Measured {
        if let Some(jobs) = &mut self.recording {
            jobs.push(job);
            return placeholder();
        }
        if let Some(hit) = self.memo.get(&job) {
            return hit.clone();
        }
        let measured = execute(&self.programs, &job);
        self.memoize(job, measured.clone());
        measured
    }

    /// Runs (or recalls) the simulation at `key`.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors or its architectural result fails the
    /// workload checker — a figure must never be built from a broken run.
    pub fn run(&mut self, key: RunKey) -> SimStats {
        self.demand(Job::Key(key)).0
    }

    /// Cycles at `key` (convenience).
    pub fn cycles(&mut self, key: RunKey) -> u64 {
        self.run(key).cycles
    }

    /// Runs (or recalls) the simulation at `key` with a [`CpiStack`]
    /// attached, returning the slot-bandwidth attribution. Memoized apart
    /// from [`Runner::run`] at the same key: each is its own job.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors, fails verification, or the stack
    /// does not sum to `block_size × cycles`.
    pub fn run_cpi(&mut self, key: RunKey) -> CpiBreakdown {
        self.demand(Job::Cpi(key))
            .1
            .expect("a CPI job measures its stack")
    }

    /// Runs a benchmark under an arbitrary configuration (for the ablation
    /// and extension tables whose knobs lie outside [`RunKey`]). Memoized
    /// on the full configuration and verified like every other run.
    ///
    /// # Panics
    ///
    /// Panics if the simulation errors or fails its result check.
    pub fn run_config(&mut self, kind: WorkloadKind, config: SimConfig) -> SimStats {
        self.demand(Job::Config(kind, Box::new(config))).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_isa::FuClass;

    #[test]
    fn memoization_avoids_reruns() {
        let mut r = Runner::new(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let first = r.run(key);
        let again = r.run(key);
        assert_eq!(first.cycles, again.cycles);
        assert_eq!(r.runs(), 1);
    }

    #[test]
    fn programs_are_built_once_per_kind_and_thread_count() {
        let mut r = Runner::new(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let masked = RunKey {
            fetch: FetchPolicy::MaskedRoundRobin,
            ..key
        };
        let base = RunKey::base_case(WorkloadKind::Sieve);
        let a = r.run(key);
        let b = r.run(masked);
        let c = r.run(base);
        assert_eq!(r.runs(), 3);
        assert_eq!(
            r.programs_built(),
            2,
            "two sweep points at 4 threads share one built kernel"
        );
        assert!(a.cycles > 0 && b.cycles > 0 && c.cycles > 0);
    }

    #[test]
    fn default_and_base_points_differ_only_in_threads() {
        let d = RunKey::default_point(WorkloadKind::Ll1);
        let b = RunKey::base_case(WorkloadKind::Ll1);
        assert_eq!(d.threads, 4);
        assert_eq!(b.threads, 1);
        assert_eq!(d.fetch, b.fetch);
        assert_eq!(d.su_depth, b.su_depth);
    }

    #[test]
    fn key_lowers_to_validated_config() {
        let key = RunKey {
            kind: WorkloadKind::Matrix,
            threads: 6,
            fetch: FetchPolicy::ConditionalSwitch,
            commit: CommitPolicy::LowestOnly,
            cache: CacheKind::DirectMapped,
            su_depth: 48,
            enhanced_fu: true,
        };
        let cfg = key.to_config();
        cfg.validate().unwrap();
        assert_eq!(cfg.threads, 6);
        assert_eq!(cfg.cache.ways, 1);
        assert_eq!(cfg.fu.class(FuClass::Alu).count, 6);
    }

    #[test]
    fn recorder_collects_jobs_without_running() {
        let mut r = Runner::recorder(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let out = r.run(key);
        assert_eq!(out.cycles, 1, "recording returns a dummy outcome");
        let cfg = key.to_config().with_bypass(false);
        r.run_config(WorkloadKind::Sieve, cfg.clone());
        assert_eq!(r.runs(), 0);
        let jobs = r.into_recorded();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0], Job::Key(key));
        assert_eq!(jobs[1], Job::Config(WorkloadKind::Sieve, Box::new(cfg)));
    }

    #[test]
    fn prewarm_matches_serial_results() {
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let other = RunKey { threads: 2, ..key };
        let cfg = key.to_config().with_bypass(false);

        let mut serial = Runner::new(Scale::Test);
        let expected = [
            serial.run(key).cycles,
            serial.run(other).cycles,
            serial.run_config(WorkloadKind::Sieve, cfg.clone()).cycles,
        ];

        let mut warmed = Runner::new(Scale::Test);
        let jobs = vec![
            Job::Key(key),
            Job::Key(key), // duplicate: deduplicated before sharding
            Job::Key(other),
            Job::Config(WorkloadKind::Sieve, Box::new(cfg.clone())),
        ];
        warmed.prewarm(&jobs, 3);
        assert_eq!(warmed.runs(), 3, "duplicates are not rerun");
        let runs_after_warm = warmed.runs();
        let got = [
            warmed.run(key).cycles,
            warmed.run(other).cycles,
            warmed.run_config(WorkloadKind::Sieve, cfg).cycles,
        ];
        assert_eq!(got, expected);
        assert_eq!(
            warmed.runs(),
            runs_after_warm,
            "generation pass is all cache hits"
        );
    }

    #[test]
    fn cpi_runs_memoize_and_prewarm() {
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let mut serial = Runner::new(Scale::Test);
        let expected = serial.run_cpi(key);
        let again = serial.run_cpi(key);
        assert_eq!(serial.runs(), 1, "second demand is a cache hit");
        assert_eq!(expected.slots, again.slots);
        assert_eq!(expected.total_slots(), 4 * expected.cycles);

        let mut warmed = Runner::new(Scale::Test);
        warmed.prewarm(&[Job::Cpi(key), Job::Cpi(key)], 2);
        assert_eq!(warmed.runs(), 1, "duplicates are not rerun");
        let got = warmed.run_cpi(key);
        assert_eq!(warmed.runs(), 1, "generation pass is a cache hit");
        assert_eq!(got.slots, expected.slots);
    }

    #[test]
    fn cpi_recording_returns_a_finite_dummy() {
        let mut r = Runner::recorder(Scale::Test);
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let b = r.run_cpi(key);
        assert!(b.cpi().is_finite());
        assert_eq!(r.runs(), 0);
        assert_eq!(r.into_recorded(), vec![Job::Cpi(key)]);
    }

    #[test]
    fn each_job_variant_is_its_own_simulation() {
        let key = RunKey::default_point(WorkloadKind::Sieve);
        let mut r = Runner::new(Scale::Test);
        let cycles = r.run(key).cycles;
        r.run_config(WorkloadKind::Sieve, key.to_config());
        r.run_cpi(key);
        assert_eq!(
            r.runs(),
            3,
            "the same point under three jobs runs three times"
        );
        assert_eq!(r.sim_cycles(), 3 * cycles);
        assert_eq!(r.programs_built(), 1, "all three share one kernel");
    }

    #[test]
    fn run_config_memoizes_on_the_full_configuration() {
        let mut r = Runner::new(Scale::Test);
        let cfg = RunKey::default_point(WorkloadKind::Sieve).to_config();
        let first = r.run_config(WorkloadKind::Sieve, cfg.clone());
        let again = r.run_config(WorkloadKind::Sieve, cfg.clone());
        assert_eq!(first.cycles, again.cycles);
        assert_eq!(r.runs(), 1);
        r.run_config(WorkloadKind::Sieve, cfg.with_bypass(false));
        assert_eq!(r.runs(), 2, "a different configuration is a real run");
    }
}
