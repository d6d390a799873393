//! Resumable parallel design-space sweep.
//!
//! A [`Grid`] declares the swept dimensions (workload × fetch policy ×
//! thread count × scheduling-unit depth × cache geometry); [`run_sweep`]
//! flattens it into cells and runs them across work-stealing workers. Every
//! finished cell is persisted to a content-addressed on-disk cache keyed by
//! the *identity* of the work — the stable hashes of the lowered
//! configuration and built program plus the code version — so re-running
//! the same sweep over the same directory re-executes only cells that are
//! missing or whose key no longer matches. The cache fails closed: a record
//! whose key or payload does not validate is discarded and its cell re-run.
//!
//! Long simulations additionally checkpoint their machine state every
//! `checkpoint_every` cycles (atomic tmp+rename, like every other write
//! here). A sweep killed mid-cell resumes that cell from its last snapshot;
//! because [`Simulator::restore`] is bit-identical to never having stopped,
//! the merged `results.json` of an interrupted-and-resumed sweep is
//! byte-identical to an uninterrupted one.
//!
//! Cells whose kernel cannot be lowered at a thread count, or whose program
//! names a register outside the shrunken per-thread window
//! ([`SimError::RegisterWindow`]), are recorded as `infeasible` rather than
//! aborting the sweep — the design space legitimately contains such points.
//!
//! Every simulation in the crate — a sweep cell, a served cell, a
//! warm-forked search point, a report figure's run — goes through one
//! loop: `Programs::run_and_verify` steps the machine in
//! [`TICK_QUANTUM`]-cycle quanta, then verifies its architectural answer.
//! Cells add one producer around it ([`Scheduler::run_cell`]): probe the
//! store, check lowering and feasibility, start the machine (restored from
//! `ckpt/`, cold, or forked from a warm snapshot), run, persist.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::{fmt, fs};

use smt_checkpoint::{fnv1a, Reader, Writer};
use smt_core::config::defaults;
use smt_core::{
    config_identity, program_identity, FetchPolicy, Observers, PredictorKind, SimConfig, SimError,
    SimStats, Simulator, Snapshot,
};
use smt_corpus::{Corpus, CorpusWorkload};
use smt_isa::Program;
use smt_mem::CacheKind;
use smt_trace::{CpiBreakdown, CpiStack};
use smt_workloads::{workload, Scale, WorkloadKind};

use crate::json::object_to_json;
use crate::Cell;

/// One program source a cell can run: a built-in benchmark or a named
/// workload of the on-disk corpus ([`SweepOptions::corpus`]).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum WorkRef {
    /// A built-in benchmark.
    Builtin(WorkloadKind),
    /// A corpus workload, by manifest name.
    Corpus(String),
}

impl WorkRef {
    /// Display name: the builtin's canonical name, or the corpus name
    /// (corpus names are already lowercase by manifest rule).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            WorkRef::Builtin(k) => k.name().to_string(),
            WorkRef::Corpus(n) => n.clone(),
        }
    }

    /// The lowercase spelling used inside cell ids.
    #[must_use]
    pub fn id_part(&self) -> String {
        match self {
            WorkRef::Builtin(k) => k.abbrev().to_string(),
            WorkRef::Corpus(n) => n.to_lowercase(),
        }
    }

    /// Parses one name: built-in benchmarks match case-insensitively,
    /// anything else that is a legal corpus identifier is a corpus
    /// reference (resolved against the attached corpus at run time).
    ///
    /// # Errors
    ///
    /// An explanation when `s` is neither.
    pub fn parse(s: &str) -> Result<WorkRef, String> {
        if let Ok(kind) = s.parse::<WorkloadKind>() {
            return Ok(WorkRef::Builtin(kind));
        }
        if smt_corpus::manifest::valid_name(s) {
            return Ok(WorkRef::Corpus(s.to_string()));
        }
        Err(format!(
            "workload {s:?} is neither a built-in benchmark nor a legal corpus name"
        ))
    }
}

impl From<WorkloadKind> for WorkRef {
    fn from(kind: WorkloadKind) -> Self {
        WorkRef::Builtin(kind)
    }
}

/// What a cell runs: one program on every thread (uniform — the
/// homogeneous-multitasking model of the paper), or one program *per*
/// thread (a heterogeneous mix, spelled `a+b` in ids and the serve
/// protocol). A mix's arity must equal the cell's thread count.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct WorkSpec {
    refs: Vec<WorkRef>,
}

impl WorkSpec {
    /// A uniform workload (every thread runs the same program).
    #[must_use]
    pub fn uniform(r: impl Into<WorkRef>) -> Self {
        WorkSpec {
            refs: vec![r.into()],
        }
    }

    /// A named corpus workload, uniform across threads.
    #[must_use]
    pub fn corpus(name: &str) -> Self {
        WorkSpec::uniform(WorkRef::Corpus(name.to_string()))
    }

    /// A heterogeneous per-thread mix. A single-element mix collapses
    /// to the uniform spec (the two are the same machine).
    #[must_use]
    pub fn mix(refs: Vec<WorkRef>) -> Self {
        assert!(!refs.is_empty(), "a work spec needs at least one program");
        WorkSpec { refs }
    }

    /// The per-thread program references (length 1 = uniform).
    #[must_use]
    pub fn refs(&self) -> &[WorkRef] {
        &self.refs
    }

    /// Whether this is a per-thread mix.
    #[must_use]
    pub fn is_mix(&self) -> bool {
        self.refs.len() > 1
    }

    /// Canonical display name: single name, or `'+'`-joined mix.
    #[must_use]
    pub fn name(&self) -> String {
        self.refs
            .iter()
            .map(WorkRef::name)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// The lowercase `'+'`-joined spelling used inside cell ids.
    #[must_use]
    pub fn id_part(&self) -> String {
        self.refs
            .iter()
            .map(WorkRef::id_part)
            .collect::<Vec<_>>()
            .join("+")
    }

    /// Parses `a` or `a+b+c` (the wire spelling of the serve protocol).
    ///
    /// # Errors
    ///
    /// An explanation when any component fails [`WorkRef::parse`].
    pub fn parse(s: &str) -> Result<WorkSpec, String> {
        let refs = s
            .split('+')
            .map(WorkRef::parse)
            .collect::<Result<Vec<_>, _>>()?;
        if refs.is_empty() {
            return Err("empty workload name".into());
        }
        Ok(WorkSpec { refs })
    }
}

impl From<WorkloadKind> for WorkSpec {
    fn from(kind: WorkloadKind) -> Self {
        WorkSpec::uniform(kind)
    }
}

impl fmt::Display for WorkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// The declarative sweep space: the cross product of every field.
#[derive(Clone, Debug)]
pub struct Grid {
    /// Workloads to sweep: built-in benchmarks, corpus kernels, or
    /// per-thread mixes.
    pub workloads: Vec<WorkSpec>,
    /// Fetch policies.
    pub policies: Vec<FetchPolicy>,
    /// Branch-predictor families.
    pub predictors: Vec<PredictorKind>,
    /// Resident thread counts.
    pub threads: Vec<usize>,
    /// Threads fetched per cycle (fetch ports).
    pub fetch_threads: Vec<usize>,
    /// Fetch-block widths in instructions.
    pub fetch_widths: Vec<usize>,
    /// Scheduling-unit depths in entries.
    pub su_depths: Vec<usize>,
    /// Cache organizations.
    pub caches: Vec<CacheKind>,
    /// Speculation-depth limits (0 = unlimited).
    pub spec_depths: Vec<usize>,
}

impl Grid {
    /// Small grid for CI smoke runs: two benchmarks across every policy and
    /// thread count at the default machine point (24 cells, including the
    /// infeasible 8-thread corners if a kernel does not fit the partition).
    #[must_use]
    pub fn smoke() -> Self {
        Grid {
            workloads: vec![WorkloadKind::Sieve.into(), WorkloadKind::Ll3.into()],
            policies: POLICIES.to_vec(),
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![1, 2, 4, 8],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The paper's full evaluation space.
    #[must_use]
    pub fn paper() -> Self {
        Grid {
            workloads: WorkloadKind::ALL.iter().map(|&k| k.into()).collect(),
            policies: POLICIES.to_vec(),
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![1, 2, 4, 6, 8],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![16, 32, 48],
            caches: vec![CacheKind::SetAssociative, CacheKind::DirectMapped],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The front-end design space beyond the paper: every fetch policy
    /// (including ICOUNT), every predictor family, one and two fetch ports,
    /// and 4- vs 8-wide fetch blocks, over the two workloads whose
    /// saturation knee moves the most (Matrix and LL7). Cells with more
    /// fetch ports than resident threads are legitimately infeasible.
    #[must_use]
    pub fn frontend() -> Self {
        Grid {
            workloads: vec![WorkloadKind::Matrix.into(), WorkloadKind::Ll7.into()],
            policies: vec![
                FetchPolicy::TrueRoundRobin,
                FetchPolicy::MaskedRoundRobin,
                FetchPolicy::ConditionalSwitch,
                FetchPolicy::Icount,
            ],
            predictors: PredictorKind::ALL.to_vec(),
            threads: vec![1, 2, 4, 8],
            fetch_threads: vec![1, 2],
            fetch_widths: vec![4, 8],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// The heterogeneous-mix study: two corpus kernels solo (for the
    /// interference baselines), two 2-program mixes pairing a cache-hungry
    /// streamer with a compute-bound kernel, and one 4-program mix —
    /// each under round-robin and ICOUNT fetch so the fairness question
    /// has an answer in the same results file. Mixes only materialize at
    /// the thread count matching their arity ([`Grid::cells`] skips the
    /// rest), so the grid flattens to 14 cells.
    #[must_use]
    pub fn hetero() -> Self {
        let mpd = WorkRef::Builtin(WorkloadKind::Mpd);
        let ll7 = WorkRef::Builtin(WorkloadKind::Ll7);
        let matmul = WorkRef::Corpus("matmul".into());
        let memstress = WorkRef::Corpus("memstress".into());
        Grid {
            workloads: vec![
                WorkSpec::corpus("quicksort"),
                WorkSpec::corpus("matmul"),
                WorkSpec::mix(vec![mpd.clone(), matmul.clone()]),
                WorkSpec::mix(vec![memstress.clone(), ll7.clone()]),
                WorkSpec::mix(vec![mpd, matmul, memstress, ll7]),
            ],
            policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::Icount],
            predictors: vec![PredictorKind::SharedBtb],
            threads: vec![2, 4],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![32],
            caches: vec![CacheKind::SetAssociative],
            spec_depths: vec![defaults::SPEC_DEPTH],
        }
    }

    /// Flattens the grid into cells, in a deterministic order (workload
    /// outermost, cache geometry innermost). Per-thread mixes pair only
    /// with the thread count matching their arity — the other thread
    /// counts are not holes to record but points that do not exist.
    #[must_use]
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::new();
        for work in &self.workloads {
            for &policy in &self.policies {
                for &predictor in &self.predictors {
                    for &threads in &self.threads {
                        if work.is_mix() && work.refs().len() != threads {
                            continue;
                        }
                        for &fetch_threads in &self.fetch_threads {
                            for &fetch_width in &self.fetch_widths {
                                for &su_depth in &self.su_depths {
                                    for &cache in &self.caches {
                                        for &spec_depth in &self.spec_depths {
                                            out.push(CellSpec {
                                                work: work.clone(),
                                                policy,
                                                predictor,
                                                threads,
                                                fetch_threads,
                                                fetch_width,
                                                su_depth,
                                                cache,
                                                spec_depth,
                                            });
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

const POLICIES: [FetchPolicy; 3] = [
    FetchPolicy::TrueRoundRobin,
    FetchPolicy::MaskedRoundRobin,
    FetchPolicy::ConditionalSwitch,
];

/// One point of the sweep space.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CellSpec {
    /// What the threads run: one program, or one per thread.
    pub work: WorkSpec,
    /// Fetch policy.
    pub policy: FetchPolicy,
    /// Branch-predictor family.
    pub predictor: PredictorKind,
    /// Resident threads.
    pub threads: usize,
    /// Threads fetched per cycle.
    pub fetch_threads: usize,
    /// Fetch-block width in instructions.
    pub fetch_width: usize,
    /// Scheduling-unit depth in entries.
    pub su_depth: usize,
    /// Cache organization.
    pub cache: CacheKind,
    /// Speculation-depth limit: unresolved conditional branches a thread
    /// may have in flight before its fetch stalls (0 = unlimited).
    pub spec_depth: usize,
}

impl Default for CellSpec {
    /// The paper's default machine point running Sieve: every dimension
    /// matches what an absent field means in the serve protocol.
    fn default() -> Self {
        CellSpec {
            work: WorkloadKind::Sieve.into(),
            policy: FetchPolicy::default(),
            predictor: PredictorKind::default(),
            threads: defaults::THREADS,
            fetch_threads: defaults::FETCH_THREADS,
            fetch_width: defaults::FETCH_WIDTH,
            su_depth: defaults::SU_DEPTH,
            cache: CacheKind::default(),
            spec_depth: defaults::SPEC_DEPTH,
        }
    }
}

impl CellSpec {
    /// Lowers the spec to a full simulator configuration.
    #[must_use]
    pub fn config(&self) -> SimConfig {
        SimConfig::default()
            .with_threads(self.threads)
            .with_fetch_policy(self.policy)
            .with_predictor(self.predictor)
            .with_fetch_threads(self.fetch_threads)
            .with_fetch_width(self.fetch_width)
            .with_su_depth(self.su_depth)
            .with_cache_kind(self.cache)
            .with_spec_depth(self.spec_depth)
    }

    /// Stable, filesystem-safe cell name, e.g. `sieve-trr-t4-su32-sa`.
    ///
    /// Front-end dimensions appear only when they differ from the default
    /// machine (`-gsh`/`-pbtb`, `-ft2`, `-fw8`), so every id from before
    /// those axes existed — and every cell cached under one — is unchanged.
    #[must_use]
    pub fn id(&self) -> String {
        let mut id = format!(
            "{}-{}-t{}-su{}-{}",
            self.work.id_part(),
            self.policy.abbrev(),
            self.threads,
            self.su_depth,
            self.cache.abbrev(),
        );
        if self.predictor != PredictorKind::SharedBtb {
            id.push('-');
            id.push_str(self.predictor.abbrev());
        }
        if self.fetch_threads != defaults::FETCH_THREADS {
            id.push_str(&format!("-ft{}", self.fetch_threads));
        }
        if self.fetch_width != defaults::FETCH_WIDTH {
            id.push_str(&format!("-fw{}", self.fetch_width));
        }
        if self.spec_depth != defaults::SPEC_DEPTH {
            id.push_str(&format!("-sd{}", self.spec_depth));
        }
        id
    }
}

impl fmt::Display for CellSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

/// Terminal state of one cell.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CellStatus {
    /// Simulated to completion and verified against the workload checker.
    Done,
    /// The kernel does not fit this configuration point (lowering failed or
    /// the register window is too small) — a legitimate hole in the space.
    Infeasible,
}

impl CellStatus {
    /// Stable wire/cache spelling (`done` / `infeasible`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CellStatus::Done => "done",
            CellStatus::Infeasible => "infeasible",
        }
    }

    /// Inverse of [`as_str`](Self::as_str); anything else is `None`.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "done" => Some(CellStatus::Done),
            "infeasible" => Some(CellStatus::Infeasible),
            _ => None,
        }
    }
}

/// One cell's persisted measurement (or infeasibility record).
#[derive(Clone, PartialEq, Debug)]
pub struct CellRecord {
    /// The cell's stable name ([`CellSpec::id`]).
    pub id: String,
    /// Code version the record was produced under.
    pub code_version: String,
    /// [`config_identity`] of the lowered configuration.
    pub config_hash: u64,
    /// [`program_identity`] of the built kernel; 0 when lowering failed.
    pub program_hash: u64,
    /// Terminal state.
    pub status: CellStatus,
    /// Total cycles (0 if infeasible).
    pub cycles: u64,
    /// Architecturally committed instructions (0 if infeasible).
    pub committed: u64,
    /// Instructions per cycle (0 if infeasible).
    pub ipc: f64,
    /// Data-cache hit rate in percent (0 if infeasible).
    pub hit_rate: f64,
    /// Branch-prediction accuracy in percent (0 if infeasible).
    pub branch_accuracy: f64,
    /// Scheduling-unit stall cycles (0 if infeasible).
    pub su_stalls: u64,
    /// Why the cell is infeasible; empty for done cells.
    pub reason: String,
}

impl CellRecord {
    /// The record of a cell that simulated to completion and verified.
    #[must_use]
    pub(crate) fn done(
        id: String,
        code_version: &str,
        config_hash: u64,
        program_hash: u64,
        stats: &SimStats,
    ) -> Self {
        CellRecord {
            id,
            code_version: code_version.to_string(),
            config_hash,
            program_hash,
            status: CellStatus::Done,
            cycles: stats.cycles,
            committed: stats.committed_total(),
            ipc: stats.ipc(),
            hit_rate: stats.cache.hit_rate(),
            branch_accuracy: stats.branches.accuracy(),
            su_stalls: stats.su_stall_cycles,
            reason: String::new(),
        }
    }

    /// The record of a cell that cannot run at its configuration point.
    #[must_use]
    pub(crate) fn infeasible(
        id: String,
        code_version: &str,
        config_hash: u64,
        program_hash: u64,
        reason: String,
    ) -> Self {
        CellRecord {
            id,
            code_version: code_version.to_string(),
            config_hash,
            program_hash,
            status: CellStatus::Infeasible,
            cycles: 0,
            committed: 0,
            ipc: 0.0,
            hit_rate: 0.0,
            branch_accuracy: 0.0,
            su_stalls: 0,
            reason,
        }
    }

    /// Serializes the record as `key=value` lines (the cell-cache format:
    /// flat, line-oriented, and human-greppable in a store directory),
    /// closed by a `checksum=` line — the FNV-1a of every line above it.
    #[must_use]
    pub fn to_lines(&self) -> String {
        // Floats use `{:?}` (shortest round-trip form): a parsed-back value
        // is bit-equal to the original, so a cache hit serializes into
        // results.json byte-identically to a fresh run.
        let body = format!(
            "id={}\ncode_version={}\nconfig_hash={:#018x}\nprogram_hash={:#018x}\n\
             status={}\ncycles={}\ncommitted={}\nipc={:?}\nhit_rate={:?}\n\
             branch_accuracy={:?}\nsu_stalls={}\nreason={}\n",
            self.id,
            self.code_version,
            self.config_hash,
            self.program_hash,
            self.status.as_str(),
            self.cycles,
            self.committed,
            self.ipc,
            self.hit_rate,
            self.branch_accuracy,
            self.su_stalls,
            self.reason.replace('\n', " "),
        );
        let checksum = fnv1a(body.as_bytes());
        format!("{body}checksum={checksum:#018x}\n")
    }

    /// Parses a record back from its `key=value` form. A missing or
    /// mismatched checksum, or any missing, malformed, repeated or
    /// reordered field, yields `None` — the caller treats the record as
    /// absent and re-runs the cell (fail closed).
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let (body, checksum) = text.rsplit_once("checksum=0x")?;
        let checksum = u64::from_str_radix(checksum.strip_suffix('\n')?, 16).ok()?;
        if !body.ends_with('\n') || checksum != fnv1a(body.as_bytes()) {
            return None;
        }
        // The fields, in the one order `to_lines` writes them: a missing,
        // repeated or reordered key fails the match.
        let mut lines = body.lines();
        let mut field = |key: &str| lines.next()?.strip_prefix(key)?.strip_prefix('=');
        let hex = |v: &str| u64::from_str_radix(v.strip_prefix("0x")?, 16).ok();
        let rec = CellRecord {
            id: field("id")?.to_string(),
            code_version: field("code_version")?.to_string(),
            config_hash: hex(field("config_hash")?)?,
            program_hash: hex(field("program_hash")?)?,
            status: CellStatus::parse(field("status")?)?,
            cycles: field("cycles")?.parse().ok()?,
            committed: field("committed")?.parse().ok()?,
            ipc: field("ipc")?.parse().ok()?,
            hit_rate: field("hit_rate")?.parse().ok()?,
            branch_accuracy: field("branch_accuracy")?.parse().ok()?,
            su_stalls: field("su_stalls")?.parse().ok()?,
            reason: field("reason")?.to_string(),
        };
        lines.next().is_none().then_some(rec)
    }

    /// The record as a JSON object (one element of `results.json`).
    #[must_use]
    pub fn to_json(&self, spec: &CellSpec) -> String {
        object_to_json(&[
            ("id", Cell::Text(self.id.clone())),
            ("workload", Cell::Text(spec.work.name())),
            ("policy", Cell::Text(format!("{:?}", spec.policy))),
            ("predictor", Cell::Text(format!("{:?}", spec.predictor))),
            ("threads", Cell::Int(spec.threads as u64)),
            ("fetch_threads", Cell::Int(spec.fetch_threads as u64)),
            ("fetch_width", Cell::Int(spec.fetch_width as u64)),
            ("su_depth", Cell::Int(spec.su_depth as u64)),
            ("cache", Cell::Text(format!("{:?}", spec.cache))),
            ("spec_depth", Cell::Int(spec.spec_depth as u64)),
            (
                "config_hash",
                Cell::Text(format!("{:#018x}", self.config_hash)),
            ),
            (
                "program_hash",
                Cell::Text(format!("{:#018x}", self.program_hash)),
            ),
            ("status", Cell::Text(self.status.as_str().to_string())),
            ("cycles", Cell::Int(self.cycles)),
            ("committed", Cell::Int(self.committed)),
            ("ipc", Cell::Float(self.ipc)),
            ("hit_rate", Cell::Float(self.hit_rate)),
            ("branch_accuracy", Cell::Float(self.branch_accuracy)),
            ("su_stalls", Cell::Int(self.su_stalls)),
            ("reason", Cell::Text(self.reason.clone())),
        ])
    }
}

/// Sweep knobs beyond the grid itself.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Problem scale the kernels are built at.
    pub scale: Scale,
    /// Worker threads (cells are work-stolen off a shared queue).
    pub workers: usize,
    /// Snapshot in-flight simulations every this many cycles; `None`
    /// disables mid-cell checkpointing (cells then resume from scratch).
    pub checkpoint_every: Option<u64>,
    /// Cache key component: records written under a different code version
    /// are invalid. Defaults to this crate's version; tests override it to
    /// prove stale caches fail closed.
    pub code_version: String,
    /// The on-disk workload corpus, when one is attached. Cells that
    /// reference a corpus kernel by name resolve against this; without
    /// one, such cells record as infeasible with a "no corpus" reason.
    pub corpus: Option<Arc<Corpus>>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scale: Scale::Paper,
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            checkpoint_every: None,
            code_version: env!("CARGO_PKG_VERSION").to_string(),
            corpus: None,
        }
    }
}

/// What a sweep did, for reporting and for the resume tests.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SweepSummary {
    /// Cells in the grid.
    pub total: usize,
    /// Cells actually simulated this invocation.
    pub executed: usize,
    /// Cells satisfied from the on-disk cache.
    pub cached: usize,
    /// Cells recorded infeasible (cached or fresh).
    pub infeasible: usize,
    /// Cells that resumed from a mid-flight snapshot instead of cycle 0.
    pub resumed: usize,
    /// Cycles stepped by this invocation (cache hits contribute nothing;
    /// a resumed cell counts only the cycles it actually re-simulated).
    pub simulated_cycles: u64,
    /// Where the merged results were written.
    pub results_path: PathBuf,
}

/// The built kernel(s) of a cell — one program for a uniform workload,
/// one per thread for a mix — or why lowering failed at this thread
/// count.
pub(crate) type Built = Arc<Result<Vec<Program>, String>>;

/// One kernel memo entry: the built kernel(s) and their identity hash,
/// filled once by the first caller.
type Slot = Arc<OnceLock<(Built, u64)>>;

/// Kernel memo shared by every executor — the sweep workers, the explorer
/// and the report [`Runner`](crate::runner::Runner): the program text
/// depends only on `(work, threads)` at a fixed scale, and cache
/// validation, execution and the answer check all need it.
pub(crate) struct Programs {
    scale: Scale,
    corpus: Option<Arc<Corpus>>,
    built: Mutex<HashMap<(WorkSpec, usize), Slot>>,
}

impl Programs {
    pub(crate) fn new(scale: Scale, corpus: Option<Arc<Corpus>>) -> Self {
        Programs {
            scale,
            corpus,
            built: Mutex::new(HashMap::new()),
        }
    }

    /// Number of distinct `(work, threads)` kernels built so far.
    pub(crate) fn len(&self) -> usize {
        self.built.lock().expect("program memo poisoned").len()
    }

    /// The attached corpus's workload `name`, or why there is none.
    fn corpus_kernel(&self, name: &str) -> Result<&CorpusWorkload, String> {
        let corpus = self
            .corpus
            .as_deref()
            .ok_or_else(|| format!("workload {name:?} needs a corpus (--corpus)"))?;
        corpus.get(name).ok_or_else(|| {
            let have: Vec<&str> = corpus.names().collect();
            format!(
                "no workload {name:?} in the corpus (have: {})",
                have.join(", ")
            )
        })
    }

    /// Builds one program reference. Built-ins take the thread count the
    /// partition must fit; corpus kernels are SPMD over a runtime thread
    /// id and assemble identically at every thread count.
    fn build_ref(&self, r: &WorkRef, threads: usize) -> Result<Program, String> {
        match r {
            WorkRef::Builtin(kind) => workload(*kind, self.scale)
                .build(threads)
                .map_err(|e| e.to_string()),
            WorkRef::Corpus(name) => self
                .corpus_kernel(name)?
                .build(self.scale)
                .map_err(|e| e.to_string()),
        }
    }

    /// Verifies one program's architectural answer against the memory
    /// words of its (possibly thread-local) address space.
    fn check_ref(&self, r: &WorkRef, words: &[u64]) -> Result<(), String> {
        match r {
            WorkRef::Builtin(kind) => workload(*kind, self.scale)
                .check(words)
                .map_err(|e| e.to_string()),
            WorkRef::Corpus(name) => self.corpus_kernel(name)?.verify(words, self.scale),
        }
    }

    /// Verifies the architectural answer of a finished run of `work`:
    /// every tenant against its own data segment, exactly as if it had
    /// run alone.
    fn verify(&self, work: &WorkSpec, sim: &Simulator<'_>) -> Result<(), String> {
        for (tenant, r) in sim.tenants().iter().zip(work.refs()) {
            self.check_ref(r, tenant.segment(sim.memory()))
                .map_err(|e| format!("threads {:?}: {e}", tenant.threads))?;
        }
        Ok(())
    }

    /// The one run loop under every simulation: steps `sim` to the end in
    /// quanta that stop at every multiple of [`TICK_QUANTUM`] and of
    /// `pause_every`, calling `on_pause` at each stop and checking the
    /// watchdog; then finalizes the statistics and verifies `work`'s
    /// architectural answer. With `cpi`, a [`CpiStack`] as wide as the
    /// machine's fetch bandwidth observes every cycle and must account
    /// every slot. `name` labels the panics.
    ///
    /// # Panics
    ///
    /// Panics if the simulation faults or exceeds its cycle watchdog, its
    /// answer is wrong, or the CPI stack misses a slot — no result may
    /// come from a broken run.
    pub(crate) fn run_and_verify(
        &self,
        work: &WorkSpec,
        name: &str,
        sim: &mut Simulator<'_>,
        cpi: bool,
        pause_every: Option<u64>,
        on_pause: &mut dyn FnMut(&Simulator<'_>),
    ) -> (SimStats, Option<CpiBreakdown>) {
        let width = sim.config().trace_shape().width;
        let max = sim.config().max_cycles;
        let mut stack = cpi.then(|| CpiStack::new(width));
        while !sim.finished() {
            let cycle = sim.cycle();
            assert!(cycle < max, "{name}: watchdog: exceeded {max} cycles");
            let next = |n: u64| (cycle / n + 1) * n;
            let stop = pause_every
                .map_or(u64::MAX, next)
                .min(next(TICK_QUANTUM))
                .min(max);
            while sim.cycle() < stop && !sim.finished() {
                match stack.as_mut() {
                    Some(stack) => sim.step_with(Observers::trace(stack)),
                    None => sim.step(),
                }
                .unwrap_or_else(|e| panic!("{name}: simulation failed: {e}"));
            }
            on_pause(sim);
        }
        // The machine is drained; `run` performs no steps and finalizes
        // the statistics (cache counters, FU busy cycles).
        let stats = sim
            .run()
            .unwrap_or_else(|e| panic!("{name}: finalize failed: {e}"));
        self.verify(work, sim)
            .unwrap_or_else(|e| panic!("{name}: wrong answer: {e}"));
        let breakdown = stack.map(|stack| {
            let breakdown = stack.finish();
            assert_eq!(
                breakdown.total_slots(),
                u64::from(width) * stats.cycles,
                "{name}: CPI stack must account every slot"
            );
            breakdown
        });
        (stats, breakdown)
    }

    /// The built kernel(s) of `work` at `threads`, and the identity hash a
    /// cell record of them carries (0 when lowering fails, exactly as an
    /// infeasible record is written). Both are memoized: hashing a
    /// paper-scale program costs more than probing a cached cell.
    pub(crate) fn get(&self, work: &WorkSpec, threads: usize) -> (Built, u64) {
        // The memo's lock covers the lookup only: distinct kernels build in
        // parallel, and a kernel's later callers wait for its first.
        let slot = {
            let mut memo = self.built.lock().expect("program memo poisoned");
            let slot = memo.entry((work.clone(), threads)).or_default();
            if let Some((b, hash)) = slot.get() {
                return (Arc::clone(b), *hash);
            }
            Arc::clone(slot)
        };
        let (b, hash) = slot.get_or_init(|| self.build(work, threads));
        (Arc::clone(b), *hash)
    }

    /// Builds the kernel(s) of `work` at `threads` and hashes them.
    fn build(&self, work: &WorkSpec, threads: usize) -> (Built, u64) {
        let result = if work.is_mix() {
            if work.refs().len() == threads {
                // Each mix slot is a single-threaded tenant of its own
                // address-space segment.
                work.refs()
                    .iter()
                    .map(|r| self.build_ref(r, 1))
                    .collect::<Result<Vec<_>, _>>()
            } else {
                Err(format!(
                    "mix of {} programs cannot run on {threads} threads",
                    work.refs().len()
                ))
            }
        } else {
            self.build_ref(&work.refs()[0], threads).map(|p| vec![p])
        };
        let hash = match &result {
            // A uniform cell hashes its single program exactly as before
            // mixes existed (existing caches stay valid); a mix hashes
            // the ordered vector of per-program identities.
            Ok(ps) => match ps.as_slice() {
                [p] => program_identity(p),
                ps => smt_checkpoint::stable_hash(
                    &ps.iter().map(program_identity).collect::<Vec<u64>>(),
                ),
            },
            Err(_) => 0,
        };
        (Arc::new(result), hash)
    }
}

/// Writes `bytes` to `path` atomically (tmp file + rename), so a kill at
/// any instant leaves either the old file or the new one — never a torn
/// write. The tmp name carries a process id and sequence number: within
/// one sweep workers touch distinct paths, but several *processes*
/// sharing a store (the serve daemon's scale-out mode) can produce the
/// same cell concurrently, and a shared tmp name would let one writer
/// rename away — or truncate under — the other's half-written file.
/// Orphaned tmp files from a killed writer are inert: nothing loads them.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let base = path.file_name().and_then(|n| n.to_str()).unwrap_or("write");
    let tmp = path.with_file_name(format!(
        "{base}.{}-{}.tmp",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Persists a snapshot framed by the code version it was taken under
/// (snapshots do not survive code changes), followed by the snapshot wire
/// format, which carries its own magic, version, identity hashes, and
/// checksum. Mid-flight cell checkpoints (`ckpt/`) and the explorer's
/// shared warm snapshots (`warm/`) both use this framing.
pub(crate) fn save_snapshot(path: &Path, code_version: &str, snap: &Snapshot) -> io::Result<()> {
    let mut w = Writer::new();
    w.put_bytes(code_version.as_bytes());
    w.put_bytes(&snap.to_bytes());
    write_atomic(path, &w.into_bytes())
}

/// Loads a snapshot [`save_snapshot`] wrote under the same code version.
/// Any mismatch or parse failure means "no snapshot" — the caller starts
/// over, which is always correct.
pub(crate) fn load_snapshot(path: &Path, code_version: &str) -> Option<Snapshot> {
    let bytes = fs::read(path).ok()?;
    let mut r = Reader::new(&bytes);
    if r.take_bytes().ok()? != code_version.as_bytes() {
        return None;
    }
    let snap = Snapshot::from_bytes(r.take_bytes().ok()?).ok()?;
    r.finish().ok()?;
    Some(snap)
}

/// Writes a mid-flight snapshot for `spec` exactly as a killed invocation
/// would have left it. Test hook for the resume path: the next
/// [`run_sweep`] over `out` picks the cell up from this snapshot instead
/// of cycle 0 (and counts it in [`SweepSummary::resumed`]).
///
/// # Errors
///
/// Fails on filesystem errors creating the checkpoint directory or file.
pub fn plant_checkpoint(
    out: &Path,
    spec: &CellSpec,
    code_version: &str,
    snap: &Snapshot,
) -> io::Result<()> {
    fs::create_dir_all(out.join("ckpt"))?;
    save_snapshot(
        &out.join("ckpt").join(format!("{}.ckpt", spec.id())),
        code_version,
        snap,
    )
}

/// Loads the record stored at `path` if its full key — id, code version,
/// configuration hash, and program hash — matches what this invocation
/// would produce and its measurements are self-consistent (`ipc` is
/// bit-equal to `committed / cycles`, as [`SimStats::ipc`] computes it).
/// Anything else is treated as a miss, so the cell re-simulates. Every
/// store namespace (`cells/`, `cells-warm/`) and every probe reads
/// through here.
pub(crate) fn load_record(
    path: &Path,
    id: &str,
    code_version: &str,
    config_hash: u64,
    program_hash: u64,
) -> Option<CellRecord> {
    let rec = CellRecord::parse(&fs::read_to_string(path).ok()?)?;
    let ipc = if rec.cycles == 0 {
        0.0
    } else {
        rec.committed as f64 / rec.cycles as f64
    };
    (rec.id == id
        && rec.code_version == code_version
        && rec.config_hash == config_hash
        && rec.program_hash == program_hash
        && rec.ipc.to_bits() == ipc.to_bits())
    .then_some(rec)
}

/// The progress-tick and watchdog quantum: `Programs::run_and_verify`
/// stops at every multiple of this many cycles to check the watchdog and
/// let a cell emit a [`ProgressTick`]. Large enough that a stop is free
/// against the per-cycle simulation cost, small enough that live
/// telemetry stays live.
pub const TICK_QUANTUM: u64 = 512;

/// One progress observation, emitted at every multiple of
/// [`TICK_QUANTUM`] cycles a cell simulates and when it finishes (the
/// `smt-serve` daemon forwards these to subscribed clients as live
/// telemetry).
#[derive(Clone, Copy, Debug)]
pub struct ProgressTick<'a> {
    /// The cell's stable id.
    pub id: &'a str,
    /// Current simulated cycle.
    pub cycle: u64,
    /// Instructions architecturally committed so far.
    pub committed: u64,
}

/// Per-cell outcome of producing one cell: the record that was produced
/// or fetched, plus how it was produced.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell.
    pub spec: CellSpec,
    /// Its terminal record (identical whether simulated or cached).
    pub rec: CellRecord,
    /// Whether the cell was simulated (vs. satisfied from cache).
    pub ran: bool,
    /// Whether it resumed from a mid-flight snapshot.
    pub resumed: bool,
    /// Cycles this invocation stepped for the cell.
    pub stepped: u64,
    /// Live CPI-stack breakdown; present only when telemetry was
    /// requested and the cell actually simulated from cycle 0.
    pub cpi: Option<CpiBreakdown>,
}

/// Where a cell's record lives, which decides how its machine starts on a
/// store miss.
pub(crate) enum Namespace<'a> {
    /// The exact store, `cells/<id>`: the machine resumes from the cell's
    /// mid-flight snapshot in `ckpt/<id>` when one is there, else starts
    /// cold, and snapshots itself every `checkpoint_every` cycles.
    Exact,
    /// The approximate store, `cells-warm/<id>@w<warmup>`: the machine
    /// forks from the warm snapshot `warm` returns for the cell's
    /// programs. When `warm` cannot make one, its error becomes the
    /// record's `reason` and the machine starts cold instead.
    Warm {
        /// Warmup length the snapshot was taken after.
        warmup: u64,
        /// The shared warm snapshot, made (or recalled) on demand.
        warm: &'a mut dyn FnMut(&[Program]) -> Result<Snapshot, String>,
    },
}

/// The reusable scheduling core of the sweep engine: one result-store
/// directory plus the execution knobs and the shared program memo.
///
/// Everything that produces cells — the `sweep` binary through
/// [`run_sweep`], the `smt-serve` daemon's worker pool, and the search
/// explorer — goes through this handle, so the cache-first/resume/
/// infeasibility semantics (and therefore the produced bytes) are
/// identical no matter who asks. The handle is `Sync`: workers share one
/// `&Scheduler` across threads, and multiple *processes* can safely share
/// one store directory because every write is atomic tmp+rename.
pub struct Scheduler {
    out: PathBuf,
    opts: SweepOptions,
    programs: Programs,
}

impl Scheduler {
    /// Opens (creating if needed) the store layout under `out`.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors creating the `cells`/`ckpt`
    /// subdirectories.
    pub fn new(out: &Path, opts: SweepOptions) -> io::Result<Self> {
        fs::create_dir_all(out.join("cells"))?;
        fs::create_dir_all(out.join("ckpt"))?;
        Ok(Scheduler {
            out: out.to_path_buf(),
            programs: Programs::new(opts.scale, opts.corpus.clone()),
            opts,
        })
    }

    /// Checks that every program reference of `work` can resolve under
    /// this scheduler — builtin names always do; corpus names need an
    /// attached corpus that knows them. The serve daemon calls this at
    /// admission so a typo'd workload name becomes a typed protocol error
    /// instead of an infeasible record polluting the shared store.
    ///
    /// # Errors
    ///
    /// An explanation naming the unresolvable reference.
    pub fn resolve(&self, work: &WorkSpec) -> Result<(), String> {
        for r in work.refs() {
            if let WorkRef::Corpus(name) = r {
                self.programs.corpus_kernel(name)?;
            }
        }
        Ok(())
    }

    /// The execution knobs this scheduler runs with.
    #[must_use]
    pub fn opts(&self) -> &SweepOptions {
        &self.opts
    }

    /// The store directory.
    #[must_use]
    pub fn out(&self) -> &Path {
        &self.out
    }

    /// The identity hashes a record for `spec` must carry to be valid
    /// under this scheduler: `(config hash, program hash)`, plus the
    /// built program (see [`Programs::get`]).
    fn identities(&self, spec: &CellSpec) -> (u64, u64, Built) {
        let (built, program_hash) = self.programs.get(&spec.work, spec.threads);
        (config_identity(&spec.config()), program_hash, built)
    }

    /// Cache-only lookup: the cell's record if the store holds one whose
    /// full key (code version, config hash, program hash) matches what
    /// this scheduler would produce. Never simulates.
    #[must_use]
    pub fn probe(&self, spec: &CellSpec) -> Option<CellRecord> {
        let (config_hash, program_hash, _) = self.identities(spec);
        let id = spec.id();
        load_record(
            &self.out.join("cells").join(format!("{id}.cell")),
            &id,
            &self.opts.code_version,
            config_hash,
            program_hash,
        )
    }

    /// Produces one exact cell: from cache if valid, else by simulation
    /// (resuming from a mid-flight snapshot when one exists). `on_tick`
    /// sees every [`ProgressTick`]; `cpi` requests a live CPI-stack
    /// breakdown on freshly simulated cells.
    ///
    /// # Panics
    ///
    /// Panics if the simulation faults, exceeds its cycle watchdog, fails
    /// its workload check, or the store is unwritable — results must
    /// never contain broken runs.
    pub fn run_cell(
        &self,
        spec: &CellSpec,
        cpi: bool,
        on_tick: &mut dyn FnMut(ProgressTick<'_>),
    ) -> CellOutcome {
        self.produce(spec, Namespace::Exact, cpi, on_tick)
    }

    /// The one cell producer: the record of `spec` in namespace `ns`. A
    /// valid stored record is returned as is. Otherwise the cell is
    /// infeasible when its kernel does not lower or the machine rejects
    /// the point, and else its machine is started as `ns` says, run and
    /// verified by [`Programs::run_and_verify`]; either way the new
    /// record is persisted.
    ///
    /// # Panics
    ///
    /// As [`run_cell`](Self::run_cell).
    pub(crate) fn produce(
        &self,
        spec: &CellSpec,
        ns: Namespace<'_>,
        cpi: bool,
        on_tick: &mut dyn FnMut(ProgressTick<'_>),
    ) -> CellOutcome {
        let code_version = &self.opts.code_version;
        let (config_hash, program_hash, built) = self.identities(spec);
        let (dir, id, pause_every) = match &ns {
            Namespace::Exact => ("cells", spec.id(), self.opts.checkpoint_every),
            Namespace::Warm { warmup, .. } => {
                ("cells-warm", format!("{}@w{warmup}", spec.id()), None)
            }
        };
        let path = self.out.join(dir).join(format!("{id}.cell"));
        let outcome = |rec, ran, resumed, stepped, cpi| CellOutcome {
            spec: spec.clone(),
            rec,
            ran,
            resumed,
            stepped,
            cpi,
        };
        if let Some(rec) = load_record(&path, &id, code_version, config_hash, program_hash) {
            return outcome(rec, false, false, 0, None);
        }
        let persist = |rec: CellRecord, resumed, stepped, cpi| {
            write_atomic(&path, rec.to_lines().as_bytes())
                .unwrap_or_else(|e| panic!("{id}: cannot persist cell: {e}"));
            outcome(rec, true, resumed, stepped, cpi)
        };
        let infeasible = |program_hash, reason| {
            let rec =
                CellRecord::infeasible(id.clone(), code_version, config_hash, program_hash, reason);
            persist(rec, false, 0, None)
        };
        let programs = match built.as_ref() {
            Ok(programs) => &programs[..],
            Err(e) => {
                return infeasible(
                    0,
                    format!("kernel does not lower at {} threads: {e}", spec.threads),
                )
            }
        };
        let config = spec.config();
        let ckpt = self.out.join("ckpt").join(format!("{id}.ckpt"));
        let mut note = None;
        // Resume or fork when the namespace has a snapshot to start from,
        // else start cold.
        let started = match ns {
            Namespace::Exact => load_snapshot(&ckpt, code_version)
                .and_then(|snap| Simulator::restore(config.clone(), programs, &snap).ok())
                .map(Ok),
            Namespace::Warm { warm, .. } => match warm(programs) {
                Ok(snap) => Some(Simulator::fork_warm(config.clone(), programs, &snap)),
                Err(why) => {
                    note = Some(why);
                    None
                }
            },
        };
        let started = started.unwrap_or_else(|| Simulator::try_new(config, programs));
        let mut sim = match started {
            Ok(sim) => sim,
            // Config rejections are holes in the space too: e.g. two fetch
            // ports with a single resident thread.
            Err(e @ (SimError::RegisterWindow { .. } | SimError::Config(_))) => {
                return infeasible(program_hash, note.unwrap_or_else(|| e.to_string()))
            }
            Err(e) => panic!("{id}: simulator rejected the cell: {e}"),
        };
        // A restored machine starts mid-flight; a cold or forked one at
        // cycle 0. The CPI accountant must observe every decode, so only
        // the latter can carry one.
        let start = sim.cycle();
        let (stats, breakdown) = self.programs.run_and_verify(
            &spec.work,
            &id,
            &mut sim,
            cpi && start == 0,
            pause_every,
            &mut |sim| {
                if pause_every.is_some_and(|n| sim.cycle() % n == 0) && !sim.finished() {
                    save_snapshot(&ckpt, code_version, &sim.checkpoint())
                        .unwrap_or_else(|e| panic!("{id}: cannot write checkpoint: {e}"));
                }
                if sim.cycle() % TICK_QUANTUM == 0 || sim.finished() {
                    on_tick(ProgressTick {
                        id: &id,
                        cycle: sim.cycle(),
                        committed: sim.stats().committed_total(),
                    });
                }
            },
        );
        let _ = fs::remove_file(&ckpt);
        let mut rec = CellRecord::done(id.clone(), code_version, config_hash, program_hash, &stats);
        if let Some(note) = note {
            rec.reason = note;
        }
        persist(rec, start > 0, stats.cycles - start, breakdown)
    }
}

/// The one worker pool: maps `f` over `items` on `workers` scoped threads
/// (at least one, at most one per item) and returns the results in input
/// order. Workers steal work — each repeatedly claims the next unclaimed
/// index — so a worker stuck on one long item never strands the rest.
///
/// # Panics
///
/// Panics if `f` panics on any item.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers.clamp(1, items.len().max(1)))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        mine.push((i, f(item)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Renders the merged results of a sweep: one JSON object per cell, sorted
/// by cell id, independent of worker scheduling — so equal inputs always
/// produce byte-equal files.
#[must_use]
pub fn results_json(cells: &[(CellSpec, CellRecord)]) -> String {
    let mut out = String::from("[\n");
    for (i, (spec, rec)) in cells.iter().enumerate() {
        out.push_str(&rec.to_json(spec));
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push(']');
    out.push('\n');
    out
}

/// Runs (or resumes) the sweep over `grid` into `out`, writing one cell
/// file per point plus a merged, deterministically ordered `results.json`.
///
/// # Errors
///
/// Fails on filesystem errors creating the output layout or writing the
/// merged results.
///
/// # Panics
///
/// Panics if any cell's simulation faults or fails its workload check.
pub fn run_sweep(grid: &Grid, out: &Path, opts: &SweepOptions) -> io::Result<SweepSummary> {
    let sched = Scheduler::new(out, opts.clone())?;
    let specs = grid.cells();
    // Build every kernel first, on every worker: each cell's probe needs
    // its kernel's identity hash, and adjacent cells share kernels, so a
    // cell-by-cell start would queue every worker behind each build.
    let mut kernels: Vec<(&WorkSpec, usize)> = Vec::new();
    for spec in &specs {
        if !kernels.contains(&(&spec.work, spec.threads)) {
            kernels.push((&spec.work, spec.threads));
        }
    }
    par_map(&kernels, opts.workers, |&(work, threads)| {
        sched.programs.get(work, threads)
    });
    let outcomes = par_map(&specs, opts.workers, |spec| {
        sched.run_cell(spec, false, &mut |_| {})
    });
    let count = |f: fn(&CellOutcome) -> bool| outcomes.iter().filter(|o| f(o)).count();
    let (executed, resumed) = (count(|o| o.ran), count(|o| o.resumed));
    let infeasible = count(|o| o.rec.status == CellStatus::Infeasible);
    let simulated_cycles = outcomes.iter().map(|o| o.stepped).sum();
    let mut cells: Vec<(CellSpec, CellRecord)> =
        outcomes.into_iter().map(|o| (o.spec, o.rec)).collect();
    cells.sort_by(|a, b| a.1.id.cmp(&b.1.id));
    let results_path = out.join("results.json");
    write_atomic(&results_path, results_json(&cells).as_bytes())?;
    Ok(SweepSummary {
        total: specs.len(),
        executed,
        cached: cells.len() - executed,
        infeasible,
        resumed,
        simulated_cycles,
        results_path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CellSpec {
        CellSpec {
            work: WorkloadKind::Sieve.into(),
            policy: FetchPolicy::TrueRoundRobin,
            predictor: PredictorKind::SharedBtb,
            threads: 4,
            fetch_threads: 1,
            fetch_width: 4,
            su_depth: 32,
            cache: CacheKind::SetAssociative,
            spec_depth: 0,
        }
    }

    #[test]
    fn cell_ids_encode_every_dimension() {
        assert_eq!(spec().id(), "sieve-trr-t4-su32-sa");
        assert_eq!(
            CellSpec {
                spec_depth: 2,
                ..spec()
            }
            .id(),
            "sieve-trr-t4-su32-sa-sd2",
            "the limit appears only when engaged, so existing ids are stable"
        );
        let other = CellSpec {
            policy: FetchPolicy::ConditionalSwitch,
            cache: CacheKind::DirectMapped,
            threads: 8,
            su_depth: 16,
            work: WorkloadKind::Ll12.into(),
            ..spec()
        };
        assert_eq!(other.id(), "ll12-cs-t8-su16-dm");
        // Every policy, predictor, and cache spelling, pinned: ids are the
        // store's address space. (The shared BTB is the default predictor,
        // which ids never spell.)
        let masked = CellSpec {
            policy: FetchPolicy::MaskedRoundRobin,
            predictor: PredictorKind::Gshare,
            fetch_threads: 2,
            fetch_width: 8,
            ..spec()
        };
        assert_eq!(masked.id(), "sieve-mrr-t4-su32-sa-gsh-ft2-fw8");
        let counted = CellSpec {
            policy: FetchPolicy::Icount,
            predictor: PredictorKind::PartitionedBtb,
            cache: CacheKind::DirectMapped,
            work: WorkloadKind::Matrix.into(),
            ..spec()
        };
        assert_eq!(counted.id(), "matrix-ic-t4-su32-dm-pbtb");
    }

    #[test]
    fn mix_and_corpus_specs_spell_their_ids_with_plus_joins() {
        let solo = CellSpec {
            work: WorkSpec::corpus("quicksort"),
            threads: 2,
            ..spec()
        };
        assert_eq!(solo.id(), "quicksort-trr-t2-su32-sa");
        let mixed = CellSpec {
            work: WorkSpec::mix(vec![
                WorkRef::Builtin(WorkloadKind::Mpd),
                WorkRef::Corpus("matmul".into()),
            ]),
            threads: 2,
            policy: FetchPolicy::Icount,
            ..spec()
        };
        assert_eq!(mixed.id(), "mpd+matmul-ic-t2-su32-sa");
    }

    #[test]
    fn work_specs_parse_their_own_spelling() {
        for s in ["sieve", "quicksort", "mpd+matmul", "memstress+ll7"] {
            let w = WorkSpec::parse(s).expect(s);
            assert_eq!(w.id_part(), s, "parse/id round trip");
        }
        assert_eq!(
            WorkSpec::parse("SIEVE").unwrap().refs()[0],
            WorkRef::Builtin(WorkloadKind::Sieve),
            "builtins match case-insensitively"
        );
        assert!(WorkSpec::parse("not-a-name!").is_err());
        assert!(WorkSpec::parse("sieve+").is_err(), "empty mix slot");
    }

    #[test]
    fn hetero_grid_pairs_mixes_only_with_their_arity() {
        let cells = Grid::hetero().cells();
        // 2 solo workloads x 2 policies x {2,4} threads = 8 cells, plus
        // 2 two-program mixes and 1 four-program mix at 2 policies each.
        assert_eq!(cells.len(), 14);
        for c in &cells {
            if c.work.is_mix() {
                assert_eq!(c.work.refs().len(), c.threads);
            }
        }
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn front_end_dimensions_suffix_the_id_only_off_default() {
        let cell = CellSpec {
            policy: FetchPolicy::Icount,
            predictor: PredictorKind::Gshare,
            fetch_threads: 2,
            fetch_width: 8,
            ..spec()
        };
        assert_eq!(cell.id(), "sieve-ic-t4-su32-sa-gsh-ft2-fw8");
        let pbtb = CellSpec {
            predictor: PredictorKind::PartitionedBtb,
            ..spec()
        };
        assert_eq!(pbtb.id(), "sieve-trr-t4-su32-sa-pbtb");
    }

    #[test]
    fn grid_flattens_to_the_full_cross_product() {
        let g = Grid::smoke();
        let cells = g.cells();
        assert_eq!(cells.len(), 2 * 3 * 4);
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn frontend_grid_spans_the_new_axes_with_unique_ids() {
        let cells = Grid::frontend().cells();
        assert_eq!(cells.len(), 2 * 4 * 3 * 4 * 2 * 2);
        let ids: std::collections::HashSet<String> = cells.iter().map(CellSpec::id).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn records_round_trip_through_the_cell_format() {
        let rec = CellRecord {
            id: spec().id(),
            code_version: "1.2.3".into(),
            config_hash: 0xdead_beef_0badu64,
            program_hash: 0x1234,
            status: CellStatus::Done,
            cycles: 987_654,
            committed: 123_456,
            ipc: 1.234_567_890_123,
            hit_rate: 99.017_234,
            branch_accuracy: 87.5,
            su_stalls: 42,
            reason: String::new(),
        };
        let parsed = CellRecord::parse(&rec.to_lines()).expect("round trip");
        assert_eq!(parsed, rec);
        // Bit-exact float round trip is what makes cache hits serialize
        // byte-identically into results.json.
        assert_eq!(parsed.ipc.to_bits(), rec.ipc.to_bits());
    }

    #[test]
    fn malformed_records_fail_closed() {
        assert_eq!(CellRecord::parse(""), None);
        assert_eq!(CellRecord::parse("id=x\nstatus=done"), None);
        let rec = CellRecord::infeasible(spec().id(), "v", 1, 0, "no fit".into());
        let mangled = rec.to_lines().replace("status=infeasible", "status=maybe");
        assert_eq!(CellRecord::parse(&mangled), None);
        let duplicated = format!("{}cycles=7\n", rec.to_lines());
        assert_eq!(CellRecord::parse(&duplicated), None, "a repeated key");
        let lines = rec.to_lines();
        let (body, _) = lines.rsplit_once("checksum=").unwrap();
        assert_eq!(CellRecord::parse(body), None, "no checksum line");
        let flipped = lines.replace("reason=no fit", "reason=no fat");
        assert_eq!(CellRecord::parse(&flipped), None, "a checksum mismatch");
    }

    #[test]
    fn load_record_checks_the_key_and_the_ipc() {
        let dir = std::env::temp_dir().join(format!("smt-load-record-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.cell");
        let rec = CellRecord {
            status: CellStatus::Done,
            cycles: 3239,
            committed: 2001,
            ipc: 2001.0 / 3239.0,
            ..CellRecord::infeasible("x".into(), "v", 1, 2, String::new())
        };
        fs::write(&path, rec.to_lines()).unwrap();
        assert_eq!(load_record(&path, "x", "v", 1, 2), Some(rec.clone()));
        assert_eq!(load_record(&path, "y", "v", 1, 2), None, "another id");
        assert_eq!(load_record(&path, "x", "w", 1, 2), None, "another version");
        assert_eq!(load_record(&path, "x", "v", 3, 2), None, "another config");
        assert_eq!(load_record(&path, "x", "v", 1, 3), None, "another program");
        // A well-formed record (its checksum matches) that contradicts
        // itself.
        let corrupt = CellRecord {
            cycles: 93239,
            ..rec.clone()
        };
        fs::write(&path, corrupt.to_lines()).unwrap();
        assert_eq!(
            load_record(&path, "x", "v", 1, 2),
            None,
            "ipc != committed/cycles"
        );
        let infeasible = CellRecord::infeasible("x".into(), "v", 1, 0, "no fit".into());
        fs::write(&path, infeasible.to_lines()).unwrap();
        assert_eq!(load_record(&path, "x", "v", 1, 0), Some(infeasible));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn par_map_returns_every_result_once_in_input_order() {
        use std::sync::atomic::AtomicU64;
        for (n, workers) in [(0, 3), (5, 0), (5, 1), (7, 3), (3, 8)] {
            let items: Vec<u64> = (0..n).collect();
            let calls = AtomicU64::new(0);
            let out = par_map(&items, workers, |&x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x * x
            });
            assert_eq!(out, items.iter().map(|x| x * x).collect::<Vec<_>>());
            assert_eq!(calls.into_inner(), n, "each item runs exactly once");
        }
    }

    #[test]
    fn reasons_survive_equals_signs_and_newlines() {
        let rec =
            CellRecord::infeasible(spec().id(), "v", 1, 0, "window=21 < needed\nregs=32".into());
        let parsed = CellRecord::parse(&rec.to_lines()).expect("round trip");
        assert_eq!(parsed.reason, "window=21 < needed regs=32");
    }
}
