//! Approximate design-space exploration: warm-forked evaluation plus a
//! deterministic Pareto search over the sweep dimensions.
//!
//! # Warmup forking
//!
//! A full sweep re-simulates every cell from a cold machine, so every
//! variant pays the same warmup cycles again. [`Explorer`] instead takes
//! **one** warm checkpoint per `(workload, threads)` pair: it runs the
//! *canonical* machine (`SimConfig::default()` at the cell's thread
//! count) for a fixed warmup, drains the pipeline to quiescence, and
//! captures a relaxed-identity snapshot ([`Simulator::checkpoint_warm`])
//! holding only configuration-independent architectural state — memory,
//! registers, per-thread PCs. Every microarchitectural variant then
//! forks from that snapshot ([`Simulator::fork_warm`]) and simulates
//! only the measurement window; caches, predictors, and queues restart
//! cold and re-warm under the variant's own geometry. The measured IPC
//! is approximate (the error bound is pinned by `tests/warmup_error.rs`
//! and studied in EXPERIMENTS.md); the architectural answer is still
//! exact, and every forked run re-verifies it.
//!
//! Warm measurements live in their own content-addressed namespace
//! (`<out>/cells-warm/<id>@w<warmup>.cell`, same key discipline as the
//! exact store: code version + config hash + program hash), and warm
//! snapshots under `<out>/warm/`. Neither ever mixes with the exact
//! `cells/` records.
//!
//! # Pareto search
//!
//! [`run_search`] drives the seeded hill-climbing engine of
//! [`smt_search`] over a [`SearchSpace`], maximizing measured IPC
//! against the [`hardware_cost`] model. The search is deterministic end
//! to end: the trajectory artifact (`search_trajectory.json`) is
//! byte-identical across re-runs — including a run resumed over a
//! store whose cells are already populated, because cell records
//! round-trip their floats bit-exactly.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::{fmt, fs};

use smt_core::config::{defaults, warm};
use smt_core::{program_identity, FetchPolicy, PredictorKind, SimConfig, Simulator, Snapshot};
use smt_isa::Program;
use smt_mem::CacheKind;
use smt_search::{Axis, Evaluation, Objectives, SearchOutcome, SearchParams};

use crate::json::object_to_json;
use crate::sweep::{
    load_snapshot, save_snapshot, write_atomic, CellRecord, CellSpec, CellStatus, Namespace,
    Scheduler, WorkSpec,
};
use crate::Cell;

/// How a point's IPC is measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EvalMode {
    /// Cold full run through the exact cell store (ground truth).
    Full,
    /// Fork from the shared warm checkpoint taken after this many
    /// canonical-machine cycles, and measure only the window after it.
    Warm {
        /// Warmup length in cycles on the canonical machine.
        warmup: u64,
    },
}

impl fmt::Display for EvalMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalMode::Full => f.write_str("full"),
            EvalMode::Warm { warmup } => write!(f, "warm({warmup})"),
        }
    }
}

/// The searched region: one workload at one thread count, crossed with
/// the microarchitectural axes. Thread count is deliberately *not* an
/// axis — warm forking shares architectural state, which is only valid
/// across configurations with identical software-visible shape.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchSpace {
    /// What every point runs.
    pub work: WorkSpec,
    /// Resident threads (fixed across the space).
    pub threads: usize,
    /// Fetch-policy levels.
    pub policies: Vec<FetchPolicy>,
    /// Predictor-family levels.
    pub predictors: Vec<PredictorKind>,
    /// Fetch-port levels.
    pub fetch_threads: Vec<usize>,
    /// Fetch-width levels.
    pub fetch_widths: Vec<usize>,
    /// Scheduling-unit depth levels.
    pub su_depths: Vec<usize>,
    /// Cache-organization levels.
    pub caches: Vec<CacheKind>,
    /// Speculation-depth-limit levels (0 = unlimited).
    pub spec_depths: Vec<usize>,
}

impl SearchSpace {
    /// The full exploration region around the paper machine: every
    /// policy and predictor, one or two fetch ports, 4/8-wide fetch,
    /// three scheduling-unit depths, both cache organizations, and
    /// three speculation-depth limits (864 points — far more than a
    /// search should visit, which is the point).
    #[must_use]
    pub fn full(work: WorkSpec, threads: usize) -> Self {
        SearchSpace {
            work,
            threads,
            policies: vec![
                FetchPolicy::TrueRoundRobin,
                FetchPolicy::MaskedRoundRobin,
                FetchPolicy::ConditionalSwitch,
                FetchPolicy::Icount,
            ],
            predictors: PredictorKind::ALL.to_vec(),
            fetch_threads: vec![1, 2],
            fetch_widths: vec![4, 8],
            su_depths: vec![16, 32, 48],
            caches: vec![CacheKind::SetAssociative, CacheKind::DirectMapped],
            spec_depths: vec![0, 2, 4],
        }
    }

    /// A 16-point region small enough to enumerate exhaustively — the
    /// CI smoke space, where the searched frontier is checked against
    /// the brute-force one.
    #[must_use]
    pub fn smoke(work: WorkSpec, threads: usize) -> Self {
        SearchSpace {
            work,
            threads,
            policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::Icount],
            predictors: vec![PredictorKind::SharedBtb],
            fetch_threads: vec![1],
            fetch_widths: vec![defaults::FETCH_WIDTH],
            su_depths: vec![16, 32],
            caches: vec![CacheKind::SetAssociative, CacheKind::DirectMapped],
            spec_depths: vec![0, 2],
        }
    }

    /// The axes in engine form, in the fixed order [`spec_at`]
    /// (Self::spec_at) consumes: policy, predictor, fetch ports, fetch
    /// width, SU depth, cache, speculation depth.
    #[must_use]
    pub fn axes(&self) -> Vec<Axis> {
        let nums = |name: &str, v: &[usize]| Axis {
            name: name.to_string(),
            levels: v.iter().map(ToString::to_string).collect(),
        };
        vec![
            Axis::new(
                "policy",
                &self.policies.iter().map(|p| p.abbrev()).collect::<Vec<_>>(),
            ),
            Axis::new(
                "predictor",
                &self
                    .predictors
                    .iter()
                    .map(|p| p.abbrev())
                    .collect::<Vec<_>>(),
            ),
            nums("fetch_threads", &self.fetch_threads),
            nums("fetch_width", &self.fetch_widths),
            nums("su_depth", &self.su_depths),
            Axis::new(
                "cache",
                &self.caches.iter().map(|c| c.abbrev()).collect::<Vec<_>>(),
            ),
            nums("spec_depth", &self.spec_depths),
        ]
    }

    /// Materializes the cell at one point (level index per axis, in
    /// [`axes`](Self::axes) order).
    #[must_use]
    pub fn spec_at(&self, point: &[usize]) -> CellSpec {
        assert_eq!(point.len(), 7, "a point indexes all seven axes");
        CellSpec {
            work: self.work.clone(),
            policy: self.policies[point[0]],
            predictor: self.predictors[point[1]],
            threads: self.threads,
            fetch_threads: self.fetch_threads[point[2]],
            fetch_width: self.fetch_widths[point[3]],
            su_depth: self.su_depths[point[4]],
            cache: self.caches[point[5]],
            spec_depth: self.spec_depths[point[6]],
        }
    }

    /// IPC ceiling for scalarization: no machine retires more than its
    /// total fetch bandwidth per cycle.
    #[must_use]
    pub fn value_bound(&self) -> f64 {
        let width = self.fetch_widths.iter().copied().max().unwrap_or(1);
        let ports = self.fetch_threads.iter().copied().max().unwrap_or(1);
        (width * ports) as f64
    }

    /// Cost of the most expensive point. [`hardware_cost`] is additive
    /// per dimension, so maximizing each axis independently is exact.
    #[must_use]
    pub fn cost_bound(&self) -> f64 {
        let lens = [
            self.policies.len(),
            self.predictors.len(),
            self.fetch_threads.len(),
            self.fetch_widths.len(),
            self.su_depths.len(),
            self.caches.len(),
            self.spec_depths.len(),
        ];
        let mut point = vec![0usize; lens.len()];
        for (ai, &len) in lens.iter().enumerate() {
            let mut best = (0, f64::NEG_INFINITY);
            for level in 0..len {
                point[ai] = level;
                let cost = hardware_cost(&self.spec_at(&point));
                if cost > best.1 {
                    best = (level, cost);
                }
            }
            point[ai] = best.0;
        }
        hardware_cost(&self.spec_at(&point))
    }
}

/// The deterministic hardware-cost model, in arbitrary but fixed "gate
/// units". Nothing here is calibrated silicon — it only has to rank
/// machines plausibly and reproducibly: scheduling-unit entries are CAM
/// (2 units each), fetch bandwidth is multiported I-cache width (2 per
/// instruction slot per port), set-associativity doubles the data-cache
/// tag/way cost, ICOUNT adds its counter network, and *unlimited*
/// speculation costs the full shadow-recovery structure that a depth
/// limit lets a design shrink. Integer arithmetic throughout, so the
/// returned float is exact and platform-independent.
#[must_use]
pub fn hardware_cost(spec: &CellSpec) -> f64 {
    let policy = match spec.policy {
        FetchPolicy::TrueRoundRobin => 0,
        FetchPolicy::MaskedRoundRobin | FetchPolicy::ConditionalSwitch => 1,
        FetchPolicy::Icount => 3,
    };
    let predictor = match spec.predictor {
        PredictorKind::SharedBtb => 8,
        PredictorKind::Gshare => 6,
        PredictorKind::PartitionedBtb => 12,
    };
    let cache = match spec.cache {
        CacheKind::SetAssociative => 16,
        CacheKind::DirectMapped => 8,
    };
    let speculation = if spec.spec_depth == 0 {
        8
    } else {
        spec.spec_depth.min(8)
    };
    let units = policy
        + predictor
        + cache
        + speculation
        + 2 * spec.su_depth
        + 2 * spec.fetch_width * spec.fetch_threads;
    units as f64
}

/// Stateful evaluator over one search space: resolves points to cell
/// records — cache-first against the store, warm-forked or cold —
/// and remembers every record it produced for the frontier report.
pub struct Explorer<'a> {
    sched: &'a Scheduler,
    /// The region being explored.
    pub space: SearchSpace,
    mode: EvalMode,
    /// The shared warm snapshot (one per explorer: work and threads are
    /// fixed across the space).
    warm_snap: Option<Snapshot>,
    records: BTreeMap<Vec<usize>, (CellSpec, CellRecord)>,
}

impl<'a> Explorer<'a> {
    /// Opens the warm namespaces under the scheduler's store.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors creating the `cells-warm`/`warm`
    /// subdirectories.
    pub fn new(sched: &'a Scheduler, space: SearchSpace, mode: EvalMode) -> io::Result<Self> {
        fs::create_dir_all(sched.out().join("cells-warm"))?;
        fs::create_dir_all(sched.out().join("warm"))?;
        Ok(Explorer {
            sched,
            space,
            mode,
            warm_snap: None,
            records: BTreeMap::new(),
        })
    }

    /// How this explorer measures IPC.
    #[must_use]
    pub fn mode(&self) -> EvalMode {
        self.mode
    }

    /// Evaluates one point: measured IPC (to maximize) against hardware
    /// cost (to minimize); infeasible cells report `feasible: false`.
    ///
    /// # Panics
    ///
    /// Panics if a simulation faults or a forked run produces a wrong
    /// architectural answer — approximation must never corrupt results.
    pub fn objectives(&mut self, point: &[usize]) -> Objectives {
        let spec = self.space.spec_at(point);
        let rec = match self.mode {
            EvalMode::Full => self.sched.run_cell(&spec, false, &mut |_| {}).rec,
            EvalMode::Warm { warmup } => self.warm_record(&spec, warmup),
        };
        let o = Objectives {
            value: rec.ipc,
            cost: hardware_cost(&spec),
            feasible: rec.status == CellStatus::Done,
        };
        self.records.insert(point.to_vec(), (spec, rec));
        o
    }

    /// The record a previous [`objectives`](Self::objectives) call
    /// produced for `point`.
    #[must_use]
    pub fn record(&self, point: &[usize]) -> Option<&(CellSpec, CellRecord)> {
        self.records.get(point)
    }

    /// One warm-forked measurement: the cell producer in the warm
    /// namespace, forking from the shared warm snapshot.
    fn warm_record(&mut self, spec: &CellSpec, warmup: u64) -> CellRecord {
        let (sched, space, memo) = (self.sched, &self.space, &mut self.warm_snap);
        let mut warm = |programs: &[Program]| {
            shared_warm(sched, space, memo, programs, warmup)
                // The kernel is too short (or otherwise unable) to warm:
                // the cell runs cold, recorded under its warm id so the
                // trajectory stays self-contained, and says why.
                .map_err(|why| format!("warm fallback: {why}"))
        };
        let ns = Namespace::Warm {
            warmup,
            warm: &mut warm,
        };
        sched.produce(spec, ns, false, &mut |_| {}).rec
    }
}

/// The shared warm snapshot for `space`'s `(work, threads)`, memoized in
/// `memo` and on disk.
fn shared_warm(
    sched: &Scheduler,
    space: &SearchSpace,
    memo: &mut Option<Snapshot>,
    programs: &[Program],
    warmup: u64,
) -> Result<Snapshot, String> {
    if let Some(snap) = memo {
        return Ok(snap.clone());
    }
    let code_version = &sched.opts().code_version;
    let path = sched.out().join("warm").join(format!(
        "{}-t{}-w{warmup}.warm",
        space.work.id_part(),
        space.threads
    ));
    let expected: Vec<u64> = programs.iter().map(program_identity).collect();
    let snap = match load_snapshot(&path, code_version)
        .filter(|s| s.warm.is_some() && s.program_hashes == expected)
    {
        Some(snap) => snap,
        None => {
            let snap = make_warm(programs, space.threads, warmup)?;
            save_snapshot(&path, code_version, &snap)
                .map_err(|e| format!("cannot persist warm snapshot: {e}"))?;
            snap
        }
    };
    *memo = Some(snap.clone());
    Ok(snap)
}

/// Builds the shared warm checkpoint: canonical machine, `warmup`
/// cycles, drain to quiescence, relaxed-identity snapshot.
fn make_warm(programs: &[Program], threads: usize, warmup: u64) -> Result<Snapshot, String> {
    let config = SimConfig::default().with_threads(threads);
    let mut sim = Simulator::try_new(config, programs)
        .map_err(|e| format!("canonical warmup machine rejected: {e}"))?;
    for _ in 0..warmup {
        if sim.finished() {
            return Err(format!("kernel retired within the {warmup}-cycle warmup"));
        }
        sim.step().map_err(|e| format!("warmup failed: {e}"))?;
    }
    sim.drain().map_err(|e| format!("drain failed: {e}"))?;
    if sim.finished() {
        return Err(format!("kernel retired within the {warmup}-cycle warmup"));
    }
    sim.checkpoint_warm(&warm::relax_all())
        .map_err(|e| format!("warm checkpoint failed: {e}"))
}

/// What [`run_search`] produced and where it wrote the artifacts.
pub struct SearchReport {
    /// The engine's raw outcome (evaluations, climb log, frontier).
    pub outcome: SearchOutcome,
    /// The frontier as concrete cells with their records, in the
    /// engine's canonical order (ascending cost).
    pub frontier: Vec<(CellSpec, CellRecord)>,
    /// The reproducible trajectory artifact.
    pub trajectory_path: PathBuf,
    /// The human-facing frontier report.
    pub frontier_path: PathBuf,
    /// The digest the trajectory artifact embeds — equal across runs
    /// iff the artifacts are byte-equal.
    pub trajectory_hash: u64,
}

/// Renders the frontier report: one JSON object per frontier cell, in
/// ascending-cost order, with the same deterministic float rendering as
/// `results.json`.
#[must_use]
pub fn frontier_json(frontier: &[(CellSpec, CellRecord)]) -> String {
    let mut out = String::from("[\n");
    for (i, (spec, rec)) in frontier.iter().enumerate() {
        out.push_str(&object_to_json(&[
            ("id", Cell::Text(rec.id.clone())),
            ("workload", Cell::Text(spec.work.name())),
            ("policy", Cell::Text(spec.policy.abbrev().into())),
            ("predictor", Cell::Text(spec.predictor.abbrev().into())),
            ("threads", Cell::Int(spec.threads as u64)),
            ("fetch_threads", Cell::Int(spec.fetch_threads as u64)),
            ("fetch_width", Cell::Int(spec.fetch_width as u64)),
            ("su_depth", Cell::Int(spec.su_depth as u64)),
            ("cache", Cell::Text(spec.cache.abbrev().into())),
            ("spec_depth", Cell::Int(spec.spec_depth as u64)),
            ("ipc", Cell::Float(rec.ipc)),
            ("cost", Cell::Float(hardware_cost(spec))),
            ("cycles", Cell::Int(rec.cycles)),
            ("committed", Cell::Int(rec.committed)),
        ]));
        out.push_str(if i + 1 < frontier.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    out
}

/// Runs the deterministic Pareto search over `space` on `sched`'s
/// store, writing `search_trajectory.json` (byte-identical across
/// re-runs, including resumed ones) and `search_frontier.json` into the
/// store directory. `params.value_bound`/`cost_bound` are overwritten
/// from the space so scalarization is a pure function of the region.
///
/// # Errors
///
/// Fails on filesystem errors; simulation faults panic (as everywhere
/// in the sweep layer).
pub fn run_search(
    sched: &Scheduler,
    space: &SearchSpace,
    mode: EvalMode,
    params: &SearchParams,
) -> io::Result<SearchReport> {
    let mut explorer = Explorer::new(sched, space.clone(), mode)?;
    let axes = space.axes();
    let params = SearchParams {
        value_bound: space.value_bound(),
        cost_bound: space.cost_bound(),
        ..*params
    };
    let outcome = smt_search::search(&axes, &params, |p| explorer.objectives(p));
    let frontier: Vec<(CellSpec, CellRecord)> = outcome
        .frontier
        .iter()
        .map(|e| {
            explorer
                .record(&e.point)
                .expect("every frontier point was evaluated")
                .clone()
        })
        .collect();
    let trajectory_path = sched.out().join("search_trajectory.json");
    write_atomic(
        &trajectory_path,
        smt_search::trajectory_json(&axes, &params, &outcome).as_bytes(),
    )?;
    let frontier_path = sched.out().join("search_frontier.json");
    write_atomic(&frontier_path, frontier_json(&frontier).as_bytes())?;
    Ok(SearchReport {
        trajectory_hash: smt_search::trajectory_digest(&axes, &params, &outcome),
        outcome,
        frontier,
        trajectory_path,
        frontier_path,
    })
}

/// Evaluates *every* point of `space` and returns all evaluations plus
/// the brute-force Pareto frontier — the ground truth the searched
/// frontier is compared against on small spaces.
///
/// # Errors
///
/// Fails on filesystem errors opening the warm namespaces.
pub fn run_exhaustive(
    sched: &Scheduler,
    space: &SearchSpace,
    mode: EvalMode,
) -> io::Result<(Vec<Evaluation>, Vec<Evaluation>)> {
    let mut explorer = Explorer::new(sched, space.clone(), mode)?;
    Ok(smt_search::exhaustive(&space.axes(), |p| {
        explorer.objectives(p)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt_workloads::WorkloadKind;

    fn space() -> SearchSpace {
        SearchSpace::smoke(WorkloadKind::Sieve.into(), 2)
    }

    #[test]
    fn axes_and_points_map_onto_cells() {
        let s = space();
        let axes = s.axes();
        assert_eq!(axes.len(), 7);
        assert_eq!(axes[0].levels, ["trr", "ic"]);
        assert_eq!(axes[4].levels, ["16", "32"]);
        let spec = s.spec_at(&[1, 0, 0, 0, 1, 1, 1]);
        assert_eq!(spec.policy, FetchPolicy::Icount);
        assert_eq!(spec.su_depth, 32);
        assert_eq!(spec.cache, CacheKind::DirectMapped);
        assert_eq!(spec.spec_depth, 2);
        assert_eq!(spec.threads, 2);
    }

    #[test]
    fn cost_model_is_additive_and_orders_plausibly() {
        let base = space().spec_at(&[0, 0, 0, 0, 0, 0, 0]);
        let deeper = CellSpec {
            su_depth: base.su_depth + 16,
            ..base.clone()
        };
        assert_eq!(
            hardware_cost(&deeper) - hardware_cost(&base),
            32.0,
            "2 units per SU entry"
        );
        let dm = CellSpec {
            cache: CacheKind::DirectMapped,
            ..base.clone()
        };
        assert!(hardware_cost(&dm) < hardware_cost(&base));
        let limited = CellSpec {
            spec_depth: 2,
            ..base.clone()
        };
        assert!(
            hardware_cost(&limited) < hardware_cost(&base),
            "a speculation limit shrinks recovery hardware"
        );
    }

    #[test]
    fn cost_bound_dominates_every_point_of_the_space() {
        let s = space();
        let bound = s.cost_bound();
        let (evals, _) = smt_search::exhaustive(&s.axes(), |p| Objectives {
            value: 0.0,
            cost: hardware_cost(&s.spec_at(p)),
            feasible: true,
        });
        for e in &evals {
            assert!(e.objectives.cost <= bound, "{:?}", e.point);
        }
        assert!(evals.iter().any(|e| e.objectives.cost == bound));
    }

    #[test]
    fn warm_snapshot_files_fail_closed() {
        let dir = std::env::temp_dir().join(format!("smt-warm-io-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.warm");
        assert!(load_snapshot(&path, "v").is_none(), "absent file");
        fs::write(&path, b"garbage").unwrap();
        assert!(load_snapshot(&path, "v").is_none(), "unparseable file");
        let _ = fs::remove_dir_all(&dir);
    }
}
