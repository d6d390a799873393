//! The traced run: each workload's work repeated through public calls,
//! with a span around every call into a layer.
//!
//! Where the real path hides a layer inside one call (`run_cell` builds,
//! simulates, verifies and persists; `objectives` forks and simulates;
//! `prewarm` simulates), the same cell is also replayed through the
//! layer's own public functions — `workload(..).build`,
//! `Simulator::try_new`, `run`, `Workload::check`, `fork_warm` — and the
//! replay's statistics must equal the real path's record. The replay is
//! what the `build`, `core` and `verify` spans time, and `run_cell` time
//! minus the replay of the same cell is the scheduler's own time.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use smt_checkpoint::Snapshot;
use smt_core::config::warm;
use smt_core::{SimConfig, SimStats, Simulator};
use smt_experiments::explore::{frontier_json, EvalMode, Explorer, SearchSpace};
use smt_experiments::runner::{Job, Runner};
use smt_experiments::sweep::{
    results_json, CellRecord, CellSpec, CellStatus, Grid, Scheduler, SweepOptions, WorkRef,
    WorkSpec,
};
use smt_experiments::{figures, json};
use smt_isa::Program;
use smt_search::SearchParams;
use smt_workloads::{workload, Scale, WorkloadKind};

use crate::served;
use crate::spans::Tracer;
use crate::Counters;

/// `search-warm` explores this kernel at this thread count over the full
/// space, with the `sweep` binary's default warmup.
const SEARCH_WORK: &str = "matrix";
const SEARCH_THREADS: usize = 4;
const SEARCH_WARMUP: u64 = 20_000;

pub struct TraceArgs {
    pub workload: String,
    pub seed: u64,
    pub dir: PathBuf,
    pub spans: PathBuf,
    pub addr: Option<String>,
}

fn options(scale: Scale) -> SweepOptions {
    SweepOptions {
        scale,
        workers: 1,
        ..SweepOptions::default()
    }
}

fn open(store: &Path, scale: Scale) -> Result<Scheduler, String> {
    Scheduler::new(store, options(scale)).map_err(|e| format!("{}: {e}", store.display()))
}

fn search_space() -> Result<SearchSpace, String> {
    Ok(SearchSpace::full(
        WorkSpec::parse(SEARCH_WORK)?,
        SEARCH_THREADS,
    ))
}

fn write(path: &Path, bytes: &str) -> Result<(), String> {
    fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn trace(a: &TraceArgs) -> Result<String, String> {
    fs::create_dir_all(&a.dir).map_err(|e| format!("{}: {e}", a.dir.display()))?;
    let mut tr = Tracer::new();
    let mut n = Counters::default();
    match a.workload.as_str() {
        "grid-paper" => trace_grid(&mut tr, &mut n, &a.dir)?,
        "served-test" => {
            let addr = a.addr.as_deref().ok_or("served-test needs --addr")?;
            trace_served(&mut tr, &mut n, &a.dir, addr, a.seed)?;
        }
        "search-warm" => trace_search(&mut tr, &mut n, &a.dir, a.seed)?,
        "report-paper" => trace_report(&mut tr, &mut n, &a.dir)?,
        other => return Err(format!("no workload {other:?}")),
    }
    tr.write(&a.spans)
        .map_err(|e| format!("{}: {e}", a.spans.display()))?;
    Ok(n.to_json())
}

/// Replays simulations through the layers' own public functions,
/// building each `(kernel, threads)` program once as the real paths do.
struct Replay {
    scale: Scale,
    programs: HashMap<(WorkloadKind, usize), Option<Program>>,
}

impl Replay {
    fn new(scale: Scale) -> Self {
        Replay {
            scale,
            programs: HashMap::new(),
        }
    }

    fn program(
        &mut self,
        tr: &mut Tracer,
        n: &mut Counters,
        kind: WorkloadKind,
        threads: usize,
        id: u64,
    ) -> Option<&Program> {
        let scale = self.scale;
        self.programs
            .entry((kind, threads))
            .or_insert_with(|| {
                n.add("build.calls", 1);
                tr.span("build", id, || workload(kind, scale).build(threads).ok())
            })
            .as_ref()
    }

    /// Records the model counts of one finished, verified run.
    fn finish(
        &self,
        tr: &mut Tracer,
        n: &mut Counters,
        kind: WorkloadKind,
        sim: &mut Simulator<'_>,
        id: u64,
    ) -> Option<SimStats> {
        n.add("attempted", 1);
        let Ok(stats) = tr.span("core.run", id, || sim.run()) else {
            n.add("failed", 1);
            return None;
        };
        n.add("core.cycles", stats.cycles);
        let scale = self.scale;
        let checked = tr.span("verify", id, || {
            workload(kind, scale).check(sim.memory().words())
        });
        n.add("failed", u64::from(checked.is_err()));
        n.add("model.cycles", stats.cycles);
        n.add("model.committed", stats.committed_total());
        n.add("model.su_stall_cycles", stats.su_stall_cycles);
        Some(stats)
    }

    /// One cold simulation; `None` when the kernel does not lower or the
    /// simulator rejects the configuration (the real paths record those
    /// as infeasible), or when the run fails.
    fn run(
        &mut self,
        tr: &mut Tracer,
        n: &mut Counters,
        kind: WorkloadKind,
        config: SimConfig,
        id: u64,
    ) -> Option<SimStats> {
        let threads = config.threads;
        self.program(tr, n, kind, threads, id)?;
        let program = self.programs[&(kind, threads)].as_ref()?;
        let mut sim = tr
            .span("core.new", id, || Simulator::try_new(config, program))
            .ok()?;
        self.finish(tr, n, kind, &mut sim, id)
    }
}

fn builtin(spec: &CellSpec) -> Result<WorkloadKind, String> {
    match spec.work.refs() {
        [WorkRef::Builtin(kind)] => Ok(*kind),
        _ => Err(format!("{}: not a built-in kernel", spec.id())),
    }
}

fn same_counts(stats: Option<&SimStats>, rec: &CellRecord) -> bool {
    match (stats, rec.status) {
        (Some(s), CellStatus::Done) => {
            s.cycles == rec.cycles
                && s.committed_total() == rec.committed
                && s.su_stall_cycles == rec.su_stalls
        }
        (None, CellStatus::Infeasible) => true,
        _ => false,
    }
}

/// A cold pass over `specs`: each cell through `Scheduler::run_cell` on
/// an empty store and replayed, the two in turn first from cell to cell
/// so that neither always runs on caches the other warmed. Returns the
/// records sorted by id, as `results.json` orders them.
fn cold_pass(
    tr: &mut Tracer,
    n: &mut Counters,
    sched: &Scheduler,
    replay: &mut Replay,
    specs: &[CellSpec],
) -> Result<Vec<(CellSpec, CellRecord)>, String> {
    let mut cells = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let id = i as u64;
        let kind = builtin(spec)?;
        let cell = tr.begin("cell", id);
        let mut stats = None;
        if i % 2 == 1 {
            stats = replay.run(tr, n, kind, spec.config(), id);
        }
        let out = tr.span("sched.run_cell", id, || {
            sched.run_cell(spec, false, &mut |_| {})
        });
        if i % 2 == 0 {
            stats = replay.run(tr, n, kind, spec.config(), id);
        }
        tr.end(cell);
        n.add(
            if out.ran {
                "store.misses"
            } else {
                "store.hits"
            },
            1,
        );
        n.add("attempted", 1);
        n.add("failed", u64::from(!same_counts(stats.as_ref(), &out.rec)));
        cells.push((spec.clone(), out.rec));
    }
    cells.sort_by(|a, b| a.1.id.cmp(&b.1.id));
    Ok(cells)
}

/// A rerun over a filled store, through a fresh scheduler as a new
/// `sweep` process would: each cell via `run_cell` (a cache hit), a
/// `probe`, and a parse of its stored record.
fn rerun_pass(
    tr: &mut Tracer,
    n: &mut Counters,
    store: &Path,
    scale: Scale,
    cells: &[(CellSpec, CellRecord)],
) -> Result<Vec<(CellSpec, CellRecord)>, String> {
    let sched = open(store, scale)?;
    let mut again = Vec::with_capacity(cells.len());
    for (i, (spec, rec)) in cells.iter().enumerate() {
        let id = i as u64;
        let text = fs::read_to_string(store.join("cells").join(format!("{}.cell", spec.id())))
            .unwrap_or_default();
        let cell = tr.begin("cell", id);
        let out = tr.span("sched.run_cell", id, || {
            sched.run_cell(spec, false, &mut |_| {})
        });
        let probed = tr.span("store.probe", id, || sched.probe(spec));
        let parsed = tr.span("store.parse", id, || CellRecord::parse(&text));
        tr.end(cell);
        n.add(
            if out.ran {
                "store.misses"
            } else {
                "store.hits"
            },
            1,
        );
        n.add(
            if probed.is_some() {
                "store.hits"
            } else {
                "store.misses"
            },
            1,
        );
        n.add("attempted", 1);
        let ok = !out.ran
            && &out.rec == rec
            && probed.as_ref() == Some(rec)
            && parsed.as_ref() == Some(rec);
        n.add("failed", u64::from(!ok));
        again.push((spec.clone(), out.rec));
    }
    Ok(again)
}

fn trace_grid(tr: &mut Tracer, n: &mut Counters, dir: &Path) -> Result<(), String> {
    let store = dir.join("store");
    let specs = Grid::paper().cells();
    let sched = open(&store, Scale::Paper)?;
    let mut replay = Replay::new(Scale::Paper);

    let pass = tr.begin("pass.cold", 0);
    let cells = cold_pass(tr, n, &sched, &mut replay, &specs)?;
    let bytes = tr.span("json.render", 0, || results_json(&cells));
    tr.end(pass);
    n.add("json.bytes", bytes.len() as u64);
    write(&dir.join("results.json"), &bytes)?;

    let pass = tr.begin("pass.rerun", 1);
    let again = rerun_pass(tr, n, &store, Scale::Paper, &cells)?;
    let rerun = tr.span("json.render", 1, || results_json(&again));
    tr.end(pass);
    n.add("attempted", 1);
    n.add("failed", u64::from(rerun != bytes));
    Ok(())
}

fn trace_served(
    tr: &mut Tracer,
    n: &mut Counters,
    dir: &Path,
    addr: &str,
    seed: u64,
) -> Result<(), String> {
    let pass = tr.begin("pass.client", 0);
    let store = open(&dir.join("store"), Scale::Test)?;
    let served = served::trace_client(tr, n, addr, &store, seed)?;
    tr.end(pass);
    n.add(
        "served.cycles",
        served.cells.iter().map(|(_, r)| r.cycles).sum(),
    );

    // The server's work, replayed in-process on a store of its own.
    let sched = open(&dir.join("replay"), Scale::Test)?;
    let mut replay = Replay::new(Scale::Test);
    let pass = tr.begin("pass.cold", 1);
    let cells = cold_pass(tr, n, &sched, &mut replay, &Grid::paper().cells())?;
    tr.end(pass);
    n.add("attempted", 1);
    n.add("failed", u64::from(cells != served.cells));
    Ok(())
}

/// The search's shared warm snapshot, made through the public calls the
/// explorer makes internally: canonical machine, warmup, drain, warm
/// checkpoint, then the snapshot's wire form and back.
fn warm_snapshot(tr: &mut Tracer, n: &mut Counters, program: &Program) -> Result<Snapshot, String> {
    let setup = tr.begin("search.setup", 0);
    let config = SimConfig::default().with_threads(SEARCH_THREADS);
    let mut sim = tr
        .span("core.new", 0, || Simulator::try_new(config, program))
        .map_err(|e| e.to_string())?;
    tr.span("core.run", 0, || {
        (0..SEARCH_WARMUP).try_for_each(|_| sim.step())
    })
    .map_err(|e| e.to_string())?;
    n.add("core.cycles", SEARCH_WARMUP);
    tr.span("ckpt.drain", 0, || sim.drain())
        .map_err(|e| e.to_string())?;
    let bytes = tr
        .span("ckpt.encode", 0, || {
            sim.checkpoint_warm(&warm::relax_all())
                .map(|s| s.to_bytes())
        })
        .map_err(|e| e.to_string())?;
    n.add("ckpt.bytes", bytes.len() as u64);
    let snap = tr
        .span("ckpt.decode", 0, || Snapshot::from_bytes(&bytes))
        .map_err(|e| e.to_string())?;
    tr.end(setup);
    Ok(snap)
}

fn trace_search(tr: &mut Tracer, n: &mut Counters, dir: &Path, seed: u64) -> Result<(), String> {
    let space = search_space()?;
    let axes = space.axes();
    let kind = WorkloadKind::Matrix;
    let mode = EvalMode::Warm {
        warmup: SEARCH_WARMUP,
    };
    let params = SearchParams {
        seed,
        value_bound: space.value_bound(),
        cost_bound: space.cost_bound(),
        ..SearchParams::default()
    };
    let mut replay = Replay::new(Scale::Paper);
    let program = replay
        .program(tr, n, kind, SEARCH_THREADS, 0)
        .cloned()
        .ok_or("the search kernel does not lower")?;
    let snap = warm_snapshot(tr, n, &program)?;

    let store = dir.join("store");
    let sched = open(&store, Scale::Paper)?;
    let mut artifacts = Vec::new();
    for (pass_id, pass_name) in [(0, "pass.cold"), (1, "pass.rerun")] {
        let mut explorer = Explorer::new(&sched, space.clone(), mode).map_err(|e| e.to_string())?;
        let pass = tr.begin(pass_name, pass_id);
        let search = tr.begin("search", pass_id);
        let mut evals = 0u64;
        let outcome = smt_search::search(&axes, &params, |point| {
            evals += 1;
            let o = tr.span("search.eval", evals, || explorer.objectives(point));
            if pass_id == 0 {
                // The fork this evaluation made, replayed and re-run.
                let spec = space.spec_at(point);
                let forked = tr.span("ckpt.fork", evals, || {
                    Simulator::fork_warm(spec.config(), &program, &snap)
                });
                let stats = forked.ok().and_then(|mut sim| {
                    n.add("ckpt.forks", 1);
                    replay.finish(tr, n, kind, &mut sim, evals)
                });
                let rec = &explorer.record(point).expect("just evaluated").1;
                n.add("attempted", 1);
                n.add("failed", u64::from(!same_counts(stats.as_ref(), rec)));
            }
            o
        });
        tr.end(search);
        let frontier: Vec<(CellSpec, CellRecord)> = outcome
            .frontier
            .iter()
            .map(|e| explorer.record(&e.point).expect("evaluated").clone())
            .collect();
        let rendered = tr.span("json.render", pass_id, || {
            (
                smt_search::trajectory_json(&axes, &params, &outcome),
                frontier_json(&frontier),
            )
        });
        tr.end(pass);
        if pass_id == 0 {
            n.add("search.evaluations", outcome.evaluations.len() as u64);
            n.add("search.steps", outcome.steps.len() as u64);
            n.add("json.bytes", (rendered.0.len() + rendered.1.len()) as u64);
        }
        artifacts.push(rendered);
    }
    n.add("attempted", 1);
    n.add("failed", u64::from(artifacts[0] != artifacts[1]));
    write(&dir.join("search_trajectory.json"), &artifacts[0].0)?;
    write(&dir.join("search_frontier.json"), &artifacts[0].1)
}

/// `report`'s work through `Runner` and `figures`; writes the Markdown
/// and JSON the binary prints to `report.md` and `report.json` in `dir`.
fn trace_report(tr: &mut Tracer, n: &mut Counters, dir: &Path) -> Result<(), String> {
    let scale = Scale::Paper;
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let pass = tr.begin("pass.cold", 0);
    let jobs = tr.span("runner.record", 0, || {
        let mut recorder = Runner::recorder(scale);
        for (_, generator) in figures::all() {
            let _ = generator(&mut recorder);
        }
        recorder.into_recorded()
    });
    let mut runner = Runner::new(scale);
    tr.span("runner.prewarm", 0, || runner.prewarm(&jobs, workers));
    let prewarmed = runner.sim_cycles();
    let mut markdown = String::new();
    let mut tables = Vec::new();
    for (k, (_, generator)) in figures::all().into_iter().enumerate() {
        let table = tr.span("figures.render", k as u64, || {
            let table = generator(&mut runner);
            markdown.push_str(&table.to_markdown());
            markdown.push('\n');
            table
        });
        tables.push(table);
    }
    let rendered = tr.span("json.render", 0, || json::tables_to_json(&tables));
    tr.end(pass);
    n.add("json.bytes", rendered.len() as u64);
    n.add("runner.simulations", runner.runs());
    n.add("runner.programs_built", runner.programs_built() as u64);
    n.add("runner.cycles", runner.sim_cycles());
    write(&dir.join("report.md"), &markdown)?;
    write(&dir.join("report.json"), &rendered)?;

    // The prewarmed simulations, replayed one by one.
    let mut replay = Replay::new(scale);
    let mut seen = std::collections::HashSet::new();
    let pass = tr.begin("pass.replay", 1);
    let mut replayed = 0u64;
    for (i, job) in jobs.iter().filter(|j| seen.insert(*j)).enumerate() {
        let (kind, config) = match job {
            Job::Key(key) | Job::Cpi(key) => (key.kind, key.to_config()),
            Job::Config(kind, config) => (*kind, config.as_ref().clone()),
        };
        if let Some(stats) = replay.run(tr, n, kind, config, i as u64) {
            replayed += stats.cycles;
        }
    }
    tr.end(pass);
    n.add("attempted", 1);
    n.add("failed", u64::from(replayed != prewarmed));
    Ok(())
}
