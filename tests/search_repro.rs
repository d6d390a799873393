//! Reproducibility and correctness properties of the Pareto search.
//!
//! Three guarantees, each load-bearing for trusting a searched frontier
//! as much as an exhaustive sweep:
//!
//! 1. **Byte-identical trajectories.** `search_trajectory.json` is the
//!    same byte-for-byte across re-runs over a warm store, across
//!    fresh stores, and across a kill/resume (simulated here as a store
//!    pre-populated with a prefix of the search's evaluations — exactly
//!    what a killed run leaves behind).
//! 2. **True frontier.** On a space small enough to enumerate, every
//!    searched frontier point is non-dominated against the brute-force
//!    evaluation of *all* points, and the searched frontier equals the
//!    exhaustive one as a set.
//! 3. **Warm ≡ full selection.** Warm-forked measurement approximates
//!    IPC but must not change *which* machines win: the warm-mode and
//!    full-mode searches select the same frontier point set.
//! 4. **Fail-closed warm store.** A corrupted warm record is re-simulated
//!    — that point and no other — and the artifacts do not move.

use std::fs;
use std::path::{Path, PathBuf};

use smt_experiments::explore::{run_exhaustive, run_search, EvalMode, Explorer, SearchSpace};
use smt_experiments::sweep::{Scheduler, SweepOptions};
use smt_search::{dominates, SearchParams};
use smt_workloads::{Scale, WorkloadKind};

/// Long enough at test scale to genuinely fork (no cold fallback).
const WARMUP: u64 = 300;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smt-search-repro-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sched(out: &Path) -> Scheduler {
    let opts = SweepOptions {
        scale: Scale::Test,
        ..SweepOptions::default()
    };
    Scheduler::new(out, opts).expect("store opens")
}

fn space() -> SearchSpace {
    SearchSpace::smoke(WorkloadKind::Laplace.into(), 2)
}

fn params() -> SearchParams {
    SearchParams {
        seed: 7,
        ..SearchParams::default()
    }
}

#[test]
fn trajectory_is_byte_identical_across_reruns_fresh_stores_and_resume() {
    let mode = EvalMode::Warm { warmup: WARMUP };

    // Reference run on a fresh store.
    let out_a = scratch("traj-a");
    let s_a = sched(&out_a);
    let first = run_search(&s_a, &space(), mode, &params()).expect("search runs");
    let reference = fs::read(&first.trajectory_path).expect("trajectory written");
    assert!(!reference.is_empty());

    // Re-run over the now-warm store: every cell comes from cache, the
    // artifact must not move by a byte.
    let again = run_search(&s_a, &space(), mode, &params()).expect("re-search runs");
    assert_eq!(
        fs::read(&again.trajectory_path).expect("rewritten"),
        reference,
        "warm-store re-run must reproduce the trajectory byte-for-byte"
    );
    assert_eq!(again.trajectory_hash, first.trajectory_hash);

    // A different fresh store: nothing cached, same bytes.
    let out_b = scratch("traj-b");
    let fresh = run_search(&sched(&out_b), &space(), mode, &params()).expect("fresh search");
    assert_eq!(
        fs::read(&fresh.trajectory_path).expect("written"),
        reference,
        "the trajectory must not depend on store contents or location"
    );

    // Kill/resume: a killed search leaves behind some prefix of its
    // evaluations (warm cells + the shared warm snapshot) and no
    // trajectory. Simulate exactly that — pre-populate a store with a
    // few of the cells the search will visit — and run the search to
    // completion over it.
    let out_c = scratch("traj-resume");
    let s_c = sched(&out_c);
    let mut prefix = Explorer::new(&s_c, space(), mode).expect("warm namespaces open");
    for point in [
        [0, 0, 0, 0, 0, 0, 0],
        [1, 0, 0, 0, 1, 1, 1],
        [0, 0, 0, 0, 1, 0, 1],
    ] {
        prefix.objectives(&point);
    }
    drop(prefix);
    let resumed = run_search(&s_c, &space(), mode, &params()).expect("resumed search");
    assert_eq!(
        fs::read(&resumed.trajectory_path).expect("written"),
        reference,
        "resuming over a partial store must converge on the same bytes"
    );
    assert_eq!(resumed.trajectory_hash, first.trajectory_hash);

    // The frontier report is equally deterministic.
    assert_eq!(
        fs::read(&resumed.frontier_path).expect("frontier"),
        fs::read(&first.frontier_path).expect("frontier"),
    );
    for out in [out_a, out_b, out_c] {
        let _ = fs::remove_dir_all(&out);
    }
}

#[test]
fn searched_frontier_is_the_brute_force_pareto_frontier() {
    let out = scratch("frontier");
    let s = sched(&out);
    let mode = EvalMode::Warm { warmup: WARMUP };

    let (all, exhaustive) = run_exhaustive(&s, &space(), mode).expect("exhaustive enumeration");
    assert_eq!(all.len(), 16, "the smoke space enumerates completely");
    let searched = run_search(&s, &space(), mode, &params()).expect("search runs");

    // Every searched frontier point is non-dominated against *all*
    // evaluated points — the definition, checked by brute force.
    for f in &searched.outcome.frontier {
        for e in &all {
            assert!(
                !dominates(&e.objectives, &f.objectives),
                "{:?} dominates searched frontier point {:?}",
                e.point,
                f.point
            );
        }
    }

    // And the searched frontier is exactly the exhaustive one.
    let points = |evals: &[smt_search::Evaluation]| -> Vec<Vec<usize>> {
        evals.iter().map(|e| e.point.clone()).collect()
    };
    assert_eq!(
        points(&searched.outcome.frontier),
        points(&exhaustive),
        "the search must recover the true Pareto frontier on the smoke space"
    );
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn warm_and_full_searches_select_the_same_frontier() {
    let out = scratch("warm-vs-full");
    let s = sched(&out);

    let full = run_search(&s, &space(), EvalMode::Full, &params()).expect("full-mode search");
    let warm = run_search(&s, &space(), EvalMode::Warm { warmup: WARMUP }, &params())
        .expect("warm-mode search");

    // The warm records must come from real forks, or the comparison is
    // vacuous (a fallback re-runs the exact path).
    assert!(
        warm.frontier.iter().all(|(_, rec)| rec.reason.is_empty()),
        "warm frontier contains fallback cells: {:?}",
        warm.frontier
            .iter()
            .map(|(_, r)| (&r.id, &r.reason))
            .collect::<Vec<_>>()
    );

    let ids = |report: &smt_experiments::explore::SearchReport| -> Vec<String> {
        report.frontier.iter().map(|(spec, _)| spec.id()).collect()
    };
    assert_eq!(
        ids(&warm),
        ids(&full),
        "approximate measurement must select the same machines \
         (warm ipc: {:?}, full ipc: {:?})",
        warm.frontier.iter().map(|(_, r)| r.ipc).collect::<Vec<_>>(),
        full.frontier.iter().map(|(_, r)| r.ipc).collect::<Vec<_>>(),
    );
    let _ = fs::remove_dir_all(&out);
}

#[test]
fn a_tampered_warm_record_re_simulates_only_that_point() {
    let mode = EvalMode::Warm { warmup: WARMUP };
    let out = scratch("warm-tamper");
    let first = run_search(&sched(&out), &space(), mode, &params()).expect("search runs");
    let artifacts = |r: &smt_experiments::explore::SearchReport| {
        (
            fs::read(&r.trajectory_path).expect("trajectory"),
            fs::read(&r.frontier_path).expect("frontier"),
        )
    };
    let reference = artifacts(&first);

    // Every warm record with its write time; a re-simulated point is
    // rewritten (atomically, so with a new write time), a cache hit is not.
    let records = || -> Vec<(PathBuf, std::time::SystemTime)> {
        let mut files: Vec<_> = fs::read_dir(out.join("cells-warm"))
            .expect("warm namespace")
            .map(|e| {
                let path = e.expect("dir entry").path();
                let written = fs::metadata(&path).and_then(|m| m.modified());
                (path, written.expect("mtime"))
            })
            .collect();
        files.sort();
        files
    };
    let before = records();
    assert!(before.len() > 1, "the search visits several points");
    let victim = before[0].0.clone();
    let clean = fs::read_to_string(&victim).expect("warm record");
    let tampered: String = clean
        .lines()
        .map(|l| match l.strip_prefix("hit_rate=") {
            Some(v) => format!("hit_rate=9{v}\n"),
            None => format!("{l}\n"),
        })
        .collect();
    assert_ne!(tampered, clean);
    fs::write(&victim, tampered).expect("tamper warm record");
    let before = records();

    // A fresh scheduler, as a new `sweep --search` process would open.
    let again = run_search(&sched(&out), &space(), mode, &params()).expect("search reruns");
    assert_eq!(artifacts(&again), reference, "the artifacts do not move");
    assert_eq!(
        fs::read_to_string(&victim).expect("warm record"),
        clean,
        "the tampered point is re-simulated"
    );
    let after = records();
    for ((path, was), (_, now)) in before.iter().zip(&after) {
        assert_eq!(
            was != now,
            *path == victim,
            "only the tampered point is rewritten: {}",
            path.display()
        );
    }
    let _ = fs::remove_dir_all(&out);
}
