//! Sweep-cache correctness: hits are bit-identical, invalidation is
//! per-cell, staleness fails closed, and mid-flight checkpoints resume.
//!
//! The sweep engine's promise is that `results.json` depends only on the
//! grid and the code — never on how many times, in how many pieces, or
//! over which warm caches the sweep ran. These tests interrupt, tamper
//! with, and version-skew the on-disk state and demand byte-equality
//! every time.

use std::fs;
use std::path::{Path, PathBuf};

use smt_experiments::sweep::{plant_checkpoint, run_sweep, CellSpec, Grid, SweepOptions};
use smt_superscalar::core::{FetchPolicy, PredictorKind, Simulator};
use smt_superscalar::mem::CacheKind;
use smt_workloads::{workload, Scale, WorkloadKind};

/// A fresh scratch directory under the target dir (kept out of `/tmp` so
/// sandboxed test runners always have it writable).
fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target/sweep-tests")).join(name);
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_grid() -> Grid {
    Grid {
        workloads: vec![WorkloadKind::Sieve.into()],
        policies: vec![FetchPolicy::TrueRoundRobin, FetchPolicy::ConditionalSwitch],
        predictors: vec![PredictorKind::SharedBtb],
        threads: vec![1, 4],
        fetch_threads: vec![1],
        fetch_widths: vec![4],
        su_depths: vec![32],
        caches: vec![CacheKind::SetAssociative],
        spec_depths: vec![0],
    }
}

fn opts() -> SweepOptions {
    SweepOptions {
        scale: Scale::Test,
        workers: 2,
        checkpoint_every: Some(500),
        code_version: "test-v1".to_string(),
        corpus: None,
    }
}

fn results(dir: &Path) -> String {
    fs::read_to_string(dir.join("results.json")).expect("results.json exists")
}

/// Reads every cell file into `(name, bytes)`, sorted by name.
fn cell_files(out: &Path) -> Vec<(String, Vec<u8>)> {
    let mut cells: Vec<(String, Vec<u8>)> = fs::read_dir(out.join("cells"))
        .expect("cells dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().into_string().expect("utf-8 name"),
                fs::read(e.path()).expect("cell file"),
            )
        })
        .collect();
    cells.sort();
    cells
}

#[test]
fn cache_hits_are_bit_identical_and_skip_reruns() {
    let grid = small_grid();
    let dir = scratch("hits");
    let first = run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    assert_eq!(first.total, 4);
    assert_eq!(first.executed, 4, "a cold cache executes every cell");
    let cold = results(&dir);

    let second = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(second.executed, 0, "a warm cache executes nothing");
    assert_eq!(second.cached, 4);
    assert_eq!(results(&dir), cold, "cache hits serialize byte-identically");

    // Another directory, one worker instead of two, and a denser
    // checkpoint cadence: workers only decide which thread steals which
    // cell, so the merged results and every content-addressed cell file
    // come out the same.
    let other = scratch("hits-independent");
    let one_worker = SweepOptions {
        workers: 1,
        checkpoint_every: Some(200),
        ..opts()
    };
    run_sweep(&grid, &other, &one_worker).expect("independent sweep runs");
    assert_eq!(
        results(&other),
        cold,
        "results depend only on grid and code, not on the directory's history"
    );
    assert_eq!(cell_files(&other), cell_files(&dir));
}

#[test]
fn stale_cache_fails_closed_per_cell() {
    let grid = small_grid();
    let dir = scratch("stale");
    run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    let reference = results(&dir);

    // Tamper with exactly one record's config hash: that cell — and only
    // that cell — must be re-simulated, and the merged results must come
    // out unchanged.
    let victim = dir.join("cells").join("sieve-trr-t4-su32-sa.cell");
    let tampered: String = fs::read_to_string(&victim)
        .expect("cell file exists")
        .lines()
        .map(|l| {
            if l.starts_with("config_hash=") {
                "config_hash=0x0000000000000001\n".to_string()
            } else {
                format!("{l}\n")
            }
        })
        .collect();
    fs::write(&victim, tampered).expect("tamper cell file");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(summary.executed, 1, "only the invalid cell is re-run");
    assert_eq!(summary.cached, 3);
    assert_eq!(results(&dir), reference);

    // A truncated (torn) record is equally untrusted.
    fs::write(&victim, "id=sieve-trr-t4-su32-sa\nstatus=done\n").expect("truncate cell file");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(summary.executed, 1, "a malformed cell is re-run");
    assert_eq!(results(&dir), reference);

    // A code-version bump invalidates every cell at once.
    let bumped = SweepOptions {
        code_version: "test-v2".to_string(),
        ..opts()
    };
    let summary = run_sweep(&grid, &dir, &bumped).expect("sweep reruns");
    assert_eq!(summary.executed, 4, "a new code version trusts nothing");
    assert_eq!(summary.cached, 0);
    assert_eq!(
        results(&dir),
        reference,
        "the re-simulated space is byte-identical (the code did not actually change)"
    );
}

/// `clean` with a `9` prefixed to the value of `key`: still a well-formed
/// number, but no longer the measurement the record was written with.
fn tamper(clean: &str, key: &str) -> String {
    clean
        .lines()
        .map(
            |l| match l.strip_prefix(key).and_then(|v| v.strip_prefix('=')) {
                Some(v) => format!("{key}=9{v}\n"),
                None => format!("{l}\n"),
            },
        )
        .collect()
}

#[test]
fn corrupted_measurements_fail_closed() {
    let grid = small_grid();
    let dir = scratch("corrupt");
    run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    let reference = results(&dir);

    // A corrupted measurement keeps every key field intact; the record's
    // checksum exposes it (and for `cycles`, so does the record's own
    // `ipc == committed / cycles`). That cell — and only that cell — must
    // be re-simulated, and the merged results must come out
    // byte-identical to the clean run.
    let victim = dir.join("cells").join("sieve-trr-t4-su32-sa.cell");
    let clean = fs::read_to_string(&victim).expect("cell file exists");
    for key in ["cycles", "hit_rate", "branch_accuracy", "su_stalls"] {
        let tampered = tamper(&clean, key);
        assert_ne!(tampered, clean, "{key} is in the record");
        fs::write(&victim, tampered).expect("tamper cell file");
        let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
        assert_eq!(
            summary.executed, 1,
            "only the cell with a corrupted {key} is re-run"
        );
        assert_eq!(summary.cached, 3);
        assert_eq!(results(&dir), reference);
    }

    // A record that repeats a key is equally untrusted, whichever copy of
    // the key a parser would believe.
    fs::write(&victim, format!("{clean}hit_rate=0.0\n")).expect("duplicate a key");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(
        summary.executed, 1,
        "a record with a repeated key is re-run"
    );
    assert_eq!(results(&dir), reference);
}

#[test]
fn mid_flight_checkpoints_resume_instead_of_restarting() {
    let spec = CellSpec {
        work: WorkloadKind::Sieve.into(),
        policy: FetchPolicy::TrueRoundRobin,
        predictor: PredictorKind::SharedBtb,
        threads: 4,
        fetch_threads: 1,
        fetch_width: 4,
        su_depth: 32,
        cache: CacheKind::SetAssociative,
        spec_depth: 0,
    };
    let grid = Grid {
        workloads: vec![spec.work.clone()],
        policies: vec![spec.policy],
        predictors: vec![spec.predictor],
        threads: vec![spec.threads],
        fetch_threads: vec![spec.fetch_threads],
        fetch_widths: vec![spec.fetch_width],
        su_depths: vec![spec.su_depth],
        caches: vec![spec.cache],
        spec_depths: vec![spec.spec_depth],
    };

    // Reference: the cell simulated in one piece.
    let reference_dir = scratch("resume-reference");
    run_sweep(&grid, &reference_dir, &opts()).expect("reference sweep runs");
    let reference = results(&reference_dir);

    // Interrupted: a snapshot from cycle 200, planted as a kill would
    // leave it, must be picked up (resumed == 1) and finish identically.
    let program = workload(WorkloadKind::Sieve, Scale::Test)
        .build(spec.threads)
        .expect("sieve fits 4 threads");
    let mut sim = Simulator::new(spec.config(), &program);
    for _ in 0..200 {
        sim.step().expect("prefix steps complete");
    }
    assert!(!sim.finished(), "the interruption point is mid-run");
    let dir = scratch("resume");
    plant_checkpoint(&dir, &spec, "test-v1", &sim.checkpoint()).expect("plant snapshot");
    let summary = run_sweep(&grid, &dir, &opts()).expect("resumed sweep runs");
    assert_eq!(summary.resumed, 1, "the planted snapshot is resumed");
    assert_eq!(summary.executed, 1);
    assert_eq!(results(&dir), reference, "resume-then-run is unobservable");
    assert!(
        !dir.join("ckpt").join("sieve-trr-t4-su32-sa.ckpt").exists(),
        "a completed cell deletes its snapshot"
    );

    // A snapshot from a different code version is not trusted: the cell
    // restarts from cycle 0 and still produces identical results.
    let dir = scratch("resume-stale");
    plant_checkpoint(&dir, &spec, "some-other-version", &sim.checkpoint()).expect("plant snapshot");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep runs");
    assert_eq!(summary.resumed, 0, "a version-skewed snapshot is ignored");
    assert_eq!(summary.executed, 1);
    assert_eq!(results(&dir), reference);
}

#[test]
fn infeasible_cells_are_recorded_and_cached_not_fatal() {
    // LL3 needs 17 registers, one more than an 8-thread partition provides
    // (the checkpoint test pins the same fact via the typed error).
    let grid = Grid {
        workloads: vec![WorkloadKind::Ll3.into()],
        policies: vec![FetchPolicy::TrueRoundRobin],
        predictors: vec![PredictorKind::SharedBtb],
        threads: vec![4, 8],
        fetch_threads: vec![1],
        fetch_widths: vec![4],
        su_depths: vec![32],
        caches: vec![CacheKind::SetAssociative],
        spec_depths: vec![0],
    };
    let dir = scratch("infeasible");
    let summary = run_sweep(&grid, &dir, &opts()).expect("sweep survives infeasible cells");
    assert_eq!(summary.total, 2);
    assert_eq!(
        summary.infeasible, 1,
        "the 8-thread cell is a hole, not an abort"
    );
    let json = results(&dir);
    assert!(json.contains("\"status\": \"infeasible\""), "{json}");
    assert!(json.contains("\"status\": \"done\""), "{json}");

    let again = run_sweep(&grid, &dir, &opts()).expect("sweep reruns");
    assert_eq!(again.cached, 2, "infeasible records cache like any other");
    assert_eq!(again.executed, 0);
}
