#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds the `sweep`, `serve` and `report`
binaries and the benchmark's own `perfbench` helper (release profile,
into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload for
about `--seconds` seconds, checks every output, prints a readable
summary, and prints one JSON object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics (every cold pass
starts from an empty store, so modelled caches and result stores start
cold). With `--trace 1` one untraced pass runs first, then the traced
run, and the metrics are the per-layer ones. README.md in this directory
says what each workload and metric is for.
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ("grid-paper", "served-test", "search-warm", "report-paper")
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rerun_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MB"),
)

BENCH = Path(__file__).resolve().parent
PINNED = json.loads((BENCH / "pinned.json").read_text())

# Cached reruns per pass: each takes tens of milliseconds, so many give
# a steady median.
RERUNS = 20
# Set-up-only launches before each pass, where set-up takes milliseconds.
SETUP_REPS = 10
# The search seeds cycle through the pinned pool, so every trajectory
# and frontier has a pinned digest to match.
SEARCH_POOL = len(PINNED["search"])
# Every child is killed this long after the build, so a run ends inside
# 180 s once the binaries are built.
DEADLINE_S = 170.0

measuring_since = time.monotonic()


class BenchError(Exception):
    """The benchmark cannot run here (no sources, build failure, a
    process that died): exit non-zero without a result."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def remaining():
    return DEADLINE_S - (time.monotonic() - measuring_since)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def host_tag():
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"nproc={os.cpu_count()} cpu={model!r} python={platform.python_version()}"


def cpu_times():
    """The host's aggregate CPU times from /proc/stat: `(steal, total)`
    in clock ticks, or `None` where there is no /proc/stat."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_note(before, after):
    """The share of CPU time the hypervisor gave to other guests while
    the run measured: high steal is a slow, noisy host."""
    if before is None or after is None or after[1] == before[1]:
        return "steal unknown"
    return f"steal {100.0 * (after[0] - before[0]) / (after[1] - before[1]):.1f}%"


class Server:
    """A running `serve`, launched directly (it is long-lived, so its peak
    RSS is read from /proc before it is asked to stop)."""

    def __init__(self, serve, store):
        began = time.perf_counter()
        self.p = subprocess.Popen([serve, "--store", str(store), "--scale", "test"],
                                  stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        self.killer = threading.Timer(max(1.0, remaining()), self.p.kill)
        self.killer.start()
        line = self.p.stdout.readline().decode()
        self.ready_s = time.perf_counter() - began
        if not line.startswith("serve: listening on "):
            self.stop()
            raise BenchError(f"serve did not start: {line!r}")
        self.addr = line.split()[3]

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.p.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def shutdown(self):
        host, port = self.addr.rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=30) as s:
            s.sendall(b'{"verb":"shutdown"}\n')
            s.recv(4096)
        self.wait()

    def wait(self):
        self.p.stdout.read()
        if self.p.wait() != 0:
            raise BenchError(f"serve exited with {self.p.returncode}")
        self.killer.cancel()

    def stop(self):
        if self.p.poll() is None:
            self.p.kill()
            self.p.wait()
        self.killer.cancel()


class Ran:
    """One finished program: wall seconds, seconds until it was ready
    (`None` unless asked for), and its own peak RSS in MB."""

    def __init__(self, got):
        self.elapsed = got["elapsed_s"]
        self.ready = got["ready_s"]
        self.rss = got["maxrss_kb"] / 1024.0


def run(bins, argv, out_path, err_path, ready=None, ready_text=None, stop=False):
    """Runs a program through `perfbench exec`, stdout and stderr in
    files, and returns a `Ran`. `ready` is the path whose appearance
    (holding `ready_text`, when given) marks the program's set-up as
    done; with `stop` the program is killed there (a set-up-only launch).
    The launcher kills the program when the run's deadline passes."""
    cmd = [bins["perfbench"], "exec", "--stdout", out_path, "--stderr", err_path,
           "--timeout-s", str(max(1, int(remaining())))]
    if ready is not None:
        cmd += ["--ready", str(ready)]
        if ready_text is not None:
            cmd += ["--ready-text", ready_text]
        if stop:
            cmd.append("--stop-when-ready")
    done = subprocess.run([*cmd, "--", *argv], stdin=subprocess.DEVNULL, capture_output=True)
    if done.returncode != 0:
        raise BenchError(f"launcher failed: {done.stderr.decode().strip()}")
    got = json.loads(done.stdout.decode().splitlines()[-1])
    killed = stop and got["exit"] == 128 + signal.SIGKILL
    if got["exit"] != 0 and not killed:
        raise BenchError(f"{Path(argv[0]).name} exited with {got['exit']}: "
                         f"{Path(err_path).read_text()[-500:]}")
    if ready is not None and got["ready_s"] is None:
        raise BenchError(f"{Path(argv[0]).name} ended before it was ready")
    return Ran(got)


def settle():
    """Writes back dirty file-system state before a pass, so that no pass
    pays for the previous one's writes (on a virtual disk, file creation
    can be ten times slower while a backlog drains)."""
    os.sync()


def build():
    if not (Path("Cargo.toml").is_file() and Path("crates").is_dir()):
        raise BenchError("run from the repository root: no Cargo.toml and crates/ here")
    target = Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    steps = (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "smt-experiments", "-p", "smt-serve",
         "--bin", "sweep", "--bin", "report", "--bin", "serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH.relative_to(Path.cwd().resolve()) / "Cargo.toml")],
    )
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=900)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    release = target / "release"
    return {name: str(release / name) for name in ("sweep", "serve", "report", "perfbench")}


class Workload:
    """Common state of one run: binaries, scratch directory, samples."""

    def __init__(self, args, bins, work):
        self.args = args
        self.bins = bins
        self.work = work
        self.tally = metrics.Tally()
        self.samples = {name: [] for name, _ in END_TO_END}
        self.notes = []
        self.passes = 0
        self.dirs = 0
        # Simulated cycles the binary reported on the last pass.
        self.cycles = None

    def path(self, *parts):
        return str(self.work.joinpath(*parts))

    def fresh(self, name):
        """A new directory path. The benchmark deletes no store: on a file
        system that discards freed blocks (ext4 mounted with `discard`),
        deleting thousands of cell files slows file creation for tens of
        seconds afterwards, and the next pass or run would pay for it."""
        self.dirs += 1
        return self.work / f"{name}{self.dirs}"

    def input_seed(self, k):
        """The seed pass `k` draws its inputs from; most workloads have
        no seeded input."""
        return self.args.seed

    def out(self, name):
        return self.path(f"{name}.out"), self.path(f"{name}.err")

    def measure(self):
        """Passes until `--seconds` have gone by (at least one)."""
        began = time.monotonic()
        while True:
            settle()
            self.one_pass(self.passes)
            self.passes += 1
            if time.monotonic() - began >= self.args.seconds:
                return

    def end_to_end(self):
        """Medians over the run's passes (peak RSS: the largest)."""
        values = {}
        for name, unit in END_TO_END:
            xs = self.samples[name]
            if not xs:
                raise BenchError(f"no samples of {name}")
            values[name] = max(xs) if name == "peak_rss_mb" else statistics.median(xs)
        return values

    def extra_summary(self):
        """Summary lines beyond the end-to-end metrics."""
        return []

    def launch(self, argv, name, ready, ready_text=None):
        """Runs `argv` to its end, its set-up time a `setup_s` sample."""
        ran = run(self.bins, argv, *self.out(name), ready, ready_text)
        self.samples["setup_s"].append(ran.ready)
        return ran

    def probe_setup(self):
        """One set-up-only launch: the program under test, started as the
        cold pass starts it, killed as soon as its own set-up is done.
        Repeated, these give set-up time a steady median without paying
        for whole cold passes."""
        argv, ready, ready_text = self.setup_launch(self.fresh("setup"))
        ran = run(self.bins, argv, *self.out("setup"), ready, ready_text, stop=True)
        self.samples["setup_s"].append(ran.ready)


def summary_counts(text, prefix):
    for line in text.splitlines():
        if line.startswith(prefix):
            return line
    raise BenchError(f"no {prefix!r} line in the output")


class GridPaper(Workload):
    """`sweep --grid paper --scale paper` into an empty store, then
    identical reruns over the filled store. Set-up ends when `sweep` has
    created its store (`Scheduler::new` makes `cells/`, then `ckpt/`)."""

    def argv(self, store):
        return [self.bins["sweep"], "--grid", "paper", "--scale", "paper", "--out", str(store)]

    def setup_launch(self, store):
        return self.argv(store), store / "ckpt", None

    def sweep(self, store, name, cold=False):
        o, e = self.out(name)
        if cold:
            ran = self.launch(self.argv(store), name, store / "ckpt")
        else:
            ran = run(self.bins, self.argv(store), o, e)
        line = summary_counts(Path(o).read_text(), "sweep: 990 cells, ")
        cycles = int(line.split(", ")[1].split()[0])
        cached = int(line.split("(")[1].split()[0])
        return ran, cycles, cached

    def one_pass(self, k):
        for _ in range(SETUP_REPS):
            self.probe_setup()
        store = self.fresh("store")
        ran, cycles, cached = self.sweep(store, "cold", cold=True)
        wall = ran.elapsed - ran.ready
        self.samples["wall_s"].append(wall)
        self.samples["sim_mcycles_per_s"].append(cycles / wall / 1e6)
        self.samples["peak_rss_mb"].append(ran.rss)
        self.cycles = cycles
        self.tally.ops(990)
        self.tally.check(cached == 0, "cold pass found cached cells")
        digest = sha256(store / "results.json")
        self.tally.check(digest == PINNED["grid_paper"], "results.json != pinned digest")
        self.tally.check(cycles == PINNED["grid_paper_cycles"], f"cycles {cycles} != pinned")
        for _ in range(RERUNS):
            # Set-up samples spread over the run.
            self.probe_setup()
            ran, again, cached = self.sweep(store, "rerun")
            self.samples["rerun_s"].append(ran.elapsed)
            self.samples["peak_rss_mb"].append(ran.rss)
            self.tally.ops(990, 990 - cached, "rerun simulated cells")
            self.tally.check(again == 0, "rerun simulated cycles")
            self.tally.check(sha256(store / "results.json") == digest,
                             "rerun results.json differs from the cold pass")


class ServedTest(Workload):
    """`serve --scale test` on an empty store; one client submits the
    paper grid cold, resubmits it cached, then looks cells up."""

    def __init__(self, *a):
        super().__init__(*a)
        self.lookup_ms = []
        # The batch sweep the served bytes must equal.
        ref = self.fresh("reference")
        run(self.bins, [self.bins["sweep"], "--grid", "paper", "--scale", "test",
                        "--out", str(ref)], *self.out("reference"))
        self.reference = sha256(ref / "results.json")
        self.tally.check(self.reference == PINNED["grid_test"],
                         "batch test-scale results.json != pinned digest")

    def input_seed(self, k):
        """Pass `k` looks cells up in its own seeded order."""
        return self.args.seed * 1000 + k

    def one_pass(self, k):
        store = self.fresh("store")
        server = Server(self.bins["serve"], store)
        self.samples["setup_s"].append(server.ready_s)
        results = self.path(f"served{k}.json")
        try:
            o, e = self.out("client")
            run(self.bins, [self.bins["perfbench"], "client", "--addr", server.addr,
                            "--seed", str(self.input_seed(k)), "--results", results], o, e)
            rss = server.peak_rss_mb()
            server.shutdown()
        finally:
            server.stop()
        got = json.loads(Path(o).read_text().splitlines()[-1])
        self.samples["wall_s"].append(got["cold_s"])
        self.samples["rerun_s"].extend(got["resubmit_s"])
        self.samples["sim_mcycles_per_s"].append(got["cycles"] / got["cold_s"] / 1e6)
        self.samples["peak_rss_mb"].append(rss)
        self.lookup_ms.extend(got["lookup_ms"])
        self.cycles = got["cycles"]
        self.tally.ops(got["attempted"], got["failed"], "client operations failed")
        self.tally.check(got["cycles"] == PINNED["grid_test_cycles"],
                         f"served cycles {got['cycles']} != pinned")
        self.tally.check(sha256(results) == self.reference,
                         "served results differ from the batch sweep")

    def extra_summary(self):
        n = len(self.lookup_ms)
        tail = metrics.tail_percentile(self.lookup_ms)
        lines = [
            f"request_p50_ms    {metrics.percentile(self.lookup_ms, 50):.4f} ms   (n={n})",
            f"request_p99_ms    {metrics.percentile(self.lookup_ms, 99):.4f} ms   (n={n})",
        ]
        if tail and tail[0] != 99.0:
            lines.append(f"request_p{tail[0]:g}_ms  {tail[1]:.4f} ms   (highest percentile "
                         f"with >=10 samples beyond it, n={tail[2]})")
        return lines


class SearchWarm(Workload):
    """`sweep --search matrix --threads 4 --space full --scale paper`
    into an empty store, then reruns. Set-up ends when the search has
    written its shared warm snapshot (warmup, drain, warm checkpoint).

    Two searches, with consecutive seeds, run side by side, one per core
    of the 2-core build host. With one core left idle, serial search
    times moved by up to 30 % between sets of runs minutes apart while
    the workloads that keep both cores busy held steady."""

    SIDE_BY_SIDE = 2
    SNAPSHOT = Path("warm") / "matrix-t4-w20000.warm"

    def input_seed(self, k):
        """Pass `k` searches with the next seeds of the pinned pool."""
        return (self.args.seed + self.SIDE_BY_SIDE * k) % SEARCH_POOL

    def argv(self, store, seed):
        return [self.bins["sweep"], "--search", "matrix", "--threads", "4", "--space", "full",
                "--scale", "paper", "--seed", str(seed), "--out", str(store)]

    def setup_launch(self, store):
        return self.argv(store, self.args.seed % SEARCH_POOL), store / self.SNAPSHOT, None

    def search(self, store, seed, name, cold):
        o, e = self.out(name)
        ran = run(self.bins, self.argv(store, seed), o, e,
                  store / self.SNAPSHOT if cold else None)
        line = summary_counts(Path(o).read_text(), "search: ")
        return ran, int(line.split()[1])

    def searches(self, stores, seeds, name, cold=False):
        """The searches side by side: `(each one's Ran, evaluations per
        search)`."""
        with ThreadPoolExecutor(len(stores)) as pool:
            done = list(pool.map(lambda i: self.search(stores[i], seeds[i], f"{name}{i}", cold),
                                 range(len(stores))))
        return [d[0] for d in done], [d[1] for d in done]

    def window_cycles(self, store):
        total = 0
        for f in (store / "cells-warm").iterdir():
            fields = dict(line.split("=", 1) for line in f.read_text().splitlines() if "=" in line)
            total += int(fields["cycles"])
        return total

    def artifacts(self, store):
        return (sha256(store / "search_trajectory.json"), sha256(store / "search_frontier.json"))

    def one_pass(self, k):
        first = self.input_seed(k)
        seeds = [(first + i) % SEARCH_POOL for i in range(self.SIDE_BY_SIDE)]
        # Set-up is timed on set-up-only launches, one at a time: the two
        # cold searches make their snapshots side by side, contending.
        for _ in range(SETUP_REPS):
            self.probe_setup()
        stores = [self.fresh("store") for _ in seeds]
        ran, evals = self.searches(stores, seeds, "cold", cold=True)
        # Each search's time after its set-up; the longer of the two.
        wall = max(r.elapsed - r.ready for r in ran)
        cycles = [self.window_cycles(store) for store in stores]
        self.samples["wall_s"].append(wall)
        self.samples["sim_mcycles_per_s"].append(sum(cycles) / wall / 1e6)
        self.samples["peak_rss_mb"].append(max(r.rss for r in ran))
        self.cycles, self.store = cycles[0], stores[0]
        self.tally.ops(sum(evals))
        artifacts = [self.artifacts(store) for store in stores]
        for seed, got in zip(seeds, artifacts):
            self.tally.check(got == tuple(PINNED["search"][str(seed)]),
                             f"search seed {seed}: artifacts != pinned digests")
        for _ in range(RERUNS):
            # Set-up samples spread over the run.
            self.probe_setup()
            ran, again = self.searches(stores, seeds, "rerun")
            self.samples["rerun_s"].append(max(r.elapsed for r in ran))
            self.samples["peak_rss_mb"].append(max(r.rss for r in ran))
            self.tally.ops(sum(again))
            self.tally.check([self.artifacts(store) for store in stores] == artifacts,
                             "rerun artifacts differ")


class ReportPaper(Workload):
    """`report` at paper scale, twice (today a rerun re-simulates). Set-up
    ends when `report` has recorded the simulations its tables demand and
    says it starts them (its `[report] prewarming` line)."""

    READY = "[report] prewarming"

    def argv(self, out):
        return [self.bins["report"], "--json", str(out / "report.json")]

    def setup_launch(self, out):
        out.mkdir()
        return self.argv(out), self.out("setup")[1], self.READY

    def report(self, name, out):
        o, e = self.out(name)
        ran = self.launch(self.argv(out), name, e, self.READY)
        line = summary_counts(Path(e).read_text(), "[report] total verified simulations: ")
        sims = int(line.split(": ")[1].split()[0])
        cycles = int(line.split("(")[1].split()[0])
        self.tally.ops(sims)
        self.tally.check(Path(o).read_bytes() == Path("results/report.md").read_bytes(),
                         "report stdout != results/report.md")
        self.tally.check((out / "report.json").read_bytes()
                         == Path("results/paper_scale.json").read_bytes(),
                         "report --json != results/paper_scale.json")
        return ran, cycles

    def one_pass(self, k):
        for _ in range(SETUP_REPS):
            self.probe_setup()
        out = self.fresh("out")
        out.mkdir()
        ran, cycles = self.report("cold", out)
        wall = ran.elapsed - ran.ready
        self.samples["wall_s"].append(wall)
        self.samples["sim_mcycles_per_s"].append(cycles / wall / 1e6)
        self.samples["peak_rss_mb"].append(ran.rss)
        self.cycles = cycles
        ran, _ = self.report("rerun", out)
        self.samples["rerun_s"].append(ran.elapsed)
        self.samples["peak_rss_mb"].append(ran.rss)


CLASSES = {
    "grid-paper": GridPaper,
    "served-test": ServedTest,
    "search-warm": SearchWarm,
    "report-paper": ReportPaper,
}


def traced(w):
    """One untraced pass, then the traced run; returns per-layer metrics."""
    settle()
    w.one_pass(0)
    w.passes = 1
    untraced = (statistics.median(w.samples["setup_s"]) + w.samples["wall_s"][0]
                + statistics.median(w.samples["rerun_s"]))
    reported = w.cycles
    spans_path = w.work / "spans.jsonl"
    d = w.fresh("traced")
    # The traced run uses the inputs of the untraced pass it follows.
    argv = [w.bins["perfbench"], "trace", "--workload", w.args.workload,
            "--seed", str(w.input_seed(0)), "--dir", str(d), "--spans", str(spans_path)]
    server = None
    if w.args.workload == "served-test":
        server = Server(w.bins["serve"], d / "store")
        argv += ["--addr", server.addr]
    settle()
    t = time.monotonic()
    try:
        o, e = w.out("trace")
        run(w.bins, argv, o, e)
        if server:
            server.wait()
    finally:
        if server:
            server.stop()
    traced_s = time.monotonic() - t
    counters = json.loads(Path(o).read_text().splitlines()[-1])
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    w.tally.ops(counters.get("attempted", 0), counters.get("failed", 0),
                "traced run: replay differs from the real path")

    # The traced run must have done the work the untraced run did.
    model = counters.get("model.cycles", 0)
    if w.args.workload == "served-test":
        model = counters.get("served.cycles", 0)
        w.tally.check(counters.get("model.cycles") == model, "replayed cycles != served cycles")
    if w.args.workload == "report-paper":
        w.tally.check(counters.get("runner.cycles") == reported, "traced runner cycles != report's")
        w.tally.check((d / "report.md").read_bytes() == Path("results/report.md").read_bytes(),
                      "traced markdown != results/report.md")
        w.tally.check((d / "report.json").read_bytes()
                      == Path("results/paper_scale.json").read_bytes(),
                      "traced JSON != results/paper_scale.json")
    else:
        w.tally.check(model == reported, f"traced model.cycles {model} != reported {reported}")
    if w.args.workload == "grid-paper":
        w.tally.check(sha256(d / "results.json") == PINNED["grid_paper"],
                      "traced results.json != pinned digest")
    if w.args.workload == "search-warm":
        w.tally.check((sha256(d / "search_trajectory.json"), sha256(d / "search_frontier.json"))
                      == w.artifacts(w.store), "traced search artifacts != the binary's")
    overhead = 100.0 * (traced_s - untraced) / untraced
    w.notes.append(f"traced run {traced_s:.2f} s against {untraced:.2f} s for the untraced "
                   f"set-up, cold pass and one rerun; {len(spans)} spans")
    # Scheduler self time is a difference of two timings of each cell; it
    # is computed only where per-cell fixed costs dominate the cell.
    scheduler = w.args.workload == "served-test"
    values = metrics.layer_metrics(spans, counters, overhead, scheduler)
    if scheduler:
        w.tally.check(values["sched.self_ms"] >= 0, "sched.self_ms is negative")
    return values


def main():
    global measuring_since
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed takes a non-negative integer")

    # Kept after the run (see `Workload.fresh`); `.gitignore` lists it.
    work = Path(".perfbench") / f"{args.workload}-{os.getpid()}-{time.time_ns()}"
    try:
        bins = build()
        measuring_since = time.monotonic()
        cpu_before = cpu_times()
        work.mkdir(parents=True)
        w = CLASSES[args.workload](args, bins, work)
        if args.trace:
            values = traced(w)
            units = {name: unit for name, unit, _ in metrics.PER_LAYER}
        else:
            w.measure()
            values = w.end_to_end()
            units = dict(END_TO_END)
    except (BenchError, OSError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        return 1
    finally:
        settle()

    bad = [name for name in values if not metrics.valid_name(name)]
    if bad:
        log(f"perfbench: invalid metric names {bad}")
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {w.passes}  {host_tag()}  {steal_note(cpu_before, cpu_times())}")
    for name, value in values.items():
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"{name:<22} {shown:>14} {units[name]}")
    if not args.trace:
        for name in ("setup_s", "wall_s", "rerun_s"):
            print(f"  {name} samples: n={len(w.samples[name])}")
        for line in w.extra_summary():
            print(line)
    print(f"fail_ratio             {w.tally.fail_ratio():>14.6g}   "
          f"({w.tally.failed} failed of {w.tally.attempted} attempted)")
    for note in w.notes + w.tally.problems:
        print(f"  {note}")
    result = {
        "correct": w.tally.failed == 0,
        "attempted": w.tally.attempted,
        "failed": w.tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
