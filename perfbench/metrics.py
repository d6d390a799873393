"""Pure helpers of the benchmark: percentiles, span-tree self time,
metric-name validation, failure accounting, and the per-layer metrics
computed from a traced run's spans and counters.

Nothing here touches processes or files, so `test_metrics.py` covers it
without a build.
"""

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Percentiles a latency may be reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)


def valid_name(name):
    """A metric or workload name: starts with a letter or digit, then at
    most 63 more letters, digits, `_`, `.` or `-`."""
    return isinstance(name, str) and NAME_RE.fullmatch(name) is not None


def rank(n, p):
    """1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
    samples; the tolerance keeps 99.9 % of 10,000 at rank 9990."""
    return max(1, min(n, math.ceil(p * n / 100 - 1e-9)))


def percentile(samples, p):
    """Nearest-rank percentile `p` of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[rank(len(samples), p) - 1]


def beyond(n, p):
    """How many of `n` samples lie strictly above percentile `p`."""
    return n - rank(n, p)


def tail_percentile(samples, ladder=LADDER):
    """The highest percentile of `ladder` with at least ten samples
    beyond it: `(p, value, n)`. Returns `None` below eleven samples,
    where no percentile qualifies."""
    n = len(samples)
    best = None
    for p in ladder:
        if beyond(n, p) >= 10:
            best = p
    if best is None:
        return None
    return best, percentile(samples, best), n


class Tally:
    """Operations attempted and failed; a wrong output is a failed
    operation like a failed request or cell."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, attempted, failed=0, what=None):
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad tally: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.problems.append(what)

    def check(self, ok, what):
        """One output check: one attempted operation, failed unless `ok`."""
        self.ops(1, 0 if ok else 1, what)
        return ok

    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 1.0


def children_of(spans):
    kids = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            kids[s["parent"]].append(i)
    return kids


def self_time(spans, i, kids=None):
    """Span `i`'s duration minus the part of its interval that its
    children cover (overlapping children count once)."""
    kids = children_of(spans) if kids is None else kids
    s = spans[i]
    start, end = s["start_ns"], s["end_ns"]
    covered = 0
    cursor = start
    for a, b in sorted((spans[c]["start_ns"], spans[c]["end_ns"]) for c in kids[i]):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            covered += b - a
            cursor = b
    return (end - start) - covered


def duration(s):
    return s["end_ns"] - s["start_ns"]


# Per-layer metrics: name, unit, better. The traced run reports every one
# of them on every workload; a layer the workload never calls reads 0.
PER_LAYER = (
    ("build.calls", "count", "lower"),
    ("build.ms", "ms", "lower"),
    ("core.new_ms", "ms", "lower"),
    ("core.run_ms", "ms", "lower"),
    ("core.ns_per_cycle", "ns", "lower"),
    ("model.cycles", "count", "lower"),
    ("model.committed", "count", "higher"),
    ("model.su_stall_cycles", "count", "lower"),
    ("verify.ms", "ms", "lower"),
    ("store.probe_ms", "ms", "lower"),
    ("store.parse_ms", "ms", "lower"),
    ("store.hits", "count", "higher"),
    ("store.misses", "count", "lower"),
    ("sched.self_ms", "ms", "lower"),
    ("json.render_ms", "ms", "lower"),
    ("json.bytes", "bytes", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.fetch_ms", "ms", "lower"),
    ("serve.fetch_p50_ms", "ms", "lower"),
    ("serve.fetch_p99_ms", "ms", "lower"),
    ("serve.wire_ms", "ms", "lower"),
    ("ckpt.drain_ms", "ms", "lower"),
    ("ckpt.encode_ms", "ms", "lower"),
    ("ckpt.decode_ms", "ms", "lower"),
    ("ckpt.bytes", "bytes", "lower"),
    ("ckpt.fork_ms", "ms", "lower"),
    ("ckpt.forks", "count", "higher"),
    ("search.evaluations", "count", "lower"),
    ("search.steps", "count", "lower"),
    ("search.eval_ms", "ms", "lower"),
    ("search.climb_ms", "ms", "lower"),
    ("runner.prewarm_ms", "ms", "lower"),
    ("runner.simulations", "count", "lower"),
    ("runner.programs_built", "count", "lower"),
    ("figures.render_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)

# Replay spans that stand for the work inside one `Scheduler::run_cell`.
COMPONENTS = ("build", "core.new", "core.run", "verify")


def layer_metrics(spans, counters, overhead_pct, scheduler=False):
    """Every per-layer metric from a traced run: span time summed by
    name, self times from the span tree, and the run's counters.

    `sched.self_ms` is `Scheduler::run_cell` time minus the replay of the
    same cells. Where a cell simulates for milliseconds and the scheduler
    costs microseconds, that difference is noise, so it is computed only
    with `scheduler` set (and reads 0 otherwise)."""
    kids = children_of(spans)
    total = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0) + duration(s)

    def ms(name):
        return total.get(name, 0) / 1e6

    # Scheduler self time: run_cell minus the replay of the same cell,
    # over the cells that were replayed (cold passes).
    sched_ns = 0
    wire_ns = 0
    for i, s in enumerate(spans):
        parts = [spans[c] for c in kids[i]]
        if scheduler and s["name"] == "cell" and any(p["name"] in COMPONENTS for p in parts):
            for p in parts:
                if p["name"] == "sched.run_cell":
                    sched_ns += duration(p)
                elif p["name"] in COMPONENTS:
                    sched_ns -= duration(p)
        # The socket's share of a lookup: fetch minus the in-process probe.
        if s["name"] == "lookup":
            for p in parts:
                sign = {"serve.fetch": 1, "store.probe": -1}.get(p["name"], 0)
                wire_ns += sign * duration(p)
    climb_ns = sum(self_time(spans, i, kids) for i, s in enumerate(spans) if s["name"] == "search")
    fetches = [duration(s) / 1e6 for s in spans if s["name"] == "serve.fetch"]
    core_cycles = counters.get("core.cycles", 0)

    out = {
        "build.calls": counters.get("build.calls", 0),
        "build.ms": ms("build"),
        "core.new_ms": ms("core.new"),
        "core.run_ms": ms("core.run"),
        "core.ns_per_cycle": total.get("core.run", 0) / core_cycles if core_cycles else 0.0,
        "model.cycles": counters.get("model.cycles", 0),
        "model.committed": counters.get("model.committed", 0),
        "model.su_stall_cycles": counters.get("model.su_stall_cycles", 0),
        "verify.ms": ms("verify"),
        "store.probe_ms": ms("store.probe"),
        "store.parse_ms": ms("store.parse"),
        "store.hits": counters.get("store.hits", 0),
        "store.misses": counters.get("store.misses", 0),
        "sched.self_ms": sched_ns / 1e6,
        "json.render_ms": ms("json.render"),
        "json.bytes": counters.get("json.bytes", 0),
        "serve.submit_ms": ms("serve.submit"),
        "serve.fetch_ms": ms("serve.fetch"),
        "serve.fetch_p50_ms": percentile(fetches, 50) if fetches else 0.0,
        "serve.fetch_p99_ms": percentile(fetches, 99) if fetches else 0.0,
        "serve.wire_ms": wire_ns / 1e6,
        "ckpt.drain_ms": ms("ckpt.drain"),
        "ckpt.encode_ms": ms("ckpt.encode"),
        "ckpt.decode_ms": ms("ckpt.decode"),
        "ckpt.bytes": counters.get("ckpt.bytes", 0),
        "ckpt.fork_ms": ms("ckpt.fork"),
        "ckpt.forks": counters.get("ckpt.forks", 0),
        "search.evaluations": counters.get("search.evaluations", 0),
        "search.steps": counters.get("search.steps", 0),
        "search.eval_ms": ms("search.eval"),
        "search.climb_ms": climb_ns / 1e6,
        "runner.prewarm_ms": ms("runner.prewarm"),
        "runner.simulations": counters.get("runner.simulations", 0),
        "runner.programs_built": counters.get("runner.programs_built", 0),
        "figures.render_ms": ms("figures.render"),
        "trace.overhead_pct": overhead_pct,
    }
    assert set(out) == {name for name, _, _ in PER_LAYER}
    return out
