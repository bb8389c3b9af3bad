"""riftpuzzles benchmark: CLI workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload euclid --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: each op (one in-process call of
``riftpuzzles.cli.main``) starts when the previous one returns.  A run does
round(--seconds / nominal pass time) passes over fresh seeded inputs, so
every run of a workload and seed times the same ops and lasts about
--seconds at the seed commit.  With --trace 0 it prints the end-to-end
metrics; with --trace 1 it runs the first pass untraced, then every pass
traced, and prints the per-layer metrics.  The last line of standard output
is the result as JSON; the line before it is the run record (provenance,
output digest, exact counts).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import heapq
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque
from pathlib import Path

from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

SETUP_PROBES = 3
TAIL_BEYOND = 10
# Timings are reported as if reference_s() took this long (see Speedometer).
# Any constant works, since every commit is scaled alike; this one is about
# what it takes on the 2-CPU x86-64 machine the baseline was measured on.
REF_NOMINAL_S = 0.0055
REF_MIN_GAP_S = 0.05
# How far op times follow the reference: the reference swings more than
# riftpuzzles does (up to 1.7x within seconds), so latencies are scaled by
# (nominal / measured) ** REF_SENSITIVITY.  0.75 gave the smallest run-to-run
# spread over five sets of 5-10 runs of the three workloads; 1.0 overshot.
REF_SENSITIVITY = 0.75

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def reference_s() -> float:
    """Seconds for a fixed pure-Python job: grid BFS, heap, floats, text.

    It shares no code with riftpuzzles, so a change to the package cannot
    move it; it only tracks how fast the machine runs Python right now.
    """
    start = time.perf_counter()
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        x, y = queue.popleft()
        d = dist[(x, y)]
        for nxt in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if 0 <= nxt[0] < 40 and 0 <= nxt[1] < 40 and nxt not in dist:
                dist[nxt] = d + 1
                queue.append(nxt)
    heap = []
    for (x, y), d in dist.items():
        heapq.heappush(heap, (math.hypot(x - 19.5, y - 19.5) + d, x, y))
    while heap:
        heapq.heappop(heap)
    ",".join(f"{x} {y}" for x, y in sorted(dist))
    return time.perf_counter() - start


class Speedometer:
    """Samples reference_s() between ops, outside the timed region.

    Other tenants of a shared machine slow every process on it by up to
    half for tens of seconds at a time, which swamps run-to-run comparison.
    Each op's latency is therefore also reported at reference speed:
    multiplied by (REF_NOMINAL_S / median reference time of its pass) **
    REF_SENSITIVITY; a pass lasts a few seconds, shorter than those spells.
    A change to riftpuzzles moves the op time but not the reference time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.pass_starts: list[int] = []  # index of each pass's first sample
        self._last = -math.inf
        self._medians: dict[int, float] = {}

    def new_pass(self) -> None:
        self.pass_starts.append(len(self.samples))
        self._last = -math.inf

    def sample(self) -> int:
        """Index of a reference sample at most REF_MIN_GAP_S old."""
        if time.perf_counter() - self._last >= REF_MIN_GAP_S:
            self.samples.append(reference_s())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, index: int) -> float:
        p = bisect.bisect_right(self.pass_starts, index) - 1
        if p not in self._medians:
            end = self.pass_starts[p + 1] if p + 1 < len(self.pass_starts) else len(self.samples)
            self._medians[p] = statistics.median(self.samples[self.pass_starts[p]:end])
        return (REF_NOMINAL_S / self._medians[p]) ** REF_SENSITIVITY


class OpResult:
    __slots__ = ("label", "rc", "out", "err", "exc", "seconds", "failed", "ref")

    def __init__(self, label, rc, out, err, exc, seconds, ref):
        self.label = label
        self.rc = rc
        self.out = out
        self.err = err
        self.exc = exc
        self.seconds = seconds
        self.failed = False
        self.ref = ref  # index of the Speedometer sample taken before the op


class Runner:
    """Times ops and records their outcomes, the output digest and counts."""

    def __init__(self, cli, tracer: Tracer | None = None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.speed = Speedometer()
        self.ops: list[OpResult] = []
        self.item_total = 0
        self.problems: list[str] = []  # wrong outputs: the run is not correct
        self.fail_reasons: Counter = Counter()
        self.exact_counts: Counter = Counter()
        self.outside_root_s = 0.0  # traced: op time outside cli.main's span
        self._digest = hashlib.sha256()

    def op(self, label: str, argv: list[str]) -> OpResult:
        ref = self.speed.sample()
        out, err = io.StringIO(), io.StringIO()
        rc = exc = None
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.ops)
            first = len(tracer.spans)
            tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except Exception as e:  # the program crashed: record it and go on
            exc = f"{type(e).__name__}: {e}"
        seconds = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
            roots = sum(s[3] - s[2] for s in tracer.spans[first:] if s[4] is None)
            self.outside_root_s += seconds - roots
        res = OpResult(label, rc, out.getvalue(), err.getvalue(), exc, seconds, ref)
        self.ops.append(res)
        # argv holds scratch paths, so the label stands in for it
        self._digest.update(f"{label}\0{rc}\0{exc_type(res)}\0{res.out}\0".encode())
        return res

    def fail(self, res: OpResult, reason: str) -> None:
        res.failed = True
        step = res.label.rsplit(":", 1)[1] if ":" in res.label else "sweep"
        self.fail_reasons[f"{step}: {reason}"] += 1

    def wrong(self, res: OpResult, reason: str) -> None:
        self.fail(res, reason)
        self.problems.append(f"{res.label}: {reason}")

    def expect_exit(self, res: OpResult, *codes: int) -> bool:
        """A crash or exit 3 (gave up, bad input) fails the op; any other
        exit status outside `codes` is a wrong answer."""
        if res.exc is not None:
            self.fail(res, f"exception {exc_type(res)}")
            return False
        if res.rc == 3:
            self.fail(res, "exit 3")
            return False
        if res.rc not in codes:
            self.wrong(res, f"exit {res.rc}, expected {codes}")
            return False
        return True

    def items(self, n: int) -> None:
        self.item_total += n

    def exact(self, key: str, n: int) -> None:
        self.exact_counts[key] += n

    def digest(self) -> str:
        return self._digest.hexdigest()


def exc_type(res: OpResult) -> str | None:
    return res.exc.split(":")[0] if res.exc else None


def run_passes(passes: list[list], runner: Runner) -> list[dict]:
    """Run each pass's items in order; note where each pass starts."""
    starts = []
    for items in passes:
        starts.append(
            {
                "op": len(runner.ops),
                "items": runner.item_total,
                "span": len(runner.tracer.spans) if runner.tracer else 0,
            }
        )
        runner.speed.new_pass()
        for item in items:
            item.run(runner)
    return starts


def percentile_stats(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten ops beyond it
    (the maximum when there are too few ops)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "p50": statistics.median(ordered),
        "tail": ordered[rank],
        "tail_percentile": round(100.0 * (rank + 1) / n, 2),
        "tail_ops_beyond": n - 1 - rank,
        "op_count": n,
    }


def end_to_end(runner: Runner, setup: dict) -> tuple[dict, dict]:
    """End-to-end metrics at reference speed; the raw ones go to the record."""
    ops = runner.ops
    failed = sum(o.failed for o in ops)

    def timing(seconds: list[float]) -> dict:
        stats = percentile_stats([math.inf if o.failed else s for o, s in zip(ops, seconds)])
        stats["items_per_s"] = runner.item_total / sum(seconds)
        return stats

    raw = timing([o.seconds for o in ops])
    scaled = timing([o.seconds * runner.speed.scale(o.ref) for o in ops])
    values = {
        "items_per_s": scaled["items_per_s"],
        "op_p50_ms": 1000.0 * scaled["p50"],
        "op_tail_ms": 1000.0 * scaled["tail"],
        "setup_s": statistics.median(setup["scaled"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    extra = {
        "raw": {
            "items_per_s": raw["items_per_s"],
            "op_p50_ms": 1000.0 * raw["p50"],
            "op_tail_ms": 1000.0 * raw["tail"],
            "setup_s": statistics.median(setup["raw"]),
            "timed_s": sum(o.seconds for o in ops),
        },
        "machine_speed": REF_NOMINAL_S / statistics.median(runner.speed.samples),
        "items": runner.item_total,
        "fail_ratio": failed / len(ops),
        **{k: raw[k] for k in ("tail_percentile", "tail_ops_beyond", "op_count")},
    }
    return values, extra


def layer_metrics(runner: Runner, facts: Counter, overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics over every traced pass: seconds and counts."""
    tracer = runner.tracer
    layer_self, func_self = tracer.self_times()
    counts, errors = tracer.counts, tracer.errors
    wall = sum(o.seconds for o in runner.ops)

    def incl(*names):
        return tracer.inclusive(set(names))

    def errors_of(layer, *types):
        return sum(k for (ly, t), k in errors.items() if ly == layer and (not types or t in types))

    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), "s")
        m[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        m[f"{layer}.errors"] = (errors_of(layer), "count")
    tests = counts["geometry.segment_admissible.calls"]
    walks = facts["solve_dcb_ops"]
    builds = counts["crystal_bonds.crystal_metric.calls"] if walks else 0
    m.update(
        {
            "geometry.visibility_s": (func_self.get("geometry.euclidean_geodesic_matrix", 0.0), "s"),
            "geometry.segment_tests": (tests, "count"),
            "geometry.visible_ratio": (counts["geometry.segment_visible"] / tests if tests else 0.0, "ratio"),
            "geometry.fine_grid_s": (incl("geometry.fine_grid_distance"), "s"),
            "geometry.grid_bfs_s": (incl("geometry.grid_distance_matrix", "geometry.grid_distance"), "s"),
            "crystal_bonds.metric_builds_per_walk": (builds / walks if walks else 0.0, "ratio"),
            "crystal_bonds.postman_s": (func_self.get("crystal_bonds.rural_postman_connected", 0.0), "s"),
            "crystal_bonds.odd_crystals": (facts["crystal_bonds.odd_crystals"], "count"),
            "crystal_bonds.brute_force_s": (
                incl("crystal_bonds.brute_force_crystal_bonds", "crystal_bonds.decide_dcb"), "s"),
            "graphs.ham_s": (incl("graphs.has_ham_cycle_grid", "graphs.has_ham_path_grid"), "s"),
            "graphs.directed_dp_s": (incl("graphs.has_directed_ham_path"), "s"),
            "graphs.enumerated": (counts["graphs.enumerate_grid_graphs.yielded"], "count"),
            "tile_trial.solve_s": (incl("tile_trial.solve_tile_trial"), "s"),
            "tile_trial.gave_up": (errors_of("tile_trial", "SearchBudgetExceeded", "RecursionError"), "count"),
            "hands_of_time.solve_s": (incl("hands_of_time.solve_clock"), "s"),
            "hands_of_time.audit_s": (incl("hands_of_time.audit_certificate"), "s"),
            "hands_of_time.gave_up": (errors_of("hands_of_time", "BudgetExhausted", "InstanceTooLarge"), "count"),
            "instance_io.bytes_in": (counts["instance_io.bytes_in"], "bytes"),
            "instance_io.bytes_out": (counts["instance_io.bytes_out"], "bytes"),
            "trace.wall_s": (wall, "s"),
            "trace.remainder_s": (runner.outside_root_s, "s"),
            "trace.overhead": (overhead, "ratio"),
        }
    )
    layer_sum = sum(m[f"{layer}.self_s"][0] for layer in LAYERS)
    extra = {
        "errors_by_type": {f"{ly}.{t}": k for (ly, t), k in sorted(errors.items())},
        "additivity_error_s": layer_sum + runner.outside_root_s - wall,
        "trace_counts": {
            "geometry.segment_tests": tests,
            "crystal_bonds.metric_builds": builds,
            "crystal_bonds.solved_walks": walks,
            "graphs.enumerated": m["graphs.enumerated"][0],
        },
    }
    return m, extra


def provenance(workload: str, seed: int) -> dict:
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "riftpuzzles").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    baseline = BENCH_DIR / "baseline.json"
    spread = None
    if baseline.exists():
        spread = json.loads(baseline.read_text())["workloads"].get(workload, {}).get("spread")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "workload": workload,
        "seed": seed,
        "baseline_spread": spread,
    }


def measure_setup(args, probes: int) -> dict:
    """Seconds from process start to ready-for-first-op, in fresh processes,
    raw and at reference speed (sampled in the child right after set-up)."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples = {"raw": [], "scaled": []}
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - start
            ref = child.stdout.read()
            rc = child.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
        samples["raw"].append(ready)
        samples["scaled"].append(ready * (REF_NOMINAL_S / float(ref)) ** REF_SENSITIVITY)
    return samples


def run(args, passes: list[list]) -> int:
    from riftpuzzles import cli

    setup = measure_setup(args, 1 if args.smoke else SETUP_PROBES)
    facts = Counter()
    for items in passes:
        for item in items:
            facts.update(item.facts())

    if args.trace == 0:
        runner = Runner(cli)
        starts = run_passes(passes, runner)
        values, extra = end_to_end(runner, setup)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        checked = [runner]
    else:
        untraced = Runner(cli)
        run_passes(passes[:1], untraced)
        tracer = Tracer()
        tracer.install()
        try:
            runner = Runner(cli, tracer)
            starts = run_passes(passes, runner)
        finally:
            tracer.uninstall()
        first_end = starts[1]["op"] if len(starts) > 1 else len(runner.ops)
        traced_s = sum(o.seconds * runner.speed.scale(o.ref) for o in runner.ops[:first_end])
        untraced_s = sum(o.seconds * untraced.speed.scale(o.ref) for o in untraced.ops)
        # the same items ran both times, so items_per_s compares as time
        values, extra = layer_metrics(runner, facts, traced_s / untraced_s)
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()}
        checked = [untraced, runner]
        span_end = starts[1]["span"] if len(starts) > 1 else len(tracer.spans)
        _write_spans(tracer, span_end, args)

    record = {
        "provenance": provenance(args.workload, args.seed),
        "setup_samples_s": setup,
        "passes": len(passes),
        "digest": runner.digest(),
        "exact_counts": dict(sorted(runner.exact_counts.items())),
        "facts": dict(sorted(facts.items())),
        "fail_reasons": dict(runner.fail_reasons),
        "problems": [p for r in checked for p in r.problems][:20],
        **extra,
    }
    print("record " + json.dumps(record, sort_keys=True))
    # the results file adds every op's latency, for looking into a run
    record["pass_starts"] = [s["op"] for s in starts]
    record["ops_ms"] = [
        [o.label, 1000.0 * o.seconds, o.failed, exc_type(o) or o.rc, runner.speed.scale(o.ref)]
        for o in runner.ops
    ]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, sort_keys=True) + "\n")
    ops = [o for r in checked for o in r.ops]
    result = {
        "correct": not record["problems"],
        "attempted": len(ops),
        "failed": sum(o.failed for o in ops),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _write_spans(tracer: Tracer, end: int, args) -> None:
    """The first traced pass's spans, one JSON object per line."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with out.open("w") as fh:
        for span_id, fid, start, stop, parent, op, exc in tracer.spans[:end]:
            fh.write(json.dumps({"id": span_id, "name": tracer.names[fid], "start": start,
                                 "end": stop, "parent": parent, "op": op, "exc": exc}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "riftpuzzles" / "cli.py").is_file():
        print(f"perfbench: no riftpuzzles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (needs SRC on the path)

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.smoke:
        size, count = "smoke", 1
    else:
        size, count = "full", max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        passes = workloads.build(args.workload, args.seed, size, count, workdir)
        if args.setup_probe:
            print("ready", flush=True)
            print(statistics.median(reference_s() for _ in range(9)))
            return 0
        return run(args, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
