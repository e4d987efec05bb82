"""Shared pieces of the benchmark: op draws, percentiles, results, RSS.

Everything here is plain stdlib; the program under test (``repro``)
is imported only inside the workload functions, after ``run.py`` has
pointed its run cache at a private directory.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from psibench import hostspeed

HERE = pathlib.Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE_PATH = HERE / "reference.json"
#: Scratch space for one run (private run cache, exports), removed
#: when the run ends.  Inside the checkout, listed in .gitignore.
WORK_ROOT = ROOT / ".perfbench-work"

#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``samples``.

    The median is always reported; a percentile above it is refused
    (:class:`TooFewSamples`) unless at least :data:`MIN_BEYOND`
    samples lie beyond its rank, so p90 needs 100 samples and p99
    needs 1000.  Failed ops enter as ``math.inf``: they count as
    missing every latency limit.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples(f"p{q:g} of an empty sample")
    if q == 50:
        return statistics.median(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        raise TooFewSamples(f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
                            f"{n} samples leave {beyond}")
    return ordered[rank - 1]


def percentile_or_nan(samples, q: float) -> float:
    """:func:`percentile`, with a refused percentile reported as NaN
    (printed as ``null``)."""
    try:
        return percentile(samples, q)
    except TooFewSamples:
        return math.nan


def percentile_line(label: str, samples, q: float) -> str:
    """One report line: the percentile in ms with its sample count."""
    try:
        value = percentile(samples, q)
    except TooFewSamples as exc:
        return f"  {label} p{q:g}: n/a ({exc})"
    return f"  {label} p{q:g}: {value:.3f} ms (n={len(samples)})"


def draw_pass(composition, seed: int, index: int) -> list:
    """Pass ``index`` of the op stream: the composition, shuffled.

    Every pass holds the whole composition, so a run that measures
    whole passes does the same work whatever the seed; the seed only
    fixes the order.
    """
    ops = list(composition)
    random.Random(f"{seed}/{index}").shuffle(ops)
    return ops


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def canonical_answers(answers) -> list:
    """An answer multiset as sorted plain lists (JSON-comparable)."""
    return sorted([list(map(list, answer)) for answer in answers])


def first_difference(label: str, got, want) -> str | None:
    """``None`` when equal, else a one-line description of the mismatch."""
    if got == want:
        return None
    if isinstance(got, str) and isinstance(want, str):
        got_lines, want_lines = got.splitlines(), want.splitlines()
        for number, (a, b) in enumerate(zip(got_lines + [""],
                                            want_lines + [""]), 1):
            if a != b:
                return (f"{label} line {number}: got {_short(a)}, "
                        f"want {_short(b)}")
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want), key=str):
            if got.get(key) != want.get(key):
                return (f"{label}.{key}: got {_short(got.get(key))}, "
                        f"want {_short(want.get(key))}")
    return f"{label}: got {_short(got)}, want {_short(want)}"


def _short(value, limit: int = 80) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def self_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its children, in MB."""
    pids = [pid]
    for task in pathlib.Path(f"/proc/{pid}/task").glob("*/children"):
        pids.extend(int(child) for child in task.read_text().split())
    total_kb = 0
    for member in pids:
        try:
            status = pathlib.Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


@dataclass
class Ops:
    """Latencies and verdicts of the measured ops of one run."""

    keys: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0
    #: Measured time of the ops (of the passes on serve-mix), as timed
    #: and scaled to the reference host speed, and the host-speed probes
    #: around them (:mod:`psibench.hostspeed`).
    busy_s: float = 0.0
    ref_s: float = 0.0
    probes_ms: list = field(default_factory=list)

    def record(self, key, latency_ms: float, problem: str | None) -> None:
        self.keys.append(key)
        if problem is None:
            self.latencies_ms.append(latency_ms)
        else:
            self.latencies_ms.append(math.inf)
            self.failures.append(problem)

    @property
    def attempted(self) -> int:
        return len(self.keys)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class Result:
    """What one run reports: the ops, set-up times and extra metrics."""

    ops: Ops
    passes: list
    setup_s: list
    peak_rss_mb: float
    extra: dict = field(default_factory=dict)
    lines: list = field(default_factory=list)
    correct: bool = True

    def end_to_end(self) -> dict:
        ops = self.ops
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "ops_per_s": (ops.attempted / ops.ref_s, "1/s"),
            "ok_frac": ((ops.attempted - ops.failed) / ops.attempted,
                        "ratio"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def latency_lines(self) -> list[str]:
        """The op-latency percentiles, each with its sample count, and
        the host speed the run saw."""
        ops = self.ops
        return [percentile_line("op latency", ops.latencies_ms, q)
                for q in (50, 90, 99)] + [
            f"  unscaled: {ops.attempted / ops.busy_s:.4g} ops/s; host "
            f"probe median {statistics.median(ops.probes_ms):.3f} ms "
            f"(reference {hostspeed.REFERENCE_MS} ms, n="
            f"{len(ops.probes_ms)})"]


def emit(result: Result, metrics: dict) -> str:
    """The final stdout line: one JSON object with the verdict and metrics."""
    ops = result.ops
    payload = {
        "correct": bool(result.correct and ops.failed == 0),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None,
                           "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return json.dumps(payload, sort_keys=False)


def setup_times(workload: str, repeats: int = 7) -> list[float]:
    """Wall times, scaled to the reference host speed, of ``repeats``
    fresh interpreters doing the set-up of ``workload`` (``run.py
    --setup-probe``): imports, lazy tables and one op of each kind."""
    watch = hostspeed.Stopwatch()
    times = []
    for _ in range(repeats):
        subprocess.run([sys.executable, str(BENCH_DIR / "run.py"),
                        "--setup-probe", workload],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(watch.lap())
    return times


class Workspace:
    """A private scratch directory under :data:`WORK_ROOT`, removed on exit."""

    def __init__(self, label: str):
        WORK_ROOT.mkdir(exist_ok=True)
        self.path = WORK_ROOT / f"{label}-{os.getpid()}-{time.time_ns()}"
        self.path.mkdir()

    def sub(self, name: str) -> pathlib.Path:
        path = self.path / name
        path.mkdir(exist_ok=True)
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass            # another run still uses it


class OpClock:
    """Times one op's measured region; under a tracer, its root span too."""

    def __init__(self, tracer=None, op_id=None):
        self._span = tracer.op(op_id) if tracer is not None else None
        self.op_id = op_id
        self.ms = 0.0

    def __enter__(self) -> "OpClock":
        if self._span is not None:
            self._span.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.ms = (time.perf_counter() - self._start) * 1000.0
        if self._span is not None:
            self._span.__exit__(*exc_info)


def span(tracer, name: str):
    """A layer span around the benchmark's own call into a layer."""
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class Pass:
    index: int
    traced: bool
    op_ids: list
    op_ms: float = 0.0
    seconds: float = 0.0


def run_passes(composition, seed: int, seconds: float, run_op,
               tracer=None, sensitivity: float = 1.0) -> tuple[Ops, list]:
    """Run whole passes of the op stream until ``seconds`` have elapsed.

    ``run_op(op, clock)`` performs one op with its measured region
    inside ``with clock:``, checks the output, and returns ``None`` or
    a one-line problem.  Whole passes keep the measured work identical
    across seeds.  A host-speed probe runs between ops; each op's
    measured time is scaled by the probes on either side of it, with
    the given ``sensitivity`` (:func:`psibench.hostspeed.scale`).
    With a ``tracer``, passes alternate untraced and traced, at least
    three of them, so the traced run also yields the tracing overhead
    without the first pass's one-time costs.
    """
    ops = Ops()
    passes = []
    start = time.perf_counter()
    index = 0
    before = hostspeed.probe()
    ops.probes_ms.append(before)
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if tracer is not None:
            tracer.active = traced
        done = Pass(index, traced, [])
        pass_start = time.perf_counter()
        for position, op in enumerate(draw_pass(composition, seed, index)):
            op_id = (index, position, op)
            clock = OpClock(tracer if traced else None, op_id)
            problem = run_op(op, clock)
            after = hostspeed.probe()
            ops.record(op, clock.ms, problem)
            ops.busy_s += clock.ms / 1000.0
            ops.ref_s += hostspeed.scale(clock.ms / 1000.0, before, after,
                                         sensitivity)
            ops.probes_ms.append(after)
            before = after
            done.op_ids.append(op_id)
            done.op_ms += clock.ms
        done.seconds = time.perf_counter() - pass_start
        passes.append(done)
        index += 1
        if time.perf_counter() - start >= seconds and (
                tracer is None or len(passes) >= 3):
            break
    if tracer is not None:
        tracer.active = False
    ops.elapsed_s = time.perf_counter() - start
    return ops, passes


def measure(composition, args, run_op, tracer=None, sensitivity=1.0):
    """The measured phase, in this process: ``(ops, passes, peak_rss_mb)``."""
    ops, passes = run_passes(composition, args.seed, args.seconds, run_op,
                             tracer, sensitivity)
    return ops, passes, self_rss_mb()


def one_line(exc: BaseException) -> str:
    text = f"{type(exc).__name__}: {exc}".splitlines()
    return text[0] if text else type(exc).__name__


#: Every per-layer metric with its unit.  A layer a workload does not
#: exercise reports 0 there.
PER_LAYER = {
    "core.consult_ms": "ms", "core.solve_ms": "ms",
    "core.steps_per_s.faithful": "1/s", "core.steps_per_s.indexed": "1/s",
    "engine.index.choicepoints_avoided": "count",
    "memsys.replay_ms": "ms", "memsys.entries_per_s": "1/s",
    "baseline.consult_ms": "ms", "baseline.solve_ms": "ms",
    "eval.cache_load_ms": "ms", "eval.cache_store_ms": "ms",
    "eval.disk_hits": "count",
    "tools.rebuild_ms": "ms", "eval.derive_ms": "ms", "eval.render_ms": "ms",
    "serve.solve_ms.p50": "ms", "serve.replay_ms.p50": "ms",
    "serve.replay_ms.p99": "ms",
    "serve.server_ms.p50": "ms", "serve.server_ms.p99": "ms",
    "serve.wire_ms": "ms", "serve.batch_ratio": "ratio",
    "serve.memory_hit_frac": "ratio", "serve.worker_skew": "ratio",
    "serve.warmup_passes": "count",
    "obs.solve_ms": "ms", "obs.finish_ms": "ms", "obs.export_ms": "ms",
    "obs.events": "count", "obs.overhead_pct": "%",
    "trace.overhead_pct": "%", "trace.unattributed_pct": "%",
}

#: Spans whose self time per traced op is a ``<span>_ms`` layer metric.
TIMED_SPANS = ("core.consult", "core.solve", "memsys.replay",
               "baseline.consult", "baseline.solve", "eval.cache_load",
               "eval.cache_store", "tools.rebuild", "eval.derive",
               "eval.render", "obs.solve", "obs.finish", "obs.export")


def span_metrics(tracer, passes) -> dict:
    """The layer metrics every in-process workload derives the same way.

    Layer times are self time per traced op, in ms.  The tracing
    overhead compares the mean traced pass with the mean untraced one;
    the unattributed share is the part of the ops' time no layer span
    covers.  Both compare measured op time only, so work a workload
    adds between ops (output checks, obs-off reruns) does not count.
    """
    totals = {}             # span name -> [self_ns, total_ns, count, calls]
    for spans in tracer.by_op().values():
        for name, cell in spans.items():
            into = totals.setdefault(name, [0, 0, 0, 0])
            for i, value in enumerate(cell):
                into[i] += value
    n_ops = totals.get("op", [0, 0, 0, 0])[3] or 1
    metrics = {f"{name}_ms": totals.get(name, [0])[0] / 1e6 / n_ops
               for name in TIMED_SPANS}
    replay = totals.get("memsys.replay", [0, 0, 0, 0])
    metrics["memsys.entries_per_s"] = (replay[2] / (replay[0] / 1e9)
                                       if replay[0] else 0.0)
    op = totals.get("op", [0, 0, 0, 0])
    metrics["trace.unattributed_pct"] = (100.0 * op[0] / op[1]
                                         if op[1] else 0.0)
    # The first pass pays one-time costs (first runs of each program).
    traced = [p.op_ms for p in passes[1:] if p.traced]
    plain = [p.op_ms for p in passes[1:] if not p.traced]
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.mean(traced) / statistics.mean(plain) - 1.0)
    return metrics
