"""report-warm: regenerate report tables from a warm disk cache.

Set-up is a serial cold ``psi-eval all`` into an empty private run
cache: all nine artifacts generated and rendered once, each checked
against its reference text, and the paper drift of the scored ones
checked against the one ``psi-eval fidelity`` prints.  Each op then
regenerates one of table2..table7 the way a fresh ``psi-eval <table>``
invocation would: per-process memo cleared, runs loaded from disk,
summaries rebuilt, the table derived and rendered.  A pass holds those
six tables once each.  table1 (baseline WAM re-execution), figure1
and ablations (multi-second sweep replays of large traces) are left
out of the measured passes: their run-to-run spread on a shared host
is several times the others', and their layers are measured by
``solve-cold`` and ``serve-mix``.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

from psibench import common, hostspeed

ARTIFACTS = ("table1", "table2", "table3", "table4", "table5", "table6",
             "table7", "figure1", "ablations")
COMPOSITION = ("table2", "table3", "table4", "table5", "table6", "table7")
#: How much of the host-speed probe's slowdown a warm op feels.  Its
#: time goes mostly to reading, checking and unpickling cache entries:
#: from the host's fast to its slow spells a pass slowed 1.26x where
#: the probe slowed 1.85x, and scaling by ``ratio ** 0.3`` left the
#: least spread (pass-time variation 5.4%, against 8.7% unscaled and
#: 20% fully scaled).
SENSITIVITY = 0.3


def report_sections(text: str) -> dict:
    """``{name: body}`` for every ``== name ==`` section of a report."""
    sections = {}
    name = None
    for line in text.splitlines():
        if line.startswith("== ") and line.endswith(" =="):
            name = line[3:-3]
            sections[name] = []
        elif name is not None:
            sections[name].append(line)
    return {name: "\n".join(lines).rstrip("\n")
            for name, lines in sections.items()}


def modules() -> dict:
    import importlib

    return {name: importlib.import_module(f"repro.eval.{name}")
            for name in ARTIFACTS}


def score(name: str, data):
    """The artifact's paper-drift score, or ``None`` if it is unscored."""
    from repro.obs import fidelity

    if name not in fidelity.TABLES:
        return None
    return getattr(fidelity, f"score_{name}")(data)


@contextmanager
def lap_after_each_run(watch):
    """Lap ``watch`` after every run loaded or computed, so that no
    stretch between two host-speed probes is longer than one run."""
    from repro.eval.run_cache import RunCache

    original = RunCache.__dict__["load_or_compute"]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        finally:
            watch.lap()

    RunCache.load_or_compute = wrapper
    try:
        yield
    finally:
        RunCache.load_or_compute = original


def cold_pass(generators, reference, watch) -> tuple[list, list]:
    """The serial cold ``psi-eval all``; returns (problems, report lines).

    ``watch`` (a :class:`~psibench.hostspeed.Stopwatch`) laps after
    each artifact."""
    from repro.eval import runner
    from repro.obs import fidelity

    runner.set_disk_cache(True)
    runner.clear_cache()
    problems, tables = [], []
    for name, module in generators.items():
        data = module.generate()
        want = reference["artifacts"][name]
        problem = common.first_difference(f"{name} text",
                                          module.render(data), want["text"])
        table = score(name, data)
        if problem is None and table is not None:
            tables.append(table)
            problem = common.first_difference(f"{name} drift", table.drift,
                                              want["drift"])
        if problem is not None:
            problems.append(problem)
        watch.lap()
    drift = fidelity.FidelityReport(tuple(tables)).overall_drift
    if drift != reference["drift"]:
        problems.append(f"paper drift {drift!r} != psi-eval fidelity's "
                        f"{reference['drift']!r}")
    return problems, [f"  paper_drift_pct: {drift:.4f} (psi-eval fidelity: "
                      f"{reference['drift']:.4f})"]


def run(args, workspace, tracer=None) -> common.Result:
    from repro.eval import runner

    reference = common.load_reference()["report"]
    watch = hostspeed.Stopwatch()
    generators = modules()
    watch.lap()
    with lap_after_each_run(watch):
        setup_problems, lines = cold_pass(generators, reference, watch)
    setup = [watch.ref_s]
    info = {}

    def run_op(name, clock) -> str | None:
        module = generators[name]
        runner.clear_cache()
        try:
            with clock:
                with common.span(tracer, "eval.derive"):
                    data = module.generate()
                with common.span(tracer, "eval.render"):
                    text = module.render(data)
            info[clock.op_id] = {
                "disk_hits": runner.CACHE_EVENTS["disk_hit"],
                "disk_computes": runner.CACHE_EVENTS["disk_compute"]}
            want = reference["artifacts"][name]
            problem = common.first_difference(f"{name} text", text,
                                              want["text"])
            table = score(name, data)
            if problem is None and table is not None:
                problem = common.first_difference(
                    f"{name} drift", table.drift, want["drift"])
            return problem
        except Exception as exc:     # a failed op, never a traceback
            return f"{name}: {common.one_line(exc)}"

    ops, passes, rss = common.measure(COMPOSITION, args, run_op, tracer,
                                      SENSITIVITY)
    computes = sum(got["disk_computes"] for got in info.values())
    result = common.Result(ops, passes, setup, rss, lines=lines)
    if setup_problems:
        result.correct = False
        result.lines += [f"  FAILED cold pass: {p}" for p in setup_problems]
    result.lines.append(f"  runs recomputed by the warm passes: {computes}")
    if tracer is not None:
        metrics = common.span_metrics(tracer, passes)
        traced = next(p for p in passes if p.traced)
        metrics["eval.disk_hits"] = sum(info[op_id]["disk_hits"]
                                        for op_id in traced.op_ids
                                        if op_id in info)
        result.extra = metrics
    return result
