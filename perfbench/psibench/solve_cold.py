"""solve-cold: one closed-loop client running cold ``run_spec`` calls.

Each op clears the per-process memo (the disk tier is off for the
whole run) and runs one registry program under one run spec, so the
reader, frontend, code loading, interpreter, trace recording and the
deferred cache replay do the work.  A pass holds every program three
times under ``faithful`` and once each under ``indexed`` and
``baseline``.
"""

from __future__ import annotations

import math

from psibench import common

#: Registry programs that run in well under a second cold.
PROGRAMS = ("nreverse", "qsort", "tree", "queens-one", "reverse-function",
            "slow-reverse", "bup-1", "bup-2", "bup-3", "lcp-1", "lcp-2",
            "lcp-3", "lcp-eval", "harmonizer-1", "lisp-fib", "lisp-nreverse")
SPEC_WEIGHTS = (("faithful", 3), ("indexed", 1), ("baseline", 1))
COMPOSITION = tuple((name, spec) for name in PROGRAMS
                    for spec, weight in SPEC_WEIGHTS for _ in range(weight))


def fingerprint(run, spec: str) -> dict:
    """The exact, host-independent outputs of one run."""
    data = {"answers": common.canonical_answers(run.answers),
            "inferences": run.stats.inferences}
    if spec == "baseline":
        data["instructions"] = run.stats.total_instructions
        return data
    data.update(steps=run.steps,
                cache_hits=run.cache.stats.hits,
                cache_misses=run.cache.stats.misses,
                choicepoints_avoided=run.index_stats.get(
                    "choicepoints_avoided", 0))
    return data


def warm_up(workspace=None) -> None:
    """Import the layers and run each spec once on the smallest program."""
    from repro.eval import runner

    runner.set_disk_cache(False)
    for spec, _ in SPEC_WEIGHTS:
        runner.clear_cache()
        runner.run_spec("lcp-1", spec)
    runner.clear_cache()


def run(args, workspace, tracer=None) -> common.Result:
    from repro.eval import runner

    reference = common.load_reference()["solve"]
    setup = common.setup_times("solve-cold")
    warm_up()
    info = {}

    def run_op(op, clock) -> str | None:
        name, spec = op
        runner.clear_cache()
        try:
            with clock:
                result = runner.run_spec(name, spec)
            got = fingerprint(result, spec)
            info[op] = got
            return common.first_difference(f"{name}/{spec}", got,
                                           reference[f"{name}/{spec}"])
        except Exception as exc:     # a failed op, never a traceback
            return f"{name}/{spec}: {common.one_line(exc)}"

    ops, passes, rss = common.measure(COMPOSITION, args, run_op, tracer)
    result = common.Result(ops, passes, setup, rss)
    result.lines.append(f"  modelled steps per host second (PSI ops): "
                        f"{steps_per_s(ops, reference):.0f}")
    if tracer is not None:
        result.extra = layer_metrics(tracer, passes, info)
    return result


def steps_per_s(ops, reference) -> float:
    """Modelled microsteps per host second over the passing PSI ops."""
    steps = 0
    seconds = 0.0
    for (name, spec), ms in zip(ops.keys, ops.latencies_ms):
        if spec != "baseline" and math.isfinite(ms):
            steps += reference[f"{name}/{spec}"]["steps"]
            seconds += ms / 1000.0
    return steps / seconds if seconds else 0.0


def layer_metrics(tracer, passes, info) -> dict:
    table = tracer.by_op()
    metrics = common.span_metrics(tracer, passes)
    for spec in ("faithful", "indexed"):
        steps = 0
        solve_ns = 0
        for op_id, spans in table.items():
            if op_id is None or op_id[2][1] != spec or op_id[2] not in info:
                continue
            steps += info[op_id[2]]["steps"]
            solve_ns += spans["core.solve"][0]
        metrics[f"core.steps_per_s.{spec}"] = (
            steps / (solve_ns / 1e9) if solve_ns else 0.0)
    first = next(p for p in passes if p.traced)
    metrics["engine.index.choicepoints_avoided"] = sum(
        info[op]["choicepoints_avoided"] for (_, _, op) in first.op_ids
        if op[1] == "indexed" and op in info)
    return metrics
