"""observe: obs-enabled ``collect()`` runs plus the four exports.

Each op is what ``psi-eval profile`` does for one small program: an
observed (per-op, unfused) run, then ``write_chrome``,
``write_jsonl``, ``write_collapsed`` and ``diffprof.write_snapshot``.
It is the only workload on the instrumented collector path.  A pass
holds every program once.
"""

from __future__ import annotations

import dataclasses
import io
import math
import time

from psibench import common

#: Small programs only: an observed run and its exports take 30-210 ms.
#: Ops with larger working sets varied much more from run to run on a
#: shared host.
PROGRAMS = ("nreverse", "qsort", "slow-reverse", "bup-1", "bup-2", "lcp-1",
            "lcp-2", "lcp-3")
COMPOSITION = PROGRAMS


def collect_run(name: str):
    """One fresh faithful ``collect()`` of ``name`` (as ``profile`` runs it)."""
    from repro.eval.specs import get_spec
    from repro.tools.collect import collect
    from repro.workloads import get

    workload = get(name)
    spec = get_spec("faithful")
    return collect(workload.source, workload.goal,
                   all_solutions=workload.all_solutions,
                   record_trace=False, with_cache=spec.with_cache,
                   cache_config=dataclasses.replace(spec.cache_config),
                   machine_config=dataclasses.replace(spec.machine_config),
                   setup_goals=workload.setup_goals)


def export(name: str, observation, out_dir) -> int:
    """Run the four profile exports; return the collapsed-stack total.

    The trace and flamegraph writers get in-memory files, so the op
    times the program's serialisation rather than the host's disk;
    the snapshot writer takes a path and writes one small file.
    """
    from repro.obs import diffprof

    observation.write_chrome(io.StringIO(), name=f"PSI {name}")
    observation.write_jsonl(io.StringIO())
    collapsed = io.StringIO()
    observation.write_collapsed(collapsed, root=name)
    diffprof.write_snapshot(out_dir / f"{name}.profile.json", name,
                            observation)
    return sum(int(line.rsplit(" ", 1)[1])
               for line in collapsed.getvalue().splitlines() if line)


def fingerprint(run, collapsed_steps: int) -> dict:
    return {"answers": common.canonical_answers(run.answers),
            "steps": run.steps,
            "events": len(run.observation.tracer),
            "collapsed_steps": collapsed_steps}


def warm_up(workspace) -> None:
    from repro import obs

    with obs.observed():
        run = collect_run("lcp-1")
    export("lcp-1", run.observation, workspace.sub("obs"))
    obs.reset()


def run(args, workspace, tracer=None) -> common.Result:
    from repro import obs

    reference = common.load_reference()["observe"]
    setup = common.setup_times("observe")
    out_dir = workspace.sub("obs")
    warm_up(workspace)
    info = {}
    collect_ms = {"on": 0.0, "off": 0.0}

    def run_op(name, clock) -> str | None:
        obs.reset()
        try:
            with clock:
                start = time.perf_counter()
                with obs.observed():
                    result = collect_run(name)
                observed_ms = (time.perf_counter() - start) * 1000.0
                with common.span(tracer, "obs.export"):
                    collapsed_steps = export(name, result.observation,
                                             out_dir)
            got = fingerprint(result, collapsed_steps)
            info[clock.op_id] = got
            problem = common.first_difference(name, got, reference[name])
        except Exception as exc:     # a failed op, never a traceback
            return f"{name}: {common.one_line(exc)}"
        if tracer is not None and not tracer.active:
            # The obs-off twin of this op, for obs.overhead_pct.
            start = time.perf_counter()
            collect_run(name)
            collect_ms["off"] += (time.perf_counter() - start) * 1000.0
            collect_ms["on"] += observed_ms
        return problem

    ops, passes, rss = common.measure(COMPOSITION, args, run_op, tracer)
    obs.reset()
    result = common.Result(ops, passes, setup, rss)
    steps = sum(reference[name]["steps"]
                for name, ms in zip(ops.keys, ops.latencies_ms)
                if math.isfinite(ms))
    seconds = sum(ms for ms in ops.latencies_ms if math.isfinite(ms)) / 1e3
    result.lines.append(f"  modelled steps per host second: "
                        f"{steps / seconds if seconds else 0.0:.0f}")
    if tracer is not None:
        metrics = common.span_metrics(tracer, passes)
        first = next(p for p in passes if p.traced)
        metrics["obs.events"] = sum(info[op_id]["events"]
                                    for op_id in first.op_ids
                                    if op_id in info)
        if collect_ms["off"]:
            metrics["obs.overhead_pct"] = 100.0 * (
                collect_ms["on"] / collect_ms["off"] - 1.0)
        result.extra = metrics
    return result
