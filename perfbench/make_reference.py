"""Regenerate ``perfbench/psibench/reference.json``, the benchmark's expected outputs.

    python3 perfbench/make_reference.py

Runs every (program, spec) the workloads use once, cold, and records
the exact, host-independent outputs the benchmark checks: answer
multisets, modelled steps, production-config cache hits and misses,
baseline instruction counts, replay statistics and obs event counts.
The report artifacts are copied from ``results/eval_report.txt`` and
checked against a fresh regeneration; the paper drift is the one
``psi-eval fidelity`` prints.  Regenerate only when the program's
outputs change on purpose: a speed-up must leave this file as it is.
"""

from __future__ import annotations

import json
import os
import sys

from psibench import common, observe, report_warm, serve_mix, solve_cold


def solve_reference() -> dict:
    from repro.eval import runner

    runner.set_disk_cache(False)
    reference = {}
    for name, spec in sorted(set(solve_cold.COMPOSITION)):
        runner.clear_cache()
        reference[f"{name}/{spec}"] = solve_cold.fingerprint(
            runner.run_spec(name, spec), spec)
    return reference


def serve_reference() -> dict:
    from repro.eval import runner
    from repro.serve import pool

    runner.set_disk_cache(False)
    runner.clear_cache()
    reference = {"solve": {}, "replay": {}}
    for kind, name, variant in serve_mix.COMPOSITION:
        if kind == "solve":
            response = json.loads(json.dumps(pool.worker_solve(name, variant)))
            reference["solve"][f"{name}/{variant}"] = \
                serve_mix.solve_fingerprint(response)
        else:
            response = pool.worker_replay(
                name, "faithful", serve_mix.REPLAY_CONFIGS[variant])
            reference["replay"][f"{name}/{variant}"] = response["stats"]
    return reference


def observe_reference(out_dir) -> dict:
    from repro import obs

    reference = {}
    for name in observe.PROGRAMS:
        obs.reset()
        with obs.observed():
            run = observe.collect_run(name)
        collapsed = observe.export(name, run.observation, out_dir)
        reference[name] = observe.fingerprint(run, collapsed)
    obs.reset()
    return reference


def report_reference() -> dict:
    from repro.eval import runner
    from repro.obs import fidelity

    sections = report_warm.report_sections(
        (common.ROOT / "results" / "eval_report.txt").read_text())
    runner.set_disk_cache(True)
    runner.clear_cache()
    artifacts = {}
    for name, module in report_warm.modules().items():
        data = module.generate()
        text = module.render(data)
        if text != sections[name]:
            raise SystemExit(f"{name}: the program's output differs from "
                             "results/eval_report.txt; refusing to record it")
        table = report_warm.score(name, data)
        artifacts[name] = {"text": text}
        if table is not None:
            artifacts[name]["drift"] = table.drift
    drift = fidelity.collect().overall_drift
    return {"artifacts": artifacts, "drift": drift}


def main() -> int:
    sys.path.insert(0, str(common.SRC))
    workspace = common.Workspace("reference")
    try:
        os.environ["PSI_CACHE_DIR"] = str(workspace.sub("cache"))
        reference = {
            "solve": solve_reference(),
            "serve": serve_reference(),
            "observe": observe_reference(workspace.sub("obs")),
            "report": report_reference(),
        }
    finally:
        workspace.close()
    common.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {common.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
