"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload solve-cold --seed 1 --seconds 10 \
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (and writes its spans to
``.perfbench-out/``).  The last stdout line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run
from anywhere inside a checkout of the repository; the program is
imported from its ``src/`` directory and every file the run writes
stays inside the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import pathlib
import signal
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from psibench import common  # noqa: E402

WORKLOADS = {
    "solve-cold": "psibench.solve_cold",
    "report-warm": "psibench.report_warm",
    "serve-mix": "psibench.serve_mix",
    "observe": "psibench.observe",
}
SPAN_DIR = common.ROOT / ".perfbench-out"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=("observe", "solve-cold"),
                        help=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A terminated run still stops its server and removes its workspace.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {common.SRC}/repro is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    workload = args.setup_probe or args.workload
    if workload is None:
        print("perfbench: --workload is required", file=sys.stderr)
        return 2
    workspace = common.Workspace(workload)
    # Before the program is imported: no run may touch .psi-cache/.
    os.environ["PSI_CACHE_DIR"] = str(workspace.sub("cache"))
    tracer = None
    try:
        module = importlib.import_module(WORKLOADS[workload])
        if args.setup_probe:
            module.warm_up(workspace)
            return 0
        if args.trace:
            from psibench.spans import Tracer, install_program_spans
            tracer = Tracer()
            install_program_spans(tracer)
        result = module.run(args, workspace, tracer)
    except Exception as exc:     # set-up failed: no result to report
        print(f"perfbench: {workload}: {common.one_line(exc)}",
              file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.uninstall()
        workspace.close()

    if args.trace:
        metrics = {name: (result.extra.get(name, 0.0), unit)
                   for name, unit in common.PER_LAYER.items()}
        SPAN_DIR.mkdir(exist_ok=True)
        tracer.dump(SPAN_DIR / f"spans-{workload}-seed{args.seed}.jsonl")
    else:
        metrics = result.end_to_end()
    print(f"{workload}: {result.ops.attempted} ops in "
          f"{result.ops.elapsed_s:.2f} s, {result.ops.failed} failed")
    for line in result.latency_lines() + result.lines:
        print(line)
    for problem in result.ops.failures[:10]:
        print(f"  FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(common.emit(result, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
