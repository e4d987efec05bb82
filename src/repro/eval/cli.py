"""Command-line entry point: regenerate any table or figure.

Usage::

    psi-eval table1                  # or table2..table7, figure1, ablations
    psi-eval all > results/eval_report.txt   # the committed report
    psi-eval all --jobs 4            # fan workload execution across processes
    psi-eval table1 nreverse qsort
    psi-eval table1 --programs nreverse qsort
    psi-eval run bup-2               # one workload, full machine report
    psi-eval run --programs bup-2    # same, flag form
    psi-eval profile puzzle8         # flamegraph + Perfetto trace + top-N
    psi-eval profile puzzle8 --out /tmp/psi-obs --top 5
    psi-eval cache info              # persistent run cache statistics
    psi-eval cache clear             # purge .psi-cache/
    psi-eval all --no-disk-cache     # bypass the persistent run cache
    psi-eval fidelity                # paper-drift score, all tables
    psi-eval fidelity table2 figure1 --json
    psi-eval fidelity --max-drift 30 # exit 1 when overall drift exceeds 30
    psi-eval diff a.profile.json b.profile.json   # differential profile
    psi-eval report --html           # self-contained dashboard (psi-report.html)
    psi-eval crosscheck --all        # every shared workload under the
                                     # faithful and baseline specs, fail
                                     # on answer divergence
    psi-eval crosscheck nreverse qsort
    psi-eval crosscheck --all --report crosscheck-report.json
    psi-eval crosscheck --specs faithful,indexed --all
                                     # any registered run-spec pair; a
                                     # PSI pair adds per-workload steps,
                                     # step/time ratios and counters
    psi-eval crosscheck --specs faithful,indexed --all --jobs 4
                                     # both specs pre-warmed on 4
                                     # processes
    psi-eval run bup-2 --spec indexed    # any target under another
                                     # registered run spec
    psi-eval debug nreverse          # time-travel HTML explorer
                                     # (psi-debug-nreverse.html)
    psi-eval debug nreverse --out explorer.html
    psi-eval debug nreverse --step 1200   # print reconstructed machine
                                          # state at microstep 1200
    psi-eval debug bup-2 --spec indexed  # explore the clause-indexed
                                     # run (choicepoint timeline + counters)
    psi-eval debug --diff qsort      # first-divergence report vs the
                                     # baseline (psi-diff-qsort.html)
    psi-eval serve --workers 4 --port 7071   # warm-worker evaluation service
    psi-eval serve --port 0                  # ephemeral port (printed on start)

Workload runs are cached persistently under ``.psi-cache/`` (keyed by
workload content + run-spec fingerprint + simulator code version), so
repeated invocations skip re-interpretation — for every spec, the
baseline WAM included.  ``--jobs N`` executes independent workloads on
``N`` processes; outputs are byte-identical to the serial path.
``--spec NAME`` sets the run spec (:mod:`repro.eval.specs`) the
spec-agnostic targets execute under; ``fidelity`` refuses to score any
spec but ``faithful``.

``profile`` always executes its workload fresh (observability data is
derived from execution and never cached); see ``docs/OBSERVABILITY.md``
for the output formats and how to open them in Perfetto.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval import (
    ablations,
    figure1,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
)

def _run_workload(args) -> str:
    from repro.core.micro import CacheCmd
    from repro.eval.runner import run_spec
    from repro.eval.specs import default_spec
    from repro.tools.map import module_analysis, routine_histogram
    _validate_workloads(args.programs, "run")
    spec = default_spec()
    lines = []
    for name in args.programs:
        run = run_spec(name, record_trace=False)
        stats = run.stats
        # The spec tag appears only off the faithful default, keeping
        # the historical output byte-stable.
        lines.append(f"== {name} ==" if spec.name == "faithful"
                     else f"== {name} [spec {spec.name}] ==")
        lines.append(f"steps {run.steps}, inferences {stats.inferences}, "
                     f"time {run.time_ms:.2f} ms, "
                     f"{run.lips / 1000:.1f} KLIPS")
        lines.append("modules: " + ", ".join(
            f"{m.value} {v:.1f}%" for m, v in module_analysis(stats).items()))
        commands = stats.cache_command_ratios()
        lines.append("cache commands: " + ", ".join(
            f"{c.value} {commands[c]:.1f}%" for c in CacheCmd))
        lines.append(f"cache hit ratio: {run.cache.stats.hit_ratio:.2f}%")
        lines.append("hot routines: " + ", ".join(
            f"{name_}({steps})" for _, name_, steps in
            routine_histogram(stats, top=5)))
    return "\n".join(lines)


def _parse_spec_pair(value: str) -> tuple[str, str]:
    """Split and validate a ``--specs A,B`` operand."""
    parts = [part.strip() for part in value.split(",") if part.strip()]
    if len(parts) != 2:
        raise SystemExit(f"--specs expects exactly two comma-separated run "
                         f"spec names (got {value!r})")
    from repro.eval.specs import get_spec
    for part in parts:
        try:
            get_spec(part)
        except ValueError as exc:
            raise SystemExit(f"psi-eval: {exc}")
    return parts[0], parts[1]


def _validate_workloads(names, command: str) -> None:
    from repro.workloads import all_workloads
    if not names:
        raise SystemExit(f"psi-eval {command} needs a workload name "
                         "(positional or via --programs)")
    known = all_workloads()
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(
            f"unknown workload{'s' if len(unknown) > 1 else ''}: "
            f"{', '.join(unknown)}\navailable: {', '.join(sorted(known))}")


def _profile_workload(args) -> str:
    """``psi-eval profile``: run observed, write trace + flamegraph files.

    The workload executes fresh (no cache tier is read or written):
    observability output is derived data, and a cached run carries
    none.  Emits, per workload, under ``--out``:

    * ``<name>.trace.json`` — Chrome ``trace_event`` JSON (open in
      https://ui.perfetto.dev or chrome://tracing),
    * ``<name>.trace.jsonl`` — the raw JSONL event log,
    * ``<name>.collapsed.txt`` — collapsed stacks for flamegraph tools,
    * ``<name>.profile.json`` — the profile snapshot ``psi-eval diff``
      consumes for differential profiling,

    and prints the top-N ``(predicate × module)`` step attribution.
    """
    import dataclasses
    import pathlib

    from repro import obs
    from repro.eval.specs import default_spec
    from repro.obs import diffprof
    from repro.tools.collect import collect
    from repro.workloads import get

    _validate_workloads(args.programs, "profile")
    spec = default_spec()
    out_dir = pathlib.Path(args.out or "psi-obs")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for name in args.programs:
        workload = get(name)
        with obs.observed():
            run = collect(workload.source, workload.goal,
                          all_solutions=workload.all_solutions,
                          record_trace=False,
                          with_cache=spec.with_cache,
                          cache_config=dataclasses.replace(spec.cache_config),
                          machine_config=dataclasses.replace(
                              spec.machine_config),
                          setup_goals=workload.setup_goals)
        observation = run.observation
        chrome_path = out_dir / f"{name}.trace.json"
        jsonl_path = out_dir / f"{name}.trace.jsonl"
        collapsed_path = out_dir / f"{name}.collapsed.txt"
        snapshot_path = out_dir / f"{name}.profile.json"
        with chrome_path.open("w") as fp:
            observation.write_chrome(fp, name=f"PSI {name}")
        with jsonl_path.open("w") as fp:
            observation.write_jsonl(fp)
        with collapsed_path.open("w") as fp:
            observation.write_collapsed(fp, root=name)
        diffprof.write_snapshot(snapshot_path, name, observation)
        lines.append(f"== {name} ==" if spec.name == "faithful"
                     else f"== {name} [spec {spec.name}] ==")
        lines.append(f"{observation.total_steps} microsteps, "
                     f"{len(observation.tracer)} trace events")
        lines.append(observation.top_table(args.top))
        lines.append(f"wrote {chrome_path}, {jsonl_path}, {collapsed_path}, "
                     f"{snapshot_path}")
    return "\n".join(lines)


def _cache_admin(args) -> str:
    from repro.eval.run_cache import RunCache
    action = args.programs[0] if args.programs else "info"
    cache = RunCache()
    if action == "clear":
        removed = cache.clear()
        return f"run cache: removed {removed} entr{'y' if removed == 1 else 'ies'}"
    if action == "info":
        entries = cache.entries()
        size = cache.size_bytes()
        lines = [f"run cache at {cache.root}: {len(entries)} entr"
                 f"{'y' if len(entries) == 1 else 'ies'}, "
                 f"{size / 1e6:.1f} MB"]
        by_spec = cache.info_by_spec()
        for label in sorted(by_spec):
            group = by_spec[label]
            lines.append(f"  {label:<14} {group['entries']:>4} entr"
                         f"{'y' if group['entries'] == 1 else 'ies'}, "
                         f"{group['bytes'] / 1e6:.1f} MB")
        return "\n".join(lines)
    raise SystemExit(f"unknown cache action {action!r} (use: clear, info)")


def _selected_tables(args):
    """Fidelity table selection: positional names or ``--tables``."""
    return args.tables or args.programs or None


def _fidelity(args):
    """``psi-eval fidelity``: score every published cell, gate on drift.

    Exits non-zero when overall drift exceeds ``--max-drift`` — the CI
    fidelity gate.  ``--json`` emits the machine-readable document
    (schema in ``docs/OBSERVABILITY.md``).
    """
    import json

    from repro.eval import specs
    from repro.obs import fidelity

    # Fidelity scores paper drift; the numbers are only meaningful for
    # the configuration the paper describes.
    try:
        specs.assert_faithful("psi-eval fidelity")
    except RuntimeError as exc:
        raise SystemExit(str(exc))
    report = fidelity.collect(tables=_selected_tables(args),
                              threshold=args.max_drift
                              if args.max_drift is not None
                              else fidelity.DEFAULT_MAX_DRIFT)
    text = (json.dumps(report.to_dict(), indent=2, sort_keys=True)
            if args.json else report.render())
    return text, 0 if report.passed else 1


def _diff(args) -> str:
    """``psi-eval diff A B``: differential profile between two saved
    profile snapshots."""
    from repro.obs import diffprof

    operands = args.programs or []
    if len(operands) != 2:
        raise SystemExit("psi-eval diff needs exactly two operands: two "
                         "profile snapshot files (psi-eval profile writes "
                         "<name>.profile.json)")
    not_snapshots = [path for path in operands
                     if not diffprof.is_snapshot_file(path)]
    if not_snapshots:
        raise SystemExit(f"psi-eval diff: not a profile snapshot file: "
                         f"{', '.join(not_snapshots)}")
    return diffprof.diff_snapshot_files(*operands)


def _report(args):
    """``psi-eval report [--html]``: the fidelity report, and with
    ``--html`` the self-contained dashboard written to ``--output``."""
    import pathlib
    import time

    from repro.obs import fidelity

    selected = _selected_tables(args)
    report = fidelity.collect(tables=selected, threshold=args.max_drift
                              if args.max_drift is not None
                              else fidelity.DEFAULT_MAX_DRIFT)
    status = 0 if report.passed else 1
    if not args.html:
        return report.render(), status

    from repro.eval.htmlreport import build_dashboard

    wants_figure1 = "figure1" in (selected or fidelity.TABLES)
    figure1_result = figure1.generate() if wants_figure1 else None
    html = build_dashboard(
        report, figure1_result=figure1_result,
        generated=time.strftime("%Y-%m-%dT%H:%M:%S"))
    out = pathlib.Path(args.output)
    out.write_text(html)
    return (f"wrote {out} ({len(html)} bytes; overall fidelity score "
            f"{report.overall_score:.1f}, "
            f"{'PASS' if report.passed else 'FAIL'})"), status


def _crosscheck(args):
    """``psi-eval crosscheck``: differential answer validation.

    Runs workloads under a run-spec pair (``--specs A,B``, default
    ``faithful,baseline``) and compares canonical answer multisets and
    counters; exits 1 on any divergence.  ``--all`` (or no workload
    names) sweeps every shared (non-``psi_only``) workload; when both
    specs run the PSI engine (``--specs faithful,indexed``, the
    semantic gate for the indexing optimisation) the default sweep is
    the full registry, ``psi_only`` workloads included, with the DEC
    baseline as an extra oracle on shared workloads, and the report
    adds per-workload microsteps, step/time ratios, the second spec's
    clause-selection counters and the geomean step ratio.  ``--jobs
    N`` pre-warms both specs on N processes.  ``--report FILE``
    additionally writes the machine-readable JSON report (the CI job
    uploads it as the mismatch artifact).
    """
    import json
    import pathlib

    from repro.engine.crosscheck import crosscheck
    from repro.eval.specs import get_spec
    from repro.workloads import get

    spec_pair = (_parse_spec_pair(args.specs) if args.specs
                 else ("faithful", "baseline"))
    psi_pair = all(get_spec(s).engine == "psi" for s in spec_pair)
    names = None if (args.all or not args.programs) else args.programs
    if names:
        _validate_workloads(names, "crosscheck")
        if not psi_pair:
            psi_only = [name for name in names if get(name).psi_only]
            if psi_only:
                raise SystemExit(
                    f"cannot crosscheck psi_only workload(s): "
                    f"{', '.join(psi_only)} (KL0-only builtins have no "
                    "baseline implementation; use --specs with two PSI "
                    "specs, e.g. faithful,indexed, to compare PSI "
                    "configurations instead)")
    report = crosscheck(names, specs=spec_pair, jobs=args.jobs)
    if args.report:
        path = pathlib.Path(args.report)
        path.write_text(json.dumps(report.to_dict(), indent=2,
                                   sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    return report.render(), 0 if report.ok else 1


def _debug_workload(args):
    """``psi-eval debug``: the time-travel trace explorer.

    Replays the workload's recorded memory-access stream through the
    checkpointed state-reconstruction engine
    (:mod:`repro.obs.timetravel`) and, per workload:

    * default — writes the self-contained HTML explorer (scrubber,
      per-area heatmaps, cache and choicepoint timelines) to ``--out``
      (default ``psi-debug-<name>.html``; into it when ``--out`` is a
      directory);
    * ``--step N`` — prints the reconstructed machine state at
      microstep N as text instead (no file written);
    * ``--spec NAME`` — replays the workload under another PSI run
      spec; under ``indexed`` the choicepoint timeline shows the
      narrower control stack and the header reports the index
      hit/miss and choicepoints-avoided counters;
    * ``--diff`` — also runs the DEC baseline, pinpoints the first
      diverging answer and the PSI microstep where it was emitted, and
      writes the side-by-side report (``psi-diff-<name>.html``); exits
      1 when the engines diverge.  This is the command ``psi-eval
      crosscheck`` prints for every divergence it finds.

    ``--stride N`` overrides the auto-sized checkpoint interval.
    """
    import pathlib
    import time

    from repro.eval import debughtml, specs
    from repro.eval.runner import run_spec
    from repro.obs.timetravel import TraceExplorer, diff_workload

    _validate_workloads(args.programs, "debug")
    if args.diff:
        # The differential replay is defined against the faithful
        # configuration: a --spec override must not silently fall back
        # to faithful replays.
        try:
            specs.assert_faithful("psi-eval debug --diff")
        except RuntimeError as exc:
            raise SystemExit(str(exc))
    debug_spec = specs.default_spec()
    if debug_spec.engine != "psi":
        raise SystemExit(f"psi-eval debug: spec {debug_spec.name!r} runs "
                         "the baseline engine, which records no memory "
                         "trace to explore")
    generated = time.strftime("%Y-%m-%dT%H:%M:%S")

    def out_path(kind: str, name: str) -> pathlib.Path:
        default = pathlib.Path(f"psi-{kind}-{name}.html")
        if args.out is None:
            return default
        path = pathlib.Path(args.out)
        if path.is_dir():
            return path / default
        if len(args.programs) == 1:
            return path
        return path.with_name(f"{path.stem}-{name}{path.suffix or '.html'}")

    lines = []
    status = 0
    for name in args.programs:
        if args.diff:
            divergence, psi, baseline = diff_workload(name)
            explorer = TraceExplorer(psi.trace, stride=args.stride)
            html = debughtml.build_diff(name, divergence, psi,
                                        baseline.answers, explorer,
                                        generated=generated)
            out = out_path("diff", name)
            out.write_text(html)
            lines.append(f"== {name} ==")
            lines.append(divergence.describe() if divergence is not None
                         else f"engines agree on all "
                              f"{len(psi.answers)} answer(s)")
            lines.append(f"wrote {out} ({len(html)} bytes)")
            status = max(status, 1 if divergence is not None else 0)
            continue
        run = run_spec(name, debug_spec, record_trace=True)
        explorer = TraceExplorer(run.trace, stride=args.stride)
        if args.step is not None:
            if not 0 <= args.step <= explorer.n_steps:
                raise SystemExit(
                    f"psi-eval debug {name}: --step {args.step} outside "
                    f"[0, {explorer.n_steps}]")
            lines.append(f"== {name} ==")
            lines.append(explorer.state_at(args.step).render())
            continue
        html = debughtml.build_explorer(name, run, explorer,
                                        generated=generated)
        out = out_path("debug", name)
        out.write_text(html)
        lines.append(f"== {name} ==")
        lines.append(f"{explorer.n_steps} microsteps, stride "
                     f"{explorer.stride}, "
                     f"{len(explorer.checkpoint_steps)} checkpoint(s)")
        lines.append(f"wrote {out} ({len(html)} bytes)")
    return "\n".join(lines), status


def _serve(args) -> str:
    """``psi-eval serve``: the long-running evaluation service.

    Binds ``--host:--port`` (``--port 0`` picks an ephemeral port,
    announced on stdout), keeps ``--workers`` warm engine worker
    processes, and serves solve/replay/metrics/health/fidelity requests
    over the length-prefixed JSON protocol until a client sends
    ``drain`` (or the process receives SIGINT/SIGTERM).  Replays are
    dispatched at once while a worker is free for them and coalesce
    per workload only while they queue.  See ``docs/SERVING.md`` for
    the protocol and a worked session; ``perfbench``'s ``serve-mix``
    workload measures it under load.
    """
    import asyncio

    from repro.serve.server import run_server

    return asyncio.run(run_server(
        host=args.host, port=args.port, workers=args.workers,
        disk_cache=not args.no_disk_cache))


_TARGETS = {
    "table1": lambda args: table1.render(table1.generate(args.programs or None)),
    "table2": lambda args: table2.render(table2.generate()),
    "table3": lambda args: table3.render(table3.generate()),
    "table4": lambda args: table4.render(table4.generate()),
    "table5": lambda args: table5.render(table5.generate()),
    "table6": lambda args: table6.render(table6.generate()),
    "table7": lambda args: table7.render(table7.generate()),
    "figure1": lambda args: figure1.render(figure1.generate()),
    "ablations": lambda args: ablations.render(ablations.generate()),
    "run": _run_workload,
    "profile": _profile_workload,
    "cache": _cache_admin,
    "fidelity": _fidelity,
    "diff": _diff,
    "report": _report,
    "crosscheck": _crosscheck,
    "debug": _debug_workload,
    "serve": _serve,
}

#: Targets ``psi-eval all`` does not expand to (admin/meta commands).
_NON_ALL = ("run", "profile", "cache", "fidelity", "diff", "report",
            "crosscheck", "debug", "serve")


def _target_workloads(target: str, args) -> list[str]:
    """The PSI workloads a target will execute (for parallel pre-warm)."""
    from repro.workloads import table1_workloads

    if target == "table1":
        names = [w.name for w in table1_workloads()]
        if args.programs:
            names = [n for n in names if n in args.programs]
        return names
    if target == "table2":
        return list(table2.PROGRAMS.values())
    if target in ("table3", "table4", "table5"):
        return list(table3.HARDWARE_PROGRAMS.values())
    if target == "table6":
        return [table6.WORKLOAD]
    if target == "table7":
        return list(table7.PROGRAMS.values())
    if target == "figure1":
        return [figure1.WORKLOAD]
    if target == "ablations":
        return list(ablations.ASSOCIATIVITY_PROGRAMS.values()) + [
            ablations.POLICY_PROGRAM]
    if target == "run":
        return list(args.programs or ())
    if target in ("fidelity", "report"):
        from repro.obs.fidelity import TABLES
        sub_args = argparse.Namespace(**{**vars(args), "programs": None})
        names: dict[str, None] = {}
        for sub in (_selected_tables(args) or TABLES):
            names.update(dict.fromkeys(_target_workloads(sub, sub_args)))
        return list(names)
    return []


def build_parser() -> argparse.ArgumentParser:
    """The ``psi-eval`` argument parser (importable so documentation
    examples can be parse-checked without executing workloads)."""
    parser = argparse.ArgumentParser(
        prog="psi-eval",
        description="Regenerate the tables and figures of the PSI paper.")
    parser.add_argument("target", choices=[*_TARGETS, "all"],
                        help="which artifact to regenerate")
    parser.add_argument("names", nargs="*", default=[], metavar="workload",
                        help="workload names (for 'run', 'profile' and "
                             "'table1') or the cache action ('clear'/'info')")
    parser.add_argument("--programs", nargs="+", default=None,
                        metavar="workload",
                        help="workload names (same as the positional form)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run workloads on N processes (default: serial)")
    parser.add_argument("--no-disk-cache", action="store_true",
                        help="bypass the persistent .psi-cache run cache")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="output directory for 'profile' artifacts "
                             "(default: psi-obs/) or output file (or "
                             "directory) for the 'debug' HTML explorer "
                             "(default: psi-debug-<name>.html)")
    parser.add_argument("--top", type=int, default=10, metavar="N",
                        help="rows in the 'profile' top-predicates table")
    parser.add_argument("--json", action="store_true",
                        help="'fidelity': emit the machine-readable JSON "
                             "document instead of the text table")
    parser.add_argument("--max-drift", type=float, default=None,
                        metavar="PCT",
                        help="'fidelity'/'report': fail (exit 1) when "
                             "overall drift exceeds PCT (default: "
                             "repro.obs.fidelity.DEFAULT_MAX_DRIFT)")
    parser.add_argument("--tables", nargs="+", default=None, metavar="table",
                        help="'fidelity'/'report': score only these tables "
                             "(table1..table7, figure1; same as the "
                             "positional form)")
    parser.add_argument("--html", action="store_true",
                        help="'report': write the self-contained HTML "
                             "dashboard to --output")
    parser.add_argument("--output", default="psi-report.html", metavar="FILE",
                        help="'report --html' output path "
                             "(default: psi-report.html)")
    parser.add_argument("--all", action="store_true",
                        help="'crosscheck': sweep the default "
                             "workload set instead of named workloads "
                             "(the default when no names are given)")
    parser.add_argument("--report", default=None, metavar="FILE",
                        help="'crosscheck': also write the JSON "
                             "report to FILE")
    parser.add_argument("--spec", default=None, metavar="NAME",
                        help="run spec the spec-agnostic targets execute "
                             "under (faithful, indexed, unfused, baseline, "
                             "or any registered spec; default: faithful). "
                             "'fidelity' refuses any spec but faithful")
    parser.add_argument("--specs", default=None, metavar="A,B",
                        help="'crosscheck': compare this run-spec pair "
                             "(e.g. faithful,indexed; default: "
                             "faithful,baseline)")
    parser.add_argument("--step", type=int, default=None, metavar="N",
                        help="'debug': print the reconstructed machine "
                             "state at microstep N instead of writing "
                             "the HTML explorer")
    parser.add_argument("--diff", action="store_true",
                        help="'debug': run the workload on both engines, "
                             "pinpoint the first diverging answer and its "
                             "PSI microstep, write the side-by-side report")
    parser.add_argument("--stride", type=int, default=None, metavar="K",
                        help="'debug': checkpoint every K microsteps "
                             "(default: auto-sized from the trace length)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="'serve': warm engine worker processes; "
                             "replays dispatch at once while fewer than N "
                             "replay batches run, and coalesce per "
                             "workload only while they wait (default: 2)")
    parser.add_argument("--port", type=int, default=7071, metavar="P",
                        help="'serve': TCP port to bind (0 picks an "
                             "ephemeral port, announced on stdout; "
                             "default: 7071)")
    parser.add_argument("--host", default="127.0.0.1", metavar="H",
                        help="'serve': address to bind (default: 127.0.0.1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    # Intermixed parsing so flag-then-positional orders work too —
    # ``psi-eval debug --diff qsort`` is the exact command crosscheck
    # prints for a divergence, and plain parse_args would reject the
    # workload name after the flag.
    args = build_parser().parse_intermixed_args(argv)
    # Positional names and --programs are interchangeable; merge them so
    # both `psi-eval run bup-2` and `psi-eval run --programs bup-2` work.
    args.programs = [*args.names, *(args.programs or [])] or None

    from repro.eval import runner
    if args.no_disk_cache:
        runner.set_disk_cache(False)
    if args.spec:
        from repro.eval import specs
        try:
            specs.set_default_spec(args.spec)
        except ValueError as exc:
            raise SystemExit(f"psi-eval: {exc}")

    if args.target == "all":
        targets = [t for t in _TARGETS if t not in _NON_ALL]
    else:
        targets = [args.target]

    if args.jobs and args.jobs > 1:
        prewarm: dict[str, None] = {}
        for target in targets:
            prewarm.update(dict.fromkeys(_target_workloads(target, args)))
        if prewarm:
            # Trace-free: on a warm disk cache only the targets that
            # replay (figure1, ablations) load trace sections, on demand.
            runner.run_many(prewarm, jobs=args.jobs, record_trace=False)

    # Handlers return a string, or (string, exit_code) when the command
    # carries a gate verdict (fidelity/report); the worst code wins.
    status = 0
    for name in targets:
        if args.target == "all":
            # Section headers make `all` the committed report format
            # (results/eval_report.txt).
            print(f"== {name} ==", flush=True)
        result = _TARGETS[name](args)
        if isinstance(result, tuple):
            result, code = result
            status = max(status, code)
        print(result)
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
