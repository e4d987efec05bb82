#!/usr/bin/env python
"""Load generator for ``psi-eval serve``: latency and throughput.

Boots a server subprocess (ephemeral port, parsed from the ready line),
warms the worker pool, then drives the **full workload registry** from
``--concurrency`` client threads — each thread owns one
:class:`~repro.serve.client.ServeClient` connection and pulls requests
from a shared, seed-shuffled queue.  The request mix mirrors what the
service exists to serve:

* ``solve`` under the ``faithful`` run spec for every workload,
* ``solve`` under the ``indexed`` run spec for every workload (the
  spec-parameterized traffic, disk-cached under its own fingerprint),
* ``solve`` under the ``baseline`` run spec for every non-KL0-only
  workload (the crosscheck traffic), and
* ``replay`` with a small config sweep per workload (the batchable
  traffic — replays of one workload that queue behind busy workers
  coalesce into single ``simulate_many`` calls server-side).

Every request's wall-clock latency is recorded client-side; the report
gives exact (not histogram-estimated) p50/p95/p99 plus throughput
(requests per second over the measured phase), per-op breakdowns, the
server's own metrics snapshot at drain time, and the batching
efficiency (configs requested / configs simulated or reused).  The run
**fails** on any request error, a throughput of zero, or an unclean
server exit after drain.  ``--report PATH`` writes the full JSON report
(CI uploads this artifact).  The benchmark of record for the service is
``perfbench``'s ``serve-mix`` workload (``perfbench/README.md``).

Usage::

    PYTHONPATH=src python scripts/load_gen.py              # full run
    PYTHONPATH=src python scripts/load_gen.py --quick      # CI smoke
    PYTHONPATH=src python scripts/load_gen.py --concurrency 16 --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import queue
import random
import re
import subprocess
import sys
import tempfile
import threading
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve.client import ServeClient, ServeError  # noqa: E402

#: Cheap workloads for ``--quick`` (the CI smoke): small step counts,
#: still covering solve/crosscheck/replay traffic shapes.
QUICK_WORKLOADS = ("nreverse", "qsort", "queens-one", "lisp-fib")

#: Cache capacities swept per replay request (words).  Two entries so
#: batching has a union to merge; kept small so replay stays the cheap
#: op it is in production.
REPLAY_CAPACITIES = (1024, 8192)

READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def boot_server(workers: int, cache_dir: str | None) -> tuple:
    """Start ``psi-eval serve`` on an ephemeral port; return (proc, host, port)."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    if cache_dir is not None:
        env["PSI_CACHE_DIR"] = cache_dir
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval.cli", "serve",
         "--port", "0", "--workers", str(workers)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, cwd=REPO, env=env)
    line = proc.stdout.readline()
    match = READY_RE.search(line)
    if not match:
        proc.kill()
        raise RuntimeError(f"server did not announce readiness: {line!r}")
    return proc, match.group(1), int(match.group(2))


def build_requests(workloads: list[dict], seed: int) -> list[tuple]:
    """The deterministic request mix, shuffled so concurrent threads
    interleave ops and workloads (which is what exercises batching)."""
    requests: list[tuple] = []
    for info in workloads:
        name = info["name"]
        requests.append(("solve", name, {"spec": "faithful"}))
        requests.append(("solve", name, {"spec": "indexed"}))
        if not info["psi_only"]:
            requests.append(("solve", name, {"spec": "baseline"}))
        requests.append(("replay", name, {"configs": [
            {"capacity_words": capacity} for capacity in REPLAY_CAPACITIES]}))
        requests.append(("replay", name, {"configs": [{}]}))
    random.Random(seed).shuffle(requests)
    return requests


def run_phase(host: str, port: int, requests: list[tuple],
              concurrency: int) -> dict:
    """Drive ``requests`` from ``concurrency`` threads; measure each."""
    work: queue.Queue = queue.Queue()
    for item in requests:
        work.put(item)
    records: list[dict] = []
    errors: list[str] = []
    lock = threading.Lock()

    def worker() -> None:
        with ServeClient(host, port) as client:
            while True:
                try:
                    op, workload, fields = work.get_nowait()
                except queue.Empty:
                    return
                t0 = time.perf_counter()
                try:
                    result = client.request(op, workload=workload, **fields)
                    record = {"op": op, "workload": workload,
                              "latency_ms": (time.perf_counter() - t0) * 1e3}
                    if op == "replay":
                        record["batch_size"] = result["batch_size"]
                    with lock:
                        records.append(record)
                except (ServeError, Exception) as exc:  # noqa: B014
                    with lock:
                        errors.append(f"{op} {workload}: {exc}")

    threads = [threading.Thread(target=worker, name=f"load-gen-{i}")
               for i in range(concurrency)]
    t0 = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - t0

    latencies = sorted(r["latency_ms"] for r in records)

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        index = min(len(latencies) - 1, int(q / 100.0 * len(latencies)))
        return round(latencies[index], 2)

    by_op: dict[str, list[float]] = {}
    for record in records:
        by_op.setdefault(record["op"], []).append(record["latency_ms"])
    batched = [r for r in records
               if r["op"] == "replay" and r.get("batch_size", 1) > 1]
    return {
        "requests": len(records),
        "errors": errors,
        "elapsed_s": round(elapsed, 3),
        "throughput_rps": round(len(records) / elapsed, 2) if elapsed else 0.0,
        "latency_ms": {"p50": pct(50), "p95": pct(95), "p99": pct(99),
                       "max": round(latencies[-1], 2) if latencies else 0.0},
        "by_op": {op: {"count": len(vals),
                       "mean_ms": round(sum(vals) / len(vals), 2)}
                  for op, vals in sorted(by_op.items())},
        "replay_requests_batched": len(batched),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--concurrency", type=int, default=8,
                        help="client threads (default 8)")
    parser.add_argument("--workers", type=int, default=4,
                        help="server worker processes (default 4)")
    parser.add_argument("--rounds", type=int, default=2,
                        help="measured passes over the request mix "
                             "(default 2; the first follows a warm-up "
                             "pass, so it runs against hot caches)")
    parser.add_argument("--seed", type=int, default=1987,
                        help="shuffle seed for the request mix")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 4 cheap workloads, concurrency 4, "
                             "1 round")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the full JSON report here")
    parser.add_argument("--keep-cache", action="store_true",
                        help="serve from the repo .psi-cache instead of a "
                             "throwaway temp cache")
    args = parser.parse_args(argv)

    if args.quick:
        args.concurrency = min(args.concurrency, 4)
        args.workers = min(args.workers, 2)
        args.rounds = 1

    cache_ctx = (tempfile.TemporaryDirectory(prefix="psi-loadgen-cache-")
                 if not args.keep_cache else None)
    cache_dir = cache_ctx.name if cache_ctx else None
    proc, host, port = boot_server(args.workers, cache_dir)
    print(f"server up on {host}:{port} "
          f"({args.workers} workers, pid {proc.pid})")

    failures: list[str] = []
    try:
        with ServeClient(host, port) as client:
            workloads = client.request("workloads")["workloads"]
            if args.quick:
                workloads = [w for w in workloads
                             if w["name"] in QUICK_WORKLOADS]
            print(f"registry: {len(workloads)} workload(s)")

            requests = build_requests(workloads, args.seed)
            print(f"warm-up pass ({len(requests)} requests, "
                  f"concurrency {args.concurrency})...")
            t0 = time.perf_counter()
            warmup = run_phase(host, port, requests, args.concurrency)
            print(f"  warm-up done in {time.perf_counter() - t0:.1f}s "
                  f"({warmup['requests']} ok, {len(warmup['errors'])} err)")
            failures.extend(warmup["errors"])

            measured_requests = requests * args.rounds
            print(f"measured phase ({len(measured_requests)} requests)...")
            phase = run_phase(host, port, measured_requests,
                              args.concurrency)
            failures.extend(phase["errors"])
            print(f"  {phase['requests']} requests in {phase['elapsed_s']}s "
                  f"= {phase['throughput_rps']} req/s; "
                  f"p50 {phase['latency_ms']['p50']} ms, "
                  f"p99 {phase['latency_ms']['p99']} ms; "
                  f"{phase['replay_requests_batched']} replay(s) batched")

            server_metrics = client.request("metrics")["server"]
            health = client.request("health")
            drain = client.drain()
            print(f"  drained: {drain['summary']}")
    finally:
        try:
            returncode = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            returncode = proc.wait()
            failures.append("server did not exit within 60s of drain")
        if cache_ctx is not None:
            cache_ctx.cleanup()
    if returncode != 0:
        failures.append(f"server exited with status {returncode}")
    if phase["throughput_rps"] <= 0:
        failures.append("measured throughput was zero")

    batches = server_metrics.get("serve.replay.batches", {}).get("value", 0)
    simulated = server_metrics.get("serve.replay.configs_simulated",
                                   {}).get("value", 0)
    reused = server_metrics.get("serve.replay.configs_reused",
                                {}).get("value", 0)
    requested = server_metrics.get("serve.replay.configs_requested",
                                   {}).get("value", 0)
    answered = simulated + reused
    report = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "concurrency": args.concurrency,
        "workers": args.workers,
        "workloads": len(workloads),
        "rounds": args.rounds,
        "warmup": warmup,
        "measured": phase,
        "batching": {"batches": batches,
                     "configs_requested": requested,
                     "configs_simulated": simulated,
                     "configs_reused": reused,
                     "dedup_ratio": (round(requested / answered, 2)
                                     if answered else None)},
        "server_health_final": health,
        "server_metrics": server_metrics,
        "failures": failures,
    }
    if args.report:
        path = pathlib.Path(args.report)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
