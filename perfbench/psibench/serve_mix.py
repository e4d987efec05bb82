"""serve-mix: a ``psi-eval serve`` subprocess driven by two closed-loop clients.

The server runs two workers on an ephemeral port with a private run
cache.  Two :class:`~repro.serve.client.ServeClient` connections, one
thread each, take ops from a shared pass: every program solved under
``faithful``, ``indexed`` and ``baseline``, and every small-trace
program replayed with ``[{}]`` and with a two-capacity sweep.  Warm-up
sends every solve from both clients at once until every worker has
served every solve, then repeats whole passes until one reports nothing
but ``memory_hit`` cache events, so the measured phase has no disk
loads and no interpretation in it.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import threading
import time

from psibench import common, hostspeed, solve_cold

WORKERS = 2
CLIENTS = 2
SOLVE_SPECS = ("faithful", "indexed", "baseline")
#: Programs whose traces are short enough for service-sized replays.
REPLAY_PROGRAMS = ("nreverse", "qsort", "tree", "reverse-function",
                   "slow-reverse", "bup-1", "bup-2", "bup-3", "lcp-1",
                   "lcp-2", "lcp-3")
REPLAY_CONFIGS = {"one": [{}],
                  "sweep": [{"capacity_words": 1024},
                            {"capacity_words": 8192}]}
COMPOSITION = (
    tuple(("solve", name, spec) for name in solve_cold.PROGRAMS
          for spec in SOLVE_SPECS)
    + tuple(("replay", name, kind) for name in REPLAY_PROGRAMS
            for kind in REPLAY_CONFIGS))
SOLVE_KEYS = frozenset(op for op in COMPOSITION if op[0] == "solve")
MAX_WARMUP_PASSES = 60
#: The traced run goes on until the replay p99 has its samples.
TRACED_MIN_REPLAYS = 1000
TRACED_MAX_SECONDS = 120.0
READY = re.compile(r"listening on (\S+):(\d+)")


def solve_fingerprint(response: dict) -> dict:
    data = {"answers": sorted(response["answers"]),
            "inferences": response["inferences"]}
    if response["spec"] == "baseline":
        data["work"] = response["work"]
    else:
        data.update(steps=response["steps"],
                    cache_hit_ratio=response["cache_hit_ratio"])
    return data


class Server:
    """The ``psi-eval serve`` subprocess and its lifetime."""

    def __init__(self, workspace):
        env = dict(os.environ, PYTHONPATH=str(common.SRC),
                   PSI_CACHE_DIR=str(workspace.sub("cache")))
        self.stderr = (workspace.path / "server.stderr").open("w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.eval.cli", "serve", "--port", "0",
             "--workers", str(WORKERS)],
            cwd=workspace.path, env=env, stdout=subprocess.PIPE,
            stderr=self.stderr, text=True)
        line = self.proc.stdout.readline()
        match = READY.search(line)
        if match is None:
            self.close()
            raise RuntimeError(f"serve did not start: {line.strip()!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def drain(self, client) -> int:
        """Drain through ``client``; return the server's exit status."""
        client.drain()
        self.proc.communicate(timeout=60)
        return self.proc.returncode

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.stderr.close()


class Mix:
    """Runs passes of the mix over the client connections."""

    def __init__(self, clients, reference, seed: int, tracer=None):
        self.clients = clients
        self.reference = reference
        self.seed = seed
        self.tracer = tracer
        self.lock = threading.Lock()
        self.index = 0

    def run_pass(self, traced: bool = False) -> tuple[common.Pass, list]:
        """One pass; returns it and one record per request."""
        todo = iter(common.draw_pass(COMPOSITION, self.seed, self.index))
        done = common.Pass(self.index, traced, [])
        records = []
        self.index += 1
        start = time.perf_counter()

        def loop(client):
            while True:
                with self.lock:
                    op = next(todo, None)
                    position = len(done.op_ids)
                    if op is not None:
                        done.op_ids.append((done.index, position, op))
                if op is None:
                    return
                record = self.request(client, op, (done.index, position, op),
                                      traced)
                with self.lock:
                    records.append(record)
                    done.op_ms += record["ms"]

        self._on_clients(loop)
        done.seconds = time.perf_counter() - start
        return done, records

    def paired_pass(self) -> list:
        """Every solve once from each client at the same moment."""
        barrier = threading.Barrier(len(self.clients))
        records = []

        def loop(client):
            for op in sorted(SOLVE_KEYS):
                barrier.wait(timeout=300)
                record = self.request(client, op, None, False)
                with self.lock:
                    records.append(record)

        self._on_clients(loop)
        return records

    def _on_clients(self, loop) -> None:
        """Run ``loop(client)`` on one thread per client; re-raise the
        first exception a thread ended with."""
        errors = []

        def guarded(client):
            try:
                loop(client)
            except Exception as exc:     # surfaced on the calling thread
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(client,))
                   for client in self.clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]

    def request(self, client, op, op_id, traced: bool) -> dict:
        kind, name, variant = op
        clock = common.OpClock(self.tracer if traced else None, op_id)
        record = {"op": op, "problem": None, "response": None}
        try:
            with clock:
                if kind == "solve":
                    response = client.solve(name, spec=variant)
                else:
                    response = client.replay(name, REPLAY_CONFIGS[variant],
                                             spec="faithful")
            record["response"] = response
            if kind == "solve":
                got = solve_fingerprint(response)
                want = self.reference["solve"][f"{name}/{variant}"]
            else:
                got = response["stats"]
                want = self.reference["replay"][f"{name}/{variant}"]
            record["problem"] = common.first_difference(
                f"{kind} {name}/{variant}", got, want)
        except Exception as exc:     # a failed op, never a traceback
            record["problem"] = f"{kind} {name}/{variant}: " \
                                f"{common.one_line(exc)}"
        record["ms"] = clock.ms
        return record


def memory_only(record) -> bool:
    events = record["response"].get("cache_events")
    return bool(events) and all(key.startswith("memory_hit")
                                for key in events)


def warm_up(mix, watch) -> int:
    """Warm every worker; returns the number of passes it took.

    Paired passes send each solve from both clients at once, so the
    two idle workers take one copy each, until every worker has served
    every solve.  Then whole passes of the mix repeat until one reports
    nothing but ``memory_hit`` cache events.  ``watch`` laps after
    each pass.
    """
    seen: dict = {}
    for passes in range(1, MAX_WARMUP_PASSES + 1):
        covered = (len(seen) == WORKERS
                   and all(keys >= SOLVE_KEYS for keys in seen.values()))
        records = mix.run_pass()[1] if covered else mix.paired_pass()
        watch.lap()
        failed = [r["problem"] for r in records if r["problem"]]
        if failed:
            raise RuntimeError(f"warm-up request failed: {failed[0]}")
        solves = [r for r in records if r["op"][0] == "solve"]
        for record in solves:
            seen.setdefault(record["response"]["worker_pid"],
                            set()).add(record["op"])
        if covered and all(memory_only(r) for r in solves):
            return passes
    raise RuntimeError(f"workers not warm after {MAX_WARMUP_PASSES} passes")


def server_counters(client) -> dict:
    return client.metrics()["server"]


def run(args, workspace, tracer=None) -> common.Result:
    from repro.obs.metrics import Histogram
    from repro.serve.client import ServeClient

    if tracer is not None:
        tracer.wrap(ServeClient, "request", "serve.request")
    reference = common.load_reference()["serve"]
    watch = hostspeed.Stopwatch()
    server = Server(workspace)
    clients = []
    try:
        clients = [ServeClient(server.host, server.port, timeout=120.0)
                   .connect() for _ in range(CLIENTS)]
        watch.lap()
        mix = Mix(clients, reference, args.seed, tracer)
        warmup_passes = warm_up(mix, watch)
        setup = [watch.ref_s]

        before = server_counters(clients[0])
        ops = common.Ops()
        passes, records = [], []
        begin = time.perf_counter()
        # Passes overlap their requests, so the host-speed probes
        # bracket whole passes rather than single requests.
        ops.probes_ms.append(hostspeed.probe())
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if tracer is not None:
                tracer.active = traced
            done, batch = mix.run_pass(traced)
            ops.probes_ms.append(hostspeed.probe())
            ops.busy_s += done.seconds
            ops.ref_s += hostspeed.scale(done.seconds, *ops.probes_ms[-2:])
            passes.append(done)
            records += batch
            elapsed = time.perf_counter() - begin
            if elapsed < args.seconds:
                continue
            if tracer is None or elapsed > TRACED_MAX_SECONDS:
                break
            replays = sum(1 for r in records if r["op"][0] == "replay")
            if len(passes) >= 3 and replays >= TRACED_MIN_REPLAYS:
                break
        if tracer is not None:
            tracer.active = False
        ops.elapsed_s = time.perf_counter() - begin
        after = server_counters(clients[0])
        rss = common.tree_rss_mb(server.proc.pid)
        status = server.drain(clients[0])
    finally:
        for client in clients:
            client.close()
        server.close()

    for record in records:
        ops.record(record["op"], record["ms"], record["problem"])
    if status != 0:
        ops.record(("drain",), 0.0, f"server exited with status {status}")
    result = common.Result(ops, passes, setup, rss)
    ok = [r for r in records if r["problem"] is None]
    solves = [r for r in ok if r["op"][0] == "solve"]
    replays = [r for r in ok if r["op"][0] == "replay"]
    hit_frac = (sum(memory_only(r) for r in solves) / len(solves)
                if solves else 0.0)
    result.lines += [
        f"  memory-hit share of measured solves: {hit_frac:.4f} "
        f"(n={len(solves)}), warm-up passes: {warmup_passes}",
    ]
    if tracer is None:
        return result

    def delta(name):
        return after.get(name, {}).get("value", 0) - \
            before.get(name, {}).get("value", 0)

    latency = Histogram("serve.latency_ms", after["serve.latency_ms"]
                        ["boundaries"])
    latency.buckets = [a - b for a, b in zip(
        after["serve.latency_ms"]["buckets"],
        before["serve.latency_ms"]["buckets"])]
    latency.count = sum(latency.buckets)
    latency.sum = (after["serve.latency_ms"]["sum"]
                   - before["serve.latency_ms"]["sum"])
    client_ms = [r["ms"] for r in ok]
    pids: dict = {}
    for record in ok:
        pid = record["response"]["worker_pid"]
        pids[pid] = pids.get(pid, 0) + 1
    metrics = common.span_metrics(tracer, passes)
    metrics.update({
        "serve.solve_ms.p50": common.percentile_or_nan(
            [r["ms"] for r in solves], 50),
        "serve.replay_ms.p50": common.percentile_or_nan(
            [r["ms"] for r in replays], 50),
        "serve.replay_ms.p99": common.percentile_or_nan(
            [r["ms"] for r in replays], 99),
        "serve.server_ms.p50": _bucket_percentile(latency, 50),
        "serve.server_ms.p99": _bucket_percentile(latency, 99),
        "serve.wire_ms": (sum(client_ms) / len(client_ms)
                          - latency.sum / latency.count),
        "serve.batch_ratio": (delta("serve.replay.configs_simulated")
                              / delta("serve.replay.configs_requested")),
        "serve.memory_hit_frac": hit_frac,
        "serve.worker_skew": max(pids.values()) * WORKERS / len(ok),
        "serve.warmup_passes": warmup_passes,
    })
    result.extra = metrics
    return result


def _bucket_percentile(histogram, q: float) -> float:
    """The server histogram's interpolated percentile, with the same
    ten-samples-beyond rule as :func:`common.percentile`."""
    if q > 50 and histogram.count * (1 - q / 100.0) < common.MIN_BEYOND:
        return math.nan
    return histogram.percentile(q)
