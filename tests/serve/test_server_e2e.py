"""End-to-end tests of ``psi-eval serve`` over a real subprocess.

One server boots per module (ephemeral port parsed from the ready
line, worker pool of 2); tests drive it with real protocol clients —
concurrently, from threads — and check the serving answers against the
same engines run locally.  The teardown drains the server and asserts
a clean (status 0) exit, so graceful shutdown is under test on every
run of this module.
"""

import json
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve.client import ServeClient, ServeError
from repro.serve.protocol import (
    MAX_REPLAY_CONFIGS,
    cache_config_from_json,
    cache_stats_to_json,
)

#: Cheap workloads, so the module stays tier-1 affordable.
WORKLOADS = ("nreverse", "qsort", "queens-one")

WORKERS = 2

READY_RE = re.compile(r"listening on ([\d.]+):(\d+)")


@pytest.fixture(scope="module")
def server():
    """A live ``psi-eval serve`` subprocess; drained clean at teardown.

    The suite's session ``PSI_CACHE_DIR`` redirect is inherited through
    the environment, so the server's workers share (and file-lock) the
    same disk cache as the local comparison runs below.
    """
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.eval.cli", "serve",
         "--port", "0", "--workers", str(WORKERS)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    line = proc.stdout.readline()
    match = READY_RE.search(line)
    if not match:
        proc.kill()
        pytest.fail(f"server did not announce readiness: {line!r}")
    yield match.group(1), int(match.group(2))
    with ServeClient(match.group(1), int(match.group(2))) as client:
        drained = client.drain()
    assert drained["drained"] is True
    assert proc.wait(timeout=60) == 0, "server exited uncleanly after drain"


def test_ping_and_workloads(server):
    host, port = server
    with ServeClient(host, port) as client:
        assert client.ping() == {"pong": True}
        names = {w["name"] for w in client.request("workloads")["workloads"]}
    assert set(WORKLOADS) <= names


def test_concurrent_solves_match_local_engines(server):
    """Served answers == locally-run answers, as canonical multisets."""
    from repro.engine.answers import answer_multiset
    from repro.eval.runner import run_spec
    from repro.eval.specs import get_spec

    host, port = server
    jobs = [(name, spec) for name in WORKLOADS
            for spec in ("faithful", "baseline")]

    def solve(job):
        name, spec = job
        with ServeClient(host, port) as client:
            return client.solve(name, spec=spec)

    with ThreadPoolExecutor(max_workers=len(jobs)) as executor:
        results = list(executor.map(solve, jobs))

    for (name, spec), served in zip(jobs, results):
        assert served["succeeded"], f"{spec} {name} failed server-side"
        assert served["spec"] == spec
        assert served["engine"] == get_spec(spec).engine
        local = run_spec(name, spec, record_trace=False)
        served_answers = [tuple(tuple(pair) for pair in answer)
                          for answer in served["answers"]]
        assert (answer_multiset(served_answers)
                == answer_multiset(local.answers)), \
            f"served {spec} answers diverged for {name}"
        assert served["counters"] == dict(local.counters)


def test_psi_solve_reports_run_shape(server):
    host, port = server
    with ServeClient(host, port) as client:
        result = client.solve("nreverse")
    assert result["work_unit"] == "microsteps"
    assert result["steps"] > 0
    assert result["solutions"] == 1
    assert result["worker_pid"] != os.getpid()


def test_concurrent_replays_batch_and_match_serial(server):
    """Batched replay statistics are byte-identical to local serial
    ``simulate`` — the equivalence contract, end to end, including the
    production geometry a worker answers from the run's stored
    ``CacheResult`` (``{}`` and an explicit 8192 words)."""
    from repro.eval.runner import run_spec
    from repro.tools.pmms import simulate

    host, port = server
    configs = [{"capacity_words": 1024}, {"capacity_words": 8192},
               {"capacity_words": 4096, "ways": 1}, {},
               {"capacity_words": 2048}, {"capacity_words": 512}]
    assert len(configs) > WORKERS
    barrier = threading.Barrier(len(configs))

    def replay(config):
        with ServeClient(host, port) as client:
            client.ping()
            barrier.wait(timeout=60)
            return client.replay("qsort", [config])

    with ServeClient(host, port) as client:
        before = client.metrics()["server"]
    with ThreadPoolExecutor(max_workers=len(configs)) as executor:
        results = list(executor.map(replay, configs))
    with ServeClient(host, port) as client:
        after = client.metrics()["server"]

    trace = run_spec("qsort", "faithful", record_trace=True).trace
    for config, served in zip(configs, results):
        local_stats = cache_stats_to_json(
            simulate(trace, cache_config_from_json(config)))
        assert served["trace_entries"] == len(trace)
        assert len(served["stats"]) == 1
        assert (json.dumps(served["stats"][0], sort_keys=True)
                == json.dumps(local_stats, sort_keys=True)), \
            f"batched replay diverged from serial for {config}"
    # More simultaneous same-workload replays than workers: at least
    # the ones that find every replay slot busy park and coalesce.
    assert any(r["batch_size"] > 1 for r in results)

    def delta(name):
        return (after.get(name, {}).get("value", 0)
                - before.get(name, {}).get("value", 0))

    # The production geometry ({} and 8192) is answered from the
    # stored result, never simulated: at most the four other configs
    # take a kernel pass, and coalescing only ever lowers the counts.
    assert delta("serve.replay.configs_requested") == len(configs)
    assert delta("serve.replay.configs_reused") in (1, 2)
    assert delta("serve.replay.configs_simulated") <= 4


def test_indexed_spec_solve_matches_local_indexed_engine(server):
    """A ``spec: indexed`` request equals a local indexed-spec run —
    same answers, same counters (including the indexing counters that
    distinguish it from the faithful spec)."""
    from repro.engine.answers import answer_multiset
    from repro.eval.runner import run_spec

    host, port = server
    with ServeClient(host, port) as client:
        served = client.solve("qsort", spec="indexed")
    assert served["succeeded"]
    assert served["spec"] == "indexed"
    assert served["engine"] == "psi"
    local = run_spec("qsort", "indexed", record_trace=False)
    served_answers = [tuple(tuple(pair) for pair in answer)
                      for answer in served["answers"]]
    assert (answer_multiset(served_answers)
            == answer_multiset(local.answers))
    assert served["counters"] == dict(local.counters)
    assert served["steps"] == local.steps


def test_indexed_spec_replay_is_partitioned_from_faithful(server):
    """Replays under different specs never share a batch, and each
    reports its own spec's trace length."""
    from repro.eval.runner import run_spec

    host, port = server

    def replay(spec):
        with ServeClient(host, port) as client:
            return client.replay("qsort", [{}], spec=spec)

    with ThreadPoolExecutor(max_workers=2) as executor:
        faithful, indexed = list(executor.map(replay,
                                              ("faithful", "indexed")))
    assert faithful["spec"] == "faithful"
    assert indexed["spec"] == "indexed"
    local_indexed = run_spec("qsort", "indexed", record_trace=True)
    assert indexed["trace_entries"] == len(local_indexed.trace)


def test_baseline_spec_replay_is_rejected(server):
    host, port = server
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError, match="records no PMMS trace"):
            client.replay("qsort", [{}], spec="baseline")
        with pytest.raises(ServeError, match="unknown run spec"):
            client.solve("qsort", spec="no-such-spec")


def test_engine_field_is_rejected(server):
    """A request naming its configuration with ``engine`` must fail
    loudly instead of silently running the ``faithful`` default."""
    host, port = server
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError,
                           match=r"ProtocolError: .*'engine'.*'spec' field"):
            client.request("solve", workload="qsort", engine="baseline")
        with pytest.raises(ServeError, match="'spec' field"):
            client.request("replay", workload="qsort", configs=[{}],
                           engine="psi")
        # The connection survives, and the spec field serves baseline.
        assert client.solve("qsort", spec="baseline")["engine"] == "baseline"


def test_application_errors_leave_connection_usable(server):
    host, port = server
    with ServeClient(host, port) as client:
        with pytest.raises(ServeError, match="unknown workload"):
            client.solve("no-such-workload")
        with pytest.raises(ServeError, match="unknown cache config"):
            client.replay("nreverse", [{"capcity_words": 64}])
        with pytest.raises(ServeError, match="unknown op"):
            client.request("frobnicate")
        # The connection survives ok:false responses.
        assert client.ping() == {"pong": True}


def test_oversized_replays_are_refused_before_the_pool(server):
    """A replay naming a huge geometry or too many configs is a typed
    ``ok: false`` error that never reaches a worker, and the server
    keeps serving."""
    host, port = server
    with ServeClient(host, port) as client:
        submitted = client.health()["pool"]["submitted"]
        with pytest.raises(ServeError,
                           match=r"ProtocolError: .*-set replay limit"):
            client.replay("nreverse", [{"capacity_words": 2 ** 31}])
        with pytest.raises(ServeError,
                           match=r"ProtocolError: .*-config limit"):
            client.replay("nreverse", [{}] * (MAX_REPLAY_CONFIGS + 1))
        health = client.health()
    assert health["status"] == "ok"
    assert health["pool"]["submitted"] == submitted


def test_health_and_metrics_endpoints(server):
    host, port = server
    with ServeClient(host, port) as client:
        client.solve("nreverse")
        health = client.health()
        metrics = client.metrics()
    assert health["status"] == "ok"
    assert health["draining"] is False
    assert health["pool"]["workers"] == 2
    assert health["pool"]["failed"] == 0
    assert health["requests_total"] >= 1
    snapshot = metrics["server"]
    assert snapshot["serve.op.solve"]["value"] >= 1
    assert snapshot["serve.latency_ms"]["kind"] == "histogram"
    assert metrics["latency_ms"]["count"] >= 1
    assert metrics["latency_ms"]["p50"] is not None
    assert metrics["pool"]["workers"] == WORKERS
    assert {"respawns", "failed", "inflight"} <= set(metrics["pool"])


def test_replay_wait_is_timed(server):
    """A replay sent to an idle server dispatches at once: the
    ``serve.replay.wait_ms`` histogram gains a sample of about 0."""
    host, port = server
    with ServeClient(host, port) as client:
        before = client.metrics()["server"].get("serve.replay.wait_ms")
        client.replay("nreverse", [{}])
        after = client.metrics()
    wait = after["server"]["serve.replay.wait_ms"]
    assert wait["kind"] == "histogram"
    count = wait["count"] - (before["count"] if before else 0)
    total = wait["sum"] - (before["sum"] if before else 0.0)
    assert count == 1
    assert total < 50.0
    assert after["replay_wait_ms"]["count"] == wait["count"]


def test_fidelity_endpoint(server):
    host, port = server
    with ServeClient(host, port, timeout=1200) as client:
        report = client.request("fidelity", tables=["table2"])
    assert set(report) >= {"overall", "passed", "tables"}
    assert "table2" in report["tables"]
