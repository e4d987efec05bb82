"""Golden-digest guard for the microinstruction-stream equivalence contract.

The interpreter hot path is free to change *how* it accumulates
emissions (interned counters, fused trace appends, batched emits) but
never *what* is emitted: every optimisation must produce a bit-for-bit
identical :class:`~repro.core.memory.TraceRecorder` byte stream and an
equal ``routine_counts``/``mem_counts`` accounting.  These tests pin
SHA-256 digests of both, captured from the reference implementation,
for three cheap workloads covering deterministic list code
(``nreverse``), cut-heavy partitioning (``qsort``) and backtracking
search (``queens-one``).

When a digest mismatches, the per-table aggregate comparison runs
first: it names the table-level statistic that moved (module steps —
Table 2, cache commands — Table 3, per-area traffic — Table 4, branch
operations — Table 7), which localises the offending emission site far
faster than a raw digest diff.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.machine import MachineConfig
from repro.tools.collect import collect
from repro.workloads import all_workloads, get

#: Committed digests of the reference emission stream.  Regenerate only
#: for a *deliberate* modelling change (which also moves the fidelity
#: tables): run this file with ``--regenerate-goldens`` via
#: ``python -m tests.core.test_stream_equivalence`` and paste the output.
GOLDEN = {
    "nreverse": {
        "trace_sha256": "1826a43b16b7a5ede9328e814a1f8fc3e38457f6de9f91818841f1dd223e0974",
        "stats_sha256": "585aa52fac3e7dfd512ae0df1d0751da15752ffde105ef186176e4b75d6a57e5",
        "trace_entries": 25474,
        "aggregates": {
            "total_steps": 87569,
            "module_steps": {"built": 1450, "control": 41234, "cut": 28,
                             "get_arg": 580, "trail": 4535, "unify": 39742},
            "cache_cmds": {"read": 14430, "write": 1485, "write-stack": 9559},
            "areas": {"heap": 7937, "global": 8256, "local": 186,
                      "control": 7670, "trail": 1425},
            "inferences": 527,
            "builtin_calls": 58,
        },
    },
    "qsort": {
        "trace_sha256": "7b802d17d0224201f3a96046a6bdd286dcf3844ae474c0ee9924690917d181eb",
        "stats_sha256": "4dfbfab64df561b868c98af298baee4a46055f5eaf2cb249ff8a40821589d9db",
        "trace_entries": 23895,
        "aggregates": {
            "total_steps": 87248,
            "module_steps": {"built": 5850, "control": 34170, "cut": 3975,
                             "get_arg": 1800, "trail": 6984, "unify": 34469},
            "cache_cmds": {"read": 14195, "write": 1415, "write-stack": 8285},
            "areas": {"heap": 7622, "global": 7042, "local": 754,
                      "control": 6262, "trail": 2215},
            "inferences": 378,
            "builtin_calls": 225,
        },
    },
    "queens-one": {
        "trace_sha256": "d7504556f10755406fb2e3210a328815457e24edfd1e46de91404025066af9ee",
        "stats_sha256": "0dda7221b8d320f20ccaa748754a90439cf5a22e689ce2a6fa283c53f93a388b",
        "trace_entries": 128671,
        "aggregates": {
            "total_steps": 479686,
            "module_steps": {"built": 91310, "control": 137285, "cut": 28,
                             "get_arg": 28546, "trail": 41080, "unify": 181437},
            "cache_cmds": {"read": 84630, "write": 6235, "write-stack": 37806},
            "areas": {"heap": 42001, "global": 47991, "local": 1128,
                      "control": 26374, "trail": 11177},
            "inferences": 1680,
            "builtin_calls": 2654,
        },
    },
}


def canonical_stats(stats) -> dict:
    """Order-independent plain-data form of a collector's counters."""
    return {
        "routines": sorted([module.value, routine.name, n]
                           for (module, routine), n
                           in stats.routine_counts.items() if n),
        "mem": sorted([cmd.value, area.name, n]
                      for (cmd, area), n in stats.mem_counts.items() if n),
        "inferences": stats.inferences,
        "builtin_calls": stats.builtin_calls,
    }


def stats_digest(stats) -> str:
    payload = json.dumps(canonical_stats(stats), sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def aggregates(stats) -> dict:
    """Table-level summaries used as the diff hint on digest mismatch."""
    return {
        "total_steps": stats.total_steps,
        "module_steps": {m.value: n for m, n in sorted(
            stats.module_steps().items(), key=lambda kv: kv[0].value)},
        "cache_cmds": {c.value: n
                       for c, n in stats.cache_command_counts().items()},
        "areas": {a.name.lower(): n for a, n in sorted(
            stats.area_access_counts().items())},
        "inferences": stats.inferences,
        "builtin_calls": stats.builtin_calls,
    }


def run_workload(name: str, machine_config: MachineConfig | None = None,
                 record_trace: bool = True):
    workload = get(name)
    return collect(workload.source, workload.goal,
                   all_solutions=workload.all_solutions,
                   record_trace=record_trace, with_cache=False,
                   machine_config=machine_config,
                   setup_goals=workload.setup_goals)


@pytest.mark.parametrize("name", sorted(GOLDEN))
class TestStreamEquivalence:
    def test_stream_matches_golden(self, name):
        golden = GOLDEN[name]
        run = run_workload(name)

        # Table-level aggregates first: when the digest would mismatch,
        # this assertion names the table that moved (module steps =
        # Table 2, cache commands = Table 3, areas = Table 4).
        assert aggregates(run.stats) == golden["aggregates"], (
            f"{name}: a table-level statistic moved — the hot path no "
            f"longer emits the reference stream (see dict diff above "
            f"for which table)")

        assert len(run.trace) == golden["trace_entries"], (
            f"{name}: memory-trace length changed — an accounted access "
            f"was added or removed on the hot path")
        trace_sha = hashlib.sha256(run.trace.tobytes()).hexdigest()
        assert trace_sha == golden["trace_sha256"], (
            f"{name}: trace bytes differ but per-table aggregates agree: "
            f"the *order* of memory accesses changed (cache-visible even "
            f"though the tables are not)")
        assert stats_digest(run.stats) == golden["stats_sha256"], (
            f"{name}: per-routine counters differ but aggregates agree: "
            f"emissions moved between (module, routine) buckets")

    @pytest.mark.parametrize("fused", [True, False],
                             ids=["fused", "unfused"])
    def test_sink_free_billing_matches_golden(self, name, fused):
        """With no trace and no cache the memory system has no sink:
        every accessor and fused call site must still bill exactly the
        reference counters."""
        run = run_workload(name, MachineConfig(fused=fused),
                           record_trace=False)
        assert run.trace is None
        assert stats_digest(run.stats) == GOLDEN[name]["stats_sha256"], (
            f"{name}: billing without a trace sink diverged from the "
            f"recorded reference")


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(all_workloads()))
class TestFusedRegistryEquivalence:
    """Fused dispatch must reproduce the unfused stream on *every*
    registry workload (the PSI-only KL0 ones included), not just the
    three golden-digest ones.

    The unfused run (``MachineConfig(fused=False)``) is the reference:
    identical trace bytes (memory-access order is cache-visible) and
    identical canonical counters (every (module, routine) and
    (command, area) bucket).  Catches a fusion regression on any
    registry workload the cheap goldens above would miss.
    """

    def test_fused_matches_unfused(self, name):
        fused = run_workload(name)
        unfused = run_workload(name, MachineConfig(fused=False))
        assert len(fused.trace) == len(unfused.trace), (
            f"{name}: fused run changed the memory-trace length")
        assert hashlib.sha256(fused.trace.tobytes()).hexdigest() == \
            hashlib.sha256(unfused.trace.tobytes()).hexdigest(), (
            f"{name}: fused run reordered or altered the access stream")
        assert canonical_stats(fused.stats) == \
            canonical_stats(unfused.stats), (
            f"{name}: fused billing diverged from the per-op reference")


class TestObservedStreamEquivalence:
    """The observed collector must bill exactly like the plain one."""

    def test_observed_matches_golden(self):
        from repro import obs

        name = "qsort"
        with obs.observed():
            run = run_workload(name)
        obs.reset()
        golden = GOLDEN[name]
        assert hashlib.sha256(run.trace.tobytes()).hexdigest() == \
            golden["trace_sha256"]
        assert stats_digest(run.stats) == golden["stats_sha256"]


def test_interning_invariants():
    """The flat-counter index spaces must stay mutually consistent."""
    from repro.core import micro
    from repro.core.memory import AREAS, Area
    from repro.core.stats import N_AREAS

    assert N_AREAS == len(Area) == len(AREAS)
    assert [int(a) for a in AREAS] == list(range(len(AREAS)))
    assert [m.idx for m in micro.MODULE_BY_INDEX] == \
        list(range(micro.N_MODULES))
    routines = micro.routines_by_rid()
    assert len(routines) == len(set(routines))
    for rid, routine in enumerate(routines):
        assert routine.rid == rid
        assert routine.pair_base == rid * micro.N_MODULES
    for cmd in micro.CMD_BY_CODE:
        assert micro.MEM_ROUTINE_BY_CODE[cmd.code] is micro.MEM_ROUTINES[cmd]
        assert micro.MEM_PAIR_BASE[cmd.code] == \
            micro.MEM_ROUTINES[cmd].pair_base
        assert micro.MEM_STEPS[cmd.code] == micro.MEM_ROUTINES[cmd].n_steps


def _regenerate() -> None:  # pragma: no cover - maintenance helper
    out = {}
    for name in sorted(GOLDEN):
        run = run_workload(name)
        out[name] = {
            "trace_sha256": hashlib.sha256(run.trace.tobytes()).hexdigest(),
            "stats_sha256": stats_digest(run.stats),
            "trace_entries": len(run.trace),
            "aggregates": aggregates(run.stats),
        }
    print(json.dumps(out, indent=2))


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
