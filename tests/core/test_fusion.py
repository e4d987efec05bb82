"""Unit guards for the superinstruction fusion layer.

The contract (:mod:`repro.core.fusion`): billing a superinstruction —
whether through the deferred ``emit_fused``/``emit_fused_dyn`` slot
increments or through a collector subclass's ``replay`` override —
leaves the collector in exactly the state the unfused per-op emission
run would.  These tests check that per spec, across every module for
dynamic specs, plus the table/identity invariants the machine's inline
dispatch constants depend on.
"""

from __future__ import annotations

import pytest

from repro.core import fusion, micro
from repro.core.fusion import BY_SID, SUPERINSTRUCTIONS, Superinstruction
from repro.core.micro import Module, N_MODULES
from repro.core.stats import StatsCollector


def reference_state(si: Superinstruction, module: Module):
    """Collector state after the unfused per-op run of ``si``."""
    stats = StatsCollector()
    stats.module = module
    si.replay(stats)
    return (stats.routine_counts, stats.mem_counts, stats.total_steps)


def deferred_state(si: Superinstruction, module: Module):
    """Collector state after the deferred fused-billing path."""
    stats = StatsCollector()
    stats.module = module
    if si.module is not None:
        stats.emit_fused(si)
    else:
        stats.emit_fused_dyn(si)
    # routine_counts/mem_counts/total_steps each flush the pending
    # fused slots first; reading all three also checks idempotence.
    return (stats.routine_counts, stats.mem_counts, stats.total_steps)


def spec_modules(si: Superinstruction):
    """Module contexts one spec must be equivalent under."""
    return [si.module] if si.module is not None else list(Module)


@pytest.mark.parametrize("name", sorted(SUPERINSTRUCTIONS))
class TestDeltaReplayEquivalence:
    def test_deferred_billing_matches_replay(self, name):
        si = SUPERINSTRUCTIONS[name]
        for module in spec_modules(si):
            assert deferred_state(si, module) == \
                reference_state(si, module), (
                f"{name} under {module.value}: deferred slot billing "
                f"diverged from the unfused emission run")

    def test_n_steps_matches_registry(self, name):
        si = SUPERINSTRUCTIONS[name]
        steps = sum(r.n_steps * t for r, t in si.emissions)
        steps += sum(micro.MEM_STEPS[cmd.code] * t
                     for cmd, _area, t in si.mem_ops)
        assert si.n_steps == steps


class TestRepeatedAndMixedBilling:
    def test_repeat_counts_scale_linearly(self):
        si = SUPERINSTRUCTIONS["call_dispatch"]
        a = StatsCollector()
        b = StatsCollector()
        for _ in range(5):
            a.emit_fused(si)
            si.replay(b)
        assert a.routine_counts == b.routine_counts
        assert a.mem_counts == b.mem_counts
        assert a.total_steps == b.total_steps == 5 * si.n_steps

    def test_fused_and_plain_emissions_interleave(self):
        """Deferred fused counts must fold in *on top of* direct ones."""
        si = SUPERINSTRUCTIONS["fetch_decode"]
        a = StatsCollector()
        b = StatsCollector()
        for stats in (a, b):
            stats.module = Module.UNIFY
            stats.emit(micro.R_BIND)
        a.emit_fused_dyn(si)
        si.replay(b)
        for stats in (a, b):
            stats.emit(micro.R_TRAIL_SKIP)
        assert a.routine_counts == b.routine_counts
        assert a.mem_counts == b.mem_counts

    def test_flush_is_idempotent(self):
        si = SUPERINSTRUCTIONS["cp_push_frame"]
        stats = StatsCollector()
        stats.emit_fused(si)
        first = stats.total_steps
        assert stats.total_steps == first
        assert stats.routine_counts == stats.routine_counts


class TestObservedReplay:
    def test_observed_collector_replays_unfused(self):
        """The observed collector routes fused bills through replay,
        so its profile attribution sees the per-op stream."""
        from repro.obs.profile import MicroProfile
        from repro.obs.session import ObservedStatsCollector
        from repro.obs.trace import Tracer

        si = SUPERINSTRUCTIONS["call_dispatch"]
        observed = ObservedStatsCollector(Tracer(), MicroProfile())
        observed.module = si.module
        observed.emit_fused(si)
        reference = StatsCollector()
        reference.module = si.module
        si.replay(reference)
        assert observed.routine_counts == reference.routine_counts
        assert observed.mem_counts == reference.mem_counts


class TestTableInvariants:
    def test_sid_identity(self):
        assert fusion.slot_space() == len(BY_SID) * N_MODULES
        slots = set()
        for sid, si in enumerate(BY_SID):
            assert si.sid == sid
            assert si.sid6 == sid * N_MODULES
            if si.module is not None:
                assert si.slot == si.sid6 + si.module.idx
            for midx in range(N_MODULES):
                slots.add(si.sid6 + midx)
        assert len(slots) == fusion.slot_space()

    def test_base_deltas_are_module_relative(self):
        for si in BY_SID:
            for base, times in si.base_deltas:
                assert base % N_MODULES == 0
                assert times > 0

    def test_frame_specialisations_extend_clause_frame(self):
        """clause_frame/{n} = clause_frame + n slot inits."""
        base = SUPERINSTRUCTIONS["clause_frame"]
        slot_init = micro.all_routines()["control.frame_init_slot"]
        for n, si in fusion.FRAME_BY_NLOCALS.items():
            assert si.module is base.module
            assert si.n_steps == base.n_steps + n * slot_init.n_steps


@pytest.mark.slow
class TestFusedSpeedFloor:
    def test_fused_dispatch_beats_the_per_op_loop(self):
        """Superinstruction dispatch must stay at least 1.1x faster
        than the per-op loop on qsort, billing the same modelled steps.

        Best of seven runs each way, interleaved so host-speed drift
        hits both sides alike; the cache model is off so the timing is
        the interpreter's alone."""
        import time

        from repro.core.machine import MachineConfig
        from repro.tools.collect import collect
        from repro.workloads import get

        workload = get("qsort")

        def run_once(config):
            t0 = time.perf_counter()
            run = collect(workload.source, workload.goal,
                          all_solutions=workload.all_solutions,
                          record_trace=False, with_cache=False,
                          machine_config=config,
                          setup_goals=workload.setup_goals)
            return time.perf_counter() - t0, run.stats.total_steps

        fused, unfused = MachineConfig(), MachineConfig(fused=False)
        run_once(fused)                  # warm-up: imports, code objects
        best_fused = best_unfused = float("inf")
        for _ in range(7):
            fused_s, fused_steps = run_once(fused)
            unfused_s, unfused_steps = run_once(unfused)
            assert fused_steps == unfused_steps
            best_fused = min(best_fused, fused_s)
            best_unfused = min(best_unfused, unfused_s)
        speedup = best_unfused / best_fused
        assert speedup >= 1.1, f"fused dispatch only {speedup:.2f}x faster"
