"""Unit guards for the superinstruction fusion layer.

The contract (:mod:`repro.core.fusion`): billing a superinstruction
through the billing log (``emit_fused``/``emit_fused_dyn``) leaves the
collector in exactly the state the unfused per-op emission run of its
``stream`` would.  These tests check that per spec, across every module
for dynamic specs, plus the table/identity invariants the machine's
inline dispatch constants depend on, and that an observed run on the
fused path derives the same counts, trace and cache statistics as a
plain fused run and an unfused one.
"""

from __future__ import annotations

import pytest

from repro.core import fusion, micro
from repro.core.fusion import BY_SID, SUPERINSTRUCTIONS, Superinstruction
from repro.core.micro import CacheCmd, Module, N_MODULES
from repro.core.stats import StatsCollector


def replay(si: Superinstruction, stats) -> None:
    """The oracle: bill ``si``'s stream op by op, as the per-op code
    does (``stats.module`` set to the spec's module for a static one)."""
    for op in si.stream:
        if len(op) == 2:
            stats.emit(*op)
        else:
            stats.mem_access_n(*op)


def reference_state(si: Superinstruction, module: Module):
    """Collector state after the unfused per-op run of ``si``."""
    stats = StatsCollector()
    stats.module = module
    replay(si, stats)
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
        steps = sum(op[0].n_steps * op[1] if len(op) == 2
                    else micro.MEM_STEPS[op[0].code] * op[2]
                    for op in si.stream)
        assert si.n_steps == steps


class TestRepeatedAndMixedBilling:
    def test_repeat_counts_scale_linearly(self):
        si = SUPERINSTRUCTIONS["call_dispatch"]
        a = StatsCollector()
        b = StatsCollector()
        b.module = si.module
        for _ in range(5):
            a.emit_fused(si)
            replay(si, b)
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
        replay(si, b)
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


#: perfbench ``observe`` programs, plus the small-window export case
#: (many cuts inside block accesses and superinstructions).
OBSERVED_CASES = {
    **{name: (name, {}) for name in (
        "nreverse", "qsort", "slow-reverse", "bup-1", "bup-2", "lcp-1",
        "lcp-2", "lcp-3")},
    "nreverse-small-window": ("nreverse", {"cache_window": 512,
                                           "trace_capacity": 256}),
}


class TestObservedFusedPath:
    """An observed run takes the fused path and derives its views from
    the billing log; its counts, trace and cache statistics equal a
    plain fused run's and an unfused one's."""

    @staticmethod
    def _collect(name, fused=True, **obs_overrides):
        from repro import obs
        from repro.core.machine import MachineConfig
        from repro.tools.collect import collect
        from repro.workloads import get

        workload = get(name)

        def run():
            return collect(workload.source, workload.goal,
                           all_solutions=workload.all_solutions,
                           machine_config=MachineConfig(fused=fused),
                           setup_goals=workload.setup_goals)

        if obs_overrides.pop("observed", False):
            with obs.observed(**obs_overrides):
                return run()
        return run()

    @staticmethod
    def _state(run):
        return (run.stats.routine_counts, run.stats.mem_counts,
                run.trace.data.tobytes(), vars(run.cache.stats))

    @pytest.mark.parametrize("case", sorted(OBSERVED_CASES))
    def test_matches_plain_and_unfused(self, case):
        from repro import obs

        name, overrides = OBSERVED_CASES[case]
        try:
            observed = self._collect(name, observed=True, **overrides)
        finally:
            obs.reset()
        assert observed.machine._fused_on
        assert observed.observation is not None
        state = self._state(observed)
        assert state == self._state(self._collect(name))
        assert state == self._state(self._collect(name, fused=False))

    def test_walks_during_the_run_change_no_export(self, monkeypatch):
        """Deriving the views every few log entries (as a long run does
        at its log bound) leaves every export byte-identical."""
        import io

        from repro import obs
        from repro.obs import session

        def exports():
            try:
                run = self._collect("nreverse", observed=True)
            finally:
                obs.reset()
            texts = []
            for write in (run.observation.write_jsonl,
                          run.observation.write_collapsed):
                buffer = io.StringIO()
                write(buffer)
                texts.append(buffer.getvalue())
            return texts

        whole = exports()
        monkeypatch.setattr(session, "_LOG_LIMIT", 100)
        assert exports() == whole

    @staticmethod
    def _observed(interval, window):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.profile import MicroProfile
        from repro.obs.session import (CacheWindowSampler,
                                       ObservedStatsCollector)
        from repro.obs.trace import Tracer

        tracer = Tracer()
        stats = ObservedStatsCollector(tracer, MicroProfile(),
                                       micro_sample_interval=interval)
        sampler = CacheWindowSampler(
            [], tracer, MetricsRegistry().histogram("h"), window=window)
        stats.attach_cache_sampler(sampler)
        return stats, sampler

    def test_samples_inside_a_superinstruction(self):
        """A ``micro`` span and a cache cut landing inside a fused
        ``call_dispatch`` stamp the same op and clock as its per-op
        stream billed through the observed collector."""
        si = SUPERINSTRUCTIONS["call_dispatch"]
        fused, fused_sampler = self._observed(interval=3, window=3)
        per_op, per_op_sampler = self._observed(interval=3, window=3)
        for stats in (fused, per_op):
            stats.module = si.module
            stats.predicate = "p/0"
        for _ in range(2):
            fused.emit_fused(si)
            replay(si, per_op)
        for stats in (fused, per_op):
            stats.close()
        spans = [(e.name, e.ts, e.dur) for e in fused.tracer.events("micro")]
        assert spans == [(e.name, e.ts, e.dur)
                         for e in per_op.tracer.events("micro")]
        # Every 3rd emission: inside each superinstruction.
        assert [name for name, _ts, _dur in spans] == [
            micro.R_BUILTIN_STEP.name, micro.R_CALL_SETUP.name]
        # The 3rd access is the first one of the second superinstruction.
        assert fused_sampler.cuts == per_op_sampler.cuts == [
            (2, si.n_steps + micro.MEM_STEPS[CacheCmd.READ.code]
             + micro.R_GOAL_FETCH.n_steps)]
        assert fused.routine_counts == per_op.routine_counts
        assert fused.mem_counts == per_op.mem_counts
        assert fused.now == per_op.now == 2 * si.n_steps


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

    def test_codes_fit_the_byte_log(self):
        """The plain collector logs each code as one byte."""
        assert fusion.slot_space() <= 256
        stats = StatsCollector()
        for si in BY_SID:
            stats.module = si.module or Module.UNIFY
            (stats.emit_fused if si.module else stats.emit_fused_dyn)(si)
        assert len(stats._log) == len(BY_SID)

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
