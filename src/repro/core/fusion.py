"""Superinstruction fusion layer: fold hot micro-op runs into one emit.

PR 4 made each micro-op emission a single list-index increment, but the
interpreter still pays one Python call *per* micro-op (plus one per
memory access) on statically-known sequences such as goal fetch → call
setup → proc lookup.  A :class:`Superinstruction` declares one of those
runs as a single Python-level operation: the per-(routine, module) pair
deltas and the per-(command, area) memory deltas of the whole run are
precomputed at import time, so the machine bills the entire sequence
with one :meth:`~repro.core.stats.StatsCollector.emit_fused` call (a
handful of list-index increments) and appends the run's packed trace
entries itself, in the exact reference order.

Equivalence contract (guarded by ``tests/core/test_fusion.py`` and the
golden digests in ``tests/core/test_stream_equivalence.py``): applying
a superinstruction to a collector leaves it in exactly the state the
unfused emission run would have — same ``routine_counts``, same
``mem_counts``, same total steps — and the machine's fused call sites
reproduce the trace byte stream bit-for-bit.

The selected sequences live in :mod:`repro.core.fused_table`, an
ahead-of-time generated module produced by
``scripts/gen_superinstructions.py`` from mined workload traces
(:mod:`repro.obs.seqmine`).  Two kinds exist:

* **static** specs name their interpreter module; all deltas are
  absolute indices, applied via ``emit_fused``.
* **dynamic** specs (``module: None``) bill under whatever module is
  active at the call site, via ``emit_fused_dyn`` — used for shapes
  shared by several modules (decode/fetch, deref, build).
"""

from __future__ import annotations

from repro.core import micro
from repro.core.micro import CacheCmd, MicroRoutine, Module, N_MODULES
from repro.core.fused_table import FRAME_NLOCALS, SPECS

#: Mirrors ``repro.core.memory.Area`` (kept literal to avoid a circular
#: import; ``test_interning_invariants`` guards the shared constant).
N_AREAS = 5
_AREA_INDEX = {"heap": 0, "global": 1, "local": 2, "control": 3, "trail": 4}
_MODULE_BY_VALUE = {m.value: m for m in Module}
_CMD_BY_VALUE = {c.value: c for c in CacheCmd}


class Superinstruction:
    """One fused micro-op run with precomputed billing deltas."""

    __slots__ = ("name", "module", "emissions", "mem_ops", "n_steps",
                 "pair_deltas", "rel_deltas", "base_deltas", "mem_deltas",
                 "max_index", "sid", "sid6", "slot")

    def __init__(self, name: str, module: Module | None,
                 emissions: tuple[tuple[MicroRoutine, int], ...],
                 mem_ops: tuple[tuple[CacheCmd, int, int], ...]):
        self.name = name
        self.module = module
        self.emissions = emissions            # ((routine, times), ...)
        self.mem_ops = mem_ops                # ((cmd, area_int, times), ...)

        pair: dict[int, int] = {}             # keyed by pair_base (module-relative)
        steps = 0
        for routine, times in emissions:
            pair[routine.pair_base] = pair.get(routine.pair_base, 0) + times
            steps += routine.n_steps * times
        mem_flat: dict[int, int] = {}         # _mem_counts indices (absolute)
        for cmd, area, times in mem_ops:
            code = cmd.code
            base = micro.MEM_PAIR_BASE[code]
            pair[base] = pair.get(base, 0) + times
            index = code * N_AREAS + area
            mem_flat[index] = mem_flat.get(index, 0) + times
            steps += micro.MEM_STEPS[code] * times
        self.n_steps = steps
        self.mem_deltas = tuple(sorted(mem_flat.items()))
        #: Module-relative pair deltas (both kinds): absolute index is
        #: ``base + module.idx`` — the flush loop's single form.
        self.base_deltas = tuple(sorted(pair.items()))
        if module is None:
            self.rel_deltas = self.base_deltas
            self.pair_deltas = ()
            self.max_index = max(pair) + N_MODULES - 1
        else:
            midx = module.idx
            self.pair_deltas = tuple(sorted(
                (base + midx, times) for base, times in pair.items()))
            self.rel_deltas = ()
            self.max_index = max(index for index, _ in self.pair_deltas)
        # Deferred-billing identity, assigned by the table build below:
        # ``slot`` indexes the collector's _fused_counts list for static
        # specs (module baked in); ``sid6 + ambient module.idx`` for
        # dynamic ones.
        self.sid = -1
        self.sid6 = -1
        self.slot = -1

    def replay(self, stats) -> None:
        """Apply the *unfused* equivalent emission run to ``stats``.

        Uses only the batched base-collector entry points
        (``emit_in``/``emit``/``mem_access_n``), so it lands every count
        in exactly the buckets the reference per-op loop would.  For a
        static spec the caller must have ``stats.module`` set to the
        spec's module (true at every machine call site); dynamic specs
        bill under the ambient module by construction.
        """
        module = self.module
        if module is not None:
            for routine, times in self.emissions:
                stats.emit_in(module, routine, times)
        else:
            for routine, times in self.emissions:
                stats.emit(routine, times)
        for cmd, area, times in self.mem_ops:
            stats.mem_access_n(cmd, area, times)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = self.module.value if self.module is not None else "*"
        return f"Superinstruction({self.name!r}, module={scope}, steps={self.n_steps})"


def _build(name: str, spec: dict) -> Superinstruction:
    registry = micro.all_routines()
    module = _MODULE_BY_VALUE[spec["module"]] if spec["module"] else None
    emissions = tuple((registry[rname], times) for rname, times in spec["emit"])
    mem_ops = tuple((_CMD_BY_VALUE[cmd], _AREA_INDEX[area], times)
                    for cmd, area, times in spec.get("mem", ()))
    return Superinstruction(name, module, emissions, mem_ops)


#: Every superinstruction the machine's fused dispatch binds by name.
#: The generator must always produce these; a missing key fails the
#: import loudly rather than silently degrading to the per-op loop.
REQUIRED = (
    "call_dispatch", "cp_push_frame", "clause_try", "clause_frame",
    "proceed_resume", "fail", "cp_restore_resume", "untrail_entry",
    "trail_push", "fetch_decode", "fetch_decode_packed", "fetch_struct",
    "fetch_struct_packed", "bind_skip", "push_var", "build_list",
    "get_arg", "get_arg_packed", "get_arg_void", "get_arg_var_buf",
    "get_arg_var_buf_base", "get_arg_var_mem", "get_arg_var_buf_packed",
    "get_arg_var_buf_base_packed", "get_arg_var_mem_packed",
    "deref_buf", "deref_buf_base",
    "deref_read/heap", "deref_read/global", "deref_read/local",
    "deref_read/control", "deref_read/trail",
)

SUPERINSTRUCTIONS: dict[str, Superinstruction] = {
    name: _build(name, spec) for name, spec in SPECS.items()
}

#: Superinstructions by ``sid`` — the flush loop's decode table.
BY_SID: tuple[Superinstruction, ...] = tuple(SUPERINSTRUCTIONS.values())
for _sid, _si in enumerate(BY_SID):
    _si.sid = _sid
    _si.sid6 = _sid * N_MODULES
    _si.slot = (_si.sid6 + _si.module.idx
                if _si.module is not None else _si.sid6)
del _sid, _si


def slot_space() -> int:
    """Size of the deferred fused-billing count list (sid × module)."""
    return len(BY_SID) * N_MODULES

_missing = [name for name in REQUIRED if name not in SUPERINSTRUCTIONS]
if _missing:  # pragma: no cover - generator contract
    raise ImportError(f"fused_table is missing required specs: {_missing}")

#: Per-area deref-step superinstructions, indexed by the int area value.
DEREF_BY_AREA = tuple(SUPERINSTRUCTIONS[f"deref_read/{area}"]
                      for area in ("heap", "global", "local",
                                   "control", "trail"))

#: Mined per-``nlocals`` clause-activation specialisations
#: (clause try + frame allocate + buffer switch + slot inits fused).
FRAME_BY_NLOCALS = {
    n: SUPERINSTRUCTIONS[f"clause_frame/{n}"] for n in FRAME_NLOCALS
}
