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

:data:`BY_SID` below is the one table of specs; the machine binds each
one by name at import.  Two kinds exist:

* **static** specs name their interpreter module; all deltas are
  absolute indices, applied via ``emit_fused``.
* **dynamic** specs (``module`` ``None``) bill under whatever module is
  active at the call site, via ``emit_fused_dyn`` — used for shapes
  shared by several modules (decode/fetch, deref, build).
"""

from __future__ import annotations

from repro.core import micro
from repro.core.memory import N_AREAS, Area
from repro.core.micro import (
    N_MODULES, CacheCmd, MicroRoutine, Module,
    R_BACKTRACK, R_BIND, R_BUILD_CELL, R_BUILD_VAR, R_BUILTIN_STEP,
    R_CALL_SETUP, R_CLAUSE_TRY, R_CP_PUSH, R_CP_RESTORE, R_DECODE,
    R_DECODE_OPCODE, R_DECODE_PACKED, R_DEREF_STEP, R_ENV_POP,
    R_FAIL_DISPATCH, R_FRAME_ALLOC, R_FRAME_INIT_SLOT, R_FRAME_READ_BUF,
    R_FRAME_READ_BUF_BASE, R_GET_ARG, R_GET_ARG_PACKED,
    R_GET_ARG_VAR_BUF, R_GET_ARG_VAR_BUF_BASE, R_GET_ARG_VAR_MEM,
    R_GOAL_FETCH, R_PROC_LOOKUP, R_SWITCH_BUFFER, R_TRAIL_PUSH,
    R_TRAIL_SKIP, R_UNTRAIL_ENTRY, R_WF_GENERAL,
)


class Superinstruction:
    """One fused micro-op run with precomputed billing deltas."""

    __slots__ = ("name", "module", "emissions", "mem_ops", "n_steps",
                 "base_deltas", "mem_deltas", "max_index",
                 "sid", "sid6", "slot")

    def __init__(self, name: str, module: Module | None,
                 emissions: tuple[tuple[MicroRoutine, int], ...],
                 mem_ops: tuple[tuple[CacheCmd, int, int], ...] = ()):
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
        self.max_index = max(pair) + N_MODULES - 1
        # Deferred-billing identity, assigned by the table below:
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


_SI = Superinstruction
_CONTROL, _TRAIL = Module.CONTROL, Module.TRAIL
_READ, _WRITE_STACK = CacheCmd.READ, CacheCmd.WRITE_STACK
_HEAP, _GLOBAL, _LOCAL = int(Area.HEAP), int(Area.GLOBAL), int(Area.LOCAL)
_CONTROL_AREA, _TRAIL_AREA = int(Area.CONTROL), int(Area.TRAIL)

#: nlocals values with a dedicated ``clause_frame/{n}`` specialisation
#: (frame-size evidence in docs/ARCHITECTURE.md).
FRAME_NLOCALS = (1, 2, 3, 4)

_CLAUSE_FRAME = ((R_CLAUSE_TRY, 1), (R_FRAME_ALLOC, 1), (R_SWITCH_BUFFER, 1))

#: Every superinstruction, by ``sid`` — also the flush loop's decode table.
BY_SID: tuple[Superinstruction, ...] = (
    _SI("call_dispatch", _CONTROL,
        ((R_GOAL_FETCH, 1), (R_CALL_SETUP, 1), (R_BUILTIN_STEP, 1),
         (R_PROC_LOOKUP, 1)),
        ((_READ, _HEAP, 2),)),
    _SI("cp_push_frame", _CONTROL, ((R_CP_PUSH, 1), (R_WF_GENERAL, 1)),
        ((_WRITE_STACK, _CONTROL_AREA, 10),)),
    _SI("clause_try", _CONTROL, ((R_CLAUSE_TRY, 1),), ((_READ, _HEAP, 1),)),
    _SI("clause_frame", _CONTROL, _CLAUSE_FRAME, ((_READ, _HEAP, 1),)),
    _SI("proceed_resume", _CONTROL, ((R_ENV_POP, 1),),
        ((_READ, _CONTROL_AREA, 4),)),
    _SI("fail", _CONTROL, ((R_BACKTRACK, 1), (R_FAIL_DISPATCH, 1))),
    _SI("cp_restore_resume", _CONTROL, ((R_CP_RESTORE, 1),),
        ((_READ, _CONTROL_AREA, 4),)),
    _SI("untrail_entry", _TRAIL, ((R_UNTRAIL_ENTRY, 1),),
        ((_READ, _TRAIL_AREA, 1),)),
    _SI("trail_push", _TRAIL, ((R_TRAIL_PUSH, 1),),
        ((_WRITE_STACK, _TRAIL_AREA, 1),)),
    _SI("fetch_decode", None, ((R_DECODE, 1),), ((_READ, _HEAP, 1),)),
    _SI("fetch_decode_packed", None, ((R_DECODE_PACKED, 1),),
        ((_READ, _HEAP, 1),)),
    _SI("fetch_struct", None, ((R_DECODE, 1), (R_DECODE_OPCODE, 1)),
        ((_READ, _HEAP, 2),)),
    _SI("fetch_struct_packed", None,
        ((R_DECODE_PACKED, 1), (R_DECODE_OPCODE, 1)), ((_READ, _HEAP, 2),)),
    _SI("bind_skip", None, ((R_BIND, 1), (R_TRAIL_SKIP, 1))),
    _SI("push_var", None, ((R_BUILD_VAR, 1),),
        ((_WRITE_STACK, _GLOBAL, 1),)),
    _SI("build_list", None, ((R_BUILD_CELL, 1),),
        ((_WRITE_STACK, _GLOBAL, 2),)),
    _SI("get_arg", None, ((R_GET_ARG, 1),), ((_READ, _HEAP, 1),)),
    _SI("get_arg_packed", None, ((R_GET_ARG_PACKED, 1),),
        ((_READ, _HEAP, 1),)),
    _SI("get_arg_void", None, ((R_GET_ARG, 1),),
        ((_READ, _HEAP, 1), (_WRITE_STACK, _GLOBAL, 1))),
    _SI("get_arg_var_buf", None, ((R_GET_ARG, 1), (R_GET_ARG_VAR_BUF, 1)),
        ((_READ, _HEAP, 1),)),
    _SI("get_arg_var_buf_base", None,
        ((R_GET_ARG, 1), (R_GET_ARG_VAR_BUF_BASE, 1)), ((_READ, _HEAP, 1),)),
    _SI("get_arg_var_mem", None, ((R_GET_ARG, 1), (R_GET_ARG_VAR_MEM, 1)),
        ((_READ, _HEAP, 1), (_READ, _LOCAL, 1))),
    _SI("get_arg_var_buf_packed", None,
        ((R_GET_ARG_PACKED, 1), (R_GET_ARG_VAR_BUF, 1)), ((_READ, _HEAP, 1),)),
    _SI("get_arg_var_buf_base_packed", None,
        ((R_GET_ARG_PACKED, 1), (R_GET_ARG_VAR_BUF_BASE, 1)),
        ((_READ, _HEAP, 1),)),
    _SI("get_arg_var_mem_packed", None,
        ((R_GET_ARG_PACKED, 1), (R_GET_ARG_VAR_MEM, 1)),
        ((_READ, _HEAP, 1), (_READ, _LOCAL, 1))),
    _SI("deref_buf", None, ((R_DEREF_STEP, 1), (R_FRAME_READ_BUF, 1))),
    _SI("deref_buf_base", None,
        ((R_DEREF_STEP, 1), (R_FRAME_READ_BUF_BASE, 1))),
    *(_SI(f"deref_read/{area.name.lower()}", None, ((R_DEREF_STEP, 1),),
          ((_READ, int(area), 1),))
      for area in Area),
    *(_SI(f"clause_frame/{n}", _CONTROL,
          _CLAUSE_FRAME + ((R_FRAME_INIT_SLOT, n),), ((_READ, _HEAP, 1),))
      for n in FRAME_NLOCALS),
)
for _sid, _si in enumerate(BY_SID):
    _si.sid = _sid
    _si.sid6 = _sid * N_MODULES
    _si.slot = (_si.sid6 + _si.module.idx
                if _si.module is not None else _si.sid6)
del _sid, _si

SUPERINSTRUCTIONS: dict[str, Superinstruction] = {si.name: si
                                                  for si in BY_SID}


def slot_space() -> int:
    """Size of the deferred fused-billing count list (sid × module)."""
    return len(BY_SID) * N_MODULES


#: Per-area deref-step superinstructions, indexed by the int area value.
DEREF_BY_AREA = tuple(SUPERINSTRUCTIONS[f"deref_read/{area.name.lower()}"]
                      for area in Area)

#: Per-``nlocals`` clause-activation specialisations
#: (clause try + frame allocate + buffer switch + slot inits fused).
FRAME_BY_NLOCALS = {
    n: SUPERINSTRUCTIONS[f"clause_frame/{n}"] for n in FRAME_NLOCALS
}
