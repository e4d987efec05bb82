"""Superinstruction fusion layer: fold hot micro-op runs into one bill.

PR 4 made each micro-op emission a single list-index increment, but the
interpreter still pays one Python call *per* micro-op (plus one per
memory access) on statically-known sequences such as goal fetch → call
setup → proc lookup.  A :class:`Superinstruction` declares one of those
runs as a single Python-level operation: the machine appends the run's
code to the collector's billing log (``stats._log.append(code)``, see
:class:`~repro.core.stats.StatsCollector`) and appends the run's packed
trace entries itself, in the exact reference order.  The
per-(routine, module) pair deltas and the per-(command, area) memory
deltas of the whole run are precomputed at import time and applied
when the log is counted.

Equivalence contract (guarded by ``tests/core/test_fusion.py`` and the
golden digests in ``tests/core/test_stream_equivalence.py``): applying
a superinstruction to a collector leaves it in exactly the state the
unfused emission run would have — same ``routine_counts``, same
``mem_counts``, same total steps — and the machine's fused call sites
reproduce the trace byte stream bit-for-bit.  Each spec's ordered
``stream`` is the per-op code's billing order, which is what lets an
observed run take the fused path and still stamp every sample with the
per-op clock (``tests/obs/test_export_digests.py``).

:data:`BY_SID` below is the one table of specs; the machine binds each
one by name at import.  Two kinds exist:

* **static** specs name their interpreter module and log ``slot``;
* **dynamic** specs (``module`` ``None``) bill under whatever module is
  active at the call site, logging ``sid6 + module.idx`` — used for
  shapes shared by several modules (decode/fetch, deref, bind, build).
"""

from __future__ import annotations

from repro.core import micro
from repro.core.memory import N_AREAS, Area
from repro.core.micro import (
    N_MODULES, CacheCmd, Module,
    R_BACKTRACK, R_BIND, R_BUILD_CELL, R_BUILD_VAR, R_BUILTIN_STEP,
    R_CALL_SETUP, R_CLAUSE_TRY, R_CP_PUSH, R_CP_RESTORE, R_DECODE,
    R_DECODE_OPCODE, R_DECODE_PACKED, R_DEREF_STEP, R_ENV_POP,
    R_FAIL_DISPATCH, R_FRAME_ALLOC, R_FRAME_INIT_SLOT, R_FRAME_READ_BUF,
    R_FRAME_READ_BUF_BASE, R_FRAME_WRITE_BUF, R_GET_ARG, R_GET_ARG_PACKED,
    R_GET_ARG_VAR_BUF, R_GET_ARG_VAR_BUF_BASE, R_GET_ARG_VAR_MEM,
    R_GOAL_FETCH, R_PROC_LOOKUP, R_SWITCH_BUFFER, R_TRAIL_PUSH,
    R_TRAIL_SKIP, R_UNTRAIL_ENTRY, R_WF_GENERAL,
)


class Superinstruction:
    """One fused micro-op run with precomputed billing deltas.

    ``stream`` is the run exactly as the per-op code bills it, in
    order: ``(routine, times)`` for one ``emit`` and ``(cmd, area,
    times)`` for one memory access (``times > 1``: one block access).
    The deltas are derived from it; an observed run's billing walk
    (:mod:`repro.obs.session`) expands it where a sample lands inside
    the superinstruction.
    """

    __slots__ = ("name", "module", "stream", "n_steps", "base_deltas",
                 "mem_deltas", "max_index", "sid", "sid6", "slot")

    def __init__(self, name: str, module: Module | None, stream: tuple):
        self.name = name
        self.module = module
        self.stream = stream

        pair: dict[int, int] = {}             # keyed by pair_base (module-relative)
        steps = 0
        mem_flat: dict[int, int] = {}         # _mem_counts indices (absolute)
        for op in stream:
            if len(op) == 2:
                routine, times = op
                pair[routine.pair_base] = pair.get(routine.pair_base, 0) + times
                steps += routine.n_steps * times
                continue
            cmd, area, times = op
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
        # Billing-log identity, assigned by the table below: a static
        # spec logs ``slot`` (module baked in), a dynamic one
        # ``sid6 + ambient module.idx``.
        self.sid = -1
        self.sid6 = -1
        self.slot = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        scope = self.module.value if self.module is not None else "*"
        return f"Superinstruction({self.name!r}, module={scope}, steps={self.n_steps})"


_SI = Superinstruction
_CONTROL, _TRAIL = Module.CONTROL, Module.TRAIL
_READ, _WRITE = CacheCmd.READ, CacheCmd.WRITE
_WRITE_STACK = CacheCmd.WRITE_STACK
_HEAP, _GLOBAL, _LOCAL = int(Area.HEAP), int(Area.GLOBAL), int(Area.LOCAL)
_CONTROL_AREA, _TRAIL_AREA = int(Area.CONTROL), int(Area.TRAIL)

#: nlocals values with a dedicated ``clause_frame/{n}`` specialisation
#: (frame-size evidence in docs/ARCHITECTURE.md).
FRAME_NLOCALS = (1, 2, 3, 4)

_CLAUSE_FRAME = ((R_CLAUSE_TRY, 1), (_READ, _HEAP, 1), (R_FRAME_ALLOC, 1),
                 (R_SWITCH_BUFFER, 1))

#: Every superinstruction, by ``sid`` — also the flush loop's decode
#: table.  Each stream is the per-op code's order at its call site.
BY_SID: tuple[Superinstruction, ...] = (
    _SI("call_dispatch", _CONTROL,
        ((R_GOAL_FETCH, 1), (_READ, _HEAP, 1), (R_CALL_SETUP, 1),
         (R_BUILTIN_STEP, 1), (R_PROC_LOOKUP, 1), (_READ, _HEAP, 1))),
    _SI("cp_push_frame", _CONTROL,
        ((R_CP_PUSH, 1), (R_WF_GENERAL, 1),
         (_WRITE_STACK, _CONTROL_AREA, 10))),
    _SI("clause_try", _CONTROL, ((R_CLAUSE_TRY, 1), (_READ, _HEAP, 1))),
    _SI("clause_frame", _CONTROL, _CLAUSE_FRAME),
    _SI("proceed_resume", _CONTROL,
        ((R_ENV_POP, 1), (_READ, _CONTROL_AREA, 4))),
    _SI("fail", _CONTROL, ((R_BACKTRACK, 1), (R_FAIL_DISPATCH, 1))),
    _SI("cp_restore_resume", _CONTROL,
        ((R_CP_RESTORE, 1), (_READ, _CONTROL_AREA, 4))),
    _SI("untrail_entry", _TRAIL,
        ((R_UNTRAIL_ENTRY, 1), (_READ, _TRAIL_AREA, 1))),
    _SI("trail_push", _TRAIL,
        ((R_TRAIL_PUSH, 1), (_WRITE_STACK, _TRAIL_AREA, 1))),
    _SI("fetch_decode", None, ((_READ, _HEAP, 1), (R_DECODE, 1))),
    _SI("fetch_decode_packed", None,
        ((_READ, _HEAP, 1), (R_DECODE_PACKED, 1))),
    _SI("fetch_struct", None,
        ((_READ, _HEAP, 1), (R_DECODE, 1), (_READ, _HEAP, 1),
         (R_DECODE_OPCODE, 1))),
    _SI("fetch_struct_packed", None,
        ((_READ, _HEAP, 1), (R_DECODE_PACKED, 1), (_READ, _HEAP, 1),
         (R_DECODE_OPCODE, 1))),
    # bind + the cell write + trail skip: ``bind_skip`` for a slot of a
    # frame buffered in the work file, ``bind_skip/<area>`` for a
    # memory cell.
    _SI("bind_skip", None,
        ((R_BIND, 1), (R_FRAME_WRITE_BUF, 1), (R_TRAIL_SKIP, 1))),
    *(_SI(f"bind_skip/{area.name.lower()}", None,
          ((R_BIND, 1), (_WRITE, int(area), 1), (R_TRAIL_SKIP, 1)))
      for area in Area),
    _SI("push_var", None, ((_WRITE_STACK, _GLOBAL, 1), (R_BUILD_VAR, 1))),
    _SI("build_list", None,
        ((R_BUILD_CELL, 1), (_WRITE_STACK, _GLOBAL, 1),
         (_WRITE_STACK, _GLOBAL, 1))),
    _SI("get_arg", None, ((_READ, _HEAP, 1), (R_GET_ARG, 1))),
    _SI("get_arg_packed", None, ((_READ, _HEAP, 1), (R_GET_ARG_PACKED, 1))),
    _SI("get_arg_void", None,
        ((_READ, _HEAP, 1), (R_GET_ARG, 1), (_WRITE_STACK, _GLOBAL, 1))),
    _SI("get_arg_var_buf", None,
        ((_READ, _HEAP, 1), (R_GET_ARG, 1), (R_GET_ARG_VAR_BUF, 1))),
    _SI("get_arg_var_buf_base", None,
        ((_READ, _HEAP, 1), (R_GET_ARG, 1), (R_GET_ARG_VAR_BUF_BASE, 1))),
    _SI("get_arg_var_mem", None,
        ((_READ, _HEAP, 1), (R_GET_ARG, 1), (R_GET_ARG_VAR_MEM, 1),
         (_READ, _LOCAL, 1))),
    _SI("get_arg_var_buf_packed", None,
        ((_READ, _HEAP, 1), (R_GET_ARG_PACKED, 1), (R_GET_ARG_VAR_BUF, 1))),
    _SI("get_arg_var_buf_base_packed", None,
        ((_READ, _HEAP, 1), (R_GET_ARG_PACKED, 1),
         (R_GET_ARG_VAR_BUF_BASE, 1))),
    _SI("get_arg_var_mem_packed", None,
        ((_READ, _HEAP, 1), (R_GET_ARG_PACKED, 1), (R_GET_ARG_VAR_MEM, 1),
         (_READ, _LOCAL, 1))),
    _SI("deref_buf", None, ((R_DEREF_STEP, 1), (R_FRAME_READ_BUF, 1))),
    _SI("deref_buf_base", None,
        ((R_DEREF_STEP, 1), (R_FRAME_READ_BUF_BASE, 1))),
    *(_SI(f"deref_read/{area.name.lower()}", None,
          ((R_DEREF_STEP, 1), (_READ, int(area), 1)))
      for area in Area),
    *(_SI(f"clause_frame/{n}", _CONTROL,
          _CLAUSE_FRAME + ((R_FRAME_INIT_SLOT, n),))
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
    """Number of billing-log codes of the superinstructions (sid ×
    module); each fits one byte of the plain collector's log."""
    return len(BY_SID) * N_MODULES


#: Per-area bind-skip superinstructions, indexed by the int area value.
BIND_SKIP_BY_AREA = tuple(SUPERINSTRUCTIONS[f"bind_skip/{area.name.lower()}"]
                          for area in Area)

#: Per-area deref-step superinstructions, indexed by the int area value.
DEREF_BY_AREA = tuple(SUPERINSTRUCTIONS[f"deref_read/{area.name.lower()}"]
                      for area in Area)

#: Per-``nlocals`` clause-activation specialisations
#: (clause try + frame allocate + buffer switch + slot inits fused).
FRAME_BY_NLOCALS = {
    n: SUPERINSTRUCTIONS[f"clause_frame/{n}"] for n in FRAME_NLOCALS
}
