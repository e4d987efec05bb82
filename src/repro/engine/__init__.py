"""Shared engine layer: everything both execution engines plug into.

The PSI interpreter (:mod:`repro.core`) and the DEC-10 WAM baseline
(:mod:`repro.baseline`) are deliberately parallel implementations — the
paper's Table 1 compares them — but the *language* they execute must be
identical or the comparison is meaningless.  This package owns the
parts that define that language once:

* :mod:`repro.engine.frontend` — parse + control expansion + the
  normalized clause IR (goal classification, variable classification)
  both backends compile from;
* :mod:`repro.engine.builtins_spec` — the single builtin specification
  table (name, arity, determinism) and the shared pure arithmetic
  evaluation both dispatch tables derive from;
* :mod:`repro.engine.answers` — canonical answer representation
  (deterministic term rendering, answer multisets) making solutions
  from both engines comparable;
* :mod:`repro.engine.api` — the :class:`AbstractEngine` protocol and
  the :class:`PSIEngine`/:class:`WAMEngine` adapters implementing it;
* :mod:`repro.engine.crosscheck` — the differential oracle behind
  ``psi-eval crosscheck``.
"""

from repro.engine.answers import (
    Answer,
    answer_multiset,
    canonical_answer,
    check_expected,
    render_answer,
)
from repro.engine.api import (
    AbstractEngine,
    EngineStatsFacade,
    PSIEngine,
    WAMEngine,
    create_engine,
)
from repro.engine.builtins_spec import (
    BUILTIN_SPECS,
    DEC_ONLY,
    KL0_ONLY,
    BuiltinSpec,
    dec_indicators,
    kl0_indicators,
    shared_indicators,
)
from repro.engine.frontend import (
    Frontend,
    NormalizedClause,
    NormalizedGoal,
    VarInfo,
)

__all__ = [
    "Frontend", "NormalizedClause", "NormalizedGoal", "VarInfo",
    "BuiltinSpec", "BUILTIN_SPECS", "KL0_ONLY", "DEC_ONLY",
    "shared_indicators", "kl0_indicators", "dec_indicators",
    "Answer", "canonical_answer", "answer_multiset", "render_answer",
    "check_expected",
    "AbstractEngine", "EngineStatsFacade", "PSIEngine", "WAMEngine",
    "create_engine",
]
