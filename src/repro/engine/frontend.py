"""Shared compilation frontend: parse → control expansion → clause IR.

Both execution backends used to re-derive clause structure from
:mod:`repro.prolog` independently — the PSI code compiler
(:mod:`repro.core.code`) and the WAM clause compiler
(:mod:`repro.baseline.compiler`) each classified goals against their
own builtin table and walked terms for variable occurrence data.  This
module is now the single owner of that analysis:

* :class:`Frontend` — parses source text, expands control constructs
  (``;``, ``->``, ``\\+``, ``not/1``) through one long-lived
  :class:`~repro.prolog.transform.ControlExpander`, and normalizes
  every resulting flat clause;
* :class:`NormalizedClause` — the normalized clause IR: the flat head
  and body terms, every body goal classified
  (:class:`NormalizedGoal`: user call / builtin / cut, with meta-call
  marking), and the clause's variable classification
  (:class:`VarInfo`: void / local / global with slot assignments).

The variable classification is the PSI's (nested occurrences are
global, single top-level occurrences are void, the rest local) — moved
here *verbatim* from ``repro.core.code`` because the PSI emission
stream is pinned bit-for-bit by golden digests
(``tests/core/test_stream_equivalence.py``).  The WAM backend consumes
the goal classification and keeps its own permanent-variable (Y slot)
chunk analysis, which is register allocation, not language semantics.

Goal classification is parameterized by the backend's builtin indicator
set: the engines differ by the documented KL0-only allowlist
(:data:`repro.engine.builtins_spec.KL0_ONLY`), and a ``new_vector/2``
goal must compile to a builtin call on the PSI but to an (undefined)
user call on the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import PrologSyntaxError
from repro.prolog.reader import parse_program
from repro.prolog.terms import Atom, Struct, Term, Var
from repro.prolog.transform import ControlExpander, FlatClause, TransformResult

GOAL_CALL = "call"
GOAL_BUILTIN = "builtin"
GOAL_CUT = "cut"

#: Slot value marking a void variable (single, top-level occurrence).
VOID_SLOT = -2


# ---------------------------------------------------------------------------
# Variable classification (moved verbatim from repro.core.code)
# ---------------------------------------------------------------------------


@dataclass
class VarInfo:
    """Occurrence data and classification for one clause variable."""

    occurrences: int = 0
    nested: bool = False          # occurs inside a compound term
    slot: int = -1                # local/global slot, or VOID_SLOT
    is_global: bool = False
    seen: bool = False            # first-occurrence marking during build


def scan_term(term: Term, info: dict[str, VarInfo], nested: bool) -> None:
    """Accumulate variable occurrence data over one argument term.

    Walks the term in pre-order (the first-occurrence order slot
    assignment depends on) with a stack of argument iterators, so a
    long list literal or a deeply nested argument costs no Python
    frames: a compound argument suspends its parent's iterator until
    its own arguments are done.
    """
    if isinstance(term, Var):
        entry = info.setdefault(term.name, VarInfo())
        entry.occurrences += 1
        entry.nested = entry.nested or nested
        return
    if not isinstance(term, Struct):
        return
    # Everything below the argument itself is a nested occurrence.
    pending = [iter(term.args)]
    while pending:
        for term in pending[-1]:
            if isinstance(term, Var):
                entry = info.setdefault(term.name, VarInfo())
                entry.occurrences += 1
                entry.nested = True
            elif isinstance(term, Struct):
                pending.append(iter(term.args))
                break
        else:
            pending.pop()


# ---------------------------------------------------------------------------
# Goal classification
# ---------------------------------------------------------------------------


class NormalizedGoal:
    """One classified body goal of a normalized clause."""

    __slots__ = ("term", "kind", "name", "arity", "args", "is_meta")

    def __init__(self, term: Term, kind: str, name: str, arity: int,
                 args: tuple[Term, ...], is_meta: bool):
        self.term = term
        self.kind = kind          # GOAL_CALL | GOAL_BUILTIN | GOAL_CUT
        self.name = name
        self.arity = arity
        self.args = args
        self.is_meta = is_meta    # variable goal or call/1

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)

    def __repr__(self) -> str:
        meta = ", meta" if self.is_meta else ""
        return f"NormalizedGoal({self.kind}: {self.name}/{self.arity}{meta})"


def classify_goal(goal: Term,
                  builtin_indicators: frozenset[tuple[str, int]]
                  ) -> NormalizedGoal:
    """Classify one (control-expanded) body goal.

    A variable goal is a meta-call — it classifies as the builtin
    ``call/1`` with the variable itself as the argument, exactly as
    both backends have always treated it.
    """
    if isinstance(goal, Var):
        return NormalizedGoal(goal, GOAL_BUILTIN, "call", 1, (goal,), True)
    if isinstance(goal, Atom):
        name, args = goal.name, ()
    elif isinstance(goal, Struct):
        name, args = goal.functor, goal.args
    else:
        raise PrologSyntaxError(f"invalid goal: {goal!r}")
    if name == "!" and not args:
        return NormalizedGoal(goal, GOAL_CUT, "!", 0, (), False)
    arity = len(args)
    is_meta = (name, arity) == ("call", 1)
    kind = GOAL_BUILTIN if (name, arity) in builtin_indicators else GOAL_CALL
    return NormalizedGoal(goal, kind, name, arity, tuple(args), is_meta)


# ---------------------------------------------------------------------------
# Normalized clause IR
# ---------------------------------------------------------------------------


class NormalizedClause:
    """A flat clause with goal and variable classification attached.

    ``var_info`` preserves first-occurrence insertion order (head
    arguments, then body goal arguments, left to right) — the PSI
    backend's slot numbering and serialisation order depend on it.
    The ``seen`` flags inside are mutated by the PSI code builder, so a
    NormalizedClause is compiled by exactly one backend (each machine
    owns its own :class:`Frontend`).
    """

    __slots__ = ("head", "functor", "arity", "head_args", "goals",
                 "var_info", "nlocals", "nglobals",
                 "local_names", "global_names")

    def __init__(self, head: Term, functor: str, arity: int,
                 head_args: tuple[Term, ...],
                 goals: tuple[NormalizedGoal, ...],
                 var_info: dict[str, VarInfo],
                 local_names: tuple[str, ...],
                 global_names: tuple[str, ...]):
        self.head = head
        self.functor = functor
        self.arity = arity
        self.head_args = head_args
        self.goals = goals
        self.var_info = var_info
        self.local_names = local_names
        self.global_names = global_names
        self.nlocals = len(local_names)
        self.nglobals = len(global_names)

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.functor, self.arity)

    def __repr__(self) -> str:
        return (f"NormalizedClause({self.functor}/{self.arity}, "
                f"{len(self.goals)} goals, "
                f"{self.nlocals}L/{self.nglobals}G)")


def normalize_flat(flat: FlatClause,
                   builtin_indicators: frozenset[tuple[str, int]]
                   ) -> NormalizedClause:
    """Normalize one flat clause: classify goals and variables.

    The classification rule (the PSI's): variables nested inside
    compound terms are global (their cells live on the global stack);
    single top-level occurrences are void; the rest are local frame
    slots.  Slot numbers follow first-occurrence order.
    """
    functor, arity = flat.indicator
    head_args = flat.head_args
    info: dict[str, VarInfo] = {}
    for arg in head_args:
        scan_term(arg, info, False)
    goals: list[NormalizedGoal] = []
    for goal in flat.body:
        normalized = classify_goal(goal, builtin_indicators)
        goals.append(normalized)
        for arg in normalized.args:
            scan_term(arg, info, False)

    locals_: list[str] = []
    globals_: list[str] = []
    for name, entry in info.items():
        if entry.occurrences == 1 and not entry.nested:
            entry.slot = VOID_SLOT
        elif entry.nested:
            entry.is_global = True
            entry.slot = len(globals_)
            globals_.append(name)
        else:
            entry.slot = len(locals_)
            locals_.append(name)

    return NormalizedClause(flat.head, functor, arity, head_args,
                            tuple(goals), info,
                            tuple(locals_), tuple(globals_))


@dataclass
class ClauseBatch:
    """Everything one source clause normalizes into.

    ``clauses`` contains the main clause plus any auxiliary clauses its
    control constructs expanded into; ``auxiliary`` names the auxiliary
    predicates created (``$dsj``/``$not``/``$ite`` helpers).
    """

    main: NormalizedClause
    clauses: list[NormalizedClause]
    auxiliary: set[tuple[str, int]]


@dataclass
class ProgramBatch:
    """A whole program's normalized clauses, in load order."""

    clauses: list[NormalizedClause]
    auxiliary: set[tuple[str, int]]


class Frontend:
    """The shared parse + expand + normalize pipeline for one backend.

    One frontend lives as long as its machine so auxiliary predicate
    names stay unique across incremental loads (assert/consult), same
    as the control expander it wraps.
    """

    def __init__(self, builtin_indicators: Iterable[tuple[str, int]]):
        self.builtin_indicators = frozenset(builtin_indicators)
        self._expander = ControlExpander()

    def expand_clause(self, term: Term) -> ClauseBatch:
        """Expand + normalize one source clause term."""
        result = TransformResult()
        main_flat = self._expander.expand_clause(term, result)
        main: NormalizedClause | None = None
        clauses: list[NormalizedClause] = []
        for flat in result.clauses:
            normalized = normalize_flat(flat, self.builtin_indicators)
            clauses.append(normalized)
            if flat is main_flat:
                main = normalized
        assert main is not None
        return ClauseBatch(main, clauses, result.auxiliary)

    def expand_terms(self, terms: Iterable[Term]) -> ProgramBatch:
        """Expand + normalize a sequence of parsed clause terms."""
        result = TransformResult()
        for term in terms:
            self._expander.expand_clause(term, result)
        clauses = [normalize_flat(flat, self.builtin_indicators)
                   for flat in result.clauses]
        return ProgramBatch(clauses, result.auxiliary)

    def normalize_text(self, text: str) -> ProgramBatch:
        """Parse program source text and normalize every clause."""
        return self.expand_terms(parse_program(text))
