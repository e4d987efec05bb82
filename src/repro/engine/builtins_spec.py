"""The single builtin specification table both engines derive from.

The PSI's KL0 and the DEC-10 baseline must expose the *same* builtin
surface (name, arity, semantics) for Table 1 to compare like with like;
only their cost models differ.  Historically each engine kept its own
registration table and its own copy of the arithmetic evaluation — this
module is the one place that now defines

* :data:`BUILTIN_SPECS` — every builtin's indicator, determinism class
  and category.  The engine dispatch tables
  (:data:`repro.core.builtins.BUILTIN_TABLE` and
  :data:`repro.baseline.builtins.BASELINE_BUILTINS`) register concrete
  implementations *against* this spec; a test asserts each engine
  covers exactly the spec minus the other engine's exclusive
  allowlist.
* :data:`KL0_ONLY` / :data:`DEC_ONLY` — the documented allowlists.
  KL0-only builtins are the heap-vector operations and the OS process
  switch (rewritable structures and I/O service, used by the WINDOW
  workload, §4.2 of the paper); there are currently **no** DEC-only
  builtins.
* the pure integer arithmetic — operator tables and division/modulo
  semantics (KL0 is an integer machine; ``/`` truncates towards zero).
  Each engine keeps its own ``eval_arith`` *driver* because expression
  traversal is billed differently (PSI emits microinstructions, DEC
  charges ``arith_node`` events), but the values they compute come
  from these shared tables, so the engines cannot drift numerically.

Weights (microcode step charges / instruction costs) stay with the
engines: they are cost-model facts, not language facts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import EvaluationError, TypeError_

# ---------------------------------------------------------------------------
# Shared pure arithmetic (KL0 = integer machine; / truncates)
# ---------------------------------------------------------------------------


def int_div(a: int, b: int) -> int:
    """Integer division truncating towards zero (KL0 ``/`` and ``//``)."""
    if b == 0:
        raise EvaluationError("division by zero")
    quotient = abs(a) // abs(b)
    return quotient if (a >= 0) == (b >= 0) else -quotient


def int_mod(a: int, b: int) -> int:
    """``mod``: sign follows the divisor (Python semantics, both engines)."""
    if b == 0:
        raise EvaluationError("division by zero")
    return a % b


def int_rem(a: int, b: int) -> int:
    """``rem``: remainder of truncating division (sign follows dividend)."""
    if b == 0:
        raise EvaluationError("division by zero")
    return a - int_div(a, b) * b


ARITH_BINARY = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "//": int_div,
    "/": int_div,                  # KL0 is an integer machine
    "mod": int_mod,
    "rem": int_rem,
    "min": min,
    "max": max,
    ">>": lambda a, b: a >> b,
    "<<": lambda a, b: a << b,
    "/\\": lambda a, b: a & b,
    "\\/": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
}

ARITH_UNARY = {
    "-": lambda a: -a,
    "+": lambda a: a,
    "abs": abs,
    "\\": lambda a: ~a,
}

ARITH_COMPARE = {
    "=:=": lambda a, b: a == b,
    "=\\=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "=<": lambda a, b: a <= b,
    ">=": lambda a, b: a >= b,
}


def apply_arith_op(name: str, values: list) -> int:
    """Apply one arithmetic operator to already-evaluated operands."""
    if len(values) == 2 and name in ARITH_BINARY:
        return ARITH_BINARY[name](values[0], values[1])
    if len(values) == 1 and name in ARITH_UNARY:
        return ARITH_UNARY[name](values[0])
    raise TypeError_("evaluable functor", f"{name}/{len(values)}")


def apply_compare(name: str, a: int, b: int) -> bool:
    """Apply an arithmetic comparison operator to evaluated operands."""
    return ARITH_COMPARE[name](a, b)


# ---------------------------------------------------------------------------
# Builtin specification table
# ---------------------------------------------------------------------------

#: Determinism classes: ``det`` always succeeds exactly once; ``semidet``
#: succeeds at most once; ``failure`` always fails; ``meta`` inherits the
#: determinism of the goal it calls.  No builtin is backtrackable on
#: either engine.
DETERMINISM_CLASSES = ("det", "semidet", "failure", "meta")


@dataclass(frozen=True)
class BuiltinSpec:
    """One builtin's engine-independent contract."""

    name: str
    arity: int
    determinism: str   # one of DETERMINISM_CLASSES
    kind: str          # category, e.g. "arith", "type", "io"

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)


BUILTIN_SPECS: dict[tuple[str, int], BuiltinSpec] = {}


def _spec(name: str, arity: int, determinism: str, kind: str) -> None:
    assert determinism in DETERMINISM_CLASSES, determinism
    BUILTIN_SPECS[(name, arity)] = BuiltinSpec(name, arity, determinism, kind)


# Control and unification
_spec("true", 0, "det", "control")
_spec("fail", 0, "failure", "control")
_spec("false", 0, "failure", "control")
_spec("call", 1, "meta", "control")
_spec("=", 2, "semidet", "unify")
_spec("\\=", 2, "semidet", "unify")

# Type tests
_spec("var", 1, "semidet", "type")
_spec("nonvar", 1, "semidet", "type")
_spec("atom", 1, "semidet", "type")
_spec("integer", 1, "semidet", "type")
_spec("atomic", 1, "semidet", "type")
_spec("compound", 1, "semidet", "type")
_spec("is_list", 1, "semidet", "type")

# Arithmetic
_spec("is", 2, "semidet", "arith")
_spec("=:=", 2, "semidet", "arith")
_spec("=\\=", 2, "semidet", "arith")
_spec("<", 2, "semidet", "arith")
_spec(">", 2, "semidet", "arith")
_spec("=<", 2, "semidet", "arith")
_spec(">=", 2, "semidet", "arith")

# Standard order of terms
_spec("==", 2, "semidet", "order")
_spec("\\==", 2, "semidet", "order")
_spec("@<", 2, "semidet", "order")
_spec("@>", 2, "semidet", "order")
_spec("@=<", 2, "semidet", "order")
_spec("@>=", 2, "semidet", "order")
_spec("compare", 3, "semidet", "order")

# Term construction / inspection
_spec("functor", 3, "semidet", "term")
_spec("arg", 3, "semidet", "term")
_spec("=..", 2, "semidet", "term")
_spec("length", 2, "semidet", "term")

# KL0 heap vectors (rewritable structures; WINDOW's data)
_spec("new_vector", 2, "det", "vector")
_spec("vector_ref", 3, "semidet", "vector")
_spec("vector_set", 3, "det", "vector")
_spec("vector_size", 2, "semidet", "vector")

# Output (collected, not printed) and counters
_spec("write", 1, "det", "io")
_spec("print", 1, "det", "io")
_spec("nl", 0, "det", "io")
_spec("tab", 1, "det", "io")
_spec("counter_reset", 1, "det", "counter")
_spec("counter_inc", 1, "det", "counter")
_spec("counter_value", 2, "semidet", "counter")

# Dynamic database and misc
_spec("assertz", 1, "det", "db")
_spec("assert", 1, "det", "db")
_spec("retract", 1, "semidet", "db")
_spec("garbage_collect", 0, "det", "db")

# OS interaction (PSI console processor service)
_spec("process_switch", 0, "det", "os")


#: Builtins only the KL0 engine implements: the heap-vector operations
#: and the OS process switch, used exclusively by the ``psi_only``
#: WINDOW workloads.  The WAM baseline never sees programs that call
#: these (the ``baseline`` run spec rejects ``psi_only`` workloads).
KL0_ONLY = frozenset({
    ("new_vector", 2),
    ("vector_ref", 3),
    ("vector_set", 3),
    ("vector_size", 2),
    ("process_switch", 0),
})

#: Builtins only the DEC baseline implements.  Deliberately empty: the
#: baseline's surface is a strict subset of KL0's so every shared
#: workload runs unchanged on both engines.
DEC_ONLY: frozenset[tuple[str, int]] = frozenset()


def shared_indicators() -> frozenset[tuple[str, int]]:
    """Indicators both engines must implement."""
    return frozenset(BUILTIN_SPECS) - KL0_ONLY - DEC_ONLY


def kl0_indicators() -> frozenset[tuple[str, int]]:
    """Indicators the PSI (KL0) dispatch table must cover exactly."""
    return frozenset(BUILTIN_SPECS) - DEC_ONLY


def dec_indicators() -> frozenset[tuple[str, int]]:
    """Indicators the DEC baseline dispatch table must cover exactly."""
    return frozenset(BUILTIN_SPECS) - KL0_ONLY
