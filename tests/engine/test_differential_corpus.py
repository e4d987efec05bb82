"""Hand-written differential corpus: identical canonical answer
multisets on both engines across the language's behavioural corners
(arithmetic, list recursion, backtracking, cut, negation, control)."""

import pytest

from repro.engine.answers import answer_multiset
from repro.engine.api import create_engine

#: (name, program, goal) — each runs on both engines with all solutions
#: enumerated; the canonical answer multisets must be identical.
CORPUS = [
    ("arith-eval",
     "area(W, H, A) :- A is W * H.",
     "area(6, 7, A)"),
    ("arith-truncating-division",
     "d(A, B, Q, M, R) :- Q is A // B, M is A mod B, R is A rem B.",
     "d(-7, 2, Q, M, R)"),
    ("arith-comparison-backtrack",
     "n(1). n(2). n(3). n(4). big(X) :- n(X), X > 2.",
     "big(X)"),
    ("list-append-enumerate",
     """
     app([], L, L).
     app([H|T], L, [H|R]) :- app(T, L, R).
     """,
     "app(A, B, [1,2,3])"),
    ("list-naive-reverse",
     """
     app([], L, L).
     app([H|T], L, [H|R]) :- app(T, L, R).
     rev([], []).
     rev([H|T], R) :- rev(T, RT), app(RT, [H], R).
     """,
     "rev([1,2,3,4,5], R)"),
    ("backtracking-permutations",
     """
     sel(X, [X|T], T).
     sel(X, [H|T], [H|R]) :- sel(X, T, R).
     perm([], []).
     perm(L, [H|T]) :- sel(H, L, R), perm(R, T).
     """,
     "perm([1,2,3], P)"),
    ("cut-commits-first",
     "f(1). f(2). f(3). first(X) :- f(X), !.",
     "first(X)"),
    ("cut-inside-guard",
     """
     max(X, Y, X) :- X >= Y, !.
     max(_, Y, Y).
     """,
     "max(3, 7, M)"),
    ("negation-as-failure",
     "g(1). g(3). odd_gap(X) :- g(X), \\+ g(2).",
     "odd_gap(X)"),
    ("negation-failing",
     "h(1). none(X) :- h(X), \\+ h(1).",
     "none(X)"),
    ("disjunction",
     "d(X) :- (X = left ; X = right).",
     "d(X)"),
    ("if-then-else",
     "classify(X, R) :- (X > 0 -> R = pos ; R = nonpos).",
     "classify(-2, R)"),
    ("structure-unification",
     "pair(f(X, g(Y)), X, Y).",
     "pair(f(1, g(hello)), A, B)"),
    ("partial-instantiation",
     "same(X, X).",
     "same(f(A, 2), f(1, B))"),
    ("meta-call",
     "t(42). indirect(G) :- call(G).",
     "indirect(t(X))"),
]


@pytest.mark.parametrize("name,program,goal",
                         CORPUS, ids=[c[0] for c in CORPUS])
def test_engines_agree(name, program, goal):
    multisets = {}
    for engine_name in ("faithful", "baseline"):
        engine = create_engine(engine_name)
        engine.load(program)
        answers = engine.solve(goal, max_solutions=None)
        multisets[engine_name] = answer_multiset(answers)
    assert multisets["faithful"] == multisets["baseline"], \
        f"{name}: engines diverge on {goal}"


def test_counters_agree_on_failure_driven_loop():
    program = """
    item(a). item(b). item(c).
    count :- item(_), counter_inc(seen), fail.
    count.
    """
    counts = {}
    for engine_name in ("faithful", "baseline"):
        engine = create_engine(engine_name)
        engine.load(program)
        assert engine.solve("count") == ((),)
        counts[engine_name] = dict(engine.counters)
    assert counts["faithful"] == counts["baseline"] == {"seen": 3}


# ---------------------------------------------------------------------------
# Clause-indexing mini-corpus: the first-argument shapes the selection
# analysis dispatches on, each run under THREE configurations — faithful
# PSI, clause-indexed PSI and the (always-indexing) DEC baseline.  The
# indexed configuration must never change an answer multiset: indexing
# narrows the clause *scan*, not the solution set.
# ---------------------------------------------------------------------------

#: Every first-argument kind in one predicate, with a var clause
#: interleaved (id 1) so each bucket must carry it, plus same-functor /
#: different-arity heads (f/1 vs f/2) that must not share a bucket.
_MIX = """
m(a, 1).
m(V, 2).
m(b, 3).
m(7, 4).
m([], 5).
m([H|T], 6).
m(f(X), 7).
m(f(X, Y), 8).
"""

_NIL = """
t([], empty).
t('[]', quoted).
t([_|_], cons).
t(A, any).
"""

INDEXING_CORPUS = [
    ("atom-hit", _MIX, "m(a, R)"),
    ("atom-other-bucket", _MIX, "m(b, R)"),
    ("atom-unknown-key", _MIX, "m(q, R)"),
    ("int-hit", _MIX, "m(7, R)"),
    ("int-unknown-key", _MIX, "m(8, R)"),
    ("nil", _MIX, "m([], R)"),
    ("list-cell", _MIX, "m([1,2], R)"),
    ("struct-f1", _MIX, "m(f(0), R)"),
    ("struct-f2-distinct-arity", _MIX, "m(f(0, 1), R)"),
    ("struct-unknown-functor", _MIX, "m(g(0), R)"),
    ("unbound-full-scan", _MIX, "m(W, R)"),
    # [] vs '[]' vs a list cell: the quoted atom is nil, so both nil
    # clauses share the "[]" key and a cons cell hits neither.
    ("nil-vs-quoted-nil", _NIL, "t([], R)"),
    ("quoted-nil-probe", _NIL, "t('[]', R)"),
    ("cons-vs-nil", _NIL, "t([x], R)"),
    # The dispatch argument arrives through a reference chain.
    ("deref-chain-probe",
     "eq(X, X). p(a, 1). p(V, 2). p(b, 3). d(R) :- eq(W, b), p(W, R).",
     "d(R)"),
]

#: The three configurations the indexing corpus must agree across.
ALL_CONFIGS = ("faithful", "indexed", "baseline")


@pytest.mark.parametrize("name,program,goal", INDEXING_CORPUS,
                         ids=[c[0] for c in INDEXING_CORPUS])
def test_indexing_corpus_agrees(name, program, goal):
    multisets = {}
    for engine_name in ALL_CONFIGS:
        engine = create_engine(engine_name)
        engine.load(program)
        answers = engine.solve(goal, max_solutions=None)
        multisets[engine_name] = answer_multiset(answers)
    assert multisets["faithful"] == multisets["indexed"] \
        == multisets["baseline"], f"{name}: configurations diverge on {goal}"


def test_assert_after_first_call_agrees():
    """Clauses asserted *after* the index was first built must join it."""
    results = {}
    for engine_name in ALL_CONFIGS:
        engine = create_engine(engine_name)
        engine.load("d(1, one).")
        # First call builds the dispatch structure...
        before = engine.solve("d(1, R)", max_solutions=None)
        # ...then the predicate grows: a const clause, a var clause
        # (which must join every bucket) and a second const clause.
        engine.solve("assertz(d(2, two)), assertz(d(V, var)), "
                     "assertz(d(2, late))")
        results[engine_name] = (
            answer_multiset(before),
            answer_multiset(engine.solve("d(2, R)", max_solutions=None)),
            answer_multiset(engine.solve("d(9, R)", max_solutions=None)),
            answer_multiset(engine.solve("d(X, R)", max_solutions=None)),
        )
    assert results["faithful"] == results["indexed"] == results["baseline"]


def test_assert_creates_new_predicate_agrees():
    results = {}
    for engine_name in ALL_CONFIGS:
        engine = create_engine(engine_name)
        engine.load("seed(ok).")
        engine.solve("assertz(fresh(a, 1)), assertz(fresh(b, 2)), "
                     "assertz(fresh(C, 3))")
        results[engine_name] = answer_multiset(
            engine.solve("fresh(b, R)", max_solutions=None))
    assert results["faithful"] == results["indexed"] == results["baseline"]


def test_retract_after_first_call_agrees():
    results = {}
    for engine_name in ALL_CONFIGS:
        engine = create_engine(engine_name)
        engine.load("r(a, 1). r(V, 2). r(a, 3). r(b, 4).")
        before = engine.solve("r(a, R)", max_solutions=None)
        assert engine.solve("retract(r(a, 1))")
        results[engine_name] = (
            answer_multiset(before),
            answer_multiset(engine.solve("r(a, R)", max_solutions=None)),
            answer_multiset(engine.solve("r(b, R)", max_solutions=None)),
            answer_multiset(engine.solve("r(X, R)", max_solutions=None)),
        )
    assert results["faithful"] == results["indexed"] == results["baseline"]
