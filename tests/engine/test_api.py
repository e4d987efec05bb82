"""The AbstractEngine protocol and the two adapters."""

import pytest

from repro.engine.api import (
    AbstractEngine,
    EngineStatsFacade,
    PSIEngine,
    WAMEngine,
    create_engine,
)
from repro.errors import MachineError, PrologSyntaxError
from repro.eval.specs import get_spec, spec_names
from repro.prolog.terms import Atom, Struct

PROGRAM = """
append([], L, L).
append([H|T], L, [H|R]) :- append(T, L, R).
"""

LIST_OF_ONES = """
ones(0, []).
ones(N, [1|T]) :- N > 0, M is N - 1, ones(M, T).
"""


@pytest.fixture(params=spec_names())
def engine(request):
    return create_engine(request.param)


class TestProtocol:
    def test_adapters_satisfy_protocol(self, engine):
        assert isinstance(engine, AbstractEngine)

    def test_create_engine_names(self):
        for name in spec_names():
            engine = create_engine(name)
            assert engine.name == name
            expected = (WAMEngine if get_spec(name).engine == "baseline"
                        else PSIEngine)
            assert isinstance(engine, expected)
        for name in ("t800", "wam"):
            with pytest.raises(ValueError, match="unknown run spec"):
                create_engine(name)


class TestSolve:
    def test_first_solution(self, engine):
        engine.load(PROGRAM)
        answers = engine.solve("append([1,2], [3], X)")
        assert answers == ((("X", "[1,2,3]"),),)

    def test_all_solutions(self, engine):
        engine.load(PROGRAM)
        answers = engine.solve("append(A, B, [1,2])", max_solutions=None)
        assert len(answers) == 3
        assert (("A", "[1]"), ("B", "[2]")) in answers

    def test_failure_is_empty(self, engine):
        engine.load(PROGRAM)
        assert engine.solve("append([1], [2], [9])") == ()

    def test_counters_and_output(self, engine):
        engine.load("tally :- counter_inc(n), counter_inc(n), write(done).")
        engine.solve("tally")
        assert engine.counters.get("n") == 2
        assert "done" in "".join(engine.output)


class TestLoadErrors:
    @pytest.mark.parametrize("text", [
        "a :- " + ",".join(["b"] * 600) + ".",
        "p(" + "f(" * 2000 + "x" + ")" * 2000 + ").",
    ])
    def test_too_deep_source_is_a_syntax_error(self, engine, text):
        with pytest.raises(PrologSyntaxError):
            engine.load(text)

    @pytest.mark.parametrize("text", [
        "p([" + ",".join(["1"] * 1000) + "]).",
        # 498 levels under p/1 is the deepest term the reader accepts
        "p(" + "f(" * 498 + "x" + ")" * 498 + ").",
    ], ids=["list-1000", "compound-498"])
    def test_long_list_and_deep_compound_load(self, engine, text):
        engine.load(text)

    def test_long_list_answer_on_the_wam(self):
        engine = create_engine("baseline")
        engine.load("p([" + ",".join(["1"] * 1000) + "]).")
        answers = engine.solve("p(L)")
        assert answers == ((("L", "[" + ",".join(["1"] * 1000) + "]"),),)

    def test_long_list_head_is_copied_and_matched(self, engine):
        ones = "[" + ",".join(["1"] * 1000) + "]"
        engine.load(LIST_OF_ONES + f"p({ones}).")
        assert engine.solve("p(L)") == ((("L", ones),),)
        assert engine.solve("ones(1000, A), p(A)") == ((("A", ones),),)
        assert engine.solve("ones(999, A), p(A)") == ()

    def test_long_lists_compare(self, engine):
        engine.load(LIST_OF_ONES + """
t(O) :- ones(1200, A), ones(1200, B), A == B, compare(O, A, B).
u(O) :- ones(1200, A), ones(1199, B), A \\== B, compare(O, A, B).
""")
        assert engine.solve("t(O)") == ((("O", "="),),)
        assert engine.solve("u(O)") == ((("O", ">"),),)

    def test_deep_answer_decodes(self, engine):
        engine.load("mk(0, z).\nmk(N, f(T)) :- N > 0, M is N - 1, mk(M, T).")
        (solution,) = engine.machine.solve("mk(900, T)").all(1)
        term, depth = solution.bindings["T"], 0
        while isinstance(term, Struct):
            assert term.functor == "f"
            term, depth = term.args[0], depth + 1
        assert (depth, term) == (900, Atom("z"))

    def test_cyclic_terms_compare_and_refuse_to_decode(self, engine):
        engine.load("t :- X = f(X), Y = f(Y), X == Y, compare(=, X, Y).")
        assert engine.solve("t") == ((),)
        for goal in ("X = f(X)", "X = [a|X]"):
            with pytest.raises(MachineError, match="cyclic"):
                engine.solve(goal)


    def test_cyclic_terms_unify(self, engine):
        assert engine.solve("X = f(X), Y = f(Y), X = Y, fail") == ()
        assert engine.solve("X = [a|X], Y = [a|Y], X = Y, fail") == ()
        assert engine.solve("X = f(X, a), Y = f(Y, b), X = Y") == ()

    def test_deep_answer_prints(self, engine):
        engine.load("mk(0, z).\nmk(N, f(T)) :- N > 0, M is N - 1, mk(M, T).")
        (((name, text),),) = engine.solve("mk(900, T)")
        assert (name, text) == ("T", "f(" * 900 + "z" + ")" * 900)

    def test_long_list_query(self, engine):
        ones = "[" + ",".join(["1"] * 1000) + "]"
        assert engine.solve(f"X = {ones}") == ((("X", ones),),)


class TestStatsFacade:
    def test_facade_shape(self, engine):
        engine.load(PROGRAM)
        engine.solve("append([1,2,3], [], X)")
        facade = engine.stats_facade()
        assert isinstance(facade, EngineStatsFacade)
        assert facade.engine == engine.name
        assert facade.inferences > 0
        assert facade.time_ms > 0
        assert facade.work > 0

    def test_work_units_differ_by_engine(self):
        psi, wam = create_engine("faithful"), create_engine("baseline")
        for eng in (psi, wam):
            eng.load(PROGRAM)
            eng.solve("append([1], [2], X)")
        assert psi.stats_facade().work_unit == "microsteps"
        assert wam.stats_facade().work_unit == "instructions"
