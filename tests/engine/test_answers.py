"""Canonical answers: renaming, multisets, expected-dict validation."""

from repro.engine.answers import (
    answer_multiset,
    canonical_answer,
    check_expected,
    render_answer,
)
from repro.prolog import parse_term
from repro.prolog.terms import Struct, Var


class TestCanonicalAnswer:
    def test_engine_specific_var_names_erased(self):
        psi = canonical_answer({"X": Var("_A1234"), "Y": Var("_A1234")})
        wam = canonical_answer({"X": Var("_B7"), "Y": Var("_B7")})
        assert psi == wam == (("X", "_G0"), ("Y", "_G0"))

    def test_aliasing_preserved(self):
        distinct = canonical_answer({"X": Var("_A1"), "Y": Var("_A2")})
        aliased = canonical_answer({"X": Var("_A1"), "Y": Var("_A1")})
        assert distinct == (("X", "_G0"), ("Y", "_G1"))
        assert aliased == (("X", "_G0"), ("Y", "_G0"))
        assert distinct != aliased

    def test_binding_order_is_name_sorted(self):
        forward = canonical_answer({"A": 1, "B": 2})
        backward = canonical_answer({"B": 2, "A": 1})
        assert forward == backward == (("A", "1"), ("B", "2"))

    def test_nested_terms_rendered_deterministically(self):
        term = parse_term("f(g(1), [a, b], X)")
        answer = canonical_answer({"T": term})
        assert answer == (("T", "f(g(1),[a,b],_G0)"),)

    def test_vars_inside_structures_renamed(self):
        term = Struct("f", (Var("_A9"), Var("_A9"), Var("_A10")))
        answer = canonical_answer({"T": term})
        assert answer == (("T", "f(_G0,_G0,_G1)"),)

    def test_numbering_is_pre_order_left_to_right(self):
        term = Struct("f", (Struct("g", (Var("_A5"), Struct("h", (
            Var("_A3"),)))), Var("_A4"), Var("_A5")))
        answer = canonical_answer({"T": term})
        assert answer == (("T", "f(g(_G0,h(_G1)),_G2,_G0)"),)


class TestMultisetAndRendering:
    def test_multiset_order_insensitive(self):
        a = canonical_answer({"X": 1})
        b = canonical_answer({"X": 2})
        assert answer_multiset([a, b]) == answer_multiset([b, a])

    def test_duplicates_preserved(self):
        a = canonical_answer({"X": 1})
        assert answer_multiset([a, a]) != answer_multiset([a])

    def test_render(self):
        assert render_answer(()) == "true"
        assert render_answer((("X", "1"), ("Y", "[a]"))) == "X = 1, Y = [a]"


class TestCheckExpected:
    def answers_for(self, text):
        return (canonical_answer({"V": parse_term(text)}),)

    def test_empty_expected_always_passes(self):
        assert check_expected({}, answers=(), counters={}) == []

    def test_no_answers_fails(self):
        assert check_expected({"V": 1}, answers=(), counters={})

    def test_bare_variable_binding(self):
        answers = self.answers_for("89")
        assert check_expected({"V": 89}, answers=answers, counters={}) == []
        assert check_expected({"V": 13}, answers=answers, counters={})

    def test_first_element(self):
        good = self.answers_for("[30, 29, 28]")
        assert check_expected({"first_element": 30}, answers=good,
                              counters={}) == []
        assert check_expected({"first_element": 1}, answers=good,
                              counters={})

    def test_first_tolerates_improper_tail(self):
        # The Lisp-interpreter workloads build nil-terminated chains.
        lispy = self.answers_for("[16, 15|nil]")
        assert check_expected({"first": 16}, answers=lispy,
                              counters={}) == []

    def test_sorted_length(self):
        good = self.answers_for("[1, 2, 2, 5]")
        assert check_expected({"sorted_length": 4}, answers=good,
                              counters={}) == []
        assert check_expected({"sorted_length": 3}, answers=good,
                              counters={})
        unsorted = self.answers_for("[2, 1]")
        assert check_expected({"sorted_length": 2}, answers=unsorted,
                              counters={})

    def test_solutions_counter(self):
        answers = (canonical_answer({}),)
        assert check_expected({"solutions": 92}, answers=answers,
                              counters={"solutions": 92}) == []
        assert check_expected({"solutions": 92}, answers=answers,
                              counters={"solutions": 91})

    def test_parses_min_counter(self):
        answers = (canonical_answer({}),)
        assert check_expected({"parses_min": 2}, answers=answers,
                              counters={"parses": 5}) == []
        assert check_expected({"parses_min": 2}, answers=answers,
                              counters={})

    def test_unknown_key_reported(self):
        answers = self.answers_for("1")
        assert check_expected({"W": 1}, answers=answers, counters={})

    def test_registry_expectations_are_interpretable(self):
        # Every expected key used anywhere in the registry must be one
        # check_expected understands (or a goal variable name).
        from repro.workloads import all_workloads
        known = {"first_element", "first", "sorted_length", "solutions",
                 "parses_min"}
        for workload in all_workloads().values():
            for key in workload.expected:
                assert key in known or key.isidentifier(), \
                    f"{workload.name}: uninterpretable expected key {key!r}"
