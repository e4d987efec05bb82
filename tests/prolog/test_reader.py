"""Unit tests for the operator-precedence reader."""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog import (
    Atom,
    Struct,
    Var,
    list_elements,
    make_list,
    parse_program,
    parse_term,
)


class TestPrimaries:
    def test_atom(self):
        assert parse_term("foo") == Atom("foo")

    def test_integer(self):
        assert parse_term("42") == 42

    def test_negative_integer(self):
        assert parse_term("-7") == -7

    def test_variable(self):
        assert parse_term("X") == Var("X")

    def test_anonymous_variables_are_distinct(self):
        term = parse_term("f(_, _)")
        assert isinstance(term, Struct)
        assert term.args[0] != term.args[1]

    def test_compound(self):
        assert parse_term("f(a, X)") == Struct("f", (Atom("a"), Var("X")))

    def test_nested_compound(self):
        term = parse_term("f(g(h(1)))")
        assert term == Struct("f", (Struct("g", (Struct("h", (1,)),)),))

    def test_string_becomes_code_list(self):
        assert parse_term('"ab"') == make_list([97, 98])

    def test_curly_braces(self):
        assert parse_term("{a}") == Struct("{}", (Atom("a"),))
        assert parse_term("{}") == Atom("{}")


class TestLists:
    def test_empty_list(self):
        assert parse_term("[]") == Atom("[]")

    def test_proper_list(self):
        assert list_elements(parse_term("[1,2,3]")) == [1, 2, 3]

    def test_list_with_tail(self):
        term = parse_term("[a|T]")
        assert term == Struct(".", (Atom("a"), Var("T")))

    def test_multi_element_tail(self):
        term = parse_term("[a,b|T]")
        assert term == Struct(".", (Atom("a"), Struct(".", (Atom("b"), Var("T")))))

    def test_nested_lists(self):
        assert list_elements(parse_term("[[1],[2,3]]"))[0] == make_list([1])


class TestOperators:
    def test_infix_priority(self):
        # 1 + 2 * 3 parses as 1 + (2 * 3)
        term = parse_term("1 + 2 * 3")
        assert term == Struct("+", (1, Struct("*", (2, 3))))

    def test_left_associativity(self):
        # 1 - 2 - 3 parses as (1 - 2) - 3
        term = parse_term("1 - 2 - 3")
        assert term == Struct("-", (Struct("-", (1, 2)), 3))

    def test_right_associativity_of_comma(self):
        term = parse_term("(a, b, c)")
        assert term == Struct(",", (Atom("a"), Struct(",", (Atom("b"), Atom("c")))))

    def test_clause_operator(self):
        term = parse_term("h :- b")
        assert term == Struct(":-", (Atom("h"), Atom("b")))

    def test_xfx_does_not_chain(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("a = b = c.")

    def test_prefix_minus_on_expression(self):
        term = parse_term("X is -Y")
        assert term == Struct("is", (Var("X"), Struct("-", (Var("Y"),))))

    def test_parenthesised_operator_atom(self):
        term = parse_term("f(a + b)")
        assert term == Struct("f", (Struct("+", (Atom("a"), Atom("b"))),))

    def test_comma_separates_args_not_operator(self):
        term = parse_term("f(a, b)")
        assert isinstance(term, Struct)
        assert term.arity == 2

    def test_if_then_else(self):
        term = parse_term("(C -> T ; E)")
        assert term == Struct(";", (Struct("->", (Var("C"), Var("T"))), Var("E")))

    def test_negation_operator(self):
        assert parse_term("\\+ a") == Struct("\\+", (Atom("a"),))

    def test_univ(self):
        assert parse_term("X =.. L") == Struct("=..", (Var("X"), Var("L")))

    def test_comparison_chain_in_conjunction(self):
        term = parse_term("(X < 3, Y > 4)")
        assert term == Struct(",", (Struct("<", (Var("X"), 3)),
                                    Struct(">", (Var("Y"), 4))))


class TestPrograms:
    def test_multiple_clauses(self):
        clauses = parse_program("a. b. c :- a, b.")
        assert len(clauses) == 3

    def test_missing_period_raises(self):
        with pytest.raises(PrologSyntaxError):
            parse_program("a :- b c.")

    def test_empty_program(self):
        assert parse_program("") == []

    def test_comments_between_clauses(self):
        clauses = parse_program("a. % one\n/* two */ b.")
        assert len(clauses) == 2


class TestErrorMessages:
    def test_error_carries_location(self):
        with pytest.raises(PrologSyntaxError) as info:
            parse_program("a :-\n )b.")
        assert "line 2" in str(info.value)

    def test_unbalanced_paren(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("f(a")

    def test_unbalanced_bracket(self):
        with pytest.raises(PrologSyntaxError):
            parse_term("[a, b")

    def test_error_column_is_the_offending_token(self):
        with pytest.raises(PrologSyntaxError) as info:
            parse_program("foo(a,, b).")
        assert (info.value.line, info.value.column) == (1, 7)

    @pytest.mark.parametrize("text", [
        "X = \u00b2.",                                     # not an ASCII digit
        "a :- " + ",".join(["b"] * 600) + ".",             # a long conjunction
        "p(" + "f(" * 2000 + "x" + ")" * 2000 + ").",      # deep arguments
        "p(" + "[" * 2000 + "]" * 2000 + ").",             # deep lists
        "p(" + "- " * 2000 + "x).",                        # deep prefix operators
    ])
    def test_bad_input_raises_syntax_error_with_location(self, text):
        with pytest.raises(PrologSyntaxError) as info:
            parse_program(text)
        assert info.value.line == 1 and info.value.column is not None

    def test_long_conjunction_within_bound_parses(self):
        clause = parse_program("a :- " + ",".join(["b"] * 400) + ".")[0]
        assert clause.functor == ":-"
