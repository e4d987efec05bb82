"""Unit tests for the Prolog tokenizer."""

import pytest

from repro.errors import PrologSyntaxError
from repro.prolog.tokens import Token, TokenKind, tokenize


def kinds(text):
    return [t.kind for t in tokenize(text)]


def texts(text):
    return [t.text for t in tokenize(text)][:-1]  # drop EOF


class TestBasicTokens:
    def test_empty_input_gives_eof(self):
        tokens = tokenize("")
        assert len(tokens) == 1
        assert tokens[0].kind is TokenKind.EOF

    def test_lowercase_identifier_is_atom(self):
        token = tokenize("hello")[0]
        assert token.kind is TokenKind.ATOM
        assert token.value == "hello"

    def test_uppercase_identifier_is_var(self):
        assert tokenize("Hello")[0].kind is TokenKind.VAR

    def test_underscore_is_var(self):
        assert tokenize("_")[0].kind is TokenKind.VAR
        assert tokenize("_foo")[0].kind is TokenKind.VAR

    def test_integer(self):
        token = tokenize("42")[0]
        assert token.kind is TokenKind.INT
        assert token.value == 42

    def test_character_code(self):
        assert tokenize("0'a")[0].value == ord("a")
        assert tokenize("0' ")[0].value == ord(" ")
        assert tokenize(r"0'\n")[0].value == 10

    def test_atom_followed_by_paren_is_open_ct(self):
        token = tokenize("foo(")[0]
        assert token.kind is TokenKind.OPEN_CT
        assert token.value == "foo"

    def test_atom_space_paren_is_not_open_ct(self):
        tokens = tokenize("foo (")
        assert tokens[0].kind is TokenKind.ATOM
        assert tokens[1].kind is TokenKind.PUNCT

    def test_symbolic_atoms(self):
        for symbol in [":-", "=..", "=:=", "\\+", "->", "@<", ">="]:
            token = tokenize(symbol + " ")[0]
            assert token.kind is TokenKind.ATOM, symbol
            assert token.value == symbol

    def test_solo_atoms(self):
        assert tokenize("!")[0].kind is TokenKind.ATOM
        assert tokenize(";")[0].kind is TokenKind.ATOM

    def test_punct(self):
        assert texts("( ) [ ] { } , |") == list("()[]{},|")


class TestQuotedAtoms:
    def test_simple(self):
        token = tokenize("'hello world'")[0]
        assert token.kind is TokenKind.ATOM
        assert token.value == "hello world"

    def test_doubled_quote_escape(self):
        assert tokenize("'it''s'")[0].value == "it's"

    def test_backslash_escape(self):
        assert tokenize(r"'a\nb'")[0].value == "a\nb"

    def test_quoted_functor(self):
        token = tokenize("'my functor'(")[0]
        assert token.kind is TokenKind.OPEN_CT
        assert token.value == "my functor"

    def test_unterminated_raises(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("'oops")


class TestStringsAndComments:
    def test_string_token(self):
        token = tokenize('"abc"')[0]
        assert token.kind is TokenKind.STRING
        assert token.value == "abc"

    def test_line_comment_skipped(self):
        assert kinds("a % comment\nb")[:2] == [TokenKind.ATOM, TokenKind.ATOM]

    def test_block_comment_skipped(self):
        assert texts("a /* hi */ b") == ["a", "b"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("a /* oops")


class TestClauseEnd:
    def test_period_before_whitespace_is_end(self):
        tokens = tokenize("a.")
        assert tokens[1].kind is TokenKind.END

    def test_period_before_newline_is_end(self):
        assert tokenize("a.\n")[1].kind is TokenKind.END

    def test_symbolic_run_containing_period_is_atom(self):
        assert tokenize("=..")[0].value == "=.."

    def test_line_and_column_tracking(self):
        tokens = tokenize("a\n  b")
        assert tokens[0].line == 1
        assert tokens[1].line == 2
        assert tokens[1].column == 3

    def test_solo_and_punct_tokens_carry_their_own_column(self):
        assert [t.column for t in tokenize("a,b")] == [1, 2, 3, 4]
        tokens = tokenize("[H|T] :- !;\n  x, y.")
        assert [(t.text, t.line, t.column) for t in tokens] == [
            ("[", 1, 1), ("H", 1, 2), ("|", 1, 3), ("T", 1, 4), ("]", 1, 5),
            (":-", 1, 7), ("!", 1, 10), (";", 1, 11),
            ("x", 2, 3), (",", 2, 4), ("y", 2, 6), (".", 2, 7), ("", 2, 8)]

    def test_columns_after_multiline_tokens(self):
        tokens = tokenize("'a\nb' c /* x\n y */ d\n\"s\" e")
        assert [(t.text, t.line, t.column) for t in tokens][1:] == [
            ("c", 2, 4), ("d", 3, 7), ("s", 4, 1), ("e", 4, 5), ("", 4, 6)]


class TestErrorCases:
    def test_unexpected_character(self):
        with pytest.raises(PrologSyntaxError):
            tokenize("\x01")

    def test_unknown_escape(self):
        with pytest.raises(PrologSyntaxError):
            tokenize(r"'\q'")

    @pytest.mark.parametrize("text, line, column", [
        ("X = \u00b2.", 1, 5),             # a digit, but not ASCII [0-9]
        ("a.\n  '\\q'", 2, 3),
        ("a /* oops", 1, 3),
        ("p(0'", 1, 3),
        ('x = "abc', 1, 5),
    ])
    def test_errors_carry_line_and_column(self, text, line, column):
        with pytest.raises(PrologSyntaxError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (line, column)
