"""Operator-precedence reader for Prolog source text.

Implements the standard Edinburgh operator-precedence grammar over the
token stream from :mod:`repro.prolog.tokens`.  The operator table
matches DEC-10 Prolog (which both the PSI's KL0 front end and the
baseline compiler accept).

The table is declared once, as :data:`DEFAULT_OPERATORS`, and turned at
import into the per-name lookups the parser and the writer consult:
:data:`INFIX_OPS` and :data:`PREFIX_OPS` (priority and argument
priority limits), :data:`ATOM_PRIORITY` (the priority a bare operator
atom carries) and the names that cannot start a term.  One recursive
method parses a term of bounded priority (primary, then infix
operators); each nesting level of arguments, operands, list elements
and parentheses is one Python frame, and :data:`MAX_DEPTH` bounds them
so that deep input fails as a :class:`~repro.errors.PrologSyntaxError`.

Entry points:

* :func:`parse_term` — one term from a string
* :func:`parse_program` — a whole program: list of clause terms
* :class:`Reader` — clause-by-clause reading of one text
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PrologSyntaxError
from repro.prolog.terms import NIL, Atom, Struct, Term, Var, make_list
from repro.prolog.tokens import (
    ATOM, END, EOF, INT, OPEN_CT, PUNCT, STRING, VAR, Token, tokenize)

MAX_PRIORITY = 1200

#: Deepest nesting the reader accepts, counted in recursion frames: an
#: argument, operand or parenthesised term adds one level, a list
#: element two.  The bound keeps the reader well inside Python's
#: default recursion limit of 1000 frames.
MAX_DEPTH = 500


@dataclass(frozen=True, slots=True)
class Op:
    """One operator definition: priority and type (xfx, xfy, yfx, fy, fx, xf, yf)."""

    priority: int
    type: str


#: The DEC-10 Prolog operator table (the subset our workloads use).
DEFAULT_OPERATORS: dict[str, list[Op]] = {}


def _add_op(priority: int, op_type: str, *names: str) -> None:
    for name in names:
        DEFAULT_OPERATORS.setdefault(name, []).append(Op(priority, op_type))


_add_op(1200, "xfx", ":-", "-->")
_add_op(1200, "fx", ":-", "?-")
_add_op(1100, "xfy", ";")
_add_op(1050, "xfy", "->")
_add_op(1000, "xfy", ",")
_add_op(900, "fy", "\\+")
_add_op(700, "xfx", "=", "\\=", "==", "\\==", "@<", "@>", "@=<", "@>=",
        "=..", "is", "=:=", "=\\=", "<", ">", "=<", ">=")
_add_op(500, "yfx", "+", "-", "/\\", "\\/", "xor")
_add_op(400, "yfx", "*", "/", "//", "mod", "rem", "<<", ">>")
_add_op(200, "xfx", "**")
_add_op(200, "xfy", "^")
_add_op(200, "fy", "-", "+", "\\")


def _operator_tables(operators: dict[str, list[Op]]) -> tuple[dict, dict, dict]:
    """The per-name lookups of one operator table.  A name's first infix
    and first prefix definition count (DEC-10 declares at most one of each)."""
    infix: dict[str, tuple[int, int, int]] = {}
    prefix: dict[str, tuple[int, int]] = {}
    atom_priority: dict[str, int] = {}
    for name, ops in operators.items():
        for op in ops:
            left_max = op.priority - (op.type in ("xfx", "xfy", "xf"))
            right_max = op.priority - (op.type in ("xfx", "yfx", "fx"))
            if op.type in ("xfx", "xfy", "yfx"):
                infix.setdefault(name, (op.priority, left_max, right_max))
            elif op.type in ("fy", "fx"):
                prefix.setdefault(name, (op.priority, right_max))
        atom_priority[name] = min(op.priority for op in ops)
    return infix, prefix, atom_priority


#: Built once, at import: ``INFIX_OPS`` maps a name to (priority, left
#: argument max, right argument max), ``PREFIX_OPS`` to (priority,
#: argument max), ``ATOM_PRIORITY`` to the priority the name carries as
#: a bare atom (its lowest operator priority).
INFIX_OPS, PREFIX_OPS, ATOM_PRIORITY = _operator_tables(DEFAULT_OPERATORS)

#: Operator names with no prefix definition: as atoms they cannot start
#: a term unless parenthesised.
_NO_TERM_START = frozenset(DEFAULT_OPERATORS) - frozenset(PREFIX_OPS)
#: Punctuation that acts as an infix operator: ',' is the conjunction,
#: '|' acts as ';' at 1100.
_PUNCT_OPS = {",": ",", "|": ";"}
_TERM_START_KINDS = frozenset({INT, VAR, STRING, OPEN_CT})


class Reader:
    """Parses the clause-terminated terms of one source text."""

    def __init__(self, text: str):
        self._tokens = tokenize(text)
        self._index = 0
        self._anon_counter = 0

    # -- public API --------------------------------------------------------

    def read_term(self) -> Term | None:
        """Read the next clause-terminated term, or None at end of input."""
        if self._tokens[self._index].kind is EOF:
            return None
        term = self._parse(MAX_PRIORITY, 1)
        token = self._next()
        if token.kind is not END:
            raise _error(token, "operator expected or missing '.'")
        return term

    def read_all(self) -> list[Term]:
        terms = []
        while (term := self.read_term()) is not None:
            terms.append(term)
        return terms

    # -- operator-precedence parser -----------------------------------------

    def _next(self) -> Token:
        token = self._tokens[self._index]
        if token.kind is not EOF:
            self._index += 1
        return token

    def _parse(self, max_priority: int, depth: int) -> Term:
        """One term of priority at most ``max_priority``, ``depth`` levels deep."""
        tokens = self._tokens
        token = tokens[self._index]
        if depth > MAX_DEPTH:
            raise _error(token, "term nested too deeply")
        kind = token.kind
        self._index += 1
        depth += 1

        # -- primary ---------------------------------------------------------
        priority = 0
        if kind is OPEN_CT:
            args = [self._parse(999, depth)]
            while True:
                close = self._next()
                if close.kind is PUNCT and close.text == ",":
                    args.append(self._parse(999, depth))
                elif close.kind is PUNCT and close.text == ")":
                    break
                else:
                    raise _error(close, "',' or ')' expected in argument list")
            left = Struct(token.value, tuple(args))
        elif kind is ATOM:
            name = token.text
            following = tokens[self._index]
            op = PREFIX_OPS.get(name)
            if name == "-" and following.kind is INT:
                # Negative number literal: '-' immediately before an integer.
                self._index += 1
                left = -following.value
            elif op is not None and op[0] <= max_priority and _can_start_term(following):
                left = Struct(name, (self._parse(op[1], depth),))
                priority = op[0]
            else:
                # A bare atom; if it is also an operator it carries its priority.
                left = Atom(name)
                priority = ATOM_PRIORITY.get(name, 0)
        elif kind is VAR:
            left = self._make_var(token.text)
        elif kind is INT:
            left = token.value
        elif kind is PUNCT and token.text == "(":
            left = self._parse(MAX_PRIORITY, depth)
            self._expect_punct(")")
        elif kind is PUNCT and token.text == "[":
            left = self._parse_list(depth)
        elif kind is PUNCT and token.text == "{":
            following = tokens[self._index]
            if following.kind is PUNCT and following.text == "}":
                self._index += 1
                left = Atom("{}")
            else:
                left = Struct("{}", (self._parse(MAX_PRIORITY, depth),))
                self._expect_punct("}")
        elif kind is STRING:
            left = make_list([ord(ch) for ch in token.value])
        elif kind is PUNCT:
            raise _error(token, "unexpected punctuation")
        else:
            raise _error(token, "term expected")

        # -- infix operators -------------------------------------------------
        while True:
            token = tokens[self._index]
            if token.kind is ATOM:
                name = token.text
            elif token.kind is PUNCT:
                name = _PUNCT_OPS.get(token.text)
            else:
                return left
            op = INFIX_OPS.get(name)
            if op is None or op[0] > max_priority or priority > op[1]:
                return left
            self._index += 1
            left = Struct(name, (left, self._parse(op[2], depth)))
            priority = op[0]

    def _parse_list(self, depth: int) -> Term:
        """The rest of a list after its '[' (arguments parse at 999, so ','
        separates elements)."""
        token = self._tokens[self._index]
        if token.kind is PUNCT and token.text == "]":
            self._index += 1
            return NIL
        depth += 1          # this method's own frame
        items = [self._parse(999, depth)]
        tail: Term = NIL
        while True:
            token = self._next()
            if token.kind is PUNCT and token.text == ",":
                items.append(self._parse(999, depth))
            elif token.kind is PUNCT and token.text == "]":
                break
            elif token.kind is PUNCT and token.text == "|":
                tail = self._parse(999, depth)
                self._expect_punct("]")
                break
            else:
                raise _error(token, "',', '|' or ']' expected in list")
        return make_list(items, tail)

    def _expect_punct(self, text: str) -> None:
        token = self._next()
        if token.kind is not PUNCT or token.text != text:
            raise _error(token, f"{text!r} expected")

    def _make_var(self, name: str) -> Var:
        if name == "_":
            self._anon_counter += 1
            return Var(f"_G${self._anon_counter}")
        return Var(name)


def _can_start_term(token: Token) -> bool:
    kind = token.kind
    if kind is ATOM:
        # An atom that is exclusively an infix operator cannot start a term
        # unless parenthesised.
        return token.text not in _NO_TERM_START
    if kind is PUNCT:
        return token.text in ("(", "[", "{")
    return kind in _TERM_START_KINDS


def _error(token: Token, message: str) -> PrologSyntaxError:
    return PrologSyntaxError(f"{message} (found {token.text!r})", token.line, token.column)


def parse_term(text: str) -> Term:
    """Parse a single term from ``text`` (trailing '.' optional)."""
    if not text.rstrip().endswith("."):
        text = text + " ."
    reader = Reader(text)
    term = reader.read_term()
    if term is None:
        raise PrologSyntaxError("empty input")
    return term


def parse_program(text: str) -> list[Term]:
    """Parse all clause terms in ``text``."""
    return Reader(text).read_all()
