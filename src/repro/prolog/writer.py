"""Render source-level terms back to Prolog text.

``term_to_string`` produces canonical-ish output: operators are written
infix using the default table, lists with bracket notation, and atoms
are quoted when necessary.  The reader/writer pair round-trips:
``parse_term(term_to_string(t))`` is structurally equal to ``t`` (up to
anonymous-variable renaming), which the property tests exercise.
"""

from __future__ import annotations

from repro.prolog.reader import ATOM_PRIORITY, INFIX_OPS, MAX_PRIORITY, PREFIX_OPS
from repro.prolog.terms import Atom, Struct, Term, Var, is_cons, is_nil
from repro.prolog.tokens import SYMBOL_CHARS


def term_to_string(term: Term, quoted: bool = True) -> str:
    """Render ``term`` as Prolog text."""
    return _write(term, MAX_PRIORITY, quoted)


def atom_needs_quotes(name: str) -> bool:
    """True when ``name`` must be quoted to read back as one atom."""
    if name == "":
        return True
    if name in ("[]", "{}", "!", ";", ","):
        return name == ","
    if name[0].isalpha() and name[0].islower():
        return not all(ch.isalnum() or ch == "_" for ch in name)
    if all(ch in SYMBOL_CHARS for ch in name):
        return False
    return True


def _quote_atom(name: str) -> str:
    escaped = name.replace("\\", "\\\\").replace("'", "\\'").replace("\n", "\\n")
    return f"'{escaped}'"


def _write_atom(name: str, quoted: bool) -> str:
    if quoted and atom_needs_quotes(name):
        return _quote_atom(name)
    return name


def _write(term: Term, max_priority: int, quoted: bool) -> str:
    if isinstance(term, int):
        return str(term)
    if isinstance(term, Var):
        return term.name if not term.is_anonymous else "_"
    if isinstance(term, Atom):
        text = _write_atom(term.name, quoted)
        # A bare operator atom in argument position must be parenthesised.
        if ATOM_PRIORITY.get(term.name, 0) > max_priority:
            return f"({text})"
        return text
    assert isinstance(term, Struct)
    if is_cons(term):
        return _write_list(term, quoted)
    if term.functor == "{}" and term.arity == 1:
        return "{" + _write(term.args[0], MAX_PRIORITY, quoted) + "}"
    if term.arity == 2 and (op := INFIX_OPS.get(term.functor)) is not None:
        priority, left_max, right_max = op
        left = _write(term.args[0], left_max, quoted)
        right = _write(term.args[1], right_max, quoted)
        name = term.functor
        text = f"{left},{right}" if name == "," else f"{left} {name} {right}"
        if priority > max_priority:
            return f"({text})"
        return text
    if term.arity == 1 and (op := PREFIX_OPS.get(term.functor)) is not None:
        priority, right_max = op
        # '-'/'+' applied to a literal integer would read back as a signed
        # number, so use functional notation for those.
        if term.functor in ("-", "+") and isinstance(term.args[0], int):
            return f"{term.functor}({term.args[0]})"
        operand = _write(term.args[0], right_max, quoted)
        symbolic = all(c in SYMBOL_CHARS for c in term.functor)
        needs_space = (not symbolic) or (operand[:1] in SYMBOL_CHARS) or operand[:1].isdigit()
        space = " " if needs_space else ""
        text = f"{term.functor}{space}{operand}"
        if priority > max_priority:
            return f"({text})"
        return text
    args = ",".join(_write(arg, 999, quoted) for arg in term.args)
    return f"{_write_atom(term.functor, quoted)}({args})"


def _write_list(term: Term, quoted: bool) -> str:
    parts: list[str] = []
    while is_cons(term):
        assert isinstance(term, Struct)
        parts.append(_write(term.args[0], 999, quoted))
        term = term.args[1]
    if is_nil(term):
        return "[" + ",".join(parts) + "]"
    return "[" + ",".join(parts) + "|" + _write(term, 999, quoted) + "]"
