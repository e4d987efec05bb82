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


#: Join kinds: how a compound's rendered subterms combine.
_LIST, _LIST_TAIL, _CURLY, _INFIX, _PREFIX, _CALL = range(6)


def _write(term: Term, max_priority: int, quoted: bool) -> str:
    """Render ``term`` over an explicit stack, so any depth writes.

    A compound pushes a join entry, then its subterms; each subterm
    leaves its text on ``out``, and the join replaces the last ``n``
    texts with the compound's own.
    """
    out: list[str] = []
    todo: list[tuple] = [(term, max_priority)]
    while todo:
        term, max_priority = todo.pop()
        if type(term) is tuple:                 # a join entry
            kind, node, n = term
            parts = out[len(out) - n:]
            del out[len(out) - n:]
            out.append(_join(kind, node, parts, max_priority, quoted))
            continue
        if isinstance(term, int):
            out.append(str(term))
            continue
        if isinstance(term, Var):
            out.append(term.name if not term.is_anonymous else "_")
            continue
        if isinstance(term, Atom):
            text = _write_atom(term.name, quoted)
            # A bare operator atom in argument position must be
            # parenthesised.
            if ATOM_PRIORITY.get(term.name, 0) > max_priority:
                text = f"({text})"
            out.append(text)
            continue
        assert isinstance(term, Struct)
        if is_cons(term):
            items = []
            while is_cons(term):
                assert isinstance(term, Struct)
                items.append(term.args[0])
                term = term.args[1]
            if not is_nil(term):
                items.append(term)
            kind = _LIST if is_nil(term) else _LIST_TAIL
            todo.append(((kind, None, len(items)), max_priority))
            todo.extend((item, 999) for item in reversed(items))
            continue
        if term.functor == "{}" and term.arity == 1:
            todo.append(((_CURLY, term, 1), max_priority))
            todo.append((term.args[0], MAX_PRIORITY))
            continue
        if term.arity == 2 and (op := INFIX_OPS.get(term.functor)) is not None:
            _priority, left_max, right_max = op
            todo.append(((_INFIX, term, 2), max_priority))
            todo.append((term.args[1], right_max))
            todo.append((term.args[0], left_max))
            continue
        if term.arity == 1 and (op := PREFIX_OPS.get(term.functor)) is not None:
            # '-'/'+' applied to a literal integer would read back as a
            # signed number, so use functional notation for those.
            if term.functor in ("-", "+") and isinstance(term.args[0], int):
                out.append(f"{term.functor}({term.args[0]})")
                continue
            todo.append(((_PREFIX, term, 1), max_priority))
            todo.append((term.args[0], op[1]))
            continue
        todo.append(((_CALL, term, term.arity), max_priority))
        todo.extend((arg, 999) for arg in reversed(term.args))
    return out[0]


def _join(kind: int, term, parts: list[str], max_priority: int,
          quoted: bool) -> str:
    """The text of compound ``term`` from its subterms' ``parts``."""
    if kind == _LIST:
        return "[" + ",".join(parts) + "]"
    if kind == _LIST_TAIL:
        return "[" + ",".join(parts[:-1]) + "|" + parts[-1] + "]"
    if kind == _CURLY:
        return "{" + parts[0] + "}"
    if kind == _INFIX:
        priority = INFIX_OPS[term.functor][0]
        left, right = parts
        name = term.functor
        text = f"{left},{right}" if name == "," else f"{left} {name} {right}"
    elif kind == _PREFIX:
        priority = PREFIX_OPS[term.functor][0]
        operand = parts[0]
        symbolic = all(c in SYMBOL_CHARS for c in term.functor)
        needs_space = (not symbolic) or (operand[:1] in SYMBOL_CHARS) or operand[:1].isdigit()
        space = " " if needs_space else ""
        text = f"{term.functor}{space}{operand}"
    else:
        return f"{_write_atom(term.functor, quoted)}({','.join(parts)})"
    if priority > max_priority:
        return f"({text})"
    return text
