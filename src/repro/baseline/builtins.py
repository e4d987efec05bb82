"""Builtin predicates of the DEC-10 baseline.

The same surface predicates the PSI's KL0 offers (minus heap vectors
and process switching, which only the PSI-side OS workload uses), so
that every Table 1 benchmark runs unchanged on both engines.  Costs are
charged through the descriptor weight (units of ``builtin_step``) plus
per-node ``arith_node``/``general_unify_node`` events — DEC-10 Prolog's
fast-code compilation made builtins cheap, which the low weights model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.engine.builtins_spec import (
    ARITH_BINARY,
    ARITH_UNARY,
    apply_arith_op,
    apply_compare,
)
from repro.errors import InstantiationError, TypeError_
from repro.prolog.writer import term_to_string


@dataclass(frozen=True)
class BaselineBuiltin:
    name: str
    arity: int
    fn: Callable
    weight: int = 1

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)


BASELINE_BUILTINS: dict[tuple[str, int], BaselineBuiltin] = {}


def _register(name: str, arity: int, weight: int = 1):
    def decorator(fn):
        BASELINE_BUILTINS[(name, arity)] = BaselineBuiltin(name, arity, fn, weight)
        return fn
    return decorator


# Tags duplicated locally to avoid importing the machine (circular import).
REF = 0
STR = 1
LIS = 2
CON = 3
INT = 4

# Operator tables and division semantics are shared with the KL0 engine
# through repro.engine.builtins_spec; only the traversal driver below is
# the baseline's (it charges one "arith_node" event per expression node).
_ARITH_BINARY = ARITH_BINARY
_ARITH_UNARY = ARITH_UNARY


def apply_arith(name: str, a: int, b: int) -> bool:
    """Apply a fast-code arithmetic comparison."""
    return apply_compare(name, a, b)


def eval_arith(m, cell) -> int:
    cell = m.deref(cell)
    m.stats.event("arith_node")
    tag = cell[0]
    if tag == INT:
        return cell[1]
    if tag == REF:
        raise InstantiationError("unbound variable in arithmetic expression")
    if tag == STR:
        name, arity = m.heap[cell[1]][1]
        if arity == 2 and name in _ARITH_BINARY:
            a = eval_arith(m, m.heap[cell[1] + 1])
            b = eval_arith(m, m.heap[cell[1] + 2])
            return _ARITH_BINARY[name](a, b)
        if arity == 1 and name in _ARITH_UNARY:
            return _ARITH_UNARY[name](eval_arith(m, m.heap[cell[1] + 1]))
        raise TypeError_("evaluable functor", f"{name}/{arity}")
    raise TypeError_("evaluable term", cell)


# -- control -----------------------------------------------------------------


@_register("true", 0)
def bb_true(m, args) -> bool:
    return True


@_register("fail", 0)
def bb_fail(m, args) -> bool:
    return False


@_register("false", 0)
def bb_false(m, args) -> bool:
    return False


@_register("=", 2)
def bb_unify(m, args) -> bool:
    return m.unify(args[0], args[1])


@_register("\\=", 2, weight=2)
def bb_not_unify(m, args) -> bool:
    mark = len(m.trail)
    heap_top = len(m.heap)
    result = m.unify(args[0], args[1])
    while len(m.trail) > mark:
        idx = m.trail.pop()
        m.heap[idx] = (REF, idx)
        m.stats.event("untrail_entry")
    if not m.choices or m.choices[-1].heap_top <= heap_top:
        del m.heap[heap_top:]
    return not result


@_register("call", 1, weight=2)
def bb_call(m, args):
    cell = m.deref(args[0])
    if cell[0] == CON:
        name = cell[1]
        if (name, 0) in BASELINE_BUILTINS:
            return BASELINE_BUILTINS[(name, 0)].fn(m, [])
        return ("call", name, 0, [])
    if cell[0] == STR:
        name, arity = m.heap[cell[1]][1]
        call_args = [m.heap[cell[1] + 1 + i] for i in range(arity)]
        if (name, arity) in BASELINE_BUILTINS:
            return BASELINE_BUILTINS[(name, arity)].fn(m, call_args)
        return ("call", name, arity, call_args)
    if cell[0] == REF:
        raise InstantiationError("call/1 of an unbound variable")
    raise TypeError_("callable term", cell)


# -- type tests -----------------------------------------------------------------


@_register("var", 1)
def bb_var(m, args) -> bool:
    return m.deref(args[0])[0] == REF


@_register("nonvar", 1)
def bb_nonvar(m, args) -> bool:
    return m.deref(args[0])[0] != REF


@_register("atom", 1)
def bb_atom(m, args) -> bool:
    return m.deref(args[0])[0] == CON


@_register("integer", 1)
def bb_integer(m, args) -> bool:
    return m.deref(args[0])[0] == INT


@_register("atomic", 1)
def bb_atomic(m, args) -> bool:
    return m.deref(args[0])[0] in (CON, INT)


@_register("compound", 1)
def bb_compound(m, args) -> bool:
    return m.deref(args[0])[0] in (LIS, STR)


@_register("is_list", 1, weight=2)
def bb_is_list(m, args) -> bool:
    cell = m.deref(args[0])
    while cell[0] == LIS:
        cell = m.deref(m.heap[cell[1] + 1])
    return cell == (CON, "[]")


# -- arithmetic ---------------------------------------------------------------------


@_register("is", 2)
def bb_is(m, args) -> bool:
    value = eval_arith(m, args[1])
    return m.unify(args[0], (INT, value))


def _compare_arith(m, args, op) -> bool:
    return op(eval_arith(m, args[0]), eval_arith(m, args[1]))


@_register("=:=", 2)
def bb_eq(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a == b)


@_register("=\\=", 2)
def bb_ne(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a != b)


@_register("<", 2)
def bb_lt(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a < b)


@_register(">", 2)
def bb_gt(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a > b)


@_register("=<", 2)
def bb_le(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a <= b)


@_register(">=", 2)
def bb_ge(m, args) -> bool:
    return _compare_arith(m, args, lambda a, b: a >= b)


# -- structural comparison ------------------------------------------------------------


def _compare_cells(m, c1, c2) -> int:
    """Standard order comparison, depth first and left to right.

    Walks with an explicit stack of argument pairs, so any depth or
    list length compares; a pair of compounds met again inside itself
    (cyclic terms) compares equal there instead of looping.
    """
    stack = []              # (pair, argument pairs left, last first)
    open_pairs = set()
    while True:
        a = m.deref(c1)
        b = m.deref(c2)
        order_a = _order_class(a[0])
        order_b = _order_class(b[0])
        if order_a != order_b:
            return -1 if order_a < order_b else 1
        if order_a < 3:
            result = (a[1] > b[1]) - (a[1] < b[1])
        else:
            name_a, arity_a, args_a = _parts(m, a)
            name_b, arity_b, args_b = _parts(m, b)
            if arity_a != arity_b:
                return -1 if arity_a < arity_b else 1
            if name_a != name_b:
                return -1 if name_a < name_b else 1
            result = 0
            pair = (a, b)
            if pair not in open_pairs:
                open_pairs.add(pair)
                stack.append((pair, list(zip(reversed(args_a),
                                             reversed(args_b)))))
        if result:
            return result
        while stack and not stack[-1][1]:
            open_pairs.discard(stack.pop()[0])
        if not stack:
            return 0
        c1, c2 = stack[-1][1].pop()


def _order_class(tag) -> int:
    return {REF: 0, INT: 1, CON: 2, LIS: 3, STR: 3}[tag]


def _parts(m, cell):
    if cell[0] == LIS:
        return ".", 2, [m.heap[cell[1]], m.heap[cell[1] + 1]]
    name, arity = m.heap[cell[1]][1]
    return name, arity, [m.heap[cell[1] + 1 + i] for i in range(arity)]


@_register("==", 2)
def bb_struct_eq(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) == 0


@_register("\\==", 2)
def bb_struct_ne(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) != 0


@_register("@<", 2)
def bb_term_lt(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) < 0


@_register("@>", 2)
def bb_term_gt(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) > 0


@_register("@=<", 2)
def bb_term_le(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) <= 0


@_register("@>=", 2)
def bb_term_ge(m, args) -> bool:
    return _compare_cells(m, args[0], args[1]) >= 0


@_register("compare", 3)
def bb_compare(m, args) -> bool:
    result = _compare_cells(m, args[1], args[2])
    name = "<" if result < 0 else (">" if result > 0 else "=")
    return m.unify(args[0], (CON, name))


# -- term construction / inspection ----------------------------------------------------


@_register("functor", 3, weight=2)
def bb_functor(m, args) -> bool:
    cell = m.deref(args[0])
    tag = cell[0]
    if tag != REF:
        if tag == LIS:
            name_cell, arity = (CON, "."), 2
        elif tag == STR:
            name, arity = m.heap[cell[1]][1]
            name_cell = (CON, name)
        else:
            name_cell, arity = cell, 0
        return m.unify(args[1], name_cell) and m.unify(args[2], (INT, arity))
    name = m.deref(args[1])
    arity_cell = m.deref(args[2])
    if name[0] == REF or arity_cell[0] != INT:
        raise InstantiationError("functor/3 needs name and arity")
    arity = arity_cell[1]
    if arity == 0:
        return m.unify(args[0], name)
    if name[0] != CON:
        raise TypeError_("atom", name)
    if name[1] == "." and arity == 2:
        idx = len(m.heap)
        m.new_ref()
        m.new_ref()
        built = (LIS, idx)
    else:
        idx = m.push((5, (name[1], arity)))  # FUN
        for _ in range(arity):
            m.new_ref()
        built = (STR, idx)
    m.stats.event("heap_cell", arity + 1)
    return m.unify(args[0], built)


@_register("arg", 3)
def bb_arg(m, args) -> bool:
    index = m.deref(args[0])
    cell = m.deref(args[1])
    if index[0] != INT:
        raise InstantiationError("arg/3 needs an integer index")
    n = index[1]
    if cell[0] == STR:
        _, arity = m.heap[cell[1]][1]
        if not 1 <= n <= arity:
            return False
        return m.unify(args[2], m.heap[cell[1] + n])
    if cell[0] == LIS:
        if not 1 <= n <= 2:
            return False
        return m.unify(args[2], m.heap[cell[1] + n - 1])
    return False


@_register("=..", 2, weight=3)
def bb_univ(m, args) -> bool:
    cell = m.deref(args[0])
    tag = cell[0]
    if tag != REF:
        if tag == STR:
            name, arity = m.heap[cell[1]][1]
            items = [(CON, name)] + [m.heap[cell[1] + 1 + i] for i in range(arity)]
        elif tag == LIS:
            items = [(CON, "."), m.heap[cell[1]], m.heap[cell[1] + 1]]
        else:
            items = [cell]
        return m.unify(args[1], _make_list(m, items))
    items = []
    current = m.deref(args[1])
    while current[0] == LIS:
        items.append(m.deref(m.heap[current[1]]))
        current = m.deref(m.heap[current[1] + 1])
    if current != (CON, "[]") or not items:
        raise InstantiationError("=../2 needs a proper, bound list")
    head, rest = items[0], items[1:]
    if not rest:
        return m.unify(args[0], head)
    if head[0] != CON:
        raise TypeError_("atom", head)
    if head[1] == "." and len(rest) == 2:
        idx = len(m.heap)
        m.heap.append(rest[0])
        m.heap.append(rest[1])
        built = (LIS, idx)
    else:
        idx = m.push((5, (head[1], len(rest))))
        for item in rest:
            m.heap.append(item)
        built = (STR, idx)
    m.stats.event("heap_cell", len(rest) + 1)
    return m.unify(args[0], built)


def _make_list(m, items):
    result = (CON, "[]")
    for item in reversed(items):
        idx = len(m.heap)
        m.heap.append(item)
        m.heap.append(result)
        result = (LIS, idx)
    m.stats.event("heap_cell", 2 * len(items))
    return result


@_register("length", 2, weight=2)
def bb_length(m, args) -> bool:
    cell = m.deref(args[0])
    if cell[0] in (LIS,) or cell == (CON, "[]"):
        count = 0
        while cell[0] == LIS:
            count += 1
            cell = m.deref(m.heap[cell[1] + 1])
        if cell != (CON, "[]"):
            return False
        return m.unify(args[1], (INT, count))
    n = m.deref(args[1])
    if n[0] != INT or n[1] < 0:
        raise InstantiationError("length/2 needs a list or a length")
    cells = [(REF, m.new_ref()) for _ in range(n[1])]
    return m.unify(args[0], _make_list(m, cells))


# -- output & counters -------------------------------------------------------------------


@_register("write", 1, weight=2)
def bb_write(m, args) -> bool:
    m.output.append(term_to_string(m.decode_cell(args[0]), quoted=False))
    return True


@_register("print", 1, weight=2)
def bb_print(m, args) -> bool:
    return bb_write(m, args)


@_register("nl", 0)
def bb_nl(m, args) -> bool:
    m.output.append("\n")
    return True


@_register("tab", 1)
def bb_tab(m, args) -> bool:
    m.output.append(" " * max(eval_arith(m, args[0]), 0))
    return True


@_register("counter_reset", 1)
def bb_counter_reset(m, args) -> bool:
    m.counters[_atom(m, args[0])] = 0
    return True


@_register("counter_inc", 1)
def bb_counter_inc(m, args) -> bool:
    name = _atom(m, args[0])
    m.counters[name] = m.counters.get(name, 0) + 1
    return True


@_register("counter_value", 2)
def bb_counter_value(m, args) -> bool:
    return m.unify(args[1], (INT, m.counters.get(_atom(m, args[0]), 0)))


def _atom(m, cell) -> str:
    cell = m.deref(cell)
    if cell[0] != CON:
        raise TypeError_("atom", cell)
    return cell[1]


@_register("assertz", 1, weight=4)
def bb_assertz(m, args) -> bool:
    m.add_clause_term(m.decode_cell(args[0]))
    return True


@_register("assert", 1, weight=4)
def bb_assert(m, args) -> bool:
    return bb_assertz(m, args)


@_register("retract", 1, weight=4)
def bb_retract(m, args) -> bool:
    return m.retract_fact(args[0])


@_register("garbage_collect", 0)
def bb_gc(m, args) -> bool:
    return True
