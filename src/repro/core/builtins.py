"""Builtin (microcoded) predicates of the KL0 machine.

Each builtin is a Python function over dereferenced argument words plus
a *weight*: the number of extra ``built.step`` microinstructions its
microcode body is charged beyond the structured work it performs
through the machine helpers (dereference, unify, memory access), which
bill themselves.  The paper's Table 2 'built' column and the builtin
call-rate observations ("82% for window") are reproduced through these
charges plus workload behaviour.

The set covers what the bundled workloads and a reasonable KL0 user
need: unification and comparison, type tests, arithmetic, term
construction/inspection, list length, the KL0 heap-vector operations
(rewritable structures in the heap area — the WINDOW program's data),
simple output, meta-call, and the side-effect counters used for
failure-driven all-solutions loops (the DEC-10-era idiom).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core import micro
from repro.core.memory import AREA_SHIFT, Area, OFFSET_MASK, encode_address
from repro.core.micro import Module
from repro.core.words import Tag
from repro.engine.builtins_spec import ARITH_BINARY, ARITH_UNARY
from repro.errors import EvaluationError, InstantiationError, TypeError_
from repro.prolog.terms import Atom, Struct
from repro.prolog.writer import term_to_string

_REF = Tag.REF
_UNDEF = Tag.UNDEF


@dataclass(frozen=True)
class Builtin:
    """Descriptor for one builtin predicate."""

    name: str
    arity: int
    fn: Callable
    weight: int = 2

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.name, self.arity)


BUILTIN_TABLE: dict[tuple[str, int], Builtin] = {}


def _register(name: str, arity: int, weight: int = 2):
    def decorator(fn):
        BUILTIN_TABLE[(name, arity)] = Builtin(name, arity, fn, weight)
        return fn
    return decorator


# ---------------------------------------------------------------------------
# Arithmetic evaluation
# ---------------------------------------------------------------------------
# The operator tables and division semantics are shared with the DEC
# baseline through repro.engine.builtins_spec so the engines cannot
# drift numerically; only the traversal *driver* below is KL0's (it
# bills R_ARITH_DISPATCH / R_ARITH_OP microinstructions).

_ARITH_BINARY = ARITH_BINARY
_ARITH_UNARY = ARITH_UNARY


def eval_arith(m, word) -> int:
    """Evaluate an arithmetic expression term to an integer."""
    stats = m.stats
    word = m.deref(word)
    stats.emit(micro.R_ARITH_DISPATCH)
    tag = word[0]
    if tag == Tag.INT:
        return word[1]
    if tag == _UNDEF:
        raise InstantiationError("unbound variable in arithmetic expression")
    if tag == Tag.STRUCT:
        functor_word = m._read_cell(word[1])
        name, arity = m.symbols.functor_name(functor_word[1])
        if arity == 2 and name in _ARITH_BINARY:
            a = eval_arith(m, m._read_cell(word[1] + 1))
            b = eval_arith(m, m._read_cell(word[1] + 2))
            stats.emit(micro.R_ARITH_OP)
            return _ARITH_BINARY[name](a, b)
        if arity == 1 and name in _ARITH_UNARY:
            a = eval_arith(m, m._read_cell(word[1] + 1))
            stats.emit(micro.R_ARITH_OP)
            return _ARITH_UNARY[name](a)
        raise TypeError_("evaluable functor", f"{name}/{arity}")
    if tag == Tag.ATOM:
        raise TypeError_("evaluable term", m.symbols.atom_name(word[1]))
    raise TypeError_("evaluable term", word)


# ---------------------------------------------------------------------------
# Control / unification
# ---------------------------------------------------------------------------


@_register("true", 0, weight=1)
def bi_true(m, args) -> bool:
    return True


@_register("fail", 0, weight=1)
def bi_fail(m, args) -> bool:
    return False


@_register("false", 0, weight=1)
def bi_false(m, args) -> bool:
    return False


@_register("=", 2, weight=1)
def bi_unify(m, args) -> bool:
    m.stats.module = Module.UNIFY
    result = m.unify(args[0], args[1])
    m.stats.module = Module.BUILT
    return result


@_register("\\=", 2, weight=2)
def bi_not_unify(m, args) -> bool:
    # Trial unification undone via an explicit trail mark: KL0 runs this
    # microcoded with its own save/restore, modelled the same way.
    mark = len(m.trail)
    global_top = m.mem.top(Area.GLOBAL)
    m.stats.module = Module.UNIFY
    result = m.unify(args[0], args[1])
    m.stats.module = Module.BUILT
    m._untrail_to(mark)
    m.stats.module = Module.BUILT
    if m.mem.top(Area.GLOBAL) > global_top and not m.cp_stack:
        m.mem.settop(Area.GLOBAL, global_top)
    return not result


@_register("call", 1, weight=3)
def bi_call(m, args):
    word = m.deref(args[0])
    tag = word[0]
    if tag == Tag.ATOM:
        name = m.symbols.atom_name(word[1])
        if (name, 0) in BUILTIN_TABLE:
            return BUILTIN_TABLE[(name, 0)].fn(m, [])
        return ("call", name, 0, [])
    if tag == Tag.STRUCT:
        functor_word = m._read_cell(word[1])
        name, arity = m.symbols.functor_name(functor_word[1])
        call_args = [m._read_cell(word[1] + 1 + i) for i in range(arity)]
        call_args = [a if a[0] != _UNDEF else (_REF, a[1]) for a in call_args]
        if (name, arity) in BUILTIN_TABLE:
            return BUILTIN_TABLE[(name, arity)].fn(m, call_args)
        return ("call", name, arity, call_args)
    if tag == _UNDEF:
        raise InstantiationError("call/1 of an unbound variable")
    raise TypeError_("callable term", word)


# ---------------------------------------------------------------------------
# Type tests
# ---------------------------------------------------------------------------


def _type_test(m, args, predicate) -> bool:
    word = m.deref(args[0])
    m.stats.emit(micro.R_TYPE_TEST)
    return predicate(word[0])


@_register("var", 1, weight=1)
def bi_var(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag == _UNDEF)


@_register("nonvar", 1, weight=1)
def bi_nonvar(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag != _UNDEF)


@_register("atom", 1, weight=1)
def bi_atom(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag in (Tag.ATOM, Tag.NIL))


@_register("integer", 1, weight=1)
def bi_integer(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag == Tag.INT)


@_register("atomic", 1, weight=1)
def bi_atomic(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag in (Tag.ATOM, Tag.NIL, Tag.INT))


@_register("compound", 1, weight=1)
def bi_compound(m, args) -> bool:
    return _type_test(m, args, lambda tag: tag in (Tag.LIST, Tag.STRUCT))


@_register("is_list", 1, weight=2)
def bi_is_list(m, args) -> bool:
    word = m.deref(args[0])
    guard = 0
    while word[0] == Tag.LIST:
        m.stats.emit(micro.R_TYPE_TEST)
        word = m.deref(m._read_cell(word[1] + 1))
        guard += 1
        if guard > 10_000_000:
            raise EvaluationError("runaway list in is_list/1")
    return word[0] == Tag.NIL


# ---------------------------------------------------------------------------
# Arithmetic predicates
# ---------------------------------------------------------------------------


@_register("is", 2, weight=2)
def bi_is(m, args) -> bool:
    value = eval_arith(m, args[1])
    m.stats.module = Module.UNIFY
    result = m.unify(args[0], (Tag.INT, value))
    m.stats.module = Module.BUILT
    return result


def _arith_compare(m, args, op) -> bool:
    a = eval_arith(m, args[0])
    b = eval_arith(m, args[1])
    m.stats.emit(micro.R_COMPARE)
    return op(a, b)


@_register("=:=", 2, weight=3)
def bi_arith_eq(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a == b)


@_register("=\\=", 2, weight=3)
def bi_arith_ne(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a != b)


@_register("<", 2, weight=3)
def bi_lt(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a < b)


@_register(">", 2, weight=3)
def bi_gt(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a > b)


@_register("=<", 2, weight=3)
def bi_le(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a <= b)


@_register(">=", 2, weight=3)
def bi_ge(m, args) -> bool:
    return _arith_compare(m, args, lambda a, b: a >= b)


# ---------------------------------------------------------------------------
# Structural comparison (standard order)
# ---------------------------------------------------------------------------


def _compare_words(m, w1, w2) -> int:
    """Standard order comparison: Var < Int < Atom < Compound.

    Walks depth first, left to right, with an explicit stack of argument
    pairs, so any depth or list length compares.  Each node derefs both
    sides and bills one ``R_COMPARE``; a compound's argument cells are
    read before its first argument is compared.  A pair of compounds met
    again inside itself (cyclic terms) compares equal there instead of
    looping.
    """
    emit = m.stats.emit
    stack = []              # (pair, argument pairs left, last first)
    open_pairs = set()
    while True:
        a = m.deref(w1)
        b = m.deref(w2)
        emit(micro.R_COMPARE)
        order_a = _order_class(a[0])
        order_b = _order_class(b[0])
        if order_a != order_b:
            return -1 if order_a < order_b else 1
        if order_a < 2:     # variables by cell address, integers by value
            result = (a[1] > b[1]) - (a[1] < b[1])
        elif order_a == 2:  # atoms, [] sorting as the atom '[]'
            name_a = "[]" if a[0] == Tag.NIL else m.symbols.atom_name(a[1])
            name_b = "[]" if b[0] == Tag.NIL else m.symbols.atom_name(b[1])
            result = (name_a > name_b) - (name_a < name_b)
        else:               # compounds: arity, then name, then args
            name_a, arity_a, args_a = _compound_parts(m, a)
            name_b, arity_b, args_b = _compound_parts(m, b)
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
        w1, w2 = stack[-1][1].pop()


def _order_class(tag) -> int:
    if tag == _UNDEF:
        return 0
    if tag == Tag.INT:
        return 1
    if tag in (Tag.ATOM, Tag.NIL):
        return 2
    return 3


def _compound_parts(m, word):
    if word[0] == Tag.LIST:
        return ".", 2, [m._read_cell(word[1]), m._read_cell(word[1] + 1)]
    functor_word = m._read_cell(word[1])
    name, arity = m.symbols.functor_name(functor_word[1])
    return name, arity, [m._read_cell(word[1] + 1 + i) for i in range(arity)]


@_register("==", 2, weight=1)
def bi_struct_eq(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) == 0


@_register("\\==", 2, weight=1)
def bi_struct_ne(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) != 0


@_register("@<", 2, weight=1)
def bi_term_lt(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) < 0


@_register("@>", 2, weight=1)
def bi_term_gt(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) > 0


@_register("@=<", 2, weight=1)
def bi_term_le(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) <= 0


@_register("@>=", 2, weight=1)
def bi_term_ge(m, args) -> bool:
    return _compare_words(m, args[0], args[1]) >= 0


@_register("compare", 3, weight=2)
def bi_compare(m, args) -> bool:
    result = _compare_words(m, args[1], args[2])
    name = "<" if result < 0 else (">" if result > 0 else "=")
    m.stats.module = Module.UNIFY
    ok = m.unify(args[0], (Tag.ATOM, m.symbols.atom(name)))
    m.stats.module = Module.BUILT
    return ok


# ---------------------------------------------------------------------------
# Term construction and inspection
# ---------------------------------------------------------------------------


@_register("functor", 3, weight=5)
def bi_functor(m, args) -> bool:
    word = m.deref(args[0])
    tag = word[0]
    if tag != _UNDEF:
        if tag == Tag.LIST:
            name_word = (Tag.ATOM, m.symbols.atom("."))
            arity = 2
        elif tag == Tag.STRUCT:
            functor_word = m._read_cell(word[1])
            name, arity = m.symbols.functor_name(functor_word[1])
            name_word = (Tag.ATOM, m.symbols.atom(name))
        else:
            name_word = word
            arity = 0
        m.stats.module = Module.UNIFY
        ok = m.unify(args[1], name_word) and m.unify(args[2], (Tag.INT, arity))
        m.stats.module = Module.BUILT
        return ok
    name = m.deref(args[1])
    arity_word = m.deref(args[2])
    if name[0] == _UNDEF or arity_word[0] != Tag.INT:
        raise InstantiationError("functor/3 needs name and arity")
    arity = arity_word[1]
    if arity == 0:
        built = name
    elif name[0] != Tag.ATOM and not (name[0] == Tag.NIL):
        raise TypeError_("atom", name)
    else:
        name_text = "[]" if name[0] == Tag.NIL else m.symbols.atom_name(name[1])
        built = _rebuild_open_struct(m, name_text, arity)
    m.stats.module = Module.UNIFY
    ok = m.unify(args[0], built)
    m.stats.module = Module.BUILT
    return ok


def _rebuild_open_struct(m, name: str, arity: int):
    if name == "." and arity == 2:
        base = m.mem.top(Area.GLOBAL)
        for i in range(2):
            off = m.mem.top(Area.GLOBAL)
            m.mem.write_stack(Area.GLOBAL, (_UNDEF, encode_address(Area.GLOBAL, off)))
        return (Tag.LIST, encode_address(Area.GLOBAL, base))
    functor_id = m.symbols.functor(name, arity)
    base = m.mem.top(Area.GLOBAL)
    m.mem.write_stack(Area.GLOBAL, (Tag.FUNC, functor_id))
    for _ in range(arity):
        off = m.mem.top(Area.GLOBAL)
        m.mem.write_stack(Area.GLOBAL, (_UNDEF, encode_address(Area.GLOBAL, off)))
    return (Tag.STRUCT, encode_address(Area.GLOBAL, base))


@_register("arg", 3, weight=6)
def bi_arg(m, args) -> bool:
    index = m.deref(args[0])
    word = m.deref(args[1])
    if index[0] != Tag.INT:
        raise InstantiationError("arg/3 needs an integer index")
    n = index[1]
    if word[0] == Tag.STRUCT:
        functor_word = m._read_cell(word[1])
        _, arity = m.symbols.functor_name(functor_word[1])
        if not 1 <= n <= arity:
            return False
        element = m._read_cell(word[1] + n)
    elif word[0] == Tag.LIST:
        if not 1 <= n <= 2:
            return False
        element = m._read_cell(word[1] + n - 1)
    else:
        return False
    if element[0] == _UNDEF:
        element = (_REF, element[1])
    m.stats.module = Module.UNIFY
    ok = m.unify(args[2], element)
    m.stats.module = Module.BUILT
    return ok


@_register("=..", 2, weight=10)
def bi_univ(m, args) -> bool:
    word = m.deref(args[0])
    tag = word[0]
    if tag != _UNDEF:
        if tag == Tag.STRUCT:
            functor_word = m._read_cell(word[1])
            name, arity = m.symbols.functor_name(functor_word[1])
            items = [(Tag.ATOM, m.symbols.atom(name))]
            items += [_as_value(m._read_cell(word[1] + 1 + i)) for i in range(arity)]
        elif tag == Tag.LIST:
            items = [(Tag.ATOM, m.symbols.atom("."))]
            items += [_as_value(m._read_cell(word[1])),
                      _as_value(m._read_cell(word[1] + 1))]
        else:
            items = [word]
        list_word = _build_list(m, items)
        m.stats.module = Module.UNIFY
        ok = m.unify(args[1], list_word)
        m.stats.module = Module.BUILT
        return ok
    # Construct a term from the list.
    items = []
    current = m.deref(args[1])
    while current[0] == Tag.LIST:
        items.append(_as_value(m.deref(m._read_cell(current[1]))))
        current = m.deref(m._read_cell(current[1] + 1))
    if current[0] != Tag.NIL or not items:
        raise InstantiationError("=../2 needs a proper, bound list")
    head = items[0]
    rest = items[1:]
    if not rest:
        built = head
    else:
        if head[0] not in (Tag.ATOM, Tag.NIL):
            raise TypeError_("atom", head)
        name = "[]" if head[0] == Tag.NIL else m.symbols.atom_name(head[1])
        if name == "." and len(rest) == 2:
            base = m.mem.top(Area.GLOBAL)
            m.mem.write_stack(Area.GLOBAL, rest[0])
            m.mem.write_stack(Area.GLOBAL, rest[1])
            built = (Tag.LIST, encode_address(Area.GLOBAL, base))
        else:
            functor_id = m.symbols.functor(name, len(rest))
            base = m.mem.top(Area.GLOBAL)
            m.mem.write_stack(Area.GLOBAL, (Tag.FUNC, functor_id))
            for item in rest:
                m.mem.write_stack(Area.GLOBAL, item)
            built = (Tag.STRUCT, encode_address(Area.GLOBAL, base))
    m.stats.module = Module.UNIFY
    ok = m.unify(args[0], built)
    m.stats.module = Module.BUILT
    return ok


def _as_value(word):
    return (_REF, word[1]) if word[0] == _UNDEF else word


def _build_list(m, items):
    result = (Tag.NIL, 0)
    for item in reversed(items):
        base = m.mem.top(Area.GLOBAL)
        m.mem.write_stack(Area.GLOBAL, item)
        m.mem.write_stack(Area.GLOBAL, result)
        result = (Tag.LIST, encode_address(Area.GLOBAL, base))
    return result


@_register("length", 2, weight=2)
def bi_length(m, args) -> bool:
    word = m.deref(args[0])
    if word[0] in (Tag.LIST, Tag.NIL):
        count = 0
        current = word
        while current[0] == Tag.LIST:
            m.stats.emit(micro.R_BUILTIN_STEP)
            count += 1
            current = m.deref(m._read_cell(current[1] + 1))
        if current[0] != Tag.NIL:
            return False
        m.stats.module = Module.UNIFY
        ok = m.unify(args[1], (Tag.INT, count))
        m.stats.module = Module.BUILT
        return ok
    length_word = m.deref(args[1])
    if length_word[0] != Tag.INT or length_word[1] < 0:
        raise InstantiationError("length/2 needs a list or a length")
    cells = []
    for _ in range(length_word[1]):
        cells.append((_REF, m.fresh_global_cell()))
    m.stats.module = Module.UNIFY
    ok = m.unify(args[0], _build_list(m, cells))
    m.stats.module = Module.BUILT
    return ok


# ---------------------------------------------------------------------------
# Heap vectors (KL0 rewritable structures; used by WINDOW)
# ---------------------------------------------------------------------------


@_register("new_vector", 2, weight=6)
def bi_new_vector(m, args) -> bool:
    size_word = m.deref(args[1])
    if size_word[0] != Tag.INT or size_word[1] < 0:
        raise TypeError_("non-negative integer", size_word)
    size = size_word[1]
    base = m.mem.top(Area.HEAP)
    m.mem.write_stack(Area.HEAP, (Tag.VECTHDR, size))
    for _ in range(size):
        m.mem.write_stack(Area.HEAP, (Tag.INT, 0))
    m.stats.module = Module.UNIFY
    ok = m.unify(args[0], (Tag.VECT, encode_address(Area.HEAP, base)))
    m.stats.module = Module.BUILT
    return ok


def _vector_slot(m, vec_word, index_word) -> int:
    vec = m.deref(vec_word)
    index = m.deref(index_word)
    if vec[0] != Tag.VECT:
        raise TypeError_("vector", vec)
    if index[0] != Tag.INT:
        raise TypeError_("integer index", index)
    header = m._read_cell(vec[1])
    m.stats.emit(micro.R_VECTOR_INDEX)
    if not 0 <= index[1] < header[1]:
        raise EvaluationError(f"vector index {index[1]} out of range {header[1]}")
    return vec[1] + 1 + index[1]


@_register("vector_ref", 3, weight=6)
def bi_vector_ref(m, args) -> bool:
    addr = _vector_slot(m, args[0], args[1])
    element = m._read_cell(addr)
    m.stats.module = Module.UNIFY
    ok = m.unify(args[2], _as_value(element))
    m.stats.module = Module.BUILT
    return ok


@_register("vector_set", 3, weight=6)
def bi_vector_set(m, args) -> bool:
    addr = _vector_slot(m, args[0], args[1])
    value = m.deref(args[2])
    m._write_cell(addr, _as_value(value))
    return True


@_register("vector_size", 2, weight=3)
def bi_vector_size(m, args) -> bool:
    vec = m.deref(args[0])
    if vec[0] != Tag.VECT:
        raise TypeError_("vector", vec)
    header = m._read_cell(vec[1])
    m.stats.module = Module.UNIFY
    ok = m.unify(args[1], (Tag.INT, header[1]))
    m.stats.module = Module.BUILT
    return ok


# ---------------------------------------------------------------------------
# Output (collected, not printed) and misc side effects
# ---------------------------------------------------------------------------


@_register("write", 1, weight=2)
def bi_write(m, args) -> bool:
    text = term_to_string(m.decode_word(args[0]), quoted=False)
    m.output.append(text)
    m.stats.emit(micro.R_IO_STEP, 1 + len(text) // 4)
    return True


@_register("print", 1, weight=2)
def bi_print(m, args) -> bool:
    return bi_write(m, args)


@_register("nl", 0, weight=1)
def bi_nl(m, args) -> bool:
    m.output.append("\n")
    m.stats.emit(micro.R_IO_STEP)
    return True


@_register("tab", 1, weight=1)
def bi_tab(m, args) -> bool:
    count = eval_arith(m, args[0])
    m.output.append(" " * max(count, 0))
    m.stats.emit(micro.R_IO_STEP)
    return True


@_register("counter_reset", 1, weight=1)
def bi_counter_reset(m, args) -> bool:
    name = _atom_name(m, args[0])
    m.counters[name] = 0
    m.stats.emit(micro.R_IO_STEP)
    return True


@_register("counter_inc", 1, weight=1)
def bi_counter_inc(m, args) -> bool:
    name = _atom_name(m, args[0])
    m.counters[name] = m.counters.get(name, 0) + 1
    m.stats.emit(micro.R_IO_STEP)
    return True


@_register("counter_value", 2, weight=1)
def bi_counter_value(m, args) -> bool:
    name = _atom_name(m, args[0])
    m.stats.module = Module.UNIFY
    ok = m.unify(args[1], (Tag.INT, m.counters.get(name, 0)))
    m.stats.module = Module.BUILT
    return ok


def _atom_name(m, word) -> str:
    word = m.deref(word)
    if word[0] != Tag.ATOM:
        raise TypeError_("atom", word)
    return m.symbols.atom_name(word[1])


@_register("process_switch", 0, weight=4)
def bi_process_switch(m, args) -> bool:
    """Model an OS process switch (I/O service): the work file control
    state is saved to and restored from a per-process save area in the
    heap, and the frame buffers are invalidated.  WINDOW-2/3 call this;
    it is one cause of their lower cache hit ratios (§4.2)."""
    m.stats.emit(micro.R_PROCESS_SWITCH, 8)
    if m._process_save_base < 0:
        # Eight process contexts of 2K words each: the WF save area plus
        # the incoming process's control state, working data and a slice
        # of its instruction stream — the competing working sets that
        # lower window-2/3's cache hit ratios in the paper.
        m._process_save_base = m.mem.grow(Area.HEAP, 8 * 2048, (Tag.INT, 0))
    switch_count = m.counters.get("$switches", 0)
    m.counters["$switches"] = switch_count + 1
    out_base = m._process_save_base + (switch_count % 8) * 2048
    in_base = m._process_save_base + ((switch_count + 1) % 8) * 2048
    for i in range(512):
        m.mem.write(Area.HEAP, out_base + i, (Tag.INT, i))
    for i in range(1536):
        m.mem.read(Area.HEAP, in_base + i)
    # Flush any buffered frame: its slots must survive in the local stack.
    for frame in list(m.wf._owners):
        if frame is not None:
            for i in range(frame.nlocals):
                m.mem.write_stack_at(Area.LOCAL, frame.base + i,
                                     m.mem.peek(Area.LOCAL, frame.base + i))
            m.wf.release(frame)
    return True


# ---------------------------------------------------------------------------
# Dynamic database (assert/retract)
# ---------------------------------------------------------------------------


@_register("assertz", 1, weight=6)
def bi_assertz(m, args) -> bool:
    """Add a clause to the database at runtime.

    The clause term is decoded from the heap, compiled, and its
    instruction code written into the heap area (billed as write-stack
    traffic — runtime code generation is real memory work on the PSI).
    """
    term = m.decode_word(args[0])
    m.assert_clause(term)
    return True


@_register("assert", 1, weight=6)
def bi_assert(m, args) -> bool:
    return bi_assertz(m, args)


@_register("retract", 1, weight=6)
def bi_retract(m, args) -> bool:
    """Remove the first fact whose head unifies with the argument.

    Only facts (bodyless clauses) can be retracted — the common
    dynamic-database idiom; rule retraction is not supported.
    """
    return m.retract_fact(args[0])


@_register("garbage_collect", 0, weight=2)
def bi_garbage_collect(m, args) -> bool:
    # The PSI had incremental GC support; our runs are sized to never
    # need collection, so this is an accounted no-op.
    m.stats.emit(micro.R_BUILTIN_STEP, 4)
    return True
