"""KL0 instruction code: compiled clause representation and loader.

The PSI keeps "machine-resident expressions of KL0 programs
(instruction code)" in the heap area; the microprogrammed interpreter
walks that code.  This module compiles source clauses (term ASTs from
:mod:`repro.prolog`) into

* :class:`CTerm` trees — one node per code word, each carrying the heap
  address the node was serialised to, so the interpreter's walk
  produces genuine heap-area instruction fetches (the dominant heap
  traffic in the paper's Table 4);
* :class:`Clause`/:class:`Procedure` objects with the variable
  classification the execution model needs (local vs global vs void,
  first occurrences, unsafe variables globalised).

Control constructs (``;``, ``->``, ``\\+``) are expanded into auxiliary
predicates at load time, so the engine core only ever sees plain
conjunctions, cut, user calls and builtins.  A cut inside a
disjunction is local to the construct (as in ISO ``\\+``), which every
bundled workload respects.

Argument packing: the paper notes "up to four 8-bit arguments are
packed into one word in order to reduce memory consumption".  The
serialiser packs runs of small integer constants (0..255) four to a
word; the interpreter decodes them with the ``case (irn)`` multi-way
branch, which is how those branches show up in Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.engine.frontend import (
    GOAL_BUILTIN,
    GOAL_CUT,
    VOID_SLOT,
    Frontend,
    NormalizedClause,
    NormalizedGoal,
    VarInfo,
)
from repro.prolog.terms import Atom, Struct, Term, Var
from repro.core.memory import Area, encode_address
from repro.core.words import NIL_WORD, SymbolTable, Tag, Word

# ---------------------------------------------------------------------------
# Code term nodes
# ---------------------------------------------------------------------------


class CTerm:
    """Base class for instruction-code term nodes."""

    __slots__ = ("addr", "packed")

    def __init__(self) -> None:
        self.addr = -1       # heap offset, assigned by the serialiser
        self.packed = False  # True when sharing a packed-argument word


class CConst(CTerm):
    """A constant: atom, integer or nil, as a ready-made word."""

    __slots__ = ("word",)

    def __init__(self, word: Word):
        super().__init__()
        self.word = word

    def __repr__(self) -> str:
        return f"CConst({self.word})"


class CVar(CTerm):
    """A clause variable occurrence."""

    __slots__ = ("name", "slot", "is_global", "is_first")

    def __init__(self, name: str, slot: int, is_global: bool, is_first: bool):
        super().__init__()
        self.name = name
        self.slot = slot
        self.is_global = is_global
        self.is_first = is_first

    def __repr__(self) -> str:
        kind = "G" if self.is_global else "L"
        first = "'" if self.is_first else ""
        return f"CVar({self.name}:{kind}{self.slot}{first})"


class CVoid(CTerm):
    """A variable occurring exactly once in its clause."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "CVoid()"


class CList(CTerm):
    """A list cell in code: ``[Head|Tail]``."""

    __slots__ = ("head", "tail")

    def __init__(self, head: CTerm, tail: CTerm):
        super().__init__()
        self.head = head
        self.tail = tail

    def __repr__(self) -> str:
        return f"CList({self.head!r}, {self.tail!r})"


class CStruct(CTerm):
    """A compound term in code."""

    __slots__ = ("functor_id", "name", "args")

    def __init__(self, functor_id: int, name: str, args: tuple[CTerm, ...]):
        super().__init__()
        self.functor_id = functor_id
        self.name = name
        self.args = args

    @property
    def arity(self) -> int:
        return len(self.args)

    def __repr__(self) -> str:
        return f"CStruct({self.name}/{len(self.args)})"


# ---------------------------------------------------------------------------
# Goals
# ---------------------------------------------------------------------------


class Goal:
    """Base class for compiled body goals."""

    __slots__ = ("args", "addr", "is_last")

    def __init__(self, args: tuple[CTerm, ...]):
        self.args = args
        self.addr = -1
        self.is_last = False


class CallGoal(Goal):
    """A call to a user-defined predicate."""

    __slots__ = ("functor", "arity", "proc")

    def __init__(self, functor: str, arity: int, args: tuple[CTerm, ...]):
        super().__init__(args)
        self.functor = functor
        self.arity = arity
        self.proc: Procedure | None = None  # resolved lazily at first call

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.functor, self.arity)

    def __repr__(self) -> str:
        return f"CallGoal({self.functor}/{self.arity})"


class BuiltinGoal(Goal):
    """A call to a builtin (microcoded) predicate."""

    __slots__ = ("name", "builtin")

    def __init__(self, name: str, arity: int, args: tuple[CTerm, ...], builtin):
        super().__init__(args)
        self.name = name
        self.builtin = builtin

    def __repr__(self) -> str:
        return f"BuiltinGoal({self.name}/{len(self.args)})"


class CutGoal(Goal):
    """The cut operator."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(())

    def __repr__(self) -> str:
        return "CutGoal()"


# ---------------------------------------------------------------------------
# Clauses and procedures
# ---------------------------------------------------------------------------


@dataclass
class Clause:
    functor: str
    arity: int
    head_args: tuple[CTerm, ...]
    body: tuple[Goal, ...]
    nlocals: int
    nglobals: int
    local_names: tuple[str, ...]
    global_names: tuple[str, ...]
    heap_base: int = -1
    heap_size: int = 0

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.functor, self.arity)

    def __repr__(self) -> str:
        return f"Clause({self.functor}/{self.arity}, {len(self.body)} goals)"


@dataclass
class Procedure:
    functor: str
    arity: int
    clauses: list[Clause] = field(default_factory=list)
    descriptor_base: int = -1  # heap address of the clause-address table
    is_auxiliary: bool = False
    #: First-argument :class:`repro.engine.index.ClauseIndex`, built
    #: lazily by the machine's indexed configuration and maintained
    #: incrementally by assert/retract; ``None`` on faithful runs.
    clause_index: object = None

    @property
    def indicator(self) -> tuple[str, int]:
        return (self.functor, self.arity)

    @cached_property
    def label(self) -> str:
        """The ``functor/arity`` string the machine publishes as its
        predicate context (one stable object per procedure, so the
        observability collector can compare by identity)."""
        return f"{self.functor}/{self.arity}"

    def __repr__(self) -> str:
        return f"Procedure({self.functor}/{self.arity}, {len(self.clauses)} clauses)"


# ---------------------------------------------------------------------------
# Program: compiler + loader
# ---------------------------------------------------------------------------

# Variable classification (void/local/global, first-occurrence slot
# numbering) lives in the shared frontend now: see
# :func:`repro.engine.frontend.normalize_flat`.

_CONTROL_FUNCTORS = {(";", 2), ("->", 2), ("\\+", 1), ("not", 1), (",", 2)}


class Program:
    """A loaded KL0 program: procedures plus heap-resident code.

    ``builtin_table`` maps ``(name, arity)`` to builtin descriptors; it
    is supplied by the machine (see :mod:`repro.core.builtins`) so this
    module stays independent of the builtin implementations.
    """

    def __init__(self, symbols: SymbolTable, builtin_table: dict):
        self.symbols = symbols
        self.builtin_table = builtin_table
        self.procedures: dict[tuple[str, int], Procedure] = {}
        self._frontend = Frontend(builtin_table)

    # -- public API ----------------------------------------------------------

    def add_clause(self, term: Term) -> Clause:
        """Compile one source clause term and register it (plus any
        auxiliary predicates its control constructs expand into)."""
        batch = self._frontend.expand_clause(term)
        compiled = None
        for normalized in batch.clauses:
            clause = self._compile_normalized(normalized)
            if normalized is batch.main:
                compiled = clause
        for indicator in batch.auxiliary:
            self.procedures[indicator].is_auxiliary = True
        assert compiled is not None
        return compiled

    def add_program(self, terms) -> list[Clause]:
        return [self.add_clause(term) for term in terms]

    def procedure(self, functor: str, arity: int) -> Procedure | None:
        return self.procedures.get((functor, arity))

    # -- clause compilation ------------------------------------------------------

    def _compile_normalized(self, norm: NormalizedClause) -> Clause:
        # The frontend already classified variables (void/local/global
        # with first-occurrence slot order) and goals (call/builtin/
        # cut).  Unsafe locals passed at a TRO'd last call are
        # globalised *at runtime* by the machine (the DEC-10 method),
        # not here.  This pass builds code terms with first-occurrence
        # flags.
        info = norm.var_info
        compiled_head = tuple(self._build(arg, info) for arg in norm.head_args)
        compiled_body: list[Goal] = []
        for goal in norm.goals:
            compiled_body.append(self._build_goal(goal, info))
        if compiled_body:
            compiled_body[-1].is_last = True

        clause = Clause(
            functor=norm.functor,
            arity=norm.arity,
            head_args=compiled_head,
            body=tuple(compiled_body),
            nlocals=norm.nlocals,
            nglobals=norm.nglobals,
            local_names=norm.local_names,
            global_names=norm.global_names,
        )
        proc = self.procedures.setdefault(
            norm.indicator, Procedure(norm.functor, norm.arity))
        proc.clauses.append(clause)
        return clause

    def _build_goal(self, goal: NormalizedGoal,
                    info: dict[str, VarInfo]) -> Goal:
        compiled = tuple(self._build(arg, info) for arg in goal.args)
        if goal.kind == GOAL_CUT:
            return CutGoal()
        if goal.kind == GOAL_BUILTIN:
            return BuiltinGoal(goal.name, goal.arity, compiled,
                               self.builtin_table[goal.indicator])
        return CallGoal(goal.name, goal.arity, compiled)

    def _build(self, term: Term, info: dict[str, VarInfo]) -> CTerm:
        """Compile one argument term into code nodes.

        Atoms and functors are interned, and first variable occurrences
        marked, in pre-order (interning order fixes the symbol numbers
        in the heap image).  The walk keeps a stack of open compounds,
        each with its argument iterator and finished argument nodes;
        a compound argument suspends its parent until it is built, so
        nesting depth costs no Python frames.
        """
        if not isinstance(term, Struct):
            return self._build_leaf(term, info)
        leaf = self._build_leaf
        functor = self.symbols.functor
        name, args = term.functor, term.args
        # functor id None marks a list cell
        fid = None if name == "." and len(args) == 2 else \
            functor(name, len(args))
        frames = [(iter(args), [], name, fid)]
        while True:
            pending, done, name, fid = frames[-1]
            for term in pending:
                if isinstance(term, Struct):
                    name, args = term.functor, term.args
                    fid = None if name == "." and len(args) == 2 else \
                        functor(name, len(args))
                    frames.append((iter(args), [], name, fid))
                    break
                done.append(leaf(term, info))
            else:
                frames.pop()
                node = CList(*done) if fid is None else \
                    CStruct(fid, name, tuple(done))
                if not frames:
                    return node
                frames[-1][1].append(node)

    def _build_leaf(self, term: Term, info: dict[str, VarInfo]) -> CTerm:
        if isinstance(term, int):
            return CConst((Tag.INT, term))
        if isinstance(term, Atom):
            if term.name == "[]":
                return CConst(NIL_WORD)
            return CConst((Tag.ATOM, self.symbols.atom(term.name)))
        assert isinstance(term, Var)
        entry = info[term.name]
        if entry.slot == VOID_SLOT:
            return CVoid()
        is_first = not entry.seen
        entry.seen = True
        return CVar(term.name, entry.slot, entry.is_global, is_first)


# ---------------------------------------------------------------------------
# Heap serialisation
# ---------------------------------------------------------------------------


class CodeSerializer:
    """Lays program code out in the heap area, assigning node addresses.

    One word per code node, in pre-order (the interpreter's walk order,
    so instruction fetch is mostly sequential).  Runs of small integer
    constants in argument position share packed words (up to four per
    word).  Loading itself is not billed as machine traffic — it models
    the machine's program loader, not the interpreter.
    """

    PACK_LIMIT = 4

    def __init__(self, mem):
        self.mem = mem

    def load_procedure(self, proc: Procedure) -> None:
        """Serialise every not-yet-loaded clause of ``proc`` and (re)build
        its descriptor table (1 header word + 1 word per clause)."""
        for clause in proc.clauses:
            if clause.heap_base < 0:
                self._load_clause(clause)
        base = self.mem.grow(Area.HEAP, len(proc.clauses) + 1)
        self.mem.poke(Area.HEAP, base, (Tag.INT, len(proc.clauses)))
        for i, clause in enumerate(proc.clauses):
            self.mem.poke(Area.HEAP, base + 1 + i,
                          (Tag.REF, encode_address(Area.HEAP, clause.heap_base)))
        proc.descriptor_base = base

    def _load_clause(self, clause: Clause) -> None:
        """Lay out one clause in pre-order: its header word, the head
        arguments, then each goal's header word and arguments."""
        base = self.mem.top(Area.HEAP)
        words: list[Word] = [(Tag.FUNC, 0)]     # clause header: functor descriptor
        # Packing state: the current packed word's address and how many
        # 8-bit operands it holds.  Interior nodes (list cells, structure
        # headers, goal headers) do not interrupt a packing run — the
        # loader compacts small operands across them; any other leaf
        # (atom, large integer) ends the run.
        pack_addr = -1
        pack_fill = 0
        pending: list[CTerm | Goal] = [*reversed(clause.body), *reversed(clause.head_args)]
        pop = pending.pop
        push = pending.append
        extend = pending.extend
        while pending:
            node = pop()
            kind = type(node)
            # 8-bit packable operands: small integer constants and
            # variable slot numbers (all slots fit in 8 bits).
            if kind is CConst:
                word = node.word
                packable = word[0] == Tag.INT and 0 <= word[1] <= 255
                if not packable:
                    pack_fill = 0
            elif kind is CVar or kind is CVoid:
                word = (Tag.UNDEF, 0)
                packable = True
            else:
                packable = False
                if kind is CList:
                    word = (Tag.LIST, 0)
                    push(node.tail)
                    push(node.head)
                elif kind is CStruct:
                    word = (Tag.STRUCT, node.functor_id)
                    extend(reversed(node.args))
                elif isinstance(node, Goal):
                    word = (Tag.FUNC, 0)
                    extend(reversed(node.args))
                else:
                    raise TypeError(f"unexpected code node {node!r}")
            if packable:
                if 0 < pack_fill < self.PACK_LIMIT:
                    node.addr = pack_addr
                    node.packed = True
                    pack_fill += 1
                    continue
                pack_addr = base + len(words)
                pack_fill = 1
            node.addr = base + len(words)
            words.append(word)
        # One reservation per clause; loading is not billed.
        self.mem.grow(Area.HEAP, len(words))
        poke = self.mem.poke
        for offset, word in enumerate(words, base):
            poke(Area.HEAP, offset, word)
        clause.heap_base = base
        clause.heap_size = len(words)
