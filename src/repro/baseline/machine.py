"""The WAM emulator: execution engine of the DEC-10 Prolog baseline.

A classic WAM with environments, choice points, trail, heap, and
read/write-mode unify instructions, driven by the compiled code from
:mod:`repro.baseline.compiler`.  Instead of modelling DEC-2060 memory
traffic (the paper never measures the DEC side's hardware), the
emulator charges each executed instruction its cost from
:data:`repro.baseline.isa.COSTS_NS` plus dynamic costs (dereferencing,
general unification, trailing, backtracking), producing the execution
times of Table 1's DEC column.

Heap cells are tagged tuples:

* ``(REF, idx)``    — unbound when ``heap[idx]`` is itself,
* ``(STR, idx)``    — ``heap[idx]`` is a ``(FUN, (name, arity))`` cell,
* ``(LIS, idx)``    — car at ``idx``, cdr at ``idx + 1``,
* ``(CON, value)``  — atoms as strings, ``'[]'`` as NIL_B,
* ``(INT, n)``.

Y registers live in environment frames (Python lists), X registers in
one register file list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.compiler import (
    ClauseCompiler,
    CompiledProcedure,
    append_clause,
    assemble_procedure,
    patch_out_clause,
)
from repro.baseline.isa import COSTS_NS, DYNAMIC_COSTS_NS, Instr, Op, X, Y
from repro.engine.answers import Answer
from repro.engine.frontend import Frontend
from repro.errors import ExistenceError, MachineError, ResourceLimitExceeded
from repro.prolog.reader import parse_term
from repro.prolog.terms import Atom, Struct, Term, Var, term_variables

# Cell tags (ints for speed)
REF = 0
STR = 1
LIS = 2
CON = 3
INT = 4
FUN = 5

NIL_B = (CON, "[]")


class BaselineStats:
    """Instruction and event counts plus the derived DEC-2060 time."""

    def __init__(self) -> None:
        self.instr_counts: dict[Op, int] = {}
        self.dynamic_counts: dict[str, int] = {}
        self.inferences = 0
        self.builtin_calls = 0

    def count(self, op: Op) -> None:
        self.instr_counts[op] = self.instr_counts.get(op, 0) + 1

    def event(self, name: str, times: int = 1) -> None:
        self.dynamic_counts[name] = self.dynamic_counts.get(name, 0) + times

    @property
    def total_instructions(self) -> int:
        return sum(self.instr_counts.values())

    @property
    def time_ns(self) -> int:
        static = sum(COSTS_NS[op] * n for op, n in self.instr_counts.items())
        dynamic = sum(DYNAMIC_COSTS_NS[name] * n
                      for name, n in self.dynamic_counts.items())
        return static + dynamic

    @property
    def time_ms(self) -> float:
        return self.time_ns / 1e6

    @property
    def lips(self) -> float:
        seconds = self.time_ns / 1e9
        return self.inferences / seconds if seconds else 0.0


@dataclass
class BaselineRun:
    """One workload's baseline execution: stats plus captured answers.

    The captured answers and counters feed the workloads' ``expected``
    checks and the differential crosscheck; timing consumers read the
    stats through the delegating properties.  With no machine and no
    trace, the run is its own picklable summary (run cache, workers).
    """

    stats: BaselineStats
    answers: tuple[Answer, ...] = ()
    counters: dict[str, int] = field(default_factory=dict)
    succeeded: bool = True

    @property
    def time_ms(self) -> float:
        return self.stats.time_ms

    @property
    def time_ns(self) -> int:
        return self.stats.time_ns

    @property
    def lips(self) -> float:
        return self.stats.lips

    @property
    def inferences(self) -> int:
        return self.stats.inferences

    def to_summary(self) -> "BaselineRun":
        return self

    to_collected_run = to_summary


class Environment:
    __slots__ = ("parent", "cont", "ys")

    def __init__(self, parent, cont, n: int):
        self.parent = parent
        self.cont = cont            # (proc, index) to return to
        self.ys = [None] * n


class Choice:
    __slots__ = ("args", "env", "cont", "next", "trail_top", "heap_top", "level")

    def __init__(self, args, env, cont, next_pc, trail_top, heap_top, level):
        self.args = args
        self.env = env
        self.cont = cont
        self.next = next_pc         # (proc, index) of the retry instruction
        self.trail_top = trail_top
        self.heap_top = heap_top
        self.level = level          # choice stack depth below this one


@dataclass
class BaselineConfig:
    max_steps: int = 200_000_000
    heap_limit: int = 1 << 24


class WAMMachine:
    """A runnable WAM program with the DEC-2060 cost model."""

    def __init__(self, config: BaselineConfig | None = None):
        from repro.baseline.builtins import BASELINE_BUILTINS
        self.config = config or BaselineConfig()
        self.builtin_table = BASELINE_BUILTINS
        self.stats = BaselineStats()
        self.procedures: dict[tuple[str, int], CompiledProcedure] = {}
        self._frontend = Frontend(self.builtin_table)
        self.heap: list = []
        self.xregs: list = [None] * 64
        self.trail: list[int] = []
        self.choices: list[Choice] = []
        self.env: Environment | None = None
        self.cont: tuple | None = None   # (proc, index) continuation
        self.pc: tuple | None = None
        self.s = 0
        self.write_mode = False
        self.b0 = 0  # choice-stack depth at the current call (for cut)
        self.output: list[str] = []
        self.counters: dict[str, int] = {}
        self._query_counter = 0
        self._steps = 0

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def consult(self, text: str) -> None:
        batch = self._frontend.normalize_text(text)
        self._load_normalized(batch.clauses)

    def add_clause_term(self, term: Term) -> None:
        batch = self._frontend.expand_clause(term)
        self._load_normalized(batch.clauses)

    def _load_normalized(self, clauses) -> None:
        for norm in clauses:
            proc = self.procedures.setdefault(
                norm.indicator, CompiledProcedure(*norm.indicator))
            compiled = ClauseCompiler(norm, self.builtin_table).compile()
            if proc.code and not proc.dirty:
                # Runtime assert into an already-assembled procedure:
                # splice incrementally (O(#clauses) dispatch regen, no
                # body recompilation) — dynamic predicates keep their
                # first-argument index without a full rebuild.
                append_clause(proc, compiled)
            else:
                proc.clauses.append(compiled)
                proc.dirty = True
        for proc in self.procedures.values():
            if proc.dirty:
                assemble_procedure(proc)

    def retract_fact(self, cell) -> bool:
        """Remove the first fact whose head unifies with ``cell``.

        Mirrors the PSI machine's retract: facts only.  The dispatch
        chains are patched in place (:func:`patch_out_clause`) — the
        procedure is *not* reassembled, so heavy retract loops never
        re-run the compiler and remaining clause addresses stay put.
        """
        from repro.errors import TypeError_
        value = self.deref(cell)
        if value[0] == CON:
            key, arg_cells = (value[1], 0), []
        elif value[0] == STR:
            name, arity = self.heap[value[1]][1]
            key = (name, arity)
            arg_cells = [self.heap[value[1] + 1 + i] for i in range(arity)]
        else:
            raise TypeError_("callable term", value)
        proc = self.procedures.get(key)
        if proc is None:
            return False
        for index, clause in enumerate(proc.clauses):
            trial = self._head_match_fact(clause, arg_cells)
            if trial:
                proc.clauses.pop(index)
                patch_out_clause(proc, index)
                return True
        return False

    def _head_match_fact(self, clause, arg_cells) -> bool:
        """Try a fact's head-only code against argument cells, undoing
        bindings unless the match succeeds completely."""
        code = clause.code
        # Facts compile to get_* sequences ending in PROCEED.
        if not code or code[-1].op is not Op.PROCEED:
            return False
        if any(i.op in (Op.CALL, Op.EXECUTE, Op.BUILTIN, Op.BUILTIN_ARITH)
               for i in code):
            return False
        mark = len(self.trail)
        saved_regs = list(self.xregs[:len(arg_cells)])
        for i, cell in enumerate(arg_cells):
            self.xregs[i] = cell
        saved = (self.pc, self.cont, self.env, self.write_mode, self.s)
        fact_proc = CompiledProcedure("$retract", len(arg_cells))
        fact_proc.code = list(code)
        self.pc = (fact_proc, 0)
        self.cont = None
        matched = self._run_headonly(fact_proc)
        self.pc, self.cont, self.env, self.write_mode, self.s = saved
        for i, cell in enumerate(saved_regs):
            self.xregs[i] = cell
        if not matched:
            while len(self.trail) > mark:
                idx = self.trail.pop()
                self.heap[idx] = (REF, idx)
        return matched

    def _run_headonly(self, proc) -> bool:
        """Execute a head-only code sequence outside the main loop.

        The outer computation's choice points are hidden for the
        duration so a head mismatch cannot backtrack into them.
        """
        saved_choices = self.choices
        self.choices = []
        try:
            return self._run()
        finally:
            self.choices = saved_choices

    def procedure(self, functor: str, arity: int) -> CompiledProcedure:
        proc = self.procedures.get((functor, arity))
        if proc is None:
            raise ExistenceError(functor, arity)
        return proc

    # ------------------------------------------------------------------
    # Query API (mirrors the PSI machine's)
    # ------------------------------------------------------------------

    def solve(self, goal: str | Term) -> "BaselineSolver":
        term = parse_term(goal) if isinstance(goal, str) else goal
        variables = [v for v in term_variables(term) if not v.is_anonymous]
        self._query_counter += 1
        name = f"$query_{self._query_counter}"
        head: Term = Struct(name, tuple(variables)) if variables else Atom(name)
        self.add_clause_term(Struct(":-", (head, term)))
        return BaselineSolver(self, name, [v.name for v in variables])

    def run(self, goal: str | Term):
        return self.solve(goal).next()

    # ------------------------------------------------------------------
    # Heap helpers
    # ------------------------------------------------------------------

    def new_ref(self) -> int:
        idx = len(self.heap)
        self.heap.append((REF, idx))
        return idx

    def push(self, cell) -> int:
        idx = len(self.heap)
        self.heap.append(cell)
        return idx

    def deref(self, cell):
        heap = self.heap
        count = 0
        while cell[0] == REF:
            target = heap[cell[1]]
            if target is cell or target == cell:
                break
            cell = target
            count += 1
        if count:
            self.stats.event("deref_step", count)
        return cell

    def bind(self, ref_cell, value) -> None:
        """Bind the unbound REF cell to value, trailing conditionally."""
        idx = ref_cell[1]
        self.heap[idx] = value
        if self.choices and idx < self.choices[-1].heap_top:
            self.trail.append(idx)
            self.stats.event("trail_entry")

    def bind_or_order(self, a, b) -> None:
        """Bind two cells, at least one an unbound REF."""
        if a[0] == REF and b[0] == REF:
            # Bind the younger (higher index) to the older.
            if a[1] < b[1]:
                self.bind(b, (REF, a[1]))
            elif b[1] < a[1]:
                self.bind(a, (REF, b[1]))
        elif a[0] == REF:
            self.bind(a, b)
        else:
            self.bind(b, a)

    def unify(self, c1, c2) -> bool:
        """General unifier; charged per node pair.

        A pair of compounds met again inside itself (cyclic terms)
        counts as unified there instead of looping.  Only the pairs on
        the current path are tracked: an ``(pair, None)`` entry below a
        compound pair's arguments on the stack closes it.
        """
        stack = [(c1, c2)]
        stats = self.stats
        open_pairs = set()
        while stack:
            a, b = stack.pop()
            if b is None:               # every argument pair of ``a`` done
                open_pairs.discard(a)
                continue
            a = self.deref(a)
            b = self.deref(b)
            stats.event("general_unify_node")
            if a == b:
                continue
            if a[0] == REF or b[0] == REF:
                self.bind_or_order(a, b)
                continue
            if a[0] != b[0]:
                return False
            if a[0] in (CON, INT):
                if a[1] != b[1]:
                    return False
            elif a[0] == LIS or a[0] == STR:
                pair = (a, b)
                if pair in open_pairs:
                    continue
                if a[0] == LIS:
                    arity, first = 2, 0
                else:
                    fa = self.heap[a[1]]
                    fb = self.heap[b[1]]
                    if fa[1] != fb[1]:
                        return False
                    arity, first = fa[1][1], 1
                open_pairs.add(pair)
                stack.append((pair, None))
                for i in range(first + arity - 1, first - 1, -1):
                    stack.append((self.heap[a[1] + i], self.heap[b[1] + i]))
            else:
                return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _start(self, functor: str, arity: int, args: list) -> bool:
        self.choices.clear()
        self.trail.clear()
        self.env = None
        self.cont = None
        for i, cell in enumerate(args):
            self.xregs[i] = cell
        proc = self.procedure(functor, arity)
        self.stats.inferences += 1
        self.pc = (proc, proc.entry)
        return self._run()

    def backtrack(self) -> bool:
        """Restore the top choice point; returns False when none left."""
        self.stats.event("backtrack")
        if not self.choices:
            self.pc = None
            return False
        choice = self.choices[-1]
        heap = self.heap
        while len(self.trail) > choice.trail_top:
            idx = self.trail.pop()
            heap[idx] = (REF, idx)
            self.stats.event("untrail_entry")
        del heap[choice.heap_top:]
        for i, cell in enumerate(choice.args):
            self.xregs[i] = cell
        self.env = choice.env
        self.cont = choice.cont
        self.pc = choice.next
        return True

    def _value(self, slot):
        kind, index = slot
        if kind == X:
            return self.xregs[index]
        return self.env.ys[index]

    def _set(self, slot, cell) -> None:
        kind, index = slot
        if kind == X:
            if index >= len(self.xregs):
                self.xregs.extend([None] * (index + 16 - len(self.xregs)))
            self.xregs[index] = cell
        else:
            self.env.ys[index] = cell

    def _run(self) -> bool:
        """Run until success (continuation exhausted) or failure."""
        stats = self.stats
        heap = self.heap
        instr_counts = stats.instr_counts
        max_steps = self.config.max_steps
        # Dispatch comparands as locals (a LOAD_FAST per test instead of
        # an Enum class-attribute lookup), and the if/elif chain ordered
        # by measured frequency over the Table 1 workloads: the first
        # five branches cover over half of all executed instructions,
        # so the mean chain depth drops from ~11 identity checks to ~5.
        _UNIFY_VARIABLE = Op.UNIFY_VARIABLE
        _PUT_VALUE = Op.PUT_VALUE
        _GET_VARIABLE = Op.GET_VARIABLE
        _GET_LIST = Op.GET_LIST
        _UNIFY_VALUE = Op.UNIFY_VALUE
        _UNIFY_LOCAL_VALUE = Op.UNIFY_LOCAL_VALUE
        _GET_STRUCTURE = Op.GET_STRUCTURE
        _EXECUTE = Op.EXECUTE
        _TRY = Op.TRY
        _BUILTIN_ARITH = Op.BUILTIN_ARITH
        _PUT_UNSAFE_VALUE = Op.PUT_UNSAFE_VALUE
        _SWITCH_ON_TERM = Op.SWITCH_ON_TERM
        _CALL = Op.CALL
        _ALLOCATE = Op.ALLOCATE
        _PROCEED = Op.PROCEED
        _GET_CONSTANT = Op.GET_CONSTANT
        _TRUST = Op.TRUST
        _RETRY = Op.RETRY
        _UNIFY_CONSTANT = Op.UNIFY_CONSTANT
        _BUILTIN = Op.BUILTIN
        _GET_VALUE = Op.GET_VALUE
        _GET_NIL = Op.GET_NIL
        _UNIFY_NIL = Op.UNIFY_NIL
        _UNIFY_VOID = Op.UNIFY_VOID
        _PUT_VARIABLE = Op.PUT_VARIABLE
        _PUT_CONSTANT = Op.PUT_CONSTANT
        _PUT_NIL = Op.PUT_NIL
        _PUT_LIST = Op.PUT_LIST
        _PUT_STRUCTURE = Op.PUT_STRUCTURE
        _DEALLOCATE = Op.DEALLOCATE
        _SWITCH_ON_CONSTANT = Op.SWITCH_ON_CONSTANT
        _SWITCH_ON_STRUCTURE = Op.SWITCH_ON_STRUCTURE
        _NECK_CUT = Op.NECK_CUT
        _GET_LEVEL = Op.GET_LEVEL
        _CUT = Op.CUT
        _FAIL = Op.FAIL
        _NOOP = Op.NOOP
        _JUMP = Op.JUMP
        while True:
            if self.pc is None:
                return False
            proc, index = self.pc
            code = proc.code
            if index >= len(code):
                raise MachineError(
                    f"fell off code of {proc.functor}/{proc.arity}")
            instr = code[index]
            op = instr[0]
            # Inlined stats.count(op): one dict op instead of a method
            # call, on the single hottest line of the baseline.
            instr_counts[op] = instr_counts.get(op, 0) + 1
            self._steps += 1
            if self._steps > max_steps:
                raise ResourceLimitExceeded("baseline step limit exceeded")
            self.pc = (proc, index + 1)

            if op is _UNIFY_VARIABLE:
                if self.write_mode:
                    idx = self.new_ref()
                    stats.event("heap_cell")
                    self._set(instr[1], (REF, idx))
                else:
                    self._set(instr[1], heap[self.s])
                    self.s += 1
            elif op is _PUT_VALUE:
                value = self._value(instr[1])
                if value is None:
                    value = self._make_unbound_y(instr[1])
                self.xregs[instr[2]] = value
            elif op is _GET_VARIABLE:
                self._set(instr[1], self.xregs[instr[2]])
            elif op is _GET_LIST:
                cell = self.deref(self._operand(instr[1]))
                if cell[0] == LIS:
                    self.s = cell[1]
                    self.write_mode = False
                elif cell[0] == REF:
                    # Write mode: the two unify instructions that follow
                    # append car and cdr right here.
                    self.bind(cell, (LIS, len(heap)))
                    self.write_mode = True
                    stats.event("heap_cell")
                else:
                    if not self.backtrack():
                        return False
            elif op is _UNIFY_VALUE or op is _UNIFY_LOCAL_VALUE:
                value = self._value(instr[1])
                if op is _UNIFY_LOCAL_VALUE and value is None:
                    value = self._make_unbound_y(instr[1])
                if self.write_mode:
                    if value is None:
                        value = self._make_unbound_y(instr[1])
                    heap.append(value)
                    stats.event("heap_cell")
                else:
                    if value is None:
                        value = self._make_unbound_y(instr[1])
                    if not self.unify(value, heap[self.s]):
                        if not self.backtrack():
                            return False
                        continue
                    self.s += 1
            elif op is _GET_STRUCTURE:
                cell = self.deref(self._operand(instr[2]))
                if cell[0] == STR:
                    functor = heap[cell[1]]
                    if functor[1] != instr[1]:
                        if not self.backtrack():
                            return False
                    else:
                        self.s = cell[1] + 1
                        self.write_mode = False
                elif cell[0] == REF:
                    idx = len(heap)
                    heap.append((FUN, instr[1]))
                    self.bind(cell, (STR, idx))
                    self.write_mode = True
                    stats.event("heap_cell")
                else:
                    if not self.backtrack():
                        return False
            elif op is _EXECUTE:
                callee = self.procedures.get(instr[1])
                if callee is None:
                    raise ExistenceError(*instr[1])
                stats.inferences += 1
                self.b0 = len(self.choices)
                self.pc = (callee, callee.entry)
            elif op is _TRY:
                nargs = proc.arity
                choice = Choice(tuple(self.xregs[:nargs]), self.env, self.cont,
                                (proc, index + 1), len(self.trail), len(heap),
                                len(self.choices))
                self.choices.append(choice)
                self.pc = (proc, instr[1])
            elif op is _BUILTIN_ARITH:
                descriptor = instr[1]
                stats.builtin_calls += 1
                result = self._fastcode_arith(descriptor.name, instr[2])
                if result is False:
                    if not self.backtrack():
                        return False
            elif op is _PUT_UNSAFE_VALUE:
                value = self._value(instr[1])
                if value is None:
                    value = self._make_unbound_y(instr[1])
                value = self.deref(value)
                self.xregs[instr[2]] = value
            elif op is _SWITCH_ON_TERM:
                cell = self.deref(self.xregs[0])
                tag = cell[0]
                if tag == REF:
                    target = instr[1]
                elif tag in (CON, INT):
                    target = instr[2]
                elif tag == LIS:
                    target = instr[3]
                else:
                    target = instr[4]
                if target < 0:
                    if not self.backtrack():
                        return False
                else:
                    self.pc = (proc, target)
            elif op is _CALL:
                callee = self.procedures.get(instr[1])
                if callee is None:
                    raise ExistenceError(*instr[1])
                stats.inferences += 1
                self.cont = self.pc
                self.b0 = len(self.choices)
                self.pc = (callee, callee.entry)
            elif op is _ALLOCATE:
                self.env = Environment(self.env, self.cont, instr[1])
            elif op is _PROCEED:
                if self.cont is None:
                    return True
                self.pc = self.cont
            elif op is _GET_CONSTANT:
                cell = self.deref(self.xregs[instr[2]])
                want = (INT, instr[1]) if isinstance(instr[1], int) else (CON, instr[1])
                if cell[0] == REF:
                    self.bind(cell, want)
                elif cell != want:
                    if not self.backtrack():
                        return False
            elif op is _TRUST:
                self.choices.pop()
                self.b0 = len(self.choices)
                self.pc = (proc, instr[1])
            elif op is _RETRY:
                self.choices[-1].next = (proc, index + 1)
                self.b0 = len(self.choices) - 1
                self.pc = (proc, instr[1])
            elif op is _UNIFY_CONSTANT:
                want = (INT, instr[1]) if isinstance(instr[1], int) else (CON, instr[1])
                if self.write_mode:
                    heap.append(want)
                    stats.event("heap_cell")
                else:
                    cell = self.deref(heap[self.s])
                    self.s += 1
                    if cell[0] == REF:
                        self.bind(cell, want)
                    elif cell != want:
                        if not self.backtrack():
                            return False
            elif op is _BUILTIN:
                descriptor = instr[1]
                nargs = instr[2]
                stats.builtin_calls += 1
                stats.event("builtin_step", descriptor.weight)
                result = descriptor.fn(self, [self.xregs[i] for i in range(nargs)])
                if result is False:
                    if not self.backtrack():
                        return False
                elif result is not True:
                    # Meta-call request.  If the next instruction is the
                    # clause's PROCEED (tail meta-call with no environment
                    # to deallocate), behave like EXECUTE and leave the
                    # continuation register pointing at our caller;
                    # otherwise save the return point as CALL does.
                    _, functor, arity, call_args = result
                    callee = self.procedures.get((functor, arity))
                    if callee is None:
                        raise ExistenceError(functor, arity)
                    stats.inferences += 1
                    for i, cell in enumerate(call_args):
                        self.xregs[i] = cell
                    resume_proc, resume_index = self.pc
                    is_tail = (resume_index < len(resume_proc.code)
                               and resume_proc.code[resume_index].op is _PROCEED)
                    if not is_tail:
                        self.cont = self.pc
                    self.b0 = len(self.choices)
                    self.pc = (callee, callee.entry)
            elif op is _GET_VALUE:
                if not self.unify(self._value(instr[1]), self.xregs[instr[2]]):
                    if not self.backtrack():
                        return False
            elif op is _GET_NIL:
                cell = self.deref(self._operand(instr[1]))
                if cell[0] == REF:
                    self.bind(cell, NIL_B)
                elif cell != NIL_B:
                    if not self.backtrack():
                        return False
            elif op is _UNIFY_NIL:
                if self.write_mode:
                    heap.append(NIL_B)
                    stats.event("heap_cell")
                else:
                    cell = self.deref(heap[self.s])
                    self.s += 1
                    if cell[0] == REF:
                        self.bind(cell, NIL_B)
                    elif cell != NIL_B:
                        if not self.backtrack():
                            return False
            elif op is _UNIFY_VOID:
                count = instr[1]
                if self.write_mode:
                    for _ in range(count):
                        self.new_ref()
                    stats.event("heap_cell", count)
                else:
                    self.s += count
            elif op is _PUT_VARIABLE:
                idx = self.new_ref()
                stats.event("heap_cell")
                self._set(instr[1], (REF, idx))
                self.xregs[instr[2]] = (REF, idx)
            elif op is _PUT_CONSTANT:
                self.xregs[instr[2]] = (INT, instr[1]) if isinstance(instr[1], int) \
                    else (CON, instr[1])
            elif op is _PUT_NIL:
                self.xregs[instr[1]] = NIL_B
            elif op is _PUT_LIST:
                # The unify instructions that follow append car and cdr.
                cell = (LIS, len(heap))
                target = instr[1]
                if isinstance(target, tuple):
                    self._set(target, cell)
                else:
                    self.xregs[target] = cell
                self.write_mode = True
            elif op is _PUT_STRUCTURE:
                idx = self.push((FUN, instr[1]))
                stats.event("heap_cell")
                cell = (STR, idx)
                target = instr[2]
                if isinstance(target, tuple):
                    self._set(target, cell)
                else:
                    self.xregs[target] = cell
                self.write_mode = True
            elif op is _DEALLOCATE:
                self.cont = self.env.cont
                self.env = self.env.parent
            elif op is _SWITCH_ON_CONSTANT:
                cell = self.deref(self.xregs[0])
                key = cell[1]
                target = instr[1].get(key, -1)
                if target < 0:
                    if not self.backtrack():
                        return False
                else:
                    self.pc = (proc, target)
            elif op is _SWITCH_ON_STRUCTURE:
                cell = self.deref(self.xregs[0])
                functor = heap[cell[1]][1]
                target = instr[1].get(functor, -1)
                if target < 0:
                    if not self.backtrack():
                        return False
                else:
                    self.pc = (proc, target)
            elif op is _NECK_CUT:
                self._cut_to(self.b0)
            elif op is _GET_LEVEL:
                self.env.ys[instr[1][1]] = ("$level", self.b0)
            elif op is _CUT:
                level = self.env.ys[instr[1][1]]
                self._cut_to(level[1])
            elif op is _FAIL:
                if not self.backtrack():
                    return False
            elif op is _NOOP:
                pass
            elif op is _JUMP:
                self.pc = (proc, instr[1])
            else:  # pragma: no cover
                raise MachineError(f"unknown opcode {op}")

    def _fastcode_arith(self, name: str, specs) -> bool:
        """Fast-code arithmetic: evaluate expression specs directly from
        registers, with no argument terms built on the heap."""
        from repro.baseline.builtins import apply_arith
        if name == "is":
            value = self._eval_spec(specs[1])
            target = specs[0]
            if isinstance(target, int):
                return target == value
            if target[0] == "fv":
                self._set(target[1], (INT, value))
                return True
            if target[0] == "v":
                cell = self._value(target[1])
                if cell is None:
                    self._set(target[1], (INT, value))
                    return True
                cell = self.deref(cell)
                if cell[0] == REF:
                    self.bind(cell, (INT, value))
                    return True
                return cell == (INT, value)
            # target was itself an expression: compare values
            return self._eval_spec(target) == value
        a = self._eval_spec(specs[0])
        b = self._eval_spec(specs[1])
        return apply_arith(name, a, b)

    def _eval_spec(self, spec) -> int:
        """Evaluate one compiled expression tree."""
        from repro.baseline.builtins import eval_arith
        if isinstance(spec, int):
            return spec
        if spec[0] == "v":
            cell = self._value(spec[1])
            if cell is None:
                from repro.errors import InstantiationError
                raise InstantiationError("unbound variable in arithmetic")
            self.stats.event("arith_node")
            return eval_arith(self, cell)
        _, name, subs = spec
        values = [self._eval_spec(sub) for sub in subs]
        self.stats.event("arith_node")
        from repro.baseline.builtins import apply_arith_op
        return apply_arith_op(name, values)

    def _operand(self, target):
        """An instruction operand that is either an A-register index or a
        (X/Y, n) slot (deferred nested-structure temporaries)."""
        if isinstance(target, tuple):
            return self._value(target)
        return self.xregs[target]

    def _make_unbound_y(self, slot):
        idx = self.new_ref()
        cell = (REF, idx)
        self._set(slot, cell)
        return cell

    def _cut_to(self, level: int) -> None:
        while len(self.choices) > level:
            self.choices.pop()

    # ------------------------------------------------------------------
    # Term encoding / decoding
    # ------------------------------------------------------------------

    def encode_term(self, term: Term, bindings: dict[str, tuple]) -> tuple:
        if isinstance(term, int):
            return (INT, term)
        if isinstance(term, Atom):
            return NIL_B if term.name == "[]" else (CON, term.name)
        if isinstance(term, Var):
            if term.name not in bindings:
                bindings[term.name] = (REF, self.new_ref())
            return bindings[term.name]
        assert isinstance(term, Struct)
        if term.functor == "." and term.arity == 2:
            car = self.encode_term(term.args[0], bindings)
            cdr = self.encode_term(term.args[1], bindings)
            idx = len(self.heap)
            self.heap.append(car)
            self.heap.append(cdr)
            return (LIS, idx)
        arg_cells = [self.encode_term(a, bindings) for a in term.args]
        idx = self.push((FUN, (term.functor, term.arity)))
        for cell in arg_cells:
            self.heap.append(cell)
        return (STR, idx)

    def decode_cell(self, cell) -> Term:
        """Convert a heap cell into a source-level term.

        Walks with an explicit stack of open compounds, so any depth or
        list length decodes; a compound met again inside itself is a
        cyclic term and raises :class:`MachineError`.
        """
        heap = self.heap
        stack = []          # (cell, name, decoded args, arg cells left, last first)
        open_cells = set()
        while True:
            cell = self._peek_deref(cell)
            tag = cell[0]
            if tag == LIS or tag == STR:
                if cell in open_cells:
                    raise MachineError("cyclic term while decoding")
                open_cells.add(cell)
                addr = cell[1]
                if tag == LIS:
                    stack.append((cell, ".", [], [heap[addr + 1], heap[addr]]))
                else:
                    name, arity = heap[addr][1]
                    stack.append((cell, name, [],
                                  [heap[addr + i] for i in range(arity, 0, -1)]))
            else:
                if tag == REF:
                    term = Var(f"_B{cell[1]}")
                elif tag == INT:
                    term = cell[1]
                elif tag == CON:
                    term = Atom(cell[1])
                else:
                    raise MachineError(f"cannot decode cell {cell!r}")
                if not stack:
                    return term
                stack[-1][2].append(term)
            while not stack[-1][3]:
                cell, name, args, _ = stack.pop()
                open_cells.discard(cell)
                term = Struct(name, tuple(args))
                if not stack:
                    return term
                stack[-1][2].append(term)
            cell = stack[-1][3].pop()

    def _peek_deref(self, cell):
        while cell[0] == REF:
            target = self.heap[cell[1]]
            if target == cell:
                break
            cell = target
        return cell


class BaselineSolution:
    def __init__(self, bindings: dict[str, Term]):
        self.bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
        return f"BaselineSolution({inner})"


class BaselineSolver:
    """Resumable query execution over the WAM."""

    def __init__(self, machine: WAMMachine, query_name: str, var_names: list[str]):
        self.machine = machine
        self.query_name = query_name
        self.var_names = var_names
        self._cells: list = []
        self._started = False
        self._exhausted = False

    def next(self) -> BaselineSolution | None:
        if self._exhausted:
            return None
        m = self.machine
        if not self._started:
            self._started = True
            self._cells = [(REF, m.new_ref()) for _ in self.var_names]
            ok = m._start(self.query_name, len(self.var_names), list(self._cells))
        else:
            ok = m.backtrack() and m._run()
        if not ok:
            self._exhausted = True
            return None
        bindings = {name: m.decode_cell(cell)
                    for name, cell in zip(self.var_names, self._cells)}
        return BaselineSolution(bindings)

    def all(self, limit: int = 1_000_000) -> list[BaselineSolution]:
        out = []
        while len(out) < limit:
            solution = self.next()
            if solution is None:
                break
            out.append(solution)
        return out

    def count(self, limit: int = 1_000_000) -> int:
        return len(self.all(limit))
