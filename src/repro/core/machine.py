"""The PSI machine: a microprogram-level model of the KL0 interpreter.

This is the paper's subject.  The execution method follows the DEC-10
Prolog interpreter lineage the PSI used (§2.1): four stacks (local,
global, control, trail) plus a heap holding instruction code; 10-word
control frames for environments and choice points; tail recursion
optimisation via a pair of 64-word frame buffers in the work file; no
clause indexing (the paper credits the *DEC compiler* with indexing,
one reason DEC wins on deterministic list code).

Every primitive action emits its declared microroutine
(:mod:`repro.core.micro`) into the stats collector under the active
interpreter module, and every word of term data physically lives in the
memory areas, so microstep counts, module ratios, cache commands,
per-area traffic, work-file modes and branch operations are all
emergent, measurable properties of real program executions.

Deliberate deviations from the historical machine (documented in
DESIGN.md): structure copying instead of DEC-10 structure sharing, and
compile-time globalisation of unsafe variables instead of runtime
globalisation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core import fusion, micro
from repro.core.builtins import BUILTIN_TABLE, Builtin
from repro.core.code import (
    BuiltinGoal,
    CallGoal,
    Clause,
    CodeSerializer,
    CConst,
    CList,
    CStruct,
    CTerm,
    CutGoal,
    CVar,
    CVoid,
    Goal,
    Procedure,
    Program,
)
from repro.core.memory import (
    AREA_SHIFT,
    OFFSET_MASK,
    Area,
    MemorySystem,
    beyond_top_error,
    encode_address,
    overflow_error,
)
from repro.core.micro import CacheCmd, Module
from repro.core.stats import StatsCollector
from repro.core.words import SymbolTable, Tag
from repro.core.workfile import BASE_RELATIVE_SLOTS, BUFFER_SLOTS, WorkFile
from repro.engine.index import (
    KIND_CONST,
    KIND_LIST,
    KIND_STRUCT,
    KIND_VAR,
    ClauseIndex,
)
from repro.errors import (
    ExistenceError,
    MachineError,
    ResourceLimitExceeded,
    UnknownGoalKind,
)
from repro.prolog.reader import parse_program, parse_term
from repro.prolog.terms import Atom, Struct, Term, Var, term_variables

_REF = Tag.REF
_UNDEF = Tag.UNDEF
_T_INT = Tag.INT
_T_ATOM = Tag.ATOM
_T_NIL = Tag.NIL
_T_LIST = Tag.LIST
_T_STRUCT = Tag.STRUCT
_HEAP = int(Area.HEAP)
_GLOBAL = int(Area.GLOBAL)
_LOCAL = int(Area.LOCAL)
_CONTROL = int(Area.CONTROL)
_TRAIL = int(Area.TRAIL)
_NO_CELLS: list[int] = []
_A_GLOBAL = Area.GLOBAL
_A_LOCAL = Area.LOCAL
_A_CONTROL = Area.CONTROL
_A_TRAIL = Area.TRAIL
_C_READ = CacheCmd.READ
_C_WRITE = CacheCmd.WRITE
_C_WRITE_STACK = CacheCmd.WRITE_STACK

# Hot-path aliases: one global load instead of a module + attribute
# chain per emission site.  Same objects — billing is unchanged.
_M_CONTROL = Module.CONTROL
_M_UNIFY = Module.UNIFY
_M_TRAIL = Module.TRAIL
_M_CUT = Module.CUT
_M_BUILT = Module.BUILT
_M_GET_ARG = Module.GET_ARG
_R_GOAL_FETCH = micro.R_GOAL_FETCH
_R_CALL_SETUP = micro.R_CALL_SETUP
_R_BUILTIN_STEP = micro.R_BUILTIN_STEP
_R_PROC_LOOKUP = micro.R_PROC_LOOKUP
_R_CP_PUSH = micro.R_CP_PUSH
_R_WF_GENERAL = micro.R_WF_GENERAL
_R_CLAUSE_TRY = micro.R_CLAUSE_TRY
_R_FRAME_ALLOC = micro.R_FRAME_ALLOC
_R_FRAME_INIT_SLOT = micro.R_FRAME_INIT_SLOT
_R_BUILD_VAR = micro.R_BUILD_VAR
_R_BUILD_CELL = micro.R_BUILD_CELL
_R_TRAIL_PUSH = micro.R_TRAIL_PUSH
_R_TRAIL_BUF = micro.R_TRAIL_BUF
_R_TRAIL_SKIP = micro.R_TRAIL_SKIP
_R_UNTRAIL_ENTRY = micro.R_UNTRAIL_ENTRY
_R_ENV_PUSH = micro.R_ENV_PUSH
_R_ENV_POP = micro.R_ENV_POP
_R_PROCEED = micro.R_PROCEED
_R_TRO = micro.R_TRO
_R_BACKTRACK = micro.R_BACKTRACK
_R_FAIL_DISPATCH = micro.R_FAIL_DISPATCH
_R_CP_RESTORE = micro.R_CP_RESTORE
_R_CUT = micro.R_CUT
_R_CUT_POP_CP = micro.R_CUT_POP_CP
_R_DEREF_STEP = micro.R_DEREF_STEP
_R_FRAME_READ_BUF = micro.R_FRAME_READ_BUF
_R_FRAME_READ_BUF_BASE = micro.R_FRAME_READ_BUF_BASE
_R_FRAME_WRITE_BUF = micro.R_FRAME_WRITE_BUF
_R_FRAME_WRITE_BUF_BASE = micro.R_FRAME_WRITE_BUF_BASE
_R_BIND = micro.R_BIND
_R_UNIFY_DISPATCH = micro.R_UNIFY_DISPATCH
_R_UNIFY_CONST = micro.R_UNIFY_CONST
_R_UNIFY_LIST = micro.R_UNIFY_LIST
_R_UNIFY_STRUCT = micro.R_UNIFY_STRUCT
_R_UNIFY_RETURN = micro.R_UNIFY_RETURN
_R_DECODE = micro.R_DECODE
_R_DECODE_PACKED = micro.R_DECODE_PACKED
_R_DECODE_OPCODE = micro.R_DECODE_OPCODE
_R_GET_ARG = micro.R_GET_ARG
_R_GET_ARG_PACKED = micro.R_GET_ARG_PACKED
_R_GET_ARG_VAR_MEM = micro.R_GET_ARG_VAR_MEM
_R_GET_ARG_VAR_BUF = micro.R_GET_ARG_VAR_BUF
_R_GET_ARG_VAR_BUF_BASE = micro.R_GET_ARG_VAR_BUF_BASE
_R_PUT_ARG = micro.R_PUT_ARG
_R_BUILTIN_ENTRY = micro.R_BUILTIN_ENTRY
_R_BUILTIN_EXIT = micro.R_BUILTIN_EXIT
_R_SWITCH_ON_TERM = micro.R_SWITCH_ON_TERM
_R_INDEX_HASH = micro.R_INDEX_HASH

# Billing-log codes of the superinstructions (repro.core.fusion), bound
# by name so a missing spec fails the import.  Each fused call site
# bills the whole run as one ``stats._log.append(code)`` (static specs
# bake the module into ``slot``, dynamic ones add the ambient
# ``module.idx`` to ``sid6``), at the place of the run in the per-op
# billing order, and then appends its trace entries itself in the exact
# reference order, so the emission stream is bit-identical to the
# per-op loop it replaces.  The collector counts the log once per
# report, not per emission.
#
# The fused sites also move words themselves: they work on the memory
# areas' lists (``mem._words[area]``) and the work file's two owner
# slots directly, not through the MemorySystem/WorkFile accessors.
# Every inlined push or grow keeps the accessor's ``word_limit`` check
# (``overflow_error``), every inlined truncation its beyond-top check
# (``beyond_top_error``) and its ``mem.observer.on_settop`` call.
_F = fusion.SUPERINSTRUCTIONS
_S_CALL_DISPATCH = _F["call_dispatch"].slot
_S_CP_PUSH_FRAME = _F["cp_push_frame"].slot
_S_CLAUSE_TRY = _F["clause_try"].slot
_S_CLAUSE_FRAME = _F["clause_frame"].slot
_S_FRAME_BY_NLOCALS = {n: si.slot for n, si in fusion.FRAME_BY_NLOCALS.items()}
_S_PROCEED_RESUME = _F["proceed_resume"].slot
_S_FAIL = _F["fail"].slot
_S_CP_RESTORE_RESUME = _F["cp_restore_resume"].slot
_S_UNTRAIL_ENTRY = _F["untrail_entry"].slot
_S_TRAIL_PUSH = _F["trail_push"].slot
_S6_FETCH_DECODE = _F["fetch_decode"].sid6
_S6_FETCH_DECODE_PACKED = _F["fetch_decode_packed"].sid6
_S6_FETCH_STRUCT = _F["fetch_struct"].sid6
_S6_FETCH_STRUCT_PACKED = _F["fetch_struct_packed"].sid6
_S6_BIND_SKIP_BUF = _F["bind_skip"].sid6
_S6_BIND_SKIP_BY_AREA = tuple(si.sid6 for si in fusion.BIND_SKIP_BY_AREA)
_S6_PUSH_VAR = _F["push_var"].sid6
_S6_BUILD_LIST = _F["build_list"].sid6
_S6_GET_ARG = _F["get_arg"].sid6
_S6_GET_ARG_PACKED = _F["get_arg_packed"].sid6
_S6_GET_ARG_VOID = _F["get_arg_void"].sid6
_S6_GA_VBUF = _F["get_arg_var_buf"].sid6
_S6_GA_VBUF_BASE = _F["get_arg_var_buf_base"].sid6
_S6_GA_VMEM = _F["get_arg_var_mem"].sid6
_S6_GA_VBUF_P = _F["get_arg_var_buf_packed"].sid6
_S6_GA_VBUF_BASE_P = _F["get_arg_var_buf_base_packed"].sid6
_S6_GA_VMEM_P = _F["get_arg_var_mem_packed"].sid6
_S6_DEREF_BY_AREA = tuple(si.sid6 for si in fusion.DEREF_BY_AREA)
_S6_DEREF_BUF = _F["deref_buf"].sid6
_S6_DEREF_BUF_BASE = _F["deref_buf_base"].sid6


class Frame:
    """A clause activation's local-variable frame.

    Global-variable cells are allocated lazily on first occurrence
    (``gcells`` holds -1 until then), so a failing head match does not
    litter the global stack.
    """

    __slots__ = ("base", "nlocals", "gcells", "buffer_id")

    def __init__(self, base: int, nlocals: int, nglobals: int):
        self.base = base
        self.nlocals = nlocals
        self.gcells = [-1] * nglobals if nglobals else _NO_CELLS
        self.buffer_id: int | None = None

    @property
    def buffered(self) -> bool:
        return self.buffer_id is not None


class Env:
    """A clause activation record.

    The resume position inside the *parent's* body is fixed at creation
    (``parent_index``), exactly like the saved CP register in a WAM
    environment frame; the machine's current position is the register
    pair ``(cur_env, cur_index)``.  This keeps activations immutable so
    choice points capture continuations by reference safely.
    """

    __slots__ = ("goals", "frame", "parent", "parent_index", "cut_barrier",
                 "control_base", "pred")

    def __init__(self, goals: tuple[Goal, ...], frame: Frame,
                 parent: "Env | None", parent_index: int, cut_barrier: int,
                 pred: str = "(startup)"):
        self.goals = goals
        self.frame = frame
        self.parent = parent
        self.parent_index = parent_index
        self.cut_barrier = cut_barrier
        self.control_base = -1  # control-stack frame position once saved
        self.pred = pred        # predicate label (observability context)


class ChoicePoint:
    """Backtracking state: a 10-word control frame plus shadow state."""

    __slots__ = ("proc", "next_clause", "args", "parent_env", "parent_index",
                 "trail_top", "global_top", "local_top", "control_base",
                 "candidates")

    def __init__(self, proc: Procedure, next_clause: int, args: tuple,
                 parent_env: Env | None, parent_index: int, trail_top: int,
                 global_top: int, local_top: int, control_base: int,
                 candidates: tuple | None = None):
        self.proc = proc
        self.next_clause = next_clause
        self.args = args
        self.parent_env = parent_env
        self.parent_index = parent_index
        self.trail_top = trail_top
        self.global_top = global_top
        self.local_top = local_top
        self.control_base = control_base
        #: Indexed configuration only: the clause objects the index
        #: selected at call time, in source order.  ``None`` on the
        #: faithful path (retry walks ``proc.clauses`` directly).
        self.candidates = candidates


#: "The control stack contains 10-word control frames" (§2.1).
CONTROL_FRAME_WORDS = 10
#: Words re-read from a control frame when resuming / restoring.
CONTROL_RESUME_READS = 4
#: The placeholder image of one control frame, pushed as a block.
_CONTROL_FRAME_IMAGE = tuple((Tag.INT, i) for i in range(CONTROL_FRAME_WORDS))


@dataclass
class MachineConfig:
    """Tunable limits and model parameters of a machine instance."""

    max_calls: int = 50_000_000
    word_limit: int = 1 << 22
    #: route statically-known hot paths through fused superinstructions
    #: (emission-stream-equivalent; see :mod:`repro.core.fusion`), for
    #: plain and observed collectors alike.
    fused: bool = True
    #: first-argument clause indexing (the "evaluation the paper
    #: couldn't run"): dispatch calls through the backend-neutral
    #: :class:`repro.engine.index.ClauseIndex`, billing the declared
    #: switch/hash microroutines and skipping choicepoint creation when
    #: at most one candidate clause survives.  Default off — the
    #: faithful PSI had no indexing and its emission stream is pinned
    #: bit-for-bit by golden-digest tests.
    indexed: bool = False


class PSIMachine:
    """A complete PSI: program store, interpreter state and accounting."""

    def __init__(self, config: MachineConfig | None = None,
                 stats: StatsCollector | None = None):
        self.config = config or MachineConfig()
        self.stats = stats if stats is not None else StatsCollector()
        self.symbols = SymbolTable()
        self.mem = MemorySystem(self.stats, self.config.word_limit)
        self.wf = WorkFile(self.stats)
        self.program = Program(self.symbols, BUILTIN_TABLE)
        self._serializer = CodeSerializer(self.mem)
        # Interpreter state
        self.cur_env: Env | None = None
        self.cur_index = 0
        self.cp_stack: list[ChoicePoint] = []
        self.trail: list[int] = []
        self.call_count = 0
        # Builtin support state
        self.output: list[str] = []
        self.counters: dict[str, int] = {}
        self.flags: dict[str, object] = {}
        #: Indexed-configuration effect counters (all zero on faithful
        #: runs): dedicated-chain dispatches, unbound-first-argument
        #: full scans, and calls where indexing pruned the candidate
        #: set to ≤1 so no choice point was pushed.  Kept separate from
        #: ``counters`` (user-level, crosschecked between engines).
        self.index_stats: dict[str, int] = {
            "index_hits": 0, "index_misses": 0, "choicepoints_avoided": 0,
        }
        self._process_save_base = -1
        self._query_counter = 0
        #: Fused-dispatch gate: ``config.fused`` as of :meth:`_start` (a
        #: plain attribute, not a property — the hot loop reads it per
        #: goal).  Every collector takes the fused path.
        self._fused_on = False

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------

    def consult(self, text: str) -> None:
        """Parse and load a program (source text)."""
        self.program.add_program(parse_program(text))
        self._load_pending()

    def add_clause_term(self, term: Term) -> None:
        self.program.add_clause(term)
        self._load_pending()

    def _load_pending(self) -> None:
        for proc in self.program.procedures.values():
            if any(clause.heap_base < 0 for clause in proc.clauses) or \
                    proc.descriptor_base < 0:
                self._serializer.load_procedure(proc)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------

    def solve(self, goal: str | Term) -> "Solver":
        """Compile ``goal`` as a query and return a resumable solver."""
        term = parse_term(goal) if isinstance(goal, str) else goal
        variables = term_variables(term)
        named = [v for v in variables if not v.is_anonymous]
        self._query_counter += 1
        name = f"$query_{self._query_counter}"
        head: Term = Struct(name, tuple(named)) if named else Atom(name)
        self.program.add_clause(Struct(":-", (head, term)))
        self._load_pending()
        return Solver(self, name, [v.name for v in named])

    def run(self, goal: str | Term) -> "Solution | None":
        """Convenience: first solution of ``goal`` (or None)."""
        return self.solve(goal).next()

    # ------------------------------------------------------------------
    # Main interpreter loop
    # ------------------------------------------------------------------

    def _start(self, functor: str, arity: int, args: tuple) -> bool:
        """Begin executing ``functor/arity`` with pre-built argument words."""
        proc = self.program.procedure(functor, arity)
        if proc is None:
            raise ExistenceError(functor, arity)
        self._fused_on = self.config.fused
        self.cur_env = None
        self.cp_stack.clear()
        self.trail.clear()
        self.wf.reset()
        if not self._call_procedure(proc, args, parent_env=None, parent_index=0):
            return self._backtrack_and_run()
        return self._run()

    def _run(self) -> bool:
        """Drive execution until success (continuation empty) or failure."""
        stats = self.stats
        emit = stats.emit
        mem = self.mem
        mem_read = mem.read
        fused = self._fused_on
        while True:
            env = self.cur_env
            if env is None:
                return True
            if self.cur_index >= len(env.goals):
                self._proceed(env)
                continue
            goal = env.goals[self.cur_index]
            self.cur_index += 1
            stats.module = _M_CONTROL
            kind = goal.__class__
            if kind is CallGoal:
                # Goal fetch is folded into the dispatcher: fused runs
                # bill it inside the call_dispatch superinstruction.
                if not self._dispatch_call(goal, env):
                    if not self._backtrack():
                        return False
                continue
            if kind is not BuiltinGoal and kind is not CutGoal:
                raise UnknownGoalKind(goal)
            emit(_R_GOAL_FETCH)
            if fused:
                mem._mem_access(_C_READ, _HEAP)
                pa = mem._packed_append
                if pa is not None:
                    pa(goal.addr << 2)
            else:
                mem_read(_HEAP, goal.addr)
            if kind is CutGoal:
                self._cut(env)
            elif not self._dispatch_builtin(goal, env):
                if not self._backtrack():
                    return False

    def _backtrack_and_run(self) -> bool:
        if not self._backtrack():
            return False
        return self._run()

    # -- user predicate calls ------------------------------------------------

    def _dispatch_call(self, goal: CallGoal, env: Env) -> bool:
        stats = self.stats
        stats.inferences += 1
        proc = goal.proc
        if proc is None:
            proc = self.program.procedure(goal.functor, goal.arity)
            if proc is None:
                raise ExistenceError(goal.functor, goal.arity)
            goal.proc = proc
        if self._fused_on:
            # goal fetch + call setup + overhead step + proc lookup,
            # with both heap reads (goal word, descriptor) in one bill.
            stats._log.append(_S_CALL_DISPATCH)
            mem = self.mem
            pa = mem._packed_append
            if pa is not None:
                pa(goal.addr << 2)                   # READ heap (area 0)
                pa(proc.descriptor_base << 2)
        else:
            stats.emit(_R_GOAL_FETCH)
            self.mem.read(_HEAP, goal.addr)
            stats.emit(_R_CALL_SETUP)
            stats.emit(_R_BUILTIN_STEP)
            stats.emit(_R_PROC_LOOKUP)
            self.mem.read(_HEAP, proc.descriptor_base)
        # Evaluate arguments into registers (call machinery: control).
        args = tuple(self._put_args(goal.args, env.frame, _M_CONTROL))
        stats.module = _M_CONTROL
        if goal.is_last:
            parent = env.parent
            parent_index = env.parent_index
            args = self._reclaim_for_tro(env, args)
        else:
            parent = env
            parent_index = self.cur_index
            self._save_env(env)
        return self._call_procedure(proc, args, parent, parent_index)

    def _call_procedure(self, proc: Procedure, args: tuple,
                        parent_env: Env | None, parent_index: int) -> bool:
        clauses = proc.clauses
        if not clauses:
            return False
        if len(clauses) > 1:
            if self.config.indexed and proc.arity >= 1:
                return self._call_indexed(proc, args, parent_env, parent_index)
            self._push_choice_point(proc, args, parent_env, parent_index)
            barrier = len(self.cp_stack) - 1
        else:
            barrier = len(self.cp_stack)
        # Publish the predicate context (observability: profiler/tracer
        # attribution; a plain attribute store when obs is disabled).
        self.stats.predicate = proc.label
        return self._activate(clauses[0], args, parent_env, parent_index,
                              barrier)

    # -- indexed configuration (MachineConfig.indexed) -----------------------

    def _clause_first_arg(self, clause: Clause) -> tuple[str, object]:
        """Backend-neutral first-argument descriptor of a compiled
        clause head (same key space as
        :func:`repro.engine.index.first_arg_descriptor`)."""
        if not clause.head_args:
            return KIND_VAR, None
        node = clause.head_args[0]
        cls = node.__class__
        if cls is CConst:
            tag, value = node.word
            if tag == _T_INT:
                return KIND_CONST, value
            if tag == _T_NIL:
                return KIND_CONST, "[]"
            if tag == _T_ATOM:
                return KIND_CONST, self.symbols.atom_name(value)
            return KIND_VAR, None
        if cls is CList:
            return KIND_LIST, None
        if cls is CStruct:
            return KIND_STRUCT, (node.name, len(node.args))
        return KIND_VAR, None  # CVar / CVoid

    def _index_for(self, proc: Procedure) -> ClauseIndex:
        """The procedure's clause index, built lazily on first indexed
        dispatch.  Assert/retract maintain it incrementally; the length
        check catches clauses added behind our back (e.g. a consult
        after execution started) and rebuilds once."""
        index = proc.clause_index
        if index is None or len(index) != len(proc.clauses):
            index = ClauseIndex()
            for clause in proc.clauses:
                kind, key = self._clause_first_arg(clause)
                index.add_clause(kind, key)
            proc.clause_index = index
        return index

    def _call_indexed(self, proc: Procedure, args: tuple,
                      parent_env: Env | None, parent_index: int) -> bool:
        """Dispatch through the first-argument index: classify the
        dereferenced first argument, select the candidate chain, and
        push a choice point only when more than one candidate survives.
        Bills the declared switch/hash microroutines on top of the
        (billed) argument deref."""
        stats = self.stats
        stats.module = _M_CONTROL
        index = self._index_for(proc)
        word = self.deref(args[0])
        if word is not args[0] and word[0] != _UNDEF:
            # The switch already chased the REF chain; hand the clause
            # tries the dereferenced value so they don't re-chase it.
            args = (word,) + args[1:]
        emit = stats.emit
        emit(_R_SWITCH_ON_TERM)
        tag = word[0]
        istats = self.index_stats
        if tag == _T_INT:
            emit(_R_INDEX_HASH)
            candidates = index.select(KIND_CONST, word[1])
        elif tag == _T_ATOM:
            emit(_R_INDEX_HASH)
            candidates = index.select(KIND_CONST,
                                      self.symbols.atom_name(word[1]))
        elif tag == _T_NIL:
            emit(_R_INDEX_HASH)
            candidates = index.select(KIND_CONST, "[]")
        elif tag == _T_LIST:
            candidates = index.select(KIND_LIST, None)
        elif tag == _T_STRUCT:
            emit(_R_INDEX_HASH)
            functor_word = self._read_cell(word[1])
            candidates = index.select(
                KIND_STRUCT, self.symbols.functor_name(functor_word[1]))
        else:
            # Unbound (UNDEF) or an unindexable tag: full source-order
            # scan, exactly the faithful dispatch shape.
            istats["index_misses"] += 1
            clauses = proc.clauses
            self._push_choice_point(proc, args, parent_env, parent_index)
            stats.predicate = proc.label
            return self._activate(clauses[0], args, parent_env, parent_index,
                                  len(self.cp_stack) - 1)
        istats["index_hits"] += 1
        n = len(candidates)
        if n == 0:
            # No clause can unify: fail without touching the stacks (the
            # faithful machine would have pushed a choice point and
            # failed through every head).
            istats["choicepoints_avoided"] += 1
            return False
        clauses = proc.clauses
        stats.predicate = proc.label
        if n == 1:
            istats["choicepoints_avoided"] += 1
            return self._activate(clauses[candidates[0]], args, parent_env,
                                  parent_index, len(self.cp_stack))
        # Snapshot the selected clause objects: retry order is immune to
        # later assert/retract renumbering (logical-update view).
        selected = tuple(clauses[cid] for cid in candidates)
        self._push_choice_point(proc, args, parent_env, parent_index,
                                candidates=selected)
        return self._activate(selected[0], args, parent_env, parent_index,
                              len(self.cp_stack) - 1)

    def _push_choice_point(self, proc: Procedure, args: tuple,
                           parent_env: Env | None, parent_index: int,
                           candidates: tuple | None = None) -> None:
        stats = self.stats
        mem = self.mem
        words = mem._words
        control = words[_CONTROL]
        control_base = len(control)
        cp = ChoicePoint(proc, 1, args, parent_env, parent_index,
                         len(self.trail), len(words[_GLOBAL]),
                         len(words[_LOCAL]), control_base, candidates)
        if self._fused_on:
            # cp push + wf.general + the 10-word control frame image.
            stats._log.append(_S_CP_PUSH_FRAME)
            top = control_base + CONTROL_FRAME_WORDS
            if top > mem.word_limit:
                raise overflow_error(_CONTROL, top)
            extend = mem._packed_extend
            if extend is not None:
                packed = (((_CONTROL << AREA_SHIFT) | control_base) << 2) | 2
                extend(range(packed, packed + 4 * CONTROL_FRAME_WORDS, 4))
            control.extend(_CONTROL_FRAME_IMAGE)
        else:
            stats.emit(_R_CP_PUSH)
            stats.emit(_R_WF_GENERAL)
            mem.write_stack_block(_CONTROL, _CONTROL_FRAME_IMAGE)
        self.cp_stack.append(cp)

    def _activate(self, clause: Clause, args: tuple, parent_env: Env | None,
                  parent_index: int, cut_barrier: int) -> bool:
        """Try one clause: allocate its frame, unify the head.

        On head failure returns False with partial bindings left for
        the trail/choice-point machinery to undo.  Most tries fail (the
        faithful PSI has no indexing), so the activation record is
        built only once the head has matched.
        """
        stats = self.stats
        stats.module = _M_CONTROL
        self.call_count += 1
        if self.call_count > self.config.max_calls:
            raise ResourceLimitExceeded(f"activation limit exceeded ({self.call_count})")
        nlocals = clause.nlocals
        if self._fused_on and nlocals <= BUFFER_SLOTS:
            # clause try [+ frame allocate + buffer switch + slot inits]
            # and the clause-head read, in one bill.  The mined
            # per-nlocals variants fold the slot inits in too; other
            # small frames emit them separately (still batched).
            mem = self.mem
            local = mem._words[_LOCAL]
            base = len(local)
            frame = Frame(base, nlocals, clause.nglobals)
            if nlocals:
                slot = _S_FRAME_BY_NLOCALS.get(nlocals)
                if slot is None:
                    stats._log.append(_S_CLAUSE_FRAME)
                    stats.emit(_R_FRAME_INIT_SLOT, nlocals)
                else:
                    stats._log.append(slot)
                pa = mem._packed_append
                if pa is not None:
                    pa(clause.heap_base << 2)        # READ heap
                # Buffer switch: take the next of the two frame buffers,
                # evicting its owner.
                wf = self.wf
                buffer_id = wf._next
                wf._next = 1 - buffer_id
                owners = wf._owners
                evicted = owners[buffer_id]
                if evicted is not None:
                    evicted.buffer_id = None
                owners[buffer_id] = frame
                frame.buffer_id = buffer_id
                # Buffered slots: init is register traffic only.
                top = base + nlocals
                if top > mem.word_limit:
                    raise overflow_error(_LOCAL, top)
                lo = _LOCAL << AREA_SHIFT
                local.extend([(_UNDEF, lo | off) for off in range(base, top)])
            else:
                stats._log.append(_S_CLAUSE_TRY)
                pa = mem._packed_append
                if pa is not None:
                    pa(clause.heap_base << 2)
        else:
            stats.emit(_R_CLAUSE_TRY)
            self.mem.read(_HEAP, clause.heap_base)
            frame = self._allocate_frame(clause)
        stats.module = _M_UNIFY
        if self._fused_on:
            if not self._unify_head(clause.head_args, args, frame):
                return False
        else:
            match = self._match
            for node, arg in zip(clause.head_args, args):
                if not match(node, arg, frame):
                    return False
        self.cur_env = Env(clause.body, frame, parent_env, parent_index,
                           cut_barrier, stats.predicate)
        self.cur_index = 0
        return True

    def _allocate_frame(self, clause: Clause) -> Frame:
        stats = self.stats
        mem = self.mem
        nlocals = clause.nlocals
        base = mem.top(_LOCAL)
        frame = Frame(base, nlocals, clause.nglobals)
        if nlocals:
            stats.emit(_R_FRAME_ALLOC)
            buffer_id = self.wf.acquire(frame)
            frame.buffer_id = buffer_id
            lo = _LOCAL << AREA_SHIFT
            if buffer_id is not None:
                # Slots live in the WF buffer: init is register traffic only.
                off = mem.grow(_LOCAL, nlocals)
                words = mem.areas[Area.LOCAL]
                for off in range(off, off + nlocals):
                    words[off] = (_UNDEF, lo | off)
                stats.emit(_R_FRAME_INIT_SLOT, nlocals)
            else:
                mem.write_stack_block(
                    _LOCAL, [(_UNDEF, lo | off)
                             for off in range(base, base + nlocals)])
        return frame

    def _global_cell(self, frame: Frame, slot: int) -> int:
        """Address of a clause global variable's cell, allocating lazily.

        If a choice point exists, the allocation is recorded on the
        trail so backtracking (which truncates the global stack, and
        may hand the same offset to another frame) resets the cache.
        Hot callers test ``frame.gcells[slot] < 0`` themselves first.
        """
        cell = frame.gcells[slot]
        if cell >= 0:
            return cell
        stats = self.stats
        mem = self.mem
        fused = self._fused_on
        pa = mem._packed_append
        glob = mem._words[_GLOBAL]
        off = len(glob)
        cell = (_GLOBAL << AREA_SHIFT) | off
        if fused:
            stats._log.append(_S6_PUSH_VAR + stats.module.idx)
            if off >= mem.word_limit:
                raise overflow_error(_GLOBAL, off)
            if pa is not None:
                pa((cell << 2) | 2)
            glob.append((_UNDEF, cell))
        else:
            mem.write_stack(_GLOBAL, (_UNDEF, cell))
            stats.emit(_R_BUILD_VAR)
        frame.gcells[slot] = cell
        if self.cp_stack:
            stats.emit_in(_M_TRAIL, _R_TRAIL_PUSH)
            if fused:
                stack = mem._words[_TRAIL]
                off = len(stack)
                if off >= mem.word_limit:
                    raise overflow_error(_TRAIL, off)
                mem._mem_access(_C_WRITE_STACK, _TRAIL)
                if pa is not None:
                    pa((((_TRAIL << AREA_SHIFT) | off) << 2) | 2)
                stack.append((Tag.INT, slot))
            else:
                mem.write_stack(_TRAIL, (Tag.INT, slot))
            trail = self.trail
            trail.append((frame, slot))
            if len(trail) % 8 == 0:
                stats.emit_in(_M_TRAIL, _R_TRAIL_BUF)
        return cell

    def _save_env(self, env: Env) -> None:
        """Persist ``env`` before a non-last call: flush the frame to the
        local stack and write a 10-word environment frame if new."""
        stats = self.stats
        stats.emit(_R_ENV_PUSH)
        frame = env.frame
        mem = self.mem
        fused = self._fused_on
        extend = mem._packed_extend
        if frame.buffer_id is not None:
            if fused:
                # Flush the buffered slots, then release the buffer.
                count = frame.nlocals
                mem._mem_access_n(_C_WRITE_STACK, _LOCAL, count)
                if extend is not None:
                    packed = (((_LOCAL << AREA_SHIFT) | frame.base) << 2) | 2
                    extend(range(packed, packed + 4 * count, 4))
                owners = self.wf._owners
                if owners[frame.buffer_id] is frame:
                    owners[frame.buffer_id] = None
                frame.buffer_id = None
            else:
                mem.flush_stack_block(_LOCAL, frame.base, frame.nlocals)
                self.wf.release(frame)
        if env.control_base < 0:
            control = mem._words[_CONTROL]
            off = len(control)
            env.control_base = off
            if fused:
                top = off + CONTROL_FRAME_WORDS
                if top > mem.word_limit:
                    raise overflow_error(_CONTROL, top)
                mem._mem_access_n(_C_WRITE_STACK, _CONTROL,
                                  CONTROL_FRAME_WORDS)
                if extend is not None:
                    packed = (((_CONTROL << AREA_SHIFT) | off) << 2) | 2
                    extend(range(packed, packed + 4 * CONTROL_FRAME_WORDS, 4))
                control.extend(_CONTROL_FRAME_IMAGE)
            else:
                mem.write_stack_block(_CONTROL, _CONTROL_FRAME_IMAGE)

    def _reclaim_for_tro(self, env: Env, args: tuple) -> tuple:
        """Last-call optimisation: discard the env, reclaim its stacks.

        Argument registers that still reference unbound variables in the
        dying frame are *globalised* (fresh global cells), the DEC-10
        runtime method for unsafe variables.  If a choice point protects
        the frame it cannot be reclaimed; it is flushed to the local
        stack instead (it may be read again after backtracking).
        """
        stats = self.stats
        stats.emit(_R_TRO)
        frame = env.frame
        base = frame.base
        mem = self.mem
        fused = self._fused_on
        observer = mem.observer
        cp_stack = self.cp_stack
        local = mem._words[_LOCAL]
        protect = cp_stack[-1].local_top if cp_stack else 0
        # The second test is settop's beyond-top check.
        reclaimable = base >= protect and base <= len(local)
        if reclaimable and frame.nlocals:
            args = self._globalize_unsafe(frame, args)
        if not fused:
            if not reclaimable and frame.buffered:
                mem.flush_stack_block(_LOCAL, base, frame.nlocals)
            self.wf.release(frame)
            if reclaimable:
                mem.settop(_LOCAL, base)
        else:
            buffer_id = frame.buffer_id
            if buffer_id is not None:
                if not reclaimable:
                    count = frame.nlocals
                    mem._mem_access_n(_C_WRITE_STACK, _LOCAL, count)
                    extend = mem._packed_extend
                    if extend is not None:
                        packed = (((_LOCAL << AREA_SHIFT) | base) << 2) | 2
                        extend(range(packed, packed + 4 * count, 4))
                owners = self.wf._owners
                if owners[buffer_id] is frame:
                    owners[buffer_id] = None
                frame.buffer_id = None
            if reclaimable:
                if observer is not None:
                    observer.on_settop(_A_LOCAL, base, len(local))
                del local[base:]
        control_base = env.control_base
        if control_base >= 0 and control_base >= (
                cp_stack[-1].control_base + CONTROL_FRAME_WORDS
                if cp_stack else 0):
            if not fused:
                mem.settop(_CONTROL, control_base)
            else:
                control = mem._words[_CONTROL]
                if control_base > len(control):
                    raise beyond_top_error(_CONTROL)
                if observer is not None:
                    observer.on_settop(_A_CONTROL, control_base, len(control))
                del control[control_base:]
        return args

    def _globalize_unsafe(self, frame: Frame, args: tuple) -> tuple:
        """Move unbound locals of a dying frame into fresh global cells."""
        stats = self.stats
        lo = (_LOCAL << AREA_SHIFT) | frame.base
        hi = lo + frame.nlocals
        moved: dict[int, tuple] | None = None
        new_args = None
        for i, word in enumerate(args):
            if word[0] != _REF:
                continue
            target = self.deref(word)
            if target[0] != _UNDEF or not lo <= target[1] < hi:
                continue
            if moved is None:
                moved = {}
                new_args = list(args)
            cell = moved.get(target[1])
            if cell is None:
                off = self.mem.top(Area.GLOBAL)
                cell = (_REF, encode_address(Area.GLOBAL, off))
                self.mem.write_stack(Area.GLOBAL,
                                     (_UNDEF, encode_address(Area.GLOBAL, off)))
                stats.emit(_R_BUILD_VAR)
                # Any aliases chase the local cell into the new global.
                self._write_cell(target[1], cell)
                moved[target[1]] = cell
            new_args[i] = cell
        if new_args is not None:
            return tuple(new_args)
        return args

    def _proceed(self, env: Env) -> None:
        """Clause body complete: return to the parent continuation."""
        stats = self.stats
        stats.module = _M_CONTROL
        parent = env.parent
        if parent is None:
            stats.emit(_R_PROCEED)
            self.cur_env = None
            return
        mem = self.mem
        fused = self._fused_on
        observer = mem.observer
        frame = env.frame
        cp_stack = self.cp_stack
        if parent.control_base < 0:
            stats.emit(_R_ENV_POP)
        elif not fused:
            stats.emit(_R_ENV_POP)
            mem.read_block(_CONTROL, parent.control_base,
                           CONTROL_RESUME_READS)
        else:
            # env pop + the 4-word control-frame resume read.
            stats._log.append(_S_PROCEED_RESUME)
            extend = mem._packed_extend
            if extend is not None:
                packed = ((_CONTROL << AREA_SHIFT) | parent.control_base) << 2
                extend(range(packed, packed + 4 * CONTROL_RESUME_READS, 4))
        if not fused:
            self.wf.release(frame)
        elif frame.buffer_id is not None:
            owners = self.wf._owners
            if owners[frame.buffer_id] is frame:
                owners[frame.buffer_id] = None
            frame.buffer_id = None
        base = frame.base
        local = mem._words[_LOCAL]
        # The second test is settop's beyond-top check.
        if base >= (cp_stack[-1].local_top if cp_stack else 0) \
                and base <= len(local):
            if not fused:
                mem.settop(_LOCAL, base)
            else:
                if observer is not None:
                    observer.on_settop(_A_LOCAL, base, len(local))
                del local[base:]
        control_base = env.control_base
        if control_base >= 0 and control_base >= (
                cp_stack[-1].control_base + CONTROL_FRAME_WORDS
                if cp_stack else 0):
            if not fused:
                mem.settop(_CONTROL, control_base)
            else:
                control = mem._words[_CONTROL]
                if control_base > len(control):
                    raise beyond_top_error(_CONTROL)
                if observer is not None:
                    observer.on_settop(_A_CONTROL, control_base, len(control))
                del control[control_base:]
        self.cur_env = parent
        self.cur_index = env.parent_index
        stats.predicate = parent.pred

    # -- backtracking ---------------------------------------------------------

    def _backtrack(self) -> bool:
        """Restore to the latest choice point and retry; loops until an
        activation succeeds or the choice point stack is exhausted."""
        stats = self.stats
        mem = self.mem
        fused = self._fused_on
        extend = mem._packed_extend
        observer = mem.observer
        glob, local, control, trail_words = mem._words[_GLOBAL:]
        wf = self.wf
        owners = wf._owners
        cp_stack = self.cp_stack
        trail = self.trail
        while cp_stack:
            stats.module = _M_CONTROL
            if fused:
                stats._log.append(_S_FAIL)
            else:
                stats.emit(_R_BACKTRACK)
                stats.emit(_R_FAIL_DISPATCH)
            cp = cp_stack[-1]
            mark = cp.trail_top
            if len(trail) > mark:
                self._untrail_to(mark)
                stats.module = _M_CONTROL
            if not fused:
                mem.settop(_GLOBAL, cp.global_top)
                mem.settop(_LOCAL, cp.local_top)
                mem.settop(_TRAIL, mark)
                wf.reset()
                stats.emit(_R_CP_RESTORE)
                mem.read_block(_CONTROL, cp.control_base,
                               CONTROL_RESUME_READS)
            else:
                # Truncate the global, local and trail stacks to the
                # marks, and clear both frame buffers.
                top = cp.global_top
                if top > len(glob):
                    raise beyond_top_error(_GLOBAL)
                if observer is not None:
                    observer.on_settop(_A_GLOBAL, top, len(glob))
                del glob[top:]
                top = cp.local_top
                if top > len(local):
                    raise beyond_top_error(_LOCAL)
                if observer is not None:
                    observer.on_settop(_A_LOCAL, top, len(local))
                del local[top:]
                if mark > len(trail_words):
                    raise beyond_top_error(_TRAIL)
                if observer is not None:
                    observer.on_settop(_A_TRAIL, mark, len(trail_words))
                del trail_words[mark:]
                frame = owners[0]
                if frame is not None:
                    frame.buffer_id = None
                    owners[0] = None
                frame = owners[1]
                if frame is not None:
                    frame.buffer_id = None
                    owners[1] = None
                wf._next = 0
                # cp restore + the 4-word control-frame resume read.
                stats._log.append(_S_CP_RESTORE_RESUME)
                if extend is not None:
                    packed = ((_CONTROL << AREA_SHIFT) | cp.control_base) << 2
                    extend(range(packed, packed + 4 * CONTROL_RESUME_READS, 4))
            chain = cp.candidates
            if chain is None:
                chain = cp.proc.clauses
            clause = chain[cp.next_clause]
            stats.predicate = cp.proc.label
            cp.next_clause += 1
            top = cp.control_base
            if cp.next_clause >= len(chain):
                cp_stack.pop()
                barrier = len(cp_stack)
            else:
                top += CONTROL_FRAME_WORDS
                barrier = len(cp_stack) - 1
            if not fused:
                mem.settop(_CONTROL, top)
            else:
                if top > len(control):
                    raise beyond_top_error(_CONTROL)
                if observer is not None:
                    observer.on_settop(_A_CONTROL, top, len(control))
                del control[top:]
            if self._activate(clause, cp.args, cp.parent_env, cp.parent_index,
                              barrier):
                return True
        return False

    def _untrail_to(self, mark: int) -> None:
        stats = self.stats
        stats.module = _M_TRAIL
        trail = self.trail
        if self._fused_on:
            # Per entry: untrail step + its trail read in one bill.  The
            # undo writes interleave with the reads exactly as in the
            # per-op loop, so the trace byte order is preserved.
            mem = self.mem
            bill = stats._log.append
            pa = mem._packed_append
            words = mem._words
            owners = self.wf._owners
            trail_hi = _TRAIL << AREA_SHIFT
            while len(trail) > mark:
                entry = trail.pop()
                bill(_S_UNTRAIL_ENTRY)
                if pa is not None:
                    pa((trail_hi | len(trail)) << 2)
                if type(entry) is not int:
                    # Lazy global-cell allocation record: reset the cache.
                    frame, slot = entry
                    frame.gcells[slot] = -1
                    continue
                # Reset the cell: a work-file write for a slot of a
                # buffered frame, a memory write otherwise.
                area = entry >> AREA_SHIFT
                off = entry & OFFSET_MASK
                if area == _LOCAL:
                    f0, f1 = owners
                    buffered = ((f0 is not None
                                 and f0.base <= off < f0.base + f0.nlocals)
                                or (f1 is not None
                                    and f1.base <= off < f1.base + f1.nlocals))
                else:
                    buffered = False
                if buffered:
                    stats.emit(_R_FRAME_WRITE_BUF)
                else:
                    mem._mem_access(_C_WRITE, area)
                    if pa is not None:
                        pa((entry << 2) | 1)
                words[area][off] = (_UNDEF, entry)
            return
        mem_read = self.mem.read
        emit = stats.emit
        while len(trail) > mark:
            entry = trail.pop()
            emit(_R_UNTRAIL_ENTRY)
            mem_read(_TRAIL, len(trail))
            if type(entry) is int:
                self._write_cell(entry, (_UNDEF, entry))
            else:
                # Lazy global-cell allocation record: reset the cache.
                frame, slot = entry
                frame.gcells[slot] = -1

    def _cut(self, env: Env) -> None:
        stats = self.stats
        stats.module = _M_CUT
        stats.emit(_R_CUT)
        barrier = env.cut_barrier
        if len(self.cp_stack) <= barrier:
            return
        # Only choice points are discarded: environment frames of live
        # activations may sit above a popped choice point's control
        # frame, so the control stack is reclaimed at proceed/backtrack
        # time, never here.
        lowest_mark = len(self.trail)
        while len(self.cp_stack) > barrier:
            cp = self.cp_stack.pop()
            lowest_mark = cp.trail_top
            stats.emit(_R_CUT_POP_CP)
        self._tidy_trail(lowest_mark)

    def _tidy_trail(self, mark: int) -> None:
        """Cut's trail tidying (as in DEC-10 Prolog).

        Entries above the discarded choice points' trail mark that
        reference cells *younger* than the surviving choice point are
        dead: a future backtrack would reclaim those cells wholesale,
        and untrailing them would write into truncated stack space.
        Bindings of older cells (and lazy global-cell allocation
        records) must survive the cut.
        """
        stats = self.stats
        trail = self.trail
        if len(trail) <= mark:
            return
        survivor = self.cp_stack[-1] if self.cp_stack else None
        kept = []
        for entry in trail[mark:]:
            stats.emit(_R_CUT_POP_CP)  # tidy scan step
            if survivor is None:
                continue
            if type(entry) is int:
                area = entry >> AREA_SHIFT
                off = entry & OFFSET_MASK
                needed = ((area == _GLOBAL and off < survivor.global_top)
                          or (area == _LOCAL and off < survivor.local_top))
                if needed:
                    kept.append(entry)
            else:
                # Lazy global-cell allocation records always survive: the
                # surviving choice point's global top is below the cell.
                kept.append(entry)
        del trail[mark:]
        self.mem.settop(Area.TRAIL, mark)
        for entry in kept:
            trail.append(entry)
            word = (_REF, entry) if type(entry) is int else (Tag.INT, 0)
            self.mem.write_stack(Area.TRAIL, word)

    # ------------------------------------------------------------------
    # Cell access, dereference, bind, trail
    # ------------------------------------------------------------------

    def _read_cell(self, addr: int):
        area = addr >> AREA_SHIFT
        off = addr & OFFSET_MASK
        if self._fused_on:
            mem = self.mem
            if area == _LOCAL:
                for frame in self.wf._owners:
                    if frame is not None and \
                            frame.base <= off < frame.base + frame.nlocals:
                        # A buffered slot: a work-file read.
                        slot = off - frame.base
                        self.stats.emit(
                            _R_FRAME_READ_BUF_BASE
                            if slot < BASE_RELATIVE_SLOTS and not slot % 8
                            else _R_FRAME_READ_BUF)
                        return mem._words[_LOCAL][off]
            mem._mem_access(_C_READ, area)
            pa = mem._packed_append
            if pa is not None:
                pa(addr << 2)
            return mem._words[area][off]
        if area == _LOCAL:
            frame = self.wf.owner_of_local(off)
            if frame is not None:
                self.wf.read_slot(off - frame.base)
                return self.mem.peek(_LOCAL, off)
        return self.mem.read(area, off)

    def _write_cell(self, addr: int, word) -> None:
        area = addr >> AREA_SHIFT
        off = addr & OFFSET_MASK
        if area == _LOCAL:
            frame = self.wf.owner_of_local(off)
            if frame is not None:
                self.wf.write_slot(off - frame.base)
                self.mem.poke(_LOCAL, off, word)
                return
        self.mem.write(area, off, word)

    def deref(self, word):
        """Follow REF chains to a value word or an UNDEF (unbound) word."""
        if word[0] != _REF:
            return word
        if self._fused_on:
            # Per chain link: deref step + the cell read in one bill
            # (per-area variants; buffered local slots bill their WF
            # mode instead of a memory access, as in _read_cell).
            stats = self.stats
            mem = self.mem
            owners = self.wf._owners
            pa = mem._packed_append
            words = mem._words
            bill = stats._log.append
            midx = stats.module.idx
            while True:
                addr = word[1]
                area = addr >> AREA_SHIFT
                off = addr & OFFSET_MASK
                if area == _LOCAL:
                    for frame in owners:
                        if frame is not None and \
                                frame.base <= off < frame.base + frame.nlocals:
                            slot = off - frame.base
                            bill((_S6_DEREF_BUF_BASE
                                  if slot < BASE_RELATIVE_SLOTS and not slot % 8
                                  else _S6_DEREF_BUF) + midx)
                            break
                    else:
                        frame = None
                    if frame is not None:
                        word = words[_LOCAL][off]
                        if word[0] != _REF:
                            return word
                        continue
                bill(_S6_DEREF_BY_AREA[area] + midx)
                if pa is not None:
                    pa(addr << 2)
                word = words[area][off]
                if word[0] != _REF:
                    return word
        emit = self.stats.emit
        read_cell = self._read_cell
        while word[0] == _REF:
            emit(_R_DEREF_STEP)
            word = read_cell(word[1])
        return word

    def bind(self, addr: int, word) -> None:
        """Bind the unbound cell at ``addr`` to ``word`` (a value or REF),
        trailing the binding when an older choice point requires it."""
        stats = self.stats
        if self._fused_on:
            area = addr >> AREA_SHIFT
            off = addr & OFFSET_MASK
            mem = self.mem
            pa = mem._packed_append
            if area == _LOCAL:
                f0, f1 = self.wf._owners
                buffered = ((f0 is not None
                             and f0.base <= off < f0.base + f0.nlocals)
                            or (f1 is not None
                                and f1.base <= off < f1.base + f1.nlocals))
            else:
                buffered = False
            cp_stack = self.cp_stack
            if cp_stack:
                cp = cp_stack[-1]
                if (area == _GLOBAL and off < cp.global_top) or \
                        (area == _LOCAL and off < cp.local_top):
                    stats.emit(_R_BIND)
                    # The cell write, as in _write_cell.
                    if buffered:
                        stats.emit(_R_FRAME_WRITE_BUF)
                    else:
                        mem._mem_access(_C_WRITE, area)
                        if pa is not None:
                            pa((addr << 2) | 1)
                    mem._words[area][off] = word
                    previous = stats.module
                    stats.module = _M_TRAIL
                    # trail push + its write-stack in one bill.
                    stats._log.append(_S_TRAIL_PUSH)
                    stack = mem._words[_TRAIL]
                    top = len(stack)
                    if top >= mem.word_limit:
                        raise overflow_error(_TRAIL, top)
                    if pa is not None:
                        pa((((_TRAIL << AREA_SHIFT) | top) << 2) | 2)
                    stack.append((_REF, addr))
                    trail = self.trail
                    trail.append(addr)
                    if len(trail) % 8 == 0:
                        stats.emit(_R_TRAIL_BUF)
                    stats.module = previous
                    return
            # bind + the cell write + trail skip in one bill (the
            # overwhelmingly common shape: no choice point protects the
            # cell); a buffered frame slot is a work-file write, as in
            # _write_cell.
            if buffered:
                stats._log.append(_S6_BIND_SKIP_BUF + stats.module.idx)
            else:
                stats._log.append(_S6_BIND_SKIP_BY_AREA[area]
                                  + stats.module.idx)
                if pa is not None:
                    pa((addr << 2) | 1)                 # WRITE
            mem._words[area][off] = word
            return
        stats.emit(_R_BIND)
        self._write_cell(addr, word)
        if self.cp_stack:
            cp = self.cp_stack[-1]
            area = addr >> AREA_SHIFT
            off = addr & OFFSET_MASK
            needs_trail = ((area == _GLOBAL and off < cp.global_top)
                           or (area == _LOCAL and off < cp.local_top))
        else:
            needs_trail = False
        if needs_trail:
            previous = stats.module
            stats.module = _M_TRAIL
            stats.emit(_R_TRAIL_PUSH)
            self.mem.write_stack(_TRAIL, (_REF, addr))
            self.trail.append(addr)
            if len(self.trail) % 8 == 0:
                # Trail-buffer spill through @WFAR2 (blockwise).
                stats.emit(_R_TRAIL_BUF)
            stats.module = previous
        else:
            stats.emit(_R_TRAIL_SKIP)

    def _bind_vars(self, a_addr: int, b_addr: int) -> None:
        """Bind two unbound variables, younger cell pointing at older.

        Global cells outrank local cells (locals die sooner); within an
        area, the lower offset is older.
        """
        if a_addr == b_addr:
            return
        a_rank = ((a_addr >> AREA_SHIFT) != _GLOBAL, a_addr & OFFSET_MASK)
        b_rank = ((b_addr >> AREA_SHIFT) != _GLOBAL, b_addr & OFFSET_MASK)
        if a_rank > b_rank:
            self.bind(a_addr, (_REF, b_addr))
        else:
            self.bind(b_addr, (_REF, a_addr))

    # ------------------------------------------------------------------
    # Unification
    # ------------------------------------------------------------------

    def unify(self, w1, w2) -> bool:
        """General unification of two runtime words (no occur check).

        A pair of compounds met again inside itself (cyclic terms)
        counts as unified there instead of looping.  Only the pairs on
        the current path are tracked: an ``(pair, None)`` entry below a
        compound pair's arguments on the stack closes it.
        """
        stats = self.stats
        emit = stats.emit
        deref = self.deref
        read_cell = self._read_cell
        stack = [(w1, w2)]
        open_pairs = set()
        while stack:
            a, b = stack.pop()
            if b is None:               # every argument pair of ``a`` done
                open_pairs.discard(a)
                continue
            a = deref(a)
            b = deref(b)
            emit(_R_UNIFY_DISPATCH)
            ta = a[0]
            tb = b[0]
            if ta == _UNDEF:
                if tb == _UNDEF:
                    if a[1] != b[1]:
                        self._bind_vars(a[1], b[1])
                else:
                    self.bind(a[1], b)
                continue
            if tb == _UNDEF:
                self.bind(b[1], a)
                continue
            if ta != tb:
                return False
            if ta == Tag.INT or ta == Tag.ATOM:
                emit(_R_UNIFY_CONST)
                if a[1] != b[1]:
                    return False
            elif ta == Tag.NIL:
                emit(_R_UNIFY_CONST)
            elif ta == Tag.LIST:
                emit(_R_UNIFY_LIST)
                if a[1] != b[1]:
                    pair = (a, b)
                    if pair in open_pairs:
                        continue
                    open_pairs.add(pair)
                    stack.append((pair, None))
                    stack.append((read_cell(a[1] + 1), read_cell(b[1] + 1)))
                    stack.append((read_cell(a[1]), read_cell(b[1])))
            elif ta == Tag.STRUCT:
                emit(_R_UNIFY_STRUCT)
                if a[1] == b[1]:
                    continue
                pair = (a, b)
                if pair in open_pairs:
                    continue
                fa = read_cell(a[1])
                fb = read_cell(b[1])
                if fa[1] != fb[1]:
                    return False
                _, arity = self.symbols.functor_name(fa[1])
                open_pairs.add(pair)
                stack.append((pair, None))
                for i in range(arity, 0, -1):
                    stack.append((read_cell(a[1] + i), read_cell(b[1] + i)))
            elif ta == Tag.VECT:
                if a[1] != b[1]:
                    return False
            else:
                return False
        emit(_R_UNIFY_RETURN)
        return True

    # ------------------------------------------------------------------
    # Head unification against instruction code (read/write mode)
    # ------------------------------------------------------------------

    def _fetch(self, node, packed_ok: bool = True) -> None:
        """Instruction fetch + decode of one code node (per-op path; the
        fused :meth:`_match` and :meth:`_build` bill it inline).

        Structure nodes cost an extra heap read: the functor descriptor
        word follows the STRUCT code word.
        """
        stats = self.stats
        self.mem.read(_HEAP, node.addr)
        if node.packed and packed_ok:
            stats.emit(_R_DECODE_PACKED)
        else:
            stats.emit(_R_DECODE)
        if node.__class__ is CStruct:
            self.mem.read(_HEAP, node.addr)
            stats.emit(_R_DECODE_OPCODE)

    def _unify_head(self, nodes: tuple, words: tuple, frame: Frame) -> bool:
        """Fused head unification: match each head-argument code term
        against its argument word, depth first and left to right.

        The arguments of a compound head term wait on a stack as (code
        term, cell address) pairs, and each cell is read when its pair
        comes up, exactly where the recursive per-op :meth:`_match`
        reads it; so the emission and trace streams are the per-op
        ones, with no Python call per term.
        """
        stats = self.stats
        bill = stats._log.append
        emit = stats.emit
        midx = stats.module.idx
        mem = self.mem
        pa = mem._packed_append
        mem_access = mem._mem_access
        area_words = mem._words
        local = area_words[_LOCAL]
        owners = self.wf._owners
        pending = []
        arg = 0
        nargs = len(nodes)
        while True:
            if pending:
                node, addr = pending.pop()
                area = addr >> AREA_SHIFT
                if area == _LOCAL:
                    word = self._read_cell(addr)
                else:
                    mem_access(_C_READ, area)
                    if pa is not None:
                        pa(addr << 2)
                    word = area_words[area][addr & OFFSET_MASK]
            elif arg < nargs:
                node = nodes[arg]
                word = words[arg]
                arg += 1
            else:
                return True
            cls = node.__class__
            # Instruction fetch + decode; a structure node reads its
            # functor word too.
            if cls is CStruct:
                bill((_S6_FETCH_STRUCT_PACKED if node.packed
                      else _S6_FETCH_STRUCT) + midx)
                if pa is not None:
                    pa(node.addr << 2)
                    pa(node.addr << 2)
            else:
                bill((_S6_FETCH_DECODE_PACKED if node.packed
                      else _S6_FETCH_DECODE) + midx)
                if pa is not None:
                    pa(node.addr << 2)
            if cls is CVar:
                slot = node.slot
                if not node.is_global:
                    off = frame.base + slot
                    if not node.is_first:
                        if not self.unify(
                                (_REF, (_LOCAL << AREA_SHIFT) | off), word):
                            return False
                        continue
                    emit(_R_BUILD_VAR)
                    if frame.buffer_id is not None:
                        emit(_R_FRAME_WRITE_BUF_BASE
                             if slot < BASE_RELATIVE_SLOTS
                             else _R_FRAME_WRITE_BUF)
                    else:
                        mem_access(_C_WRITE, _LOCAL)
                        if pa is not None:
                            pa((((_LOCAL << AREA_SHIFT) | off) << 2) | 1)
                    local[off] = \
                        word if word[0] != _UNDEF else (_REF, word[1])
                    continue
                cell = frame.gcells[slot]
                if cell < 0:
                    cell = self._global_cell(frame, slot)
                if not node.is_first:
                    if not self.unify((_REF, cell), word):
                        return False
                    continue
            elif cls is CVoid:
                continue
            # Dereference the argument (as deref: one bill per link).
            while word[0] == _REF:
                addr = word[1]
                area = addr >> AREA_SHIFT
                off = addr & OFFSET_MASK
                if area == _LOCAL:
                    for owner in owners:
                        if owner is not None and \
                                owner.base <= off < owner.base + owner.nlocals:
                            off -= owner.base
                            bill((_S6_DEREF_BUF_BASE
                                  if off < BASE_RELATIVE_SLOTS and not off % 8
                                  else _S6_DEREF_BUF) + midx)
                            word = local[addr & OFFSET_MASK]
                            break
                    else:
                        owner = None
                    if owner is not None:
                        continue
                bill(_S6_DEREF_BY_AREA[area] + midx)
                if pa is not None:
                    pa(addr << 2)
                word = area_words[area][off]
            tag = word[0]
            if cls is CConst:
                if tag == _UNDEF:
                    self.bind(word[1], node.word)
                    continue
                emit(_R_UNIFY_CONST)
                if word != node.word:
                    return False
                continue
            if cls is CVar:
                # A global's first occurrence: store the argument in its
                # fresh cell.
                if tag == _UNDEF:
                    self._bind_vars(cell, word[1])
                else:
                    self.bind(cell, word)
                continue
            if tag == _UNDEF:
                self.bind(word[1], self._build(node, frame, prefetched=True))
                continue
            addr = word[1]
            if cls is CList:
                if tag != _T_LIST:
                    return False
                emit(_R_UNIFY_LIST)
                pending.append((node.tail, addr + 1))
                pending.append((node.head, addr))
                continue
            if cls is CStruct:
                if tag != _T_STRUCT:
                    return False
                emit(_R_UNIFY_STRUCT)
                if self._read_cell(addr)[1] != node.functor_id:
                    return False
                args = node.args
                for i in range(len(args), 0, -1):
                    pending.append((args[i - 1], addr + i))
                continue
            raise MachineError(f"unexpected code node {node!r}")  # pragma: no cover

    def _match(self, node: CTerm, word, frame: Frame) -> bool:
        """Unify one head-argument code term with a runtime word (the
        per-op path; fused runs use :meth:`_unify_head`)."""
        stats = self.stats
        cls = node.__class__
        self._fetch(node)
        if cls is CConst:
            value = self.deref(word)
            if value[0] == _UNDEF:
                self.bind(value[1], node.word)
                return True
            stats.emit(_R_UNIFY_CONST)
            return value == node.word
        if cls is CVar:
            if node.is_global:
                cell = self._global_cell(frame, node.slot)
                if node.is_first:
                    # Fresh cell: store the argument directly (bind handles
                    # the unbound/value distinction and trailing).
                    value = self.deref(word)
                    if value[0] == _UNDEF:
                        self._bind_vars(cell, value[1])
                    else:
                        self.bind(cell, value)
                    return True
                return self.unify((_REF, cell), word)
            slot_addr = (_LOCAL << AREA_SHIFT) | (frame.base + node.slot)
            if node.is_first:
                stats.emit(_R_BUILD_VAR)
                value = word if word[0] != _UNDEF else (_REF, word[1])
                if frame.buffered:
                    self.wf.write_slot(node.slot, base_relative=True)
                    self.mem.poke(_LOCAL, frame.base + node.slot, value)
                else:
                    self.mem.write(_LOCAL, frame.base + node.slot, value)
                return True
            return self.unify((_REF, slot_addr), word)
        if cls is CVoid:
            return True
        if cls is CList:
            # The spine is a loop (a list may be any length); each
            # further cell is fetched as the recursive call would.
            while True:
                value = self.deref(word)
                if value[0] == _UNDEF:
                    built = self._build(node, frame, prefetched=True)
                    self.bind(value[1], built)
                    return True
                if value[0] != Tag.LIST:
                    return False
                stats.emit(_R_UNIFY_LIST)
                head_word = self._read_cell(value[1])
                if not self._match(node.head, head_word, frame):
                    return False
                word = self._read_cell(value[1] + 1)
                node = node.tail
                if node.__class__ is not CList:
                    return self._match(node, word, frame)
                self._fetch(node)
        if cls is CStruct:
            value = self.deref(word)
            if value[0] == _UNDEF:
                built = self._build(node, frame, prefetched=True)
                self.bind(value[1], built)
                return True
            if value[0] != Tag.STRUCT:
                return False
            stats.emit(_R_UNIFY_STRUCT)
            functor_word = self._read_cell(value[1])
            if functor_word[1] != node.functor_id:
                return False
            for i, arg in enumerate(node.args):
                arg_word = self._read_cell(value[1] + 1 + i)
                if not self._match(arg, arg_word, frame):
                    return False
            return True
        raise MachineError(f"unexpected code node {node!r}")  # pragma: no cover

    def _build(self, node: CTerm, frame: Frame, prefetched: bool = False):
        """Write mode: construct ``node`` on the global stack, return its word."""
        stats = self.stats
        mem = self.mem
        fused = self._fused_on
        pa = mem._packed_append
        cls = node.__class__
        if not prefetched:
            if not fused:
                self._fetch(node)
            elif cls is CStruct:
                stats._log.append((_S6_FETCH_STRUCT_PACKED if node.packed
                                   else _S6_FETCH_STRUCT) + stats.module.idx)
                if pa is not None:
                    pa(node.addr << 2)
                    pa(node.addr << 2)
            else:
                stats._log.append((_S6_FETCH_DECODE_PACKED if node.packed
                                   else _S6_FETCH_DECODE) + stats.module.idx)
                if pa is not None:
                    pa(node.addr << 2)
        if cls is CConst:
            return node.word
        if cls is CVar:
            stats.emit(_R_BUILD_VAR)
            if node.is_global:
                cell = frame.gcells[node.slot]
                if cell < 0:
                    cell = self._global_cell(frame, node.slot)
                return (_REF, cell)
            # Locals never occur nested (classification globalises them);
            # a local can only be built at top level of put_arg.
            return (_REF, (_LOCAL << AREA_SHIFT) | (frame.base + node.slot))
        glob = mem._words[_GLOBAL]
        limit = mem.word_limit
        g_hi = _GLOBAL << AREA_SHIFT
        if cls is CVoid:
            off = len(glob)
            cell = g_hi | off
            if fused:
                stats._log.append(_S6_PUSH_VAR + stats.module.idx)
                if off >= limit:
                    raise overflow_error(_GLOBAL, off)
                if pa is not None:
                    pa((cell << 2) | 2)
                glob.append((_UNDEF, cell))
            else:
                mem.write_stack(_GLOBAL, (_UNDEF, cell))
                stats.emit(_R_BUILD_VAR)
            return (_REF, cell)
        if cls is CList:
            # Walk the spine in a loop (a list may be any length): fetch
            # each cell and build its head, build the final tail, then
            # push the cells innermost first — the recursive order.
            head_words = []
            while True:
                head_words.append(self._build(node.head, frame))
                node = node.tail
                if node.__class__ is not CList:
                    break
                if not fused:
                    self._fetch(node)
                    continue
                stats._log.append((_S6_FETCH_DECODE_PACKED if node.packed
                                   else _S6_FETCH_DECODE) + stats.module.idx)
                if pa is not None:
                    pa(node.addr << 2)
            word = self._build(node, frame)
            for head_word in reversed(head_words):
                base = len(glob)
                if fused:
                    # build cell + both global pushes in one bill.
                    stats._log.append(_S6_BUILD_LIST + stats.module.idx)
                    if base + 1 >= limit:
                        raise overflow_error(
                            _GLOBAL, base if base >= limit else base + 1)
                    if pa is not None:
                        packed = ((g_hi | base) << 2) | 2
                        pa(packed)
                        pa(packed + 4)
                    glob.append(head_word)
                    glob.append(word)
                else:
                    stats.emit(_R_BUILD_CELL)
                    mem.write_stack(_GLOBAL, head_word)
                    mem.write_stack(_GLOBAL, word)
                word = (Tag.LIST, g_hi | base)
            return word
        if cls is CStruct:
            arg_words = [self._build(arg, frame) for arg in node.args]
            stats.emit(_R_BUILD_CELL)
            base = len(glob)
            arg_words.insert(0, (Tag.FUNC, node.functor_id))
            if fused:
                count = len(arg_words)
                if base + count > limit:
                    raise overflow_error(_GLOBAL, base + count)
                mem._mem_access_n(_C_WRITE_STACK, _GLOBAL, count)
                extend = mem._packed_extend
                if extend is not None:
                    packed = ((g_hi | base) << 2) | 2
                    extend(range(packed, packed + 4 * count, 4))
                glob.extend(arg_words)
            else:
                mem.write_stack_block(_GLOBAL, arg_words)
            return (Tag.STRUCT, g_hi | base)
        raise MachineError(f"unexpected code node {node!r}")  # pragma: no cover

    # ------------------------------------------------------------------
    # Body argument evaluation (get_arg)
    # ------------------------------------------------------------------

    def _put_args(self, nodes: tuple, frame: Frame, module: Module) -> list:
        """Evaluate a goal's argument code terms into register words.

        Argument setup for user-predicate calls belongs to the call
        machinery (``control``); the paper's ``get_arg`` module is the
        argument fetch for *builtin* predicates (§3.2).  The fused path
        is one loop per goal; the per-op path is :meth:`_put_arg` per
        argument.
        """
        if not self._fused_on:
            put_arg = self._put_arg
            return [put_arg(node, frame, module) for node in nodes]
        stats = self.stats
        stats.module = module
        bill = stats._log.append
        midx = module.idx
        mem = self.mem
        pa = mem._packed_append
        local = mem._words[_LOCAL]
        words = []
        for node in nodes:
            cls = node.__class__
            if cls is CConst:
                # arg fetch + its heap read in one bill.
                bill((_S6_GET_ARG_PACKED if node.packed else _S6_GET_ARG)
                     + midx)
                if pa is not None:
                    pa(node.addr << 2)
                words.append(node.word)
                continue
            if cls is CVar:
                slot = node.slot
                if node.is_global:
                    # No local-stack read here (the cell is a frame
                    # gcell), so the VMEM superinstruction does not
                    # apply; fuse just the fetch + heap read.
                    bill((_S6_GET_ARG_PACKED if node.packed else _S6_GET_ARG)
                         + midx)
                    if pa is not None:
                        pa(node.addr << 2)
                    stats.emit(_R_GET_ARG_VAR_MEM)
                    cell = frame.gcells[slot]
                    if cell < 0:
                        cell = self._global_cell(frame, slot)
                    words.append((_REF, cell))
                    continue
                off = frame.base + slot
                if frame.buffer_id is not None:
                    if slot < BASE_RELATIVE_SLOTS and not slot % 8:
                        code = (_S6_GA_VBUF_BASE_P if node.packed
                                else _S6_GA_VBUF_BASE)
                    else:
                        code = _S6_GA_VBUF_P if node.packed else _S6_GA_VBUF
                    bill(code + midx)
                    if pa is not None:
                        pa(node.addr << 2)
                else:
                    bill((_S6_GA_VMEM_P if node.packed else _S6_GA_VMEM)
                         + midx)
                    if pa is not None:
                        pa(node.addr << 2)
                        pa(((_LOCAL << AREA_SHIFT) | off) << 2)
                value = local[off]
                words.append((_REF, value[1]) if value[0] == _UNDEF
                             else value)
                continue
            if cls is CVoid:
                # arg fetch + heap read + fresh-global push in one bill.
                bill(_S6_GET_ARG_VOID + midx)
                if pa is not None:
                    pa(node.addr << 2)
                glob = mem._words[_GLOBAL]
                off = len(glob)
                if off >= mem.word_limit:
                    raise overflow_error(_GLOBAL, off)
                cell = (_GLOBAL << AREA_SHIFT) | off
                if pa is not None:
                    pa((cell << 2) | 2)
                glob.append((_UNDEF, cell))
                words.append((_REF, cell))
                continue
            # Compound argument: construct it (structure copying).
            bill((_S6_GET_ARG_PACKED if node.packed else _S6_GET_ARG)
                 + midx)
            if pa is not None:
                pa(node.addr << 2)
            stats.module = _M_UNIFY
            words.append(self._build(node, frame))
            stats.module = module
            stats.emit(_R_PUT_ARG)
        return words

    def _put_arg(self, node: CTerm, frame: Frame,
                 module: Module = Module.GET_ARG):
        """Evaluate one goal-argument code term into a register word
        (the per-op path of :meth:`_put_args`)."""
        stats = self.stats
        stats.module = module
        cls = node.__class__
        self.mem.read(_HEAP, node.addr)
        if cls is CConst:
            stats.emit(_R_GET_ARG_PACKED if node.packed else _R_GET_ARG)
            return node.word
        if cls is CVar:
            stats.emit(_R_GET_ARG_PACKED if node.packed else _R_GET_ARG)
            if node.is_global:
                stats.emit(_R_GET_ARG_VAR_MEM)
                return (_REF, self._global_cell(frame, node.slot))
            off = frame.base + node.slot
            if frame.buffered:
                if node.slot < 32 and node.slot % 8 == 0:
                    stats.emit(_R_GET_ARG_VAR_BUF_BASE)
                else:
                    stats.emit(_R_GET_ARG_VAR_BUF)
                value = self.mem.peek(_LOCAL, off)
            else:
                stats.emit(_R_GET_ARG_VAR_MEM)
                value = self.mem.read(_LOCAL, off)
            if value[0] == _UNDEF:
                return (_REF, value[1])
            return value
        if cls is CVoid:
            stats.emit(_R_GET_ARG)
            off = self.mem.top(_GLOBAL)
            cell = (_GLOBAL << AREA_SHIFT) | off
            self.mem.write_stack(_GLOBAL, (_UNDEF, cell))
            return (_REF, cell)
        # Compound argument: construct it (structure copying).
        stats.emit(_R_GET_ARG)
        stats.module = _M_UNIFY
        word = self._build(node, frame)
        stats.module = module
        stats.emit(_R_PUT_ARG)
        return word

    # ------------------------------------------------------------------
    # Builtin execution
    # ------------------------------------------------------------------

    def _dispatch_builtin(self, goal: BuiltinGoal, env: Env) -> bool:
        stats = self.stats
        stats.builtin_calls += 1
        args = self._put_args(goal.args, env.frame, _M_GET_ARG)
        stats.module = _M_BUILT
        stats.emit(_R_BUILTIN_ENTRY)
        builtin: Builtin = goal.builtin
        if builtin.weight:
            stats.emit(_R_BUILTIN_STEP, builtin.weight)
        result = builtin.fn(self, args)
        if result is True or result is False:
            stats.module = _M_BUILT
            stats.emit(_R_BUILTIN_EXIT)
            return result
        # Meta-call request: ("call", functor, arity, arg_words)
        _, functor, arity, call_args = result
        stats.emit(_R_BUILTIN_EXIT)
        stats.module = _M_CONTROL
        stats.inferences += 1
        proc = self.program.procedure(functor, arity)
        if proc is None:
            raise ExistenceError(functor, arity)
        stats.emit(_R_PROC_LOOKUP)
        mem = self.mem
        if self._fused_on:
            mem._mem_access(_C_READ, _HEAP)
            pa = mem._packed_append
            if pa is not None:
                pa(proc.descriptor_base << 2)
        else:
            mem.read(_HEAP, proc.descriptor_base)
        self._save_env(env)
        return self._call_procedure(proc, tuple(call_args), env, self.cur_index)

    # ------------------------------------------------------------------
    # Term decoding (for solutions / builtins; unbilled debug reads)
    # ------------------------------------------------------------------

    def decode_word(self, word) -> Term:
        """Convert a runtime word into a source-level term (no billing).

        Walks with an explicit stack of open compounds, so any depth or
        list length decodes; a compound met again inside itself is a
        cyclic term and raises :class:`MachineError`.
        """
        peek = self._peek_addr
        stack = []          # (word, name, decoded args, arg words left, last first)
        open_words = set()
        while True:
            word = self._peek_deref(word)
            tag = word[0]
            if tag == Tag.LIST or tag == Tag.STRUCT:
                if word in open_words:
                    raise MachineError("cyclic term while decoding")
                open_words.add(word)
                addr = word[1]
                if tag == Tag.LIST:
                    stack.append((word, ".", [], [peek(addr + 1), peek(addr)]))
                else:
                    name, arity = self.symbols.functor_name(peek(addr)[1])
                    stack.append((word, name, [],
                                  [peek(addr + i) for i in range(arity, 0, -1)]))
            else:
                if tag == _UNDEF:
                    term = Var(f"_A{word[1]}")
                elif tag == Tag.INT:
                    term = word[1]
                elif tag == Tag.ATOM:
                    term = Atom(self.symbols.atom_name(word[1]))
                elif tag == Tag.NIL:
                    term = Atom("[]")
                elif tag == Tag.VECT:
                    term = Struct("$vector", (word[1], peek(word[1])[1]))
                else:
                    raise MachineError(f"cannot decode word {word!r}")
                if not stack:
                    return term
                stack[-1][2].append(term)
            while not stack[-1][3]:
                word, name, args, _ = stack.pop()
                open_words.discard(word)
                term = Struct(name, tuple(args))
                if not stack:
                    return term
                stack[-1][2].append(term)
            word = stack[-1][3].pop()

    def _peek_addr(self, addr: int):
        return self.mem.peek(addr >> AREA_SHIFT, addr & OFFSET_MASK)

    def _peek_deref(self, word):
        while word[0] == _REF:
            word = self._peek_addr(word[1])
        return word

    # ------------------------------------------------------------------
    # Machine-level helpers used by builtins
    # ------------------------------------------------------------------

    def assert_clause(self, term: Term) -> None:
        """Runtime clause addition (assert/assertz)."""
        clause = self.program.add_clause(term)
        self._load_pending()
        # Bill the code words written into the heap.
        self.mem.flush_stack_block(_HEAP, clause.heap_base, clause.heap_size)
        # Incremental index maintenance: the new clause was appended to
        # its procedure, so a single add_clause keeps an existing
        # ClauseIndex position-aligned — no rebuild on the assert path.
        proc = self.program.procedure(clause.functor, clause.arity)
        index = proc.clause_index if proc is not None else None
        if index is not None and len(index) == len(proc.clauses) - 1:
            index.add_clause(*self._clause_first_arg(clause))

    def retract_fact(self, word) -> bool:
        """Remove the first fact whose head unifies with ``word``."""
        from repro.errors import TypeError_
        value = self.deref(word)
        if value[0] == Tag.ATOM:
            functor, arity = self.symbols.atom_name(value[1]), 0
            arg_words: list = []
        elif value[0] == Tag.STRUCT:
            functor_word = self._read_cell(value[1])
            functor, arity = self.symbols.functor_name(functor_word[1])
            arg_words = [self._read_cell(value[1] + 1 + i) for i in range(arity)]
            arg_words = [(_REF, w[1]) if w[0] == _UNDEF else w for w in arg_words]
        else:
            raise TypeError_("callable term", value)
        proc = self.program.procedure(functor, arity)
        if proc is None:
            return False
        for index, clause in enumerate(proc.clauses):
            if clause.body:
                continue
            mark = len(self.trail)
            frame = self._allocate_frame(clause)
            if self._fused_on:
                matched = self._unify_head(clause.head_args, arg_words, frame)
            else:
                matched = all(self._match(node, arg, frame)
                              for node, arg in zip(clause.head_args,
                                                   arg_words))
            if matched:
                proc.clauses.pop(index)
                # Patch an existing clause index in place (bucket drop +
                # id renumber) instead of rebuilding it from scratch.
                if proc.clause_index is not None:
                    proc.clause_index.remove_clause(index)
                self._serializer.load_procedure(proc)
                return True
            self._untrail_to(mark)
            self.stats.module = Module.BUILT
        return False

    def fresh_global_cell(self) -> int:
        off = self.mem.top(Area.GLOBAL)
        self.mem.write_stack(Area.GLOBAL, (_UNDEF, encode_address(Area.GLOBAL, off)))
        return encode_address(Area.GLOBAL, off)

    def build_term(self, term: Term):
        """Construct a source-level term on the global stack (for builtins
        like =../2 and functor/3 that synthesise terms at runtime)."""
        if isinstance(term, int):
            return (Tag.INT, term)
        if isinstance(term, Atom):
            if term.name == "[]":
                return (Tag.NIL, 0)
            return (Tag.ATOM, self.symbols.atom(term.name))
        if isinstance(term, Var):
            return (_REF, self.fresh_global_cell())
        assert isinstance(term, Struct)
        if term.functor == "." and term.arity == 2:
            head = self.build_term(term.args[0])
            tail = self.build_term(term.args[1])
            base = self.mem.top(Area.GLOBAL)
            self.mem.write_stack(Area.GLOBAL, head)
            self.mem.write_stack(Area.GLOBAL, tail)
            return (Tag.LIST, encode_address(Area.GLOBAL, base))
        functor_id = self.symbols.functor(term.functor, term.arity)
        arg_words = [self.build_term(arg) for arg in term.args]
        base = self.mem.top(Area.GLOBAL)
        self.mem.write_stack(Area.GLOBAL, (Tag.FUNC, functor_id))
        for word in arg_words:
            self.mem.write_stack(Area.GLOBAL, word)
        return (Tag.STRUCT, encode_address(Area.GLOBAL, base))


class Solution:
    """One answer: variable bindings decoded to source-level terms."""

    def __init__(self, bindings: dict[str, Term]):
        self.bindings = bindings

    def __getitem__(self, name: str) -> Term:
        return self.bindings[name]

    def __contains__(self, name: str) -> bool:
        return name in self.bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self.bindings.items())
        return f"Solution({inner})"


class Solver:
    """Resumable query execution: call :meth:`next` for each solution."""

    def __init__(self, machine: PSIMachine, query_name: str, var_names: list[str]):
        self.machine = machine
        self.query_name = query_name
        self.var_names = var_names
        self._cells: list[int] = []
        self._started = False
        self._exhausted = False

    def next(self) -> Solution | None:
        """Return the next solution, or None when exhausted."""
        if self._exhausted:
            return None
        m = self.machine
        if not self._started:
            self._started = True
            self._cells = [m.fresh_global_cell() for _ in self.var_names]
            args = tuple((Tag.REF, cell) for cell in self._cells)
            ok = m._start(self.query_name, len(self.var_names), args)
        else:
            ok = m._backtrack() and m._run()
        if not ok:
            self._exhausted = True
            return None
        bindings = {
            name: m.decode_word(m._peek_addr(cell))
            for name, cell in zip(self.var_names, self._cells)
        }
        return Solution(bindings)

    def all(self, limit: int = 1_000_000) -> list[Solution]:
        solutions = []
        while len(solutions) < limit:
            solution = self.next()
            if solution is None:
                break
            solutions.append(solution)
        return solutions

    def count(self, limit: int = 1_000_000) -> int:
        return len(self.all(limit))
