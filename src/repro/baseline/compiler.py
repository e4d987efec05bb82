"""Clause compiler for the WAM baseline (the DEC-10 Prolog compiler model).

Implements the classic compilation scheme:

* head arguments compile to ``get_*`` instructions, with nested
  compound terms flattened breadth-first into ``unify_*`` sequences and
  deferred ``get_structure``/``get_list`` on temporaries;
* body goals compile to ``put_*`` argument setup plus ``call``/
  ``execute`` (last-call optimisation) or inline ``builtin``;
* variables occurring in more than one chunk become permanent (Y)
  variables in an environment (``allocate``/``deallocate``), with
  ``put_unsafe_value``/``unify_local_value`` guarding against dangling
  references into deallocated environments;
* procedures whose clauses all have a non-variable first head argument
  get **first-argument indexing**: ``switch_on_term`` +
  ``switch_on_constant``/``switch_on_structure`` dispatch with
  try/retry/trust chains only where buckets still hold several clauses.
  This is the "close indexing method" of the paper's §3.1 — it is what
  lets DEC run NREVERSE-style deterministic code without choice points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baseline.isa import COSTS_NS, Instr, Op, X, Y
from repro.engine.frontend import GOAL_CALL, GOAL_CUT, NormalizedClause
from repro.engine.index import KIND_VAR, ClauseIndex, first_arg_descriptor
from repro.errors import PrologSyntaxError
from repro.prolog.terms import Atom, Struct, Term, Var, is_cons, is_nil

#: Builtins compiled to fast-code arithmetic: expression arguments are
#: evaluated inline (DEC-10 "fast-code" with mode declarations) instead
#: of being built as heap terms and re-traversed.
ARITH_FASTCODE = {("is", 2), ("=:=", 2), ("=\\=", 2),
                  ("<", 2), (">", 2), ("=<", 2), (">=", 2)}


@dataclass
class CompiledClause:
    code: list[Instr]
    n_permanents: int
    first_arg_kind: str
    first_arg_key: object  # constant value or (name, arity)


@dataclass
class CompiledProcedure:
    functor: str
    arity: int
    clauses: list[CompiledClause] = field(default_factory=list)
    code: list[Instr] = field(default_factory=list)   # entry + clause bodies
    entry: int = 0
    dirty: bool = True
    #: Absolute code offset of each clause's body, position-aligned
    #: with ``clauses`` — what the incremental assert/retract patching
    #: walks instead of re-deriving the layout.
    body_offsets: list[int] = field(default_factory=list)
    #: End (exclusive) of the *live* dispatch region starting at
    #: ``entry``; chain/table patching never looks outside it.
    dispatch_end: int = 0

    @property
    def indicator(self):
        return (self.functor, self.arity)


# ---------------------------------------------------------------------------
# Single clause compilation
# ---------------------------------------------------------------------------


class ClauseCompiler:
    """Compiles one normalized clause (shared frontend IR) to WAM code.

    Goal classification (user call / builtin / cut, meta-call marking)
    comes from :class:`repro.engine.frontend.NormalizedClause`; this
    compiler keeps only what is genuinely WAM register allocation — the
    chunk-based permanent-variable analysis.
    """

    def __init__(self, clause: NormalizedClause, builtin_table: dict):
        self.clause = clause
        self.builtin_table = builtin_table
        self.code: list[Instr] = []
        self.perms: dict[str, int] = {}
        self.temps: dict[str, int] = {}
        self.seen: set[str] = set()
        self.cut_level_slot: int | None = None
        self._xfree = 0

    # -- public -----------------------------------------------------------

    def compile(self) -> CompiledClause:
        head_args = self.clause.head_args
        goals = self.clause.goals
        calls = [i for i, g in enumerate(goals) if g.kind == GOAL_CALL]
        # Meta-calls (call/1 and variable goals) transfer control like
        # user calls: they end register lifetimes and require an
        # environment when non-final, so the continuation register can
        # be restored by deallocate.
        boundaries = [i for i, g in enumerate(goals)
                      if g.kind == GOAL_CALL or g.is_meta]
        needs_env = self._classify_variables(head_args, goals, boundaries)
        deep_cut = any(g.kind == GOAL_CUT for i, g in enumerate(goals)
                       if i > 0)
        if deep_cut and self.cut_level_slot is None:
            self.cut_level_slot = len(self.perms)
            self.perms["$cutlevel"] = self.cut_level_slot
            needs_env = True

        self._xfree = max([len(head_args)]
                          + [g.arity for g in goals]) \
            if (head_args or goals) else 0

        if needs_env:
            self.code.append(Instr(Op.ALLOCATE, len(self.perms)))
            if self.cut_level_slot is not None:
                self.code.append(Instr(Op.GET_LEVEL, (Y, self.cut_level_slot)))

        for i, arg in enumerate(head_args):
            self._compile_get(arg, i)

        last_call = calls[-1] if calls else None
        for i, goal in enumerate(goals):
            if goal.kind == GOAL_CUT:
                if i == 0 and not needs_env:
                    self.code.append(Instr(Op.NECK_CUT))
                elif self.cut_level_slot is not None:
                    self.code.append(Instr(Op.CUT, (Y, self.cut_level_slot)))
                else:
                    self.code.append(Instr(Op.NECK_CUT))
            elif goal.kind == GOAL_CALL:
                is_final = (i == last_call and i == len(goals) - 1)
                self._compile_call(goal.term, needs_env, tail=is_final)
                if is_final:
                    return self._finish(needs_env, tail_done=True)
            else:
                self._compile_builtin(goal.term)
        return self._finish(needs_env, tail_done=False)

    def _finish(self, needs_env: bool, tail_done: bool) -> CompiledClause:
        if not tail_done:
            if needs_env:
                self.code.append(Instr(Op.DEALLOCATE))
            self.code.append(Instr(Op.PROCEED))
        kind, key = first_arg_descriptor(self.clause.head)
        return CompiledClause(self.code, len(self.perms), kind, key)

    # -- classification ------------------------------------------------------

    def _is_meta(self, goal: Term) -> bool:
        if isinstance(goal, Var):
            return True
        return isinstance(goal, Struct) and goal.indicator == ("call", 1)

    def _classify_variables(self, head_args, goals, boundaries) -> bool:
        """Assign permanent (Y) slots; return whether an env is needed."""
        # Chunks: head+goals up to and including the first call, then one
        # chunk per subsequent inter-call segment.
        chunk_of: dict[str, set[int]] = {}
        chunk = 0
        def note(term: Term, chunk_id: int) -> None:
            stack = [term]
            while stack:
                current = stack.pop()
                if isinstance(current, Var):
                    chunk_of.setdefault(current.name, set()).add(chunk_id)
                elif isinstance(current, Struct):
                    stack.extend(current.args)
        for arg in head_args:
            note(arg, 0)
        for goal in goals:
            note(goal.term, chunk)
            if goal.kind == GOAL_CALL or goal.is_meta:
                chunk += 1
        for name, chunks in chunk_of.items():
            if len(chunks) > 1:
                self.perms[name] = len(self.perms)
        needs_env = bool(self.perms) or len(boundaries) > 1 or (
            len(boundaries) == 1 and boundaries[0] != len(goals) - 1)
        return needs_env

    # -- register handling ------------------------------------------------------

    def _fresh_x(self) -> int:
        index = self._xfree
        self._xfree += 1
        return index

    def _var_slot(self, name: str) -> tuple[str, int]:
        if name in self.perms:
            return (Y, self.perms[name])
        if name not in self.temps:
            self.temps[name] = self._fresh_x()
        return (X, self.temps[name])

    # -- head compilation ----------------------------------------------------------

    def _compile_get(self, arg: Term, areg: int) -> None:
        if isinstance(arg, Var):
            slot = self._var_slot(arg.name)
            if arg.name in self.seen:
                self.code.append(Instr(Op.GET_VALUE, slot, areg))
            else:
                self.seen.add(arg.name)
                self.code.append(Instr(Op.GET_VARIABLE, slot, areg))
            return
        if isinstance(arg, int):
            self.code.append(Instr(Op.GET_CONSTANT, arg, areg))
            return
        if isinstance(arg, Atom):
            if is_nil(arg):
                self.code.append(Instr(Op.GET_NIL, areg))
            else:
                self.code.append(Instr(Op.GET_CONSTANT, arg.name, areg))
            return
        assert isinstance(arg, Struct)
        queue: list[tuple[Term, tuple[str, int] | int]] = [(arg, areg)]
        while queue:
            term, where = queue.pop(0)
            if is_cons(term):
                self.code.append(Instr(Op.GET_LIST, where))
                self._unify_args([term.args[0], term.args[1]], queue)
            else:
                self.code.append(Instr(
                    Op.GET_STRUCTURE, (term.functor, term.arity), where))
                self._unify_args(list(term.args), queue)

    def _unify_args(self, args: list[Term], queue: list) -> None:
        for sub in args:
            if isinstance(sub, Var):
                slot = self._var_slot(sub.name)
                if sub.name in self.seen:
                    if slot[0] == Y:
                        self.code.append(Instr(Op.UNIFY_LOCAL_VALUE, slot))
                    else:
                        self.code.append(Instr(Op.UNIFY_VALUE, slot))
                else:
                    self.seen.add(sub.name)
                    self.code.append(Instr(Op.UNIFY_VARIABLE, slot))
            elif isinstance(sub, int):
                self.code.append(Instr(Op.UNIFY_CONSTANT, sub))
            elif isinstance(sub, Atom):
                if is_nil(sub):
                    self.code.append(Instr(Op.UNIFY_NIL))
                else:
                    self.code.append(Instr(Op.UNIFY_CONSTANT, sub.name))
            else:
                temp = (X, self._fresh_x())
                self.code.append(Instr(Op.UNIFY_VARIABLE, temp))
                queue.append((sub, temp))

    # -- body compilation --------------------------------------------------------------

    def _compile_call(self, goal: Term, needs_env: bool, tail: bool) -> None:
        name, args = _goal_parts(goal)
        for i, arg in enumerate(args):
            self._compile_put(arg, i, tail)
        if tail:
            if needs_env:
                self.code.append(Instr(Op.DEALLOCATE))
            self.code.append(Instr(Op.EXECUTE, (name, len(args))))
        else:
            self.code.append(Instr(Op.CALL, (name, len(args))))
            # A call ends the lifetime of every temporary register.
            self.temps.clear()

    def _compile_builtin(self, goal: Term) -> None:
        if isinstance(goal, Var):
            descriptor = self.builtin_table[("call", 1)]
            slot = self._var_slot(goal.name)
            self.code.append(Instr(Op.PUT_VALUE, slot, 0))
            self.code.append(Instr(Op.BUILTIN, descriptor, 1))
            return
        name, args = _goal_parts(goal)
        descriptor = self.builtin_table[(name, len(args))]
        if self._is_meta(goal):
            for i, arg in enumerate(args):
                self._compile_put(arg, i, tail=False)
            self.code.append(Instr(Op.BUILTIN, descriptor, len(args)))
            self.temps.clear()   # control transfer ends temp lifetimes
            return
        if (name, len(args)) in ARITH_FASTCODE:
            specs = list(args)
            if name == "is" and isinstance(args[0], Var) \
                    and args[0].name not in self.seen:
                # Fresh result variable: unconditional assignment (safe
                # across re-execution after backtracking).
                slot = self._var_slot(args[0].name)
                self.seen.add(args[0].name)
                target_spec = ("fv", slot)
                rhs = self._expression_spec(args[1])
                if rhs is not None:
                    self.code.append(Instr(Op.BUILTIN_ARITH, descriptor,
                                           (target_spec, rhs)))
                    return
            else:
                compiled = tuple(self._expression_spec(arg) for arg in args)
                if all(spec is not None for spec in compiled):
                    self.code.append(Instr(Op.BUILTIN_ARITH, descriptor,
                                           compiled))
                    return
        for i, arg in enumerate(args):
            self._compile_put(arg, i, tail=False)
        self.code.append(Instr(Op.BUILTIN, descriptor, len(args)))

    def _expression_spec(self, term: Term):
        """Compile an arithmetic argument to an inline expression tree:
        ints stay ints, variables become ("v", slot) (marking them seen,
        creating fresh slots for result variables), operators become
        ("op", name, subspecs).  Returns None for non-arithmetic shapes
        (atoms, lists), falling back to the generic builtin path."""
        if isinstance(term, int):
            return term
        if isinstance(term, Var):
            slot = self._var_slot(term.name)
            self.seen.add(term.name)
            return ("v", slot)
        if isinstance(term, Struct) and not is_cons(term):
            subs = tuple(self._expression_spec(a) for a in term.args)
            if any(s is None for s in subs):
                return None
            return ("op", term.functor, subs)
        return None

    def _compile_put(self, arg: Term, areg: int, tail: bool) -> None:
        if isinstance(arg, Var):
            slot = self._var_slot(arg.name)
            if arg.name not in self.seen:
                self.seen.add(arg.name)
                self.code.append(Instr(Op.PUT_VARIABLE, slot, areg))
            elif tail and slot[0] == Y:
                self.code.append(Instr(Op.PUT_UNSAFE_VALUE, slot, areg))
            else:
                self.code.append(Instr(Op.PUT_VALUE, slot, areg))
            return
        if isinstance(arg, int):
            self.code.append(Instr(Op.PUT_CONSTANT, arg, areg))
            return
        if isinstance(arg, Atom):
            if is_nil(arg):
                self.code.append(Instr(Op.PUT_NIL, areg))
            else:
                self.code.append(Instr(Op.PUT_CONSTANT, arg.name, areg))
            return
        assert isinstance(arg, Struct)
        self._put_compound(arg, areg)

    def _put_compound(self, term: Struct, where: tuple[str, int] | int) -> None:
        """Build a compound bottom-up: nested compounds into fresh temps.

        Walks an explicit stack of ``[term, where, prepared, next
        argument]`` frames, so any list length or depth compiles; each
        nested compound gets its temp and its code before the next
        argument, as a recursive walk would.
        """
        stack = [[term, where, [], 0]]
        while stack:
            frame = stack[-1]
            term, where, prepared, index = frame
            if index < len(term.args):
                sub = term.args[index]
                frame[3] = index + 1
                if isinstance(sub, Struct):
                    temp = (X, self._fresh_x())
                    prepared.append(("temp", temp))
                    stack.append([sub, temp, [], 0])
                else:
                    prepared.append(("plain", sub))
                continue
            stack.pop()
            self._emit_compound(term, where, prepared)

    def _emit_compound(self, term: Struct, where, prepared: list) -> None:
        """Emit the put and unify instructions of one built compound."""
        if is_cons(term):
            self.code.append(Instr(Op.PUT_LIST, where))
        else:
            self.code.append(Instr(Op.PUT_STRUCTURE, (term.functor, term.arity), where))
        for kind, value in prepared:
            if kind == "temp":
                self.code.append(Instr(Op.UNIFY_VALUE, value))
                continue
            sub = value
            if isinstance(sub, Var):
                slot = self._var_slot(sub.name)
                if sub.name in self.seen:
                    if slot[0] == Y:
                        self.code.append(Instr(Op.UNIFY_LOCAL_VALUE, slot))
                    else:
                        self.code.append(Instr(Op.UNIFY_VALUE, slot))
                else:
                    self.seen.add(sub.name)
                    self.code.append(Instr(Op.UNIFY_VARIABLE, slot))
            elif isinstance(sub, int):
                self.code.append(Instr(Op.UNIFY_CONSTANT, sub))
            elif is_nil(sub):
                self.code.append(Instr(Op.UNIFY_NIL))
            else:
                assert isinstance(sub, Atom)
                self.code.append(Instr(Op.UNIFY_CONSTANT, sub.name))


def _goal_parts(goal: Term) -> tuple[str, tuple[Term, ...]]:
    if isinstance(goal, Atom):
        return goal.name, ()
    if isinstance(goal, Struct):
        return goal.functor, goal.args
    raise PrologSyntaxError(f"invalid goal {goal!r}")


# ---------------------------------------------------------------------------
# Procedure assembly with first-argument indexing
# ---------------------------------------------------------------------------


def _generate_dispatch(clauses: list[CompiledClause], arity: int,
                       body_offsets: list[int], base: int) -> list[Instr]:
    """Dispatch instructions for clause bodies at absolute
    ``body_offsets``, assuming the dispatch itself is placed at code
    offset ``base`` (all chain/table addresses are absolute).

    Bucket construction goes through the backend-neutral
    :class:`repro.engine.index.ClauseIndex` — the same analysis the PSI
    interpreter's indexed configuration dispatches through — so both
    engines provably select from identical candidate chains.  The
    ``indexable`` precondition (no var first arguments) means the
    eagerly-merged buckets degenerate to plain per-key clause lists
    here, keeping the emitted dispatch identical to the historical
    DEC-10 layout.
    """
    code: list[Instr] = []

    def emit_chain(targets: list[int]) -> int:
        """Emit a try/retry/trust chain over clause body addresses."""
        if len(targets) == 1:
            return targets[0]
        at = base + len(code)
        code.append(Instr(Op.TRY, targets[0]))
        for target in targets[1:-1]:
            code.append(Instr(Op.RETRY, target))
        code.append(Instr(Op.TRUST, targets[-1]))
        return at

    indexable = (arity >= 1
                 and len(clauses) > 1
                 and all(c.first_arg_kind != KIND_VAR for c in clauses))
    if not indexable:
        if len(clauses) > 1:
            emit_chain(list(body_offsets))
        return code

    index = ClauseIndex()
    for clause in clauses:
        index.add_clause(clause.first_arg_kind, clause.first_arg_key)
    # Reserve slot 0 for switch_on_term; chains follow.
    code.append(Instr(Op.NOOP))  # placeholder, patched below
    var_at = emit_chain(list(body_offsets))
    const_table = {}
    for key, ids in index.const_buckets.items():
        const_table[key] = emit_chain([body_offsets[i] for i in ids])
    struct_table = {}
    for key, ids in index.struct_buckets.items():
        struct_table[key] = emit_chain([body_offsets[i] for i in ids])
    list_at = emit_chain([body_offsets[i] for i in index.list_ids]) \
        if index.list_ids else -1
    const_at = -1
    if const_table:
        const_at = base + len(code)
        code.append(Instr(Op.SWITCH_ON_CONSTANT, const_table))
    struct_at = -1
    if struct_table:
        struct_at = base + len(code)
        code.append(Instr(Op.SWITCH_ON_STRUCTURE, struct_table))
    code[0] = Instr(Op.SWITCH_ON_TERM, var_at, const_at, list_at, struct_at)
    return code


def assemble_procedure(proc: CompiledProcedure) -> None:
    """(Re)build a procedure's entry code with indexing.

    Layout: [entry dispatch][chains][clause code...].  All branch
    targets are absolute indices into ``proc.code``.
    """
    clauses = proc.clauses
    bodies: list[list[Instr]] = [c.code for c in clauses]
    body_offsets: list[int] = []

    def layout(dispatch_length: int) -> None:
        body_offsets.clear()
        cursor = dispatch_length
        for body in bodies:
            body_offsets.append(cursor)
            cursor += len(body)

    # Iterate to a fixed point on dispatch length (it converges in two
    # rounds because chain shapes depend only on clause counts).
    layout(0)
    dispatch = _generate_dispatch(clauses, proc.arity, body_offsets, 0)
    previous_length = -1
    while len(dispatch) != previous_length:
        previous_length = len(dispatch)
        layout(previous_length)
        dispatch = _generate_dispatch(clauses, proc.arity, body_offsets, 0)

    final_code = list(dispatch)
    for body in bodies:
        final_code.extend(body)
    proc.code = final_code
    proc.entry = 0
    proc.dirty = False
    proc.body_offsets = list(body_offsets)
    proc.dispatch_end = len(dispatch)


def append_clause(proc: CompiledProcedure, compiled: CompiledClause) -> None:
    """Incremental assert: splice one compiled clause into an already
    assembled procedure without reassembling it.

    The new body goes at the end of the code vector and a fresh
    dispatch region is appended after it (``proc.entry`` moves; the old
    dispatch becomes dead code).  Only the dispatch — O(#clauses)
    instructions — is regenerated; no clause body is recompiled or
    copied, so heavy assert loops cost O(new clause) instead of
    O(procedure).  Existing body offsets never move, which also keeps
    any live choice point's saved code addresses valid — something the
    full reassembly could not guarantee.
    """
    proc.clauses.append(compiled)
    base = len(proc.code)
    proc.code.extend(compiled.code)
    proc.body_offsets.append(base)
    dispatch_base = len(proc.code)
    dispatch = _generate_dispatch(proc.clauses, proc.arity,
                                  proc.body_offsets, dispatch_base)
    if dispatch:
        proc.code.extend(dispatch)
        proc.entry = dispatch_base
        proc.dispatch_end = len(proc.code)
    else:
        # Single clause: enter the body directly, no dispatch region.
        proc.entry = proc.body_offsets[0]
        proc.dispatch_end = proc.entry
    proc.dirty = False


def patch_out_clause(proc: CompiledProcedure, position: int) -> None:
    """In-place retract patch: drop clause ``position``'s targets from
    the live dispatch region without reassembling the procedure.

    The caller has already popped ``proc.clauses[position]``.  Every
    try/retry/trust chain containing the clause's body offset is
    rewritten *within its own span* (shrunk chains are padded with
    unreachable FAILs; a chain reduced to one target becomes a JUMP,
    to zero targets a FAIL), and switch-table entries pointing directly
    at the body are deleted.  Remaining body offsets never move, so no
    other target in the procedure — including addresses saved in live
    choice points — needs fixing.
    """
    target = proc.body_offsets.pop(position)
    code = proc.code
    if not proc.clauses:
        # Last clause gone: the procedure now always fails.
        proc.entry = len(code)
        code.append(Instr(Op.FAIL))
        proc.dispatch_end = len(code)
        return
    i, end = proc.entry, proc.dispatch_end
    while i < end:
        ins = code[i]
        op = ins.op
        if op is Op.TRY:
            j = i
            targets = [ins[1]]
            while code[j + 1].op is Op.RETRY:
                j += 1
                targets.append(code[j][1])
            j += 1
            assert code[j].op is Op.TRUST
            targets.append(code[j][1])
            if target in targets:
                remaining = [t for t in targets if t != target]
                if len(remaining) == 1:
                    fill = [Instr(Op.JUMP, remaining[0])]
                else:
                    fill = ([Instr(Op.TRY, remaining[0])]
                            + [Instr(Op.RETRY, t) for t in remaining[1:-1]]
                            + [Instr(Op.TRUST, remaining[-1])])
                fill += [Instr(Op.FAIL)] * (j - i + 1 - len(fill))
                code[i:j + 1] = fill
            i = j + 1
        elif op is Op.JUMP:
            # A chain already reduced to one clause by an earlier patch.
            if ins[1] == target:
                code[i] = Instr(Op.FAIL)
            i += 1
        elif op is Op.SWITCH_ON_CONSTANT or op is Op.SWITCH_ON_STRUCTURE:
            table = ins[1]
            for key in [k for k, v in table.items() if v == target]:
                del table[key]
            i += 1
        elif op is Op.SWITCH_ON_TERM:
            if target in (ins[1], ins[2], ins[3], ins[4]):
                code[i] = Instr(Op.SWITCH_ON_TERM,
                                *[-1 if t == target else t
                                  for t in (ins[1], ins[2], ins[3], ins[4])])
            i += 1
        else:
            i += 1
