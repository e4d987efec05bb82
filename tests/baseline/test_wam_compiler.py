"""Unit tests for the WAM clause compiler and indexing assembly."""

import pytest

from repro.baseline.builtins import BASELINE_BUILTINS
from repro.baseline.compiler import (
    ClauseCompiler,
    CompiledProcedure,
    assemble_procedure,
)
from repro.baseline.isa import Op
from repro.engine.frontend import Frontend
from repro.engine.index import (
    KIND_CONST,
    KIND_LIST,
    KIND_STRUCT,
    KIND_VAR,
    first_arg_descriptor,
)
from repro.prolog import parse_term


def compile_clause(text):
    batch = Frontend(BASELINE_BUILTINS).expand_clause(parse_term(text))
    return ClauseCompiler(batch.main, BASELINE_BUILTINS).compile()


def ops(compiled):
    return [i.op for i in compiled.code]


class TestFirstArgDescriptor:
    @pytest.mark.parametrize("text,kind", [
        ("p(X)", KIND_VAR),
        ("p(1)", KIND_CONST),
        ("p(foo)", KIND_CONST),
        ("p([])", KIND_CONST),
        ("p([H|T])", KIND_LIST),
        ("p(f(X))", KIND_STRUCT),
        ("p", KIND_VAR),
    ])
    def test_kinds(self, text, kind):
        head, _ = parse_term(text), None
        assert first_arg_descriptor(head)[0] == kind


class TestClauseCompilation:
    def test_fact_compiles_to_gets_and_proceed(self):
        compiled = compile_clause("p(1, foo)")
        assert ops(compiled) == [Op.GET_CONSTANT, Op.GET_CONSTANT, Op.PROCEED]

    def test_chain_rule_uses_execute(self):
        compiled = compile_clause("p(X) :- q(X)")
        sequence = ops(compiled)
        assert Op.EXECUTE in sequence
        assert Op.CALL not in sequence
        assert Op.ALLOCATE not in sequence

    def test_two_calls_need_environment(self):
        compiled = compile_clause("p(X) :- q(X), r(X)")
        sequence = ops(compiled)
        assert sequence[0] == Op.ALLOCATE
        assert Op.CALL in sequence
        assert Op.DEALLOCATE in sequence
        assert sequence[-1] == Op.EXECUTE
        assert compiled.n_permanents == 1    # X survives the first call

    def test_head_structure_flattening(self):
        compiled = compile_clause("p(f(g(X)))")
        sequence = ops(compiled)
        # get_structure f/1, unify_variable Xtemp, then deferred
        # get_structure g/1 against the temp.
        assert sequence.count(Op.GET_STRUCTURE) == 2
        assert Op.UNIFY_VARIABLE in sequence

    def test_nested_list_head(self):
        compiled = compile_clause("p([a, b])")
        sequence = ops(compiled)
        assert sequence.count(Op.GET_LIST) == 2
        assert Op.UNIFY_NIL in sequence

    def test_body_structure_built_bottom_up(self):
        compiled = compile_clause("p :- q(f(g(1)))")
        sequence = ops(compiled)
        first_put = sequence.index(Op.PUT_STRUCTURE)
        # inner g/1 put before outer f/1
        inner = compiled.code[first_put]
        assert inner[1] == ("g", 1)

    def test_neck_cut(self):
        compiled = compile_clause("p(X) :- !, q(X)")
        assert Op.NECK_CUT in ops(compiled)

    def test_deep_cut_uses_get_level(self):
        compiled = compile_clause("p(X) :- q(X), !, r(X)")
        sequence = ops(compiled)
        assert Op.GET_LEVEL in sequence
        assert Op.CUT in sequence

    def test_builtin_inline_fastcode(self):
        compiled = compile_clause("p(X, Y) :- Y is X + 1")
        sequence = ops(compiled)
        # Arithmetic compiles to the fast-code instruction: no argument
        # terms are built, no call.
        assert Op.BUILTIN_ARITH in sequence
        assert Op.PUT_STRUCTURE not in sequence
        assert Op.CALL not in sequence

    def test_non_arith_builtin_inline(self):
        compiled = compile_clause("p(X) :- write(X)")
        assert Op.BUILTIN in ops(compiled)

    def test_fastcode_falls_back_on_list_argument(self):
        compiled = compile_clause("p(X) :- X is [1]")
        assert Op.BUILTIN in ops(compiled)
        assert Op.BUILTIN_ARITH not in ops(compiled)

    def test_meta_call_forces_environment(self):
        compiled = compile_clause("p(G, X) :- call(G), X > 0")
        sequence = ops(compiled)
        assert Op.ALLOCATE in sequence
        assert Op.DEALLOCATE in sequence

    def test_unsafe_value_in_last_call(self):
        compiled = compile_clause("p(R) :- q(X), r(X, R)")
        assert Op.PUT_UNSAFE_VALUE in ops(compiled)

    def test_permanent_in_structure_uses_local_value(self):
        compiled = compile_clause("p(X) :- q(X), s(f(X))")
        assert Op.UNIFY_LOCAL_VALUE in ops(compiled)


class TestIndexing:
    def make_proc(self, clause_texts):
        proc = CompiledProcedure("t", 1)
        for text in clause_texts:
            proc.clauses.append(compile_clause(text))
        assemble_procedure(proc)
        return proc

    def test_all_const_first_args_get_switch(self):
        proc = self.make_proc(["t(a)", "t(b)", "t(c)"])
        assert proc.code[0].op == Op.SWITCH_ON_TERM
        assert any(i.op == Op.SWITCH_ON_CONSTANT for i in proc.code)

    def test_var_clause_prevents_indexing(self):
        proc = self.make_proc(["t(a)", "t(X)"])
        assert proc.code[0].op == Op.TRY

    def test_single_clause_no_dispatch(self):
        proc = self.make_proc(["t(a)"])
        assert proc.code[0].op == Op.GET_CONSTANT

    def test_bucket_chain_for_duplicate_keys(self):
        proc = self.make_proc(["t(a)", "t(a)", "t(b)"])
        switch = next(i for i in proc.code if i.op == Op.SWITCH_ON_CONSTANT)
        table = switch[1]
        # 'a' bucket points at a try/trust chain; 'b' directly at the body.
        a_target = table["a"]
        assert proc.code[a_target].op == Op.TRY
        b_target = table["b"]
        assert proc.code[b_target].op != Op.TRY

    def test_branch_targets_in_range(self):
        proc = self.make_proc(["t([])", "t([H|T]) :- t(T)", "t(f(X)) :- t(X)"])
        for instr in proc.code:
            if instr.op in (Op.TRY, Op.RETRY, Op.TRUST):
                assert 0 <= instr[1] < len(proc.code)
            if instr.op == Op.SWITCH_ON_TERM:
                for target in instr[1:]:
                    assert target == -1 or 0 <= target < len(proc.code)
