"""Error behaviour of builtins and machine limits."""

import pytest

from repro.core import MachineConfig, PSIMachine
from repro.errors import (
    EvaluationError,
    ExistenceError,
    InstantiationError,
    MachineError,
    ReproError,
    ResourceLimitExceeded,
    TypeError_,
)


@pytest.fixture
def m():
    machine = PSIMachine()
    machine.consult("anchor.")
    return machine


class TestArithmeticErrors:
    def test_unbound(self, m):
        with pytest.raises(InstantiationError):
            m.run("X is Y + 1")

    def test_division_by_zero(self, m):
        with pytest.raises(EvaluationError):
            m.run("X is 5 // 0")
        with pytest.raises(EvaluationError):
            m.run("X is 5 mod 0")

    def test_non_evaluable_functor(self, m):
        with pytest.raises(TypeError_):
            m.run("X is foo(1)")

    def test_atom_in_expression(self, m):
        with pytest.raises(TypeError_):
            m.run("X is foo")

    def test_list_in_expression(self, m):
        with pytest.raises(TypeError_):
            m.run("X is [1]")


class TestCallErrors:
    def test_unbound_meta_call(self, m):
        with pytest.raises(InstantiationError):
            m.run("call(G)")

    def test_integer_meta_call(self, m):
        with pytest.raises(TypeError_):
            m.run("call(42)")

    def test_undefined_predicate(self, m):
        with pytest.raises(ExistenceError) as info:
            m.run("missing(1, 2)")
        assert info.value.functor == "missing"
        assert info.value.arity == 2


class TestTermErrors:
    def test_functor_unbound_both_ways(self, m):
        with pytest.raises(InstantiationError):
            m.run("functor(T, N, A)")

    def test_univ_unbound(self, m):
        with pytest.raises(InstantiationError):
            m.run("T =.. L")

    def test_univ_non_atom_head(self, m):
        with pytest.raises(TypeError_):
            m.run("T =.. [1, 2]")

    def test_counter_requires_atom(self, m):
        with pytest.raises(TypeError_):
            m.run("counter_inc(42)")

    def test_vector_bad_size(self, m):
        with pytest.raises(TypeError_):
            m.run("new_vector(V, foo)")

    def test_vector_ref_non_vector(self, m):
        with pytest.raises(TypeError_):
            m.run("vector_ref(notvec, 0, X)")


@pytest.fixture(params=[True, False], ids=["fused", "unfused"])
def limited(request):
    """A machine factory for one configuration: the fused path inlines
    the stack pushes and truncations whose checks the unfused path
    leaves to the memory system, so each limit is run on both and must
    fail with the same error."""
    def make(**limits):
        return PSIMachine(MachineConfig(fused=request.param, **limits))
    return make


def _limit_error(machine, program, goal):
    machine.consult(program)
    with pytest.raises(ReproError) as info:
        machine.run(goal)
    return info.value


class TestLimits:
    def test_activation_limit(self, limited):
        error = _limit_error(limited(max_calls=100), "loop :- loop.", "loop")
        assert type(error) is ResourceLimitExceeded
        assert str(error) == "activation limit exceeded (101)"

    def test_word_limit(self, limited):
        error = _limit_error(limited(word_limit=2000), """
        grow(N, [N|T]) :- N1 is N + 1, grow(N1, T).
        """, "grow(0, L)")
        assert type(error) is MachineError
        assert str(error) == "global stack overflow (2003 words)"

    def test_local_stack_overflow(self, limited):
        """Deep non-tail recursion whose frames hold more locals than
        an environment's control frame has words."""
        error = _limit_error(limited(word_limit=2000), """
        deep(0) :- !.
        deep(N) :- N1 is N - 1, p(A, B, C, D, E, F, G, H, I, J, K, L),
                   deep(N1), p(A, B, C, D, E, F, G, H, I, J, K, L).
        p(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12).
        """, "deep(1000)")
        assert type(error) is MachineError
        assert str(error) == "local stack overflow (2002 words)"

    @pytest.mark.parametrize("body", [
        "alt(N), N1 is N - 1, cps(N1)",
        "alt(N), N1 is N - 1, alt(N1), cps(N1)",
    ], ids=["env-frame", "choice-point"])
    def test_control_stack_overflow(self, limited, body):
        """Every level pushes an environment frame and leaves one or two
        choice points behind (20 or 30 words), so the push past the
        limit is an environment frame or a choice point."""
        error = _limit_error(limited(word_limit=2000), f"""
        alt(_).
        alt(_).
        cps(N) :- {body}.
        """, "cps(1000)")
        assert type(error) is MachineError
        assert str(error) == "control stack overflow (2010 words)"

    def test_errors_are_repro_errors(self):
        for cls in (EvaluationError, InstantiationError, TypeError_,
                    ExistenceError, ResourceLimitExceeded):
            assert issubclass(cls, ReproError)
