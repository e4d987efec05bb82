"""The engine protocol and the two adapters implementing it.

:class:`AbstractEngine` is the surface the differential oracle (and any
other engine-agnostic tooling) programs against: load a program, solve
a goal to a tuple of canonical answers, read counters/output, get a
uniform stats facade.  :class:`PSIEngine` and :class:`WAMEngine` adapt
:class:`~repro.core.machine.PSIMachine` and
:class:`~repro.baseline.machine.WAMMachine` to it.

Answer capture is *billing-free*: both adapters go through the
machines' existing solver decode paths (``decode_word`` on the PSI,
``decode_cell`` on the WAM), which peek at memory without charging
microinstructions or cost-model events.  Solving through an adapter
therefore leaves the machine's accounting exactly as a direct
``machine.solve`` would — the golden-digest and eval-report contracts
see no difference.

The facade's ``work``/``work_unit`` pair deliberately does not try to
make the machines' effort commensurable (microsteps and WAM
instructions are different currencies); it exists so engine-agnostic
code can *report* effort without knowing which engine ran.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.engine.answers import Answer, canonical_answer

@dataclass(frozen=True)
class EngineStatsFacade:
    """Uniform view of one engine's accounting after a run.

    ``work`` is the engine's native effort measure and ``work_unit``
    names it (``"microsteps"`` on the PSI, ``"instructions"`` on the
    WAM); ``time_ms`` is each cost model's modelled time, comparable
    across engines the same way Table 1 compares them.
    """

    engine: str
    inferences: int
    time_ms: float
    work: int
    work_unit: str


@runtime_checkable
class AbstractEngine(Protocol):
    """What both execution engines look like to engine-agnostic code."""

    name: str

    def load(self, text: str) -> None:
        """Parse and load program source text."""
        ...

    def solve(self, goal: str, *,
              max_solutions: int | None = 1) -> tuple[Answer, ...]:
        """Run ``goal``; return captured canonical answers in order.

        ``max_solutions=None`` enumerates every solution (bounded by
        the solvers' internal limit); the default captures only the
        first, matching how the workload registry runs its goals.
        """
        ...

    @property
    def counters(self) -> dict[str, int]:
        """The program-visible counters (``counter_inc`` et al.)."""
        ...

    @property
    def output(self) -> list[str]:
        """Collected ``write``/``print`` output."""
        ...

    def stats_facade(self) -> EngineStatsFacade:
        """Uniform accounting snapshot for the work done so far."""
        ...


class PSIEngine:
    """:class:`AbstractEngine` over the PSI microcode interpreter."""

    name = "psi"

    def __init__(self, machine=None):
        from repro.core.machine import PSIMachine
        self.machine = machine if machine is not None else PSIMachine()

    def load(self, text: str) -> None:
        self.machine.consult(text)

    def solve(self, goal: str, *,
              max_solutions: int | None = 1) -> tuple[Answer, ...]:
        solver = self.machine.solve(goal)
        solutions = (solver.all() if max_solutions is None
                     else solver.all(max_solutions))
        return tuple(canonical_answer(s.bindings) for s in solutions)

    @property
    def counters(self) -> dict[str, int]:
        return self.machine.counters

    @property
    def output(self) -> list[str]:
        return self.machine.output

    def stats_facade(self) -> EngineStatsFacade:
        from repro.memsys import execution_time
        stats = self.machine.stats
        timing = execution_time(stats.total_steps, None)
        return EngineStatsFacade(engine=self.name,
                                 inferences=stats.inferences,
                                 time_ms=timing.total_ms,
                                 work=stats.total_steps,
                                 work_unit="microsteps")


class WAMEngine:
    """:class:`AbstractEngine` over the DEC-10 WAM baseline."""

    name = "baseline"

    def __init__(self, machine=None):
        from repro.baseline.machine import WAMMachine
        self.machine = machine if machine is not None else WAMMachine()

    def load(self, text: str) -> None:
        self.machine.consult(text)

    def solve(self, goal: str, *,
              max_solutions: int | None = 1) -> tuple[Answer, ...]:
        solver = self.machine.solve(goal)
        solutions = (solver.all() if max_solutions is None
                     else solver.all(max_solutions))
        return tuple(canonical_answer(s.bindings) for s in solutions)

    @property
    def counters(self) -> dict[str, int]:
        return self.machine.counters

    @property
    def output(self) -> list[str]:
        return self.machine.output

    def stats_facade(self) -> EngineStatsFacade:
        stats = self.machine.stats
        return EngineStatsFacade(engine=self.name,
                                 inferences=stats.inferences,
                                 time_ms=stats.time_ms,
                                 work=stats.total_instructions,
                                 work_unit="instructions")


def create_engine(name: str) -> AbstractEngine:
    """Instantiate a fresh engine for a registered run spec.

    ``name`` is any run-spec name (:mod:`repro.eval.specs`): a
    PSI-engine spec yields a :class:`PSIEngine` whose machine is built
    from the spec's configuration, a baseline-engine spec a
    :class:`WAMEngine`.  The engine is named after the spec; unknown
    names raise :class:`ValueError` listing the registered specs.
    """
    import dataclasses

    # Imported lazily: eval sits above engine in the layer diagram, so
    # the dependency must not be at module scope.
    from repro.eval.specs import get_spec

    spec = get_spec(name)
    if spec.engine == "baseline":
        engine = WAMEngine()
    else:
        from repro.core.machine import PSIMachine

        # Copy the config: MachineConfig is a plain mutable dataclass and
        # the registry's instance must not be aliased by a live machine.
        engine = PSIEngine(PSIMachine(
            config=dataclasses.replace(spec.machine_config)))
    engine.name = spec.name
    return engine
