"""Layer spans recorded from outside the program.

:class:`Tracer` wraps public entry points by replacing the attribute
on the *class* that defines them (``PSIMachine.consult``,
``Solver.next``, ...), so every caller goes through the wrapper no
matter how it imported the class.  Spans stay in memory as
``[name, start_ns, end_ns, parent, op, count]`` lists and are written
out once, when the run ends.  Nothing here touches the program's own
files; :meth:`Tracer.uninstall` restores every patched attribute.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, OP, COUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._patches: list[tuple] = []
        self.active = False

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, count: int = 0):
        """Record one span; a no-op while the tracer is not active."""
        if not self.active:
            yield
            return
        stack = self._stack()
        record = [name, 0, 0, stack[-1] if stack else None,
                  getattr(self._local, "op", None), count]
        index = len(self.spans)
        self.spans.append(record)
        stack.append(index)
        record[START] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[END] = time.perf_counter_ns()
            stack.pop()

    @contextmanager
    def op(self, op_id):
        """The root span of one benchmark op; layer spans nest under it."""
        self._local.op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._local.op = None

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is the span name or a zero-argument callable giving it
        at call time; ``count(args)`` optionally gives the span's work
        count (e.g. trace entries replayed).
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            label = name() if callable(name) else name
            with tracer.span(label, count(args) if count else 0):
                return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.active = False

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: its duration minus the time its direct children cover."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] is not None:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def by_op(self) -> dict:
        """``{op: {span name: [self_ns, total_ns, count, calls]}}``."""
        table: dict = defaultdict(lambda: defaultdict(lambda: [0, 0, 0, 0]))
        for span, own in zip(self.spans, self.self_times()):
            cell = table[span[OP]][span[NAME]]
            cell[0] += own
            cell[1] += span[END] - span[START]
            cell[2] += span[COUNT]
            cell[3] += 1
        return table

    def dump(self, path) -> None:
        """Write every span as one JSON line (``op`` ids are strings)."""
        with open(path, "w") as fp:
            for index, span in enumerate(self.spans):
                fp.write(json.dumps({
                    "id": index, "name": span[NAME], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT],
                    "op": None if span[OP] is None else str(span[OP]),
                    "count": span[COUNT]}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the in-process layer entry points of the program."""
    from repro import obs
    from repro.baseline.machine import BaselineSolver, WAMMachine
    from repro.core.machine import PSIMachine, Solver
    from repro.eval.run_cache import RunCache
    from repro.memsys.cache import Cache
    from repro.obs.session import ObsSession
    from repro.tools.collect import RunSummary

    tracer.wrap(PSIMachine, "consult", "core.consult")
    tracer.wrap(Solver, "next",
                lambda: "obs.solve" if obs.enabled() else "core.solve")
    tracer.wrap(Cache, "access_many_packed", "memsys.replay",
                count=lambda args: len(args[1]))
    tracer.wrap(WAMMachine, "consult", "baseline.consult")
    tracer.wrap(BaselineSolver, "next", "baseline.solve")
    tracer.wrap(RunCache, "load", "eval.cache_load")
    tracer.wrap(RunCache, "load_or_compute", "eval.cache_load")
    tracer.wrap(RunCache, "store", "eval.cache_store")
    tracer.wrap(RunSummary, "to_collected_run", "tools.rebuild")
    tracer.wrap(ObsSession, "finish", "obs.finish")
