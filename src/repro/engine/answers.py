"""Canonical answer representation for differential cross-validation.

The two engines decode solution bindings to the same source-level term
AST (:mod:`repro.prolog.terms`), with one engine-specific wart: unbound
variables decode to machine-address names (``_A<addr>`` on the PSI,
``_B<idx>`` on the WAM), which can never agree across engines.  A
*canonical answer* erases that:

* variables are renamed ``_G0, _G1, ...`` in order of first appearance
  while walking the bindings in sorted variable-name order (aliasing
  between bindings is preserved — two goal variables bound to the same
  unbound cell keep the same canonical name);
* every binding is rendered with the deterministic quoted writer
  (:func:`repro.prolog.writer.term_to_string`);
* an answer is the sorted tuple of ``(variable, rendered value)``
  pairs, and a result set is the sorted tuple of answers — a multiset
  insensitive to solution order.

Canonical answers are plain strings/tuples: picklable (they ride in
the persistent run cache), hashable, and directly comparable across
engines.  :func:`check_expected` interprets a workload's ``expected``
dict against them plus the run's counters.
"""

from __future__ import annotations

from repro.prolog.reader import parse_term
from repro.prolog.terms import Atom, Struct, Term, Var, is_cons, is_nil
from repro.prolog.writer import term_to_string

#: One canonical answer: sorted ``((var, rendered), ...)`` pairs.
Answer = tuple[tuple[str, str], ...]


def canonical_term(term: Term, renaming: dict[str, Var]) -> Term:
    """Rewrite ``term`` with variables renamed in first-appearance order.

    ``renaming`` maps original (engine-specific) variable names to the
    shared canonical :class:`Var` objects; passing the same dict across
    the bindings of one answer preserves aliasing.  The walk keeps a
    stack of (compound, argument iterator, rewritten arguments) frames,
    so a long list or a deep term costs no Python frames; variables are
    met left to right, which is the pre-order numbering.
    """
    def leaf(term: Term) -> Term:
        if not isinstance(term, Var):
            return term
        canonical = renaming.get(term.name)
        if canonical is None:
            canonical = Var(f"_G{len(renaming)}")
            renaming[term.name] = canonical
        return canonical

    if not isinstance(term, Struct):
        return leaf(term)
    pending = [(term, iter(term.args), [])]
    while True:
        struct, args, rewritten = pending[-1]
        for arg in args:
            if isinstance(arg, Struct):
                pending.append((arg, iter(arg.args), []))
                break
            rewritten.append(leaf(arg))
        else:
            pending.pop()
            done = Struct(struct.functor, tuple(rewritten))
            if not pending:
                return done
            pending[-1][2].append(done)


def canonical_answer(bindings: dict[str, Term]) -> Answer:
    """Canonicalize one solution's bindings.

    Bindings are visited in sorted variable-name order so the ``_G``
    numbering is deterministic regardless of decode order.
    """
    renaming: dict[str, Var] = {}
    return tuple((name, term_to_string(canonical_term(bindings[name],
                                                      renaming)))
                 for name in sorted(bindings))


def answer_multiset(answers) -> tuple[Answer, ...]:
    """Order-insensitive form of a solution sequence (sorted tuple)."""
    return tuple(sorted(answers))


def render_answer(answer: Answer) -> str:
    """Human-readable one-line form of a canonical answer."""
    if not answer:
        return "true"
    return ", ".join(f"{name} = {value}" for name, value in answer)


# ---------------------------------------------------------------------------
# Expected-result validation
# ---------------------------------------------------------------------------


def _parse_answer_terms(answer: Answer) -> dict[str, Term]:
    return {name: parse_term(value) for name, value in answer}


def _list_elements(term: Term) -> list[Term] | None:
    """Elements of a proper list term, or None if not a proper list."""
    items: list[Term] = []
    while is_cons(term):
        assert isinstance(term, Struct)
        items.append(term.args[0])
        term = term.args[1]
    if not (isinstance(term, Atom) and is_nil(term)):
        return None
    return items


def _sole_binding(bindings: dict[str, Term], key: str) -> Term:
    if len(bindings) != 1:
        raise ValueError(
            f"expected key {key!r} needs a single-variable goal, "
            f"got bindings for {sorted(bindings)}")
    return next(iter(bindings.values()))


def check_expected(expected: dict, *, answers: tuple[Answer, ...],
                   counters: dict[str, int]) -> list[str]:
    """Validate a workload's ``expected`` dict against a run's results.

    Returns a list of human-readable problems (empty = all checks
    pass).  Key semantics, matching how the workloads declare them:

    * ``first_element`` / ``first`` — the goal's sole binding is a list
      whose first element equals the value;
    * ``sorted_length`` — the sole binding is a nondecreasing integer
      list of exactly that length;
    * ``solutions`` — the run's ``solutions`` counter (failure-driven
      all-solutions loops count through ``counter_inc``) equals the
      value;
    * ``parses_min`` — the ``parses`` counter is at least the value;
    * any other key names a goal variable whose binding must render to
      the value.
    """
    problems: list[str] = []
    if not expected:
        return problems
    if not answers:
        return [f"no answers captured but expected {expected!r}"]
    bindings = _parse_answer_terms(answers[0])

    for key, value in expected.items():
        try:
            if key in ("first_element", "first"):
                # Head of the first cons cell; deliberately tolerant of
                # the tail terminator (the Lisp-interpreter workloads
                # build nil-terminated chains rather than []-lists).
                term = _sole_binding(bindings, key)
                if not is_cons(term):
                    problems.append(f"{key}: binding is not a list, "
                                    f"wanted first element {value}")
                else:
                    assert isinstance(term, Struct)
                    head = term.args[0]
                    if head != value:
                        problems.append(
                            f"{key}: got {term_to_string(head)}, "
                            f"wanted {value}")
            elif key == "sorted_length":
                items = _list_elements(_sole_binding(bindings, key))
                if items is None:
                    problems.append(f"{key}: binding is not a proper list")
                elif len(items) != value:
                    problems.append(
                        f"{key}: length {len(items)}, wanted {value}")
                elif any(not isinstance(item, int) for item in items):
                    problems.append(f"{key}: non-integer elements")
                elif any(a > b for a, b in zip(items, items[1:])):
                    problems.append(f"{key}: list is not sorted")
            elif key == "solutions":
                got = counters.get("solutions")
                if got != value:
                    problems.append(
                        f"solutions counter: got {got}, wanted {value}")
            elif key == "parses_min":
                got = counters.get("parses", 0)
                if got < value:
                    problems.append(
                        f"parses counter: got {got}, wanted >= {value}")
            elif key in bindings:
                got = term_to_string(bindings[key])
                want = (term_to_string(value)
                        if not isinstance(value, (int, str)) else str(value))
                if got != want:
                    problems.append(f"{key}: got {got}, wanted {want}")
            else:
                problems.append(f"unknown expected key {key!r} "
                                f"(bindings: {sorted(bindings)})")
        except ValueError as exc:
            problems.append(str(exc))
    return problems
