"""First-class run specifications: configurations as data, not forks.

The paper's whole method is comparing one workload stream across
machine configurations (Tables 1-5, Figure 1, the 1-set/2-set and
store-in/store-through ablations), and every optimisation this repo
adds — superinstruction fusion, first-argument clause indexing — is a
new *configuration* of the same machines.  A :class:`RunSpec` makes
each of them a named, hashable value that every layer consumes:

* :mod:`repro.eval.runner` runs any spec through one disk-cached,
  ``flock``-exactly-once, ``run_many``-parallelizable path;
* :mod:`repro.eval.run_cache` keys entries on the spec fingerprint and
  labels them with the spec name (``psi-eval cache info`` reports
  per-spec entries);
* :mod:`repro.serve` carries a spec name per request and batches
  replay by (workload, spec);
* ``psi-eval crosscheck --specs A,B`` differentially validates any
  spec pair;
* the CLI's ``--spec`` flag re-derives any table/figure/report under a
  different configuration, while :func:`assert_faithful` keeps
  paper-fidelity numbers pinned to the ``faithful`` spec.

Registering a new optimisation is one call::

    from repro.core.machine import MachineConfig
    from repro.eval.specs import RunSpec, register_spec

    register_spec(RunSpec(
        name="indexed-unfused",
        machine_config=MachineConfig(indexed=True, fused=False),
        description="clause indexing with the per-op dispatch loop"))

after which ``psi-eval run --spec indexed-unfused``, crosscheck pairs,
serve requests and the run cache all understand it.  Because the serve
worker pool forks from the server process, specs registered before the
pool starts are visible inside workers too.

The **fingerprint** is a content hash over everything that determines a
run's results (engine, machine configuration, cache configuration,
cache replay option) — deliberately *excluding* the name, so two
specs with one configuration share cache entries, while any semantic
difference separates them.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.core.machine import MachineConfig
from repro.memsys import CacheConfig

#: The spec every paper-facing number must come from (see
#: :func:`assert_faithful`).
FAITHFUL = "faithful"


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One named machine+cache configuration of an engine.

    Hashable and picklable: specs cross process boundaries verbatim
    (``run_many`` workers, the serve pool) and key per-process memo
    tiers.  Equality and hashing are by ``(name, fingerprint)`` — the
    configuration dataclasses themselves stay plain and mutable-field
    friendly.
    """

    name: str
    #: Which machine executes: ``"psi"`` (the microcoded interpreter)
    #: or ``"baseline"`` (the DEC-10 WAM).  Both take the same cache
    #: tiers; baseline runs carry no trace/cache model.
    engine: str = "psi"
    machine_config: MachineConfig = field(default_factory=MachineConfig)
    cache_config: CacheConfig = field(default_factory=CacheConfig)
    #: Replay the run's packed trace through the production cache after
    #: the run (modelled time needs its stats).
    with_cache: bool = True
    description: str = ""

    @property
    def fingerprint(self) -> str:
        """Content hash of everything that determines run results.

        The spec *name* is excluded — a spec registered under another
        name with the faithful configuration shares its cache entries;
        any field that could change a single emitted microinstruction
        separates them.  This string is folded into the disk-cache key
        (:func:`repro.eval.run_cache.run_key`).
        """
        digest = hashlib.sha256()
        for part in (self.engine, repr(self.machine_config),
                     repr(self.cache_config), repr(self.with_cache)):
            digest.update(part.encode())
            digest.update(b"\x00")
        return digest.hexdigest()[:16]

    def __hash__(self) -> int:
        return hash((self.name, self.fingerprint))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return (self.name, self.fingerprint) == (other.name,
                                                 other.fingerprint)


def _builtin_specs() -> dict[str, RunSpec]:
    return {
        spec.name: spec for spec in (
            RunSpec(name=FAITHFUL,
                    description="the paper's PSI: per-op dispatch semantics, "
                                "no clause indexing, production cache — the "
                                "configuration every table is generated from"),
            RunSpec(name="indexed",
                    machine_config=MachineConfig(indexed=True),
                    description="PSI with first-argument clause indexing "
                                "(the evaluation the paper couldn't run)"),
            RunSpec(name="unfused",
                    machine_config=MachineConfig(fused=False),
                    description="PSI with superinstruction fusion disabled "
                                "(the per-op reference dispatch loop)"),
            RunSpec(name="baseline", engine="baseline",
                    description="the DEC-10 WAM baseline compiler/machine"),
        )
    }


_REGISTRY: dict[str, RunSpec] = _builtin_specs()

_default_spec_name: str = FAITHFUL


def register_spec(spec: RunSpec, *, replace: bool = False) -> RunSpec:
    """Add ``spec`` to the registry; returns it for chaining.

    Built-in specs cannot be replaced unless ``replace=True`` — a
    typo'd re-registration silently shadowing ``faithful`` would be a
    fidelity hazard.
    """
    if not replace and spec.name in _REGISTRY:
        raise ValueError(f"run spec {spec.name!r} is already registered "
                         "(pass replace=True to override)")
    if spec.engine not in ("psi", "baseline"):
        raise ValueError(f"unknown engine {spec.engine!r} for spec "
                         f"{spec.name!r} (expected 'psi' or 'baseline')")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_spec(name: str) -> None:
    """Remove a registered spec (tests); built-ins are restored."""
    _REGISTRY.pop(name, None)
    _REGISTRY.update({k: v for k, v in _builtin_specs().items()
                      if k not in _REGISTRY})
    global _default_spec_name
    if _default_spec_name not in _REGISTRY:
        _default_spec_name = FAITHFUL


def get_spec(spec: "RunSpec | str | None") -> RunSpec:
    """Resolve a registered spec name to its :class:`RunSpec`.

    ``None`` resolves to the process default (:func:`default_spec`);
    a :class:`RunSpec` instance passes through unchanged, so callers
    can hand around either form.
    """
    if spec is None:
        return default_spec()
    if isinstance(spec, RunSpec):
        return spec
    try:
        return _REGISTRY[spec]
    except KeyError:
        raise ValueError(
            f"unknown run spec {spec!r}; registered: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def all_specs() -> dict[str, RunSpec]:
    """Name -> spec, registration order (built-ins first)."""
    return dict(_REGISTRY)


def spec_names() -> list[str]:
    return sorted(_REGISTRY)


def default_spec() -> RunSpec:
    """The spec consumed by paths that take no explicit spec (tables,
    figures, ``psi-eval`` targets without ``--spec``)."""
    return _REGISTRY[_default_spec_name]


def set_default_spec(spec: "RunSpec | str") -> RunSpec:
    """Set the process-wide default spec (the CLI ``--spec`` flag).

    Returns the resolved spec.  Every default-spec consumer — the
    table generators, ``psi-eval run``/``profile``/``debug`` — now
    runs under it; :func:`assert_faithful` gates the paths that must
    not.
    """
    global _default_spec_name
    resolved = get_spec(spec)
    if resolved.name not in _REGISTRY:
        register_spec(resolved)
    _default_spec_name = resolved.name
    return resolved


def assert_faithful(context: str) -> None:
    """Fail loudly unless the default spec is the ``faithful`` one.

    Paper-fidelity scoring (``psi-eval fidelity``) and the committed
    ``results/eval_report.txt`` must never silently describe an
    optimized configuration; any path that feeds them calls this
    first.  ``context`` names the caller for the error message.
    """
    spec = default_spec()
    if spec.name != FAITHFUL or spec.fingerprint != get_spec(FAITHFUL).fingerprint:
        raise RuntimeError(
            f"{context} scores the paper's faithful configuration, but the "
            f"active run spec is {spec.name!r} — paper-drift numbers from "
            "an optimized configuration would be meaningless.  Re-run "
            "without --spec (or set_default_spec('faithful')).")
