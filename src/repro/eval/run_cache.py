"""Persistent on-disk cache of collected runs.

Re-interpreting a workload is by far the most expensive step of the
evaluation pipeline (minutes for the practical-scale programs), yet its
outcome is fully determined by the workload definition, the machine
configuration and the simulator code itself.  This module memoises
:class:`~repro.tools.collect.RunSummary` and :class:`~repro.baseline.BaselineRun`
objects under ``.psi-cache/`` so repeated ``psi-eval`` invocations
skip interpretation entirely.

Keying and integrity:

* The cache **key** is a SHA-256 content hash over the workload source,
  goal, setup goals, solution mode, the run-spec fingerprint, and a
  **code version** hash covering every source file that can influence
  a run (``repro.baseline``, ``repro.core``, ``repro.engine``,
  ``repro.memsys``, ``repro.prolog``, ``repro.workloads``,
  ``repro.tools``).  Editing any of those files changes the key, so
  stale entries are never *matched* — they simply become garbage that
  ``psi-eval cache clear`` removes.
* Each entry file has two sections after its header: a **summary**
  section (the pickled summary, trace dropped) and a raw **trace**
  section (the packed int64 memory trace, not pickled)::

      psi-run-cache
      <key>
      spec=<label>
      <summary sha256> <summary length>
      <trace sha256 | -> <trace length>
      <summary pickle><trace bytes>

  Every load checks the magic line, key and label, checks that the
  file size equals the header plus both section lengths, and verifies
  the summary digest.  The trace section is read and hashed **only
  when the caller asks for the trace** (``load(key, trace=True)``):
  PMMS is the trace's only consumer, and most tables need just the
  few kilobytes of statistics in the summary.  A corrupted, truncated
  or tampered entry fails one of these checks and is treated as a miss
  and recomputed — no byte is used before its section digest is
  verified.

Concurrency: writes are atomic renames, so readers can never observe a
half-written entry, and per-key **advisory file locks** (:meth:`RunCache.lock`,
used by :meth:`RunCache.load_or_compute`) make the miss path
exactly-once across processes: when N workers miss the same key
simultaneously, one computes and stores while the rest block on the
lock and then load the stored entry.  Locks are ``flock(2)``-based, so
a crashed holder releases automatically; on platforms without ``fcntl``
the lock degrades to a no-op and concurrent misses fall back to safe
(atomic, last-writer-wins) recomputation.

The cache directory defaults to ``.psi-cache`` under the current
working directory and can be redirected with the ``PSI_CACHE_DIR``
environment variable (or per-instance via ``RunCache(root=...)``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import logging
import os
import pathlib
import pickle
from array import array

try:
    import fcntl
except ImportError:          # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.baseline import BaselineRun
from repro.tools.collect import RunSummary

logger = logging.getLogger(__name__)

#: Bumped when the entry layout (header/payload format) changes.
#: Version 2: keys fold in the run-spec fingerprint and entries carry a
#: ``spec=<name>`` header line so ``cache info`` can group per spec.
#: Version 3: separate summary and trace sections, each with its own
#: digest and length, so trace-free loads never touch the trace.
FORMAT_VERSION = 3

_MAGIC = b"psi-run-cache\n"

_CODE_PACKAGES = ("baseline", "core", "engine", "memsys", "prolog", "workloads", "tools")

_code_version: str | None = None


def code_version() -> str:
    """Hash of every simulator source file that can influence a run.

    Computed once per process over the ``repro`` sub-packages whose code
    determines execution results (``eval`` rendering is deliberately
    excluded — reformatting a table must not invalidate runs).
    """
    global _code_version
    if _code_version is None:
        import repro

        root = pathlib.Path(repro.__file__).parent
        digest = hashlib.sha256()
        for package in _CODE_PACKAGES:
            for path in sorted((root / package).glob("*.py")):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        digest.update(f"format:{FORMAT_VERSION}".encode())
        _code_version = digest.hexdigest()
    return _code_version


def run_key(*, source: str, goal: str, setup_goals: tuple[str, ...],
            all_solutions: bool, spec_fingerprint: str) -> str:
    """Content hash identifying one deterministic run.

    ``spec_fingerprint`` is the :class:`~repro.eval.specs.RunSpec`
    content hash (engine, machine and cache configurations, options) —
    two specs that differ in any result-affecting field get disjoint
    keys, while aliases of one configuration share entries.
    """
    digest = hashlib.sha256()
    for part in (code_version(), source, goal, repr(tuple(setup_goals)),
                 repr(bool(all_solutions)), spec_fingerprint):
        digest.update(part.encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def _section_line(data) -> bytes:
    """Header line ``<sha256> <length>`` for one entry section."""
    return (f"{hashlib.sha256(data).hexdigest()} "
            f"{memoryview(data).nbytes}\n").encode()


def _parse_section(line: bytes) -> tuple[str, int]:
    """``(digest, length)`` from a :func:`_section_line` header line."""
    digest, length = line.decode().split()
    if int(length) < 0:
        raise ValueError("negative section length")
    return digest, int(length)


def _read_entry(fp, key: str, trace: bool) -> RunSummary | BaselineRun:
    """Parse and verify one open entry file (see the module docstring).

    The trace section is read into its final ``array('q')`` and hashed
    in place — one read and one hash pass, no further copies.
    """
    if fp.readline() != _MAGIC:
        raise ValueError("bad magic")
    if fp.readline().strip().decode() != key:
        raise ValueError("key mismatch")
    if not fp.readline().startswith(b"spec="):
        raise ValueError("missing spec label")
    summary_digest, summary_len = _parse_section(fp.readline())
    trace_digest, trace_len = _parse_section(fp.readline())
    if trace_digest == "-" and trace_len:
        raise ValueError("trace length without a trace digest")
    itemsize = array("q").itemsize
    if trace_len % itemsize:
        raise ValueError("trace length is not a whole number of entries")
    if os.fstat(fp.fileno()).st_size != fp.tell() + summary_len + trace_len:
        raise ValueError("size mismatch (truncated entry)")
    payload = fp.read(summary_len)
    if hashlib.sha256(payload).hexdigest() != summary_digest:
        raise ValueError("summary digest mismatch")
    summary = pickle.loads(payload)
    if not isinstance(summary, (RunSummary, BaselineRun)):
        raise ValueError("payload is not a RunSummary or BaselineRun")
    if trace and trace_digest != "-":
        data = array("q", [0]) * (trace_len // itemsize)
        if fp.readinto(memoryview(data).cast("B")) != trace_len:
            raise ValueError("short trace section")
        if hashlib.sha256(data).hexdigest() != trace_digest:
            raise ValueError("trace digest mismatch")
        summary.trace_bytes = data
    return summary


def default_root() -> pathlib.Path:
    return pathlib.Path(os.environ.get("PSI_CACHE_DIR", ".psi-cache"))


class RunCache:
    """Content-addressed store of pickled run summaries."""

    def __init__(self, root: pathlib.Path | str | None = None):
        self.root = pathlib.Path(root) if root is not None else default_root()

    def _path(self, key: str) -> pathlib.Path:
        return self.root / f"{key}.run"

    def load(self, key: str,
             trace: bool = True) -> RunSummary | BaselineRun | None:
        """Return the cached summary for ``key``, or None.

        With ``trace=False`` the trace section is neither read nor
        hashed and the summary comes back with ``trace_bytes=None``.
        With ``trace=True`` an entry that holds a trace returns it as an
        ``array('q')`` in ``trace_bytes``, verified against its digest.

        Any integrity failure — missing file, bad magic, key mismatch,
        size mismatch, section digest mismatch, unpicklable payload — is
        a miss.
        """
        path = self._path(key)
        try:
            fp = open(path, "rb")
        except OSError:
            return None
        try:
            with fp:
                summary = _read_entry(fp, key, trace)
        except Exception as exc:
            logger.warning("run cache: discarding invalid entry %s (%s)",
                           path.name, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return summary

    def store(self, key: str, summary: RunSummary | BaselineRun, *,
              label: str = "") -> None:
        """Persist ``summary`` under ``key`` (atomic rename).

        ``label`` is the run-spec *name* (display metadata only —
        integrity and matching ride on the key, which already folds in
        the spec fingerprint).  It lets ``cache info`` group entries
        per spec without unpickling payloads.  The trace is written
        straight from ``summary.trace_bytes``, never copied; a
        :class:`BaselineRun` has none.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        trace = getattr(summary, "trace_bytes", None)
        payload = pickle.dumps(
            summary if trace is None
            else dataclasses.replace(summary, trace_bytes=None),
            protocol=pickle.HIGHEST_PROTOCOL)
        trace_line = b"- 0\n" if trace is None else _section_line(trace)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "wb") as fp:
            fp.write(b"".join([_MAGIC, key.encode() + b"\n",
                               b"spec=" + label.encode() + b"\n",
                               _section_line(payload), trace_line]))
            fp.write(payload)
            if trace is not None:
                fp.write(trace)
        os.replace(tmp, path)

    @contextlib.contextmanager
    def lock(self, key: str):
        """Exclusive advisory lock scoped to one cache key.

        Yields ``True`` while holding a ``flock``-ed ``<key>.lock`` file
        in the cache directory, ``False`` when the platform has no
        ``fcntl`` (callers then rely on atomic-rename safety alone).
        The lock file is left in place — unlinking it would open a race
        where a late waiter locks a file the holder already deleted —
        and :meth:`clear` sweeps stale lock files up.
        """
        if fcntl is None:
            yield False
            return
        self.root.mkdir(parents=True, exist_ok=True)
        with open(self.root / f"{key}.lock", "a+b") as fp:
            fcntl.flock(fp, fcntl.LOCK_EX)
            try:
                yield True
            finally:
                fcntl.flock(fp, fcntl.LOCK_UN)

    def load_or_compute(self, key: str, compute, *, label: str = "",
                        trace: bool = True):
        """Return ``(summary, outcome)``, computing and storing on miss.

        Callers look the entry up with :meth:`load` first; this is the
        miss path.  Under the key lock it loads again — ``outcome`` is
        ``"wait_hit"`` when another process stored the entry while we
        waited for (or held) the lock — and otherwise runs
        ``compute()``, stores its summary and returns it whole with
        ``outcome`` ``"computed"``.  ``trace`` is passed to
        :meth:`load`.

        The lock is held across ``compute()``, which is what makes the
        miss path exactly-once under concurrency: the first process in
        computes, everyone queued behind it re-checks the store and
        loads instead of recomputing.
        """
        with self.lock(key):
            summary = self.load(key, trace)
            if summary is not None:
                return summary, "wait_hit"
            summary = compute()
            self.store(key, summary, label=label)
            return summary, "computed"

    def clear(self) -> int:
        """Delete every cache entry; returns how many were removed.

        Lock files are swept too (not counted — they hold no data).
        """
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.run"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
            for path in self.root.glob("*.lock"):
                try:
                    path.unlink()
                except OSError:
                    pass
        return removed

    def entries(self) -> list[pathlib.Path]:
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.run"))

    def size_bytes(self) -> int:
        return sum(path.stat().st_size for path in self.entries())

    def entry_label(self, path: pathlib.Path) -> str | None:
        """Read one entry's spec label from its header (no unpickle).

        Returns the label (possibly ``""`` for entries stored outside
        any spec) or ``None`` for unreadable/pre-v2 entries.
        """
        try:
            with open(path, "rb") as fp:
                if fp.readline() != _MAGIC:
                    return None
                fp.readline()            # key
                label_line = fp.readline()
        except OSError:
            return None
        if not label_line.startswith(b"spec="):
            return None
        return label_line[len(b"spec="):].strip().decode(errors="replace")

    def info_by_spec(self) -> dict[str, dict[str, int]]:
        """Per-spec entry counts and byte sizes for ``cache info``.

        Header-only scan — cheap even with traces in the payloads.
        Unlabelled or pre-v2 entries are grouped under ``"(unlabelled)"``.
        """
        groups: dict[str, dict[str, int]] = {}
        for path in self.entries():
            label = self.entry_label(path)
            label = label if label else "(unlabelled)"
            group = groups.setdefault(label, {"entries": 0, "bytes": 0})
            group["entries"] += 1
            try:
                group["bytes"] += path.stat().st_size
            except OSError:
                pass
        return groups
