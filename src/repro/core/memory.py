"""Memory areas and the memory interface of the PSI model.

The PSI allocates the heap and the four execution stacks to independent
logical address spaces (the paper calls each one an *area*).  We encode
a full logical address as ``area_index << 24 | offset`` so traces carry
flat addresses the cache simulator can consume while per-area
statistics (Tables 4 and 5) remain recoverable.

All term data of the running machine physically lives in the per-area
word lists held here; every access goes through :class:`MemorySystem`,
which

* performs the actual word read/write,
* bills one microinstruction carrying the cache command to the stats
  collector (this is what makes "about one in every five
  microinstruction steps is a request for memory access" a measurable
  outcome rather than an assumption), and
* when a run records its access stream (the COLLECT → PMMS hand-off),
  appends the packed ``address << 2 | command_code`` entry to the
  :class:`TraceRecorder` set by :meth:`MemorySystem.record`.

The trace is the memory system's only sink: the cache simulator
replays it after the run, and nothing observes accesses while the
machine runs.  Hot-path notes: the accounted accessors are fully
inlined (no ``_touch`` indirection) and test one bound
``array.append`` (``None`` when nothing records).  Statically-known
access sequences (control-frame pushes, frame flushes, resume reads)
go through the block accessors, which bill once via
``stats.mem_access_n`` and append per word in the exact reference
order, keeping the trace byte stream bit-identical.

The accessors serve the machine's per-op path (the ``unfused`` spec
and test oracle), the loader and the builtins.  The machine's fused
path works on :attr:`MemorySystem._words` and the recorder's bound
``append``/``extend`` directly; it raises the same
:func:`overflow_error` and :func:`beyond_top_error` as the accessors
and calls :attr:`MemorySystem.observer` where :meth:`settop` would.
"""

from __future__ import annotations

from array import array
from enum import IntEnum

from repro.core.micro import CMD_BY_CODE, CacheCmd
from repro.errors import MachineError

AREA_SHIFT = 24
OFFSET_MASK = (1 << AREA_SHIFT) - 1


class Area(IntEnum):
    """The five independent logical address spaces of the PSI."""

    HEAP = 0
    GLOBAL = 1
    LOCAL = 2
    CONTROL = 3
    TRAIL = 4

    @property
    def label(self) -> str:
        return _AREA_LABELS[self]


_AREA_LABELS = {
    Area.HEAP: "heap",
    Area.GLOBAL: "global stack",
    Area.LOCAL: "local stack",
    Area.CONTROL: "control stack",
    Area.TRAIL: "trail stack",
}

#: Area members by value, for O(1) decode without ``Area(...)`` calls.
AREAS = tuple(Area)
N_AREAS = len(AREAS)

#: Register-file metadata for state reconstruction: the mnemonic of
#: the top-of-area pointer register each area contributes to the
#: machine's register file.  The time-travel state model
#: (:mod:`repro.obs.timetravel`) rebuilds exactly these registers from
#: the recorded access stream — the area extents are the part of the
#: register file the trace determines; work-file registers are not
#: addressable memory and leave no trace entries.
AREA_REGISTERS = {
    Area.HEAP: "HP",       # heap allocation frontier
    Area.GLOBAL: "GT",     # global-stack top
    Area.LOCAL: "LT",      # local-stack top
    Area.CONTROL: "CF",    # control-frame stack top
    Area.TRAIL: "TR",      # trail top
}

#: Whether truncation (``settop``) is a legal operation on the area —
#: the stack areas reclaim on backtracking; the heap only grows.
AREA_IS_STACK = {
    Area.HEAP: False,
    Area.GLOBAL: True,
    Area.LOCAL: True,
    Area.CONTROL: True,
    Area.TRAIL: True,
}


def overflow_error(area: int, words: int) -> MachineError:
    """The error of a push or grow that would take ``area`` to ``words``
    words, past the machine's ``word_limit``."""
    return MachineError(f"{AREAS[area].label} overflow ({words} words)")


def beyond_top_error(area: int) -> MachineError:
    """The error of a truncation above the current top of ``area``."""
    return MachineError(f"settop beyond top of {AREAS[area].label}")


def encode_address(area: Area, offset: int) -> int:
    """Pack (area, offset) into one flat logical address."""
    return (area << AREA_SHIFT) | offset


def decode_address(address: int) -> tuple[Area, int]:
    """Unpack a flat logical address into (area, offset)."""
    return AREAS[address >> AREA_SHIFT], address & OFFSET_MASK


class TraceRecorder:
    """The recorded memory-access stream, packed.

    Each entry is ``address << 2 | command_code`` in a C ``int64``
    array; :meth:`entries` decodes back to ``(CacheCmd, address)``.
    This is the COLLECT → PMMS hand-off format.  Replay consumes the
    raw :attr:`data` array (packed ints, no decode at all — see
    :meth:`repro.memsys.cache.Cache.access_many_packed`); the decoding
    views serve the per-access reference and inspection.

    The packed array serialises losslessly via :meth:`tobytes` /
    :meth:`frombytes`.  Run summaries carry the array itself across
    process boundaries, and the persistent run cache stores its raw
    bytes as an entry's trace section.
    """

    __slots__ = ("data",)

    def __init__(self, data: array | None = None) -> None:
        """Start empty, or adopt ``data`` (packed entries) without a copy."""
        self.data = array("q") if data is None else data

    def access(self, cmd: CacheCmd, address: int) -> None:
        self.data.append((address << 2) | cmd.code)

    def __len__(self) -> int:
        return len(self.data)

    def entries(self):
        by_code = CMD_BY_CODE
        for packed in self.data:
            yield by_code[packed & 3], packed >> 2

    def decoded(self) -> list:
        """The whole trace as a list of ``(CacheCmd, address)`` pairs.

        For inspection and tests; replay consumes the packed
        :attr:`data` directly (:func:`repro.tools.pmms.simulate_many`).
        """
        by_code = CMD_BY_CODE
        return [(by_code[packed & 3], packed >> 2) for packed in self.data]

    def clear(self) -> None:
        del self.data[:]

    # -- checkpoint hooks ------------------------------------------------------

    def entry(self, index: int) -> tuple:
        """Decode the single entry at ``index`` to ``(CacheCmd, address)``."""
        packed = self.data[index]
        return CMD_BY_CODE[packed & 3], packed >> 2

    def segment(self, start: int, stop: int):
        """The packed entries in ``[start, stop)`` as an int64 array.

        The seek primitive of the time-travel explorer
        (:mod:`repro.obs.timetravel`): reconstructing machine state at
        microstep N replays ``segment(checkpoint_step, N)`` on top of
        the nearest checkpoint instead of the whole stream.  Slicing an
        ``array('q')`` is a C-level copy, so the per-seek Python cost
        is the replay of the short segment only.
        """
        return self.data[start:stop]

    # -- serialisation ---------------------------------------------------------

    def tobytes(self) -> bytes:
        """The packed entries as native-endian int64 bytes."""
        return self.data.tobytes()

    @classmethod
    def frombytes(cls, raw: bytes) -> "TraceRecorder":
        """Rebuild a recorder from :meth:`tobytes` output."""
        trace = cls()
        trace.data.frombytes(raw)
        return trace

    def __getstate__(self) -> bytes:
        return self.tobytes()

    def __setstate__(self, raw: bytes) -> None:
        self.data = array("q")
        self.data.frombytes(raw)


_READ = CacheCmd.READ
_WRITE = CacheCmd.WRITE
_WRITE_STACK = CacheCmd.WRITE_STACK


class MemorySystem:
    """The five word areas plus access accounting.

    Words are stored as ``(tag, data)`` tuples.  Stack areas support
    push (``write_stack``), truncation on backtracking, and top
    queries.  ``stats`` is the machine's stats collector (may be a
    no-op stub in unit tests); a :class:`TraceRecorder` set by
    :meth:`record` receives the packed access stream.

    Area arguments are accepted as :class:`Area` members or raw ints
    (``Area`` is an ``IntEnum``); the machine's inner loops pass ints.
    """

    __slots__ = ("_stats", "_mem_access", "_mem_access_n", "word_limit",
                 "areas", "_words", "_packed_append", "_packed_extend",
                 "observer")

    def __init__(self, stats, word_limit: int = 1 << 22):
        self._stats = stats
        self._mem_access = stats.mem_access
        self._mem_access_n = stats.mem_access_n
        self.word_limit = word_limit
        self.areas: dict[Area, list] = {area: [] for area in Area}
        #: The same per-area lists as :attr:`areas`, indexed by int
        #: area value.  All mutations are in-place, so both views stay
        #: consistent by construction.
        self._words: list[list] = [self.areas[area] for area in AREAS]
        #: The recording trace's ``data.append`` bound method, or
        #: ``None`` when nothing records.  Accessors and the machine's
        #: fused paths append pre-packed ``address << 2 | code`` ints
        #: directly, with no per-access Python frame.
        self._packed_append = None
        #: The same trace's ``data.extend`` (or ``None``): the fused
        #: paths append a run of consecutive words as one ``range``.
        self._packed_extend = None
        #: Optional observability hook (``on_settop(area, offset, old_top)``):
        #: receives stack truncations — the PSI's GC-free reclaim events —
        #: when a :class:`repro.obs.session.StackObserver` is attached by
        #: an observed run.  ``None`` (the default) costs one identity
        #: check per truncation, nothing per word access.
        self.observer = None

    # -- stats rebinding -------------------------------------------------------

    @property
    def stats(self):
        return self._stats

    @stats.setter
    def stats(self, stats) -> None:
        self._stats = stats
        self._mem_access = stats.mem_access
        self._mem_access_n = stats.mem_access_n

    # -- trace recording -------------------------------------------------------

    def record(self, trace: TraceRecorder | None) -> None:
        """Append every later access to ``trace``; ``None`` stops recording."""
        self._packed_append = None if trace is None else trace.data.append
        self._packed_extend = None if trace is None else trace.data.extend

    # -- raw accessors (no accounting; loader/debug use) ----------------------

    def peek(self, area: Area, offset: int):
        return self._words[area][offset]

    def poke(self, area: Area, offset: int, word) -> None:
        self._words[area][offset] = word

    def top(self, area: Area) -> int:
        """Current top offset (next free slot) of an area."""
        return len(self._words[area])

    def settop(self, area: Area, offset: int) -> None:
        """Truncate a stack area down to ``offset`` (backtracking reclaim)."""
        words = self._words[area]
        if offset > len(words):
            raise beyond_top_error(area)
        if self.observer is not None:
            self.observer.on_settop(AREAS[area], offset, len(words))
        del words[offset:]

    def grow(self, area: Area, count: int, fill=None) -> int:
        """Reserve ``count`` words (uninitialised) without access billing.

        Returns the base offset.  Used by the loader for code and by
        allocation fast paths whose per-word traffic is billed
        separately (e.g. frame slots that live in the work file).
        """
        words = self._words[area]
        base = len(words)
        if base + count > self.word_limit:
            raise overflow_error(area, base + count)
        words.extend([fill] * count)
        return base

    # -- accounted accessors ---------------------------------------------------

    def read(self, area: Area, offset: int):
        """Read one word, billing a READ cache command."""
        self._mem_access(_READ, area)
        pa = self._packed_append
        if pa is not None:
            pa(((area << AREA_SHIFT) | offset) << 2)
        return self._words[area][offset]

    def write(self, area: Area, offset: int, word) -> None:
        """Overwrite one word in place, billing a WRITE cache command."""
        self._mem_access(_WRITE, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 1)
        self._words[area][offset] = word

    def write_stack(self, area: Area, word) -> int:
        """Push one word on an area top with the specialised Write-stack
        command (no block read-in on miss).  Returns the offset written."""
        words = self._words[area]
        offset = len(words)
        if offset >= self.word_limit:
            raise overflow_error(area, offset)
        self._mem_access(_WRITE_STACK, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 2)
        words.append(word)
        return offset

    def write_stack_at(self, area: Area, offset: int, word) -> None:
        """Write-stack into an already-reserved slot (frame flush path)."""
        self._mem_access(_WRITE_STACK, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 2)
        self._words[area][offset] = word

    # -- accounted block accessors ---------------------------------------------
    #
    # Equivalent to the corresponding per-word calls repeated in order:
    # billing uses the batched ``mem_access_n`` and the trace receives
    # every (command, address) entry in ascending-offset order, so both
    # the stats counters and the trace byte stream match the unrolled
    # loop exactly.

    def read_block(self, area: Area, offset: int, count: int) -> list:
        """Read ``count`` consecutive words, billing ``count`` READs."""
        self._mem_access_n(_READ, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = ((area << AREA_SHIFT) | offset) << 2
            for i in range(count):
                pa(packed + 4 * i)
        return self._words[area][offset:offset + count]

    def write_stack_block(self, area: Area, words) -> int:
        """Push a word sequence, billing one Write-stack per word.

        Returns the base offset of the first word.
        """
        stack = self._words[area]
        offset = len(stack)
        count = len(words)
        if offset + count > self.word_limit:
            raise overflow_error(area, offset + count)
        self._mem_access_n(_WRITE_STACK, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = (((area << AREA_SHIFT) | offset) << 2) | 2
            for i in range(count):
                pa(packed + 4 * i)
        stack.extend(words)
        return offset

    def flush_stack_block(self, area: Area, offset: int, count: int) -> None:
        """Bill ``count`` Write-stacks for already-materialised words.

        The frame-flush path: the words are in place (buffer-backed
        slots are poked directly), only the stack traffic of writing
        them through needs accounting.  Equivalent to ``count``
        :meth:`write_stack_at` calls rewriting each word to itself.
        """
        self._mem_access_n(_WRITE_STACK, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = (((area << AREA_SHIFT) | offset) << 2) | 2
            for i in range(count):
                pa(packed + 4 * i)
