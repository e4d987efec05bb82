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
* forwards ``(command, address)`` to any attached listeners — the
  online cache model and/or a trace recorder for the PMMS simulator.

Hot-path notes: the accounted accessors are fully inlined (no
``_touch`` indirection).  The listener fan-out is precomputed into
:attr:`MemorySystem._notify` — ``None`` for no listeners, the single
listener's bound ``access`` method for one, a loop closure for more —
and rebuilt only on :meth:`attach`/:meth:`detach`.  Statically-known
access sequences (control-frame pushes, frame flushes, resume reads)
go through the block accessors, which bill once via
``stats.mem_access_n`` and notify per word in the exact reference
order, keeping the trace byte stream bit-identical.
"""

from __future__ import annotations

from array import array
from enum import IntEnum
from typing import Protocol

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


def encode_address(area: Area, offset: int) -> int:
    """Pack (area, offset) into one flat logical address."""
    return (area << AREA_SHIFT) | offset


def decode_address(address: int) -> tuple[Area, int]:
    """Unpack a flat logical address into (area, offset)."""
    return AREAS[address >> AREA_SHIFT], address & OFFSET_MASK


class MemoryListener(Protocol):
    """Receives every memory access as (command, flat address)."""

    def access(self, cmd: CacheCmd, address: int) -> None: ...


#: Encoding of cache commands into 2 bits for compact trace recording.
#: Identical to ``CacheCmd.code`` / ``CMD_BY_CODE`` (guarded by a test);
#: kept as dicts for existing consumers.
CMD_CODE = {cmd: cmd.code for cmd in CacheCmd}
CODE_CMD = {cmd.code: cmd for cmd in CacheCmd}


class TraceRecorder:
    """Memory listener that records the access stream compactly.

    Each entry is ``address << 2 | command_code`` in a C ``int64``
    array; :meth:`entries` decodes back to ``(CacheCmd, address)``.
    This is the COLLECT → PMMS hand-off format.  Replay consumers
    should prefer :meth:`decoded` (one bulk decode) or the raw
    :attr:`data` array (packed ints, no decode at all — see
    :meth:`repro.memsys.cache.Cache.access_many_packed`) over the
    per-entry generator.

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
        """Decode the whole trace once into ``(CacheCmd, address)`` pairs.

        Replaying one trace through many cache configurations pays the
        unpacking cost once here instead of once per configuration (see
        :func:`repro.tools.pmms.simulate_many`).
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
    no-op stub in unit tests); listeners receive raw accesses.

    Area arguments are accepted as :class:`Area` members or raw ints
    (``Area`` is an ``IntEnum``); the machine's inner loops pass ints.
    """

    __slots__ = ("_stats", "_mem_access", "_mem_access_n", "word_limit",
                 "areas", "_words", "listeners", "_notify", "_packed_append",
                 "observer")

    def __init__(self, stats, word_limit: int = 1 << 22):
        self._stats = stats
        self._mem_access = stats.mem_access
        self._mem_access_n = getattr(stats, "mem_access_n", None) \
            or _fallback_access_n(stats.mem_access)
        self.word_limit = word_limit
        self.areas: dict[Area, list] = {area: [] for area in Area}
        #: The same per-area lists as :attr:`areas`, indexed by int
        #: area value.  All mutations are in-place, so both views stay
        #: consistent by construction.
        self._words: list[list] = [self.areas[area] for area in AREAS]
        self.listeners: list[MemoryListener] = []
        self._notify = None
        #: When the sole listener is a :class:`TraceRecorder`, its
        #: ``data.append`` bound method — the machine's fused paths then
        #: append pre-packed ``address << 2 | code`` ints directly, with
        #: no per-access Python frame.  ``None`` otherwise.
        self._packed_append = None
        #: Optional observability hook (``on_settop(area, offset, old_top)``):
        #: receives stack truncations — the PSI's GC-free reclaim events —
        #: when a :class:`repro.obs.session.StackObserver` is attached by
        #: an observed run.  ``None`` (the default) costs one identity
        #: check per ``settop``, nothing per word access.
        self.observer = None

    # -- stats rebinding -------------------------------------------------------

    @property
    def stats(self):
        return self._stats

    @stats.setter
    def stats(self, stats) -> None:
        self._stats = stats
        self._mem_access = stats.mem_access
        self._mem_access_n = getattr(stats, "mem_access_n", None) \
            or _fallback_access_n(stats.mem_access)

    # -- listener management -------------------------------------------------

    def attach(self, listener: MemoryListener) -> None:
        self.listeners.append(listener)
        self._rebuild_notify()

    def detach(self, listener: MemoryListener) -> None:
        self.listeners.remove(listener)
        self._rebuild_notify()

    def _rebuild_notify(self) -> None:
        listeners = self.listeners
        self._packed_append = None
        if not listeners:
            self._notify = None
        elif len(listeners) == 1:
            self._notify = listeners[0].access
            if type(listeners[0]) is TraceRecorder:
                self._packed_append = listeners[0].data.append
        elif len(listeners) == 2:
            first, second = (listener.access for listener in listeners)

            def pair(cmd, address, _first=first, _second=second):
                _first(cmd, address)
                _second(cmd, address)

            self._notify = pair
        else:
            accessors = tuple(listener.access for listener in listeners)

            def fanout(cmd, address, _accessors=accessors):
                for access in _accessors:
                    access(cmd, address)

            self._notify = fanout

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
            raise MachineError(f"settop beyond top of {AREAS[area].label}")
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
            raise MachineError(
                f"{AREAS[area].label} overflow ({base + count} words)")
        words.extend([fill] * count)
        return base

    # -- accounted accessors ---------------------------------------------------

    def read(self, area: Area, offset: int):
        """Read one word, billing a READ cache command."""
        self._mem_access(_READ, area)
        pa = self._packed_append
        if pa is not None:
            pa(((area << AREA_SHIFT) | offset) << 2)
        else:
            notify = self._notify
            if notify is not None:
                notify(_READ, (area << AREA_SHIFT) | offset)
        return self._words[area][offset]

    def write(self, area: Area, offset: int, word) -> None:
        """Overwrite one word in place, billing a WRITE cache command."""
        self._mem_access(_WRITE, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 1)
        else:
            notify = self._notify
            if notify is not None:
                notify(_WRITE, (area << AREA_SHIFT) | offset)
        self._words[area][offset] = word

    def write_stack(self, area: Area, word) -> int:
        """Push one word on an area top with the specialised Write-stack
        command (no block read-in on miss).  Returns the offset written."""
        words = self._words[area]
        offset = len(words)
        if offset >= self.word_limit:
            raise MachineError(
                f"{AREAS[area].label} overflow ({offset} words)")
        self._mem_access(_WRITE_STACK, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 2)
        else:
            notify = self._notify
            if notify is not None:
                notify(_WRITE_STACK, (area << AREA_SHIFT) | offset)
        words.append(word)
        return offset

    def write_stack_at(self, area: Area, offset: int, word) -> None:
        """Write-stack into an already-reserved slot (frame flush path)."""
        self._mem_access(_WRITE_STACK, area)
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 2)
        else:
            notify = self._notify
            if notify is not None:
                notify(_WRITE_STACK, (area << AREA_SHIFT) | offset)
        self._words[area][offset] = word

    # -- accounted block accessors ---------------------------------------------
    #
    # Equivalent to the corresponding per-word calls repeated in order:
    # billing uses the batched ``mem_access_n`` and listeners see every
    # (command, address) pair in ascending-offset order, so both the
    # stats counters and the trace byte stream match the unrolled loop
    # exactly.

    def read_block(self, area: Area, offset: int, count: int) -> list:
        """Read ``count`` consecutive words, billing ``count`` READs."""
        self._mem_access_n(_READ, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = ((area << AREA_SHIFT) | offset) << 2
            for i in range(count):
                pa(packed + 4 * i)
        else:
            notify = self._notify
            if notify is not None:
                base = (area << AREA_SHIFT) | offset
                for i in range(count):
                    notify(_READ, base + i)
        return self._words[area][offset:offset + count]

    def write_stack_block(self, area: Area, words) -> int:
        """Push a word sequence, billing one Write-stack per word.

        Returns the base offset of the first word.
        """
        stack = self._words[area]
        offset = len(stack)
        count = len(words)
        if offset + count > self.word_limit:
            raise MachineError(
                f"{AREAS[area].label} overflow ({offset + count} words)")
        self._mem_access_n(_WRITE_STACK, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = (((area << AREA_SHIFT) | offset) << 2) | 2
            for i in range(count):
                pa(packed + 4 * i)
        else:
            notify = self._notify
            if notify is not None:
                base = (area << AREA_SHIFT) | offset
                for i in range(count):
                    notify(_WRITE_STACK, base + i)
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
        else:
            notify = self._notify
            if notify is not None:
                base = (area << AREA_SHIFT) | offset
                for i in range(count):
                    notify(_WRITE_STACK, base + i)

    def rewrite_stack_block(self, area: Area, offset: int, words) -> None:
        """Write-stack a word sequence into already-reserved slots."""
        count = len(words)
        self._mem_access_n(_WRITE_STACK, area, count)
        pa = self._packed_append
        if pa is not None:
            packed = (((area << AREA_SHIFT) | offset) << 2) | 2
            for i in range(count):
                pa(packed + 4 * i)
        else:
            notify = self._notify
            if notify is not None:
                base = (area << AREA_SHIFT) | offset
                for i in range(count):
                    notify(_WRITE_STACK, base + i)
        self._words[area][offset:offset + count] = words

    # -- fused-path accessors ---------------------------------------------------
    #
    # Used by the machine's superinstruction dispatch: the *billing* of
    # these accesses was already applied in one ``stats.emit_fused``
    # call, so only the listener notification (and, for pushes, the
    # actual word movement with its overflow check) remains.  The
    # notification order is exactly that of the unfused accessors.

    def touch_read(self, area: Area, offset: int) -> None:
        """Notify one READ whose billing was fused."""
        pa = self._packed_append
        if pa is not None:
            pa(((area << AREA_SHIFT) | offset) << 2)
            return
        notify = self._notify
        if notify is not None:
            notify(_READ, (area << AREA_SHIFT) | offset)

    def touch_read_run(self, area: Area, offset: int, count: int) -> None:
        """Notify ``count`` consecutive READs whose billing was fused."""
        pa = self._packed_append
        base = (area << AREA_SHIFT) | offset
        if pa is not None:
            packed = base << 2
            for i in range(count):
                pa(packed + 4 * i)
            return
        notify = self._notify
        if notify is not None:
            for i in range(count):
                notify(_READ, base + i)

    def push_fused(self, area: Area, word) -> int:
        """:meth:`write_stack` minus the billing (fused by the caller)."""
        words = self._words[area]
        offset = len(words)
        if offset >= self.word_limit:
            raise MachineError(
                f"{AREAS[area].label} overflow ({offset} words)")
        pa = self._packed_append
        if pa is not None:
            pa((((area << AREA_SHIFT) | offset) << 2) | 2)
        else:
            notify = self._notify
            if notify is not None:
                notify(_WRITE_STACK, (area << AREA_SHIFT) | offset)
        words.append(word)
        return offset

    def push_block_fused(self, area: Area, block) -> int:
        """:meth:`write_stack_block` minus the billing (fused by caller)."""
        stack = self._words[area]
        offset = len(stack)
        count = len(block)
        if offset + count > self.word_limit:
            raise MachineError(
                f"{AREAS[area].label} overflow ({offset + count} words)")
        pa = self._packed_append
        base = (area << AREA_SHIFT) | offset
        if pa is not None:
            packed = (base << 2) | 2
            for i in range(count):
                pa(packed + 4 * i)
        else:
            notify = self._notify
            if notify is not None:
                for i in range(count):
                    notify(_WRITE_STACK, base + i)
        stack.extend(block)
        return offset

    # -- address-based accessors (for dereferencing through REF words) ---------

    def read_addr(self, address: int):
        return self.read(address >> AREA_SHIFT, address & OFFSET_MASK)

    def write_addr(self, address: int, word) -> None:
        self.write(address >> AREA_SHIFT, address & OFFSET_MASK, word)


def _fallback_access_n(mem_access):
    """Batched billing for stats stubs that lack ``mem_access_n``."""

    def access_n(cmd, area, times):
        for _ in range(times):
            mem_access(cmd, area)

    return access_n
