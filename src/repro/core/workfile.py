"""Work file (WF) model: the PSI's 1K-word multi-functional register file.

The interpreter reserves a pair of 64-word *frame buffers* in the WF
and caches the current clause's local variables there; while a frame is
buffered, accesses to its slots are WF accesses (billed with @WFAR1
indirect or @PDR/CDR base-relative modes — the Table 6 rows this model
exists to produce) instead of local-stack memory traffic.  Two buffers
alternate so that a tail-recursive chain of determinate clauses never
touches the local stack, which is the tail recursion optimisation the
paper describes in §2.2.

A frame loses its buffer either when it is *flushed* (the clause makes
a non-last call, so the frame must survive as an environment) or when
buffer alternation evicts it (evicted frames are always already flushed
or dead — the machine flushes before any call that lets the frame
outlive its buffer tenure).

This class only manages buffer ownership and billing; the frame's
slots physically live in the local-stack area of
:class:`~repro.core.memory.MemorySystem` so that variable addresses are
stable for the trail and for references from younger cells.
"""

from __future__ import annotations

from repro.core import micro
from repro.core.micro import Module

_R_SWITCH_BUFFER = micro.R_SWITCH_BUFFER
_R_FRAME_READ_BUF = micro.R_FRAME_READ_BUF
_R_FRAME_READ_BUF_BASE = micro.R_FRAME_READ_BUF_BASE
_R_FRAME_WRITE_BUF = micro.R_FRAME_WRITE_BUF
_R_FRAME_WRITE_BUF_BASE = micro.R_FRAME_WRITE_BUF_BASE

BUFFER_SLOTS = 64
WF_CAPACITY = 1024
DIRECT_WORDS = 64        # directly addressable from a microinstruction
CONSTANT_WORDS = 64      # the constant storage area at the top of the WF

#: Slots reachable with the @PDR/CDR base-relative mode (5-bit offsets).
BASE_RELATIVE_SLOTS = 32


class WorkFile:
    """Tracks the two frame buffers and bills WF-mode accesses."""

    __slots__ = ("stats", "_owners", "_next")

    def __init__(self, stats):
        self.stats = stats
        #: The frame in each buffer.  The list itself never changes, so
        #: the machine's fused sites may hold it across a run.
        self._owners: list[object | None] = [None, None]
        self._next = 0

    # -- buffer management -----------------------------------------------------

    def acquire(self, frame) -> int | None:
        """Give ``frame`` a buffer (alternating), evicting the previous owner.

        Returns the buffer id, or None when the frame does not fit (more
        than 64 locals) and must live directly in the local stack.
        """
        if frame.nlocals > BUFFER_SLOTS:
            return None
        buffer_id = self._next
        self._next = 1 - self._next
        evicted = self._owners[buffer_id]
        if evicted is not None:
            evicted.buffer_id = None
        self._owners[buffer_id] = frame
        self.stats.emit(_R_SWITCH_BUFFER)
        return buffer_id

    def release(self, frame) -> None:
        """Drop ``frame``'s buffer ownership (frame died or was flushed)."""
        if frame.buffer_id is not None and self._owners[frame.buffer_id] is frame:
            self._owners[frame.buffer_id] = None
        frame.buffer_id = None

    def owner_of_local(self, offset: int):
        """The buffered frame whose slots cover local-stack ``offset``."""
        for frame in self._owners:
            if frame is not None and frame.base <= offset < frame.base + frame.nlocals:
                return frame
        return None

    def reset(self) -> None:
        owners = self._owners
        for buffer_id, frame in enumerate(owners):
            if frame is not None:
                frame.buffer_id = None
                owners[buffer_id] = None
        self._next = 0

    # -- billed slot access ------------------------------------------------------

    def read_slot(self, slot: int, module: Module | None = None) -> None:
        """Bill one buffered-slot read.

        Slots within base-relative reach occasionally use the @PDR/CDR
        mode (the interpreter uses it where the offset is already in a
        data register — the head-argument fast path); everything else is
        @WFAR1 indirect.
        """
        if slot < BASE_RELATIVE_SLOTS and slot % 8 == 0:
            self.stats.emit(_R_FRAME_READ_BUF_BASE)
        else:
            self.stats.emit(_R_FRAME_READ_BUF)

    def write_slot(self, slot: int, base_relative: bool = False) -> None:
        """Bill one buffered-slot write."""
        if base_relative and slot < BASE_RELATIVE_SLOTS:
            self.stats.emit(_R_FRAME_WRITE_BUF_BASE)
        else:
            self.stats.emit(_R_FRAME_WRITE_BUF)
