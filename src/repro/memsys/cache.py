"""Set-associative cache model — the reproduction of PMMS.

The PSI cache (§2.2): 8K words, two-way set associative, store-in
(write-back), 4-word blocks, 200 ns hit / 800 ns miss, 800 ns 4-word
block transfer, and a specialised *Write-stack* command that skips
block read-in on a write miss (used for pushes to stack tops).

The model is trace-driven: a run records its access stream in a
:class:`~repro.core.memory.TraceRecorder`, and the cache replays the
packed entries after the run (:meth:`Cache.access_many_packed`, driven
by :mod:`repro.tools.collect` and :mod:`repro.tools.pmms`).  It keeps per-area hit/miss counts so Table 5
falls straight out, and event counts the timing model converts to
stall time for Figure 1 and the store-in/store-through ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.memory import AREA_SHIFT, AREAS, Area
from repro.core.micro import CMD_BY_CODE, CacheCmd


class WritePolicy:
    """Write policies: the paper's store-in vs store-through comparison."""

    STORE_IN = "store-in"          # write-back, write-allocate
    STORE_THROUGH = "store-through"  # write-through, no write-allocate


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and policy of one simulated cache."""

    capacity_words: int = 8192
    ways: int = 2
    block_words: int = 4
    policy: str = WritePolicy.STORE_IN
    #: the specialised Write-stack command allocates without block read-in
    write_stack_no_fetch: bool = True

    def __post_init__(self) -> None:
        if self.capacity_words % (self.ways * self.block_words):
            raise ValueError("capacity must be a multiple of ways * block size")
        if self.capacity_words < self.ways * self.block_words:
            raise ValueError("capacity smaller than one set")
        if self.policy not in (WritePolicy.STORE_IN, WritePolicy.STORE_THROUGH):
            raise ValueError(f"unknown write policy {self.policy!r}")

    @property
    def sets(self) -> int:
        return self.capacity_words // (self.ways * self.block_words)


@dataclass
class AreaCounts:
    """Hit/miss counts for one memory area."""

    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hit ratio in percent (100.0 when never accessed)."""
        if not self.accesses:
            return 100.0
        return 100.0 * self.hits / self.accesses


class CacheStats:
    """Aggregate statistics of one simulation run."""

    def __init__(self) -> None:
        self.per_area: dict[Area, AreaCounts] = {area: AreaCounts() for area in Area}
        self.per_cmd_hits: dict[CacheCmd, int] = {cmd: 0 for cmd in CacheCmd}
        self.per_cmd_misses: dict[CacheCmd, int] = {cmd: 0 for cmd in CacheCmd}
        self.block_fetches = 0      # block read-ins from main memory
        self.writebacks = 0         # dirty block write-backs (store-in)
        self.through_writes = 0     # individual word writes to memory (store-through)

    @property
    def hits(self) -> int:
        return sum(c.hits for c in self.per_area.values())

    @property
    def misses(self) -> int:
        return sum(c.misses for c in self.per_area.values())

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if not self.accesses:
            return 100.0
        return 100.0 * self.hits / self.accesses

    def area_hit_ratio(self, area: Area) -> float:
        return self.per_area[area].hit_ratio

    def snapshot(self) -> dict:
        """Plain-data summary of the statistics (JSON-serialisable).

        Used by the observability layer (``psi.cache.*`` metrics) and
        handy for ad-hoc inspection; cumulative totals only — windowed
        hit ratios over time come from
        :class:`repro.obs.session.CacheWindowSampler`, which replays the
        run's packed trace at the window cuts the billing walk found.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "block_fetches": self.block_fetches,
            "writebacks": self.writebacks,
            "through_writes": self.through_writes,
            "per_area": {area.name.lower(): {"hits": c.hits, "misses": c.misses}
                         for area, c in self.per_area.items()},
        }


@dataclass(frozen=True)
class CacheResult:
    """A finished simulation: the configuration and its final statistics.

    What a collected run keeps of its production cache once the trace
    has been fed through it.  It holds no set storage, so a run rebuilt
    from a stored summary costs two references, not a fresh
    :class:`Cache` of ``config.sets`` empty sets.
    """

    config: CacheConfig
    stats: CacheStats


def count_entries_packed(data) -> tuple[list, list]:
    """Per-area and per-command access totals of a *packed* trace.

    The packed form is :attr:`repro.core.memory.TraceRecorder.data` —
    ``address << 2 | command_code`` ints, never decoded.  Returns flat
    lists indexed by area value and command code, the shape
    :meth:`Cache.access_many_packed` consumes.
    """
    area_counts = [0] * len(AREAS)
    cmd_counts = [0] * len(CMD_BY_CODE)
    shift = AREA_SHIFT + 2
    for packed in data:
        cmd_counts[packed & 3] += 1
        area_counts[packed >> shift] += 1
    return area_counts, cmd_counts


#: Sentinel distinguishing "absent" from a stored False dirty bit.
_ABSENT = object()


class Cache:
    """One simulated cache, fed a recorded access stream.

    Replacement is true LRU within each set.  Tags are full block
    numbers, so distinct areas never alias.

    Each set is an insertion-ordered dict ``{block_number: dirty}``
    whose key order *is* the LRU order (first = least recent): a hit
    pops and re-inserts its block, eviction pops the first key.  Dict
    sets keep both the per-access reference path (:meth:`access`) and
    the batched packed-trace kernel (:meth:`access_many_packed`) free
    of Python-level scan loops, and the two can be mixed freely on one
    cache: the kernel keeps no state between calls.
    """

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        self.stats = CacheStats()
        cfg = self.config
        # Each set: {block_number: dirty} in LRU order (first = LRU).
        self._sets: list[dict[int, bool]] = [{} for _ in range(cfg.sets)]
        self._block_shift = (cfg.block_words - 1).bit_length() \
            if cfg.block_words > 1 else 0
        if 1 << self._block_shift != cfg.block_words:
            raise ValueError("block size must be a power of two")
        # Hot-path constants hoisted out of the per-access call.
        self._n_sets = cfg.sets
        self._max_ways = cfg.ways
        self._store_in = cfg.policy == WritePolicy.STORE_IN
        self._ws_no_fetch = cfg.write_stack_no_fetch
        self._area_counts = tuple(self.stats.per_area[area] for area in AREAS)

    # -- per-access reference --------------------------------------------------

    def access(self, cmd: CacheCmd, address: int) -> bool:
        """Simulate one access; returns True on hit."""
        block = address >> self._block_shift
        ways = self._sets[block % self._n_sets]
        counts = self._area_counts[address >> AREA_SHIFT]
        stats = self.stats
        dirty = ways.pop(block, _ABSENT)

        is_write = cmd is not CacheCmd.READ
        if dirty is not _ABSENT:
            counts.hits += 1
            stats.per_cmd_hits[cmd] += 1
            if is_write:
                if self._store_in:
                    dirty = True
                else:
                    stats.through_writes += 1
            ways[block] = dirty        # re-insert at the MRU end
            return True

        counts.misses += 1
        stats.per_cmd_misses[cmd] += 1
        if is_write and not self._store_in:
            # No write-allocate: the word goes straight to memory.
            stats.through_writes += 1
            return False
        fetch = not (is_write
                     and cmd is CacheCmd.WRITE_STACK
                     and self._ws_no_fetch)
        if fetch:
            stats.block_fetches += 1
        if len(ways) >= self._max_ways:
            if ways.pop(next(iter(ways))):      # evict the LRU block
                stats.writebacks += 1
        ways[block] = is_write and self._store_in
        return False

    def access_many_packed(self, data, totals=None) -> None:
        """Replay a packed int trace (``address << 2 | code``) in one call.

        Semantically identical to calling :meth:`access` per entry —
        statistics and the final per-set LRU order both — but commands
        stay the 2-bit codes the trace already carries (``CMD_BY_CODE``
        order: READ=0, WRITE=1, WRITE_STACK=2) and the loop counts only
        *misses*: hits fall out as ``totals - misses`` at the end.
        ``totals`` is the ``(area_counts, cmd_counts)`` pair of
        :func:`count_entries_packed`, or the run collector's own equal
        totals; pass it to skip the counting pass.

        Most accesses touch their set's most recently used block, which
        is always a hit that leaves the LRU order as it is.  The loop
        keeps each set's MRU tag in a local list, rebuilt at entry from
        the sets' last keys, and answers such an access with one
        comparison (plus, under store-in, setting a write's dirty bit
        in place); every other access pops, re-inserts and evicts.
        """
        sets = self._sets
        n_sets = self._n_sets
        block_shift = self._block_shift + 2
        area_shift = AREA_SHIFT + 2
        max_ways = self._max_ways
        store_in = self._store_in
        ws_no_fetch = self._ws_no_fetch

        if totals is None:
            totals = count_entries_packed(data)
        area_totals, cmd_totals = totals

        stats = self.stats
        absent = _ABSENT
        next_ = next
        iter_ = iter
        # mru[s] is the last key of sets[s] (-1 while the set is empty).
        mru = [next_(reversed(ways), -1) for ways in sets]
        area_misses = [0] * len(AREAS)
        cmd_misses = [0] * len(CMD_BY_CODE)
        block_fetches = 0
        writebacks = 0

        if store_in:
            for packed in data:
                block = packed >> block_shift
                index = block % n_sets
                if mru[index] == block:
                    if packed & 3:
                        # Assigning an existing key keeps dict order.
                        sets[index][block] = True
                    continue
                ways = sets[index]
                mru[index] = block
                dirty = ways.pop(block, absent)
                code = packed & 3
                if dirty is not absent:
                    # Hit: re-insert at the MRU end; a write dirties.
                    ways[block] = True if code else dirty
                    continue
                area_misses[packed >> area_shift] += 1
                cmd_misses[code] += 1
                if not (ws_no_fetch and code == 2):
                    block_fetches += 1
                if len(ways) >= max_ways:
                    if ways.pop(next_(iter_(ways))):
                        writebacks += 1
                # Write-allocate: a write miss installs a dirty block.
                ways[block] = code != 0
            through_writes = 0
        else:
            # Store-through: every write (hit or miss) goes to memory,
            # write misses do not allocate, and blocks are never dirty.
            for packed in data:
                block = packed >> block_shift
                index = block % n_sets
                if mru[index] == block:
                    continue
                ways = sets[index]
                if ways.pop(block, absent) is not absent:
                    ways[block] = False
                    mru[index] = block
                    continue
                area_misses[packed >> area_shift] += 1
                code = packed & 3
                cmd_misses[code] += 1
                if code:
                    continue
                block_fetches += 1
                if len(ways) >= max_ways:
                    ways.pop(next_(iter_(ways)))
                ways[block] = False
                mru[index] = block
            through_writes = cmd_totals[1] + cmd_totals[2]

        per_area = stats.per_area
        for area in AREAS:
            counts = per_area[area]
            misses = area_misses[area]
            counts.hits += area_totals[area] - misses
            counts.misses += misses
        per_cmd_hits = stats.per_cmd_hits
        per_cmd_misses = stats.per_cmd_misses
        for code, cmd in enumerate(CMD_BY_CODE):
            misses = cmd_misses[code]
            per_cmd_hits[cmd] += cmd_totals[code] - misses
            per_cmd_misses[cmd] += misses
        stats.block_fetches += block_fetches
        stats.writebacks += writebacks
        stats.through_writes += through_writes

    # -- maintenance -----------------------------------------------------------------

    def flush(self) -> int:
        """Write back all dirty blocks; returns how many were dirty."""
        dirty = 0
        for ways in self._sets:
            for block, is_dirty in ways.items():
                if is_dirty:
                    dirty += 1
                    ways[block] = False
        self.stats.writebacks += dirty
        return dirty

    def reset(self) -> None:
        self.stats = CacheStats()
        self._sets = [{} for _ in range(self.config.sets)]
        self._area_counts = tuple(self.stats.per_area[area] for area in AREAS)

    @property
    def resident_blocks(self) -> int:
        return sum(len(ways) for ways in self._sets)
