"""Wire protocol of the evaluation service.

Framing is deliberately minimal — a 4-byte big-endian unsigned length
followed by that many bytes of UTF-8 JSON — so any language (or a
50-line Python script, see :mod:`repro.serve.client`) can speak it
without an HTTP stack, and the stdlib-only constraint holds.

Every request is a JSON object with

* ``"op"`` — the operation name (see ``docs/SERVING.md`` for the op
  table and per-op fields), and
* ``"id"`` — an opaque client-chosen correlation value, echoed
  verbatim on the response.  Responses to one connection's requests
  may complete out of order (they run concurrently on the worker
  pool), so clients match on ``id``, not arrival order.

Every response carries the echoed ``"id"``, ``"ok"`` (boolean), and
either ``"result"`` (an op-specific object) or ``"error"`` (a message
string).  Malformed frames raise :class:`ProtocolError` server-side and
close the connection; application-level failures (unknown workload,
failed run) travel as ``ok: false`` responses and leave the connection
usable.

This module also owns the JSON codecs for the two simulator dataclasses
that cross the wire: :class:`~repro.memsys.CacheConfig` (replay request
operand) and :class:`~repro.memsys.CacheStats` (replay result).
"""

from __future__ import annotations

import asyncio
import json
import struct

#: Frame header: one 4-byte big-endian unsigned length.
HEADER = struct.Struct(">I")

#: Upper bound on one frame's body — a full metrics snapshot is a few
#: KB and replay batches a few hundred bytes, so anything near this is
#: a corrupt or hostile frame, not a real message.
MAX_MESSAGE_BYTES = 16 << 20

#: Largest cache a replay request may simulate, in sets.  Every set is
#: a dict allocated up front (~72 bytes even when empty), so an
#: unbounded geometry could exhaust a worker's memory; 2**17 sets is
#: 1 Mi words at the default 2-way, 4-word-block geometry — 128x the
#: paper's cache.
MAX_REPLAY_SETS = 1 << 17

#: Most cache configurations one replay request may name (Figure 1's
#: whole capacity sweep is 11).
MAX_REPLAY_CONFIGS = 64


class ProtocolError(Exception):
    """A frame that cannot be part of a valid conversation."""


def encode_message(message: dict) -> bytes:
    """One complete frame: header + compact JSON body."""
    body = json.dumps(message, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")
    if len(body) > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"message of {len(body)} bytes exceeds the "
                            f"{MAX_MESSAGE_BYTES}-byte frame limit")
    return HEADER.pack(len(body)) + body


def decode_frames(buffer: bytes) -> tuple[list[dict], bytes]:
    """Split ``buffer`` into complete messages plus the unconsumed tail.

    The synchronous mirror of :func:`read_message` for callers that
    manage their own socket reads (the blocking client).
    """
    messages: list[dict] = []
    offset = 0
    while len(buffer) - offset >= HEADER.size:
        (length,) = HEADER.unpack_from(buffer, offset)
        if length > MAX_MESSAGE_BYTES:
            raise ProtocolError(f"frame of {length} bytes exceeds the "
                                f"{MAX_MESSAGE_BYTES}-byte limit")
        if len(buffer) - offset - HEADER.size < length:
            break
        start = offset + HEADER.size
        messages.append(_decode_body(buffer[start:start + length]))
        offset = start + length
    return messages, buffer[offset:]


def _decode_body(body: bytes) -> dict:
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame body: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame body must be a JSON object")
    return message


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one frame; ``None`` on clean EOF at a frame boundary."""
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-header") from None
    (length,) = HEADER.unpack(header)
    if length > MAX_MESSAGE_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds the "
                            f"{MAX_MESSAGE_BYTES}-byte limit")
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return _decode_body(body)


async def write_message(writer: asyncio.StreamWriter, message: dict) -> None:
    writer.write(encode_message(message))
    await writer.drain()


# ---------------------------------------------------------------------------
# CacheConfig / CacheStats codecs

#: JSON-adjustable CacheConfig fields, in canonical (sorted) order.
_CONFIG_FIELDS = ("block_words", "capacity_words", "policy", "ways",
                  "write_stack_no_fetch")


def cache_config_to_json(config) -> dict:
    """Plain-dict form of a :class:`~repro.memsys.CacheConfig`."""
    return {name: getattr(config, name) for name in _CONFIG_FIELDS}


def cache_config_from_json(data: dict):
    """Build a validated :class:`~repro.memsys.CacheConfig` from JSON.

    Unknown fields are rejected (a typo like ``"capcity_words"`` must
    not silently simulate the default geometry), the dataclass's own
    ``__post_init__`` validation applies, and a geometry of more than
    :data:`MAX_REPLAY_SETS` sets is refused, so each of these comes
    back to the client as an ``ok: false`` response.
    """
    from repro.memsys import CacheConfig

    unknown = sorted(set(data) - set(_CONFIG_FIELDS))
    if unknown:
        raise ProtocolError(f"unknown cache config field(s): "
                            f"{', '.join(unknown)} "
                            f"(valid: {', '.join(_CONFIG_FIELDS)})")
    config = CacheConfig(**data)
    if config.sets > MAX_REPLAY_SETS:
        raise ProtocolError(f"cache config of {config.sets} sets exceeds "
                            f"the {MAX_REPLAY_SETS}-set replay limit")
    return config


def canonical_config_key(data: dict) -> tuple:
    """Hashable identity of one requested configuration.

    Defaults are filled in before keying, so ``{}`` and an explicit
    spelling of the default geometry deduplicate to one simulation.
    """
    return tuple(sorted(cache_config_to_json(
        cache_config_from_json(data)).items()))


def cache_stats_to_json(stats) -> dict:
    """Wire form of replayed :class:`~repro.memsys.CacheStats`.

    ``snapshot()`` already carries every scalar the paper's metric
    needs; ``accesses`` is added so clients need no arithmetic to
    sanity-check hit ratios.
    """
    data = stats.snapshot()
    data["accesses"] = stats.accesses
    return data
