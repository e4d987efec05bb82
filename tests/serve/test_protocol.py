"""Wire-protocol unit tests: framing, codecs, config canonicalisation."""

import struct

import pytest

from repro.memsys import CacheConfig, WritePolicy
from repro.serve.protocol import (
    HEADER,
    MAX_MESSAGE_BYTES,
    MAX_REPLAY_SETS,
    ProtocolError,
    cache_config_from_json,
    cache_config_to_json,
    canonical_config_key,
    decode_frames,
    encode_message,
)


def test_encode_decode_roundtrip():
    message = {"id": 7, "op": "solve", "workload": "nreverse"}
    frame = encode_message(message)
    assert frame[:HEADER.size] == struct.pack(">I", len(frame) - HEADER.size)
    messages, tail = decode_frames(frame)
    assert messages == [message]
    assert tail == b""


def test_decode_frames_handles_coalesced_and_partial_frames():
    a = encode_message({"id": 1, "op": "ping"})
    b = encode_message({"id": 2, "op": "health"})
    # Two complete frames plus a split third: TCP gives no message
    # boundaries, so the decoder must return the unconsumed tail.
    c = encode_message({"id": 3, "op": "metrics"})
    stream = a + b + c[:5]
    messages, tail = decode_frames(stream)
    assert [m["id"] for m in messages] == [1, 2]
    assert tail == c[:5]
    messages, tail = decode_frames(tail + c[5:])
    assert [m["id"] for m in messages] == [3]
    assert tail == b""


def test_decode_frames_empty_and_header_only():
    assert decode_frames(b"") == ([], b"")
    partial_header = b"\x00\x00"
    assert decode_frames(partial_header) == ([], partial_header)


def test_oversized_frame_rejected_without_buffering():
    bogus = struct.pack(">I", MAX_MESSAGE_BYTES + 1)
    with pytest.raises(ProtocolError, match="exceeds"):
        decode_frames(bogus)


def test_encode_rejects_oversized_message():
    with pytest.raises(ProtocolError, match="exceeds"):
        encode_message({"blob": "x" * (MAX_MESSAGE_BYTES + 1)})


def test_non_object_and_undecodable_bodies_rejected():
    body = b"[1,2,3]"
    frame = struct.pack(">I", len(body)) + body
    with pytest.raises(ProtocolError, match="JSON object"):
        decode_frames(frame)
    garbage = b"\xff\xfe not json"
    frame = struct.pack(">I", len(garbage)) + garbage
    with pytest.raises(ProtocolError, match="undecodable"):
        decode_frames(frame)


def test_cache_config_json_roundtrip():
    config = CacheConfig(capacity_words=1024, ways=1,
                         policy=WritePolicy.STORE_THROUGH)
    data = cache_config_to_json(config)
    assert cache_config_from_json(data) == config


def test_cache_config_unknown_field_rejected():
    with pytest.raises(ProtocolError, match="capcity_words"):
        cache_config_from_json({"capcity_words": 1024})


def test_cache_config_geometry_validation_applies():
    with pytest.raises(ValueError):
        cache_config_from_json({"capacity_words": 7})


def test_cache_config_set_limit():
    # The largest allowed geometry builds; one set more is refused
    # before any set storage is allocated.
    largest = {"capacity_words": MAX_REPLAY_SETS * 2 * 4}
    assert cache_config_from_json(largest).sets == MAX_REPLAY_SETS
    with pytest.raises(ProtocolError, match="replay limit"):
        cache_config_from_json({"capacity_words": 2 ** 31})
    with pytest.raises(ProtocolError, match="replay limit"):
        canonical_config_key({"capacity_words": (MAX_REPLAY_SETS + 1) * 4,
                              "ways": 1})


def test_canonical_key_fills_defaults():
    # {} and the explicit default spelling must deduplicate to one
    # simulated configuration inside a replay batch.
    default = CacheConfig()
    explicit = cache_config_to_json(default)
    assert canonical_config_key({}) == canonical_config_key(explicit)
    assert (canonical_config_key({"capacity_words": 1024})
            != canonical_config_key({}))
