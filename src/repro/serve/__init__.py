"""``repro.serve`` — the long-running evaluation service.

PRs 1–6 built every serving primitive — the :class:`AbstractEngine`
protocol, picklable :class:`~repro.tools.collect.RunSummary` hand-off,
the persistent ``.psi-cache/`` run cache, batched ``simulate_many``
replay, the mergeable metrics registry — but only ever drove them from
a one-shot CLI.  This package turns them into a service:
``psi-eval serve`` keeps a pool of **warm engine workers** (each worker
process holds its in-memory run cache across requests), accepts
concurrent solve/replay requests over a length-prefixed JSON protocol,
**coalesces** compatible cache-replay requests into single
``simulate_many`` batches, and exposes the metrics registry, fidelity
score and worker/queue health as live endpoints — with graceful drain.

Layout (stdlib ``asyncio`` only, no new dependencies):

* :mod:`repro.serve.protocol` — wire format (4-byte length prefix +
  UTF-8 JSON) and the CacheConfig/CacheStats JSON codecs;
* :mod:`repro.serve.pool` — the warm worker pool: a
  ``ProcessPoolExecutor`` whose workers reuse the exact
  :mod:`repro.eval.runner` cache tiers (so ``RunSummary`` pickling and
  the file-locked ``.psi-cache/`` are shared with the CLI path);
* :mod:`repro.serve.batcher` — the replay coalescer: a replay goes to
  the pool at once while a replay slot is free; requests for the same
  workload trace that queue behind busy slots run as one
  ``simulate_many`` call over the union of their configurations;
* :mod:`repro.serve.server` — the asyncio server and request dispatch;
* :mod:`repro.serve.client` — a small blocking client (also a CLI:
  ``python -m repro.serve.client``) used by tests, docs and
  ``scripts/load_gen.py``.

See ``docs/SERVING.md`` for the protocol schema, the architecture
diagram, the cache-locking invariants and a worked client session.
"""

from repro.serve.protocol import (
    ProtocolError,
    cache_config_from_json,
    cache_config_to_json,
    cache_stats_to_json,
    decode_frames,
    encode_message,
)

__all__ = [
    "ProtocolError",
    "encode_message", "decode_frames",
    "cache_config_to_json", "cache_config_from_json", "cache_stats_to_json",
]
