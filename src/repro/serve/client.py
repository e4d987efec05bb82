"""Blocking client for the evaluation service.

The protocol is plain TCP (length-prefixed JSON, see
:mod:`repro.serve.protocol`), so this client is a thin socket wrapper:
one :class:`ServeClient` per thread, one request in flight at a time
(concurrency in the end-to-end tests and ``perfbench``'s
``serve-mix`` comes from many clients, mirroring many tenants).  It
doubles as the command-line client the docs use where an HTTP service
would show ``curl``::

    python -m repro.serve.client --port 7071 health
    python -m repro.serve.client --port 7071 solve nreverse
    python -m repro.serve.client --port 7071 replay window-1 \\
        --capacity 1024 --capacity 8192
    python -m repro.serve.client --port 7071 drain
"""

from __future__ import annotations

import argparse
import itertools
import json
import socket
import sys

from repro.serve.protocol import ProtocolError, decode_frames, encode_message


class ServeError(RuntimeError):
    """An ``ok: false`` response from the server."""


class ServeClient:
    """One synchronous connection to a running ``psi-eval serve``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 600.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._buffer = b""
        self._ids = itertools.count(1)

    # -- connection management ----------------------------------------------

    def connect(self) -> "ServeClient":
        self._sock = socket.create_connection((self.host, self.port),
                                              timeout=self.timeout)
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServeClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request/response ----------------------------------------------------

    def request(self, op: str, **fields) -> dict:
        """Send one request and return its ``result`` object.

        Raises :class:`ServeError` on an ``ok: false`` response and
        :class:`ProtocolError` if the connection dies mid-frame.
        """
        assert self._sock is not None, "client not connected"
        request_id = next(self._ids)
        self._sock.sendall(encode_message(
            {"id": request_id, "op": op, **fields}))
        response = self._read_response(request_id)
        if not response.get("ok"):
            raise ServeError(response.get("error", "unspecified error"))
        return response["result"]

    def _read_response(self, request_id: int) -> dict:
        while True:
            messages, self._buffer = decode_frames(self._buffer)
            for message in messages:
                if message.get("id") == request_id:
                    return message
                # A response to a request this client never sent — the
                # protocol is strictly request/response per connection,
                # so this is a server bug, not a race.
                raise ProtocolError(
                    f"response for unknown id {message.get('id')!r}")
            chunk = self._sock.recv(1 << 16)
            if not chunk:
                raise ProtocolError("server closed the connection "
                                    "mid-response")
            self._buffer += chunk

    # -- op shorthands -------------------------------------------------------

    def ping(self) -> dict:
        return self.request("ping")

    def solve(self, workload: str, spec: str | None = None) -> dict:
        fields = {"workload": workload}
        if spec is not None:
            fields["spec"] = spec
        return self.request("solve", **fields)

    def replay(self, workload: str, configs: list[dict] | None = None,
               spec: str | None = None) -> dict:
        fields = {"workload": workload, "configs": configs or [{}]}
        if spec is not None:
            fields["spec"] = spec
        return self.request("replay", **fields)

    def metrics(self) -> dict:
        return self.request("metrics")

    def health(self) -> dict:
        return self.request("health")

    def drain(self) -> dict:
        return self.request("drain")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Command-line client for psi-eval serve.")
    parser.add_argument("op", help="operation: ping, workloads, solve, "
                                   "replay, warm, fidelity, metrics, "
                                   "health, drain")
    parser.add_argument("operands", nargs="*", default=[],
                        help="op operands (e.g. the workload name)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--spec", default=None, metavar="NAME",
                        help="'solve'/'replay'/'warm': run spec to evaluate "
                             "under (e.g. faithful, indexed, baseline; "
                             "default: faithful)")
    parser.add_argument("--capacity", type=int, action="append", default=[],
                        metavar="WORDS",
                        help="'replay': cache capacity in words; repeatable "
                             "(one replayed configuration each)")
    parser.add_argument("--timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    fields: dict = {}
    if args.op in ("solve", "replay"):
        if len(args.operands) != 1:
            parser.error(f"op {args.op!r} needs exactly one workload name")
        fields["workload"] = args.operands[0]
    if args.op == "replay":
        fields["configs"] = ([{"capacity_words": c} for c in args.capacity]
                             or [{}])
    if args.op in ("solve", "replay", "warm") and args.spec:
        fields["spec"] = args.spec
    if args.op in ("warm", "fidelity") and args.operands:
        fields["workloads" if args.op == "warm" else "tables"] = args.operands

    with ServeClient(args.host, args.port, timeout=args.timeout) as client:
        try:
            result = client.request(args.op, **fields)
        except ServeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
