"""Synchronous TCP client for the scoring service.

In process there is no client: callers use the (thread-safe)
:class:`~repro.serving.service.ScoringService` or
:class:`~repro.serving.sharding.ShardedScoringService` directly.
:class:`TCPScoringClient` speaks the wire protocol of
:mod:`repro.serving.server` over a socket with the hardening a replay
run needs: lazy connect, reconnect with bounded
exponential backoff when the server drops mid-exchange (requests are
re-sent — at-least-once delivery; the store's duplicate filter makes
ingest re-sends idempotent), a clean :class:`ServerUnreachableError`
once the budget is spent, and the server's "queue full" refusals (its
in-flight bound) raised as
:class:`~repro.serving.batching.QueueFullError`, the backpressure the
replay engine's retry ladder handles.
"""

from __future__ import annotations

import json
import socket
import time
from typing import IO, Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.serving.batching import QueueFullError

__all__ = [
    "RemoteError",
    "ServerUnreachableError",
    "TCPScoringClient",
]


class ServerUnreachableError(ConnectionError):
    """The scoring server could not be reached within the retry budget."""


class RemoteError(RuntimeError):
    """The server answered ``{"ok": false}`` with a non-backpressure error."""


#: substring of the server's reply when its in-flight bound refuses a request
_QUEUE_FULL_MARKER = "queue full"


class TCPScoringClient:
    """Synchronous newline-JSON client for a remote :class:`ScoringServer`.

    Parameters
    ----------
    host, port:
        Server address (``repro serve --port N``).
    connect_timeout:
        Seconds per connection attempt.
    op_timeout:
        Socket timeout for one request/response exchange.
    max_reconnects:
        Connection attempts per operation before
        :class:`ServerUnreachableError`; each failed attempt backs off
        ``reconnect_backoff * 2**k`` seconds, capped at
        ``reconnect_backoff_cap``.  A server restart inside that budget
        is invisible to the caller beyond the added latency.

    Notes
    -----
    Delivery is at-least-once: if the connection drops after a request
    went out but before the reply came back, the whole exchange is
    re-sent on the new connection.  Ingest ops are idempotent through
    the store's duplicate filter; ``applied`` counts may under-report
    across a retry (the events landed, the ack was lost).

    The client is intentionally not thread-safe — one socket, one
    outstanding exchange.  The replay engine drives it from a single
    consumer (``wants_executor_offload`` keeps the blocking I/O off the
    event loop).
    """

    #: socket I/O must leave the replay engine's event loop
    wants_executor_offload = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7569,
        *,
        connect_timeout: float = 5.0,
        op_timeout: float = 60.0,
        max_reconnects: int = 8,
        reconnect_backoff: float = 0.05,
        reconnect_backoff_cap: float = 2.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_reconnects < 0:
            raise ValueError("max_reconnects must be >= 0")
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.op_timeout = op_timeout
        self.max_reconnects = max_reconnects
        self.reconnect_backoff = reconnect_backoff
        self.reconnect_backoff_cap = reconnect_backoff_cap
        self._sleep = sleep
        self._sock: Optional[socket.socket] = None
        self._rfile: Optional[IO[bytes]] = None
        self._next_id = 0
        self.reconnects = 0

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #

    def connect(self) -> None:
        """Eagerly establish the connection (otherwise it is lazy)."""
        if self._sock is None:
            self._connect_once()

    def _connect_once(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(self.op_timeout)
        self._sock = sock
        self._rfile = sock.makefile("rb")

    def _teardown(self) -> None:
        for closer in (self._rfile, self._sock):
            if closer is not None:
                try:
                    closer.close()
                except OSError:
                    pass
        self._rfile = None
        self._sock = None

    def close(self) -> None:
        """Close the connection (the client reconnects lazily if reused)."""
        self._teardown()

    def __enter__(self) -> "TCPScoringClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Wire exchange
    # ------------------------------------------------------------------ #

    def _roundtrip(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request; return the reply that echoes its ``id``.

        Any connection failure tears the socket down, backs off,
        reconnects, and re-sends the request; past ``max_reconnects``
        attempts the caller gets :class:`ServerUnreachableError`.
        """
        rid = self._next_id
        self._next_id += 1
        payload["id"] = rid
        wire = json.dumps(payload).encode("utf-8") + b"\n"
        last_exc: Optional[Exception] = None
        for attempt in range(self.max_reconnects + 1):
            if attempt > 0:
                self.reconnects += 1
                self._sleep(
                    min(
                        self.reconnect_backoff * 2 ** (attempt - 1),
                        self.reconnect_backoff_cap,
                    )
                )
            try:
                if self._sock is None:
                    self._connect_once()
                assert self._sock is not None and self._rfile is not None
                self._sock.sendall(wire)
                while True:
                    line = self._rfile.readline()
                    if not line:
                        raise ConnectionResetError(
                            "server closed the connection mid-exchange"
                        )
                    response: Dict[str, Any] = json.loads(line)
                    got = response.get("id")
                    if got is None and not response.get("ok", False):
                        # a reply the server could not tie to a request
                        # (oversized/garbled line): fail loudly rather
                        # than wait forever for an id that will never come
                        raise RemoteError(
                            str(response.get("error", "unknown server error"))
                        )
                    if got == rid:
                        return response
            except (OSError, EOFError, json.JSONDecodeError) as exc:
                self._teardown()
                last_exc = exc
        raise ServerUnreachableError(
            f"scoring server at {self.host}:{self.port} unreachable after "
            f"{self.max_reconnects + 1} attempts "
            f"({type(last_exc).__name__}: {last_exc})"
        ) from last_exc

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        return self._check(self._roundtrip(payload))

    @staticmethod
    def _check(response: Dict[str, Any]) -> Dict[str, Any]:
        """Return a reply, or raise the error it carries.

        A score row of an untracked cascade (``"ok": false``, status
        ``"unknown_cascade"``) carries no error and is returned as is,
        as the in-process ``score_columns`` marks it not ok.
        """
        if "error" not in response:
            return response
        error = str(response["error"])
        if _QUEUE_FULL_MARKER in error:
            raise QueueFullError(error)
        raise RemoteError(error)

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #

    def ping(self) -> bool:
        """Liveness probe."""
        return bool(self._request({"op": "ping"}).get("pong", False))

    def ingest(self, cascade_id: str, node: int, t: float) -> bool:
        """Report one adoption event; ``False`` for duplicate adopters."""
        response = self._request(
            {"op": "event", "cascade": cascade_id, "node": int(node), "t": float(t)}
        )
        return bool(response["applied"])

    def ingest_columns(
        self,
        cascade_ids: Sequence[str],
        nodes: np.ndarray,
        times: np.ndarray,
    ) -> int:
        """Columnar burst; serialized as one ``events`` op on the wire."""
        burst = [
            [str(c), int(n), float(t)]
            for c, n, t in zip(cascade_ids, nodes, times)
        ]
        response = self._request({"op": "events", "events": burst})
        return int(response["applied"])

    def score(self, cascade_id: str, include_features: bool = False) -> Dict[str, Any]:
        """Score one cascade; returns the server's JSON row (not ok for
        an untracked cascade)."""
        payload: Dict[str, Any] = {"op": "score", "cascade": cascade_id}
        if include_features:
            payload["features"] = True
        return self._request(payload)

    def score_many(
        self, cascade_ids: Sequence[str], include_features: bool = False
    ) -> List[Dict[str, Any]]:
        """Score a group of cascades in one ``score_many`` exchange.

        The server answers the whole group with one ``score_columns``
        call, and the rows come back in request order.  A cascade the
        server does not track is a row of its own with ``"ok": false``
        and status ``"unknown_cascade"``.
        """
        response = self._request(
            {
                "op": "score_many",
                "cascades": list(cascade_ids),
                "features": bool(include_features),
            }
        )
        return list(response["results"])

    def swap(self, path: str) -> Dict[str, Any]:
        """Hot-swap the model from a filesystem artifact."""
        return self._request({"op": "swap", "path": path})

    def stats(self) -> Dict[str, Any]:
        return dict(self._request({"op": "stats"})["stats"])

    def health(self) -> Dict[str, Any]:
        return self._request({"op": "health"})
