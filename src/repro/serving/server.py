"""Asyncio newline-JSON front end for the scoring service.

One request per line, one JSON object per response.  Operations:

``{"op": "event", "cascade": "c1", "node": 3, "t": 0.25}``
    Fold an adoption event in.  Responds ``{"ok": true, "applied": ...}``.
``{"op": "events", "events": [["c1", 3, 0.25], ["c2", 7, 0.3], ...]}``
    Fold a burst of adoption events in one call — one lock round-trip
    and one vectorized fold per touched cascade (the firehose path).
    Responds ``{"ok": true, "applied": <non-duplicates>}``.
``{"op": "score", "cascade": "c1"}``
    Queue a score request; the response arrives once the micro-batcher
    flushes (batch full or ``max_delay`` elapsed).  Add
    ``"features": true`` to embed the feature vector.
``{"op": "score_many", "cascades": ["c1", "c2", ...], "features": false}``
    Score a group of cascades in one exchange: one ``score_columns``
    call (one executor hop; one fan-out on the sharded tier) instead of
    one queued request per cascade, so the group never waits on the
    micro-batcher's ``max_delay`` timer.  Responds ``{"ok": true,
    "results": [...]}`` with one ``score``-shaped object per cascade in
    request order (``latency_ms.queued`` is 0, ``batch_size`` the group
    size); ``"features": true`` embeds the feature vectors.
``{"op": "flush"}``
    Force an immediate flush (mostly for tests and drains).
``{"op": "swap", "path": "model.npz"}``
    Hot-swap the model from a filesystem artifact (embedding ``.npz``
    or training checkpoint).  The currently published predictor is
    carried forward — artifacts hold embeddings only.
``{"op": "stats"}`` / ``{"op": "ping"}``
    Service state / liveness.

Every request may carry an ``"id"`` which is echoed in the response, so
clients can pipeline requests and match answers out of order (score
responses are inherently deferred behind the batcher).

``{"op": "health"}``
    Lifecycle/readiness snapshot (see :mod:`repro.serving.health`):
    ``state`` (``serving``/``degraded``/``draining``/...), ``ready``,
    ``healthy``, active degraded reasons, recent structured faults.

The server never blocks the event loop: scoring requests resolve via
``on_done`` callbacks marshalled onto the loop, a background flusher
task enforces ``max_delay``, and the stdio front end reads stdin
through the default executor.  (The REP008 lint rule polices exactly
this property.)

Robustness (DESIGN.md §14):

* **Bounded lines** — requests are assembled from fixed-size reads
  through a carry buffer with a hard per-line byte bound; an oversized
  line yields a structured JSON error and the connection stays alive
  (``readline`` would raise ``LimitOverrunError`` and, drained naively,
  drop pipelined bytes after the newline).
* **Read timeouts** — a connection idle past ``read_timeout`` is closed
  (a stuck peer cannot pin a connection slot forever).
* **Supervised background tasks** — the flusher and sweeper run under a
  restart wrapper: a crashed loop is fault-logged and restarted with
  exponential backoff; past the restart budget the task is abandoned
  and the service degrades (``task:<name>``) instead of silently losing
  its ``max_delay`` guarantee.
* **Graceful drain** — :meth:`ScoringServer.run` installs a SIGTERM
  handler that stops accepting, flushes everything pending, seals the
  journal, and returns (the CLI then exits 0).  A hard
  :meth:`ScoringServer.stop` fails still-queued requests with
  ``"aborted"`` so no waiter hangs.
"""

from __future__ import annotations

import asyncio
import functools
import json
import signal
import sys
from typing import IO, Any, Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.prediction.features import PAPER_FEATURES
from repro.serving.batching import BatchPolicy, ScoreColumns, ScoreResult
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig

__all__ = [
    "ScoringServer",
    "build_service",
    "columns_to_dicts",
    "result_to_dict",
    "serve_stdio",
]

#: sweep TTL-stale cascades this often (seconds) while a server runs
_SWEEP_INTERVAL = 1.0
#: socket read granularity for the bounded line assembler
_READ_CHUNK = 65536


class _LineAssembler:
    """Carry-buffer line splitter with a hard per-line byte bound.

    Feed raw socket chunks in; get ``(ok, line)`` pairs out.  ``ok`` is
    ``False`` exactly once per oversized line — emitted as soon as the
    bound is crossed, after which bytes are discarded until the next
    newline — so the peer gets one structured error and the connection
    (and anything pipelined behind the bad line) keeps working.
    """

    __slots__ = ("limit", "_buf", "_discarding")

    def __init__(self, limit: int) -> None:
        if limit < 2:
            raise ValueError("line limit must be >= 2 bytes")
        self.limit = limit
        self._buf = bytearray()
        self._discarding = False

    def feed(self, chunk: bytes) -> List[Tuple[bool, bytes]]:
        out: List[Tuple[bool, bytes]] = []
        buf = self._buf
        buf += chunk
        while True:
            idx = buf.find(b"\n")
            if idx < 0:
                if self._discarding:
                    buf.clear()
                elif len(buf) > self.limit:
                    out.append((False, b""))
                    self._discarding = True
                    buf.clear()
                return out
            line = bytes(buf[:idx])
            del buf[: idx + 1]
            if self._discarding:
                # tail of an oversized line already reported above
                self._discarding = False
                continue
            if len(line) > self.limit:
                out.append((False, b""))
                continue
            out.append((True, line))


def build_service(
    model_path: str,
    predictor_path: Optional[str] = None,
    feature_set: Any = PAPER_FEATURES,
    max_batch: int = 64,
    max_delay: float = 0.005,
    max_pending: int = 1024,
    overflow: str = "reject",
    capacity: int = 100_000,
    ttl: Optional[float] = None,
    journal_dir: Optional[str] = None,
    fsync: str = "interval",
    fsync_interval: float = 0.05,
) -> ScoringService:
    """Assemble a ready-to-serve :class:`ScoringService` from artifacts.

    This is the one factory the CLI, the examples, and the server tests
    share: registry + initial publish + policy + store config.  With
    *journal_dir* set, a write-ahead journal is attached and the
    initial publish is journaled — a scorer built this way is
    recoverable from its first event on (``repro serve --recover``).
    """
    from repro.prediction.pipeline import ViralityPredictor

    predictor = (
        ViralityPredictor.load(predictor_path) if predictor_path is not None else None
    )
    registry = ModelRegistry()
    service = ScoringService(
        registry,
        feature_set=feature_set,
        store_config=StoreConfig(capacity=capacity, ttl=ttl),
        policy=BatchPolicy(
            max_batch=max_batch,
            max_delay=max_delay,
            max_pending=max_pending,
            overflow=overflow,
        ),
    )
    if journal_dir is not None:
        from repro.serving.durability import EventJournal, JournalConfig

        service.attach_journal(
            EventJournal(
                JournalConfig(
                    directory=journal_dir,
                    fsync=fsync,
                    fsync_interval=fsync_interval,
                )
            )
        )
    snap = registry.publish_path(model_path, predictor=predictor)
    service._adopt_published(snap)
    service.begin_serving()
    return service


def result_to_dict(result: ScoreResult) -> Dict[str, Any]:
    """JSON-friendly view of a :class:`ScoreResult`."""
    out: Dict[str, Any] = {
        "ok": result.ok,
        "status": result.status,
        "cascade": result.cascade_id,
        "n_early": result.n_early,
        "model_version": result.model_version,
    }
    if result.score is not None:
        out["score"] = result.score
    if result.label is not None:
        out["label"] = result.label
    if result.features is not None:
        out["features"] = np.asarray(result.features).tolist()
    if result.latency is not None:
        out["latency_ms"] = {
            "queued": result.latency.queued_s * 1e3,
            "compute": result.latency.compute_s * 1e3,
            "total": result.latency.total_s * 1e3,
            "batch_size": result.latency.batch_size,
        }
    return out


def columns_to_dicts(
    cascade_ids: Sequence[str], columns: ScoreColumns
) -> List[Dict[str, Any]]:
    """Per-cascade JSON view of one :class:`ScoreColumns` group.

    Row *i* carries the keys :func:`result_to_dict` writes for
    ``cascade_ids[i]``.  A group is scored in one call and never queues,
    so ``latency_ms.queued`` is 0 and ``batch_size`` is the group size.
    """
    n = len(cascade_ids)
    compute_ms = columns.compute_s * 1e3
    scores = columns.scores.tolist() if columns.scores is not None else None
    labels = columns.labels.tolist() if columns.labels is not None else None
    features = columns.features.tolist() if columns.features is not None else None
    n_early = columns.n_early.tolist()
    out: List[Dict[str, Any]] = []
    for i, ok in enumerate(columns.ok.tolist()):
        row: Dict[str, Any] = {
            "ok": ok,
            "status": "ok" if ok else "unknown_cascade",
            "cascade": cascade_ids[i],
            "n_early": n_early[i],
            "model_version": columns.model_version,
        }
        if ok and scores is not None and labels is not None:
            row["score"] = scores[i]
            row["label"] = labels[i]
        if ok and features is not None:
            row["features"] = features[i]
        row["latency_ms"] = {
            "queued": 0.0,
            "compute": compute_ms,
            "total": compute_ms,
            "batch_size": n,
        }
        out.append(row)
    return out


def _cascade_ids(value: Any) -> List[str]:
    """The ``cascades`` field of a ``score_many`` request, validated."""
    if not isinstance(value, list) or not all(isinstance(c, str) for c in value):
        raise TypeError("cascades must be a list of cascade id strings")
    return value


class ScoringServer:
    """Newline-JSON server over asyncio streams (TCP or stdio).

    Parameters
    ----------
    read_timeout:
        Seconds a connection may sit idle (no bytes) before it is
        closed; ``None`` disables the timeout.
    max_line_bytes:
        Hard bound on one request line; longer lines get a structured
        error reply and are discarded (connection stays alive).
    max_task_restarts:
        How many times a crashed background task (flusher/sweeper) is
        restarted before it is abandoned and the service degrades.
    restart_backoff:
        First restart delay; doubles per consecutive restart.
    """

    def __init__(
        self,
        service: ScoringService,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = None,
        max_line_bytes: int = 1 << 20,
        max_task_restarts: int = 5,
        restart_backoff: float = 0.05,
    ):
        self.service = service
        # A sharded service's synchronous calls block on worker pipes
        # (and its router lock can be held across a pipe round-trip), so
        # every service touch must leave the event loop.  The in-process
        # service stays inline: its calls are sub-millisecond and a
        # thread hop per request would cost more than it saves.
        self._offload = bool(getattr(service, "wants_executor_offload", False))
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self.max_line_bytes = max_line_bytes
        self.max_task_restarts = max_task_restarts
        self.restart_backoff = restart_backoff
        self._server: Optional[asyncio.Server] = None
        self._flusher: Optional[asyncio.Task] = None
        self._sweeper: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self.task_restarts: Dict[str, int] = {}
        self.timeouts = 0
        self.oversized = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def _call_service(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Invoke one service call where it belongs.

        Inline for the in-process service; through the default executor
        when the service asked for offload (``wants_executor_offload``)
        — a pipe round-trip, or merely waiting on a router lock held
        across one, must never stall the event loop.
        """
        if not self._offload:
            return fn(*args, **kwargs)
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, functools.partial(fn, *args, **kwargs))

    async def start(self) -> None:
        """Bind the TCP listener and start the background flusher."""
        self._start_background()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        await self._call_service(self.service.begin_serving)

    async def stop(self) -> None:
        """Hard stop: close the listener, kill tasks, abort the queue."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in (self._flusher, self._sweeper):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._flusher = None
        self._sweeper = None
        # release any waiter still parked on the batcher
        await self._call_service(self.service.abort_pending)
        # a sharded service also owns worker processes and a shared
        # segment; a hard stop must reap them (no-op for the in-process
        # service, which has no close)
        closer = getattr(self.service, "close", None)
        if closer is not None:
            await self._call_service(closer)

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush pending, seal journal."""
        self._stopping = True
        await self._call_service(self.service.begin_draining)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in (self._flusher, self._sweeper):
            if task is not None:
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        self._flusher = None
        self._sweeper = None
        await self._call_service(self.service.drain)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def run(self) -> None:
        """Serve until SIGTERM, then drain gracefully and return.

        This is the supervised entry point the CLI uses: on SIGTERM the
        listener closes, the pending batch flushes, the journal seals,
        and the method returns normally (the process then exits 0).
        """
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        try:
            if self._server is None:
                await self.start()
            assert self._server is not None
            async with self._server:
                await stop.wait()
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
        await self.drain()

    def _start_background(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._stopping = False
        self._flusher = asyncio.create_task(
            self._supervised("flusher", self._flush_loop)
        )
        if self.service.ttl_enabled():
            self._sweeper = asyncio.create_task(
                self._supervised("sweeper", self._sweep_loop)
            )

    # ------------------------------------------------------------------ #
    # Background tasks
    # ------------------------------------------------------------------ #

    async def _supervised(
        self, name: str, factory: Callable[[], Awaitable[None]]
    ) -> None:
        """Watchdog wrapper: restart a dead loop with exponential backoff.

        A background loop has no business returning before shutdown or
        raising — either means it is dead and the service is quietly
        violating its ``max_delay`` (flusher) or TTL (sweeper) contract.
        Each death is recorded as a structured fault and the loop
        restarts after ``restart_backoff * 2^k``; once
        ``max_task_restarts`` is exhausted the task is abandoned and the
        service degrades with reason ``task:<name>`` — visible to health
        probes, instead of a silent stall.  Cancellation (shutdown)
        passes through.
        """
        attempts = 0
        while not self._stopping:
            try:
                await factory()
                if self._stopping:
                    return
                detail = f"{name} loop returned unexpectedly"
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # supervised boundary: log + restart
                if self._stopping:
                    return
                detail = f"{name} died: {type(exc).__name__}: {exc}"
            attempts += 1
            self.task_restarts[name] = attempts
            if attempts > self.max_task_restarts:
                self.service.record_fault("task_dead", detail)
                self.service.degrade(
                    f"task:{name}",
                    f"abandoned after {self.max_task_restarts} restarts ({detail})",
                )
                return
            self.service.record_fault(
                "task_restart", f"{detail}; restart #{attempts}"
            )
            await asyncio.sleep(self.restart_backoff * (2 ** (attempts - 1)))

    async def _flush_loop(self) -> None:
        """Enforce ``max_delay``: flush whenever requests come due.

        Wakes early (via ``_wake``) when a submit fills the batch, so a
        full batch never waits out the delay timer.  Doubles as the
        journal's heartbeat: each pass gives ``fsync="interval"`` a
        chance to sync a quiet stream.

        Ends on ``_stopping`` rather than relying on cancellation alone:
        Python 3.11's ``asyncio.wait_for`` returns the inner result when
        a cancel races its completion, and a loop that survived its
        cancel would keep :meth:`drain` waiting forever.  A swallowed
        cancel now costs at most one ``max_delay``.
        """
        assert self._wake is not None
        delay = max(self.service.policy.max_delay, 1e-4)
        while not self._stopping:
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=delay)
            except asyncio.TimeoutError:
                pass
            self._wake.clear()
            while await self._call_service(self.service.due):
                await self._call_service(self.service.flush)
            await self._call_service(self.service.journal_tick)

    async def _sweep_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(_SWEEP_INTERVAL)
            await self._call_service(self.service.sweep)

    # ------------------------------------------------------------------ #
    # Protocol
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Each line is dispatched as its own task so a score request
        # awaiting the batcher never blocks the read loop — that is
        # what lets one connection pipeline a whole batch.  A lock
        # keeps concurrent responses from interleaving on the wire.
        # Lines are assembled from fixed-size reads through the bounded
        # carry buffer (never readline: LimitOverrunError recovery
        # would drop pipelined bytes sitting behind the long line).
        write_lock = asyncio.Lock()
        in_flight: set = set()
        assembler = _LineAssembler(self.max_line_bytes)

        async def send(response: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()

        async def respond(raw: bytes) -> None:
            response = await self._dispatch_line(raw)
            if response is not None:
                await send(response)

        try:
            while True:
                try:
                    chunk = await asyncio.wait_for(
                        reader.read(_READ_CHUNK), timeout=self.read_timeout
                    )
                except asyncio.TimeoutError:
                    self.timeouts += 1
                    self.service.record_fault(
                        "read_timeout",
                        f"connection idle > {self.read_timeout}s; closing",
                    )
                    break
                if not chunk:
                    break
                for ok, line in assembler.feed(chunk):
                    if not ok:
                        self.oversized += 1
                        await send(
                            {
                                "ok": False,
                                "error": "request line exceeds "
                                f"{self.max_line_bytes} bytes; discarded",
                            }
                        )
                        continue
                    stripped = line.strip()
                    if not stripped:
                        continue
                    task = asyncio.create_task(respond(stripped))
                    in_flight.add(task)
                    task.add_done_callback(in_flight.discard)
            if in_flight:
                await asyncio.gather(*in_flight, return_exceptions=True)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch_line(self, raw: bytes) -> Optional[Dict[str, Any]]:
        try:
            message = json.loads(raw)
        except json.JSONDecodeError as exc:
            return {"ok": False, "error": f"bad json: {exc.msg}"}
        if not isinstance(message, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        return await self.dispatch(message)

    async def dispatch(self, message: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """Handle one decoded request; returns the response object."""
        req_id = message.get("id")
        op = message.get("op")
        try:
            if op == "event":
                applied = await self._call_service(
                    self.service.ingest,
                    str(message["cascade"]),
                    int(message["node"]),
                    float(message["t"]),
                )
                response: Dict[str, Any] = {"ok": True, "applied": applied}
            elif op == "events":
                burst = [
                    (str(cascade), int(node), float(t))
                    for cascade, node, t in message["events"]
                ]
                count = await self._call_service(self.service.ingest_many, burst)
                response = {"ok": True, "applied": count, "count": len(burst)}
            elif op == "score":
                response = await self._score(message)
            elif op == "score_many":
                cascade_ids = _cascade_ids(message["cascades"])
                columns = await self._call_service(
                    self.service.score_columns,
                    cascade_ids,
                    include_features=bool(message.get("features", False)),
                )
                response = {
                    "ok": True,
                    "results": columns_to_dicts(cascade_ids, columns),
                }
            elif op == "flush":
                results = await self._call_service(self.service.flush)
                response = {"ok": True, "flushed": len(results)}
            elif op == "swap":
                snap = await self._call_service(
                    self.service.swap_path, str(message["path"])
                )
                response = {
                    "ok": True,
                    "model_version": snap.version,
                    "source": snap.source,
                    "fingerprint": snap.fingerprint,
                }
            elif op == "stats":
                response = {
                    "ok": True,
                    "stats": await self._call_service(self.service.stats),
                }
            elif op == "health":
                response = {
                    "ok": True,
                    **await self._call_service(self.service.health_snapshot),
                }
            elif op == "ping":
                response = {"ok": True, "pong": True}
            else:
                response = {"ok": False, "error": f"unknown op: {op!r}"}
        except (KeyError, TypeError, ValueError) as exc:
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except (LookupError, RuntimeError, FileNotFoundError) as exc:
            response = {"ok": False, "error": str(exc)}
        if req_id is not None:
            response["id"] = req_id
        return response

    async def _score(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Submit to the micro-batcher; await the batched completion."""
        assert self._loop is not None and self._wake is not None
        loop = self._loop
        future: "asyncio.Future[ScoreResult]" = loop.create_future()

        def on_done(result: ScoreResult) -> None:
            loop.call_soon_threadsafe(
                lambda: future.done() or future.set_result(result)
            )

        await self._call_service(
            self.service.submit,
            str(message["cascade"]),
            include_features=bool(message.get("features", False)),
            on_done=on_done,
        )
        if await self._call_service(self.service.pending) >= self.service.policy.max_batch:
            self._wake.set()  # full batch: flush now, don't wait out the timer
        result = await future
        return result_to_dict(result)


async def serve_stdio(
    service: ScoringService,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
) -> None:
    """Drive the same protocol over stdin/stdout (one JSON per line).

    Stdin is read through the default executor so the loop — and with
    it the flusher that enforces ``max_delay`` — keeps running between
    lines.
    """
    fin = stdin if stdin is not None else sys.stdin
    fout = stdout if stdout is not None else sys.stdout
    server = ScoringServer(service)
    server._start_background()
    await server._call_service(service.begin_serving)
    loop = asyncio.get_running_loop()
    write_lock = asyncio.Lock()
    in_flight: set = set()

    async def respond(raw: bytes) -> None:
        response = await server._dispatch_line(raw)
        if response is not None:
            async with write_lock:
                fout.write(json.dumps(response) + "\n")
                fout.flush()

    try:
        while True:
            line = await loop.run_in_executor(None, fin.readline)
            if not line:
                break
            stripped = line.strip()
            if not stripped:
                continue
            task = asyncio.create_task(respond(stripped.encode()))
            in_flight.add(task)
            task.add_done_callback(in_flight.discard)
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
    finally:
        # EOF on stdin is the stdio analog of SIGTERM: drain, don't abort
        await server.drain()
