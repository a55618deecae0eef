"""Asyncio newline-JSON front end for the scoring service.

One request per line, one JSON object per response.  Operations:

``{"op": "event", "cascade": "c1", "node": 3, "t": 0.25}``
    Fold an adoption event in.  Responds ``{"ok": true, "applied": ...}``.
``{"op": "events", "events": [["c1", 3, 0.25], ["c2", 7, 0.3], ...]}``
    Fold a burst of adoption events in with one ``ingest_columns`` call
    (the firehose path); a malformed row rejects the whole burst.
    Responds ``{"ok": true, "applied": <non-duplicates>, "count": <rows>}``.
``{"op": "score", "cascade": "c1"}``
    Score one cascade.  Concurrent ``score`` ops are answered by group
    commit: one scorer task scores every waiting op with a single
    ``score_columns`` call, then repeats while ops are waiting — a lone
    op is scored at once, a burst shares one snapshot read, gather and
    SVM evaluation.  ``latency_ms.queued`` is the op's wait for its
    group, ``batch_size`` the group size.  Add ``"features": true`` to
    embed the feature vector.  An op that cannot be scored (no model
    published yet) gets the one-line error reply ``score_many`` gives.
``{"op": "score_many", "cascades": ["c1", "c2", ...], "features": false}``
    Score a group of cascades in one exchange: one ``score_columns``
    call (one executor hop; one fan-out on the sharded tier).  Responds
    ``{"ok": true, "results": [...]}`` with one ``score``-shaped object
    per cascade in request order (``latency_ms.queued`` is 0,
    ``batch_size`` the group size); ``"features": true`` embeds the
    feature vectors.
``{"op": "swap", "path": "model.npz"}``
    Hot-swap the model from a filesystem artifact (embedding ``.npz``
    or training checkpoint).  The currently published predictor is
    carried forward — artifacts hold embeddings only.
``{"op": "stats"}`` / ``{"op": "ping"}``
    Service state / liveness.

Every request may carry an ``"id"`` which is echoed in the response, so
clients can pipeline requests and match answers out of order (a score
reply waits for its group's scoring call and may overtake or trail the
replies around it).

``{"op": "health"}``
    Lifecycle/readiness snapshot (see :mod:`repro.serving.health`):
    ``state`` (``serving``/``degraded``/``draining``/...), ``ready``,
    ``healthy``, active degraded reasons, recent structured faults.

The server never blocks the event loop: ``score`` ops resolve through
futures the scorer task sets, and the stdio front end reads stdin
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
* **Backpressure** — at most ``_MAX_IN_FLIGHT`` data requests
  (``event``, ``events``, ``score``, ``score_many``) are in flight
  across all connections; one more gets an immediate ``{"ok": false,
  "error": "queue full: ..."}`` reply, counted as ``rejected`` in the
  ``stats`` reply.  The TCP client raises it as
  :class:`~repro.serving.batching.QueueFullError`, which the replay
  engine's retry ladder handles.
* **Supervised background tasks** — the journal heartbeat (task
  ``flusher``: an interval-fsync tick every ``_HEARTBEAT_INTERVAL``,
  run only for a service with a ``journal_tick``; shard workers tick
  their own journals) and the sweeper run under a restart wrapper: a
  crashed loop is fault-logged and restarted with exponential backoff;
  past the restart budget the task is abandoned and the service
  degrades (``task:<name>``) instead of silently losing its contract.
* **Graceful drain** — :meth:`ScoringServer.run` installs a SIGTERM
  handler that stops accepting, lets the scorer answer every waiting
  ``score`` op, seals the journal, and returns (the CLI then exits 0).
  A hard :meth:`ScoringServer.stop` answers waiting ops the same way
  before it closes the service: no op waits longer than one scoring
  call, and that call — or its error — answers it.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import signal
import sys
import time
from typing import IO, Any, Awaitable, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.prediction.features import PAPER_FEATURES
from repro.serving.batching import ScoreColumns
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig

__all__ = [
    "ScoringServer",
    "build_service",
    "columns_to_dicts",
    "serve_stdio",
]

#: sweep TTL-stale cascades this often (seconds) while a server runs
_SWEEP_INTERVAL = 1.0
#: journal heartbeat (seconds): gives ``fsync="interval"`` a chance to
#: sync a quiet stream
_HEARTBEAT_INTERVAL = 0.005
#: data requests in flight across all connections before the server
#: answers "queue full"
_MAX_IN_FLIGHT = 1024
#: the ops the in-flight bound counts; control ops always answer
_DATA_OPS = frozenset({"event", "events", "score", "score_many"})
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
    capacity: int = 100_000,
    ttl: Optional[float] = None,
    journal_dir: Optional[str] = None,
    fsync: str = "interval",
    fsync_interval: float = 0.05,
) -> ScoringService:
    """Assemble a ready-to-serve :class:`ScoringService` from artifacts.

    This is the one factory the CLI, the examples, and the server tests
    share: registry + initial publish + store config.  With
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


def _score_rows(
    cascade_ids: Sequence[str],
    columns: ScoreColumns,
    queued_s: Iterable[float],
    with_features: Iterable[bool],
) -> List[Dict[str, Any]]:
    """The JSON reply row of each request in one :class:`ScoreColumns` group.

    Row *i* answers ``cascade_ids[i]``: it waited its ``queued_s`` entry
    for the group's scoring call, and it carries its feature vector when
    its ``with_features`` entry is set and the columns hold features.
    ``latency_ms.total`` is ``(queued + compute) × 1e3`` and
    ``batch_size`` the group size.
    """
    n = len(cascade_ids)
    compute_s = columns.compute_s
    compute_ms = compute_s * 1e3
    scores = columns.scores.tolist() if columns.scores is not None else None
    labels = columns.labels.tolist() if columns.labels is not None else None
    features = columns.features.tolist() if columns.features is not None else None
    out: List[Dict[str, Any]] = []
    for i, (cascade_id, ok, n_early, queued, wants_features) in enumerate(
        zip(cascade_ids, columns.ok.tolist(), columns.n_early.tolist(), queued_s, with_features)
    ):
        row: Dict[str, Any] = {
            "ok": ok,
            "status": "ok" if ok else "unknown_cascade",
            "cascade": cascade_id,
            "n_early": n_early,
            "model_version": columns.model_version,
        }
        if ok and scores is not None and labels is not None:
            row["score"] = scores[i]
            row["label"] = labels[i]
        if ok and wants_features and features is not None:
            row["features"] = features[i]
        row["latency_ms"] = {
            "queued": queued * 1e3,
            "compute": compute_ms,
            "total": (queued + compute_s) * 1e3,
            "batch_size": n,
        }
        out.append(row)
    return out


def columns_to_dicts(
    cascade_ids: Sequence[str], columns: ScoreColumns
) -> List[Dict[str, Any]]:
    """Per-cascade JSON rows of one ``score_many`` group.

    A group is scored in one call and never queues, so
    ``latency_ms.queued`` is 0; every row carries features when the
    columns hold them.
    """
    return _score_rows(cascade_ids, columns, itertools.repeat(0.0), itertools.repeat(True))


def _event_columns(rows: Any) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """The ``events`` field of a request as the three ``ingest_columns``
    columns, built in one pass; a malformed row raises before any state
    changes."""
    cascade_ids: List[str] = []
    nodes: List[int] = []
    times: List[float] = []
    for cascade, node, t in rows:
        cascade_ids.append(str(cascade))
        nodes.append(int(node))
        times.append(float(t))
    return cascade_ids, np.array(nodes, dtype=np.int64), np.array(times, dtype=np.float64)


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
        How many times a crashed background task (heartbeat/sweeper) is
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
        # group commit: score ops waiting for the next scoring call, as
        # (cascade id, wants features, enqueue time, future), and the
        # one task that answers them
        self._waiting: List[Tuple[str, bool, float, "asyncio.Future[Dict[str, Any]]"]] = []
        self._scorer: Optional[asyncio.Task] = None
        self._in_flight = 0
        self._stopping = False
        self.task_restarts: Dict[str, int] = {}
        self.timeouts = 0
        self.oversized = 0
        self.rejected = 0

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
        """Bind the TCP listener and start the background tasks."""
        self._start_background()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port
        )
        sock = self._server.sockets[0]
        self.port = sock.getsockname()[1]
        await self._call_service(self.service.begin_serving)

    async def _shutdown(self) -> None:
        """Close the listener, end the background tasks, and let the
        scorer answer every waiting ``score`` op."""
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
        # an op arriving on a live connection meanwhile starts a new scorer
        while self._scorer is not None:
            await self._scorer

    async def stop(self) -> None:
        """Hard stop: shut down, then close the service."""
        await self._shutdown()
        # a sharded service also owns worker processes and a shared
        # segment; a hard stop must reap them (no-op for the in-process
        # service, which has no close)
        closer = getattr(self.service, "close", None)
        if closer is not None:
            await self._call_service(closer)

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, answer waiting ops, seal journal."""
        self._stopping = True
        await self._call_service(self.service.begin_draining)
        await self._shutdown()
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
        listener closes, waiting ``score`` ops are answered, the journal
        seals, and the method returns normally (the process then exits 0).
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
        self._stopping = False
        if hasattr(self.service, "journal_tick"):
            self._flusher = asyncio.create_task(
                self._supervised("flusher", self._heartbeat)
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
        violating its interval-fsync (flusher) or TTL (sweeper) contract.
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

    async def _heartbeat(self) -> None:
        """Tick the journal every ``_HEARTBEAT_INTERVAL`` seconds, so
        ``fsync="interval"`` syncs a quiet stream too.

        Ends on ``_stopping`` rather than relying on cancellation alone:
        an awaitable that swallows a cancel (Python 3.11's
        ``asyncio.wait_for`` can, when the cancel races its completion)
        would otherwise keep :meth:`drain` waiting forever.  A swallowed
        cancel now costs at most one interval.
        """
        while not self._stopping:
            await asyncio.sleep(_HEARTBEAT_INTERVAL)
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
        # Each line is dispatched as its own task so a score op awaiting
        # its group never blocks the read loop — that is what lets one
        # connection pipeline a whole group.  A lock
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
        """Handle one decoded request; returns the response object.

        A data op beyond ``_MAX_IN_FLIGHT`` in flight is refused at once
        with ``queue full``; control ops (``ping``, ``health``,
        ``stats``, ``swap``) always answer.
        """
        req_id = message.get("id")
        op = message.get("op")
        if op not in _DATA_OPS:
            response = await self._answer(op, message)
        elif self._in_flight >= _MAX_IN_FLIGHT:
            self.rejected += 1
            response = {
                "ok": False,
                "error": f"queue full: {_MAX_IN_FLIGHT} data requests in flight",
            }
        else:
            self._in_flight += 1
            try:
                response = await self._answer(op, message)
            finally:
                self._in_flight -= 1
        if req_id is not None:
            response["id"] = req_id
        return response

    async def _answer(self, op: Any, message: Dict[str, Any]) -> Dict[str, Any]:
        """The reply to one admitted op; a bad request is a one-line error."""
        try:
            if op == "event":
                applied = await self._call_service(
                    self.service.ingest,
                    str(message["cascade"]),
                    int(message["node"]),
                    float(message["t"]),
                )
                return {"ok": True, "applied": applied}
            if op == "events":
                cascade_ids, nodes, times = _event_columns(message["events"])
                count = await self._call_service(
                    self.service.ingest_columns, cascade_ids, nodes, times
                )
                return {"ok": True, "applied": count, "count": len(cascade_ids)}
            if op == "score":
                return await self._score(
                    str(message["cascade"]), bool(message.get("features", False))
                )
            if op == "score_many":
                cascade_ids = _cascade_ids(message["cascades"])
                columns = await self._call_service(
                    self.service.score_columns,
                    cascade_ids,
                    include_features=bool(message.get("features", False)),
                )
                return {"ok": True, "results": columns_to_dicts(cascade_ids, columns)}
            if op == "swap":
                snap = await self._call_service(
                    self.service.swap_path, str(message["path"])
                )
                return {
                    "ok": True,
                    "model_version": snap.version,
                    "source": snap.source,
                    "fingerprint": snap.fingerprint,
                }
            if op == "stats":
                stats = await self._call_service(self.service.stats)
                # refusals happen here, not in the service; nothing is
                # ever shed, and "shed" stays for the perfbench check
                # that reads it
                stats.update(rejected=self.rejected, shed=0)
                return {"ok": True, "stats": stats}
            if op == "health":
                return {
                    "ok": True,
                    **await self._call_service(self.service.health_snapshot),
                }
            if op == "ping":
                return {"ok": True, "pong": True}
            return {"ok": False, "error": f"unknown op: {op!r}"}
        except (KeyError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        except (LookupError, RuntimeError, FileNotFoundError) as exc:
            return {"ok": False, "error": str(exc)}

    async def _score(self, cascade_id: str, include_features: bool) -> Dict[str, Any]:
        """Join the waiting group; the scorer task answers it."""
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._waiting.append((cascade_id, include_features, time.monotonic(), future))
        if self._scorer is None:
            self._scorer = asyncio.create_task(self._score_waiting())
        return await future

    async def _score_waiting(self) -> None:
        """Group commit: score every waiting op in one call, repeat.

        Each pass takes the whole waiting list, so the ops that arrived
        while the previous call ran form the next group; a lone op is
        scored on the next turn of the loop.  The task ends when no op
        is waiting, and the next ``score`` op starts a new one.
        """
        try:
            while self._waiting:
                group, self._waiting = self._waiting, []
                start = time.monotonic()
                cascade_ids, wants_features, enqueued, futures = zip(*group)
                try:
                    columns = await self._call_service(
                        self.service.score_columns,
                        list(cascade_ids),
                        include_features=any(wants_features),
                    )
                except Exception as exc:  # the group's error answers each op
                    for future in futures:
                        if not future.done():
                            future.set_exception(exc)
                    continue
                queued_s = [start - t for t in enqueued]
                rows = _score_rows(cascade_ids, columns, queued_s, wants_features)
                for future, row in zip(futures, rows):
                    if not future.done():
                        future.set_result(row)
        finally:
            self._scorer = None


async def serve_stdio(
    service: ScoringService,
    stdin: Optional[IO[str]] = None,
    stdout: Optional[IO[str]] = None,
) -> None:
    """Drive the same protocol over stdin/stdout (one JSON per line).

    Stdin is read through the default executor so the loop — and with
    it the scorer and the journal heartbeat — keeps running between
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
