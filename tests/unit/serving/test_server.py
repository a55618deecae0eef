"""End-to-end tests for the newline-JSON asyncio front end."""

import asyncio
import io
import json

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.durability import JournalConfig, recover_service
from repro.serving.registry import ModelRegistry
from repro.serving.server import (
    ScoringServer,
    _LineAssembler,
    build_service,
    serve_stdio,
)
from repro.serving.service import ScoringService
from repro.serving.sharding import ShardedScoringService
from tests.columns import event_columns


def make_model(seed, n=30, k=3):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 1, (n, k)), rng.uniform(0, 1, (n, k)))


def make_predictor(seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=seed).fit(ds)


def make_service():
    reg = ModelRegistry()
    reg.publish(make_model(0))
    return ScoringService(reg)


def make_scorer(n_shards):
    """What ``repro serve --shards N`` serves, with a fitted predictor:
    the in-process service for ``None``, the shard router otherwise."""
    if n_shards is None:
        service = ScoringService(ModelRegistry())
    else:
        service = ShardedScoringService(n_shards=n_shards)
    service.publish(make_model(0), predictor=make_predictor(0))
    return service


#: a burst over five cascades, duplicate adopters included
EVENTS = [(f"c{j % 5}", (7 * j) % 30, 0.01 * j) for j in range(40)]


async def run_session(service, requests):
    """Start a server, send *requests*, return one response per request."""
    server = ScoringServer(service)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        for obj in requests:
            writer.write(json.dumps(obj).encode() + b"\n")
        await writer.drain()
        responses = []
        for _ in requests:
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            responses.append(json.loads(line))
        writer.close()
        await writer.wait_closed()
        return responses
    finally:
        await server.stop()


class TestTCPServer:
    def test_ping_and_event(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "ping", "id": 1},
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.5},
                ],
            )
        )
        assert responses[0] == {"ok": True, "pong": True, "id": 1}
        assert responses[1]["applied"] is True
        assert responses[2]["applied"] is False  # duplicate adopter

    def test_events_burst_op(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {
                        "op": "events",
                        "events": [["a", 3, 0.0], ["b", 7, 0.1], ["a", 3, 0.2]],
                        "id": 1,
                    },
                    {"op": "stats", "id": 2},
                ],
            )
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id[1] == {"ok": True, "applied": 2, "count": 3, "id": 1}
        assert by_id[2]["stats"]["ingested"] == 2
        assert by_id[2]["stats"]["tracked_cascades"] == 2

    def test_events_burst_invalid_is_atomic(self):
        """A bad event anywhere in the burst rejects the whole burst."""
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {
                        "op": "events",
                        "events": [["a", 3, 0.0], ["b", 999, 0.1]],
                        "id": 1,
                    },
                    {"op": "stats", "id": 2},
                ],
            )
        )
        by_id = {r["id"]: r for r in responses}
        assert by_id[1]["ok"] is False and "error" in by_id[1]
        assert by_id[2]["stats"]["tracked_cascades"] == 0

    @pytest.mark.parametrize(
        "events, error",
        [
            ([["a", 3, 0.0], ["b", 7]], "ValueError: not enough values to unpack"),
            ([["a", 3, 0.0], ["b", "seven", 0.1]], "ValueError: invalid literal for int()"),
            (5, "TypeError: 'int' object is not iterable"),
            ("a3", "ValueError: not enough values to unpack"),
        ],
        ids=["two-element-row", "non-numeric-node", "int", "string"],
    )
    def test_malformed_events_get_one_error_line_and_change_nothing(self, events, error):
        service = make_service()
        service.ingest_columns(*event_columns(EVENTS))
        ingested = service.stats()["ingested"]
        fingerprint = service.state_fingerprint()
        (reply,) = asyncio.run(
            run_session(service, [{"op": "events", "events": events, "id": 1}])
        )
        assert set(reply) == {"ok", "error", "id"} and reply["ok"] is False
        assert reply["error"].startswith(error) and "\n" not in reply["error"]
        assert service.stats()["ingested"] == ingested
        assert service.state_fingerprint() == fingerprint

    def test_pipelined_scores_coalesce_into_one_batch(self):
        service = make_service()
        requests = [{"op": "event", "cascade": "c", "node": 3, "t": 0.0}]
        requests += [{"op": "score", "cascade": "c", "id": i} for i in range(4)]
        responses = asyncio.run(run_session(service, requests))
        scores = [r for r in responses if "status" in r]
        assert len(scores) == 4
        # all four join one group: one evaluation
        assert all(r["latency_ms"]["batch_size"] == 4 for r in scores)
        assert sorted(r["id"] for r in scores) == [0, 1, 2, 3]

    def test_partial_batch_flushes_on_delay(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "score", "cascade": "c", "id": 7},
                ],
            )
        )
        score = next(r for r in responses if "status" in r)
        assert score["status"] == "ok" and score["id"] == 7
        assert score["latency_ms"]["batch_size"] == 1

    def test_unknown_cascade_and_bad_requests(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "score", "cascade": "ghost", "id": 1},
                    {"op": "warp", "id": 2},
                    {"op": "event", "cascade": "c"},  # missing node/t
                ],
            )
        )
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == "unknown_cascade"
        assert by_id[2]["ok"] is False and "unknown op" in by_id[2]["error"]
        bad = next(r for r in responses if r.get("id") is None)
        assert bad["ok"] is False

    def test_malformed_json_reported(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                resp = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return resp
            finally:
                await server.stop()

        resp = asyncio.run(scenario())
        assert resp["ok"] is False and "bad json" in resp["error"]

    def test_swap_and_stats_ops(self, tmp_path):
        model2 = make_model(1)
        p = tmp_path / "next.npz"
        model2.save(p)
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "swap", "path": str(p), "id": 1},
                    {"op": "score", "cascade": "c", "id": 2},
                    {"op": "stats", "id": 3},
                ],
            )
        )
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["ok"] is True and by_id[1]["model_version"] == 2
        assert by_id[2]["model_version"] == 2  # scored under the new model
        assert by_id[3]["stats"]["model_version"] == 2

    def test_score_with_features(self):
        service = make_service()
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
                    {"op": "score", "cascade": "c", "features": True, "id": 1},
                ],
            )
        )
        score = next(r for r in responses if r.get("id") == 1)
        assert len(score["features"]) == 3  # the paper feature set


class TestScoreManyOp:
    """``score_many``: one exchange, one ``score_columns`` call per group."""

    @pytest.mark.parametrize("n_shards", [None, 1, 2], ids=["inproc", "1-shard", "2-shards"])
    def test_group_equals_in_process_score_columns(self, n_shards):
        service = make_scorer(n_shards)
        service.ingest_columns(*event_columns(EVENTS))
        cids = ["c3", "c0", "c4", "c1", "c2"]
        responses = asyncio.run(
            run_session(
                service,
                [
                    {"op": "score_many", "cascades": cids, "id": 1},
                    {"op": "score_many", "cascades": cids, "features": True, "id": 2},
                    {"op": "score_many", "cascades": [], "id": 3},
                ],
            )
        )
        reference = make_scorer(None)
        reference.ingest_columns(*event_columns(EVENTS))
        want = reference.score_columns(cids, include_features=True)
        by_id = {r["id"]: r for r in responses}
        for req_id in (1, 2):
            rows = by_id[req_id]["results"]
            assert [r["cascade"] for r in rows] == cids
            for i, row in enumerate(rows):
                # the JSON float round trip is exact
                assert row["score"] == float(want.scores[i])
                assert row["label"] == int(want.labels[i])
                assert row["n_early"] == int(want.n_early[i])
                assert row["latency_ms"]["queued"] == 0.0
                assert row["latency_ms"]["batch_size"] == len(cids)
        assert all("features" not in r for r in by_id[1]["results"])
        assert [r["features"] for r in by_id[2]["results"]] == want.features.tolist()
        assert by_id[3] == {"ok": True, "results": [], "id": 3}

    def test_unknown_cascade_gets_its_own_row_status(self):
        service = make_scorer(None)
        service.ingest_columns(*event_columns(EVENTS))
        response = asyncio.run(
            run_session(
                service, [{"op": "score_many", "cascades": ["c0", "ghost", "c1"], "id": 1}]
            )
        )[0]
        assert response["ok"] is True
        ok0, ghost, ok1 = response["results"]
        assert ok0["status"] == ok1["status"] == "ok"
        assert ghost["ok"] is False and ghost["status"] == "unknown_cascade"
        assert ghost["cascade"] == "ghost" and "score" not in ghost
        assert service.stats()["unknown"] == 1

    def test_hostile_groups_get_one_line_errors_and_the_connection_goes_on(self):
        async def scenario():
            server = ScoringServer(make_scorer(None))
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                requests = [
                    {"op": "score_many", "id": 1},
                    {"op": "score_many", "cascades": "c0", "id": 2},
                    {"op": "score_many", "cascades": {"c0": 1}, "id": 3},
                    {"op": "score_many", "cascades": ["c0", 7], "id": 4},
                    {"op": "score_many", "cascades": [["c0"]], "id": 5},
                    {"op": "ping", "id": 6},
                ]
                replies = []
                for obj in requests:  # one line out, exactly one line back
                    writer.write(json.dumps(obj).encode() + b"\n")
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 5.0)
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return replies
            finally:
                await server.stop()

        *errors, pong = asyncio.run(scenario())
        assert errors[0] == {"ok": False, "error": "KeyError: 'cascades'", "id": 1}
        for reply in errors[1:]:
            assert reply["ok"] is False
            assert reply["error"].startswith("TypeError: cascades must be a list")
            assert "Traceback" not in reply["error"]
        assert pong == {"ok": True, "pong": True, "id": 6}

    def test_group_over_stdio(self):
        service = make_scorer(None)
        service.ingest_columns(*event_columns(EVENTS))
        request = {"op": "score_many", "cascades": ["c0", "c1"], "id": 1}
        fout = io.StringIO()
        asyncio.run(
            serve_stdio(service, stdin=io.StringIO(json.dumps(request) + "\n"), stdout=fout)
        )
        (response,) = [json.loads(x) for x in fout.getvalue().splitlines()]
        want = make_scorer(None)
        want.ingest_columns(*event_columns(EVENTS))
        cols = want.score_columns(["c0", "c1"])
        assert [r["score"] for r in response["results"]] == cols.scores.tolist()


class TestGroupCommit:
    """Concurrent ``score`` ops share scoring calls, and each reply is
    exactly the ``score_many`` row for its id."""

    @pytest.mark.parametrize("n_shards", [None, 2], ids=["inproc", "2-shards"])
    def test_concurrent_scores_equal_their_score_many_rows(self, n_shards):
        service = make_scorer(n_shards)
        service.ingest_columns(*event_columns(EVENTS))
        ids = ["c0", "c1", "ghost", "c2", "c3", "c4"] * 3

        async def connection(port, k):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            requests = []
            for i, cid in enumerate(ids):
                request = {"op": "score", "cascade": cid, "id": i}
                if (i + k) % 3 == 0:
                    request["features"] = True
                requests.append(request)
            writer.write(b"".join(json.dumps(r).encode() + b"\n" for r in requests))
            await writer.drain()
            replies = [
                json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                for _ in requests
            ]
            writer.close()
            await writer.wait_closed()
            return requests, replies

        async def score_many_rows(port):
            distinct = sorted(set(ids))
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            rows = {}
            for features in (False, True):
                request = {"op": "score_many", "cascades": distinct, "features": features}
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                for row in reply["results"]:
                    rows[row["cascade"], features] = row
            writer.close()
            await writer.wait_closed()
            return rows

        async def scenario():
            server = ScoringServer(service)
            await server.start()
            try:
                exchanges = await asyncio.gather(
                    *(connection(server.port, k) for k in range(8))
                )
                reference = await score_many_rows(server.port)
                return exchanges, reference
            finally:
                await server.stop()

        exchanges, reference = asyncio.run(scenario())

        def strip(reply):
            return {k: v for k, v in reply.items() if k not in ("latency_ms", "id")}

        group_sizes = []
        for requests, replies in exchanges:
            by_id = {r["id"]: r for r in replies}
            assert sorted(by_id) == list(range(len(requests)))
            for request in requests:
                reply = by_id[request["id"]]
                row = reference[request["cascade"], request.get("features", False)]
                assert strip(reply) == strip(row)
                # key for key: the latency block differs only in its values
                latency = reply["latency_ms"]
                assert list(latency) == list(row["latency_ms"])
                assert latency["total"] == pytest.approx(latency["queued"] + latency["compute"])
                group_sizes.append(latency["batch_size"])
        assert reference["ghost", False]["status"] == "unknown_cascade"
        assert max(group_sizes) > 1  # pipelined ops shared scoring calls


class TestLineAssembler:
    def test_reassembles_split_lines(self):
        asm = _LineAssembler(64)
        assert asm.feed(b'{"a": 1') == []
        assert asm.feed(b'}\n{"b"') == [(True, b'{"a": 1}')]
        assert asm.feed(b": 2}\n") == [(True, b'{"b": 2}')]

    def test_multiple_lines_per_chunk(self):
        asm = _LineAssembler(64)
        assert asm.feed(b"x\ny\nz\n") == [(True, b"x"), (True, b"y"), (True, b"z")]

    def test_oversized_reported_once_at_bound_crossing(self):
        asm = _LineAssembler(8)
        assert asm.feed(b"A" * 20) == [(False, b"")]  # bound crossed mid-line
        assert asm.feed(b"B" * 20) == []  # same line: discarded silently
        # pipelined bytes behind the newline survive
        assert asm.feed(b"C\nok\n") == [(True, b"ok")]

    def test_oversized_with_newline_in_same_chunk(self):
        asm = _LineAssembler(8)
        assert asm.feed(b"A" * 20 + b"\nok\n") == [(False, b""), (True, b"ok")]

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            _LineAssembler(1)


class TestRobustness:
    def test_oversized_line_keeps_connection_alive(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service, max_line_bytes=256)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                big = json.dumps({"op": "ping", "pad": "x" * 1024}).encode()
                follow = json.dumps({"op": "ping", "id": 1}).encode()
                writer.write(big + b"\n" + follow + b"\n")
                await writer.drain()
                first = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                second = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return first, second, server.oversized
            finally:
                await server.stop()

        error, pong, oversized = asyncio.run(scenario())
        assert error["ok"] is False and "exceeds 256 bytes" in error["error"]
        assert pong == {"ok": True, "pong": True, "id": 1}
        assert oversized == 1

    def test_read_timeout_closes_idle_connection(self):
        async def scenario():
            service = make_service()
            server = ScoringServer(service, read_timeout=0.05)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                # active traffic is served...
                writer.write(json.dumps({"op": "ping"}).encode() + b"\n")
                await writer.drain()
                pong = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                # ...then the idle connection is closed by the server
                eof = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                await writer.wait_closed()
                return pong, eof, server.timeouts
            finally:
                await server.stop()

        pong, eof, timeouts = asyncio.run(scenario())
        assert pong["ok"] is True
        assert eof == b""
        assert timeouts == 1

    def test_watchdog_restarts_crashed_flusher(self):
        async def scenario():
            service = make_service()
            deaths = {"left": 2}
            orig = service.journal_tick

            def flaky():
                if deaths["left"]:
                    deaths["left"] -= 1
                    raise RuntimeError("injected flusher death")
                orig()

            service.journal_tick = flaky
            server = ScoringServer(service, restart_backoff=0.005)
            await server.start()
            try:
                await asyncio.sleep(0.15)
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    json.dumps({"op": "event", "cascade": "c", "node": 3, "t": 0.0})
                    .encode() + b"\n"
                )
                writer.write(json.dumps({"op": "score", "cascade": "c"}).encode() + b"\n")
                await writer.drain()
                responses = [
                    json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                    for _ in range(2)
                ]
                writer.close()
                await writer.wait_closed()
                return server.task_restarts, service.health, responses
            finally:
                await server.stop()

        restarts, health, responses = asyncio.run(scenario())
        # both injected deaths were fault-logged and restarted...
        assert restarts["flusher"] == 2
        assert sum(f.kind == "task_restart" for f in health.faults()) == 2
        # ...and the recovered flusher still flushes scores
        assert "task:flusher" not in health.reasons()
        score = next(r for r in responses if "status" in r)
        assert score["status"] == "ok"

    def test_watchdog_budget_exhausted_degrades(self):
        async def scenario():
            service = make_service()

            def always_dead():
                raise RuntimeError("dead disk")

            service.journal_tick = always_dead
            server = ScoringServer(
                service, max_task_restarts=2, restart_backoff=0.001
            )
            await server.start()
            try:
                for _ in range(100):
                    if "task:flusher" in service.health.reasons():
                        break
                    await asyncio.sleep(0.01)
                # the rest of the server still answers
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(json.dumps({"op": "health"}).encode() + b"\n")
                await writer.drain()
                health = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                writer.close()
                await writer.wait_closed()
                return service.health, health
            finally:
                await server.stop()

        monitor, health_resp = asyncio.run(scenario())
        assert "task:flusher" in monitor.reasons()
        assert monitor.state() == "degraded"
        assert any(f.kind == "task_dead" for f in monitor.faults())
        assert health_resp["state"] == "degraded"
        assert health_resp["ready"] is True and health_resp["healthy"] is False

    def test_model_less_scores_are_answered_failed(self):
        """A group that cannot be scored answers each of its ``score``
        ops with the scoring call's error, as ``score_many`` does; no
        op is stranded and health stays undegraded."""

        async def scenario():
            service = ScoringService(ModelRegistry())
            server = ScoringServer(service, max_task_restarts=2, restart_backoff=0.001)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                replies = []
                for i in range(5):
                    request = {"op": "score", "cascade": "c", "id": i}
                    writer.write(json.dumps(request).encode() + b"\n")
                    await writer.drain()
                    line = await asyncio.wait_for(reader.readline(), 2.0)
                    replies.append(json.loads(line))
                writer.close()
                await writer.wait_closed()
                return replies, service.stats(), service.health_snapshot()
            finally:
                await server.stop()

        replies, stats, health = asyncio.run(scenario())
        for i, reply in enumerate(replies):
            assert reply == {
                "ok": False,
                "error": "no model published to the registry yet",
                "id": i,
            }
        assert stats["scored"] == 0
        assert health["degraded_reasons"] == {}

    def test_health_op(self):
        service = make_service()
        responses = asyncio.run(run_session(service, [{"op": "health", "id": 1}]))
        health = responses[0]
        assert health["ok"] is True
        assert health["state"] == "serving"
        assert health["ready"] is True and health["healthy"] is True
        assert health["degraded_reasons"] == {}

    def test_drain_flushes_and_seals(self, tmp_path):
        from repro.serving.durability import EventJournal

        async def scenario():
            service = make_service()
            service.attach_journal(
                EventJournal(JournalConfig(directory=tmp_path / "wal"))
            )
            server = ScoringServer(service)
            await server.start()
            service.ingest("c", 3, 0.0)
            await server.drain()
            return service

        service = asyncio.run(scenario())
        assert service.health.phase == "stopped"
        assert service.journal.closed

    def test_drain_ends_when_the_flusher_swallows_its_cancel(self, monkeypatch):
        """An awaitable can return instead of raising when a cancel races
        it (Python 3.11's ``asyncio.wait_for`` does).  The heartbeat must
        still end once the server is stopping, or ``drain()`` waits on
        it forever."""
        real_sleep = asyncio.sleep
        swallowed = []

        async def swallow_one_cancel(delay, *args):
            try:
                return await real_sleep(delay, *args)
            except asyncio.CancelledError:
                if swallowed:
                    raise
                swallowed.append(True)
                return None

        monkeypatch.setattr(asyncio, "sleep", swallow_one_cancel)

        async def scenario():
            service = make_service()
            server = ScoringServer(service)
            await server.start()
            await asyncio.sleep(0.02)  # the heartbeat is parked in its sleep
            drain = asyncio.create_task(server.drain())
            finished, _ = await asyncio.wait({drain}, timeout=1.0)
            if not finished:
                # a second cancel reaches the stuck flusher and ends it
                drain.cancel()
                await asyncio.wait({drain})
            return service, bool(finished)

        service, finished = asyncio.run(scenario())
        assert swallowed  # the cancel really was swallowed...
        assert finished, "drain() still waiting on the flusher after 1 s"
        assert service.health.phase == "stopped"

class TestStdioServer:
    def test_stdio_roundtrip(self):
        service = make_service()
        lines = [
            {"op": "event", "cascade": "c", "node": 3, "t": 0.0},
            {"op": "score", "cascade": "c", "id": 1},
            {"op": "stats", "id": 2},
        ]
        fin = io.StringIO("".join(json.dumps(o) + "\n" for o in lines))
        fout = io.StringIO()
        asyncio.run(serve_stdio(service, stdin=fin, stdout=fout))
        responses = [json.loads(x) for x in fout.getvalue().splitlines()]
        assert len(responses) == 3
        by_id = {r.get("id"): r for r in responses}
        assert by_id[1]["status"] == "ok"
        # stats may have run before the deferred score flushed; the
        # ingest, though, is synchronous and must already be counted
        assert by_id[2]["stats"]["ingested"] == 1
        # EOF on stdin is the stdio analog of SIGTERM: graceful drain
        assert service.health.phase == "stopped"

    def test_stdio_eof_drains_empty_stream(self):
        service = make_service()
        fout = io.StringIO()
        asyncio.run(serve_stdio(service, stdin=io.StringIO(""), stdout=fout))
        assert fout.getvalue() == ""
        assert service.health.phase == "stopped"


class TestBuildService:
    def test_from_artifacts(self, tmp_path):
        model = make_model(0)
        mp = tmp_path / "model.npz"
        model.save(mp)
        service = build_service(str(mp), capacity=100, ttl=60.0)
        assert service.store.config.capacity == 100
        assert service.store.config.ttl == pytest.approx(60.0)
        assert service.registry.current().predictor is None

    def test_with_predictor(self, tmp_path):
        from repro.prediction.pipeline import PredictionDataset, ViralityPredictor

        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 3))
        sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
        ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
        pred = ViralityPredictor(threshold=10, seed=0).fit(ds)
        mp, pp = tmp_path / "model.npz", tmp_path / "svm.npz"
        make_model(0).save(mp)
        pred.save(pp)
        service = build_service(str(mp), predictor_path=str(pp))
        service.ingest("c", 3, 0.0)
        result = service.score("c")
        assert result.ok and result.score is not None

    def test_with_journal_is_recoverable(self, tmp_path):
        """A journaled build is recoverable from its first event on —
        the initial publish itself is a journaled swap record."""
        mp = tmp_path / "model.npz"
        make_model(0).save(mp)
        service = build_service(
            str(mp), journal_dir=str(tmp_path / "wal"), fsync="off"
        )
        assert service.health.phase == "serving"
        service.ingest("c", 3, 0.0)
        reference = service.score("c", include_features=True)
        service.drain()
        recovered, report = recover_service(
            JournalConfig(directory=tmp_path / "wal")
        )
        assert report.swaps_replayed == 1
        assert report.events_replayed == 1
        got = recovered.score("c", include_features=True)
        assert got.status == "ok"
        assert np.array_equal(got.features, reference.features)


class TestShardedHeartbeat:
    """Shard workers tick their own journals off their poll, so a server
    over the shard router runs no heartbeat: no executor hop every
    ``_HEARTBEAT_INTERVAL`` for a call with nothing to do."""

    def test_no_journal_tick_reaches_the_router(self):
        sharded = ShardedScoringService(n_shards=1)
        sharded.publish(make_model(0))

        async def scenario():
            server = ScoringServer(sharded)
            calls = []
            real = server._call_service

            async def counted(fn, *args, **kwargs):
                calls.append(getattr(fn, "__name__", repr(fn)))
                return await real(fn, *args, **kwargs)

            server._call_service = counted
            await server.start()
            await asyncio.sleep(0.15)
            idle = list(calls)
            await server.stop()
            return idle

        try:
            idle = asyncio.run(scenario())
        finally:
            sharded.close()
        assert "journal_tick" not in idle

    def test_shard_journals_fsync_a_quiet_stream(self, tmp_path):
        sharded = ShardedScoringService(
            n_shards=2, journal_dir=tmp_path, fsync="interval", fsync_interval=0.05
        )
        sharded.publish(make_model(0))

        def fsyncs():
            return [shard["journal"]["fsyncs"] for shard in sharded.stats()["shards"]]

        async def scenario():
            server = ScoringServer(sharded)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                request = {"op": "events", "events": [list(e) for e in EVENTS]}
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                reply = json.loads(await asyncio.wait_for(reader.readline(), 5.0))
                after_burst = fsyncs()
                await asyncio.sleep(0.4)  # quiet: no op reaches the server
                quiet = fsyncs()
                writer.close()
                await writer.wait_closed()
                return reply, after_burst, quiet
            finally:
                await server.stop()

        try:
            reply, after_burst, quiet = asyncio.run(scenario())
        finally:
            sharded.close()
        assert reply["ok"] is True
        assert all(q > b for q, b in zip(quiet, after_burst)), (after_burst, quiet)
