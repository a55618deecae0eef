"""Phase-B lag is timed from the schedule, so a stall is charged forward."""

import asyncio
import time

import numpy as np
import pytest

from perfbench.measure import SpanRecorder
from perfbench.stream_job import BurstLog, EngineClock, InprocTarget
from repro.ingest.replay import ReplayConfig, ReplayEngine
from repro.ingest.sources import EventBatch

BURST = 4
INTERVAL_S = 0.010  # one burst due every 10 ms


def bursts(n):
    """Evenly spaced bursts: burst i's last event at (i + 1) * INTERVAL_S."""
    out = []
    for i in range(n):
        times = np.linspace(i * INTERVAL_S, (i + 1) * INTERVAL_S, BURST)
        out.append(EventBatch([f"c{i}"] * BURST, np.arange(BURST), times))
    return out


class TestScheduleArithmetic:
    def test_stall_is_charged_to_every_burst_it_delays(self):
        """Open loop on a fake clock: burst 3 stalls for 50 ms.

        The bursts due during the stall are released only when it ends;
        measured from their due times each carries its share of the
        stall, where a lag measured from release would see 1 ms.
        """
        engine_clock = EngineClock()
        engine_clock.first = 100.0
        log = BurstLog(engine_clock, speed=1.0)
        service_s = [0.001] * 10
        service_s[3] = 0.050
        done = engine_clock.first
        stall_end = None
        for i, batch in enumerate(bursts(10)):
            due = engine_clock.first + (batch.t_last - 0.0) / 1.0
            release = max(due, done)  # the generator cannot release earlier
            log.release(batch.times, release)
            done = release + service_s[i]
            log.scored(done)
            if i == 3:
                stall_end = done
        assert log.bursts == 10 and log.offered == 10 * BURST
        assert log.lag_ms[:3] == pytest.approx([1.0] * 3)
        for i in range(4, 10):
            due = engine_clock.first + (i + 1) * INTERVAL_S
            assert log.lag_ms[i] >= (stall_end - due) * 1e3 + 1.0 - 1e-6
        assert min(log.lag_ms[4:8]) > 10.0  # every burst due in the stall
        assert log.release_late_ms[4] == pytest.approx((stall_end - 0.05 - 100.0) * 1e3)

    def test_flat_out_phase_has_no_schedule(self):
        log = BurstLog(EngineClock())
        log.release(np.array([0.0, 1.0]), 5.0)
        log.scored(6.0)
        assert log.lag_ms == [] and log.release_late_ms == [] and log.offered == 2


class StallingService:
    """In-process stand-in whose 4th ingest blocks for *stall_s*."""

    def __init__(self, stall_s):
        self.stall_s = stall_s
        self.calls = 0

    def ingest_columns(self, cascade_ids, nodes, times):
        self.calls += 1
        if self.calls == 4:
            time.sleep(self.stall_s)
        return len(cascade_ids)

    def score_columns(self, cascade_ids):
        return None


class ListSource:
    def __init__(self, batches):
        self.batches = batches

    async def __aiter__(self):
        for b in self.batches:
            yield b


def test_engine_lag_counts_the_stall_from_due_time():
    """The real engine, paced: the origin is its first clock reading, and
    the bursts due during a 100 ms stall report at least their share of it."""
    stall_s = 0.100
    engine_clock = EngineClock()
    log = BurstLog(engine_clock, speed=1.0)
    target = InprocTarget(StallingService(stall_s), log, SpanRecorder(enabled=False))
    config = ReplayConfig(speed=1.0, burst_s=0.0, score_every=1)
    report = asyncio.run(
        ReplayEngine(target, config, clock=engine_clock).run(ListSource(bursts(12)))
    )
    assert report.bursts == 12 and log.bursts == 12 and len(log.lag_ms) == 12
    # burst 3 started at its due time (+ scheduling slack) and blocked the
    # loop; bursts 4..10 were due inside the stall
    for i in range(4, 11):
        owed_ms = (stall_s - (i - 3) * INTERVAL_S) * 1e3
        assert log.lag_ms[i] >= owed_ms - 1.0
    assert max(log.lag_ms[:3]) < 0.5 * stall_s * 1e3
