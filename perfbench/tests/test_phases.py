"""Both stream phases on small seeded inputs, in process."""

import numpy as np
import pytest

from perfbench import inputs
from perfbench.stream_job import InprocTarget, run_inproc, run_phases
from repro.ingest.recorder import iter_batches
from repro.serving.server import build_service

N_BURSTS = 6


@pytest.fixture(scope="module")
def stream_cfg(tmp_path_factory):
    out = tmp_path_factory.mktemp("stream")
    mp = pytest.MonkeyPatch()
    mp.setattr(inputs, "STREAM_CASCADES", 80)
    mp.setattr(inputs, "HISTORY_CASCADES", 60)
    try:
        info = inputs.write_stream_inputs(3, N_BURSTS, out)
    finally:
        mp.undo()
    return {
        "model": str(out / "model.npz"),
        "predictor": str(out / "predictor.npz"),
        "segments": info["segments"],
        "threshold": info["threshold"],
        "final_sizes": info["final_sizes"],
        "speed_b": 200.0,  # 200k events/s: the test stays fast
        "trace": True,
        "setup_only": False,
    }


def test_inputs_repeat_for_a_seed_and_segments_are_disjoint(stream_cfg, tmp_path):
    mp = pytest.MonkeyPatch()
    mp.setattr(inputs, "STREAM_CASCADES", 80)
    mp.setattr(inputs, "HISTORY_CASCADES", 60)
    try:
        again = inputs.write_stream_inputs(3, N_BURSTS, tmp_path)
    finally:
        mp.undo()
    for name, seg in stream_cfg["segments"].items():
        with open(seg["path"], "rb") as a, open(again["segments"][name]["path"], "rb") as b:
            assert a.read() == b.read()
        assert seg["bursts"] == N_BURSTS and seg["events"] == N_BURSTS * inputs.BURST_EVENTS
    ids = {}
    for name in ("a", "b"):
        path = stream_cfg["segments"][name]["path"]
        ids[name] = {c for b in iter_batches(path) for c in b.cascade_ids}
    assert ids["a"] and ids["b"] and not ids["a"] & ids["b"]


def test_phase_b_applies_every_event_it_offers(stream_cfg):
    result = run_inproc(stream_cfg)
    assert all(result["checks"].values()), result["checks"]
    assert result["ops"] == 2 * N_BURSTS and result["failed_ops"] == 0
    assert len(result["lag_ms"]) == N_BURSTS
    assert result["events_per_s"] > 0 and 0.0 <= result["f1"] <= 1.0
    layers = result["layers"]
    assert layers["service.ingest_s"] > 0 and layers["recorder.decode_s"] > 0
    assert layers["replay.self_s"] >= 0


def test_replaying_a_segment_twice_would_skip_duplicates(stream_cfg):
    """The control for the check above: same ids in phase B apply nothing."""
    cfg = dict(stream_cfg, trace=False)
    cfg["segments"] = {"a": cfg["segments"]["a"], "b": cfg["segments"]["a"]}
    service = build_service(cfg["model"], predictor_path=cfg["predictor"])
    raw = run_phases(cfg, service, InprocTarget)
    assert raw["offered_b"] == N_BURSTS * inputs.BURST_EVENTS
    assert raw["applied_b"] == 0
    assert np.isfinite(raw["events_per_s"])
