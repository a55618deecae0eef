"""Property-based crash-recovery tests for the write-ahead journal.

The acceptance property (ISSUE/DESIGN.md §14): kill the service at a
*random* journal append — before the write, after it, or tearing a
random prefix of the frame onto disk — then recover, and the rebuilt
service is **bit-identical** to an uninterrupted run over the journaled
record stream: same tracked cascades, same LRU/eviction order, same
observed logs, same feature vectors, same scores.  Random interleavings
of ingest bursts, duplicate adopters, model hot-swaps, capacity-forced
evictions, and mid-stream compactions all ride along.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor
from repro.serving.durability import (
    EventJournal,
    InjectedCrash,
    JournalConfig,
    _ChaosPlan,
    recover_service,
)
from repro.serving.registry import ModelRegistry
from repro.serving.service import ScoringService
from repro.serving.tracker import StoreConfig

N = 12
K = 3


def _fit_predictor():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(60, K))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    return ViralityPredictor(threshold=10, seed=7).fit(ds)


#: fitting the SVM once keeps each hypothesis example cheap
PREDICTOR = _fit_predictor()


def make_model(seed):
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.uniform(0, 2, (N, K)), rng.uniform(0, 2, (N, K)))


def make_service(capacity):
    return ScoringService(
        ModelRegistry(),
        store_config=StoreConfig(capacity=capacity),
    )


@st.composite
def op_stream(draw):
    """A random op sequence: ingest bursts, hot-swaps, compactions."""
    n_ops = draw(st.integers(min_value=1, max_value=10))
    ops = []
    t = 0.0
    for _ in range(n_ops):
        kind = draw(st.sampled_from(["burst", "burst", "burst", "swap", "compact"]))
        if kind == "burst":
            size = draw(st.integers(min_value=1, max_value=5))
            burst = []
            for _ in range(size):
                cid = f"c{draw(st.integers(min_value=0, max_value=4))}"
                node = draw(st.integers(min_value=0, max_value=N - 1))
                t += draw(st.floats(min_value=0.01, max_value=0.2))
                burst.append((cid, node, t))
            ops.append(("burst", burst))
        elif kind == "swap":
            ops.append(("swap", draw(st.integers(min_value=1, max_value=50))))
        else:
            ops.append(("compact", None))
    return ops


@st.composite
def crash_plan(draw, ops):
    """A chaos plan aimed at a random append of the given op stream."""
    appends = 1 + sum(1 for kind, _ in ops if kind != "compact")
    if appends == 1:
        # All-compact op stream: the only reachable append is the seed
        # publish (append 0, 0-based), and killing *before* it would
        # leave an empty journal with nothing to recover — so crash
        # right after it.
        return _ChaosPlan(at_append=0, action="kill", point="after")
    at = draw(st.integers(min_value=1, max_value=appends - 1))
    action = draw(st.sampled_from(["kill", "kill", "torn"]))
    if action == "torn":
        return _ChaosPlan(
            at_append=at, action="torn",
            torn_bytes=draw(st.integers(min_value=1, max_value=11)),
        )
    return _ChaosPlan(
        at_append=at, action="kill",
        point=draw(st.sampled_from(["before", "after"])),
    )


def apply_op(service, op, journaled):
    kind, arg = op
    if kind == "burst":
        service.ingest_many(arg)
    elif kind == "swap":
        if journaled:
            service.publish(make_model(arg), source=f"swap{arg}")
        else:
            service.registry.publish(make_model(arg), source=f"swap{arg}")
    elif journaled:  # compact: a no-op without a journal
        service.compact()


def surviving_ops(ops, chaos):
    """The prefix of ops whose journal records survived the crash.

    Append 0 is the seed publish; each burst/swap op is one append.
    ``point="after"`` keeps the record of the crashing append; a torn
    or killed-before append is lost.
    """
    keep = chaos.at_append if chaos.action != "kill" or chaos.point == "before" \
        else chaos.at_append + 1
    out, appends = [], 1  # the seed publish
    for op in ops:
        if op[0] == "compact":
            out.append(op)
            continue
        if appends >= keep:
            break
        out.append(op)
        appends += 1
    return out


def assert_bit_identical(recovered, reference):
    r_cids, r_off, r_nodes, r_times = recovered.store.export_state()
    e_cids, e_off, e_nodes, e_times = reference.store.export_state()
    assert r_cids == e_cids
    assert np.array_equal(r_off, e_off)
    assert np.array_equal(r_nodes, e_nodes)
    assert np.array_equal(r_times, e_times)
    for cid in e_cids:
        got = recovered.score(cid, include_features=True)
        want = reference.score(cid, include_features=True)
        assert got.status == want.status == "ok"
        assert got.score == want.score
        assert got.label == want.label
        assert np.array_equal(got.features, want.features)
    assert (
        recovered.registry.current().fingerprint
        == reference.registry.current().fingerprint
    )


@st.composite
def crash_case(draw):
    ops = draw(op_stream())
    return ops, draw(crash_plan(ops)), draw(st.sampled_from([3, 4, 1000]))


class TestCrashRecovery:
    @given(crash_case())
    @settings(max_examples=30, deadline=None)
    def test_recovery_is_bit_identical_after_random_crash(self, case):
        ops, chaos, capacity = case
        with tempfile.TemporaryDirectory() as tmp:
            config = JournalConfig(directory=Path(tmp) / "wal", fsync="off")
            store_config = StoreConfig(capacity=capacity)
            service = ScoringService(
                ModelRegistry(),
                store_config=store_config,
            )
            service.attach_journal(EventJournal(config, _chaos=chaos))
            crashed = False
            try:
                service.publish(
                    make_model(0), predictor=PREDICTOR, source="seed"
                )
                for op in ops:
                    apply_op(service, op, journaled=True)
            except InjectedCrash:
                crashed = True
            assert crashed  # the plan always targets a reachable append

            reference = ScoringService(
                ModelRegistry(),
                store_config=StoreConfig(capacity=capacity),
            )
            reference.registry.publish(
                make_model(0), predictor=PREDICTOR, source="seed"
            )
            for op in surviving_ops(ops, chaos):
                apply_op(reference, op, journaled=False)

            recovered, report = recover_service(
                config, store_config=StoreConfig(capacity=capacity)
            )
            assert_bit_identical(recovered, reference)
            if chaos.action == "torn":
                assert report.torn_tail_repaired

    @given(crash_case())
    @settings(max_examples=10, deadline=None)
    def test_double_crash_double_recovery(self, case):
        """Recover, crash nothing further, recover again: the second
        recovery (from the first one's compaction snapshot) must equal
        the first."""
        ops, chaos, capacity = case
        with tempfile.TemporaryDirectory() as tmp:
            config = JournalConfig(directory=Path(tmp) / "wal", fsync="off")
            service = ScoringService(
                ModelRegistry(),
                store_config=StoreConfig(capacity=capacity),
            )
            service.attach_journal(EventJournal(config, _chaos=chaos))
            try:
                service.publish(
                    make_model(0), predictor=PREDICTOR, source="seed"
                )
                for op in ops:
                    apply_op(service, op, journaled=True)
            except InjectedCrash:
                pass
            first, _ = recover_service(
                config, store_config=StoreConfig(capacity=capacity)
            )
            first.seal_journal()  # simulated second death, post-compaction
            second, report = recover_service(
                config, store_config=StoreConfig(capacity=capacity)
            )
            assert report.snapshot_loaded  # the first recovery compacted
            assert_bit_identical(second, first)
