"""Unit tests for sub-cascade splitting (Alg. 1 lines 1-11)."""

import numpy as np
import pytest

from repro.cascades.types import Cascade, CascadeSet
from repro.community.partition import Partition
from repro.parallel.splitting import split_cascades, split_positions


@pytest.fixture
def corpus_and_partition():
    cs = CascadeSet(6)
    cs.append(Cascade([0, 3, 1, 4], [0.0, 0.1, 0.2, 0.3]))
    cs.append(Cascade([2, 5], [0.0, 0.5]))
    cs.append(Cascade([0, 1, 2], [0.0, 0.4, 0.8]))
    part = Partition([0, 0, 0, 1, 1, 1])  # nodes 0-2 vs 3-5
    return cs, part


class TestSplitCascades:
    def test_sub_cascade_contents(self, corpus_and_partition):
        cs, part = corpus_and_partition
        subs = split_cascades(cs, part, min_size=1)
        # community 0 gets [0,1] from c0, [2] from c1, [0,1,2] from c2
        sizes0 = sorted(c.size for c in subs[0])
        assert sizes0 == [1, 2, 3]
        sizes1 = sorted(c.size for c in subs[1])
        assert sizes1 == [1, 2]

    def test_min_size_drops_singletons(self, corpus_and_partition):
        cs, part = corpus_and_partition
        subs = split_cascades(cs, part, min_size=2)
        assert all(c.size >= 2 for sub in subs for c in sub)

    def test_times_preserved(self, corpus_and_partition):
        cs, part = corpus_and_partition
        subs = split_cascades(cs, part, min_size=1)
        c0 = subs[0][0]
        assert c0.nodes.tolist() == [0, 1]
        assert c0.times.tolist() == [0.0, 0.2]

    def test_order_preserved(self, corpus_and_partition):
        cs, part = corpus_and_partition
        subs = split_cascades(cs, part, min_size=1)
        for sub in subs:
            for c in sub:
                assert np.all(np.diff(c.times) >= 0)

    def test_total_infection_conservation(self, corpus_and_partition):
        cs, part = corpus_and_partition
        subs = split_cascades(cs, part, min_size=1)
        total = sum(sub.total_infections() for sub in subs)
        assert total == cs.total_infections()

    def test_universe_mismatch(self, corpus_and_partition):
        cs, _ = corpus_and_partition
        with pytest.raises(ValueError):
            split_cascades(cs, Partition([0, 1]))

    def test_trivial_partition_identity(self, corpus_and_partition):
        cs, _ = corpus_and_partition
        subs = split_cascades(cs, Partition.trivial(6), min_size=1)
        assert len(subs) == 1
        assert subs[0].sizes().tolist() == cs.sizes().tolist()


class TestSplitPositions:
    """Index-based splitting must mirror the object path exactly."""

    def _flat(self, cs):
        nodes = (
            np.concatenate([c.nodes for c in cs])
            if len(cs)
            else np.empty(0, dtype=np.int64)
        )
        times = (
            np.concatenate([c.times for c in cs])
            if len(cs)
            else np.empty(0, dtype=np.float64)
        )
        offsets = np.zeros(len(cs) + 1, dtype=np.int64)
        np.cumsum(cs.sizes(), out=offsets[1:])
        return nodes, times, offsets

    def _assert_matches_object_path(self, cs, part, min_size):
        nodes, times, offsets = self._flat(cs)
        ps = split_positions(nodes, offsets, part.membership, min_size=min_size)
        subs = split_cascades(cs, part, min_size=min_size)
        assert np.all(np.diff(ps.group_community) >= 0)
        for cid in range(part.n_communities):
            lo, hi = ps.community_range(cid)
            assert hi - lo == len(subs[cid])
            for gi, c in zip(range(lo, hi), subs[cid]):
                p = ps.positions[ps.sub_offsets[gi] : ps.sub_offsets[gi + 1]]
                assert np.array_equal(nodes[p], c.nodes)
                assert np.array_equal(times[p], c.times)

    def test_matches_object_path(self, corpus_and_partition):
        cs, part = corpus_and_partition
        self._assert_matches_object_path(cs, part, min_size=2)

    def test_min_size_one(self, corpus_and_partition):
        cs, part = corpus_and_partition
        self._assert_matches_object_path(cs, part, min_size=1)

    def test_randomized_with_ties_and_singletons(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            n = int(rng.integers(4, 25))
            cs = CascadeSet(n)
            for _ in range(int(rng.integers(1, 12))):
                size = int(rng.integers(1, min(n, 8) + 1))
                picks = rng.permutation(n)[:size]
                times = np.sort(np.round(rng.uniform(0, 2, size), 1))
                cs.append(Cascade(picks, times))
            # random partition, may include single-node communities
            part = Partition(rng.integers(0, max(2, n // 3), size=n))
            self._assert_matches_object_path(cs, part, min_size=2)

    def test_empty_corpus(self):
        ps = split_positions(
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.zeros(5, dtype=np.int64),
        )
        assert ps.positions.size == 0
        assert ps.sub_offsets.tolist() == [0]
        assert ps.community_range(0) == (0, 0)

    def test_all_groups_filtered(self):
        # every sub-cascade is a singleton -> nothing survives min_size=2
        cs = CascadeSet(4, [Cascade([0, 1], [0.0, 1.0]), Cascade([2, 3], [0.0, 1.0])])
        nodes, _, offsets = self._flat(cs)
        ps = split_positions(nodes, offsets, np.arange(4), min_size=2)
        assert ps.positions.size == 0
        assert ps.group_community.size == 0
