"""Unit tests for level checkpointing (atomic save/load, digest binding)."""

import numpy as np
import pytest

from repro.community.mergetree import MergeTree
from repro.community.partition import Partition
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.checkpoint import (
    Checkpoint,
    CheckpointError,
    CheckpointManager,
    CheckpointMismatchError,
    corpus_digest,
    run_digest,
)


@pytest.fixture
def tree():
    membership = np.array([0, 0, 1, 1, 2, 2])
    return MergeTree(Partition(membership), stop_at=1)


@pytest.fixture
def config():
    return OptimizerConfig(max_iters=10)


def _ab(seed=0, shape=(6, 3)):
    rng = np.random.default_rng(seed)
    return rng.random(shape), rng.random(shape)


class TestSaveLoadRoundtrip:
    def test_roundtrip(self, tmp_path):
        A, B = _ab()
        mgr = CheckpointManager(tmp_path / "ck")
        mgr.save(2, A, B, "deadbeef")
        ck = mgr.load()
        assert isinstance(ck, Checkpoint)
        assert ck.level_idx == 2 and ck.digest == "deadbeef"
        np.testing.assert_array_equal(ck.A, A)
        np.testing.assert_array_equal(ck.B, B)
        assert ck.rng_state is None

    def test_rng_state_roundtrip(self, tmp_path):
        rng = np.random.default_rng(42)
        rng.random(100)  # advance past the seed state
        state = rng.bit_generator.state
        expected_next = rng.random()
        A, B = _ab()
        mgr = CheckpointManager(tmp_path)
        mgr.save(0, A, B, "d", rng_state=state)
        restored = np.random.default_rng(0)
        restored.bit_generator.state = mgr.load().rng_state
        assert restored.random() == expected_next

    def test_load_without_checkpoint_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path).load() is None

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        CheckpointManager(target)
        assert target.is_dir()

    def test_save_overwrites_previous_level(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        A0, B0 = _ab(0)
        A1, B1 = _ab(1)
        mgr.save(0, A0, B0, "d")
        mgr.save(1, A1, B1, "d")
        ck = mgr.load()
        assert ck.level_idx == 1
        np.testing.assert_array_equal(ck.A, A1)

    def test_clear(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        A, B = _ab()
        mgr.save(0, A, B, "d")
        mgr.clear()
        assert mgr.load() is None
        mgr.clear()  # idempotent


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        A, B = _ab()
        for level in range(3):
            mgr.save(level, A, B, "d")
        assert [p.name for p in tmp_path.iterdir()] == ["hier_checkpoint.npz"]

    def test_failed_write_preserves_previous_checkpoint(self, tmp_path, monkeypatch):
        mgr = CheckpointManager(tmp_path)
        A, B = _ab()
        mgr.save(0, A, B, "d")

        import repro.parallel.checkpoint as cp

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cp.np, "savez", boom)
        with pytest.raises(OSError):
            mgr.save(1, A, B, "d")
        monkeypatch.undo()
        ck = mgr.load()  # previous checkpoint intact, no stray temp files
        assert ck.level_idx == 0
        assert [p.name for p in tmp_path.iterdir()] == ["hier_checkpoint.npz"]


class TestCorruptFiles:
    def test_garbage_bytes(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        mgr.path.write_bytes(b"not a zip archive at all")
        with pytest.raises(CheckpointError, match="unreadable"):
            mgr.load()

    def test_missing_arrays(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        np.savez(mgr.path, A=np.zeros(3))  # no B, no meta
        with pytest.raises(CheckpointError, match="need A, B, meta"):
            mgr.load()


class TestValidate:
    def test_matching_digest_returns_checkpoint(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        A, B = _ab()
        mgr.save(1, A, B, "abc")
        ck = mgr.validate("abc")
        assert ck is not None and ck.level_idx == 1

    def test_mismatched_digest_raises(self, tmp_path):
        mgr = CheckpointManager(tmp_path)
        A, B = _ab()
        mgr.save(1, A, B, "abc")
        with pytest.raises(CheckpointMismatchError, match="different run"):
            mgr.validate("xyz")

    def test_validate_without_checkpoint_returns_none(self, tmp_path):
        assert CheckpointManager(tmp_path).validate("abc") is None


class TestRunDigest:
    def test_deterministic(self, small_corpus, tree, config):
        assert run_digest(small_corpus, tree, config) == run_digest(
            small_corpus, tree, config
        )

    def test_sensitive_to_config(self, small_corpus, tree, config):
        other = OptimizerConfig(max_iters=11)
        assert run_digest(small_corpus, tree, config) != run_digest(
            small_corpus, tree, other
        )

    def test_sensitive_to_corpus(self, small_corpus, tree, config):
        from repro.cascades.types import Cascade, CascadeSet

        other = CascadeSet(6, list(small_corpus))
        other.append(Cascade([0, 5], [0.0, 1.0]))
        assert run_digest(small_corpus, tree, config) != run_digest(
            other, tree, config
        )

    def test_sensitive_to_tree(self, small_corpus, tree, config):
        other = MergeTree(
            Partition(np.array([0, 1, 0, 1, 2, 2])), stop_at=1
        )
        assert run_digest(small_corpus, tree, config) != run_digest(
            small_corpus, other, config
        )

    def test_corpus_digest_hashes_the_flat_layout(self, small_corpus):
        """The corpus component of the digest is blake2b-16 over the node
        count, the cascade count, then the concatenated node ids, times
        and per-cascade offsets — a checkpoint stays bound to the same
        corpus bytes however the flat arrays are built."""
        import hashlib

        from repro.cascades.types import CascadeSet

        for cascades in (small_corpus, CascadeSet(6)):
            h = hashlib.blake2b(digest_size=16)
            h.update(np.int64(6).tobytes())
            h.update(np.int64(len(cascades)).tobytes())
            for field in ("nodes", "times"):
                for c in cascades:
                    h.update(getattr(c, field).tobytes())
            h.update(
                np.cumsum([0] + [c.size for c in cascades], dtype=np.int64).tobytes()
            )
            assert corpus_digest(cascades) == h.hexdigest()
