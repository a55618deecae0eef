"""Dispatch-overhead benchmark for the zero-copy arena.

Measures what the parallel engine pays *around* the numerics at each
merge-tree level — payload serialization volume and time, parent-side
build work, and wall-clock — for :class:`MultiprocessBackend`, whose
corpus lives in a shared-memory :class:`~repro.parallel.arena.CorpusArena`
and each level's split in a :class:`~repro.parallel.arena.LevelSelection`,
so a task ships as a tuple of index ranges.

The run uses 4 workers on the synthetic SBM corpus (the paper's §VI-A
instance) and must land bit-identical to :class:`SerialBackend` — the
overhead numbers would be meaningless if dispatch changed the numerics.
The level-by-level numbers go to ``BENCH_parallel.json`` at the repo root
(plus the usual ``benchmarks/results`` text dump).

Dispatch overhead is accounted as *payload pickle time + parent-side
build time*: the serialization cost is measured explicitly by one extra
dumps() pass over the exact payload tuples (``profile_dispatch=True``).
On a box with fewer cores than workers, timesharing workers make
wall-minus-compute meaningless, so it is not used.  Compute is split
into compile (:class:`CompiledCorpus` construction from the arena),
kernel (the fit loop), and gather (model row gather/scatter around the
fit).

Gates:

* on every level, payload bytes ≤ ⅓ × 16 B × the infections the level
  dispatched.  16 B (an int64 node id and a float64 time) per infection
  is the least any payload that ships the sub-cascade lists carries, so
  the gate keeps dispatch at least 3× below shipping the corpus;
* in total, dispatch overhead ≤ 5 % of worker compute.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from _common import save_result

from repro import MergeTree, make_sbm_experiment
from repro.embedding.model import EmbeddingModel
from repro.embedding.optimizer import OptimizerConfig
from repro.parallel.backends import MultiprocessBackend, SerialBackend
from repro.parallel.hierarchical import HierarchicalInference

pytestmark = pytest.mark.slow  # spawns a 4-worker pool; keep out of tier-1

ROOT = Path(__file__).parent.parent
N_WORKERS = 4
#: an int64 node id plus a float64 time: what shipping the lists costs
#: per infection, at the least
LIST_BYTES_PER_INFECTION = 16
MAX_PAYLOAD_SHARE_OF_LISTS = 1 / 3
MAX_OVERHEAD_SHARE_OF_COMPUTE = 0.05


def _world(scale):
    exp = make_sbm_experiment(
        n_nodes=scale.speedup_nodes,
        community_size=40,
        n_train=max(scale.speedup_cascade_counts),
        n_test=0,
        rate_scale=0.85,
        hub_communities=False,
        seed=1234,
    )
    tree = MergeTree(exp.planted_partition, stop_at=4)
    cfg = OptimizerConfig(max_iters=60)
    return exp, tree, cfg


def _fit(exp, tree, cfg, backend):
    model = EmbeddingModel.random(exp.train.n_nodes, 10, seed=77)
    result = HierarchicalInference(tree, cfg, backend).fit(model, exp.train)
    return model, result


def _overhead(profile):
    """Per-level dispatch overhead: pickle+IPC payload cost + build work."""
    return (profile.payload_pickle_seconds or 0.0) + profile.build_seconds


def _infections(level):
    """Infections the level dispatched (work units are iterations × infections)."""
    return sum(
        units // max(1, iters)
        for units, iters in zip(level.work_units, level.iterations)
    )


def test_arena_dispatch_overhead(scale):
    exp, tree, cfg = _world(scale)

    m_serial, _ = _fit(exp, tree, cfg, SerialBackend())
    with MultiprocessBackend(
        n_workers=N_WORKERS, profile_dispatch=True
    ) as backend:
        model, result = _fit(exp, tree, cfg, backend)
        profiles = list(backend.level_profiles)

    # Parallelism must change nothing: bit-identical final embeddings.
    assert np.array_equal(m_serial.A, model.A), "arena diverged from serial"
    assert np.array_equal(m_serial.B, model.B), "arena diverged from serial"

    levels = []
    for lvl, (p, stats) in enumerate(zip(profiles, result.levels)):
        assert p.mode == "arena"
        levels.append(
            {
                "level": lvl,
                "n_tasks": p.n_tasks,
                "infections": _infections(stats),
                "payload_bytes": p.payload_bytes,
                "payload_pickle_seconds": p.payload_pickle_seconds,
                "build_seconds": p.build_seconds,
                "dispatch_overhead_seconds": _overhead(p),
                "wall_seconds": p.wall_seconds,
                "compute_seconds": p.compute_seconds,
                "compile_seconds": p.compile_seconds or 0.0,
                "kernel_seconds": p.kernel_seconds or 0.0,
                "gather_seconds": p.gather_seconds or 0.0,
            }
        )
    for l in levels:
        l["payload_bytes_bound"] = (
            MAX_PAYLOAD_SHARE_OF_LISTS * LIST_BYTES_PER_INFECTION * l["infections"]
        )

    tot = {
        key: sum(l[key] for l in levels)
        for key in (
            "n_tasks",
            "infections",
            "payload_bytes",
            "payload_pickle_seconds",
            "dispatch_overhead_seconds",
            "wall_seconds",
            "compute_seconds",
            "compile_seconds",
            "kernel_seconds",
            "gather_seconds",
        )
    }
    overhead_share = tot["dispatch_overhead_seconds"] / tot["compute_seconds"]

    report = {
        "scale": scale.name,
        "n_workers": N_WORKERS,
        "n_nodes": scale.speedup_nodes,
        "n_cascades": max(scale.speedup_cascade_counts),
        "bit_identical_to_serial": True,
        "levels": levels,
        "totals": tot,
        "gates": {
            "payload_bytes_share_of_lists_max": MAX_PAYLOAD_SHARE_OF_LISTS,
            "list_bytes_per_infection": LIST_BYTES_PER_INFECTION,
            "payload_bytes_per_task": tot["payload_bytes"] / tot["n_tasks"],
            "dispatch_overhead_share_of_compute": overhead_share,
            "dispatch_overhead_share_of_compute_max": MAX_OVERHEAD_SHARE_OF_COMPUTE,
        },
    }
    (ROOT / "BENCH_parallel.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"dispatch benchmark ({scale.name} scale, {N_WORKERS} workers, "
        f"{scale.speedup_nodes} nodes, {max(scale.speedup_cascade_counts)} cascades)",
        f"{'lvl':>3} {'tasks':>5} {'infections':>10} {'payload B':>9} "
        f"{'bound B':>9} {'ovh s':>7} {'compute s':>9}",
    ]
    for l in levels:
        lines.append(
            f"{l['level']:>3} {l['n_tasks']:>5} {l['infections']:>10} "
            f"{l['payload_bytes']:>9} {l['payload_bytes_bound']:>9.0f} "
            f"{l['dispatch_overhead_seconds']:>7.4f} {l['compute_seconds']:>9.2f}"
        )
    lines.append(
        f"totals: {tot['payload_bytes']} payload B over {tot['n_tasks']} tasks "
        f"({tot['payload_bytes'] / tot['n_tasks']:.0f} B per task); dispatch "
        f"overhead {tot['dispatch_overhead_seconds']:.4f}s = "
        f"{100 * overhead_share:.2f}% of compute"
    )
    lines.append(
        f"compute {tot['compute_seconds']:.2f}s = "
        f"compile {tot['compile_seconds']:.2f}s + "
        f"kernel {tot['kernel_seconds']:.2f}s + "
        f"gather {tot['gather_seconds']:.2f}s"
    )
    save_result("bench_parallel_dispatch", "\n".join(lines))

    for l in levels:
        assert l["payload_bytes"] <= l["payload_bytes_bound"], (
            f"level {l['level']}: {l['payload_bytes']} payload B exceed "
            f"{l['payload_bytes_bound']:.0f} B (1/3 of the lists' 16 B per "
            f"infection)"
        )
    assert overhead_share <= MAX_OVERHEAD_SHARE_OF_COMPUTE, (
        f"dispatch overhead is {100 * overhead_share:.2f}% of worker compute"
    )
