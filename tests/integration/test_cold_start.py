"""Cold start: each entry point loads the code it runs, and no more.

Every check that reads ``sys.modules`` runs in a fresh interpreter,
since this test process has long since imported everything:

* import budgets — ``import repro`` loads no submodule, ``import
  repro.cli`` no subpackage (nor NumPy), the serve path none of the
  training, dataset or devtools code, and the replayed-stream scorer's
  imports plus one ``build_service`` call at most ``STREAM_BUDGET``
  modules;
* lazy exports — every name in every package's ``__all__`` is its
  defining module's object, through the attribute and through the
  package's export table, ``dir()`` lists it, and the names a package
  imports under ``TYPE_CHECKING`` (for static tools) are its
  ``__all__``;
* no load-order dependency — every ``repro`` module imports first in a
  fresh interpreter;
* the fork rule — sharded workers and training pool workers import no
  ``repro`` module after the fork: whatever they run was loaded by the
  parent, so its pages are shared (DESIGN.md §19).
"""

import ast
import functools
import importlib
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.embedding.model import EmbeddingModel
from repro.prediction.pipeline import PredictionDataset, ViralityPredictor

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"
ALL_MODULES = sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__")
    for path in PACKAGE.rglob("*.py")
)
PACKAGES = sorted(
    ".".join(path.relative_to(SRC).parent.parts) for path in PACKAGE.rglob("__init__.py")
)
#: the ``repro`` modules the replayed-stream scorer may load before it is ready
STREAM_BUDGET = 32
#: what the serve path (server + sharded router) must not load
SERVE_FORBIDDEN = (
    "repro.community",
    "repro.cooccurrence",
    "repro.clustering",
    "repro.datasets",
    "repro.graphs",
    "repro.ingest",
    "repro.cascades.simulate",
    "repro.cascades.kempe",
    "repro.cascades.trees",
    "repro.parallel.backends",
    "repro.parallel.supervision",
    "repro.parallel.hierarchical",
    "repro.parallel.hogwild",
    "repro.parallel.checkpoint",
    "repro.embedding.optimizer",
    "repro.embedding.compiled",
    "repro.embedding.online",
    "repro.embedding.likelihood",
    "repro.devtools.lint",
    "repro.devtools.analysis",
)
#: prints the ``repro`` modules loaded once the script's body has run
LOADED = "\nimport sys\nprint(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"


def run_python(code, *args, check=True):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("REPRO_SANITIZE", None)
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    if check:
        assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


def loaded_after(code, *args):
    """The ``repro`` modules a fresh interpreter holds after *code*."""
    out = run_python(textwrap.dedent(code) + LOADED, *args).stdout
    return ast.literal_eval(out.strip().splitlines()[-1])


@pytest.fixture
def artifacts(tmp_path):
    rng = np.random.default_rng(5)
    EmbeddingModel(rng.uniform(0, 1, (40, 3)), rng.uniform(0, 1, (40, 3))).save(
        tmp_path / "model.npz"
    )
    X = rng.normal(size=(60, 3))
    sizes = np.where(X[:, 0] > 0, 30, 3).astype(np.int64)
    ds = PredictionDataset(X=X, final_sizes=sizes, feature_names=tuple("xyz"))
    ViralityPredictor(threshold=10, seed=5).fit(ds).save(tmp_path / "svm.npz")
    return tmp_path / "model.npz", tmp_path / "svm.npz"


class TestImportBudgets:
    def test_import_repro_loads_no_submodule(self):
        assert loaded_after("import repro") == ["repro"]

    def test_import_cli_loads_no_subpackage(self):
        loaded = loaded_after(
            """
            import sys
            import repro.cli
            repro.cli.build_parser()
            assert "numpy" not in sys.modules  # ``repro --help`` needs none of it
            """
        )
        assert loaded == ["repro", "repro.cli"]

    def test_serve_path_loads_no_training_code(self):
        loaded = loaded_after("import repro.serving.server, repro.serving.sharding")
        offending = [
            m for m in loaded
            if any(m == f or m.startswith(f + ".") for f in SERVE_FORBIDDEN)
        ]
        assert offending == []

    def test_stream_scorer_budget(self, artifacts):
        loaded = loaded_after(
            """
            import sys
            import repro.ingest.recorder
            import repro.ingest.replay
            import repro.ingest.sources
            import repro.prediction.metrics
            import repro.serving.client
            from repro.serving.server import build_service
            build_service(sys.argv[1], predictor_path=sys.argv[2])
            """,
            *artifacts,
        )
        assert len(loaded) <= STREAM_BUDGET, loaded


def _type_checking_exports(package):
    """``{name: module}`` from the package init's re-export imports: the
    ``if TYPE_CHECKING:`` block of a lazy init, the plain imports of an
    eager one."""
    init = PACKAGE.joinpath(*package.split(".")[1:], "__init__.py")
    exports = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro."):
            exports.update({alias.name: node.module for alias in node.names})
    return exports


class TestLazyExports:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_every_export_is_its_defining_object(self, package):
        pkg = importlib.import_module(package)
        declared = _type_checking_exports(package)
        public = [name for name in pkg.__all__ if name != "__version__"]
        assert sorted(declared) == sorted(public)
        # a lazy init's table itself, not only the attribute it cached
        lazy = getattr(pkg, "__getattr__", functools.partial(getattr, pkg))
        listing = dir(pkg)
        for name in public:
            defining = getattr(importlib.import_module(declared[name]), name)
            assert getattr(pkg, name) is defining and lazy(name) is defining, name
            assert name in listing
        with pytest.raises(AttributeError):
            lazy("no_such_export")

    def test_submodule_named_functions_stay_functions(self):
        out = run_python(
            """
            from types import FunctionType
            import repro.community.slpa, repro.community.louvain
            import repro.community.modularity
            import repro, repro.community
            from repro.community import slpa, louvain, modularity
            assert all(isinstance(f, FunctionType) for f in (slpa, louvain, modularity))
            assert all(isinstance(getattr(pkg, name), FunctionType)
                       for pkg in (repro, repro.community)
                       for name in ("slpa", "louvain", "modularity"))
            print("ok")
            """
        )
        assert out.stdout.strip() == "ok"


def test_every_module_imports_first():
    """No module depends on another having been imported before it."""

    def first(module):
        proc = run_python(f"import {module}", check=False)
        return module, proc.returncode, proc.stderr[-800:]

    with ThreadPoolExecutor(2) as pool:
        failures = [r for r in pool.map(first, ALL_MODULES) if r[1] != 0]
    assert len(ALL_MODULES) >= 90
    assert failures == []


#: runs a scenario with a probe that reports every ``repro`` module a
#: forked child loads; it wraps the loader step both ``import`` and
#: ``importlib.import_module`` (a lazy export's first access) go through
FORK_PROBE = """
import os
import importlib._bootstrap as _bootstrap
ROOT = os.getpid()
_load = _bootstrap._find_and_load_unlocked

def _probe(name, import_):
    if os.getpid() != ROOT and name.startswith("repro"):
        os.write(2, f"child {os.getpid()} imported {name}\\n".encode())
    return _load(name, import_)

_bootstrap._find_and_load_unlocked = _probe
"""


def assert_children_import_nothing(scenario, *args):
    proc = run_python(FORK_PROBE + textwrap.dedent(scenario), *args)
    assert "done" in proc.stdout
    assert [line for line in proc.stderr.splitlines() if "imported" in line] == []


class TestForkRule:
    def test_shard_workers_import_nothing_after_fork(self, artifacts, tmp_path):
        assert_children_import_nothing(
            """
            import os, signal, sys
            import numpy as np
            from repro.serving.sharding import build_sharded_service, recover_sharded_service

            model, predictor, journal = sys.argv[1:4]
            svc = build_sharded_service(model, 2, predictor_path=predictor, journal_dir=journal)
            ids = [f"c{i % 9}" for i in range(90)]
            nodes = np.arange(90, dtype=np.int64) % 40
            times = np.arange(90, dtype=np.float64) * 0.01
            svc.ingest_columns(ids[:45], nodes[:45], times[:45])
            svc.score_columns(sorted(set(ids)), include_features=True)
            svc.swap_path(model)
            victim = svc._handles[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10)
            svc.ingest_columns(ids[45:], nodes[45:], times[45:])  # watchdog restart
            svc.score_columns(sorted(set(ids)))
            svc.stats(); svc.health_snapshot(); svc.state_fingerprint()
            svc.drain()
            again, report = recover_sharded_service(journal, 2)
            again.score_columns(sorted(set(ids)))
            again.close()
            print("done")
            """,
            *artifacts,
            tmp_path / "journal",
        )

    def test_pool_workers_import_nothing_after_fork(self):
        assert_children_import_nothing(
            """
            from repro.community import MergeTree, slpa
            from repro.cooccurrence import build_cooccurrence_graph
            from repro.datasets import make_sbm_experiment
            from repro.embedding import EmbeddingModel, OptimizerConfig
            from repro.parallel import HierarchicalInference, MultiprocessBackend

            exp = make_sbm_experiment(n_nodes=120, n_train=60, n_test=10, seed=3)
            backend = MultiprocessBackend(n_workers=2)
            try:
                graph = build_cooccurrence_graph(exp.train).filter_edges(0.1)
                tree = MergeTree(slpa(graph, seed=4), stop_at=1)
                model = EmbeddingModel.random(exp.train.n_nodes, 3, seed=5)
                engine = HierarchicalInference(tree, OptimizerConfig(max_iters=5), backend)
                engine.fit(model, exp.train)
            finally:
                backend.close()
            print("done")
            """
        )
