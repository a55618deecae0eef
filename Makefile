PYTHON ?= python
export PYTHONPATH := src
# Per-test watchdog (seconds) — enforced by pytest-timeout when installed,
# by the SIGALRM fallback in tests/conftest.py otherwise.  The fault-injection
# tests hang/kill workers on purpose; this keeps a supervision bug from
# wedging the suite.
export REPRO_TEST_TIMEOUT ?= 600

.PHONY: check fast test bench bench-dispatch bench-kernel bench-slpa bench-serving bench-ingest bench-startup chaos lint analyze typecheck

## tier-1 gate: lint, analyze, typecheck, then the full test suite (what CI runs)
## and the end-to-end benchmark's own arithmetic (perfbench/tests, outside testpaths)
check: lint analyze typecheck
	$(PYTHON) -m pytest -x -q
	$(PYTHON) -m pytest -q perfbench/tests

## project-specific correctness lint (syntactic rules REP001–REP009), then
## ruff when installed.  The repro.devtools.lint pass always runs (stdlib-only);
## ruff is optional — absent ruff prints a skip notice, an installed-but-failing
## ruff fails the target.  The interprocedural REP10x analyzers live in the
## separate `analyze` target.
lint:
	$(PYTHON) -m repro.devtools.lint --ignore REP101,REP102,REP103,REP104 src
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed — skipping (pip install -e '.[dev]')"; \
	fi

## interprocedural concurrency analysis (stdlib-only, DESIGN.md §15):
## REP101 guarded-by discipline, REP102 lock-order cycles, REP103 blocking
## calls under a lock, REP104 fork-unsafe captures
analyze:
	$(PYTHON) -m repro.devtools.lint --select REP101,REP102,REP103,REP104 src

## mypy strict profile (embedding/, parallel/, cascades/, serving/, ingest/); skipped when absent
typecheck:
	@if $(PYTHON) -c "import mypy" >/dev/null 2>&1; then \
		$(PYTHON) -m mypy; \
	else \
		echo "mypy not installed — skipping (pip install -e '.[dev]')"; \
	fi

## quick dev loop: skip slow (multiprocess-pool / fault-injection / benchmark) tests
fast:
	$(PYTHON) -m pytest -x -q -m "not slow"

test: check

## regenerate every figure bench (CI scale; REPRO_BENCH_SCALE=paper for full)
bench:
	$(PYTHON) -m pytest -x -q benchmarks

## chaos suite: crash-kill / torn-write / slow-disk / task-death injection
## against the journal, recovery, the supervised server, and the sharded
## tier (SIGKILL a shard mid-burst → watchdog restart + journal replay to
## bit-identical state), both corruption suites of the shared event-log
## reader (the journal's torn-tail and malformed-record cases in
## test_durability.py, the recording's in test_recorder.py), hostile
## input (rejected events leave state unchanged on both tiers, every
## request line gets one reply), plus the replay legs (slow consumer, scoring
## server restart mid-replay, SIGKILL a shard mid-replay), the server's
## in-flight bound (queue-full refusals and the replay retry ladder, in
## test_tcp_client.py), SIGTERM to a real `repro serve` process, and the
## training-side fault suites (worker raise / exit / hang → pool retry,
## respawn, reseed, and the last attempt in the parent) — run with the
## runtime sanitizer armed, so the serving locks' acquisition order and
## every training level's selection block (`verify_selection`) are
## checked too
chaos:
	REPRO_SANITIZE=1 $(PYTHON) -m pytest -x -q \
		tests/unit/serving/test_durability.py \
		tests/unit/ingest/test_recorder.py \
		tests/unit/serving/test_server.py \
		tests/unit/serving/test_sharding.py \
		tests/unit/serving/test_tcp_client.py \
		tests/unit/ingest/test_replay_chaos.py \
		tests/unit/devtools/test_lock_sanitizer.py \
		tests/property/test_prop_durability.py \
		tests/integration/test_serve_process.py \
		tests/unit/test_supervision.py \
		tests/unit/test_backends.py \
		tests/integration/test_fault_tolerance.py

## arena dispatch benchmark (bit-identity against SerialBackend, payload
## bytes and dispatch-overhead gates); writes BENCH_parallel.json
bench-dispatch:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_dispatch.py

## gradient-kernel benchmark (scatter plan vs np.add.at, allocation audit);
## writes BENCH_kernel.json
bench-kernel:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_kernel.py

## SLPA benchmark (whole-window voting vs the per-listener loop on the
## train-sbm co-occurrence graph, the Fig. 2 backbone and two unweighted
## tie-dense graphs; identity gate, >= 3x on the co-occurrence graph);
## writes BENCH_slpa.json
bench-slpa:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_slpa.py

## scoring-service benchmark (score_columns groups vs one-at-a-time
## scoring, burst vs scalar ingest, the burst fold kernel vs the
## per-cascade fold on three burst shapes, score_columns allocation audit,
## latency percentiles, journal overhead, recovery rate, sharded scale-out
## + zero-copy publish gates, concurrent single `score` ops over TCP via
## benchmarks/serve_concurrency.py); writes BENCH_serving.json
bench-serving:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_serving.py

## recorded-stream replay benchmark (flat-out throughput, replay/direct
## bit-identity, paced 10x+ replay vs the sharded tier with SLO gates);
## writes BENCH_ingest.json
bench-ingest:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_ingest.py

## cold-start benchmark (launch -> ready of the in-process scorer, of
## `repro serve --shards 2` and of `repro --help`, with each one's exact
## repro module count; 2-shard journal recovery wall time against the
## per-shard replays); writes BENCH_startup.json
bench-startup:
	$(PYTHON) -m pytest -x -q benchmarks/test_perf_startup.py
