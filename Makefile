# Developer entry points.  `make check` is the pre-merge gate: the full
# tier-1 test suite plus the observability overhead guard (which fails if
# disabled instrumentation slows ingestion by more than its budget).
# `make lint` needs ruff (`pip install -e .[lint]`) and `make coverage`
# needs pytest-cov (`pip install -e .[coverage]`); both degrade to a
# no-op with a notice where the tool is not installed (CI installs them).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test overhead-guard lint coverage check bench bench-smoke bench-parallel bench-wire service-smoke rest-smoke scenario-smoke scenario-full load-slo validate-bench

# Line-coverage floor enforced by `make coverage` (and the CI coverage job).
COV_FAIL_UNDER ?= 85

test:
	$(PYTHON) -m pytest -x -q

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q -m "not slow" \
			--cov=src/repro --cov-report=term-missing:skip-covered \
			--cov-fail-under=$(COV_FAIL_UNDER); \
	else \
		echo "pytest-cov not installed; skipping coverage (pip install -e .[coverage])"; \
	fi

overhead-guard:
	$(PYTHON) benchmarks/bench_observability_overhead.py

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks && \
		ruff format --check src tests benchmarks && \
		ruff check --select ANN --ignore ANN401 src/repro/service/types.py; \
	else \
		echo "ruff not installed; skipping lint (pip install -e .[lint])"; \
	fi

check: lint test overhead-guard

bench:
	$(PYTHON) -m pytest benchmarks -q

bench-smoke:
	$(PYTHON) -m pytest benchmarks/bench_throughput.py -q
	$(PYTHON) benchmarks/bench_batch_ingest.py --smoke \
		--json BENCH_PR.json --min-speedup 2.0
	$(PYTHON) benchmarks/bench_parallel_ingest.py --quick \
		--json BENCH_PARALLEL.json --min-speedup 1.3
	$(PYTHON) benchmarks/validate_bench_json.py \
		BENCH_PR.json BENCH_PARALLEL.json

bench-parallel:
	$(PYTHON) benchmarks/bench_parallel_ingest.py \
		--json BENCH_PARALLEL.json --min-speedup 1.3

# Wire codec + hotspot before/after micro-profiles (JSON vs binary
# serialization, FINDMIN heap churn, hull add).
bench-wire:
	$(PYTHON) benchmarks/bench_wire.py --json BENCH_WIRE.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_WIRE.json

# End-to-end service gate: boot the TCP server, stream 100k values over
# the wire, diff the served histograms against one-shot summarize(),
# and require the binary transport to beat JSON by >= 3x on appends.
service-smoke:
	$(PYTHON) benchmarks/bench_service_smoke.py --items 100000 \
		--wire-min-speedup 3.0 --json BENCH_SERVICE.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_SERVICE.json

# REST facade gate (the CI `rest-smoke` job): boot one engine behind
# both the TCP server and the HTTP facade, stream the same dataset
# through each, require bit-identical histograms, and keep the REST
# append p50 within 5x of the binary transport (see docs/REST.md).
rest-smoke:
	$(PYTHON) benchmarks/bench_rest_smoke.py --items 60000 \
		--max-ratio 5.0 --json BENCH_REST.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_REST.json

# Scenario-suite gate (the CI `scenario-smoke` job): simulate bundled
# YAML workloads through the scenario runner, verify realized error
# against the offline-optimal oracle, and require every differential
# conformance cell (serial/parallel x scalar/batched) to be
# bit-identical.  `scenario-full` is the nightly configuration: all
# bundled scenarios plus the full matrix.
scenario-smoke:
	$(PYTHON) benchmarks/bench_scenarios.py --smoke --json BENCH_SCENARIO.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_SCENARIO.json

scenario-full:
	$(PYTHON) benchmarks/bench_scenarios.py --json BENCH_SCENARIO.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_SCENARIO.json

# Cluster load-SLO gate (the CI `load-slo` job): boot a sharded router
# with LOAD_WORKERS worker processes, drive LOAD_CLIENTS concurrent
# mixed append/query clients over both transports, SIGKILL one worker
# mid-load, and fail unless (a) a survivor adopts its streams with zero
# acknowledged appends lost, (b) every stream's served histogram is
# bit-identical to one-shot summarize(), and (c) p50/p99 latencies meet
# the LOAD_SLO_* thresholds (milliseconds; calibrated with generous
# headroom for shared runners -- override per-run as needed).
LOAD_WORKERS ?= 3
LOAD_CLIENTS ?= 200
LOAD_BATCHES ?= 10
LOAD_BATCH_SIZE ?= 100
LOAD_SLO_APPEND_P50 ?= 1000
LOAD_SLO_APPEND_P99 ?= 5000
LOAD_SLO_QUERY_P50 ?= 1000
LOAD_SLO_QUERY_P99 ?= 5000
load-slo:
	$(PYTHON) benchmarks/bench_load.py \
		--cluster-workers $(LOAD_WORKERS) --clients $(LOAD_CLIENTS) \
		--batches $(LOAD_BATCHES) --batch-size $(LOAD_BATCH_SIZE) \
		--kill-worker \
		--slo-append-p50-ms $(LOAD_SLO_APPEND_P50) \
		--slo-append-p99-ms $(LOAD_SLO_APPEND_P99) \
		--slo-query-p50-ms $(LOAD_SLO_QUERY_P50) \
		--slo-query-p99-ms $(LOAD_SLO_QUERY_P99) \
		--json BENCH_LOAD.json
	$(PYTHON) benchmarks/validate_bench_json.py BENCH_LOAD.json

# Sanity-check whatever benchmark artifacts exist in the worktree.
validate-bench:
	$(PYTHON) benchmarks/validate_bench_json.py --allow-missing \
		BENCH_PR.json BENCH_PARALLEL.json BENCH_WIRE.json \
		BENCH_SERVICE.json BENCH_LOAD.json \
		BENCH_SCENARIO.json BENCH_REST.json
