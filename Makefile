# Convenience targets for the repro library.

.PHONY: install test faults faults-persist plan-smoke deprecation-strict obs-smoke procpool-smoke cache-smoke serve-smoke shard-smoke batch-smoke bench bench-small bench-gate docs examples loc all clean

install:
	pip install -e . --no-build-isolation

test:
	pytest tests/

test-verbose:
	pytest tests/ -v

# Fault-injection suite with NumPy warnings promoted to errors, proving
# NaN/Inf handling never leaks through silent RuntimeWarnings.
faults:
	python -W error::RuntimeWarning -m pytest tests/faults -q

# Durability suite: atomic snapshots, torn-write/bitflip injection,
# SIGKILL-and-resume, and the RNG-replay integrity audit.
faults-persist:
	python -W error::RuntimeWarning -m pytest tests/faults tests/persist -q

# Plan-layer smoke: compile a plan, print its reasoning, dump the JSON
# record, and execute it end-to-end on a tiny random matrix.
plan-smoke:
	python -m repro sketch --random 200 60 0.05 --explain
	python -m repro sketch --random 200 60 0.05 --plan-json /tmp/repro-plan-smoke.json
	python -c "from repro.plan import SketchPlan; \
	  p = SketchPlan.from_json('/tmp/repro-plan-smoke.json'); \
	  print(p.explain())"
	python -m pytest tests/plan -q

# Deprecation leg: the whole tier-1 suite with DeprecationWarning promoted
# to an error, so no code path (ours or a dependency's) warns.
deprecation-strict:
	python -W error::DeprecationWarning -m pytest tests -x -q

# Observability smoke: run a sketch with every exporter enabled, validate
# the emitted Prometheus text and profile JSON against the schema, and
# run the reconciliation suite (exported metrics == KernelStats totals).
obs-smoke:
	python -m repro sketch --random 400 80 0.05 --threads 2 \
	  --metrics-out /tmp/repro-obs-smoke.prom \
	  --trace-out /tmp/repro-obs-smoke-trace.json \
	  --profile --profile-out /tmp/repro-obs-smoke-profile.json
	python -c "from repro.obs.schema import main; import sys; \
	  sys.exit(main(['--profile', '/tmp/repro-obs-smoke-profile.json', \
	                 '--metrics', '/tmp/repro-obs-smoke.prom']))"
	python -m pytest tests/obs -q

# Process-pool crash-tolerance leg: the supervised worker-pool suite
# (SIGKILL / hang / corrupt-tile recovery, bit-identical output) plus a
# CLI smoke run on the process driver, plus the fleet-floor differential
# test (every worker gets a block task, bit-identically).  Everything is
# wrapped in a hard wall-clock timeout so a supervisor deadlock fails the
# build instead of hanging it.
procpool-smoke:
	timeout 300 python -m pytest tests/parallel/test_procpool.py \
	  tests/parallel/test_procpool_ladder.py -q
	timeout 300 python -m pytest tests/plan/test_contract.py -q
	timeout 300 python -m pytest tests/plan/test_fleet_blocking.py -q
	timeout 120 python -m repro sketch --random 200 60 0.05 \
	  --driver process --workers 2 --worker-heartbeat 10

# Artifact-cache leg: the cache test suite, then a warm-vs-cold gate run
# proving a second process pays zero autotune probes and zero blocked-CSR
# conversions, beats the cold run by the speedup floor, and returns a
# bit-identical sketch (compared against reports/BENCH_cache.json).
cache-smoke:
	python -m pytest tests/cache -q
	timeout 600 python benchmarks/bench_cache_warm.py

# Serving leg: the full serve suite (admission, breaker, protocol,
# service semantics, warm pools), then the real-daemon drills — SIGTERM
# graceful drain and the chaos acceptance scenario (start the daemon,
# serve concurrent plans, kill workers mid-request, hang another past
# its deadline, assert bit-identical responses + typed failures + clean
# drain).  Hard wall-clock timeouts so a wedged daemon fails the build
# instead of hanging it.
serve-smoke:
	timeout 300 python -m pytest tests/serve/test_admission.py \
	  tests/serve/test_breaker.py tests/serve/test_protocol.py \
	  tests/serve/test_service.py tests/parallel/test_procpool_warm.py -q
	timeout 300 python -m pytest tests/serve/test_daemon_drain.py \
	  tests/serve/test_chaos_acceptance.py -q

# Sharded-execution leg: the partition test suite (sharded output must
# be bit-identical to unsharded across serial/engine/process drivers and
# shard counts, including resume across a shard-count change), a CLI
# smoke run, then the shard gate — bit-identity, the executed shard
# count, merge accounting, and the measured process-pool
# sharded/unsharded ratio against reports/BENCH_shard.json.
# Hard wall-clock timeouts so a wedged shard merge fails the build
# instead of hanging it.
shard-smoke:
	timeout 300 python -m pytest tests/plan/test_partition.py \
	  tests/persist/test_shard_resume.py -q
	timeout 120 python -m repro sketch --random 400 80 0.05 --b-n 16 \
	  --shards 3
	timeout 600 python benchmarks/bench_shard_scaling.py

# Batched multi-sketch leg: the batched-tier test suite (bit-identity of
# k sketches per pass vs k independent runs, across drivers and
# under injected worker faults, plus serve-side request coalescing),
# then the throughput gate — every cell that met the 1.5x acceptance bar
# in the committed benchmarks/reports/BENCH_batch.json must hold it.
batch-smoke:
	timeout 600 python -m pytest tests/kernels/test_batched.py \
	  tests/plan/test_batch_plan.py tests/serve/test_coalesce.py -q
	timeout 600 python benchmarks/bench_batch_matrix.py

bench:
	pytest benchmarks/ --benchmark-only
	python benchmarks/summarize_reports.py

bench-small:
	REPRO_SCALE=small pytest benchmarks/ --benchmark-only
	python benchmarks/summarize_reports.py

# Kernel perf-regression gate: re-measure the kernel matrix and fail if
# any cell dropped below the committed benchmarks/reports/BENCH_backend.json
# by more than its per-metric tolerance (see GATE_TOLERANCES in
# benchmarks/summarize_reports.py).
bench-gate:
	python benchmarks/bench_backend_matrix.py

docs:
	python docs/generate_api.py

examples:
	python examples/quickstart.py
	python examples/machine_model_tour.py
	python examples/least_squares.py
	python examples/abnormal_patterns.py
	python examples/ordering_and_structure.py
	python examples/low_rank_approximation.py
	python examples/streaming_sketch.py

# Line counts: the src/ and benchmarks/ totals and the three execution
# files (the engine's scheduler, the process pool, the runtime).  Prints
# only.
EXEC_FILES = src/repro/parallel/executor.py src/repro/parallel/procpool.py \
	src/repro/plan/runtime.py
loc:
	@find src -name '*.py' -print0 | xargs -0 cat | wc -l \
	  | awk '{print "src/ total:", $$1}'
	@find benchmarks -name '*.py' -print0 | xargs -0 cat | wc -l \
	  | awk '{print "benchmarks/ total:", $$1}'
	@wc -l $(EXEC_FILES)

all: install test bench docs

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
