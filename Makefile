PYTHON ?= python
export PYTHONPATH := src

.PHONY: test chaos lockcheck lint check bench bench-smoke bench-compare bench-compress bench-paper sim-shapes fleet-smoke live-smoke live-ab trace-demo import-profile

test:
	$(PYTHON) -m pytest -x -q

# Fault-injection suite: deterministic resets/stalls/corruption against
# the deadline/retry/teardown machinery (tests/faults), the reactor and
# pool (tests/serve), and malformed framing through both receive
# drivers' shared core -- the same files as CI's chaos job.
chaos:
	$(PYTHON) -m pytest tests/faults tests/serve \
		tests/integration/test_protocol_fuzz.py \
		tests/integration/test_fault_injection.py -q

lockcheck:
	REPRO_LOCKCHECK=1 $(PYTHON) -m pytest -x -q

# The repo's own analyzer always runs; ruff/mypy run when installed
# (pip install -e .[lint]) and are skipped gracefully otherwise.
lint: check
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null; \
		then ruff check .; else echo "ruff not installed -- skipped"; fi
	@if command -v mypy >/dev/null; \
		then mypy; else echo "mypy not installed -- skipped"; fi

# The analyzer: single-file concurrency rules (docs/LINTING.md) plus
# interprocedural lock-order (ADOC110/113), deadline-propagation
# (ADOC111), thread-lifecycle (ADOC112) proofs and cross-module wire
# symmetry (docs/ANALYSIS.md).
check:
	$(PYTHON) -m repro.cli check src/repro -v

# Send-path engine benchmark (legacy vs streaming) plus the reactor
# concurrency curve (streams vs throughput): full runs
# write BENCH_send_path.json / BENCH_concurrency.json and enforce the
# perf acceptance bars; smoke is the seconds-long CI variant.
bench:
	$(PYTHON) benchmarks/send_path.py
	$(PYTHON) benchmarks/concurrency.py
	$(PYTHON) benchmarks/compress.py

bench-smoke:
	$(PYTHON) benchmarks/send_path.py --smoke
	$(PYTHON) benchmarks/concurrency.py --smoke
	$(PYTHON) benchmarks/compress.py --smoke

# Gate fresh smoke runs against the committed baselines (>2x fails).
bench-compare:
	$(PYTHON) benchmarks/send_path.py --smoke --out BENCH_send_path.smoke.json
	$(PYTHON) benchmarks/compare.py BENCH_send_path.json BENCH_send_path.smoke.json
	$(PYTHON) benchmarks/concurrency.py --smoke --out BENCH_concurrency.smoke.json
	$(PYTHON) benchmarks/compare.py BENCH_concurrency.json BENCH_concurrency.smoke.json
	$(PYTHON) benchmarks/compress.py --smoke --out BENCH_compress.smoke.json
	$(PYTHON) benchmarks/compare.py BENCH_compress.json BENCH_compress.smoke.json

# Compression benchmark alone: vectorized LZF vs the reference encoder
# plus pooled zlib-6 worker scaling; the full run enforces the >=5x
# single-thread floor (docs/PERFORMANCE.md).
bench-compress:
	$(PYTHON) benchmarks/compress.py

# Simulator shape checks: the paper's Figures 3-9, Table 2 and the
# ablations, through the simulator (the third send driver over
# core/planner.py); tier-1 (testpaths = tests/) never runs them.
# Figures 8-9 size their matrices with the ASCII codec's bytes per
# entry, so their simulator tests ride along; live or host-timed benches
# (test_fig8_live_middleware, table1, live overhead) stay out.  CI's
# bench job runs this target.
SIM_SHAPES = benchmarks/test_fig3_*.py benchmarks/test_fig4_*.py \
	benchmarks/test_fig5_*.py benchmarks/test_fig6_*.py \
	benchmarks/test_fig7_*.py \
	benchmarks/test_fig8_netsolve_lan.py::test_fig8 \
	benchmarks/test_fig9_netsolve_internet.py::test_fig9 \
	benchmarks/test_table2_latency.py benchmarks/test_ablation_*.py \
	benchmarks/test_dynamic_environment.py
sim-shapes:
	$(PYTHON) -m pytest $(SIM_SHAPES) -q --benchmark-disable

# Fleet push-mode smoke: aggregator + 3 pushing child processes,
# merged exposition + merged cross-process Chrome trace
# (docs/OBSERVABILITY.md "Fleet mode").
fleet-smoke:
	$(PYTHON) benchmarks/fleet_smoke.py --smoke

# Live end-to-end benchmark (BENCHMARK.json): a short run of every
# workload, then the harness's own tests (benchmarks/live/README.md).
live-smoke:
	$(PYTHON) benchmarks/live/run.py --smoke
	$(PYTHON) -m pytest benchmarks/live -q

# Alternated live-benchmark pairs, a parent revision against this
# checkout, then compare.py's table (benchmarks/ab_live.py):
#   make live-ab PARENT=HEAD~1 WORKLOAD=rpc_dgemm PAIRS=10 SEED=31
PARENT ?= HEAD~1
WORKLOAD ?= rpc_dgemm
PAIRS ?= 10
SEED ?= 0
live-ab:
	$(PYTHON) benchmarks/ab_live.py --parent $(PARENT) --workload $(WORKLOAD) --pairs $(PAIRS) --seed $(SEED)

# The paper-figure benchmarks (tables/figures of RR-5500).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Cold start: the 20 largest cumulative import times of a process that
# serves AdOC RPC (docs/PERFORMANCE.md section 4).  Informational; the
# gate is tests/test_import_graph.py.
import-profile:
	@$(PYTHON) -X importtime -c "import repro, repro.middleware.server" 2>&1 >/dev/null \
		| { IFS= read -r header; echo "$$header"; sort -t'|' -k2 -n -r | head -20; }

# One traced demo transfer; load trace-demo.json in chrome://tracing
# or https://ui.perfetto.dev (docs/OBSERVABILITY.md).
trace-demo:
	$(PYTHON) -m repro stats --trace-out trace-demo.json
