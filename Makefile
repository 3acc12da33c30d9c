PYTHON ?= python
export PYTHONPATH := src

.PHONY: test perf perf-check lint bench faults trace-smoke par-smoke \
	eclat-smoke mmcs-smoke steal-smoke serve-smoke obs-smoke chaos \
	coverage scale-smoke ledger-smoke resume-smoke

test:
	$(PYTHON) -m pytest -x -q

faults:
	$(PYTHON) -m pytest -x -q tests/test_failure_injection.py \
		tests/test_runtime_budget.py tests/test_runtime_checkpoint.py \
		tests/test_runtime_run.py

perf:
	$(PYTHON) -m benchmarks.run_perf

# Regression gate: rerun each suite to a scratch report and compare it
# against its committed BENCH_PR<n>.json baseline (>30% slowdown fails;
# check_regression picks the baseline from the report's "pr" field).
perf-check:
	$(eval BENCH_PR1_OUT := $(shell mktemp /tmp/bench_pr1.XXXXXX.json))
	$(eval BENCH_PR5_OUT := $(shell mktemp /tmp/bench_pr5.XXXXXX.json))
	$(eval BENCH_PR6_OUT := $(shell mktemp /tmp/bench_pr6.XXXXXX.json))
	$(PYTHON) -m benchmarks.run_perf --suite pr1 --output $(BENCH_PR1_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR1_OUT)
	$(PYTHON) -m benchmarks.run_perf --suite pr5 --output $(BENCH_PR5_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR5_OUT)
	$(PYTHON) -m benchmarks.bench_steal --output $(BENCH_PR6_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR6_OUT)
	$(eval BENCH_PR8_OUT := $(shell mktemp /tmp/bench_pr8.XXXXXX.json))
	$(PYTHON) -m benchmarks.bench_obs --output $(BENCH_PR8_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR8_OUT)
	$(eval BENCH_PR9_OUT := $(shell mktemp /tmp/bench_pr9.XXXXXX.json))
	$(PYTHON) -m benchmarks.bench_transversals --output $(BENCH_PR9_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR9_OUT)
	$(eval BENCH_PR10_OUT := $(shell mktemp /tmp/bench_pr10.XXXXXX.json))
	$(PYTHON) -m benchmarks.bench_scale --output $(BENCH_PR10_OUT)
	$(PYTHON) -m benchmarks.check_regression $(BENCH_PR10_OUT)

bench:
	$(PYTHON) -m pytest benchmarks -q

# End-to-end observability loop: generate data, mine with --trace and
# --metrics, then schema-validate + profile the trace offline.
# mktemp-unique paths keep concurrent invocations (CI matrix legs,
# parallel local shells) from clobbering each other.
trace-smoke:
	$(eval SMOKE_DIR := $(shell mktemp -d /tmp/trace_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(SMOKE_DIR)/smoke.dat \
		--items 20 --transactions 200 --seed 7
	$(PYTHON) -m repro mine $(SMOKE_DIR)/smoke.dat --min-support 0.2 \
		--algorithm levelwise --trace $(SMOKE_DIR)/smoke.jsonl --metrics
	$(PYTHON) -m benchmarks.trace_report $(SMOKE_DIR)/smoke.jsonl --validate
	rm -rf $(SMOKE_DIR)

# Multi-core smoke: a mine end-to-end through the CLI with --workers 2
# (eclat subtree tasks folded in submission order + traced worker
# events), plus the parallel transversal path, then schema-validate the
# trace.
par-smoke:
	$(eval PAR_DIR := $(shell mktemp -d /tmp/par_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(PAR_DIR)/smoke.dat \
		--items 20 --transactions 500 --seed 11
	$(PYTHON) -m repro mine $(PAR_DIR)/smoke.dat --min-support 0.35 \
		--algorithm eclat --workers 2 \
		--trace $(PAR_DIR)/smoke.jsonl --metrics
	$(PYTHON) -m repro transversals --edges "0 1, 1 2, 2 3, 0 3" \
		--method mmcs --workers 2
	$(PYTHON) -m benchmarks.trace_report $(PAR_DIR)/smoke.jsonl --validate
	rm -rf $(PAR_DIR)

# Checkpoint/resume smoke: levelwise and dualize_advance through each
# transversal engine are cut at 20 queries with a checkpoint (exit 3),
# resumed, and the resumed stdout must match an uninterrupted run byte
# for byte (cmp).  A resume at another --min-support must be refused
# (exit 2: the checkpoint names its predicate), and a traced resume
# must schema-validate.
resume-smoke:
	$(eval RESUME_DIR := $(shell mktemp -d /tmp/resume_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(RESUME_DIR)/smoke.dat \
		--items 14 --transactions 200 --seed 7
	for run in levelwise "dualize_advance --engine berge" \
		"dualize_advance --engine fk" "dualize_advance --engine mmcs"; do \
		mine="$(PYTHON) -m repro mine $(RESUME_DIR)/smoke.dat \
			--min-support 0.6 --algorithm $$run"; \
		$$mine > $(RESUME_DIR)/full.txt || exit 1; \
		$$mine --budget-queries 20 --checkpoint $(RESUME_DIR)/ck.json \
			> /dev/null; test $$? -eq 3 || exit 1; \
		$$mine --resume $(RESUME_DIR)/ck.json > $(RESUME_DIR)/resumed.txt \
			|| exit 1; \
		cmp $(RESUME_DIR)/full.txt $(RESUME_DIR)/resumed.txt || exit 1; \
	done
	$(PYTHON) -m repro mine $(RESUME_DIR)/smoke.dat --min-support 0.5 \
		--algorithm dualize_advance --engine mmcs \
		--resume $(RESUME_DIR)/ck.json; test $$? -eq 2
	$(PYTHON) -m repro mine $(RESUME_DIR)/smoke.dat --min-support 0.6 \
		--algorithm dualize_advance --engine mmcs \
		--resume $(RESUME_DIR)/ck.json --trace $(RESUME_DIR)/resume.jsonl \
		--metrics > /dev/null
	$(PYTHON) -m benchmarks.trace_report $(RESUME_DIR)/resume.jsonl --validate
	rm -rf $(RESUME_DIR)

# Depth-first engine smoke: a traced eclat mine with live metrics, then
# the same mine with 2 workers, whose stdout must match the serial
# leg's byte for byte (cmp), then schema-validate + profile the trace.
# The budget-cut leg stops a serial and a 2-worker mine at 50 queries:
# each must exit 3 (partial) with a valid certificate.  The block leg
# repeats the loop on 80,000 rows, above the crossover from which the
# block-cover kernel mines (docs/API.md §13).
eclat-smoke:
	$(eval ECLAT_DIR := $(shell mktemp -d /tmp/eclat_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(ECLAT_DIR)/smoke.dat \
		--items 20 --transactions 200 --seed 7
	$(PYTHON) -m repro mine $(ECLAT_DIR)/smoke.dat --min-support 0.2 \
		--algorithm eclat --trace $(ECLAT_DIR)/smoke.jsonl --metrics \
		> $(ECLAT_DIR)/serial.txt
	$(PYTHON) -m repro mine $(ECLAT_DIR)/smoke.dat --min-support 0.2 \
		--algorithm eclat --workers 2 > $(ECLAT_DIR)/workers.txt
	cmp $(ECLAT_DIR)/serial.txt $(ECLAT_DIR)/workers.txt
	$(PYTHON) -m repro mine $(ECLAT_DIR)/smoke.dat --min-support 0.2 \
		--algorithm eclat --budget-queries 50 > $(ECLAT_DIR)/cut.txt; \
		test $$? -eq 3 && grep "certificate: valid" $(ECLAT_DIR)/cut.txt
	$(PYTHON) -m repro mine $(ECLAT_DIR)/smoke.dat --min-support 0.2 \
		--algorithm eclat --workers 2 --budget-queries 50 \
		> $(ECLAT_DIR)/cut.txt; \
		test $$? -eq 3 && grep "certificate: valid" $(ECLAT_DIR)/cut.txt
	$(PYTHON) -m benchmarks.trace_report $(ECLAT_DIR)/smoke.jsonl --validate
	$(PYTHON) -m repro generate $(ECLAT_DIR)/block.dat \
		--items 100 --transactions 80000 --seed 7
	$(PYTHON) -m repro mine $(ECLAT_DIR)/block.dat --min-support 0.02 \
		--algorithm eclat --trace $(ECLAT_DIR)/block.jsonl --metrics \
		> $(ECLAT_DIR)/block_serial.txt
	$(PYTHON) -m repro mine $(ECLAT_DIR)/block.dat --min-support 0.02 \
		--algorithm eclat --workers 2 > $(ECLAT_DIR)/block_workers.txt
	cmp $(ECLAT_DIR)/block_serial.txt $(ECLAT_DIR)/block_workers.txt
	$(PYTHON) -m repro mine $(ECLAT_DIR)/block.dat --min-support 0.02 \
		--algorithm eclat --budget-queries 500 > $(ECLAT_DIR)/cut.txt; \
		test $$? -eq 3 && grep "certificate: valid" $(ECLAT_DIR)/cut.txt
	$(PYTHON) -m benchmarks.trace_report $(ECLAT_DIR)/block.jsonl --validate
	rm -rf $(ECLAT_DIR)

# Transversal-core smoke: a dualize-and-advance mine through the MMCS
# engine, the transversal CLI over --method mmcs (traced), the same
# family from depth-2 subtree tasks at --workers 2
# (bit-identical by construction), then offline schema validation of
# the mmcs trace (the theorem-monitor verdict prints via --metrics).
mmcs-smoke:
	$(eval MMCS_DIR := $(shell mktemp -d /tmp/mmcs_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(MMCS_DIR)/smoke.dat \
		--items 14 --transactions 150 --seed 7
	$(PYTHON) -m repro mine $(MMCS_DIR)/smoke.dat --min-support 0.25 \
		--algorithm dualize_advance --engine mmcs
	$(PYTHON) -m repro transversals \
		--edges "0 1, 1 2, 2 3, 0 3, 1 4, 3 4" --method mmcs \
		--trace $(MMCS_DIR)/mmcs.jsonl --metrics
	$(PYTHON) -m repro transversals \
		--edges "0 1, 1 2, 2 3, 0 3, 1 4, 3 4" --method mmcs --workers 2
	$(PYTHON) -m benchmarks.trace_report $(MMCS_DIR)/mmcs.jsonl --validate
	rm -rf $(MMCS_DIR)

# Ordered-dispatch + shared-memory smoke: the parallel Eclat
# determinism suite (tests/test_parallel_steal.py) at 2 workers, a
# traced CLI mine over the shared-memory store schema-validated
# offline, and the /dev/shm leak sweep.
steal-smoke:
	$(eval STEAL_DIR := $(shell mktemp -d /tmp/steal_smoke.XXXXXX))
	$(PYTHON) -m pytest -x -q --workers 2 tests/test_parallel_steal.py \
		tests/test_parallel_shm.py
	$(PYTHON) -m repro generate $(STEAL_DIR)/smoke.dat \
		--items 20 --transactions 500 --seed 11
	$(PYTHON) -m repro mine $(STEAL_DIR)/smoke.dat --min-support 0.3 \
		--algorithm eclat --workers 2 \
		--trace $(STEAL_DIR)/smoke.jsonl --metrics
	$(PYTHON) -m benchmarks.trace_report $(STEAL_DIR)/smoke.jsonl --validate
	$(PYTHON) -m benchmarks.shm_leak_check
	rm -rf $(STEAL_DIR)

# Mining-service smoke: boot `repro serve` on generated data, drive
# /health, /mine, /append (plus an idempotent replay) and /threshold
# over real HTTP, verify the incrementally maintained theory equals
# from-scratch eclat after every mutation, then SIGTERM and assert a
# clean exit (benchmarks/serve_smoke.py does the driving).  Runs once
# per vertical backend (`--backend auto`, then `roaring`), each on a
# fresh state directory.  The data has a non-empty Bd- at every
# threshold the smoke compares (654-1,259 members at 2-6), which the
# smoke asserts.
serve-smoke:
	$(eval SERVE_DIR := $(shell mktemp -d /tmp/serve_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(SERVE_DIR)/smoke.dat \
		--items 20 --transactions 120 --avg-length 5 --seed 7
	$(PYTHON) -m benchmarks.serve_smoke $(SERVE_DIR)/smoke.dat \
		--state-dir $(SERVE_DIR)/state-auto --backend auto
	$(PYTHON) -m benchmarks.serve_smoke $(SERVE_DIR)/smoke.dat \
		--state-dir $(SERVE_DIR)/state-roaring --backend roaring
	rm -rf $(SERVE_DIR)

# Telemetry-plane smoke: boot a traced `repro serve` with rotation,
# check X-Request-Id round trips and /metrics content negotiation
# (Prometheus text by default, JSON on Accept), force a rotation, then
# SIGTERM and offline-verify every trace segment: schema-valid,
# theorem-monitor certified, per-request latency table reconstructed
# (benchmarks/obs_smoke.py does the driving).
obs-smoke:
	$(eval OBS_DIR := $(shell mktemp -d /tmp/obs_smoke.XXXXXX))
	$(PYTHON) -m repro generate $(OBS_DIR)/smoke.dat \
		--items 12 --transactions 120 --seed 7
	$(PYTHON) -m benchmarks.obs_smoke $(OBS_DIR)/smoke.dat \
		--trace $(OBS_DIR)/trace.jsonl
	rm -rf $(OBS_DIR)

# Crash-recovery gate: the chaos suite (in-process WAL-tail truncation
# sweeps + real SIGKILL-at-random-instants over subprocess servers,
# both asserting bit-identical digests after restart + idempotent
# re-send), the WAL damage taxonomy, and the /dev/shm leak sweep to
# prove the killed processes left nothing behind.
chaos:
	$(PYTHON) -m pytest -x -q tests/test_service_chaos.py \
		tests/test_service_wal.py
	$(PYTHON) -m benchmarks.shm_leak_check

# Line-coverage floor over src/repro (requires pytest-cov, which CI
# installs; not part of the baked-in local toolchain).
coverage:
	$(PYTHON) -m pytest -q --cov=src/repro --cov-report=term-missing \
		--cov-fail-under=85

# Real-scale smoke: the bench_scale suite at CI-sized row counts
# (same code paths as the committed 1M-row BENCH_PR10.json run —
# backend bit-identity and cover-memory reduction are still asserted;
# the wall-clock ratio targets only apply at full scale), plus a CLI
# mine over --backend roaring.
scale-smoke:
	$(eval SCALE_DIR := $(shell mktemp -d /tmp/scale_smoke.XXXXXX))
	$(PYTHON) -m benchmarks.bench_scale --smoke \
		--output $(SCALE_DIR)/bench_scale.json
	$(PYTHON) -m repro generate $(SCALE_DIR)/smoke.dat \
		--items 20 --transactions 500 --seed 11
	$(PYTHON) -m repro mine $(SCALE_DIR)/smoke.dat --min-support 0.3 \
		--algorithm eclat --backend roaring
	$(PYTHON) -m repro mine $(SCALE_DIR)/smoke.dat --min-support 0.3 \
		--algorithm eclat --backend roaring --workers 2
	rm -rf $(SCALE_DIR)

# Layer-ledger smoke: every workload of the end-to-end benchmark on
# tiny inputs, correctness gates included (seconds, not minutes).  The
# traced pass also runs the counting-tracer passes through MMCS and
# 2-worker Eclat that yield hypergraph.nodes and the parallel counts
# (parallel.steals counts worker.steal events, which no engine emits,
# so it reads 0).
ledger-smoke:
	$(PYTHON) -m benchmarks.ledger --smoke
	$(PYTHON) -m benchmarks.ledger --smoke --trace 1

lint:
	ruff check src tests benchmarks
