# Convenience targets for the Data Sliding reproduction.

PYTHON ?= python

.PHONY: install test test-all bench bench-smoke bench-full bench-check \
        bench-layers-smoke \
        pipeline-smoke trace-smoke serve-smoke analyze-smoke tune-smoke \
        stream-smoke fleet-smoke fleet-trace-overhead report figures \
        examples clean

install:
	pip install -e . || \
	  echo "$(CURDIR)/src" > $$($(PYTHON) -c 'import site; print(site.getsitepackages()[0])')/repro-dev.pth

test:            ## fast suite (excludes @slow)
	$(PYTHON) -m pytest tests/ -m "not slow"

test-all:        ## everything, including the 1M-element slow tests
	$(PYTHON) -m pytest tests/

bench:           ## regenerate every figure/table + time the kernels (1M scale)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-smoke:     ## one regular + one irregular benchmark, both backend tiers (per-tier rows in BENCH_*.json)
	$(PYTHON) -m pytest \
	  benchmarks/bench_fig08_padding.py \
	  benchmarks/bench_fig13_compaction.py --benchmark-only

bench-full:      ## same, at the paper's 16M / 12000x11999 sizes
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest \
	  benchmarks/ --benchmark-only

bench-check:     ## compare fresh runs against committed BENCH_*.json baselines
	$(PYTHON) -m repro.obs.regress benchmarks/results

bench-layers-smoke: ## layer-cost benchmark self-test: every workload once, schema + compare checks
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/layers -q

pipeline-smoke:  ## fused launch count + plan-cache hit, both backends
	$(PYTHON) -m pytest benchmarks/bench_pipeline_fusion.py \
	  --benchmark-only
	$(PYTHON) -W error::DeprecationWarning -m pytest \
	  tests/pipeline tests/primitives -q

serve-smoke:     ## serve layer: healthy + fault-injected loadgen, acceptance-checked
	$(PYTHON) -m repro serve --shape chain --clients 4 --requests 20 --check
	$(PYTHON) -m repro serve --shape compact --clients 4 --requests 10 \
	  --fault always --check
	$(PYTHON) -m pytest \
	  benchmarks/bench_serve_load.py --benchmark-only
	$(PYTHON) -m pytest tests/serve -q

# The stream and fleet legs print each command's stderr and fail if it
# mentions multiprocessing's resource tracker: a leak report or a failed
# unlink.  The stderr runs through a pipe, so lines a tracker prints
# after its command exited are still read.
stream-smoke fleet-smoke: SHELL := /bin/bash
stream-smoke fleet-smoke: .SHELLFLAGS := -o pipefail -c
SMOKE_STDERR = /tmp/repro_smoke_stderr.txt
define no_tracker_noise
{ { $(1); } 2>&1 >&3 3>&- | tee $(SMOKE_STDERR) >&2; } 3>&1 && \
  if grep -q resource_tracker $(SMOKE_STDERR); then \
    echo "FAILED: resource_tracker lines on stderr" >&2; exit 1; fi
endef

stream-smoke:    ## out-of-core streaming: memmap 8x device capacity, compact->unique, sequential + pool, byte-checked
	$(call no_tracker_noise,$(PYTHON) -m repro stream --check \
	  --trace /tmp/repro_stream_smoke.json)
	$(call no_tracker_noise,$(PYTHON) -m repro analyze \
	  /tmp/repro_stream_smoke.json --check)
	$(call no_tracker_noise,$(PYTHON) -m pytest tests/stream -q)

fleet-smoke:     ## multi-process fleet: 3 workers, fault-injected loadgen, acceptance pass (incl. merged trace + fleet bundle) + CLI replay + analyze --check on the merged trace
	rm -rf /tmp/repro_fleet_smoke_incidents
	$(call no_tracker_noise,timeout 600 $(PYTHON) -m repro fleet \
	  --check --workers 3 --fault 0.5 \
	  --incident-dir /tmp/repro_fleet_smoke_incidents \
	  --trace-out /tmp/repro_fleet_smoke_trace.json \
	  --stats-out /tmp/repro_fleet_smoke_stats.json)
	$(call no_tracker_noise,$(PYTHON) -m repro analyze \
	  /tmp/repro_fleet_smoke_stats.json > /dev/null)
	$(call no_tracker_noise,timeout 120 $(PYTHON) -m repro analyze \
	  /tmp/repro_fleet_smoke_trace.json --check > /dev/null)
	$(call no_tracker_noise,timeout 120 $(PYTHON) -m repro replay \
	  $$(ls -d /tmp/repro_fleet_smoke_incidents/w*/incident-* | head -1) \
	  --check)
	$(call no_tracker_noise,timeout 120 $(PYTHON) -m repro replay \
	  $$(ls -d /tmp/repro_fleet_smoke_incidents/incident-* | head -1) \
	  --plan > /dev/null)
	$(call no_tracker_noise,timeout 600 $(PYTHON) -m pytest tests/fleet -q)

fleet-trace-overhead: ## recorder-on guard: fleet throughput with tracing >= 0.9x tracing-off
	timeout 600 $(PYTHON) -m repro fleet --trace-overhead-check \
	  --workers 2 --clients 4 --requests 8

analyze-smoke:   ## trace fig13 -> analyzer decomposition check (sum==wall ±1%, spin<=wall) + flight-recorder overhead bound
	$(PYTHON) -m repro trace fig13 -o /tmp/repro_analyze_smoke.json --check
	$(PYTHON) -m repro analyze /tmp/repro_analyze_smoke.json --check
	$(PYTHON) -m repro serve --shape compact --clients 4 --requests 8 \
	  --n 256 --flight-overhead-check

trace-smoke:     ## export + validate a Chrome trace of one experiment
	$(PYTHON) -m repro trace fig13 -o /tmp/repro_trace_smoke.json --check
	$(PYTHON) -m repro trace fig08 -o /tmp/repro_trace_smoke8.json \
	  --elements 8192 --check

tune-smoke:      ## bounded autotuner sweeps, acceptance-checked, then serve from the DB
	REPRO_BACKEND=vectorized $(PYTHON) -m repro tune --fig fig13 \
	  --n 4096 --budget 20 --db benchmarks/results/TUNING_DB.json --check
	REPRO_BACKEND=vectorized $(PYTHON) -m repro tune --shape compact \
	  --n 1024 --budget 20 --db benchmarks/results/TUNING_DB.json \
	  --set-default --check
	REPRO_BACKEND=vectorized $(PYTHON) -m repro serve --shape compact \
	  --n 1024 --clients 2 --requests 8 \
	  --tuning-db benchmarks/results/TUNING_DB.json --check
	$(PYTHON) -m pytest tests/tune tests/analysis -q

report:          ## render the experiment-registry report from persisted artifacts
	$(PYTHON) -m repro report -o benchmarks/results/REPORT.md
	@echo "wrote benchmarks/results/REPORT.md"

figures:         ## print every reproduced figure and Table I
	$(PYTHON) -m repro all

examples:        ## run all example scripts
	for ex in examples/*.py; do echo "== $$ex"; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf benchmarks/results .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
