# Convenience targets for the APOLLO reproduction.

PYTHON ?= python

.PHONY: install test bench bench-substrate bench-stream bench-parallel \
	bench-serve bench-obs chaos chaos-serve \
	trace-demo serve-demo obs-demo results examples clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test: obs-demo
	$(PYTHON) -m pytest tests/

test-fast:
	REPRO_SCALE=tiny $(PYTHON) -m pytest tests/ -x -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Substrate micro-benchmarks only (gate-sim engines, MCP solver, trace
# ops); the pytest-benchmark dump goes to a .raw.json snapshot.
bench-substrate:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_substrate_perf.py \
		--benchmark-only \
		--benchmark-json=BENCH_substrate.raw.json

# Streaming-pipeline throughput (cycles/sec vs concurrent session
# count).
bench-stream:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_stream_perf.py \
		--benchmark-only \
		--benchmark-json=BENCH_stream.raw.json

# Parallel-layer benchmarks: GA evaluation serial vs WorkerPool+EvalCache
# (asserting bit-identical results), reporting speedup and cache-hit
# rate.
bench-parallel:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_parallel_perf.py \
		--benchmark-only \
		--benchmark-json=BENCH_parallel.raw.json

# Serving-layer benchmarks: the same seeded load through a direct
# StreamService vs the gateway (1 shard and 4 shards), plus an
# inline-vs-shm-pool placement race on a large-block fleet (the pool
# stages every unit in its anonymous shared-memory plane), asserting
# bit-identical readings and reporting sessions/sec, p99 tick latency,
# and the pool's speedup over inline.
bench-serve:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_serve_perf.py \
		--benchmark-only \
		--benchmark-json=BENCH_serve.raw.json

# Observability-layer benchmarks: traced vs untraced stream hot path
# (tracing overhead asserted < 3%), LogHistogram observe and span
# open/close throughput.
bench-obs:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/test_obs_perf.py \
		--benchmark-only \
		--benchmark-json=BENCH_obs.raw.json

# Seeded chaos run: inject a deterministic fault plan (worker kills,
# corrupt cache entries, mid-stage interrupts) into a full
# train+quantize pipeline and verify the recovered model is
# bit-identical to a fault-free baseline.  Each run empties
# results/chaos/cache first, so the whole plan fires.  Exit 1 on
# mismatch.
chaos:
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos --seed 5 --workers 2 \
		--out results/chaos

# Serving-layer chaos gate: drive a seeded fleet load while killing
# shards mid-tick, SIGKILLing pool workers, stalling pull sources,
# overflowing shm slabs, and flooding admission with best-effort opens;
# verify the fleet report, every session's windows, and the sequence
# accounting are bit-identical to a fault-free baseline, with no shed
# spillover.  Exit 1 on mismatch.
chaos-serve:
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos-serve --seed 5 --workers 2 \
		--out results/chaos-serve

# Tiny end-to-end traced pipeline run: exports Chrome/JSONL traces plus
# a provenance manifest under results/trace-demo and self-checks them.
trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.obs.demo --out results/trace-demo
	PYTHONPATH=src $(PYTHON) -m repro.cli trace results/trace-demo/trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli manifest results/trace-demo/manifest.json

# Self-checking fleet serving demo: seeded loadgen -> 2-shard gateway
# (with a mid-run hot model swap and an injected shard death) -> fleet
# report; asserts every streamed reading and the report totals are
# bit-identical to offline OpmMeter runs.  Writes results/serve-demo/.
serve-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli serve --demo --out results/serve-demo
	PYTHONPATH=src $(PYTHON) -m repro.cli fleet-report results/serve-demo/fleet-report.json

# Self-checking fleet observability demo: traced gateway load ->
# asserts every tick renders as one connected trace tree, the exact
# latency histograms saw every observation, and the OpenMetrics
# exposition round-trips.  Runs as part of `make test`.
obs-demo:
	PYTHONPATH=src $(PYTHON) -m repro.serve.obs_demo --out results/obs-demo

results:
	$(PYTHON) -m repro.cli run-all --out results

examples:
	for ex in examples/*.py; do echo "=== $$ex"; $(PYTHON) $$ex; done

clean:
	rm -rf .artifacts results .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
