# Convenience targets for the TOL reproduction.

PYTHON ?= python

.PHONY: install test faults bench bench-smoke bench-update bench-publish profile ruff reproduce examples serve serve-demo loadgen serve-smoke metrics-demo health-demo recover-demo lint-docs clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Fault-injection suite: the crash matrix (every named crash point vs
# the BFS oracle), WAL/checkpoint units, kernel failures and degraded mode.
# See docs/robustness.md.
faults:
	$(PYTHON) -m pytest tests/service/test_durability.py \
		tests/service/test_recovery.py tests/service/test_faults.py -q

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Smoke-test scale: every benchmark family builds and measures on tiny
# graphs (numbers are meaningless; the point is nothing is broken).
bench-smoke:
	$(PYTHON) -m pytest benchmarks/ --quick -q

# Update-kernel headline at full scale: refreshes BENCH_update.json (and
# appends a sha + host row to its history) and gates the mean
# insert/delete at <= 1/4 of a full rebuild of the graph.
bench-update:
	$(PYTHON) -m pytest benchmarks/bench_update_kernels.py -q

# Publish and per-pair query cost at full scale: refreshes
# BENCH_publish.json (and appends a sha + host row to its history);
# fails if the live labels and a reader's snapshot disagree on a pair.
bench-publish:
	$(PYTHON) -m pytest benchmarks/bench_frozen.py::test_publish_cost -q

# cProfile of butterfly_build on random_dag(5000, 20000), top 25 by
# cumulative time (see benchmarks/profile_build.py for --order/--prune).
profile:
	$(PYTHON) benchmarks/profile_build.py

ruff:
	ruff check src tests benchmarks examples

# The two artifacts the reproduction protocol asks for.
outputs:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

reproduce:
	$(PYTHON) examples/reproduce_paper.py --profile quick

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/social_network.py --users 300 --events 50
	$(PYTHON) examples/citation_analysis.py --papers 800
	$(PYTHON) examples/trace_replay.py --vertices 400 --ops 200

# Boot the network server on a demo graph (see docs/network.md): the
# blocking serving loop, length-prefixed JSON protocol on 127.0.0.1:7421.
serve:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro serve .demo/graph.txt --port 7421

# Drive a self-spawned server with 4 Zipfian client processes on a
# 400-vertex demo graph and write a qps/latency report to
# .demo/BENCH_serve.json (a smoke figure, not a headline: the served-path
# benchmark is servebench/).
loadgen:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro loadgen .demo/graph.txt --spawn --clients 4 --verify \
		--output .demo/BENCH_serve.json

# CI gate: a quick verified load run plus an overload run (4 clients
# against a 2-connection budget) that must shed (structured `overloaded`
# errors) while admitted answers stay correct against the BFS oracle.
serve-smoke:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro loadgen .demo/graph.txt --spawn --quick --verify
	$(PYTHON) -m repro loadgen .demo/graph.txt --spawn --quick --verify \
		--expect-shed --server-max-connections 2 \
		--output BENCH_serve_overload.json

# Replay a mixed query/update trace through the concurrent serving layer
# (see docs/service.md) and print the service's metric registry
# (Prometheus text).
serve-demo:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro trace-generate .demo/graph.txt .demo/ops.trace \
		--ops 600 --query-fraction 0.6
	$(PYTHON) -m repro serve-replay .demo/graph.txt .demo/ops.trace \
		--readers 8 --rounds 2

# Replay a trace with full core-span tracing and print the Prometheus
# rendering of the unified metric registry (see docs/observability.md).
metrics-demo:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro trace-generate .demo/graph.txt .demo/ops.trace \
		--ops 600 --query-fraction 0.6
	$(PYTHON) -m repro metrics .demo/graph.txt .demo/ops.trace \
		--events .demo/ops.jsonl

# Build an index on a generated graph and print its health report:
# label-size distribution, order-quality score, cache/scratch state
# (see docs/observability.md; use `repro health --connect HOST:PORT`
# against a live `repro serve`).
health-demo:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro health .demo/graph.txt

# Replay a trace with the write-ahead log on, then recover the service
# from the durability directory alone and self-audit it against BFS
# (see docs/robustness.md).
recover-demo:
	mkdir -p .demo
	$(PYTHON) -m repro generate citeseerx .demo/graph.txt --vertices 400
	$(PYTHON) -m repro trace-generate .demo/graph.txt .demo/ops.trace \
		--ops 600 --query-fraction 0.6
	$(PYTHON) -m repro serve-replay .demo/graph.txt .demo/ops.trace \
		--readers 4 --wal .demo/state
	$(PYTHON) -m repro recover .demo/state --checkpoint

clean:
	rm -rf .pytest_cache .hypothesis benchmarks/results benchmarks/results-smoke .benchmarks .demo
	find . -name __pycache__ -type d -exec rm -rf {} +
