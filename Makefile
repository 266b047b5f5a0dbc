# Convenience targets; everything is plain pytest underneath.

.PHONY: install test test-faults test-runtime test-site bench bench-smoke bench-compare bench-refresh bench-selftest soak soak-smoke site-smoke site-scale-smoke site-chaos-smoke health-smoke examples reproduce clean

install:
	python setup.py develop

test:
	pytest tests/

test-faults:
	pytest tests/faults tests/util/test_metrics.py \
		tests/core/test_cover_properties.py tests/test_golden_traces.py

test-runtime:
	pytest tests/runtime

test-site:
	pytest tests/site tests/experiments/test_fig_redundancy.py \
		tests/experiments/test_parallel.py \
		tests/experiments/test_site_soak.py tests/faults/test_site_plan.py

# The repository benchmark: four workloads, every metric (bench/README.md).
bench:
	python3 bench/run.py

# A traced smoke-scale Fig 2 run; CI schema-checks the Chrome trace it writes.
bench-smoke:
	python -m repro figure fig2 --scale smoke --trace-out trace_fig02.json

# Perf gate: one full-size benchmark run at seed 1; fails on a wrong digest
# or when execution_s or peak_rss_mb exceeds ci/perf_baseline.json by more
# than its BENCHMARK.json bound (ci/perf_floor.py).
bench-compare:
	python3 ci/perf_floor.py

# Self-tests of the repository benchmark (bench/): span arithmetic, the
# boundary matrix per workload, metric names against BENCHMARK.json.  A
# wrapped layer boundary that is renamed or no longer reached fails here.
bench-selftest:
	python3 -m pytest bench/tests -q

# Intentional-change override for the perf gate: re-record the committed
# baseline as the per-metric median of three runs.  Run on a quiet machine,
# eyeball the diff, commit it with the change that moved the numbers.
bench-refresh:
	python3 ci/perf_floor.py --refresh

# Full chaos soak: 2000 supervised cycles under the seeded fault schedule
# (reader crashes, jamming, blackouts, churn, kills, checkpoint
# corruption); exits non-zero on any runtime-invariant violation.
soak:
	python -m repro soak --cycles 2000 --seed 0 --out soak_report.json

# Short soak for CI: same chaos density, far fewer cycles.
soak-smoke:
	python -m repro soak --cycles 300 --seed 1 \
		--crash-every 40 --kill-every 100 --corrupt-every 120 \
		--jam-every 50 --blackout-every 60 --out soak_report.json

# Multi-reader site smoke: a small 4-reader/1k-tag warehouse site, sharded
# across the pool, with the fusion invariant suite and a differential check
# (sharded byte-identical to sequential); exits non-zero on any mismatch.
site-smoke:
	python -m repro site --readers 4 --tags 1000 --duration 0.5 \
		--workers 4 --check-differential --out site_run.json

# Site-scale smoke: a 12-reader/2k-tag aisle big enough for the
# visibility cull and the columnar fusion to actually engage; 40 orbiting
# tags put the vectorised orbit bound under the same check.
# --check-differential re-runs the site sequentially with culling off and
# re-fuses it one report at a time, so one byte-equality check crosses
# every fast path at once (docs/site.md#scaling-to-10k100k-tags).
site-scale-smoke:
	python -m repro site --layout line --readers 12 --tags 2000 \
		--mobile 40 --duration 0.25 --workers 4 --check-differential \
		--out site_scale_run.json

# Site chaos smoke: a supervised 3-reader site where the seeded plan
# kills one reader mid-run.  The supervisor must detect the death,
# re-plan channels over the survivors, warm-rejoin the reader, and
# converge with zero invariant violations, byte-identically across
# worker counts — cutting exactly one schema-valid incident bundle
# (the CLI validates every bundle before exiting).
site-chaos-smoke:
	rm -rf site_chaos_bundles
	python -m repro site --chaos --readers 3 --tags 24 --epochs 12 \
		--outages 1 --mobile 2 --seed 11 --workers 4 \
		--check-differential --bundle-dir site_chaos_bundles \
		--out site_chaos.json
	python -c "from repro.obs.health import list_bundles; \
		cut = list_bundles('site_chaos_bundles'); \
		assert len(cut) == 1, [p.name for p in cut]; \
		print('site chaos smoke OK: one bundle, ' + cut[0].name)"

# Health smoke: a supervised run with every antenna blacked out for one
# 30 s window.  The forced outage must escalate exactly once, cutting
# exactly one incident bundle; the health CLI schema-validates each
# bundle before exiting (nonzero on any validation problem).
health-smoke:
	rm -rf health_bundles
	python -m repro health --cycles 40 \
		--blackout 0:15:45 --blackout 1:15:45 \
		--blackout 2:15:45 --blackout 3:15:45 \
		--bundle-dir health_bundles --out health_report.json
	python -c "from repro.obs.health import list_bundles; \
		cut = list_bundles('health_bundles'); \
		assert len(cut) == 1, [p.name for p in cut]; \
		print('health smoke OK: one bundle, ' + cut[0].name)"

examples:
	for script in examples/*.py; do echo "== $$script"; python $$script; done

reproduce:
	python -m repro reproduce --scale paper --out reproduction_report.md

clean:
	rm -rf .pytest_cache src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
