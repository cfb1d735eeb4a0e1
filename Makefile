PYTHON ?= python
export PYTHONPATH := src

.PHONY: test cli-sweep cli-sweep-update service-sweep-update analyze chaos heal profile service ledger ledger-cold-text ledger-full-check ledger-edit-stream ledger-daemon-mix ledger-compare ledger-pairs clean

test:
	$(PYTHON) -m pytest -x -q

## Sweep nmslc over examples/ and the 50-spec corpus (tests/cli_sweep.py):
## OUT/cli-sweep.json maps each command to [exit, sha256(stdout),
## sha256(stderr)] and each --ship-dir spool file to its sha256.
cli-sweep:
	$(if $(OUT),,$(error usage: make cli-sweep OUT=DIR))
	$(PYTHON) -m tests.cli_sweep $(OUT)

## Rewrite the pinned sweep tests/test_cli_sweep.py holds the code to.
cli-sweep-update:
	out=$$(mktemp -d) && $(PYTHON) -m tests.cli_sweep $$out && \
		cp $$out/cli-sweep.json tests/cli_sweep.json && rm -rf $$out

## Rewrite the pinned scheduler sweep tests/service/test_scheduler_sweep.py
## holds nmsld's scheduler to: seeded simulated-runtime scenarios, each
## recorded as the sha256 of its transcript, audit log and Prometheus
## text plus the core's counters (tests/service/scheduler_sweep.py).
service-sweep-update:
	out=$$(mktemp -d) && $(PYTHON) -m tests.service.scheduler_sweep $$out && \
		cp $$out/scheduler-sweep.json tests/service/scheduler_sweep.json && rm -rf $$out

## Static-analysis gate: fails on non-baselined error diagnostics.
analyze:
	$(PYTHON) -m repro.cli analyze examples/campus.nmsl examples/paper_internet.nmsl \
		--baseline examples/analysis-baseline.json
	$(PYTHON) -m repro.cli analyze examples/campus.nmsl examples/paper_internet.nmsl \
		--baseline examples/analysis-baseline.json --format sarif > analysis.sarif

## Fault-injected rollout campaigns across 3 fixed seeds (see docs/ROLLOUT.md).
chaos:
	$(PYTHON) benchmarks/chaos_rollout.py --output BENCH_chaos.json \
		--trace TRACE_chaos.jsonl --metrics METRICS_chaos.prom

## Self-healing demo: chaos-injected heal loop over the paper internet
## (bit-rot on one element, 10% loss) until zero drift (see docs/HEALING.md).
heal:
	$(PYTHON) -m repro.cli heal examples/paper_internet.nmsl \
		--install --rounds 8 --chaos-loss 0.1 \
		--chaos-corrupt-store romano.cs.wisc.edu:0 \
		--report text --report-file HEAL_report.json

## Daemon smoke cycle: boot nmsld --workers 2, check + diff + gated
## rollout over the socket, kill -9 a worker mid-check (must replay),
## graceful SIGTERM drain (see docs/SERVICE.md).
service:
	$(PYTHON) benchmarks/service_smoke.py

## The perf ledger (benchmarks/ledger/README.md): all four workloads,
## untraced then traced, every metric by name (a few minutes on 2 cores).
## Records and ledgers land in benchmarks/ledger/out/.
ledger:
	$(PYTHON) -m benchmarks.ledger

## The operator's cold path alone, in the driver's form, untraced then
## traced: fresh `nmslc SPEC --check --output BartsSnmpd` processes on the
## 1,000-domain text, verdict count and one config per system checked
## (CI's smoke; the traced run adds the front-end, codegen.* and cli.*
## rows — cli.import_s is what a new eager import moves).
ledger-cold-text:
	$(PYTHON) benchmarks/ledger --workload cold_text_1k --seed 7 --seconds 15 --trace 0
	$(PYTHON) benchmarks/ledger --workload cold_text_1k --seed 7 --seconds 15 --trace 1

## The paper row alone, as BENCHMARK.json runs it, untraced then traced:
## fresh processes check the 10,000-domain model against the generator's
## oracle (CI's smoke; the traced run adds the rows that split the check
## into fact generation, taint index and reduction).
ledger-full-check:
	$(PYTHON) benchmarks/ledger --workload full_check_10k --seed 7 --seconds 15 --trace 0
	$(PYTHON) benchmarks/ledger --workload full_check_10k --seed 7 --seconds 15 --trace 1

## The edit stream alone, in the driver's form, untraced then traced:
## one warm checker and one warm impact analyzer take 44 seeded
## one-domain edits to the 10,000-domain model, every answer checked
## against the edit oracle (CI's smoke; the traced run adds the rows
## that say where an edit's time goes).
ledger-edit-stream:
	$(PYTHON) benchmarks/ledger --workload edit_stream_10k --seed 7 --seconds 15 --trace 0
	$(PYTHON) benchmarks/ledger --workload edit_stream_10k --seed 7 --seconds 15 --trace 1

## The warm daemon alone, in the driver's form, untraced then traced: a
## live `nmsld --workers 1` serves two 1,000-domain specs to closed-loop
## clients, every answer checked on arrival (CI's smoke; the traced run
## adds spec_cache_hit_ms, check_inproc_ms, hop_ms and overhead_ms).
ledger-daemon-mix:
	$(PYTHON) benchmarks/ledger --workload daemon_mix_1k --seed 7 --seconds 15 --trace 0
	$(PYTHON) benchmarks/ledger --workload daemon_mix_1k --seed 7 --seconds 15 --trace 1

## Alternating base/change pairs of one workload, untraced, and the
## median change of each end-to-end metric (tools/ledger_pairs.py):
##   make ledger-pairs BASE=main WORKLOAD=daemon_mix_1k PAIRS=5
ledger-pairs:
	$(if $(and $(BASE),$(WORKLOAD)),,$(error usage: make ledger-pairs BASE=REV WORKLOAD=W [PAIRS=N]))
	$(PYTHON) tools/ledger_pairs.py --base $(BASE) --workload $(WORKLOAD) --pairs $(or $(PAIRS),5)

## Judge ledger B against ledger A, metric by metric against its bound:
##   make ledger-compare A=benchmarks/ledger/out/ledger-seed200-*.json B=...
ledger-compare:
	$(PYTHON) -m benchmarks.ledger compare $(A) $(B)

## Where does the time go?  Per-phase/per-rule breakdown + Perfetto trace.
profile:
	$(PYTHON) -m repro.cli profile examples/campus.nmsl --engine datalog \
		--output consistency --trace TRACE_profile.json

clean:
	rm -rf .pytest_cache analysis.sarif BENCH_chaos.json \
		TRACE_chaos.jsonl METRICS_chaos.prom TRACE_profile.json \
		HEAL_report.json SERVICE_metrics.prom SERVICE_smoke.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
