GO ?= go

# Benchmarks covered by the CI regression gate (serial hot paths only:
# worker-scaling and RunParallel benches vary with the runner's core count
# and would make cross-run comparison meaningless).
GATE_ENGINE_BENCH = BenchmarkWhereFilter|BenchmarkHashJoin|BenchmarkJoinTemplates|BenchmarkJoinShapes|BenchmarkGroupByAggregate|BenchmarkProjection|BenchmarkDistinct|BenchmarkBareScanAggregate|BenchmarkVectorFilter|BenchmarkVectorProject|BenchmarkStreamingPipeline
# Spill benches are disk-IO-bound and run only 1-3 iterations at 200ms, so
# they get a longer benchtime for a stable median under the same 15% gate.
GATE_SPILL_BENCH = BenchmarkSpillJoin|BenchmarkSpillSort|BenchmarkSpillAggregate
GATE_SPILL_BENCHTIME = 1s
GATE_PREPARED_BENCH = BenchmarkSystemRunRepeated|BenchmarkPreparedRunRepeated
GATE_COUNT = 5
GATE_BENCHTIME = 200ms

.PHONY: check build test vet race lint flexlint fuzz-smoke vuln loc test-lowmem test-faults test-telemetry bench-short bench-engine bench-prepared bench-paper bench-parallel bench-spill bench-vector bench-streaming bench-telemetry bench-current bench-baseline bench-gate flexbench-small bench-e2e bench-e2e-smoke bench-e2e-compare

# Default: the tier-1 verification plus static analysis.
check: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-check everything: the concurrent System.Run/Prepare and server tests
# are specifically written to be meaningful under the race detector.
race:
	$(GO) test -race ./...

# Quick regression signal on the engine hot paths and the corpus-scale
# paper benches; compare across commits with benchstat.
bench-short: bench-engine bench-paper

bench-engine:
	$(GO) test ./internal/engine -run '^$$' \
		-bench 'BenchmarkWhereFilter|BenchmarkHashJoin|BenchmarkGroupByAggregate|BenchmarkProjection|BenchmarkDistinct' \
		-benchtime 1s

# Prepared-query pipeline: repeated-query speedup and server throughput.
bench-prepared:
	$(GO) test . -run '^$$' \
		-bench 'BenchmarkSystemRunRepeated|BenchmarkPreparedRunRepeated|BenchmarkPreparedRunParallel' \
		-benchtime 1s
	$(GO) test ./internal/server -run '^$$' -bench 'BenchmarkServerConcurrentQuery' -benchtime 1s

bench-paper:
	$(GO) test . -run '^$$' -bench 'BenchmarkStudyQ1toQ8|BenchmarkTable2Performance' -benchtime 3x

# Morsel-parallel executor scaling: serial vs 2 vs 4 workers on large
# tables. Meaningful on multi-core machines only.
bench-parallel:
	$(GO) test ./internal/engine -run '^$$' \
		-bench 'BenchmarkParallelScan|BenchmarkParallelAggregate|BenchmarkParallelJoin' \
		-benchtime 1s

# Out-of-core operators under a spill-forcing budget: Grace partitioned
# join, external merge sort, and partitioned grouped aggregation vs their
# in-memory counterparts.
bench-spill:
	$(GO) test ./internal/engine -run '^$$' \
		-bench 'BenchmarkSpillJoin|BenchmarkSpillSort|BenchmarkSpillAggregate|BenchmarkHashJoin|BenchmarkGroupByAggregate' \
		-benchtime 1s

# The streamed executor on a scan → filter → group-by plan, untraced
# (streamed) and with an execution trace (profiled); bench-telemetry gates
# the pair.
bench-streaming:
	$(GO) test ./internal/engine -run '^$$' \
		-bench 'BenchmarkStreamingPipeline' \
		-benchtime 1s

# Telemetry overhead gate: profiled vs streamed on the same pipeline, both
# measured in the same run, so no hardware-specific baseline is involved.
# Profiling must cost at most 2% — it is a per-request opt-in, but the
# tracing hooks sit on the hot path for every query. Samples come from
# GATE_COUNT separate -count=1 invocations (not one -count=N run) so the
# sides interleave in time: benchgate judges the pair by the median of
# per-index deltas, which cancels slow machine drift that would otherwise
# dwarf a 2% bound.
bench-telemetry:
	@: > /tmp/bench-telemetry.txt
	@for i in $$(seq $(GATE_COUNT)); do \
		$(GO) test ./internal/engine -run '^$$' -bench 'BenchmarkStreamingPipeline' \
			-benchtime 1s -count 1 >> /tmp/bench-telemetry.txt \
			|| { cat /tmp/bench-telemetry.txt; exit 1; }; \
	done
	@cat /tmp/bench-telemetry.txt
	$(GO) run ./cmd/benchgate -old "" -new /tmp/bench-telemetry.txt \
		-pair 'BenchmarkStreamingPipeline/profiled=BenchmarkStreamingPipeline/streamed' \
		-pair-threshold 0.02

# Vectorized kernels vs the row-at-a-time closures, one worker: the
# scalar/vector sub-benchmark pairs isolate the batching speedup itself
# from parallel scaling.
bench-vector:
	$(GO) test ./internal/engine -run '^$$' \
		-bench 'BenchmarkVectorFilter|BenchmarkVectorProject' \
		-benchtime 1s

# Query-lifecycle fault suite, all under the race detector: spill fault
# injection (ENOSPC, failed open/create), mid-query cancellation, panic
# isolation, budget-refund accounting, and the server's admission control.
# The engine leg repeats with spilling forced at 64 KiB and an adversarial
# 512 B so the fault points sit on genuinely out-of-core executions.
FAULT_RUN_ENGINE = TestSpillFaults|TestCancellation|TestExecuteContext|TestPanicIsolation|TestRunSpansPanic
FAULT_RUN_FLEX = TestRunContextCancellation|TestSpillFaultRefunds|TestAbortedRuns
FAULT_RUN_SERVER = TestAdmission|TestClientDisconnect|TestQueryTimeout|TestPanicIsolated|TestBudgetExhaustion|TestHealthzReportsLifecycle|TestExhaustedAnalyst|TestRefusedRequest|TestOversizeBody

test-faults:
	$(GO) test -race ./internal/spill/
	$(GO) test -race -run '$(FAULT_RUN_ENGINE)' ./internal/engine/
	FLEX_TEST_MEMORY_BUDGET=64KiB $(GO) test -race -run '$(FAULT_RUN_ENGINE)' ./internal/engine/
	FLEX_TEST_MEMORY_BUDGET=512B $(GO) test -race -run '$(FAULT_RUN_ENGINE)' ./internal/engine/
	$(GO) test -race -run '$(FAULT_RUN_FLEX)' .
	$(GO) test -race -run '$(FAULT_RUN_SERVER)' ./internal/server/

# Telemetry suite, all under the race detector: the metrics/histogram/audit
# substrate, execution-trace and EXPLAIN ANALYZE tests (including the
# profiling-is-bit-identical differential), spill-stats delta accounting,
# budget observer reentrancy, and the server's /metrics, ?profile=1, and
# audit-log surface.
TELEMETRY_RUN_ENGINE = TestQueryProfile|TestExplainAnalyze|TestProfilingPreservesResults|TestPreparedProfile
TELEMETRY_RUN_SERVER = TestMetrics|TestHealthzSpillShape|TestQueryProfileOption|TestAuditLog|TestLifecycleFieldsDelta

test-telemetry:
	$(GO) test -race ./internal/telemetry/
	$(GO) test -race -run '$(TELEMETRY_RUN_ENGINE)' ./internal/engine/
	$(GO) test -race -run 'TestStats' ./internal/spill/
	$(GO) test -race -run 'TestBudgetObserver' ./internal/smooth/
	$(GO) test -race -run '$(TELEMETRY_RUN_SERVER)' ./internal/server/

# The entire engine suite with spilling forced on (the CI low-memory job):
# every join build, ORDER BY buffer, grouped-aggregation state, and
# DISTINCT/set-operation key set over 64 KiB goes out-of-core, and the
# differential guarantee says nothing may change. The adversarial 512 B leg
# drives maximum partitioning depth under the same guarantee — including
# the vectorized-vs-scalar differential suite.
test-lowmem:
	FLEX_TEST_MEMORY_BUDGET=64KiB $(GO) test ./internal/engine/...
	FLEX_TEST_MEMORY_BUDGET=512B $(GO) test ./internal/engine/...

# Formatting + static analysis exactly as CI's lint job runs them.
# flexlint (cmd/flexlint) enforces the repo's invariants: map-iteration
# determinism, the privacy boundary, cancellation polling, %w error chains,
# and no ambient nondeterminism in the engine. See DESIGN.md "Static
# analysis".
lint:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/flexlint ./...

# The invariant analyzers alone (faster iteration than full lint).
flexlint:
	$(GO) run ./cmd/flexlint ./...

# Short native-fuzzing legs for CI: the parser's parse→print→re-parse
# fixpoint and the spill codec's never-panic contract. The checked-in
# testdata/fuzz corpora replay as plain tests in `make test` too; this
# target spends a little wall time searching for new inputs.
fuzz-smoke:
	$(GO) test ./internal/sqlparser/ -run '^$$' -fuzz FuzzParse -fuzztime 15s
	$(GO) test ./internal/engine/ -run '^$$' -fuzz FuzzCodecDecode -fuzztime 15s

# Known-vulnerability scan, advisory: govulncheck is not vendored and needs
# network access to install, so this degrades to a notice where it is
# missing. CI runs it continue-on-error for the same reason.
vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "vuln: govulncheck not installed; skipping (advisory)."; \
		echo "vuln: install with: go install golang.org/x/vuln/cmd/govulncheck@latest"; \
	fi

# Non-test Go lines per top-level directory ("." is the root package) and in
# total. Run it on two checkouts and subtract to reproduce a net-LOC claim.
loc:
	@find . -path './.*' -prune -o -name '*.go' ! -name '*_test.go' -print | \
		xargs awk '{ split(FILENAME, p, "/"); n[p[3] == "" ? "." : p[2]]++ } \
			END { for (d in n) { printf "%-10s %7d\n", d, n[d] | "sort"; t += n[d] }; \
				close("sort"); printf "%-10s %7d\n", "total", t }'

# Gate-covered benchmarks, multiple samples, to stdout.
bench-current:
	@$(GO) test ./internal/engine -run '^$$' -bench '$(GATE_ENGINE_BENCH)' \
		-benchtime $(GATE_BENCHTIME) -count $(GATE_COUNT)
	@$(GO) test ./internal/engine -run '^$$' -bench '$(GATE_SPILL_BENCH)' \
		-benchtime $(GATE_SPILL_BENCHTIME) -count $(GATE_COUNT)
	@$(GO) test . -run '^$$' -bench '$(GATE_PREPARED_BENCH)' \
		-benchtime $(GATE_BENCHTIME) -count $(GATE_COUNT)

# Refresh the checked-in baseline (bench/baseline.txt). Do this on the CI
# runner class the gate runs on; a laptop baseline makes the gate noisy.
bench-baseline:
	@$(MAKE) --no-print-directory bench-current > bench/baseline.txt
	@echo "wrote bench/baseline.txt"

# The CI regression gate: current benchmarks vs the checked-in baseline,
# failing on a >15% median ns/op regression. Redirect (not tee) so a failing
# benchmark run fails the target instead of being masked by the pipe.
bench-gate:
	@$(MAKE) --no-print-directory bench-current > /tmp/bench-current.txt || { cat /tmp/bench-current.txt; exit 1; }
	@cat /tmp/bench-current.txt
	$(GO) run ./cmd/benchgate -old bench/baseline.txt -new /tmp/bench-current.txt -threshold 0.15

# Small-scale full regeneration of every paper table/figure, with the
# machine-readable record written to BENCH_<date>.json (auto-suffixed on
# same-day reruns; use flexbench -out for an explicit path).
flexbench-small:
	$(GO) run ./cmd/flexbench -small -json auto

# The repository's benchmark (bench/e2e, declared in BENCHMARK.json): five
# named workloads, every answer verified, every metric printed by name.
# `bench-e2e` is the full untraced run (≈20 s measured per workload); add
# `-trace 1` by hand for the per-layer numbers. The smoke runs 1% of the op
# lists — it checks that the harness and the oracle still agree with the
# program, not any timing. `bench-e2e-compare OLD=a.jsonl NEW=b.jsonl` applies
# BENCHMARK.json's bounds to two ledgers written with `-out`.
bench-e2e:
	$(GO) run ./bench/e2e

bench-e2e-smoke:
	$(GO) run ./bench/e2e -scale 0.01

bench-e2e-compare:
	$(GO) run ./bench/e2e -compare $(OLD) $(NEW)
