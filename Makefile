GO ?= go

.PHONY: all build test vet race check chaos fuzz bench bench-tables bench-server bench-charwork bench-charlib bench-yield bench-smoke allocbudget determinism clean

all: build

# perfbench/ is a module of its own, so ./... at the root skips it; the
# gate builds and vets it too, offline as perfbench/run.sh does, so an
# API cut in the packages it uses fails here first.
PERFBENCH_GO = cd perfbench && GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off $(GO)

build:
	$(GO) build ./...
	$(PERFBENCH_GO) build -o /dev/null .

# gofmt gate: any file gofmt would rewrite fails the target.
vet:
	$(GO) vet ./...
	$(PERFBENCH_GO) vet .
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The seeded chaos suites (TestChaos*) are skipped here: `make chaos`
# runs them under -race, their default seeds among its CHAOS_SEEDS.
race:
	$(GO) test -race -timeout 20m -skip '^TestChaos' ./...

# Allocation-budget regression tests (testing.AllocsPerRun; skipped under
# -race, so they get their own invocation): the fitters' warm workspaces,
# and zero allocations for the SN CDF, stats.Quantile, ssta.MaxMoments,
# one yield estimator batch and a prepared spice point's Eval.
allocbudget:
	$(GO) test -run 'AllocBudget' -count 1 ./internal/fit/ ./internal/stats/ ./internal/ssta/ ./internal/yield/ ./internal/spice/

# Bit-identical serial-vs-parallel multi-start, bit-identical
# warm-started library builds across worker counts, and yield estimates
# bit-identical to the serial batch loop — under the race detector and
# several GOMAXPROCS values so the concurrent paths engage.
determinism:
	$(GO) test -race -cpu 1,4,8 -run 'TestFitLVF2ParallelDeterminism|TestFitLVF2Golden|TestFitLVF2SeededDeterminism' -count 1 ./internal/fit/
	$(GO) test -race -cpu 1,4,8 -run 'TestBuildWarmDeterminismAcrossWorkers' -count 1 -timeout 15m ./internal/libbuild/
	$(GO) test -race -cpu 1,2,4,8 -run 'TestYieldEstimatorDeterminism|TestYieldBitIdenticalToSerial' -count 1 -timeout 15m ./internal/yield/

# The seeded chaos suites under the race detector, one package at a time:
#   TestChaosServing            lvf2d under disk faults, fit outages,
#                               snapshot rot and kill/restart: never a
#                               500 or a torn body.
#   TestChaosReplicatedServing  a 3-replica fleet over faulty peer links
#   TestChaosFleetChurn         and through joins, drains, crash-leaves
#                               and restarts: every answer a 200 that is
#                               bit-identical to a single-process oracle.
#   TestChaosCheckpointResume   a killed, torn or rotted build journal,
#   TestChaosDistributedBuild   and a worker fleet with coordinator
#                               restarts: a .lib bit-identical to an
#                               uninterrupted single-process build.
# CHAOS_RUN (a go test -run pattern) picks suites, CHAOS_SEEDS sets the
# seeds per suite. A failing seed writes its steps, logs and journal
# segments to CHAOS_ARTIFACT_DIR/<Test>/seed-<N>/ and prints its replay
# command: go test -race -run '^<Test>$' ./<pkg> -chaos.seed=<N>.
CHAOS_SEEDS ?= 8
CHAOS_RUN ?= TestChaos
CHAOS_ARTIFACT_DIR ?= $(CURDIR)/chaos-artifacts

chaos:
	CHAOS_ARTIFACT_DIR=$(CHAOS_ARTIFACT_DIR) \
		$(GO) test -race -p 1 -run '$(CHAOS_RUN)' -count 1 -timeout 15m \
		./internal/server/ ./internal/libbuild/ ./internal/dist/ -chaos.seeds $(CHAOS_SEEDS)

# One iteration of every benchmark in -short mode: benchmark code cannot
# rot between perf PRs (heavy benches shrink their workload under -short;
# this smokes the code paths, it does not measure).
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -timeout 20m ./...

# The gate: vet + build + full suite under the race detector + perf and
# crash-safety guards + the benchmark smoke pass.
check: vet build race allocbudget determinism chaos bench-smoke

# Short fuzz pass over the Liberty/netlist parsers, the journaled
# work-unit payload decoder, the lvf2d arc-query parse step and the
# membership document parser.
fuzz:
	$(GO) test -fuzz FuzzParse -fuzztime 30s -run '^$$' ./internal/liberty/
	$(GO) test -fuzz FuzzRoundTrip -fuzztime 30s -run '^$$' ./internal/liberty/
	$(GO) test -fuzz FuzzParseNetlist -fuzztime 30s -run '^$$' ./internal/netlist/
	$(GO) test -fuzz FuzzDecodeUnit -fuzztime 30s -run '^$$' ./internal/libbuild/
	$(GO) test -fuzz FuzzArcQuery -fuzztime 30s -run '^$$' ./internal/server/
	$(GO) test -fuzz FuzzParseMembership -fuzztime 30s -run '^$$' ./internal/server/

# Micro benchmarks with memory stats, exported as BENCH_fit.json evidence.
BENCH_FILTER = BenchmarkFit|BenchmarkSNCDF|BenchmarkOwenT|BenchmarkQuantileGrid|BenchmarkMaxMoments|BenchmarkCharacterizeArc|BenchmarkSSTASum|BenchmarkLibertyParse

bench:
	$(GO) test -bench '$(BENCH_FILTER)' -benchmem -count 3 -run '^$$' -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_fit.json

# Warm-vs-cold lvf2d serving benchmarks over httptest (acceptance: warm
# /v1/arc/binning p50 ≥10x below cold), exported as BENCH_server.json.
bench-server:
	$(GO) test -bench 'BenchmarkServerBinning' -benchmem -count 3 -run '^$$' -timeout 10m ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_server.json

# Distributed characterisation scaling benchmark (acceptance: 4 workers
# drain the same build >=3x faster than 1), exported as BENCH_charwork.json.
bench-charwork:
	$(GO) test -bench 'BenchmarkCharWork' -benchmem -benchtime 3x -count 3 -run '^$$' -timeout 10m ./internal/dist/ \
		| $(GO) run ./cmd/benchjson -out BENCH_charwork.json

# Library characterisation throughput, warm-started vs cold (acceptance:
# warm cells/sec >= 2x cold), exported as BENCH_charlib.json.
bench-charlib:
	$(GO) test -bench 'BenchmarkCharLib' -benchmem -benchtime 1x -count 3 -run '^$$' -timeout 60m ./internal/libbuild/ \
		| $(GO) run ./cmd/benchjson -out BENCH_charlib.json

# Rare-event yield estimator ladder: samples-to-±1%-CI for MC/MNIS/AIS
# at 3σ/4σ/5σ (acceptance: MNIS and AIS close the 4σ contract with ≥50x
# fewer samples than plain MC needs, and produce a converged 5σ estimate
# inside a budget where plain MC cannot), plus ns/sample of the 4σ
# process-space MNIS/AIS estimates at 1 and 2 scoring workers, exported
# as BENCH_yield.json.
bench-yield:
	{ $(GO) test -bench 'BenchmarkYieldContract|BenchmarkYieldLatent' -benchmem -benchtime 1x -count 3 -run '^$$' -timeout 60m ./internal/yield/ && \
	  $(GO) test -bench 'BenchmarkYieldProcessEstimate' -cpu 1,2 -benchmem -benchtime 3x -count 3 -run '^$$' -timeout 30m ./internal/yield/; } \
		| $(GO) run ./cmd/benchjson -out BENCH_yield.json

# Paper artefact regeneration benchmarks (tables, figures, ablations).
bench-tables:
	$(GO) test -bench 'BenchmarkTable|BenchmarkFig|BenchmarkAblation' -benchtime 1x -run '^$$' -timeout 30m .

clean:
	$(GO) clean ./...
