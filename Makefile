# Convenience targets; everything is plain `go` underneath.

# bash + pipefail so a `go test | tee` pipeline fails when go test
# fails, not with tee's exit status — the bug that let a broken
# benchmark lane stay green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
FAULTNET_SEED ?= 1

# Build identity: the stamped version lands in -version output and in
# the sds_build_info metric. Defaults to git describe (falling back to
# the short hash), overridable for release builds: make build VERSION=v1.2.3
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
LDFLAGS := -X sdssort/internal/buildinfo.Version=$(VERSION)

.PHONY: all build install test race vet lint loc bench bench-e2e bench-test bench-pairs bench-kernel algo-matrix soak soak-shrink soak-spill telemetry-smoke trace-smoke experiments experiments-quick fuzz clean

all: build test

build:
	$(GO) build -ldflags '$(LDFLAGS)' ./...

# Install the binaries with the version stamped (build only compiles;
# this drops sdssort, sdsnode, sdstrace... into GOBIN).
install:
	$(GO) install -ldflags '$(LDFLAGS)' ./cmd/...

# -count=1: tier-1 is never quoted from the test cache — a cached
# `ok` once hid two flaky packages for three PRs.
test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# gofmt too, so formatting drift fails without golangci-lint installed.
vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l $$(git ls-files '*.go'))"

# Mirrors the CI lint job; requires golangci-lint on PATH.
lint:
	golangci-lint run

# Non-test Go lines per package (bench/ excluded): the number a
# simplification PR quotes before and after.
loc:
	@sh scripts/loc.sh

# Every micro-benchmark (go test -bench): layer timings to read, not a
# gate. Perf claims are judged by bench-e2e and bench-pairs below.
bench:
	$(GO) test -bench=. -benchmem ./...

# The repository's end-to-end benchmark (BENCHMARK.json): four workloads
# on a warm 4-rank world, both passes, into bench/out/. bench/ is its own
# module, so `go test ./...` at the root never enters it — bench-test
# runs its tests, and CI runs bench-test.
bench-e2e:
	bash bench/run.sh

bench-test:
	cd bench && $(GO) test ./...

# A perf claim's evidence: PAIRS alternating runs of WORKLOAD at PARENT
# and at this checkout, each pair on a fresh seed, judged per end-to-end
# metric by the paired rule scripts/bench_pairs.sh spells out.
PARENT   ?= HEAD~1
WORKLOAD ?= uniform_inproc
PAIRS    ?= 10
bench-pairs:
	bash scripts/bench_pairs.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# A kernel claim's layer half: the four local-sort benchmarks (radix
# dispatch vs comparison sort on the workloads' own keys, ns/record),
# six counts each. The host drifts minute to minute: run it at both
# commits, alternating, and compare the interleaved counts.
bench-kernel:
	$(GO) test -run xxx -bench 'BenchmarkLocalSort' -benchtime 20x -count 6 ./internal/core

# The cross-driver algorithm matrix: every registered driver must emit
# byte-identical output — and a complete trace: one completed sort root
# span per rank, no open span — across the workload grid on both
# transports, -algo auto must resolve as the decision rule documents,
# the hyksort/psrs baseline cases (multi-round splits, skew collapse,
# OOM under a budget, the sds-vs-psrs ablation) and the histogram
# splitter refinement HSS and HykSort share must hold, a
# multi-level driver must report every level under the caller's world
# rank, and a refused sort must drain the gauge. Mirrors the CI
# algo-matrix job.
algo-matrix:
	$(GO) test -race -run 'TestDriverEquivalence|TestDriverInvalidOptionsDrainGauge|TestLevelsAttributeToWorldRank|TestAutoSelects|TestAutoSpillPressure|TestHykSort|TestHistogramSplitters|TestPSRS|TestSkewAwareVsClassical' -count=1 -timeout 10m ./internal/algo/

# Fault-injection soak: repeat the Fault|Retry|Reconnect|Recovery test
# families under the race detector. Vary the schedule with
# FAULTNET_SEED=n — the seed also picks the staged exchange's
# StageBytes, so kills land on different chunk boundaries.
soak:
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'Fault|Retry|Reconnect|Recovery' -count=3 -timeout 15m ./internal/...

# Shrink soak: the degraded-mode recovery paths — in-proc supervised
# shrink and cascade (internal/core) and the multi-process sdsnode e2e
# that hard-kills a rank mid-exchange; both run the one decision and
# re-form path in internal/cluster. The seed moves the kill rank and
# fault schedule.
soak-shrink:
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'Shrink' -count=3 -timeout 15m ./internal/core/
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'DistributedShrink' -count=1 -timeout 15m ./cmd/sdsnode/

# Spill soak: the out-of-core tier under fault injection and crashes —
# the spill property grid, the budget trigger, the crash-mid-spill
# supervised resume and the faultnet soak, repeated under the race
# detector together with the run-file layer and the external-sort
# contract (internal/extsort drives the one sorter on one rank; the
# library entry point is ExternalSortFile). FAULTNET_SEED=n varies the
# fault schedule, plus the multi-process spilled e2e and the CLI's
# spilled, external and resident routes once (the resident route drains
# through the spilled route's tail).
soak-spill:
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'Spill' -count=3 -timeout 15m ./internal/core/
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -count=3 -timeout 15m ./internal/extsort/
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'ExternalSortFile|ShardRange' -count=3 -timeout 15m . ./internal/recordio/
	FAULTNET_SEED=$(FAULTNET_SEED) $(GO) test -race -run 'DistributedSpilledSort|CLISpilledSort|CLIExternal|CLISortRoundTrip|CLICSVInput|CLIResident' -count=1 -timeout 15m ./cmd/sdsnode/ ./cmd/sdssort/

# Telemetry smoke: boot a real 2-process sdsnode world in -serve mode,
# each rank serving its own telemetry, and curl both ranks' /healthz
# and /metrics while a held job keeps the stream open, requiring each
# rank's series, a scraper-side sum of jobs done and a clean drain. The
# Go-level twins (scrape-under-load, the e2e serve test) run under
# `test`.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Trace smoke: boot a real 2-process sdsnode world with span tracing
# and telemetry on, assert /debug/spans returns a well-formed span
# tree, and validate the clock-aligned chrome export end to end.
trace-smoke:
	sh scripts/trace_smoke.sh

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/sdsbench -exp all

experiments-quick:
	$(GO) run ./cmd/sdsbench -exp all -quick

# Short fuzzing pass over the sort, natural-run, run-merge, k-way merge,
# parallel-merge, partition,
# checkpoint-manifest, checkpoint-load, exchange-decode, float-key, key-field,
# radix-kernel, stable-radix-dispatch, run-file-reader, run-file-merge, job-manifest,
# packed-frame decoder, staged all-to-all, tcpcomm frame-reader and
# trace-reader invariants.
# The frame readers' and the trace reader's inputs run to kilobytes, so
# their minimization budget is capped: at the default 60 s the first
# coverage-raising input would eat the whole run.
fuzz:
	$(GO) test ./internal/psort -fuzz FuzzSort -fuzztime 30s -run xxx
	$(GO) test ./internal/psort -fuzz FuzzStableSort -fuzztime 30s -run xxx
	$(GO) test ./internal/psort -fuzz FuzzNaturalMergeSort -fuzztime 30s -run xxx
	$(GO) test ./internal/psort -fuzz FuzzMergeRuns -fuzztime 30s -run xxx
	$(GO) test ./internal/psort -fuzz FuzzKWayMerge -fuzztime 30s -run xxx
	$(GO) test ./internal/psort -fuzz FuzzParallelMerge -fuzztime 30s -run xxx
	$(GO) test ./internal/partition -fuzz FuzzFastPartition -fuzztime 30s -run xxx
	$(GO) test ./internal/partition -fuzz FuzzStablePartition -fuzztime 30s -run xxx
	$(GO) test ./internal/checkpoint -fuzz FuzzManifest -fuzztime 30s -run xxx
	$(GO) test ./internal/checkpoint -fuzz FuzzLoad -fuzztime 30s -run xxx
	$(GO) test ./internal/codec -fuzz FuzzDecodeAppend -fuzztime 30s -run xxx
	$(GO) test ./internal/codec -fuzz FuzzFloat64Key -fuzztime 30s -run xxx
	$(GO) test ./internal/codec -fuzz FuzzKeyField -fuzztime 30s -run xxx
	$(GO) test ./internal/radix -fuzz FuzzRadixKernel -fuzztime 30s -run xxx
	$(GO) test ./internal/core -fuzz FuzzStableDispatch -fuzztime 30s -run xxx
	$(GO) test ./internal/extsort -fuzz FuzzRunReader -fuzztime 30s -run xxx
	$(GO) test ./internal/extsort -fuzz FuzzRunMerge -fuzztime 30s -run xxx
	$(GO) test ./cmd/sdsnode -fuzz FuzzDecodeJobs -fuzztime 30s -run xxx
	$(GO) test ./internal/comm -fuzz FuzzUnpackFrames -fuzztime 30s -fuzzminimizetime 3s -run xxx
	$(GO) test ./internal/comm -fuzz FuzzStagedAlltoallv -fuzztime 30s -run xxx
	$(GO) test ./internal/comm/tcpcomm -fuzz FuzzFrameReader -fuzztime 30s -fuzzminimizetime 3s -run xxx
	$(GO) test ./internal/trace -fuzz FuzzReadJSONL -fuzztime 30s -fuzzminimizetime 3s -run xxx

clean:
	$(GO) clean ./...
