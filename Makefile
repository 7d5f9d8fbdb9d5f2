# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands.

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test lint race chaos fuzz bench bench-raw cover

all: build test lint race chaos fuzz

build:
	go build ./...

test:
	go test ./...

# lint runs standard go vet plus the repository's own analyzer suite
# (floatcmp, globalrand, policyreg, maprange, wallclock, hotalloc,
# ctxpoll, atomicfield, metricname — see internal/analysis and
# DESIGN.md §12), both as a cmd/go vet backend (per-package, cached)
# and standalone (whole-module, per-analyzer summary, `-json` for the
# CI findings artifact). Suppress a finding only with a justified
# //rtdvs:ignore <analyzer> <reason> on the flagged line.
lint:
	go vet ./...
	go install ./cmd/rtdvs-vet
	go vet -vettool=$(GOBIN)/rtdvs-vet ./...
	go run ./cmd/rtdvs-vet ./...

# race exercises the packages with real concurrency: the experiment
# harness worker pool, the RTOS kernel, and the HTTP serving layer
# (including the soak-smoke load test and its clean-drain assertion).
race:
	go test -race ./internal/experiment/... ./internal/rtos/... ./internal/serve/... ./cmd/rtdvs-serve/...

# chaos soaks the distributed sweep fabric under the race detector:
# seeded fault-injecting transports (drop / 500 / dup / truncate /
# delay), worker-kill-mid-shard recovery, straggler hedging, all-workers
# -ejected degradation, and the bit-identity table across chaos seeds
# (DESIGN.md §13). Bounded wall clock via -timeout.
chaos:
	go test -race -timeout 5m ./internal/fabric/... ./cmd/rtdvs-sweep/...

# fuzz gives the kernel op interpreter and the HTTP API's decode+
# validate+run path, and the batch engine's release table against the
# scalar engine, a short coverage-guided budget on every run; raise
# -fuzztime locally when hunting for real bugs.
fuzz:
	go test ./internal/rtos/ -run='^$$' -fuzz=FuzzKernelOps -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzSimulateRequest -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzSimulateBatchRequest -fuzztime=20s
	go test ./internal/task/ -run='^$$' -fuzz=FuzzDistributionSampler -fuzztime=20s
	go test ./internal/serve/ -run='^$$' -fuzz=FuzzMultiCoreConfig -fuzztime=20s
	go test ./internal/sim/ -run='^$$' -fuzz=FuzzReleaseTable -fuzztime=20s

# bench runs the suite through cmd/rtdvs-bench: it parses ns/op, B/op
# and allocs/op, writes the JSON report (BENCH_OUT), and fails if a
# simulator/kernel throughput benchmark regressed more than 15% in
# ns/op against the newest prior committed BENCH_*.json baseline.
# Override BENCH_OUT when recording the baseline for a new PR.
BENCH_OUT ?= BENCH_PR10.json
bench:
	go run ./cmd/rtdvs-bench -out $(BENCH_OUT)

# bench-raw is plain `go test -bench` without the report or the gate.
bench-raw:
	go test -bench=. -benchmem

# cover runs the suite with a coverage profile, gates per-package
# statement coverage against the floors in COVERAGE.floors (see
# cmd/rtdvs-cover), and renders the browsable HTML report.
COVER_OUT ?= cover.out
cover:
	go test -coverprofile=$(COVER_OUT) ./...
	go run ./cmd/rtdvs-cover -profile $(COVER_OUT) -floors COVERAGE.floors
	go tool cover -html=$(COVER_OUT) -o cover.html
