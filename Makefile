# Reproduction targets for "A Web-Services Architecture for Efficient XML
# Data Exchange" (ICDE 2004). See DESIGN.md and EXPERIMENTS.md.

GO ?= go

.PHONY: all build test vet check soak bench bench-smoke experiments experiments-quick examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The merge gate: vet, build, and the full suite under the race detector
# (WAL batcher, scheduler and session decoders are concurrent). CI runs the same
# script.
check:
	./scripts/check.sh

# Fault-injection soak: the reliable-exchange e2e under the race detector,
# repeated over a widened fixed seed matrix (deterministic — FaultyLink
# derives every fault from the seed). Part of the merge gate.
SOAK_SEEDS ?= 1,7,12,17,18,25
soak:
	XDX_FAULT_SEEDS=$(SOAK_SEEDS) $(GO) test -race -count=1 \
		-run 'TestReliableExchange' ./internal/registry/

# One testing.B benchmark per table and figure, plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# Fast benchmark smoke: a fixed 100 iterations per benchmark, just enough
# to catch benchmarks that stopped compiling or started failing. Part of
# the merge gate; not for performance numbers.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=100x ./...

# Regenerate every table and figure at the paper's document sizes.
experiments:
	$(GO) run ./cmd/xdxbench -all

experiments-quick:
	$(GO) run ./cmd/xdxbench -all -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/telecom
	$(GO) run ./examples/auction
	$(GO) run ./examples/negotiation
	$(GO) run ./examples/recommend

# The artifacts requested for the reproduction record.
test_output.txt:
	$(GO) test ./... 2>&1 | tee test_output.txt

bench_output.txt:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f test_output.txt bench_output.txt
