#!/bin/sh
# Merge gate: vet, build, and the full test suite under the race detector.
# The chunk codec pools, the WAL's group-commit batcher and the exchange
# scheduler all share state across goroutines, so race coverage is
# mandatory, not optional. Run via `make check` or directly from CI.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Informational: the non-test Go line count outside benchmark/ (ROADMAP
# item 2 tracks it going down; each PR's CHANGES.md entry records the
# before/after).
echo "non-test Go lines outside benchmark/: $(./scripts/loc.sh)"

# Benchmark smoke: 100 fixed iterations so broken benchmarks fail the gate
# without turning it into a performance run.
make bench-smoke

# Benchmark snapshot smoke: a 3-iteration pass through the BENCH_N.json
# pipeline, so a benchmark rename or output-format drift breaks the gate
# instead of the next `make bench-json`.
./scripts/bench_snapshot.sh -smoke

# Allocation-regression smoke: four benchmarks must stay within 25% of the
# allocs/op baselines recorded in the script — the arena/slab teardown is a
# merge-gated property, not a one-off number.
./scripts/alloc_smoke.sh

# Fault-injection soak: the reliable-exchange e2e over the widened seed
# matrix, under the race detector. Deterministic, so a failure here is a
# reliability regression, not flake.
make soak

# Ops-endpoint smoke: a live xdxd must answer /healthz and serve a JSON
# /metrics snapshot on -metrics-addr. Guards the daemon wiring the package
# tests cannot see (flag parsing, the separate ops listener).
./scripts/obs_smoke.sh

# Load-harness smoke: a small xdxload run over real loopback HTTP must show
# nonzero throughput with zero failed exchanges in both the serial and the
# scheduled drive mode — the control plane's end-to-end gate.
./scripts/load_smoke.sh

# Delta-correctness smoke: the churn property test (patched target equals
# full re-ship record-for-record) plus the mid-delta crash/fallback arm,
# re-run without the race detector as a fast standalone gate — a delta
# that ships the wrong records must never reach a snapshot run.
go test -count=1 -run 'TestDeltaExchangeChurnProperty|TestDeltaExchangeCrashRestartFallsBack' ./internal/registry/

# Process-kill smoke: SIGKILL a durable target endpoint mid-exchange,
# restart it over the same WAL directory, and the reliable exchange must
# resume from the journaled checkpoint without re-shipping committed
# records — the durability subsystem's end-to-end gate over real binaries.
./scripts/crash_smoke.sh
