#!/bin/sh
# Merge gate: vet, build, and the full test suite under the race detector.
# The chunk codec pools, the WAL's group-commit batcher and the exchange
# scheduler all share state across goroutines, so race coverage is
# mandatory, not optional. Run via `make check` or directly from CI.
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# Formatting gate: gofmt must have nothing to rewrite.
test -z "$(gofmt -l .)"
go build ./...
go test -race ./...

# Fixed-budget fuzzing of the one XML tokenizer: 3000 generated inputs
# each for the encoding/xml differential and for the scanner's event
# balance, beyond the seed corpora the test run above already replays.
go test -run '^$' -fuzz '^FuzzParseMatchesEncodingXML$' -fuzztime 3000x ./internal/xmltree/
go test -run '^$' -fuzz '^FuzzScan$' -fuzztime 3000x ./internal/xmltree/

# Informational: the non-test Go line count outside benchmark/ (ROADMAP
# item 6 tracks it going down; each PR's CHANGES.md entry records the
# before/after).
echo "non-test Go lines outside benchmark/: $(./scripts/loc.sh)"

# Benchmark smoke: 100 fixed iterations so broken benchmarks fail the gate
# without turning it into a performance run.
make bench-smoke

# Allocation-regression smoke: twelve benchmarks must stay within 25% of the
# allocs/op baselines recorded in the script, and Table 4's load-then-index
# row, the reconciliation row, the journaled exchange row, the delta apply
# row and the three source render rows within 25% of their B/op baselines too — the arena/slab
# teardown and an apply that costs the churn, not the store, are
# merge-gated properties, not one-off numbers.
./scripts/alloc_smoke.sh

# Fault-injection soak: the reliable-exchange e2e over the widened seed
# matrix, under the race detector. Deterministic, so a failure here is a
# reliability regression, not flake.
make soak

# Ops-endpoint smoke: a live xdxd must answer /healthz and serve a JSON
# /metrics snapshot on -metrics-addr. Guards the daemon wiring the package
# tests cannot see (flag parsing, the separate ops listener).
./scripts/obs_smoke.sh

# Delta-correctness smoke: the churn property test (the target a delta
# edits row by row equals a full re-ship record-for-record, on XMark MF→LF,
# XMark LF→MF and telgen S→T, with the rows it edits counted), the
# mid-delta crash/fallback arm, the failed-delivery arm (a delta that never
# landed is never diffed against), the lost-response arm (a delta that ran
# replays, never falls back), the reload arm (rows reloaded behind the
# base ship cold), the stale-delta arm (a delta that does not fit the rows
# falls back before any row changes), the store's row-edit apply held to a
# reload, the store dropping every base on Clear and Load and keeping it
# otherwise, overlapping deltas taking the base once, the one-pass
# reconciliation held to the map-based reference over seeded shipments,
# chunks and diffs built from row snapshots held byte for byte to the trees
# ScanFragment builds, the parallel diff held to the serial one, and
# filtered renders from rows held byte for byte to the tree path (and
# served fresh to every Scan on both), the held-render sweep (the sweeper
# that frees idle target sessions frees a render a failed delivery holds,
# and a resume from it is RenderGone) and the breaker-free retry arm (an
# exchange without shared breakers is capped by its policy alone), re-run
# without the race detector as a fast standalone gate — a delta or a filter
# that ships the wrong records must never reach a snapshot run. Every name
# must be a test of these packages: a renamed test fails the gate here
# instead of silently dropping out of it.
fast_pkgs='./internal/registry/ ./internal/relstore/ ./internal/endpoint/ ./internal/reliable/'
fast_tests='TestSweepFreesHeldRender TestRetriesNotCappedWithoutBreakers
TestDeltaExchangeChurnProperty TestDeltaExchangeCrashRestartFallsBack
TestDeltaExchangeFailedDeliveryKeepsBase TestDeltaLostResponseReplays
TestDeltaBaseFollowsStoreGeneration TestDeltaThatDoesNotFitFallsBack
TestApplyDeltaMatchesReload TestApplyDeltaRefusesStaleDelta
TestLoadAndClearDropEveryBase TestOverlappingDeltasTakeTheBaseOnce
TestDiffShipmentMatchesReference TestRowsEmitMatchesTrees
TestDiffRecordsParallelMatchesSerial TestFilteredScanMatchesTreePath
TestFilteredScanServesEachScanFresh'
missing=$(go test -list . $fast_pkgs | awk -v want="$(echo $fast_tests)" '
    BEGIN { n = split(want, w); for (i = 1; i <= n; i++) need[w[i]] = 1 }
    { delete need[$0] }
    END { for (k in need) print k }')
test -z "$missing" || { echo "check.sh: the fast gate names no test of $fast_pkgs:" $missing >&2; exit 1; }
go test -count=1 -run "$(echo $fast_tests | tr ' ' '|')" $fast_pkgs

# Process-kill smoke: SIGKILL a durable target endpoint mid-exchange,
# restart it over the same WAL directory, and the reliable exchange must
# resume from the journaled checkpoint without re-shipping committed
# records — the durability subsystem's end-to-end gate over real binaries.
./scripts/crash_smoke.sh
