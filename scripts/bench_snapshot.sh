#!/bin/sh
# Snapshot the benchmark set into BENCH_$BENCH_N.json: the three
# shipment-format ablations (XML, bin, bin+flate on the MF and LF
# layouts) with their wire sizes, the end-to-end Figure 9 run, the
# chained-Combine rows (k Combines into one parent, and the one-to-one
# "spread" shape whose allocs/op alloc_smoke.sh gates), the
# streaming codec's allocation budget, the chunk codec pool's bin+flate
# round trip, the durability set (WAL append cost per fsync policy, recovery
# time vs log length, and the journaled reliable-exchange round trip),
# a full xdxload traffic run (serial baseline vs the scheduled
# concurrent control plane, with plan-cache hit rate) embedded as the
# "load" section, and the delta-exchange churn sweep (wire bytes per
# repeat exchange at 1%/10%/50% churn, delta vs full re-ship — the
# full/churn=1pct : delta/churn=1pct wire-bytes ratio is the delta
# protocol's headline saving). GOMAXPROCS and the CPU count are recorded so a snapshot
# is never compared across core counts by accident. Fixed iteration counts
# keep the run reproducible: `make bench-json` regenerates the current
# snapshot, and `BENCH_N=7 make bench-json` starts the next one.
#
#   -smoke     3 iterations and a scaled-down load run into a throwaway
#              file — validates that every snapshot benchmark still runs
#              and the JSON still parses; part of the merge gate
#              (scripts/check.sh).
#   -out=FILE  write somewhere other than BENCH_$BENCH_N.json.
set -eu

cd "$(dirname "$0")/.."

BENCH_N="${BENCH_N:-13}"
OUT="BENCH_${BENCH_N}.json"
BENCHTIME=50x
LOAD_ARGS="-tenants 4 -concurrency 32 -ops 256 -check -min-speedup 3"
for arg in "$@"; do
	case "$arg" in
	-smoke)
		BENCHTIME=3x
		OUT="${TMPDIR:-/tmp}/bench_smoke_$$.json"
		LOAD_ARGS="-tenants 2 -concurrency 8 -ops 24 -net-latency 2ms -check"
		;;
	-out=*) OUT="${arg#-out=}" ;;
	*)
		echo "usage: [BENCH_N=N] $0 [-smoke] [-out=FILE]" >&2
		exit 2
		;;
	esac
done

RAW="$(mktemp)"
LOAD="$(mktemp)"
trap 'rm -f "$RAW" "$LOAD"' EXIT

# The traffic run first: it fails loudly (-check) if the control plane
# regressed, before any benchmark time is spent.
# shellcheck disable=SC2086
go run ./cmd/xdxload $LOAD_ARGS -quiet -out "$LOAD"

go test -run '^$' -bench 'BenchmarkAblation_ShipFormat' -benchmem -benchtime "$BENCHTIME" . >>"$RAW"
go test -run '^$' -bench 'BenchmarkFigure9_EndToEnd$' -benchmem -benchtime "$BENCHTIME" . >>"$RAW"
go test -run '^$' -bench 'BenchmarkChainedCombine/(incremental|spread)' -benchmem -benchtime "$BENCHTIME" ./internal/core/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkShipmentCodecStream$' -benchmem -benchtime "$BENCHTIME" ./internal/wire/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkShipmentCodecParallel$' -benchmem -benchtime "$BENCHTIME" ./internal/wire/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkWALAppend|BenchmarkWALRecovery|BenchmarkJournalChunk' -benchmem -benchtime "$BENCHTIME" ./internal/durable/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkReliableExchangeDurable' -benchmem -benchtime "$BENCHTIME" ./internal/registry/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkDurableMultiSession' -benchmem -benchtime "$BENCHTIME" ./internal/registry/ >>"$RAW"
go test -run '^$' -bench 'BenchmarkDeltaExchange' -benchmem -benchtime "$BENCHTIME" ./internal/registry/ >>"$RAW"

awk -v benchtime="$BENCHTIME" -v snapshot="BENCH_${BENCH_N}" '
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
/^Benchmark/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	iters = $2
	ns = ""; bop = ""; aop = ""; wb = ""; mbs = ""
	for (i = 3; i < NF; i += 2) {
		v = $i; u = $(i + 1)
		if (u == "ns/op") ns = v
		else if (u == "B/op") bop = v
		else if (u == "allocs/op") aop = v
		else if (u == "wire-bytes/op") wb = v
		else if (u == "MB/s") mbs = v
	}
	line = sprintf("    {\"name\": \"%s\", \"iters\": %s", name, iters)
	if (ns != "") line = line sprintf(", \"ns_per_op\": %s", ns)
	if (mbs != "") line = line sprintf(", \"mb_per_s\": %s", mbs)
	if (bop != "") line = line sprintf(", \"bytes_per_op\": %s", bop)
	if (aop != "") line = line sprintf(", \"allocs_per_op\": %s", aop)
	if (wb != "") line = line sprintf(", \"wire_bytes_per_op\": %s", wb)
	line = line "}"
	benches[++n] = line
}
END {
	printf "{\n"
	printf "  \"snapshot\": \"%s\",\n", snapshot
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) printf "%s%s\n", benches[i], (i < n ? "," : "")
	printf "  ],\n"
}
' "$RAW" >"$OUT"

# Close the snapshot with the machine shape and the embedded load report.
{
	printf '  "gomaxprocs": %s,\n' "${GOMAXPROCS:-$(nproc)}"
	printf '  "num_cpu": %s,\n' "$(nproc)"
	printf '  "load": '
	cat "$LOAD"
	printf '}\n'
} >>"$OUT"

# A snapshot that silently captured zero benchmarks is a broken snapshot.
grep -q '"name":' "$OUT" || { echo "bench_snapshot: no benchmarks captured" >&2; exit 1; }
echo "bench_snapshot: wrote $(grep -c '"name":' "$OUT") benchmarks to $OUT"
case "$OUT" in "${TMPDIR:-/tmp}"/bench_smoke_*) rm -f "$OUT" ;; esac
