#!/bin/sh
# Allocation-regression smoke: short runs of BenchmarkFigure9_EndToEnd,
# BenchmarkShipmentCodecParallel/w1,
# BenchmarkReliableExchangeDurable/batch and
# BenchmarkChainedCombine/spread/k=8, compared against the committed
# benchmark snapshot. The first is the in-process end-to-end path — row
# slabs, splitter and shredder arenas, pooled codec state; the second is
# the bin shipment decoder, whose nodes, child slices and strings all come
# out of per-chunk slabs (Figure 9 never decodes a shipment, so it cannot
# see that); the third is the only snapshot benchmark that crosses the
# agency, so the only one that sees what its chunk relay allocates per
# chunk; the fourth is 1,600 attaches each under a parent of its own, whose
# kid slices grow out of the joiner's arena (the k-Combines-into-one-root
# rows amortise a per-attach allocation away and would not see it). A >25%
# allocs/op regression on any of them means someone reintroduced a
# per-record allocation, and the gate should say so before a slow benchmark
# run does. Wall-clock is deliberately not checked —
# allocs/op is load-independent, time on a busy CI box is not.
set -eu

cd "$(dirname "$0")/.."

# Default baseline: the newest snapshot (highest N) that carries the
# end-to-end benchmark.
SNAP="${1:-$(grep -l 'Figure9_EndToEnd' BENCH_*.json | sort -t_ -k2 -n | tail -1)}"
[ -n "$SNAP" ] || { echo "alloc_smoke: no BENCH_N.json carries Figure9_EndToEnd" >&2; exit 1; }

# check NAME PKG: NAME is the snapshot's benchmark name without the
# Benchmark prefix.
check() {
	base="$(awk -F'"allocs_per_op": ' -v n="\"Benchmark$1\"" 'index($0, n) { sub(/[,}].*/, "", $2); print $2 }' "$SNAP")"
	[ -n "$base" ] || { echo "alloc_smoke: no $1 allocs_per_op in $SNAP" >&2; exit 1; }
	got="$(go test -run '^$' -bench "Benchmark$1\$" -benchmem -benchtime 3x "$2" |
		awk '/^Benchmark/ { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }')"
	[ -n "$got" ] || { echo "alloc_smoke: Benchmark$1 did not report allocs/op" >&2; exit 1; }
	limit=$((base + base / 4))
	if [ "$got" -gt "$limit" ]; then
		echo "alloc_smoke: Benchmark$1 allocs/op $got exceeds the $SNAP baseline $base by >25% (limit $limit)" >&2
		exit 1
	fi
	echo "alloc_smoke: $1 allocs/op $got within 25% of $SNAP baseline $base (limit $limit)"
}

check Figure9_EndToEnd .
check ShipmentCodecParallel/w1 ./internal/wire/
check ReliableExchangeDurable/batch ./internal/registry/
check ChainedCombine/spread/k=8 ./internal/core/
