#!/bin/sh
# Allocation-regression smoke: short runs of BenchmarkFigure9_EndToEnd,
# BenchmarkShipmentCodecParallel/w1,
# BenchmarkReliableExchangeDurable/batch and
# BenchmarkChainedCombine/spread/k=8, compared against the committed
# baselines below. The first is the in-process end-to-end path — row
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

# Baselines (allocs/op), each with the commit it was measured at. They
# live here rather than in a BENCH_N.json so a change that lowers an allocation
# count re-baselines one line instead of re-taking a noisy ns/op snapshot.
# "wal-payload" is the commit that follows 6a5c8f6 and journals chunks as
# their wire payloads; its two re-baselined counts were 403 and 13344 at
# 6a5c8f6 on the same machine.
FIGURE9_END_TO_END=54833              # 5ebdd14 (BENCH_13.json)
SHIPMENT_CODEC_PARALLEL_W1=387        # wal-payload
RELIABLE_EXCHANGE_DURABLE_BATCH=11377 # wal-payload
CHAINED_COMBINE_SPREAD_K8=217         # 5ebdd14 (BENCH_13.json)

# check NAME PKG BASE: NAME is the benchmark name without the Benchmark
# prefix.
check() {
	got="$(go test -run '^$' -bench "Benchmark$1\$" -benchmem -benchtime 3x "$2" |
		awk '/^Benchmark/ { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }')"
	[ -n "$got" ] || { echo "alloc_smoke: Benchmark$1 did not report allocs/op" >&2; exit 1; }
	limit=$(($3 + $3 / 4))
	if [ "$got" -gt "$limit" ]; then
		echo "alloc_smoke: Benchmark$1 allocs/op $got exceeds the baseline $3 by >25% (limit $limit)" >&2
		exit 1
	fi
	echo "alloc_smoke: $1 allocs/op $got within 25% of baseline $3 (limit $limit)"
}

check Figure9_EndToEnd . "$FIGURE9_END_TO_END"
check ShipmentCodecParallel/w1 ./internal/wire/ "$SHIPMENT_CODEC_PARALLEL_W1"
check ReliableExchangeDurable/batch ./internal/registry/ "$RELIABLE_EXCHANGE_DURABLE_BATCH"
check ChainedCombine/spread/k=8 ./internal/core/ "$CHAINED_COMBINE_SPREAD_K8"
