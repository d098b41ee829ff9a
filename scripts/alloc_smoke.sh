#!/bin/sh
# Allocation-regression smoke: one short BenchmarkFigure9_EndToEnd run,
# compared against the committed benchmark snapshot. The end-to-end path
# is where the decoder arena, the row slabs, and the pooled codec state
# pay off; a >25% allocs/op regression there means someone reintroduced a
# per-record allocation, and the gate should say so before a slow
# benchmark run does. Wall-clock is deliberately not checked — allocs/op
# is load-independent, time on a busy CI box is not.
set -eu

cd "$(dirname "$0")/.."

# Default baseline: the newest snapshot (highest N) that carries the
# end-to-end benchmark.
SNAP="${1:-$(grep -l 'Figure9_EndToEnd' BENCH_*.json | sort -t_ -k2 -n | tail -1)}"
[ -n "$SNAP" ] || { echo "alloc_smoke: no BENCH_N.json carries Figure9_EndToEnd" >&2; exit 1; }
BASE="$(awk -F'"allocs_per_op": ' '/Figure9_EndToEnd/ { sub(/[,}].*/, "", $2); print $2 }' "$SNAP")"
[ -n "$BASE" ] || { echo "alloc_smoke: no Figure9_EndToEnd allocs_per_op in $SNAP" >&2; exit 1; }

GOT="$(go test -run '^$' -bench 'BenchmarkFigure9_EndToEnd$' -benchmem -benchtime 3x . |
	awk '/^BenchmarkFigure9_EndToEnd/ { for (i = 1; i < NF; i++) if ($(i + 1) == "allocs/op") print $i }')"
[ -n "$GOT" ] || { echo "alloc_smoke: benchmark did not report allocs/op" >&2; exit 1; }

LIMIT=$((BASE + BASE / 4))
if [ "$GOT" -gt "$LIMIT" ]; then
	echo "alloc_smoke: BenchmarkFigure9_EndToEnd allocs/op $GOT exceeds the $SNAP baseline $BASE by >25% (limit $LIMIT)" >&2
	exit 1
fi
echo "alloc_smoke: Figure9 allocs/op $GOT within 25% of $SNAP baseline $BASE (limit $LIMIT)"
