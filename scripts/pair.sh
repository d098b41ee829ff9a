#!/bin/sh
# Paired verdict: scripts/pair.sh REV [PAIRS] [run.sh args...]
#
# Runs benchmark/run.sh PAIRS times (default 10) in an export of REV and
# PAIRS times in the working tree, alternating, REV first in odd pairs,
# each run with the same run.sh arguments (say -workload delta_1pct
# -seconds 8). Then it prints, per workload and end-to-end metric of
# BENCHMARK.json: REV's median and quartiles, the working tree's median,
# the change of the median, the pairs the working tree won (ties count for
# neither side), and a verdict against the metric's bound:
#   gain        the working tree won at least 9 in 10 pairs and its median
#               beats REV's by more than REV's interquartile range;
#   inside      the median is no worse than REV's by more than the bound;
#   OUTSIDE     it is worse by more than the bound;
#   unresolved  REV's own interquartile range is wider than the bound, and
#               not every working-tree run beats every REV run.
# A last line per workload counts failed exchanges and runs whose oracle
# failed. REV is exported with git archive into a temporary directory,
# which is removed on exit; the working tree's uncommitted changes are
# what is measured against it. The exit status is 1 when any run failed.
set -eu

[ $# -ge 1 ] || { echo "usage: scripts/pair.sh REV [PAIRS] [run.sh args...]" >&2; exit 2; }
rev=$1
shift
pairs=10
case "${1:-}" in
'' | -*) ;;
*) pairs=$1; shift ;;
esac

cd "$(dirname "$0")/.."
here=$(pwd)
tmp=$(mktemp -d "${TMPDIR:-/tmp}/xdx-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' INT TERM
mkdir "$tmp/rev"
git archive "$rev" | tar -x -C "$tmp/rev"

# The workloads a run prints, one JSON line each, in order: the one named
# by -workload, or every workload of BENCHMARK.json.
names=$(awk '/"workloads": \[/ { w = 1 } /"end_to_end": \[/ { w = 0 }
	w && /"name":/ { gsub(/[",]/, "", $2); print $2 }' BENCHMARK.json)
prev=
for a in "$@"; do
	case "$prev" in -workload | --workload) names=$a ;; esac
	case "$a" in -workload=* | --workload=*) names=${a#*=} ;; esac
	prev=$a
done

status=0
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then order="rev work"; else order="work rev"; fi
	for side in $order; do
		dir=$here
		[ "$side" = rev ] && dir=$tmp/rev
		echo "pair.sh: pair $i/$pairs, $side" >&2
		if ! bash "$dir/benchmark/run.sh" "$@" >"$tmp/out" 2>"$tmp/err"; then
			status=1
			tail -3 "$tmp/err" >&2
		fi
		echo "$names" | awk -v side="$side" -v pair="$i" '
			NR == FNR { name[NR - 1] = $0; next }
			/^\{/ { print side, pair, name[n++], $0 }' - "$tmp/out" >>"$tmp/runs"
	done
	i=$((i + 1))
done

awk -v pairs="$pairs" '
# One line per end-to-end metric of BENCHMARK.json: its direction and bound.
FILENAME == ARGV[1] {
	if ($0 ~ /"end_to_end": \[/) e = 1
	if ($0 ~ /"per_layer": \[/) e = 0
	if (!e) next
	v = $2; gsub(/[",]/, "", v)
	if ($1 == "\"name\":") { m = v; metrics[++nm] = m }
	if ($1 == "\"better\":") better[m] = v
	if ($1 == "\"bound\":") bound[m] = v + 0
	next
}
# One line per run: side, pair, workload, then its JSON line.
{
	side = $1; pair = $2; w = $3
	if (!(w in seen)) { seen[w] = 1; wl[++nw] = w }
	line = $0
	if (line ~ /"correct":false/) bad[w]++
	if (match(line, /"failed":[0-9]+/)) failed[w] += substr(line, RSTART + 9, RLENGTH - 9)
	while (match(line, /"[a-z0-9_]+":\{"value":[-+0-9.eE]+/)) {
		kv = substr(line, RSTART + 1, RLENGTH - 1)
		line = substr(line, RSTART + RLENGTH)
		split(kv, f, /"?:\{"value":/)
		val[side, w, f[1], pair] = f[2] + 0
		got[side, w, f[1], pair] = 1
	}
}
function sortv(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
function med(a, lo, hi,    n, m) {
	n = hi - lo + 1; m = lo + int((n - 1) / 2)
	return n % 2 ? a[m] : (a[m] + a[m + 1]) / 2
}
# quartiles sets q1, q2 and q3 of the n sorted values in a.
function quartiles(a, n) {
	q2 = med(a, 1, n)
	if (n == 1) { q1 = q3 = a[1]; return }
	q1 = med(a, 1, int(n / 2)); q3 = med(a, n - int(n / 2) + 1, n)
}
END {
	printf "%-14s %-24s %12s %25s %12s %8s %6s  %s\n", "workload", "metric", "rev median", "rev q1..q3", "work median", "change", "wins", "verdict"
	for (i = 1; i <= nw; i++) {
		w = wl[i]
		for (k = 1; k <= nm; k++) {
			m = metrics[k]; lower = better[m] == "lower"
			np = 0; nc = 0; wins = 0; n = 0
			pmax = ""; pmin = ""; cmax = ""; cmin = ""
			for (p = 1; p <= pairs; p++) {
				if (got["rev", w, m, p]) { pv[++np] = val["rev", w, m, p]; pmax = (pmax == "" || pv[np] > pmax) ? pv[np] : pmax; pmin = (pmin == "" || pv[np] < pmin) ? pv[np] : pmin }
				if (got["work", w, m, p]) { cv[++nc] = val["work", w, m, p]; cmax = (cmax == "" || cv[nc] > cmax) ? cv[nc] : cmax; cmin = (cmin == "" || cv[nc] < cmin) ? cv[nc] : cmin }
				if (got["rev", w, m, p] && got["work", w, m, p]) {
					n++; a = val["rev", w, m, p]; b = val["work", w, m, p]
					if (lower ? b < a : b > a) wins++
				}
			}
			if (np == 0 || nc == 0) continue
			sortv(pv, np); sortv(cv, nc)
			quartiles(cv, nc); cmed = q2
			quartiles(pv, np); pmed = q2
			worse = pmed == 0 ? 0 : (lower ? cmed - pmed : pmed - cmed) / (pmed < 0 ? -pmed : pmed)
			spread = pmed == 0 ? 0 : (q3 - q1) / (pmed < 0 ? -pmed : pmed)
			allbetter = lower ? cmax < pmin : cmin > pmax
			if (wins * 10 >= 9 * n && -worse * (pmed < 0 ? -pmed : pmed) > q3 - q1) verdict = "gain"
			else if (spread > bound[m] && !allbetter) verdict = "unresolved"
			else if (worse > bound[m]) verdict = "OUTSIDE"
			else verdict = "inside"
			printf "%-14s %-24s %12.6g %12.6g..%-12.6g %12.6g %+7.1f%% %3d/%-2d  %s (bound %g%%)\n", w, m, pmed, q1, q3, cmed,
				pmed == 0 ? 0 : 100 * (cmed - pmed) / (pmed < 0 ? -pmed : pmed), wins, n, verdict, 100 * bound[m]
		}
		printf "%-14s failed exchanges: %d; runs with a failed oracle: %d\n", w, failed[w], bad[w]
	}
}' BENCHMARK.json "$tmp/runs"
exit "$status"
