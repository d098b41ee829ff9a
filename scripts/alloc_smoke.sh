#!/bin/sh
# Allocation-regression smoke: short runs of BenchmarkFigure9_EndToEnd,
# BenchmarkShipmentCodecParallel, BenchmarkShipmentCodecStream,
# BenchmarkReliableExchangeDurable/batch,
# BenchmarkChainedCombine/spread/k=8, BenchmarkSubstrate_Parse,
# BenchmarkTable4_LoadIndex_MF, BenchmarkDiffShipment, BenchmarkApplyDelta
# and BenchmarkSourceRender, compared against
# the committed baselines below. The first is the in-process end-to-end
# path — row slabs, splitter and shredder arenas, pooled codec state; the
# second is
# the bin+flate shipment codec on the chunk codec pool, whose decoder takes
# nodes, child slices and strings out of per-chunk slabs (Figure 9 never
# decodes a shipment, so it cannot see that); the third is the tagged-XML
# (xml) codec both ways, the only row on the path every negotiation falls
# back to, whose scanner takes attribute values out of a per-scan string
# slab and whose decoder stages each chunk in an arena-carved slice; the
# fourth is the only snapshot benchmark of a whole reliable exchange over
# real endpoints, so the only one that sees what direct delivery allocates
# per chunk — the source rendering its chunks straight onto its request
# to the target, with the agency off the data path — and the only one
# through a journaled target's commit path; its bytes are gated too, so
# per-record idempotency state cannot creep back into a chunk commit; the fifth is 1,600 attaches each under a parent of its own, whose
# kid slices grow out of the joiner's arena (the k-Combines-into-one-root
# rows amortise a per-attach allocation away and would not see it); the
# sixth is xmltree.Parse of a 500 KB XMark document, the tree reader behind
# every WSDL registration, the agency index and every Client.Call response,
# which runs on the one tokenizer with a pooled read window; the seventh is
# Table 4's load-then-index step, the only row that builds the store's
# indexes, whose slots and key and row arrays are one allocation per index
# — its bytes are gated as well as its allocations, since an index that
# grows its arrays the way append does costs bytes long before it costs
# objects; the eighth is a source's warm reconciliation of a 1 % churn
# round over ≈ 64k MF records, one pass that hashes, diffs and files each
# record into pointer-free per-edge columns — bytes gated too, since the
# columns are sized per record and a per-record map would show in bytes
# first; the ninth is a target landing a warm 1 % churn delta on the 2.5 MB
# XMark document's LF store as row edits — bytes gated too, since an apply
# that rebuilt, reloaded or re-indexed the store would cost its size, not
# the churn's; the tenth is a source's render and encode of an XMark MF→LF
# shipment, whose ship-only Scans build each chunk's records from a row
# snapshot into a pooled scratch — bytes gated too, since a render that
# held a tree per shipped record again would cost the document's size in
# bytes while its slab-carved nodes barely move the allocation count. A >25%
# allocs/op (or, where gated, B/op) regression on any of them means someone
# reintroduced a per-record allocation, and the gate should say so before a
# slow benchmark run does. Wall-clock is deliberately not checked —
# allocs/op is load-independent, time on a busy CI box is not.
set -eu

cd "$(dirname "$0")/.."

# Baselines (allocs/op), each with the commit it was measured at. They
# live here rather than in a BENCH_N.json so a change that lowers an allocation
# count re-baselines one line instead of re-taking a noisy ns/op snapshot.
# "wal-payload" is the commit that follows 6a5c8f6 and journals chunks as
# their wire payloads; its two re-baselined counts were 403 and 13344 at
# 6a5c8f6 on the same machine. "one-codec-path" is the commit that follows
# 0332f03 and makes the codec pool the only way a chunk renders or parses;
# the gate used to read the deleted in-line path's w1 row (387 at
# wal-payload), and the pool's single row reads 387-391 at 20x on 2 CPUs.
# "slab-scan" is the commit that follows 7337e3f and gives the tokenizer a
# per-scan string slab for attribute values. On 2 CPUs the xml codec row
# read 10437 at 7337e3f and reads 210-213 at 20x; the slab also took the
# bin+flate row from 387 to 286-296 and the durable row from 11397 to
# 6625-6635. "one-reader" is the commit that follows dfba443 and makes the
# hand-rolled scanner the only XML tokenizer: Substrate_Parse read 117018 at
# dfba443, where Parse ran on encoding/xml, and reads 29086 at 20x.
# "pointer-free-index" is the commit that follows b0f9c8b and files the
# store's indexes in int32 hash tables: Table4_LoadIndex_MF read 930
# allocs/op and 1941699 B/op at b0f9c8b, and reads 646 and 1129246-1129256
# at 10x. "one-pass-recon" is the commit that follows 6e8b360 and makes
# reconciliation one pass over per-edge columns: DiffShipment's loop body
# run at 6e8b360 (HashShipment, then the map-based DiffShipment, as the
# source ran them per exchange) read 740 allocs/op and 7095776-7095781
# B/op at 3x, and reads 239 and 2231280-2231285. "one-commit" is the
# commit that follows 553ed7d and makes the chunk checkpoint the target's
# only idempotency key: ReliableExchangeDurable/batch read 6561-6591
# allocs/op and 1998832-2159336 B/op at 553ed7d on 2 CPUs, and reads
# 6430-6449 and 1899736-2125978. "direct-delivery" is the commit that
# follows 622d3da and takes the agency out of the data path:
# ReliableExchangeDurable/batch read 6415-6444 allocs/op and
# 2018568-2142045 B/op at 622d3da on 2 CPUs, and reads 6389-6440 and
# 1655912-1771850; Substrate_Parse reads 29087 at both, so its baseline
# stays. "row-edit-delta" is the commit that follows 6fd28c7 and lands a
# delta as row edits on the target's store; BenchmarkApplyDelta is new
# there and reads 1100 allocs/op and 624680 B/op at 3x on 2 CPUs, over a
# churn that deletes, inserts, moves and swaps instances and rewrites
# leaves (551 and 181909 without the moves and swaps). "window-lexer" is
# the commit that follows 27d18e0 and lexes every XML construct out of the
# tokenizer's pooled read window: on 2 CPUs at 20x ShipmentCodecStream read
# 213 allocs/op at 27d18e0 and reads 177-188, and Substrate_Parse read 29087
# and reads 29054. "row-render" is the commit that follows 6349adc and
# builds ship-only Scans' chunks from row snapshots: on 2 CPUs at 3x
# ReliableExchangeDurable/batch read 1605088-1694978 B/op over nine runs at
# 6349adc and reads 1448453-1706549 over ten, so its byte baseline is
# re-taken from 1771850 (direct-delivery) at the top of that range;
# SourceRender is new there and reads 767-794 allocs/op and
# 1636522-1675981 B/op over seven runs (the same loop over ScanFragment's
# trees read 751-784 and 4482448-4578514 at 6349adc).
FIGURE9_END_TO_END=54833             # 5ebdd14 (BENCH_13.json)
SHIPMENT_CODEC_PARALLEL=296          # slab-scan, 20x
SHIPMENT_CODEC_STREAM=188            # window-lexer, 20x
RELIABLE_EXCHANGE_DURABLE_BATCH=6440 # direct-delivery
RELIABLE_EXCHANGE_DURABLE_BATCH_BYTES=1706549 # row-render
CHAINED_COMBINE_SPREAD_K8=217        # 5ebdd14 (BENCH_13.json)
SUBSTRATE_PARSE=29054                # window-lexer, 20x
TABLE4_LOAD_INDEX_MF=646             # pointer-free-index, 10x
TABLE4_LOAD_INDEX_MF_BYTES=1129256   # pointer-free-index, 10x
DIFF_SHIPMENT=239                    # one-pass-recon
DIFF_SHIPMENT_BYTES=2231285          # one-pass-recon
APPLY_DELTA=1100                     # row-edit-delta, 3x
APPLY_DELTA_BYTES=624680             # row-edit-delta, 3x
SOURCE_RENDER=794                    # row-render, 3x
SOURCE_RENDER_BYTES=1675981          # row-render, 3x

# gate NAME UNIT BASE OUTPUT: read UNIT off the benchmark OUTPUT and fail
# when it exceeds BASE by more than 25%.
gate() {
	got="$(echo "$4" | awk -v u="$2" '/^Benchmark/ { for (i = 1; i < NF; i++) if ($(i + 1) == u) print $i }')"
	[ -n "$got" ] || { echo "alloc_smoke: Benchmark$1 did not report $2" >&2; exit 1; }
	limit=$(($3 + $3 / 4))
	if [ "$got" -gt "$limit" ]; then
		echo "alloc_smoke: Benchmark$1 $2 $got exceeds the baseline $3 by >25% (limit $limit)" >&2
		exit 1
	fi
	echo "alloc_smoke: $1 $2 $got within 25% of baseline $3 (limit $limit)"
}

# check NAME PKG BASE [BENCHTIME [BYTES]]: NAME is the benchmark name
# without the Benchmark prefix; BENCHTIME defaults to 3x. BASE is the
# allocs/op baseline and BYTES, when given, the B/op one.
check() {
	out="$(go test -run '^$' -bench "Benchmark$1\$" -benchmem -benchtime "${4:-3x}" "$2" 2>&1)" ||
		{ echo "$out" >&2; exit 1; }
	gate "$1" allocs/op "$3" "$out"
	if [ -n "${5:-}" ]; then
		gate "$1" B/op "$5" "$out"
	fi
}

check Figure9_EndToEnd . "$FIGURE9_END_TO_END"
# The codec pool fills its pooled job slots and chunk buffers over the
# first iterations; at 3x that warm-up reads as 420-470 allocs/op, so this
# row runs long enough to amortize it.
check ShipmentCodecParallel ./internal/wire/ "$SHIPMENT_CODEC_PARALLEL" 20x
check ShipmentCodecStream ./internal/wire/ "$SHIPMENT_CODEC_STREAM" 20x
check ReliableExchangeDurable/batch ./internal/registry/ "$RELIABLE_EXCHANGE_DURABLE_BATCH" 3x "$RELIABLE_EXCHANGE_DURABLE_BATCH_BYTES"
check ChainedCombine/spread/k=8 ./internal/core/ "$CHAINED_COMBINE_SPREAD_K8"
check Substrate_Parse . "$SUBSTRATE_PARSE" 20x
check Table4_LoadIndex_MF . "$TABLE4_LOAD_INDEX_MF" 10x "$TABLE4_LOAD_INDEX_MF_BYTES"
check DiffShipment ./internal/reliable/ "$DIFF_SHIPMENT" 3x "$DIFF_SHIPMENT_BYTES"
check ApplyDelta ./internal/relstore/ "$APPLY_DELTA" 3x "$APPLY_DELTA_BYTES"
check SourceRender ./internal/endpoint/ "$SOURCE_RENDER" 3x "$SOURCE_RENDER_BYTES"
