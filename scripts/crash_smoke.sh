#!/bin/sh
# Process-kill smoke: a durable (-wal-dir) target endpoint is SIGKILLed in
# the middle of a reliable exchange driven through xdxd — while the source
# streams its shipment straight into the target — restarted over the same
# WAL directory, and the exchange must still complete: the source holds
# its render, and the agency probes the restarted target and re-issues
# from the journaled checkpoint (resumes >= 1) without re-shipping
# committed chunks (declined = 0). The shell twin of
# TestKillRestartChildEndpoint; this one exercises the real binaries end
# to end.
#
# The dance runs under the fsync policy whose acks claim crash safety:
# "batch" (group commit). The kill waits for fsyncs >= 2 as well as a few
# appends, so a synced chunk prefix exists on disk — acked chunks are
# exactly the fsynced ones. It runs twice: the "batch" arm never compacts
# (-snapshot-every 0); the "compact" arm first runs one exchange to
# completion, so the WAL holds an ended session's frames as garbage, then
# restarts the target with -snapshot-every 8 — its first append compacts
# the log — and kills it only once a compaction has rewritten the log
# (wal.snapshots >= 1), so the restart recovers from a rewritten log.
# Ports are fixed but obscure; override with XDX_CRASH_*_PORT if they
# clash locally.
set -eu

cd "$(dirname "$0")/.."

SRC_PORT="${XDX_CRASH_SRC_PORT:-18180}"
TGT_PORT="${XDX_CRASH_TGT_PORT:-18181}"
TGT_OPS_PORT="${XDX_CRASH_TGT_OPS_PORT:-19180}"
AGENCY_PORT="${XDX_CRASH_AGENCY_PORT:-18182}"
WORK="$(mktemp -d)"
SRC_PID=""
TGT_PID=""
AGENCY_PID=""
# Kill each started PID on its own: dash's kill stops at an empty argument
# ("Illegal number"), so one unset PID would spare every PID after it.
trap 'for pid in $SRC_PID $TGT_PID $AGENCY_PID; do kill -9 "$pid" 2>/dev/null || true; done; rm -rf "$WORK"' EXIT

go build -o "$WORK/xdxendpoint" ./cmd/xdxendpoint
go build -o "$WORK/xdxd" ./cmd/xdxd
go build -o "$WORK/xdxgen" ./cmd/xdxgen

wait_http() { # url what
    i=0
    until curl -fsS "$1" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 100 ]; then
            echo "crash_smoke: $2 never came up" >&2
            exit 1
        fi
        sleep 0.1
    done
}

metric() { # name -> value (empty if unreadable)
    curl -fsS "http://127.0.0.1:$TGT_OPS_PORT/metrics" 2>/dev/null \
        | sed -n "s/.*\"$1\": \([0-9]*\).*/\1/p" || true
}

# Big enough that the delivery spans many poll intervals below; at 400 KB
# the batch arm's group commit made the whole exchange faster than the
# first metrics scrape, so the kill landed after the response (flaky).
"$WORK/xdxgen" -size 1600000 -seed 42 -out "$WORK/doc.xml"

"$WORK/xdxendpoint" -listen "127.0.0.1:$SRC_PORT" -layout MF -name src \
    -data "$WORK/doc.xml" >/dev/null 2>&1 &
SRC_PID=$!

start_target() { # fsync-policy wal-dir snapshot-every
    # -batch-frames 8 keeps the group commit real (8-frame groups) while
    # pacing the delivery with a sync per group, so the kill window stays
    # wide; the default 256-frame groups let the whole exchange coalesce
    # into a couple of syncs and finish before the poll loop samples it.
    "$WORK/xdxendpoint" -listen "127.0.0.1:$TGT_PORT" -layout LF -name tgt \
        -wal-dir "$2" -fsync "$1" -snapshot-every "$3" -batch-frames 8 \
        -metrics-addr "127.0.0.1:$TGT_OPS_PORT" >/dev/null 2>&1 &
    TGT_PID=$!
    wait_http "http://127.0.0.1:$TGT_OPS_PORT/healthz" "target endpoint"
}

wait_http "http://127.0.0.1:$SRC_PORT/" "source endpoint"

# A patient retry policy: the restart below takes a few hundred ms and the
# driver must keep retrying across it.
"$WORK/xdxd" -listen "127.0.0.1:$AGENCY_PORT" -chunk 8 \
    -retry-attempts 12 -retry-budget 64 -breaker-failures 50 \
    -breaker-cooldown 100ms >/dev/null 2>&1 &
AGENCY_PID=$!
wait_http "http://127.0.0.1:$AGENCY_PORT/wsdl" "agency"

soap_call() { # body
    curl -fsS -X POST -H 'Content-Type: text/xml' -d \
        "<soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\"><soap:Body>$1</soap:Body></soap:Envelope>" \
        "http://127.0.0.1:$AGENCY_PORT/soap"
}

soap_call "<Discover service=\"Auction\" role=\"source\" url=\"http://127.0.0.1:$SRC_PORT/soap\"/>" >/dev/null

run_arm() { # name snapshot-every
    ARM="$1"
    EVERY="$2"
    FSYNC=batch
    WAL="$WORK/wal-$ARM"
    MIN_SNAPSHOTS=0
    if [ "$EVERY" -gt 0 ]; then
        # One exchange to completion leaves its ended session in the WAL
        # as garbage; the restart below turns compaction on.
        start_target "$FSYNC" "$WAL" 0
        soap_call "<Discover service=\"Auction\" role=\"target\" url=\"http://127.0.0.1:$TGT_PORT/soap\"/>" >/dev/null
        soap_call '<Exchange service="Auction"/>' >/dev/null || {
            echo "crash_smoke[$ARM]: warm-up exchange failed" >&2
            exit 1
        }
        kill "$TGT_PID"
        wait "$TGT_PID" 2>/dev/null || true
        MIN_SNAPSHOTS=1
    fi
    start_target "$FSYNC" "$WAL" "$EVERY"
    soap_call "<Discover service=\"Auction\" role=\"target\" url=\"http://127.0.0.1:$TGT_PORT/soap\"/>" >/dev/null

    # Drive the exchange in the background, then kill the target once its
    # WAL has journaled a few chunk commits — mid-delivery by construction —
    # and synced twice: the first commit group must be durably on disk, not
    # just queued, or there is nothing to resume. The compact arm also
    # waits for a compaction.
    soap_call '<Exchange service="Auction"/>' >"$WORK/exchange.xml" 2>"$WORK/exchange.err" &
    EXCHANGE_PID=$!

    i=0
    while :; do
        APPENDS="$(metric 'wal\.appends')"
        READY=0
        if [ -n "${APPENDS:-}" ] && [ "$APPENDS" -ge 3 ]; then
            FSYNCS="$(metric 'wal\.fsyncs')"
            SNAPSHOTS="$(metric 'wal\.snapshots')"
            [ -n "${FSYNCS:-}" ] && [ "$FSYNCS" -ge 2 ] &&
                [ "${SNAPSHOTS:-0}" -ge "$MIN_SNAPSHOTS" ] && READY=1
        fi
        [ "$READY" = 1 ] && break
        if ! kill -0 "$EXCHANGE_PID" 2>/dev/null; then
            echo "crash_smoke[$ARM]: exchange finished before the kill — widen the window" >&2
            cat "$WORK/exchange.err" >&2 || true
            exit 1
        fi
        i=$((i + 1))
        if [ "$i" -gt 1500 ]; then
            echo "crash_smoke[$ARM]: target never journaled enough appends" >&2
            exit 1
        fi
        sleep 0.02
    done

    # The kill is only meaningful mid-delivery; a response that completed
    # in the sampling gap would pass `wait` below with resumes=0.
    if ! kill -0 "$EXCHANGE_PID" 2>/dev/null; then
        echo "crash_smoke[$ARM]: exchange finished before the kill — widen the window" >&2
        exit 1
    fi

    kill -9 "$TGT_PID"
    wait "$TGT_PID" 2>/dev/null || true
    start_target "$FSYNC" "$WAL" "$EVERY"

    if ! wait "$EXCHANGE_PID"; then
        echo "crash_smoke[$ARM]: exchange did not survive the kill+restart" >&2
        cat "$WORK/exchange.err" >&2 || true
        exit 1
    fi

    RESP="$(cat "$WORK/exchange.xml")"
    echo "$RESP" | grep -q 'ExchangeResponse' || {
        echo "crash_smoke[$ARM]: no ExchangeResponse: $RESP" >&2
        exit 1
    }
    RESUMES="$(echo "$RESP" | sed -n 's/.*resumes="\([0-9]*\)".*/\1/p')"
    DECLINED="$(echo "$RESP" | sed -n 's/.*declined="\([0-9]*\)".*/\1/p')"
    [ -n "$RESUMES" ] && [ "$RESUMES" -ge 1 ] || {
        echo "crash_smoke[$ARM]: expected resumes >= 1, got '$RESUMES': $RESP" >&2
        exit 1
    }
    [ "$DECLINED" = "0" ] || {
        echo "crash_smoke[$ARM]: expected declined=0, got '$DECLINED': $RESP" >&2
        exit 1
    }
    echo "crash_smoke: $ARM ok (resumes=$RESUMES declined=$DECLINED)"

    kill -9 "$TGT_PID"
    wait "$TGT_PID" 2>/dev/null || true
    TGT_PID=""
}

run_arm batch 0
run_arm compact 8
echo "crash_smoke: ok"
