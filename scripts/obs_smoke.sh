#!/bin/sh
# Ops-endpoint smoke: start xdxd with -metrics-addr, check /healthz answers
# ok and /metrics serves a JSON snapshot that includes the soap server
# counters, then shut the daemon down. Ports are fixed but obscure; override
# with XDX_SMOKE_PORT / XDX_SMOKE_OPS_PORT if they clash locally.
set -eu

cd "$(dirname "$0")/.."

PORT="${XDX_SMOKE_PORT:-18080}"
OPS_PORT="${XDX_SMOKE_OPS_PORT:-19100}"
BIN="$(mktemp -d)"
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$BIN"' EXIT

go build -o "$BIN/xdxd" ./cmd/xdxd
"$BIN/xdxd" -listen "127.0.0.1:$PORT" -metrics-addr "127.0.0.1:$OPS_PORT" &
PID=$!

# Wait for the ops listener (the daemon starts it before serving SOAP).
i=0
until curl -fsS "http://127.0.0.1:$OPS_PORT/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
        echo "obs_smoke: ops endpoint never came up" >&2
        exit 1
    fi
    sleep 0.1
done

HEALTH="$(curl -fsS "http://127.0.0.1:$OPS_PORT/healthz")"
[ "$HEALTH" = "ok" ] || { echo "obs_smoke: /healthz said '$HEALTH'" >&2; exit 1; }

# Drive one SOAP request (a bad one is fine — faults are counted too) so
# the snapshot carries live counters, then check it parses as JSON and
# mentions the soap server metrics.
curl -fsS -X POST -H 'Content-Type: text/xml' -d '<not-soap/>' \
    "http://127.0.0.1:$PORT/soap" >/dev/null 2>&1 || true

METRICS="$(curl -fsS "http://127.0.0.1:$OPS_PORT/metrics")"
echo "$METRICS" | grep -q '"soap.server.requests"' || {
    echo "obs_smoke: /metrics missing soap.server.requests: $METRICS" >&2
    exit 1
}
echo "$METRICS" | python3 -c 'import json,sys; json.load(sys.stdin)' 2>/dev/null \
    || echo "$METRICS" | grep -q '^{' \
    || { echo "obs_smoke: /metrics is not JSON: $METRICS" >&2; exit 1; }

kill "$PID"
echo "obs_smoke: ok ($METRICS)"
