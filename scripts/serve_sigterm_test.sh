#!/usr/bin/env sh
# Graceful-shutdown test for the serving daemon, run as a ctest case
# (serve_sigterm_drains) and as part of the live-service leg in check.sh.
#
#   serve_sigterm_test.sh MLSI_SERVE MLSI_TOP OBS_CHECK REQUESTS SCHEMA \
#       SPLIT_REQUEST
#
# Starts mlsi_serve on a Unix socket with metrics and the flight recorder
# armed (the tracer stays off, as in production), drives the canned request
# stream through the socket, then SPLIT_REQUEST, a clockwise case whose
# solve splits its first-pin loop over worker threads. It then sends
# SIGTERM and asserts that the daemon (a) exits 0 after draining, and (b)
# flushed its metrics snapshot and flight-recorder dump, both of which must
# validate with obs_check; the dump must hold the split's cp.subtree spans
# under that name.
set -eu

if [ "$#" -ne 6 ]; then
    echo "usage: $0 MLSI_SERVE MLSI_TOP OBS_CHECK REQUESTS SCHEMA" \
         "SPLIT_REQUEST" >&2
    exit 2
fi
serve_bin="$1"; top_bin="$2"; check_bin="$3"; requests="$4"; schema="$5"
split_request="$6"

work="$(mktemp -d)"
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill -KILL "$server_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

sock="$work/mlsi.sock"
"$serve_bin" --socket "$sock" --jobs 2 --quiet \
    --metrics-out "$work/metrics.json" \
    --flight-rec "$work/flight.jsonl" &
server_pid=$!

# The listener is up once the socket exists.
i=0
while [ ! -S "$sock" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
        echo "FAIL: daemon did not open $sock" >&2
        exit 1
    fi
    if ! kill -0 "$server_pid" 2>/dev/null; then
        echo "FAIL: daemon died before opening the socket" >&2
        exit 1
    fi
    sleep 0.1
done

# Drive real requests (twice: the repeat pass lands cache hits) and one
# stats poll so the flight recorder and stage histograms have content.
"$top_bin" --socket "$sock" --send "$requests" > "$work/responses.jsonl"
"$top_bin" --socket "$sock" --send "$requests" >> "$work/responses.jsonl"
"$top_bin" --socket "$sock" --send "$split_request" > "$work/split.jsonl"
"$top_bin" --socket "$sock" --once --json > "$work/top.json"

kill -TERM "$server_pid"
rc=0
wait "$server_pid" || rc=$?
server_pid=""
if [ "$rc" -ne 0 ]; then
    echo "FAIL: daemon exited $rc after SIGTERM (want 0 after drain)" >&2
    exit 1
fi

for f in metrics.json flight.jsonl; do
    if [ ! -s "$work/$f" ]; then
        echo "FAIL: SIGTERM drain did not flush $f" >&2
        exit 1
    fi
done
"$check_bin" --metrics "$work/metrics.json" --schema "$schema" \
    --flight-rec "$work/flight.jsonl"
if ! grep -q '"name":"cp.subtree","ph":"E"' "$work/flight.jsonl"; then
    echo "FAIL: the flight recorder holds no cp.subtree span" >&2
    exit 1
fi
if ! grep -q '"status":"ok"' "$work/split.jsonl"; then
    echo "FAIL: the clockwise split request was not answered ok" >&2
    exit 1
fi

if ! grep -q '"status":"ok"' "$work/responses.jsonl"; then
    echo "FAIL: no successful responses before shutdown" >&2
    exit 1
fi
echo "serve_sigterm_test: PASS (drained, flushed, validated)"
