#!/bin/sh
# servesmoke: the simulation service end to end, under the race
# detector, with an exit-time goroutine-leak check.
#
#   1. build otserve with -race and -leakcheck armed, otload plain
#   2. start otserve on an ephemeral port, discover the port from its
#      startup line
#   3. drive it past capacity with otload, including a flooding client
#      the fairness layer must isolate — otload exits non-zero on any
#      transport error or 5xx, and unless enough jobs completed
#   4. replay three streamed sessions end to end (a pixel grid and a
#      Gnp graph, both healthy and so on the packed engine,
#      then scalar with supervised fault arrivals) — every update batch
#      must come back as a 200 report
#   5. SIGTERM otserve and propagate its exit code: 0 means the drain
#      finished every admitted job AND the goroutine count returned to
#      the pre-server baseline (2 = drain failure, 3 = leak)
set -e
GO=${GO:-go}
TMP=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "servesmoke: building (otserve with -race)"
$GO build -race -o "$TMP/otserve" ./cmd/otserve
$GO build -o "$TMP/otload" ./cmd/otload

"$TMP/otserve" -addr 127.0.0.1:0 -workers 2 -queue 8 \
    -rate 100 -burst 25 -leakcheck 2>"$TMP/serve.log" &
SERVE_PID=$!

ADDR=""
tries=0
while [ $tries -lt 100 ]; do
    ADDR=$(sed -n 's/^otserve: listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/serve.log")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "servesmoke: otserve died at startup:" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "servesmoke: otserve never reported its address" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
echo "servesmoke: otserve up at $ADDR"

echo "servesmoke: offered load 300/s for 2s + flooding client (capacity ~2 workers)"
"$TMP/otload" -url "http://$ADDR" -rate 300 -duration 2s -arrival bursty \
    -misbehave -n 16 -minok 50

echo "servesmoke: streamed session (grid, packed, 16 batches)"
"$TMP/otload" -url "http://$ADDR" -session -n 256 -grid \
    -batches 16 -batchsize 4 -minok 16

echo "servesmoke: streamed session (Gnp, healthy: packed)"
"$TMP/otload" -url "http://$ADDR" -session -n 64 \
    -batches 16 -batchsize 4 -minok 16

echo "servesmoke: streamed session (scalar, supervised arrivals)"
"$TMP/otload" -url "http://$ADDR" -session -n 16 -events 2 \
    -batches 8 -batchsize 2 -minok 8

echo "servesmoke: SIGTERM -> drain"
kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then
    code=0
else
    code=$?
fi
SERVE_PID=""
if [ "$code" -ne 0 ]; then
    echo "servesmoke: otserve exited $code (2 = drain failure, 3 = goroutine leak):" >&2
    cat "$TMP/serve.log" >&2
    exit "$code"
fi
grep -q 'leakcheck ok' "$TMP/serve.log" || {
    echo "servesmoke: leakcheck line missing from otserve log" >&2
    cat "$TMP/serve.log" >&2
    exit 1
}
echo "servesmoke: clean drain, zero leaked goroutines"
