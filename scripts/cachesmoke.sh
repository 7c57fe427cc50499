#!/bin/sh
# cachesmoke: the compute-once/serve-many path end to end, under the
# race detector, with an exit-time goroutine-leak check.
#
#   1. build otserve with -race and -leakcheck armed, otload plain
#   2. start otserve on an ephemeral port (per-client rate limiting
#      off: the result cache sits after admission by design, so a
#      token bucket would shed the very repeats this smoke submits)
#   3. cold + warm request of one spec: the repeat must carry
#      X-Result-Cache: hit and its body must be byte-identical to the
#      first execution's modulo job_id and the "cached" mark
#   4. drive a zipf-popular otload workload (8 specs, hot head) and
#      require that the run's ledger counted cache-served answers
#   5. /metrics must report a result_cache block with hits
#   6. SIGTERM otserve and propagate its exit code: 0 means the drain
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

echo "cachesmoke: building (otserve with -race)"
$GO build -race -o "$TMP/otserve" ./cmd/otserve
$GO build -o "$TMP/otload" ./cmd/otload

"$TMP/otserve" -addr 127.0.0.1:0 -workers 2 -queue 8 \
    -rate -1 -leakcheck 2>"$TMP/serve.log" &
SERVE_PID=$!

ADDR=""
tries=0
while [ $tries -lt 100 ]; do
    ADDR=$(sed -n 's/^otserve: listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/serve.log")
    [ -n "$ADDR" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "cachesmoke: otserve died at startup:" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
    tries=$((tries + 1))
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "cachesmoke: otserve never reported its address" >&2
    cat "$TMP/serve.log" >&2
    exit 1
fi
echo "cachesmoke: otserve up at $ADDR"

echo "cachesmoke: cold + warm request, byte identity modulo job_id/cached"
SPEC='{"alg":"cc","n":64,"seed":424242}'
curl -sf -D "$TMP/h1" -o "$TMP/r1.json" -d "$SPEC" "http://$ADDR/jobs"
curl -sf -D "$TMP/h2" -o "$TMP/r2.json" -d "$SPEC" "http://$ADDR/jobs"
if grep -qi 'x-result-cache' "$TMP/h1"; then
    echo "cachesmoke: first execution unexpectedly marked as cache-served" >&2
    exit 1
fi
grep -qi 'x-result-cache: hit' "$TMP/h2" || {
    echo "cachesmoke: warm repeat missing X-Result-Cache: hit" >&2
    cat "$TMP/h2" >&2
    exit 1
}
# Normalize both reports: drop the two fields the cache is allowed to
# change (the submitter's job id and the "cached" mark) and trailing
# commas, then require byte equality of everything that remains.
norm() { sed -e '/"job_id"/d' -e '/"cached"/d' -e 's/,$//' "$1"; }
norm "$TMP/r1.json" >"$TMP/n1"
norm "$TMP/r2.json" >"$TMP/n2"
if ! cmp -s "$TMP/n1" "$TMP/n2"; then
    echo "cachesmoke: cached answer diverges from first execution:" >&2
    diff "$TMP/n1" "$TMP/n2" >&2 || true
    exit 1
fi
grep -q '"cached": true' "$TMP/r2.json" || {
    echo "cachesmoke: warm report missing \"cached\": true" >&2
    exit 1
}

echo "cachesmoke: zipf workload (8 specs, skew 1.4, 300/s for 2s)"
"$TMP/otload" -url "http://$ADDR" -rate 300 -duration 2s \
    -alg cc -n 64 -zipf 8 -zipfs 1.4 -minok 200 -json >"$TMP/load.json"
HITS=$(sed -n 's/^  "cache_hits": \([0-9]*\),*$/\1/p' "$TMP/load.json" | head -1)
COAL=$(sed -n 's/^  "cache_coalesced": \([0-9]*\),*$/\1/p' "$TMP/load.json" | head -1)
echo "cachesmoke: ledger: $HITS hits, $COAL coalesced"
if [ -z "$HITS" ] || [ "$HITS" -lt 100 ]; then
    echo "cachesmoke: expected >=100 cache hits under the zipf workload, got '$HITS'" >&2
    cat "$TMP/load.json" >&2
    exit 1
fi

curl -sf "http://$ADDR/metrics" >"$TMP/metrics.json"
grep -q '"result_cache"' "$TMP/metrics.json" || {
    echo "cachesmoke: /metrics missing the result_cache block" >&2
    cat "$TMP/metrics.json" >&2
    exit 1
}

echo "cachesmoke: SIGTERM -> drain"
kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then
    code=0
else
    code=$?
fi
SERVE_PID=""
if [ "$code" -ne 0 ]; then
    echo "cachesmoke: otserve exited $code (2 = drain failure, 3 = goroutine leak):" >&2
    cat "$TMP/serve.log" >&2
    exit "$code"
fi
grep -q 'leakcheck ok' "$TMP/serve.log" || {
    echo "cachesmoke: leakcheck line missing from otserve log" >&2
    cat "$TMP/serve.log" >&2
    exit 1
}
echo "cachesmoke: clean drain, zero leaked goroutines, compute-once verified"
