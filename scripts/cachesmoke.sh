#!/bin/sh
# cachesmoke: the compute-once/serve-many path end to end, under the
# race detector, with an exit-time goroutine-leak check.
#
#   1. build otserve with -race and -leakcheck armed, otload plain
#   2. start two otserves on ephemeral ports, identical but for the
#      result cache: on (the default budget) and off (-rescache -1).
#      Per-client rate limiting is off on both: the result cache sits
#      after admission by design, so a token bucket would shed the
#      very repeats this smoke submits
#   3. cold + warm request of one spec on the cache-on server: the
#      repeat must carry X-Result-Cache: hit and its body must be
#      byte-identical to the first execution's modulo job_id and the
#      "cached" mark; the cache-off server's execution of the same spec
#      must be byte-identical to both under the same normalization
#   4. drive the same zipf-popular otload workload (8 specs, hot head,
#      supervised cc jobs that overload two workers) at each server and
#      require:
#        - cache-on completed jobs/s >= 5x cache-off
#        - cache-on p99 below cache-off p99
#        - hits + coalesced >= 80% of the cache-on side's answers
#        - a shed rate above 0 on the cache-off side, so the comparison
#          is made past capacity
#        - no 400 on either side (otload itself exits 1 on any 5xx or
#          transport error)
#   5. /metrics on the cache-on server must report a result_cache block
#   6. SIGTERM both otserves and propagate their exit codes: 0 means
#      the drain finished every admitted job AND the goroutine count
#      returned to the pre-server baseline (2 = drain failure,
#      3 = leak)
set -e
GO=${GO:-go}
TMP=$(mktemp -d)
ON_PID=""
OFF_PID=""
cleanup() {
    [ -n "$ON_PID" ] && kill "$ON_PID" 2>/dev/null
    [ -n "$OFF_PID" ] && kill "$OFF_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "cachesmoke: building (otserve with -race)"
$GO build -race -o "$TMP/otserve" ./cmd/otserve
$GO build -o "$TMP/otload" ./cmd/otload

# start_server <name> [otserve flags...]: launch otserve on an
# ephemeral port, logging to $TMP/<name>.log; sets PID and ADDR.
start_server() {
    name=$1
    shift
    "$TMP/otserve" -addr 127.0.0.1:0 -workers 2 -queue 8 \
        -rate -1 -leakcheck "$@" 2>"$TMP/$name.log" &
    PID=$!
    ADDR=""
    tries=0
    while [ $tries -lt 100 ]; do
        ADDR=$(sed -n 's/^otserve: listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/$name.log")
        [ -n "$ADDR" ] && break
        if ! kill -0 "$PID" 2>/dev/null; then
            echo "cachesmoke: otserve ($name) died at startup:" >&2
            cat "$TMP/$name.log" >&2
            exit 1
        fi
        tries=$((tries + 1))
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "cachesmoke: otserve ($name) never reported its address" >&2
        cat "$TMP/$name.log" >&2
        exit 1
    fi
    echo "cachesmoke: otserve ($name) up at $ADDR"
}
start_server on
ON_PID=$PID
ON_ADDR=$ADDR
start_server off -rescache -1
OFF_PID=$PID
OFF_ADDR=$ADDR

echo "cachesmoke: cold + warm request, byte identity modulo job_id/cached"
SPEC='{"alg":"cc","n":64,"seed":424242}'
curl -sf -D "$TMP/h1" -o "$TMP/r1.json" -d "$SPEC" "http://$ON_ADDR/jobs"
curl -sf -D "$TMP/h2" -o "$TMP/r2.json" -d "$SPEC" "http://$ON_ADDR/jobs"
curl -sf -D "$TMP/h3" -o "$TMP/r3.json" -d "$SPEC" "http://$OFF_ADDR/jobs"
if grep -qi 'x-result-cache' "$TMP/h1" "$TMP/h3"; then
    echo "cachesmoke: a first execution was unexpectedly marked as cache-served" >&2
    exit 1
fi
grep -qi 'x-result-cache: hit' "$TMP/h2" || {
    echo "cachesmoke: warm repeat missing X-Result-Cache: hit" >&2
    cat "$TMP/h2" >&2
    exit 1
}
# Normalize the reports: drop the two fields the cache is allowed to
# change (the submitter's job id and the "cached" mark) and trailing
# commas, then require byte equality of everything that remains.
norm() { sed -e '/"job_id"/d' -e '/"cached"/d' -e 's/,$//' "$1"; }
for i in 1 2 3; do norm "$TMP/r$i.json" >"$TMP/n$i"; done
for i in 2 3; do
    if ! cmp -s "$TMP/n1" "$TMP/n$i"; then
        echo "cachesmoke: answer r$i diverges from the first execution (r2 cached, r3 cache off):" >&2
        diff "$TMP/n1" "$TMP/n$i" >&2 || true
        exit 1
    fi
done
grep -q '"cached": true' "$TMP/r2.json" || {
    echo "cachesmoke: warm report missing \"cached\": true" >&2
    exit 1
}

# The workload: supervised cc n=64 jobs (one mid-run fault arrival
# each), whose execution takes long enough that 600/s is far past two
# workers. Plain cc runs on the packed engine and two workers keep up
# with it, so a cache-off server would not shed and the ratio would
# measure nothing.
LOAD="-rate 600 -duration 2s -alg cc -n 64 -events 1 -zipf 8 -zipfs 1.4 -json"
echo "cachesmoke: zipf workload at both servers ($LOAD)"
# shellcheck disable=SC2086 # LOAD is a flag list
if ! "$TMP/otload" -url "http://$ON_ADDR" $LOAD -minok 200 >"$TMP/on.json"; then
    cat "$TMP/on.json" >&2
    exit 1
fi
# shellcheck disable=SC2086
if ! "$TMP/otload" -url "http://$OFF_ADDR" $LOAD >"$TMP/off.json"; then
    cat "$TMP/off.json" >&2
    exit 1
fi

# field <file> <name>: a top-level field of an otload -json summary.
field() { sed -n "s/^  \"$2\": \([^,]*\),*\$/\1/p" "$1" | head -1; }
if ! awk \
    -v on_ok="$(field "$TMP/on.json" ok)" -v on_el="$(field "$TMP/on.json" elapsed_sec)" \
    -v on_p99="$(field "$TMP/on.json" p99_ms)" -v on_bad="$(field "$TMP/on.json" invalid_400)" \
    -v hits="$(field "$TMP/on.json" cache_hits)" -v coal="$(field "$TMP/on.json" cache_coalesced)" \
    -v off_ok="$(field "$TMP/off.json" ok)" -v off_el="$(field "$TMP/off.json" elapsed_sec)" \
    -v off_p99="$(field "$TMP/off.json" p99_ms)" -v off_bad="$(field "$TMP/off.json" invalid_400)" \
    -v off_shed="$(field "$TMP/off.json" shed_rate)" '
BEGIN {
    on_ps = on_el > 0 ? on_ok / on_el : 0
    off_ps = off_el > 0 ? off_ok / off_el : 0
    served = on_ok > 0 ? (hits + coal) / on_ok : 0
    printf "cachesmoke: cache on:  %.1f completed/s, p99 %.2f ms, hits+coalesced %.1f%% of %d ok\n", on_ps, on_p99, 100 * served, on_ok
    printf "cachesmoke: cache off: %.1f completed/s, p99 %.2f ms, shed %.1f%%\n", off_ps, off_p99, 100 * off_shed
    bad = 0
    if (off_ps <= 0) {
        print "cachesmoke: the cache-off server completed no jobs" > "/dev/stderr"; bad = 1
    } else if (on_ps < 5 * off_ps) {
        printf "cachesmoke: speedup %.1fx below 5x\n", on_ps / off_ps > "/dev/stderr"; bad = 1
    } else {
        printf "cachesmoke: speedup %.1fx (floor 5x)\n", on_ps / off_ps
    }
    if (on_p99 >= off_p99) {
        printf "cachesmoke: cache-on p99 %.2f ms not below cache-off %.2f ms\n", on_p99, off_p99 > "/dev/stderr"; bad = 1
    }
    if (served < 0.80) {
        printf "cachesmoke: hits+coalesced %.1f%% below 80%%\n", 100 * served > "/dev/stderr"; bad = 1
    }
    if (off_shed <= 0) {
        print "cachesmoke: the cache-off server shed nothing, so the load did not pass its capacity" > "/dev/stderr"; bad = 1
    }
    if (on_bad != 0 || off_bad != 0) {
        printf "cachesmoke: %d + %d invalid (400) answers\n", on_bad, off_bad > "/dev/stderr"; bad = 1
    }
    exit bad
}'; then
    cat "$TMP/on.json" "$TMP/off.json" >&2
    exit 1
fi

curl -sf "http://$ON_ADDR/metrics" >"$TMP/metrics.json"
grep -q '"result_cache"' "$TMP/metrics.json" || {
    echo "cachesmoke: /metrics missing the result_cache block" >&2
    cat "$TMP/metrics.json" >&2
    exit 1
}

# drain <name> <pid>: SIGTERM one otserve and require a clean,
# leak-free exit.
drain() {
    kill -TERM "$2"
    if wait "$2"; then
        code=0
    else
        code=$?
    fi
    if [ "$code" -ne 0 ]; then
        echo "cachesmoke: otserve ($1) exited $code (2 = drain failure, 3 = goroutine leak):" >&2
        cat "$TMP/$1.log" >&2
        exit "$code"
    fi
    grep -q 'leakcheck ok' "$TMP/$1.log" || {
        echo "cachesmoke: leakcheck line missing from otserve ($1) log" >&2
        cat "$TMP/$1.log" >&2
        exit 1
    }
}
echo "cachesmoke: SIGTERM -> drain"
drain on "$ON_PID"
ON_PID=""
drain off "$OFF_PID"
OFF_PID=""
echo "cachesmoke: clean drains, zero leaked goroutines, compute-once verified"
