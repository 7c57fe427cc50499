#!/bin/sh
# chaossmoke: kill-and-recover proof for the write-ahead journal.
#
#   1. build otserve with -race, otload plain
#   2. reference run: an uninterrupted otserve streams the full batch
#      sequence through one packed grid session; per-batch reports are
#      captured as NDJSON
#   3. chaos rounds (N kill-points, fixed seed): start otserve with
#      -journal, stream the same keyed batch sequence, and SIGKILL the
#      server at a seed-derived point mid-stream — no drain, no
#      snapshot, only what the WAL already holds survives
#   4. after each kill, restart on the same journal directory: the
#      server replays the journal through the incremental engines
#      (asserting recovered labels bit-identical before serving) and
#      the client resubmits the ENTIRE sequence with the same
#      idempotency keys — already-executed batches answer from the
#      idempotency store, never-executed ones run fresh
#   5. the final pass writes its per-batch reports and byte-compares
#      them against the uninterrupted reference: any divergence —
#      lost batch, double-applied batch, drifted RNG, wrong clock —
#      fails the diff
#   6. SIGTERM the last server and require a clean drain (exit 0)
#
# Tunables: CHAOS_SEED (kill-point schedule, default 1),
# CHAOS_ROUNDS (kill-points, default 3), CHAOS_BATCHES (default 200).
set -e
GO=${GO:-go}
SEED=${CHAOS_SEED:-1}
ROUNDS=${CHAOS_ROUNDS:-3}
BATCHES=${CHAOS_BATCHES:-200}
TMP=$(mktemp -d)
JOURNAL="$TMP/journal"
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "chaossmoke: building (otserve with -race; seed $SEED, $ROUNDS kill-points)"
$GO build -race -o "$TMP/otserve" ./cmd/otserve
$GO build -o "$TMP/otload" ./cmd/otload

# start_server <extra flags...>: launch otserve on an ephemeral port
# and export ADDR from its startup line.
start_server() {
    : >"$TMP/serve.log"
    "$TMP/otserve" -addr 127.0.0.1:0 -workers 2 -sessionttl 10m "$@" \
        2>"$TMP/serve.log" &
    SERVE_PID=$!
    ADDR=""
    tries=0
    while [ $tries -lt 100 ]; do
        ADDR=$(sed -n 's/^otserve: listening on \([0-9.]*:[0-9]*\).*/\1/p' "$TMP/serve.log")
        [ -n "$ADDR" ] && break
        if ! kill -0 "$SERVE_PID" 2>/dev/null; then
            echo "chaossmoke: otserve died at startup:" >&2
            cat "$TMP/serve.log" >&2
            exit 1
        fi
        tries=$((tries + 1))
        sleep 0.1
    done
    if [ -z "$ADDR" ]; then
        echo "chaossmoke: otserve never reported its address" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    fi
}

# kill_delay <round>: seed-derived SIGKILL delay in seconds, 0.15–0.75.
kill_delay() {
    awk -v seed="$SEED" -v round="$1" \
        'BEGIN { srand(seed * 7919 + round); printf "%.2f", 0.15 + rand() * 0.6 }'
}

echo "chaossmoke: uninterrupted reference ($BATCHES batches, packed grid n=1024)"
start_server
"$TMP/otload" -url "http://$ADDR" -session -n 1024 -grid \
    -batches "$BATCHES" -batchsize 8 -keepopen -reports "$TMP/ref.ndjson" \
    -minok "$BATCHES" >/dev/null
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" || true
SERVE_PID=""

echo "chaossmoke: round 0: create session under -journal, SIGKILL at $(kill_delay 0)s"
start_server -journal "$JOURNAL"
"$TMP/otload" -url "http://$ADDR" -session -n 1024 -grid \
    -batches "$BATCHES" -batchsize 8 -keyprefix chaos -keepopen -think 5ms \
    >/dev/null 2>&1 &
LOAD_PID=$!
sleep "$(kill_delay 0)"
kill -9 "$SERVE_PID" 2>/dev/null || true
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
wait "$LOAD_PID" 2>/dev/null || true

round=1
while [ "$round" -le "$ROUNDS" ]; do
    echo "chaossmoke: round $round: recover + resubmit, SIGKILL at $(kill_delay "$round")s"
    start_server -journal "$JOURNAL"
    grep -q '^otserve: journal' "$TMP/serve.log" || {
        echo "chaossmoke: no recovery banner after restart:" >&2
        cat "$TMP/serve.log" >&2
        exit 1
    }
    sed -n 's/^otserve: journal.*/chaossmoke:   &/p' "$TMP/serve.log"
    "$TMP/otload" -url "http://$ADDR" -session -sessionid s-1 -startbatch 1 \
        -batches "$BATCHES" -batchsize 8 -keyprefix chaos -keepopen -retries 6 \
        -think 5ms >/dev/null 2>&1 &
    LOAD_PID=$!
    sleep "$(kill_delay "$round")"
    kill -9 "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=""
    wait "$LOAD_PID" 2>/dev/null || true
    round=$((round + 1))
done

echo "chaossmoke: final recovery + full resubmission"
start_server -journal "$JOURNAL"
sed -n 's/^otserve: journal.*/chaossmoke: &/p' "$TMP/serve.log"
"$TMP/otload" -url "http://$ADDR" -session -sessionid s-1 -startbatch 1 \
    -batches "$BATCHES" -batchsize 8 -keyprefix chaos -keepopen -retries 6 \
    -reports "$TMP/chaos.ndjson" -minok "$BATCHES"

if ! cmp -s "$TMP/ref.ndjson" "$TMP/chaos.ndjson"; then
    echo "chaossmoke: FAIL: recovered reports diverge from uninterrupted reference" >&2
    diff "$TMP/ref.ndjson" "$TMP/chaos.ndjson" >&2 || true
    exit 1
fi
echo "chaossmoke: $BATCHES per-batch reports byte-identical to uninterrupted reference"

echo "chaossmoke: SIGTERM -> drain"
kill -TERM "$SERVE_PID"
if wait "$SERVE_PID"; then
    code=0
else
    code=$?
fi
SERVE_PID=""
if [ "$code" -ne 0 ]; then
    echo "chaossmoke: otserve exited $code after drain:" >&2
    cat "$TMP/serve.log" >&2
    exit "$code"
fi
echo "chaossmoke: survived $((ROUNDS + 1)) SIGKILLs, byte-identical recovery, clean drain"
