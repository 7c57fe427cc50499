GO ?= go

.PHONY: build test vet race fuzz bench benchcmp benchsmoke benchpacked benchincremental servesmoke servesweep chaossmoke cachesmoke benchmod ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# The race detector is pointed at the packages that share memory
# across goroutines: the goroutine-per-node engine, the tree router it
# cross-validates, the analysis sweep's concurrent cells (each owns
# its machine; their determinism test doubles as the race proof), the
# fault/recovery layer, the server's workers and process-global
# caches, and the job runner those workers call concurrently. core and
# par stay on the list so a goroutine or shared state that creeps back
# into the machine is caught; core also holds the process-wide
# register-name table that concurrent jobs intern into (NewReg).
# rescache is the result cache every handler goroutine looks up,
# resolves and evicts through under one mutex, and its LRU links are
# plain pointers that only that mutex orders. The explicit
# Plan pass keeps the compiled-routing replay paths (shared plan
# cache, differential fuzz, stale-plan recovery) under the detector by
# name, so a test rename can't silently drop them.
race:
	$(GO) test -race ./internal/concurrent/... ./internal/tree/... ./internal/par/... ./internal/core/... ./internal/mcache/... ./internal/fault/... ./internal/resilience/... ./internal/server/... ./internal/run/... ./internal/bits/... ./internal/packed/... ./internal/journal/... ./internal/rescache/...
	$(GO) test -race -run 'Deterministic|Parallel|Batch|Recovery' ./internal/analysis/... ./internal/algorithms/sorting/...
	$(GO) test -race -run 'Plan|StalePlans' ./internal/tree/... ./internal/mcache/... ./internal/resilience/...
	$(GO) test -race -run 'Packed|Fused|Bulk' ./internal/packed/... ./internal/tree/... ./internal/analysis/... ./internal/server/...
	$(GO) test -race -run 'Incremental|Session' ./internal/packed/... ./internal/resilience/... ./internal/server/... ./internal/algorithms/graph/... ./internal/loadgen/...

# Short fuzz passes over the fault-layer determinism properties:
# static plans, fault-arrival schedules through the recovery
# supervisor, and the packed-vs-scalar differential (op streams must
# produce identical bit-times and results);
# plus the four-lane G(n, p) draw against the plain per-pair loop.
fuzz:
	$(GO) test -fuzz FuzzPlanDeterminism -fuzztime 10s ./internal/fault
	$(GO) test -fuzz FuzzScheduleDeterminism -fuzztime 10s ./internal/fault
	$(GO) test -fuzz FuzzPackedDifferential -fuzztime 15s ./internal/packed
	$(GO) test -fuzz FuzzIncrementalDifferential -fuzztime 15s ./internal/resilience
	$(GO) test -fuzz FuzzJournalTornTail -fuzztime 10s ./internal/journal
	$(GO) test -fuzz FuzzGnpDraw -fuzztime 10s ./internal/workload

# Regenerate the committed benchmark baseline (host numbers are
# environmental; the simulated metrics inside must never change).
bench:
	$(GO) run ./cmd/otbench -json BENCH.json

# Re-run the suite and diff against the committed baseline: simulated
# metrics gate exactly, allocs/op gates with slack, ns/op informs.
benchcmp:
	$(GO) run ./cmd/otbench -compare BENCH.json

# One-iteration pass over every benchmark: compile + run smoke, no
# timing fidelity intended. The Table1SortOTN pass runs twice so the
# second iteration exercises plan adoption and replay from the shared
# route-plan cache, and one recovery-sweep point smokes the
# checkpoint/rollback supervisor end to end through the CLI.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'Table1SortOTN' -benchtime 2x .
	$(GO) run ./cmd/otsim -alg sort -n 16 -schedule 2 -json > /dev/null
	$(GO) run ./cmd/otbench -packed -sizes 16,1024 > /dev/null
	$(GO) run ./cmd/otbench -incremental -sizes 256 > /dev/null

# Packed-engine scaling table: connected components on the bit-packed
# Boolean engine and the mesh baseline, N=16 → 1024 — the extended
# Table III A·T² curves from EXPERIMENTS.md. Budget: the whole sweep
# (engine builds included) completes in well under a minute on a
# laptop; the N=1024 components cell itself simulates in ~2 ms.
benchpacked:
	$(GO) run ./cmd/otbench -packed

# Incremental streaming-labeling study: the simulated-cost sweep
# (labels checked bit-identical to a full recompute after every batch)
# plus the incremental-vs-recompute host-cost table; fails unless a
# single-flip batch at the largest size is ≥10× cheaper than a full
# recompute.
benchincremental:
	$(GO) run ./cmd/otbench -incremental

# End-to-end service smoke: build otserve under the race detector,
# drive it past capacity with otload (flooding client included), then
# SIGTERM and require a clean drain plus a zero-goroutine-leak exit
# check. See scripts/servesmoke.sh.
servesmoke:
	./scripts/servesmoke.sh

# Service degradation table: an in-process otserve at three offered
# loads; p99 must stay bounded and errors zero while shed % absorbs
# the overload. The compute-once section then drives a zipf-popular
# workload at identical servers with the result cache on and off, and
# fails unless the cache buys ≥5× completed throughput at a ≥80% hit
# rate with lower p99 and byte-identical answers; its snapshot is the
# committed BENCH_PR10.json.
servesweep:
	$(GO) run ./cmd/otbench -servesweep -cachejson BENCH_PR10.json

# Kill-and-recover chaos proof: SIGKILL a race-built journaling
# otserve at seed-derived points mid-session-stream, restart it on the
# same journal each time, resubmit the whole keyed batch sequence, and
# byte-compare the final per-batch reports against an uninterrupted
# reference run. CHAOS_SEED/CHAOS_ROUNDS/CHAOS_BATCHES tune the
# schedule (defaults: seed 1, 3 kill-points + the initial kill, 200
# batches). See scripts/chaossmoke.sh.
chaossmoke:
	./scripts/chaossmoke.sh

# Compute-once smoke: a race-built otserve driven with a zipf-popular
# otload workload must serve most answers from the result cache, a
# warm repeat of a spec must answer byte-identically (modulo job id
# and the cached mark) to its first execution, and the drain must
# still leak zero goroutines. See scripts/cachesmoke.sh.
cachesmoke:
	./scripts/cachesmoke.sh

# The served-path benchmark lives in its own module (bench/, with
# `replace repro => ../`), so the root build and tests never compile
# it. It reads the exported server API (Job, Snapshot, the listen
# line); vet and test it here so an edit to that API cannot break it
# unnoticed. Offline, about half a second.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full gate. benchpacked adds ~1s: the packed N=1024 components
# cell simulates in ~2ms and the whole extended Table III sweep,
# engine builds included, is sub-second. benchincremental adds a few
# seconds more: the host-cost entries re-measure under
# testing.Benchmark at both sizes. chaossmoke adds ~15s: four
# SIGKILL/recover cycles against the race-built server.
# cachesmoke adds a few seconds: one more race-built otserve cycle
# under a zipf workload with a byte-identity check on a cached answer.
# benchcmp (about 35s) gates every simulated metric exactly against
# BENCH.json, allocs/op and bytes/op with slack, and peak RSS.
ci: build vet test benchmod race benchsmoke benchcmp benchpacked benchincremental servesmoke cachesmoke chaossmoke
