GO ?= go

.PHONY: build test vet race fuzz bench benchcmp benchsmoke servesmoke chaossmoke cachesmoke benchmod ci

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
# cache, differential fuzz, stale-plan recovery, divergence
# checkpoints and re-arming) under the detector by name, so a test
# rename can't silently drop them. A shared plan's one mutable field
# is its divergence checkpoint, which trees replaying the plan on
# different goroutines publish once by compare-and-swap and read
# through the same atomic pointer.
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
# plus the four-lane G(n, p) draw against the plain per-pair loop,
# and the result cache's compact report form (exact round trip,
# arbitrary bytes decode to an error without panicking).
fuzz:
	$(GO) test -fuzz FuzzPlanDeterminism -fuzztime 10s ./internal/fault
	$(GO) test -fuzz FuzzScheduleDeterminism -fuzztime 10s ./internal/fault
	$(GO) test -fuzz FuzzPackedDifferential -fuzztime 15s ./internal/packed
	$(GO) test -fuzz FuzzIncrementalDifferential -fuzztime 15s ./internal/resilience
	$(GO) test -fuzz FuzzJournalTornTail -fuzztime 10s ./internal/journal
	$(GO) test -fuzz FuzzGnpDraw -fuzztime 10s ./internal/workload
	$(GO) test -fuzz FuzzCompactReport -fuzztime 10s ./internal/report

# Regenerate the committed benchmark baseline (host numbers are
# environmental; the simulated metrics inside must never change).
bench:
	$(GO) run ./cmd/otbench -json BENCH.json

# Re-run the suite and diff against the committed baseline. Every
# host gate lives here: simulated metrics gate exactly, allocs/op and
# bytes/op with slack, peak RSS at 2x, and two host-ratio floors on
# the current run (packed components >=4x faster than the scalar
# program at N=256; a single-flip incremental batch >=10x cheaper
# than a full recompute at N=1024). Per-entry ns/op informs.
benchcmp:
	$(GO) run ./cmd/otbench -compare BENCH.json

# One-iteration pass over every benchmark: compile + run smoke, no
# timing fidelity intended. The Table1SortOTN pass runs twice so the
# second iteration exercises plan adoption and replay from the shared
# route-plan cache, one recovery-sweep point smokes the
# checkpoint/rollback supervisor end to end through the CLI, and the
# packed and incremental studies run at small sizes.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) test -run '^$$' -bench 'Table1SortOTN' -benchtime 2x .
	$(GO) run ./cmd/otsim -alg sort -n 16 -schedule 2 -json > /dev/null
	$(GO) run ./cmd/otbench -table packed,incremental -sizes 16,256,1024 > /dev/null

# End-to-end service smoke: build otserve under the race detector,
# drive it past capacity with otload (flooding client included), then
# SIGTERM and require a clean drain plus a zero-goroutine-leak exit
# check. See scripts/servesmoke.sh.
servesmoke:
	./scripts/servesmoke.sh

# Kill-and-recover chaos proof: SIGKILL a race-built journaling
# otserve at seed-derived points mid-session-stream, restart it on the
# same journal each time, resubmit the whole keyed batch sequence, and
# byte-compare the final per-batch reports against an uninterrupted
# reference run. CHAOS_SEED/CHAOS_ROUNDS/CHAOS_BATCHES tune the
# schedule (defaults: seed 1, 3 kill-points + the initial kill, 200
# batches). See scripts/chaossmoke.sh.
chaossmoke:
	./scripts/chaossmoke.sh

# Compute-once smoke: two race-built otserves, result cache on and
# off. A warm repeat of a spec must answer byte-identically (modulo
# job id and the cached mark) to its first execution and to the
# cache-off server's. The same zipf-popular otload workload, offered
# past the cache-off server's capacity, then runs against both: the
# cache-on side must complete >=5x the jobs/s at a lower p99 with
# hits + coalesced >=80% of its answers, the cache-off side must shed
# (so the comparison is made under overload), and neither may see a
# 5xx, 400 or transport error. Both drains must leak zero goroutines.
# See scripts/cachesmoke.sh.
cachesmoke:
	./scripts/cachesmoke.sh

# The served-path benchmark lives in its own module (bench/, with
# `replace repro => ../`), so the root build and tests never compile
# it. It reads the exported server API (Job, Snapshot, the listen
# line); vet and test it here so an edit to that API cannot break it
# unnoticed. Offline, about half a second.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The full gate. chaossmoke adds ~15s: four SIGKILL/recover cycles
# against the race-built server. cachesmoke adds about 10s: two
# race-built otserve cycles under the same zipf workload. benchcmp
# (about 35s) gates every simulated metric exactly against BENCH.json,
# allocs/op and bytes/op with slack, peak RSS, and both host-ratio
# floors.
ci: build vet test benchmod race benchsmoke benchcmp servesmoke cachesmoke chaossmoke
