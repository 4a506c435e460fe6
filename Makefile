# ipusim — build/test/reproduce targets.

GO ?= go

.PHONY: all build test vet race serve serve-test serve-cluster-test bench bench-json bench-baseline bench-check check-schemes check-tenants check-closedloop examples experiments ablation sensitivity fuzz fuzz-parse fuzz-replay golden clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

# Matrix, contention and coordinator sweeps share one concurrent code
# path, the core.ForEachCell worker pool; -race over the internal
# packages covers it plus every shared-state regression.
race:
	$(GO) test -race ./internal/...

# Start the experiment daemon locally with the default settings.
serve:
	$(GO) run ./cmd/ipusimd

# The experiment-service acceptance gate: every server lifecycle test plus
# the 32-job soak (half cancelled mid-run, graceful drain, goroutine-leak
# and snapshot-cache-integrity checks), all under the race detector, and
# the daemon's own end-to-end boot/shutdown test.
serve-test:
	$(GO) test -race -count 1 ./internal/server ./cmd/ipusimd

# The cluster acceptance gate: the result-cache hit path (byte-identical,
# sim never re-runs), durable-store restart recovery, the consistent-hash
# ring units, the coordinator soak — sweeps sharded over two in-process
# workers with one killed mid-sweep, aggregated rows compared bit-for-bit
# to a single daemon — the check that a coordinator rejects every body a
# single daemon rejects, and the check that a worker's 400 runs the cell
# in-process without marking the worker dead, all under the race
# detector. The TestCoordinator pattern selects the coordinator tests.
serve-cluster-test:
	$(GO) test -race -count 1 \
	  -run 'TestCacheHit|TestCanonicalKey|TestJobKey|TestRestartRecovery|TestCoordinator|TestRing|TestStore' \
	  ./internal/server
	$(GO) test -race -count 1 -run TestDaemonCluster ./cmd/ipusimd

# Re-accept the golden metric snapshots after an intentional behaviour
# change (inspect the diff in the test failure first).
golden:
	$(GO) test ./internal/core -run Golden -update

# The scheme-matrix acceptance gate: every registered scheme through the
# invariant harness (checked replays, stress, structural sweeps, Restore's
# config check), the cross-scheme differential runner, the golden metric
# snapshots, the one copy path (cloned and recycled devices replay like
# fresh builds, clones stay independent, a device a replay left
# mid-request is never pooled), the structural snapshot key (copies
# re-stamped with another P/E or error model replay like fresh builds, a
# Fig. 13 sweep builds one template per scheme, every config field is
# classified) and the flash array's in-place restore.
check-schemes:
	$(GO) test -count 1 ./internal/scheme
	$(GO) test -count 1 -run 'TestDifferential|TestRunDifferential|TestGolden|TestRegistry|TestSchemeNames|TestCloneMatchesFreshReplay|TestRecycledCloneMatchesFreshReplay|TestCloneIndependence|TestReleaseDrops|TestRestampMatchesFreshReplay|TestFig13SweepHitsSnapshotCache|TestSnapshotKeyClassifiesEveryField|TestNewValidatesOnCacheHit' ./internal/core
	$(GO) test -count 1 -run TestRestore ./internal/flash

# The multi-tenant/spec-API acceptance gate: the spec-vs-legacy
# bit-identity differential across every scheme, multi-tenant replay
# determinism, cancelled-run per-tenant partials, the write-cache
# front-end (unit + integration), the tenant scheduler units, and the
# multi-tenant golden snapshots — all under the race detector.
check-tenants:
	$(GO) test -race -count 1 ./internal/cache ./internal/workload
	$(GO) test -race -count 1 \
	  -run 'TestSpecPath|TestMultiTenant|TestWriteCache|TestClosedLoopSpec|TestGoldenMultiTenant' \
	  ./internal/core
	$(GO) test -race -count 1 -run 'TestV2JobKeys|TestV3|TestMultiTenantJob' ./internal/server

# The closed-loop fast-path acceptance gate: the slab write cache
# (eviction-order scripts, the fuzz differential against a map-backed
# reference, the zero-alloc steady state), the request loop's open- vs
# closed-loop parity (results, progress ticks, cancel points), the
# zero-alloc request loop, the single-stream closed-loop golden
# snapshots (five schemes, buffer off and on), the concurrent contention study
# (concurrent == serial rows, standalone cell == study row, aggregated
# progress/cancel), the ForEachCell worker pool the study's cells share,
# and the sharded "contention" job kind — all under the race detector.
check-closedloop:
	$(GO) test -race -count 1 \
	  -run 'TestEvictionOrder|TestSlab|TestWriteCacheSteadyState' ./internal/cache
	$(GO) test -race -count 1 -run 'TestClosedLoop|TestContention|TestGoldenClosedLoop|TestForEachCell' ./internal/core
	$(GO) test -race -count 1 -run 'TestContention|TestV4' ./internal/server

# Run every standalone example end to end, so a demo that compiles but
# fails at run time is caught. Each takes under a second; examples/serve
# needs a live daemon and is left out.
EXAMPLES = quickstart endurance hotcold gcpolicy tracereplay
examples:
	for ex in $(EXAMPLES); do \
	  echo "== examples/$$ex"; $(GO) run ./examples/$$ex || exit 1; \
	done

# Regenerate every table and figure of the paper (plus the P/E sweep).
experiments:
	$(GO) run ./cmd/experiments -scale 0.05 -pesweep

# The IPU design-choice ablation (ISR policy, hierarchy, intra-page
# update, adaptive combining).
ablation:
	$(GO) run ./cmd/experiments -scale 0.05 -traces ts0,wdev0 -schemes IPU -ablate

sensitivity:
	$(GO) run ./cmd/experiments -scale 0.05 -traces ts0 -sensitivity slcratio

bench:
	$(GO) test -bench=. -benchmem

# Run the fixed-work benchmark suite across every layer and record it as
# JSON: raw output in bench/latest.txt, parsed record in BENCH_<n>.json at
# the first free index (BENCH_0.json is this repo's committed baseline).
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 200ms ./... | tee bench/latest.txt
	n=0; while [ -e BENCH_$$n.json ]; do n=$$((n+1)); done; \
	  $(GO) run ./cmd/benchjson -o BENCH_$$n.json < bench/latest.txt && \
	  echo "wrote BENCH_$$n.json"

# Re-record the committed benchmark baseline after an intentional
# performance change. Run on a quiet machine; -count 6 gives benchstat a
# distribution per benchmark.
bench-baseline:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 200ms -count 6 ./... | tee bench/baseline.txt
	$(GO) run ./cmd/benchjson -o bench/baseline.json < bench/baseline.txt

# The CI regression gate, runnable locally: rerun the suite and compare
# against the committed baseline. Allocation counts are gated tightly
# (deterministic); wall time loosely (hardware varies).
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime 100ms ./... | tee bench/current.txt
	$(GO) run ./cmd/benchjson -o bench/current.json < bench/current.txt
	$(GO) run ./cmd/benchjson -compare -time-threshold 2.0 -space-threshold 0.15 \
	  bench/baseline.json bench/current.json

fuzz: fuzz-parse fuzz-replay

fuzz-parse:
	$(GO) test ./internal/trace -fuzz FuzzParseMSR -fuzztime 30s

# Replays fuzzer-generated write/read/trim programs through each scheme
# with the internal/check invariant harness attached.
fuzz-replay:
	$(GO) test ./internal/scheme -fuzz FuzzReplay -fuzztime 30s

clean:
	$(GO) clean ./...
