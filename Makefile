# Convenience targets; everything is plain `go` underneath.

GO ?= go
CACHE ?= /tmp/lppa-ds.gob

.PHONY: all build test race cover bench bench-json bench-compare alloc-guard trace-guard fuzz fuzz-short chaos epoch-soak experiments examples metrics-snapshot trace-snapshot audit-snapshot load-snapshot load-compare load-smoke ops-smoke clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable snapshot of the auctioneer-path benchmarks. Each PR
# writes its own file (BENCH_PR1.json parallel pipeline, BENCH_PR2.json
# interning, BENCH_PR3.json the unified Run API with a nil registry,
# BENCH_PR5.json the tracing subsystem, BENCH_PR6.json the indexed
# candidate generation under both density mixes, BENCH_PR7.json the
# tile-sharded round, BENCH_PR8.json the epochal service and batched
# accounting) so bench-compare can diff across PRs. See EXPERIMENTS.md
# for the narrative.
bench-json:
	$(GO) test -run=NONE -benchmem \
		-bench='ZeroAllocMask|ParallelConflictGraph|ParallelPrivateRound|RankMemoAllocation|MaskDigest|PrivateConflictGraph|InternedIntersect|ConflictGraphN300|RankMemoN300|RoundTraceOverhead|ConflictGraphIndexed|IndexCursorRow|RoundSharded|EpochService|BatchedAccounting' \
		. | $(GO) run ./cmd/benchjson > BENCH_PR8.json

# Diff ns/op and allocs/op between the two most recent committed snapshots.
bench-compare:
	$(GO) run ./cmd/benchjson -compare BENCH_PR7.json BENCH_PR8.json

# Per-phase/per-layer cost profile of one instrumented N=300 private
# round, as the observability registry's JSON snapshot. CI uploads it next
# to the BENCH_*.json artifacts.
metrics-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -cache $(CACHE) \
		-metrics-out METRICS_ROUND.json

# Chrome trace_event snapshot of one instrumented N=300 private round
# (open TRACE_ROUND.json in ui.perfetto.dev). CI uploads it next to the
# BENCH_*.json artifacts.
trace-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -cache $(CACHE) \
		-trace-out TRACE_ROUND.json

# Privacy-leakage audit of the same round: per-bidder masked-digest
# counts, conflict degrees, robust-BCM anonymity-set sizes, and — with the
# round tile-sharded — the planner's per-tile anonymity sets.
audit-snapshot:
	$(GO) run ./cmd/lppa-sim -experiment round -n 300 -shards 4 -cache $(CACHE) \
		-audit-out AUDIT_ROUND.json

# Fail if running a round with WithTrace(nil) — the production default —
# costs a single allocation over the untraced baseline: disabled tracing
# must be free. (BenchmarkRoundTraceOverhead reports the ns/op side.)
trace-guard:
	$(GO) test -run TestTraceDisabledAllocationFree -count=1 -v .

# Fail if a guarded benchmark allocates more than its ceiling. The masked
# comparison, interned intersection, and index candidate-scan hot paths must
# stay allocation-free (ceiling 0, the default). ALLOC_CEILINGS pins the
# exact allocs/op of benchmarks that must allocate: the re-armed bidder
# encode allocates its submission, its channel table, one digest block and
# one ciphertext block. Those run 100 ops. Everything runs at -cpu=1: with
# a second P, the runtime's post-GC cleanup goroutine (the testing package
# forces a GC before each benchmark) can allocate concurrently with the
# timed op and be billed to it.
ALLOC_CEILINGS = EncodeRearmed=4
alloc_gate = awk -v ceilings='$(ALLOC_CEILINGS)' ' \
	BEGIN { n = split(ceilings, cs, " "); for (i = 1; i <= n; i++) { split(cs[i], kv, "="); max["Benchmark" kv[1]] = kv[2] } } \
	/^Benchmark/ { name = $$1; sub(/-[0-9]+$$/, "", name); a = $$(NF-1); lim = (name in max) ? max[name] : 0; \
		if (a+0 > lim+0) { print "allocs/op regression (ceiling " lim "): " $$0; bad = 1 } print } \
	END { exit bad }'
alloc-guard:
	$(GO) test -run=NONE -cpu=1 -benchtime=1x -benchmem \
		-bench='ZeroAllocMask|InternedIntersect|IndexCursorRow' . | $(alloc_gate)
	$(GO) test -run=NONE -cpu=1 -benchtime=100x -benchmem -bench='EncodeRearmed' . | $(alloc_gate)

# Workload snapshot of the composed system: N=10000 mixed-density runs of
# the tile-sharded one-shot round and the epochal service (open-loop
# Poisson arrivals with churn), with throughput, per-phase latency
# percentiles, and an embedded SLO block (floor = measured/4, p99 ceiling
# = measured*4). Versioned per PR like the BENCH_*.json snapshots; see
# EXPERIMENTS.md for the narrative.
load-snapshot:
	$(GO) run ./cmd/lppa-load run -n 10000 -density mixed -variants sharded,service \
		-rounds 5 -rate-limit 5000 -seed 1 -o LOAD_PR9.json

# Gate a fresh run against the committed snapshot's SLOs. Exits nonzero on
# any violation — and fails closed when the baseline is missing or carries
# no SLO block.
load-compare:
	$(GO) run ./cmd/lppa-load run -n 10000 -density mixed -variants sharded,service \
		-rounds 5 -rate-limit 5000 -seed 1 -o /tmp/lppa-load-candidate.json
	$(GO) run ./cmd/lppa-load compare LOAD_PR9.json /tmp/lppa-load-candidate.json

# CI smoke: the harness tests under -race (determinism regression, fuzz
# seeds, compare gate fail-closed), then a small-N sweep across every
# variant with chaos and a rate limit, self-gated through the comparator.
load-smoke:
	$(GO) test -race -count=1 ./internal/load/ ./cmd/lppa-load/
	$(GO) run ./cmd/lppa-load run -n 200 -density mixed \
		-variants plain,interned,indexed,sharded,service \
		-rounds 3 -rate-limit 100 -chaos drop -chaos-rate 0.05 \
		-seed 1 -o LOAD_SMOKE.json
	$(GO) run ./cmd/lppa-load compare LOAD_SMOKE.json LOAD_SMOKE.json

# CI smoke of the live ops plane: boots the epochal demo with an
# impossibly tight SLO and asserts the probe endpoints, burn-rate alarm,
# event log, sampled traces, and forced flight dump end to end.
ops-smoke:
	sh scripts/ops_smoke.sh

# Short fuzz pass over every fuzz target (CI smoke; extend -fuzztime locally).
fuzz:
	$(GO) test -run=NONE -fuzz=FuzzMemberMatchesComparison -fuzztime=10s ./internal/prefix/
	$(GO) test -run=NONE -fuzz=FuzzCoverTiles -fuzztime=10s ./internal/prefix/
	$(GO) test -run=NONE -fuzz=FuzzOpenValueRejectsGarbage -fuzztime=10s ./internal/mask/
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzShardBoundaryEquivalence -fuzztime=10s ./internal/round/
	$(GO) test -run=NONE -fuzz=FuzzLoadReportDecode -fuzztime=10s ./internal/load/

# Quicker smoke of the attacker-facing decoders only (the wire frame parser
# fed by untrusted peers) — the CI test job runs this on every push.
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzDecodeFrame -fuzztime=5s ./internal/transport/

# Chaos matrix under the race detector: full networked rounds with seeded
# fault injection (drop/dup/corrupt/truncate/slow-loris/crash). Failing
# seeds land in CHAOS_FAILURES.txt; replay one with
# LPPA_CHAOS_SEEDS=<seed> go test -race -run 'TestChaosMatrix/<class>' ./internal/transport/
chaos:
	LPPA_CHAOS_REPLAY_FILE=CHAOS_FAILURES.txt \
		$(GO) test -race -run 'TestChaos|TestAuctioneerQuorum' -count=1 ./internal/transport/ ./internal/faults/

# Short multi-epoch chaos run of the epochal service under the race
# detector: concurrent submitters racing the sealing ticker and explicit
# seals through the admission gate, ledger exactness asserted at the end.
# Failed or degraded epochs dump flight-recorder traces into
# FLIGHT_EPOCH_SOAK/ (CI uploads the directory when the job fails).
epoch-soak:
	LPPA_SOAK_FLIGHT_DIR=FLIGHT_EPOCH_SOAK \
		$(GO) test -race -run TestEpochServiceSoak -count=1 -v ./internal/epoch/

# Reproduce the paper's full evaluation (dataset cached at $(CACHE)).
experiments:
	$(GO) run ./cmd/lppa-sim -experiment all -cache $(CACHE)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/attackdemo
	$(GO) run ./examples/tradeoff
	$(GO) run ./examples/networked
	$(GO) run ./examples/multiround

clean:
	rm -f lppa-sim lppa-attack lppa-net *.test
