GO ?= go
TRAJECTORY ?= bench/trajectory.json

.PHONY: build test race lint bench-smoke bench-record scenarios scenarios-smoke chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...

# lint forbids ad-hoc diagnostic prints outside examples/ and tests: all
# operational chatter must go through the structured slog logger
# (obs.NewLogger), so every line is JSON and carries trace correlation.
lint:
	@bad=$$(grep -rn 'log\.Printf\|log\.Println\|fmt\.Fprintf(os\.Stderr\|fmt\.Fprintf(errOut' \
		--include='*.go' . \
		| grep -v '_test\.go' | grep -v '^\./examples/' || true); \
	if [ -n "$$bad" ]; then \
		echo "ad-hoc prints found; use the structured logger (obs.NewLogger):"; \
		echo "$$bad"; \
		exit 1; \
	fi

# bench-smoke is the CI step: a short fixed sgbench workload that proves the
# harness runs and the bare detector step is still zero-alloc, and leaves
# BENCH_hotpath.json for the artifact upload.
bench-smoke:
	$(GO) run ./cmd/sgbench -days 1 -passes 10 -shards 1,4 -out BENCH_hotpath.json

# bench-record runs the standard sgbench workload and appends one summary
# entry (commit, cpus, readings/sec, decode ns/line in both codecs, step
# p50/p99) to the committed perf trajectory, so the throughput curve travels
# with history. A second run under -maxprocs 4 appends the multi-core point
# (the frame-decode pool sizes itself off GOMAXPROCS). Run on a quiet
# machine; override TRAJECTORY=/tmp/t.json for a dry run.
bench-record:
	$(GO) run ./cmd/sgbench -days 1 -passes 20 -shards 1,4 -out BENCH_hotpath.json -record $(TRAJECTORY)
	$(GO) run ./cmd/sgbench -days 1 -passes 20 -shards 1,4 -maxprocs 4 -out /tmp/BENCH_multicore.json -record $(TRAJECTORY)

# scenarios refreshes the committed adversary-simulation corpus report:
# every labeled campaign in internal/scenario streamed over a real HTTP
# ingest path into an embedded collector, scored against ground truth.
scenarios:
	$(GO) run ./cmd/sgsim -score-corpus -out BENCH_scenarios.json

# scenarios-smoke is the CI step: a corpus subset covering all three truth
# classes, enough to prove the sgsim → ingest → sentinel → scorer path.
scenarios-smoke:
	$(GO) run ./cmd/sgsim -score-corpus \
		-scenarios benign-control,error-stuck,attack-collusion-majority,attack-replay-stale \
		-out BENCH_scenarios_smoke.json

# chaos runs the fault-injection harness of docs/RESILIENCE.md under the
# race detector: seeded disk faults (ENOSPC, EIO, torn writes) under the
# journal and checkpoint paths, network faults under the ingest listener and
# shipper, plus the torn-checkpoint and degraded-crash convergence proofs.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaosEndToEnd|TestSentinelTornCheckpointRecovery|TestJournalFaultDegradesThenRecovers|TestDegradedCrashConvergence|TestCheckpointFailureCoolsDownAndSurfaces|TestTCPAcceptRetriesTransientErrors' \
		./cmd/sentinel ./internal/fleet ./internal/ingest
	$(GO) test -race -count=1 ./internal/chaos
