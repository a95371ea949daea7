GO ?= go

.PHONY: build test race lint scenarios scenarios-smoke chaos

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/... ./cmd/...

# lint forbids ad-hoc diagnostic prints outside examples/ and tests: all
# operational chatter must go through the structured slog logger
# (obs.NewLogger), so every line is JSON.
lint:
	@bad=$$(grep -rn 'log\.Printf\|log\.Println\|fmt\.Fprintf(os\.Stderr\|fmt\.Fprintf(errOut' \
		--include='*.go' . \
		| grep -v '_test\.go' | grep -v '^\./examples/' || true); \
	if [ -n "$$bad" ]; then \
		echo "ad-hoc prints found; use the structured logger (obs.NewLogger):"; \
		echo "$$bad"; \
		exit 1; \
	fi

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
		-run 'TestChaosEndToEnd|TestSentinelTornCheckpointRecovery|TestJournalFaultDegradesThenRecovers|TestDegradedCrashConvergence|TestCheckpointFailureCoolsDownAndSurfaces|TestTCPAcceptRetriesTransientErrors|TestTCPCloseSeversLateConnection' \
		./cmd/sentinel ./internal/fleet ./internal/ingest
	$(GO) test -race -count=1 ./internal/chaos
