package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"syscall"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/scenario"
)

// This file is the chaos half of the resilience harness (make chaos): it
// replays a scenario-corpus campaign over the real HTTP ingest stack while a
// seeded fault schedule breaks the disk under the journal and the network
// under the shipper, and requires that (1) no Submit is ever rejected — the
// shard degrades to non-durable serving instead, (2) the degradation fires
// and resolves through /healthz and /status, and (3) the final diagnosis is
// byte-identical to a fault-free run of the same campaign: faults the breaker
// absorbed must leave no trace in the verdict.

// chaosFleet builds a durable pool rooted in a fresh directory; with ffs set
// it runs on the fault-injecting filesystem with test-speed breaker timings.
func chaosFleet(t *testing.T, ffs chaos.FS) *Pool {
	t.Helper()
	cfg := Config{
		Shards: 2,
		Seed:   1,
		Durability: Durability{
			Dir:    t.TempDir(),
			EveryN: 256,
		},
	}
	if ffs != nil {
		cfg.Durability.FS = ffs
		cfg.Durability.breakerBase = 5 * time.Millisecond
		cfg.Durability.breakerMax = 50 * time.Millisecond
		cfg.Durability.checkpointCooldown = 20 * time.Millisecond
	}
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// serveFleet mounts the pool's HTTP surface on an ephemeral listener,
// optionally wrapped in the chaos fault listener.
func serveFleet(t *testing.T, pool *Pool, faulty bool) (addr string, ln *chaos.Listener, stop func()) {
	t.Helper()
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var serveOn net.Listener = inner
	if faulty {
		ln = chaos.WrapListener(inner)
		serveOn = ln
	}
	srv := &http.Server{Handler: Handler(pool, nil)}
	go srv.Serve(serveOn)
	return inner.Addr().String(), ln, func() { srv.Close() }
}

// chaosStatus is the slice of the /status document the harness asserts on.
type chaosStatus struct {
	Health struct {
		Ready          bool  `json:"ready"`
		DegradedShards []int `json:"degraded_shards"`
	} `json:"health"`
	Shards []struct {
		Shard            int    `json:"shard"`
		Degraded         bool   `json:"degraded"`
		NonDurable       uint64 `json:"non_durable_readings"`
		LastJournalError string `json:"last_journal_error"`
	} `json:"shards"`
}

func getStatus(t *testing.T, addr string) chaosStatus {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st chaosStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// shipAll streams readings through the producer-side shipper, one acknowledged
// batch at a time.
func shipAll(t *testing.T, sh *ingest.Shipper, readings []ingest.Reading) {
	t.Helper()
	ctx := context.Background()
	for i, r := range readings {
		if err := sh.Add(ctx, r); err != nil {
			t.Fatalf("ship reading %d: %v", i, err)
		}
	}
	if err := sh.Flush(ctx); err != nil {
		t.Fatal(err)
	}
}

func reportBytes(t *testing.T, pool *Pool, deployment string) []byte {
	t.Helper()
	rep, err := pool.Report(deployment)
	if err != nil {
		t.Fatalf("report %s: %v", deployment, err)
	}
	raw, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestChaosEndToEnd is the chaos acceptance run. The fault schedule is fully
// deterministic: journal writes from the fifth on fail with ENOSPC until the
// disk heals mid-campaign (a disk-full window), the listener rejects its first accepts with EMFILE, the
// shipper's first dials are refused, and every server-side connection is cut
// after 256 KiB so batches die mid-body and retransmit. The verdict must not
// notice any of it.
func TestChaosEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos e2e harness")
	}
	sc, ok := scenario.Lookup("error-stuck")
	if !ok {
		t.Fatal("scenario corpus missing error-stuck")
	}
	run, err := sc.Build(scenario.Config{Scenario: "error-stuck", Seed: 7, Days: sc.Spec().MinDays})
	if err != nil {
		t.Fatal(err)
	}
	readings := run.Readings
	if len(readings) < 2000 {
		t.Fatalf("campaign too short for a meaningful fault window: %d readings", len(readings))
	}
	dep := run.Config.Deployment

	// Fault-free reference over the identical wire path.
	refPool := chaosFleet(t, nil)
	refAddr, _, refStop := serveFleet(t, refPool, false)
	refShip, err := ingest.NewShipper(ingest.ShipperConfig{
		URL: "http://" + refAddr + "/ingest", BatchSize: 200, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	shipAll(t, refShip, readings)
	refStop()
	refPool.Drain()
	want := reportBytes(t, refPool, dep)

	// Chaos run: a seeded disk fault with a deterministic onset plus wire
	// faults on both sides. Journal write 5 onward fails ENOSPC. The first
	// four writes are the two shards' segment headers and the first
	// records; each POST journals one record per shard it touches (not one
	// per reading), so a later onset would not open inside phase 1's three
	// POSTs. The disk "heals" at the phase boundary below — while degraded
	// the shard skips journal writes entirely, so only half-open probes
	// touch the fault budget and a count-bounded window would drain one
	// probe at a time, far slower than the campaign.
	ffs := chaos.NewFaultFSSeeded(chaos.OS, 42,
		&chaos.Rule{Op: chaos.OpWrite, Path: "journal-", Err: syscall.ENOSPC, After: 4})
	pool := chaosFleet(t, ffs)
	addr, ln, stop := serveFleet(t, pool, true)
	defer stop()
	ln.FailNextAccepts(3, syscall.EMFILE)
	ln.SetConnFaults(chaos.ConnFaults{CutReadAfter: 256 << 10})
	client := &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{DialContext: chaos.Dialer(chaos.DialFaults{FailFirst: 2})},
	}
	sh, err := ingest.NewShipper(ingest.ShipperConfig{
		URL: "http://" + addr + "/ingest", BatchSize: 200, Client: client, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 lands inside the disk-fault window: the shard must be serving
	// degraded, visible on /status and as a 503 /healthz.
	shipAll(t, sh, readings[:600])
	st := getStatus(t, addr)
	if len(st.Health.DegradedShards) == 0 {
		t.Fatal("no shard degraded inside the journal fault window")
	}
	hz, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d while degraded, want 503", hz.StatusCode)
	}

	// Phase 2: the disk heals; ship the bulk of the campaign, then trickle
	// the holdback until the half-open probe restores durability.
	ffs.Clear()
	rest := readings[600:]
	holdback := rest[len(rest)-400:]
	shipAll(t, sh, rest[:len(rest)-400])
	i := 0
	deadline := time.Now().Add(15 * time.Second)
	for ; i < len(holdback); i++ {
		if len(getStatus(t, addr).Health.DegradedShards) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("breaker never closed after the fault window ended")
		}
		shipAll(t, sh, holdback[i:i+1])
		time.Sleep(2 * time.Millisecond)
	}
	if i == len(holdback) {
		t.Fatal("holdback exhausted while still degraded")
	}
	shipAll(t, sh, holdback[i:])

	// Degradation resolved; the durability gap and the fault evidence must
	// both be visible on /status.
	st = getStatus(t, addr)
	if len(st.Health.DegradedShards) != 0 {
		t.Fatalf("still degraded after recovery: %+v", st.Health)
	}
	var nonDurable uint64
	sawErr := false
	for _, s := range st.Shards {
		nonDurable += s.NonDurable
		if s.LastJournalError != "" {
			sawErr = true
		}
	}
	if nonDurable == 0 {
		t.Fatal("no readings were accounted non-durable across the fault window")
	}
	if !sawErr {
		t.Fatal("last journal error never surfaced on /status")
	}
	if ffs.Injected() == 0 {
		t.Fatal("fault filesystem injected nothing")
	}
	if ln.Accepted() == 0 {
		t.Fatal("chaos listener accepted no connections")
	}

	stop()
	pool.Drain()
	got := reportBytes(t, pool, dep)
	if !bytes.Equal(got, want) {
		t.Errorf("diagnosis after chaos run differs from fault-free reference\n--- chaos\n%s\n--- reference\n%s",
			got, want)
	}
	t.Logf("chaos run: %d readings, %d non-durable, %d faults injected, %d conns accepted",
		len(readings), nonDurable, ffs.Injected(), ln.Accepted())
}
