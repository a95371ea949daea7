package fleet

import (
	"bytes"
	"strings"
	"syscall"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// chaosConfig is durableConfig with a fault-injecting filesystem and breaker
// timings tight enough to exercise trip → probe → recover inside a test.
func chaosConfig(dir string, recover bool, ffs *chaos.FaultFS) Config {
	cfg := durableConfig(dir, recover)
	cfg.Durability.FS = ffs
	cfg.Durability.breakerBase = 5 * time.Millisecond
	cfg.Durability.breakerMax = 50 * time.Millisecond
	cfg.Durability.checkpointCooldown = 20 * time.Millisecond
	return cfg
}

// waitUntil polls cond until it holds or the deadline lapses.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJournalFaultDegradesThenRecovers pins the degraded-mode contract: a
// journal write fault must not reject a single Submit — the shard flips to
// non-durable serving, surfaces through Health and ShardStatuses, and once
// the disk heals the breaker's half-open probe restores durability and the
// degraded signals clear.
func TestJournalFaultDegradesThenRecovers(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(chaos.OS)
	reg := obs.NewRegistry()
	cfg := chaosConfig(dir, false, ffs)
	cfg.Metrics = reg
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Drain()

	submit := func(i int) {
		t.Helper()
		if err := pool.Submit(ingest.Reading{
			Deployment: "alpha",
			Seq:        uint64(i + 1),
			Reading: sensor.Reading{
				Time:   time.Duration(i) * time.Minute,
				Values: vecmat.Vector{1, 2},
			},
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	for i := 0; i < 10; i++ {
		submit(i)
	}

	// Break every journal write. Submits must keep succeeding while the
	// shard degrades.
	ffs.AddRule(&chaos.Rule{Op: chaos.OpWrite, Path: "journal-", Err: syscall.ENOSPC})
	for i := 10; i < 40; i++ {
		submit(i)
	}
	if got := pool.degradedShards(); len(got) == 0 {
		t.Fatal("journal faults never degraded any shard")
	}
	h := pool.Health()
	if h.Ready || len(h.DegradedShards) == 0 {
		t.Fatalf("health = %+v, want degraded with degraded_shards set", h)
	}
	found := false
	for _, r := range h.Reasons {
		if strings.Contains(r, "journal degraded") {
			found = true
		}
	}
	if !found {
		t.Fatalf("health reasons %v missing journal-degraded", h.Reasons)
	}
	sts := pool.ShardStatuses()
	var degraded *ShardStatus
	for i := range sts {
		if sts[i].Degraded {
			degraded = &sts[i]
		}
	}
	if degraded == nil {
		t.Fatal("ShardStatuses shows no degraded shard")
	}
	if degraded.NonDurable == 0 || degraded.LastJournalError == "" {
		t.Fatalf("degraded shard status %+v missing non-durable count or last error", *degraded)
	}
	if ffs.Injected() == 0 {
		t.Fatal("fault filesystem injected nothing")
	}

	// Heal the disk. The next submits run the half-open probe once the
	// backoff lapses; durability must come back on its own.
	ffs.Clear()
	waitUntil(t, 5*time.Second, func() bool {
		submit(40)
		return len(pool.degradedShards()) == 0
	}, "breaker never closed after the disk healed")
	if h := pool.Health(); len(h.DegradedShards) != 0 {
		t.Fatalf("health still lists degraded shards after recovery: %+v", h)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	if !strings.Contains(metrics, "fleet_journal_degraded_total") {
		t.Error("metrics missing fleet_journal_degraded_total")
	}
	if !strings.Contains(metrics, "nondurable_total") {
		t.Error("metrics missing per-shard nondurable_total")
	}
}

// TestDegradedCrashConvergence is the chaos-tentpole equivalence guarantee:
// degrade the journal mid-stream, crash while degraded (the non-durable tail
// is lost, as documented), recover, and have the producer retransmit from
// before the fault. The final reports must be byte-identical to a fault-free
// run — the journal held everything acknowledged durable, dedup absorbs the
// overlap, and the retransmission covers the non-durable window.
func TestDegradedCrashConvergence(t *testing.T) {
	tr := stuckTrace(t, 5)
	deployments := []string{"alpha", "beta"}
	want := referenceReports(t, tr, deployments)

	dir := t.TempDir()
	n := len(tr.Readings)
	healthy := n / 2     // journaled durably
	faulted := 3 * n / 4 // accepted non-durable, lost at the crash

	ffs := chaos.NewFaultFS(chaos.OS)
	first, err := New(chaosConfig(dir, false, ffs))
	if err != nil {
		t.Fatal(err)
	}
	submitInterleaved(t, first, deployments, tr, 0, healthy)
	ffs.AddRule(&chaos.Rule{Op: chaos.OpWrite, Path: "journal-", Err: syscall.EIO})
	submitInterleaved(t, first, deployments, tr, healthy, faulted)
	if len(first.degradedShards()) == 0 {
		t.Fatal("journal faults never degraded any shard")
	}
	first.abort() // crash while degraded: the non-durable tail is gone

	second, err := New(durableConfig(dir, true))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	// The producer retries from before the fault window; wire-seq dedup
	// absorbs whatever the journal already held.
	retry := healthy - healthy/4
	submitInterleaved(t, second, deployments, tr, retry, n)
	second.Drain()

	got := collectReports(t, second, deployments)
	for _, dep := range deployments {
		if !bytes.Equal(got[dep], want[dep]) {
			t.Errorf("deployment %s: post-chaos report differs from fault-free reference", dep)
		}
	}
}

// TestCheckpointFailureCoolsDownAndSurfaces pins the checkpoint failure path:
// a failing checkpoint is recorded (sticky error on ShardStatuses), retried
// on a cooldown instead of every reading, and a later success clears it.
func TestCheckpointFailureCoolsDownAndSurfaces(t *testing.T) {
	dir := t.TempDir()
	ffs := chaos.NewFaultFS(chaos.OS)
	pool, err := New(chaosConfig(dir, false, ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Drain()

	// Fail the checkpoint rename — the journal stays healthy, so readings
	// remain durable; only the checkpoint path is broken.
	ffs.AddRule(&chaos.Rule{Op: chaos.OpRename, Path: "checkpoint-", Err: syscall.EIO})

	submit := func(i int) {
		t.Helper()
		if err := pool.Submit(ingest.Reading{
			Deployment: "alpha",
			Seq:        uint64(i + 1),
			Reading: sensor.Reading{
				Time:   time.Duration(i) * time.Minute,
				Values: vecmat.Vector{1, 2},
			},
		}); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// durableConfig checkpoints every 64 applied readings; push well past it.
	for i := 0; i < 200; i++ {
		submit(i)
	}
	waitUntil(t, 5*time.Second, func() bool {
		for _, st := range pool.ShardStatuses() {
			if st.LastCheckpointError != "" {
				return true
			}
		}
		return false
	}, "checkpoint failure never surfaced on ShardStatuses")
	if len(pool.degradedShards()) != 0 {
		t.Fatal("checkpoint failure must not degrade the journal breaker")
	}

	ffs.Clear()
	// Keep submitting: once the cooldown lapses the next due checkpoint
	// succeeds and clears the sticky error.
	i := 200
	waitUntil(t, 5*time.Second, func() bool {
		for j := 0; j < 70; j++ {
			submit(i)
			i++
		}
		for _, st := range pool.ShardStatuses() {
			if st.LastCheckpointError != "" {
				return false
			}
		}
		return true
	}, "checkpoint error never cleared after the disk healed")
}
