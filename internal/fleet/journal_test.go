package fleet

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Tests for the batch journal: one record per shard run on the durable
// submit path, and replay of those records (and of legacy JSON segments)
// after a crash. Each compares final reports byte for byte against an
// uninterrupted run.

// tagged stamps tr.Readings[lo:hi] with a deployment key and, when seq is
// set, wire sequence index+1.
func tagged(tr gdi.Trace, dep string, lo, hi int, seq bool) []ingest.Reading {
	out := make([]ingest.Reading, 0, hi-lo)
	for i := lo; i < hi; i++ {
		r := ingest.Reading{Deployment: dep, Reading: tr.Readings[i]}
		if seq {
			r.Seq = uint64(i + 1)
		}
		out = append(out, r)
	}
	return out
}

// interleave merges per-deployment streams round-robin, the arrival order
// submitInterleaved uses.
func interleave(streams ...[]ingest.Reading) []ingest.Reading {
	var out []ingest.Reading
	for i := 0; ; i++ {
		more := false
		for _, s := range streams {
			if i < len(s) {
				out = append(out, s[i])
				more = true
			}
		}
		if !more {
			return out
		}
	}
}

// submitBatches feeds rs through SubmitBatch in batches of size, failing on
// any refusal or drop.
func submitBatches(t *testing.T, p *Pool, rs []ingest.Reading, size int) {
	t.Helper()
	for lo := 0; lo < len(rs); lo += size {
		batch := rs[lo:min(lo+size, len(rs))]
		accepted, dropped, err := p.SubmitBatch(batch)
		if err != nil || dropped != 0 || accepted != len(batch) {
			t.Fatalf("batch at %d: accepted %d dropped %d of %d: %v", lo, accepted, dropped, len(batch), err)
		}
	}
}

// reportsOf runs rs uninterrupted through a non-durable pool and returns the
// final reports of deployments.
func reportsOf(t *testing.T, rs []ingest.Reading, deployments []string) map[string][]byte {
	t.Helper()
	p, err := New(Config{Shards: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	submitBatches(t, p, rs, 500)
	p.Drain()
	return collectReports(t, p, deployments)
}

func compareReports(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	for dep, w := range want {
		if !bytes.Equal(got[dep], w) {
			t.Errorf("deployment %s: report differs from the uninterrupted run:\n--- got\n%s\n--- want\n%s", dep, got[dep], w)
		}
	}
}

// withDeadline fails the test if fn has not returned within d — the
// deadlock guard for the blocking submit paths.
func withDeadline(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %s", d)
	}
}

// journalSeqs reads every segment of one shard directory and returns the
// sequences they hold, in order.
func journalSeqs(t *testing.T, dir string, shard, shards int) []uint64 {
	t.Helper()
	segs, err := journalFiles.list(chaos.OS, shardDir(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, sg := range segs {
		got, err := readSegment(sg.path, shard, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range got {
			seqs = append(seqs, j.seq)
		}
	}
	return seqs
}

// TestCrashRecoveryCheckpointInsideRecord crashes a pool whose checkpoint
// sequence falls inside a batch record: replay must skip exactly the
// readings the checkpoint covers and apply the rest of that record. The
// readings carry no wire sequence, so wire-seq dedup cannot hide a reading
// applied twice.
func TestCrashRecoveryCheckpointInsideRecord(t *testing.T) {
	const width = 100 // one single-shard run, so one record, per batch
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	all := interleave(tagged(tr, "alpha", 0, n, false), tagged(tr, "beta", 0, n, false))
	deps := []string{"alpha", "beta"}
	want := reportsOf(t, all, deps)

	dir := t.TempDir()
	cfg := Config{Shards: 1, Seed: 1, Durability: Durability{Dir: dir, EveryN: 64}}
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := 47 * width // a record boundary well past bootstrap
	submitBatches(t, first, all[:cut], width)
	first.abort()

	// Checkpoints land every 64 readings and records span 100, so at most
	// one of the newest two sits on a record boundary. Recover from one
	// that does not.
	ckpts, err := checkpointFiles.list(chaos.OS, shardDir(dir, 0))
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("no checkpoints to recover from: %v", err)
	}
	newest := ckpts[len(ckpts)-1]
	if newest.seq%width == 0 {
		if len(ckpts) < 2 {
			t.Fatal("only checkpoint sits on a record boundary")
		}
		if err := os.Remove(newest.path); err != nil {
			t.Fatal(err)
		}
		newest = ckpts[len(ckpts)-2]
	}
	if newest.seq%width == 0 || newest.seq >= uint64(cut) {
		t.Fatalf("checkpoint seq %d does not fall inside a journaled record", newest.seq)
	}

	cfg.Durability.Recover = true
	second, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	submitBatches(t, second, all[cut:], width)
	second.Drain()
	compareReports(t, collectReports(t, second, deps), want)
}

// TestDurableSubmitBatchLongerThanQueue submits batches far longer than the
// queue under Block, from two goroutines whose deployments share shards, so
// runs must be cut at the queue depth and slot reservations must not starve
// each other. A crash midway must recover to the uninterrupted reports.
func TestDurableSubmitBatchLongerThanQueue(t *testing.T) {
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	deps := []string{"alpha", "beta", "gamma", "delta"}
	want := referenceReports(t, tr, deps)

	dir := t.TempDir()
	cfg := durableConfig(dir, false)
	cfg.QueueLen = 8
	// Two producers, each owning two deployments' streams.
	producers := [][]ingest.Reading{
		interleave(tagged(tr, "alpha", 0, n, true), tagged(tr, "beta", 0, n, true)),
		interleave(tagged(tr, "gamma", 0, n, true), tagged(tr, "delta", 0, n, true)),
	}
	shared := false
	for _, a := range []string{"alpha", "beta"} {
		for _, b := range []string{"gamma", "delta"} {
			shared = shared || shardIndex(a, cfg.Shards) == shardIndex(b, cfg.Shards)
		}
	}
	if !shared {
		t.Fatal("the producers' deployments share no shard")
	}
	run := func(p *Pool, lo, hi int) {
		var wg sync.WaitGroup
		for _, rs := range producers {
			wg.Add(1)
			go func(rs []ingest.Reading) {
				defer wg.Done()
				for i := lo; i < hi; i += 100 {
					batch := rs[i:min(i+100, hi)]
					if a, d, err := p.SubmitBatch(batch); err != nil || a != len(batch) || d != 0 {
						t.Errorf("batch at %d: accepted %d dropped %d of %d: %v", i, a, d, len(batch), err)
						return
					}
				}
			}(rs)
		}
		wg.Wait()
	}
	cut := n // half of each producer's 2n readings
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, time.Minute, func() { run(first, 0, cut) })
	first.abort()

	second, err := New(durableConfig(dir, true))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	withDeadline(t, time.Minute, func() { run(second, cut, 2*n) })
	second.Drain()
	compareReports(t, collectReports(t, second, deps), want)
}

// TestDurableDropNewestNeverJournalsDrops backs a DropNewest queue up with a
// stalled worker: the readings that find no slot are counted as dropped and
// never reach the journal, and recovery rebuilds exactly the state of the
// readings that were accepted.
func TestDurableDropNewestNeverJournalsDrops(t *testing.T) {
	const queueLen, burst = 16, 200
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	all := tagged(tr, "alpha", 0, n, true)

	release, stalled := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	reg := obs.NewRegistry()
	dir := t.TempDir()
	first, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: queueLen, Policy: DropNewest, Metrics: reg,
		Durability: Durability{Dir: dir, EveryN: 500},
		stallOn: func(ingest.Reading) <-chan struct{} {
			var ch <-chan struct{}
			stallOnce.Do(func() { ch = release; close(stalled) })
			return ch
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The worker takes the first reading, frees its slot and stalls. The
	// burst then finds queueLen free slots for its first run and none
	// after, so exactly queueLen of it are admitted.
	if err := first.Submit(all[0]); err != nil {
		t.Fatal(err)
	}
	<-stalled
	accepted, dropped, err := first.SubmitBatch(all[1 : 1+burst])
	if err != nil || accepted != queueLen || dropped != burst-queueLen {
		t.Fatalf("burst: accepted %d dropped %d: %v (want %d / %d)", accepted, dropped, err, queueLen, burst-queueLen)
	}
	ds := first.shards[0].dur
	ds.mu.Lock()
	journaled := ds.nextSeq
	ds.mu.Unlock()
	if journaled != 1+queueLen {
		t.Fatalf("journal holds %d readings after the burst, want the %d accepted", journaled, 1+queueLen)
	}
	if got := journalSeqs(t, dir, 0, 1); len(got) != 1+queueLen {
		t.Fatalf("journal segment holds %d readings, want %d", len(got), 1+queueLen)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fleet_shard0_dropped_total 184") {
		t.Fatalf("dropped counter does not show the %d shed readings:\n%s", burst-queueLen, firstLines(buf.String(), 30))
	}
	close(release)

	// Everything after the burst is retried until admitted, so the
	// accepted stream is all[:1+queueLen] + all[1+burst:].
	submitRetrying := func(p *Pool, rs []ingest.Reading) {
		for _, r := range rs {
			for {
				err := p.Submit(r)
				if err == nil {
					break
				}
				if !errors.Is(err, ingest.ErrDropped) {
					t.Fatal(err)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
	cut := n / 2
	submitRetrying(first, all[1+burst:cut])
	first.abort()

	second, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: queueLen, Policy: DropNewest,
		Durability: Durability{Dir: dir, EveryN: 500, Recover: true},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	submitRetrying(second, all[cut:])
	second.Drain()

	admitted := append(append([]ingest.Reading(nil), all[:1+queueLen]...), all[1+burst:]...)
	compareReports(t, collectReports(t, second, []string{"alpha"}), reportsOf(t, admitted, []string{"alpha"}))
}

// TestDurableEmptyDeploymentKey: the pool normalises an empty deployment key
// to ingest.DefaultDeployment at intake — as both wire codecs do — so a
// reading journaled under "" replays into the same deployment, on the same
// shard, as one submitted under the default key.
func TestDurableEmptyDeploymentKey(t *testing.T) {
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	deps := []string{ingest.DefaultDeployment}
	want := reportsOf(t, tagged(tr, ingest.DefaultDeployment, 0, n, true), deps)

	dir := t.TempDir()
	first, err := New(durableConfig(dir, false))
	if err != nil {
		t.Fatal(err)
	}
	cut := n / 2
	submitBatches(t, first, tagged(tr, "", 0, cut, true), 250)
	first.abort()

	second, err := New(durableConfig(dir, true))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	for _, r := range tagged(tr, "", cut, n, true) {
		if err := second.Submit(r); err != nil {
			t.Fatal(err)
		}
	}
	second.Drain()
	if got := second.Deployments(); len(got) != 1 || got[0] != ingest.DefaultDeployment {
		t.Fatalf("deployments %v, want only %q", got, ingest.DefaultDeployment)
	}
	compareReports(t, collectReports(t, second, deps), want)
	rep, err := second.Report("")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want[ingest.DefaultDeployment]) {
		t.Error(`Report("") does not resolve to the default deployment`)
	}
}

// TestDurableRejectsInvalidReadings: a reading the journal could not replay
// intact is refused at the durable boundary with ErrInvalidReading naming
// it; SubmitBatch commits exactly the prefix before it, and the journal
// stays gap-free and replayable.
func TestDurableRejectsInvalidReadings(t *testing.T) {
	good := func(i int) ingest.Reading {
		return ingest.Reading{Deployment: "alpha", Seq: uint64(i + 1), Reading: sensor.Reading{
			Sensor: i % 3, Time: time.Duration(i) * time.Minute, Values: vecmat.Vector{15, 80},
		}}
	}
	bad := map[string]ingest.Reading{
		"nan":           {Deployment: "alpha", Reading: sensor.Reading{Values: vecmat.Vector{1, math.NaN()}}},
		"inf":           {Deployment: "alpha", Reading: sensor.Reading{Values: vecmat.Vector{math.Inf(-1)}}},
		"no-values":     {Deployment: "alpha"},
		"negative-time": {Deployment: "alpha", Reading: sensor.Reading{Time: -time.Second, Values: vecmat.Vector{1}}},
		"too-many":      {Deployment: "alpha", Reading: sensor.Reading{Values: make(vecmat.Vector, 4097)}},
		"oversize-key":  {Deployment: strings.Repeat("k", 4097), Reading: sensor.Reading{Values: vecmat.Vector{1}}},
	}
	dir := t.TempDir()
	cfg := Config{Shards: 2, Seed: 1, Durability: Durability{Dir: dir, EveryN: 1 << 30}}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	for name, r := range bad {
		batch := []ingest.Reading{good(next), good(next + 1), good(next + 2), r, good(next + 3)}
		accepted, dropped, err := p.SubmitBatch(batch)
		if !errors.Is(err, ErrInvalidReading) {
			t.Fatalf("%s: SubmitBatch error %v, want ErrInvalidReading", name, err)
		}
		if !strings.Contains(err.Error(), "3 of 5") {
			t.Errorf("%s: error %q does not name reading 3 of 5", name, err)
		}
		if accepted != 3 || dropped != 0 {
			t.Errorf("%s: accepted %d dropped %d, want the 3-reading prefix", name, accepted, dropped)
		}
		next += 3
		if err := p.Submit(r); !errors.Is(err, ErrInvalidReading) {
			t.Errorf("%s: Submit error %v, want ErrInvalidReading", name, err)
		}
	}
	p.abort()

	var seqs []uint64
	for shard := 0; shard < cfg.Shards; shard++ {
		got := journalSeqs(t, dir, shard, cfg.Shards)
		for i, seq := range got {
			if seq != uint64(i+1) {
				t.Fatalf("shard %d journal not gap-free: %v", shard, got)
			}
		}
		seqs = append(seqs, got...)
	}
	if len(seqs) != next {
		t.Fatalf("journal holds %d readings, want the %d accepted", len(seqs), next)
	}
	cfg.Durability.Recover = true
	again, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	again.Drain()
}

// TestDurableSplitsRunsAtFrameSize submits one shard run too large for a
// single frame (300 readings of 4096 values is ~9.8 MB against the 8 MB
// payload bound): it must be cut into several records, all journaled.
func TestDurableSplitsRunsAtFrameSize(t *testing.T) {
	rs := make([]ingest.Reading, 300)
	for i := range rs {
		rs[i] = ingest.Reading{Deployment: "wide", Reading: sensor.Reading{
			Sensor: i % 8, Time: time.Duration(i) * time.Second, Values: make(vecmat.Vector, 4096),
		}}
	}
	dir := t.TempDir()
	p, err := New(Config{Shards: 1, Seed: 1, Durability: Durability{Dir: dir, EveryN: 1 << 30}})
	if err != nil {
		t.Fatal(err)
	}
	if a, d, err := p.SubmitBatch(rs); err != nil || a != len(rs) || d != 0 {
		t.Fatalf("accepted %d dropped %d: %v", a, d, err)
	}
	p.abort()
	if got := journalSeqs(t, dir, 0, 1); len(got) != len(rs) {
		t.Fatalf("journal holds %d readings, want %d", len(got), len(rs))
	}
}

// TestDurableWorkerAppliesJournalOrder: with several producers committing to
// one shard at once, the worker must apply readings in exactly the order the
// journal holds them — the order replay will use — or a checkpoint could
// cover a sequence whose predecessors were not yet applied.
func TestDurableWorkerAppliesJournalOrder(t *testing.T) {
	type key struct {
		dep string
		seq uint64
	}
	tr := stuckTrace(t, 1)
	var mu sync.Mutex
	var applied []key
	dir := t.TempDir()
	// Slow journal writes make committers pile up behind the batch leader,
	// so batches carry several producers' runs.
	slow := chaos.NewFaultFS(chaos.OS, &chaos.Rule{Op: chaos.OpWrite, Path: "journal-", Delay: 200 * time.Microsecond})
	p, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: 16,
		Durability: Durability{Dir: dir, EveryN: 1 << 30, FS: slow},
		stallOn: func(r ingest.Reading) <-chan struct{} {
			mu.Lock()
			applied = append(applied, key{r.Deployment, r.Seq})
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, dep := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(rs []ingest.Reading) {
			defer wg.Done()
			for i := 0; i < len(rs); i += 50 {
				if _, _, err := p.SubmitBatch(rs[i:min(i+50, len(rs))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(tagged(tr, dep, 0, len(tr.Readings), true))
	}
	wg.Wait()
	// Abort rather than drain once everything is applied: the final
	// checkpoint of a drain would prune the segments compared below.
	want := 4 * len(tr.Readings)
	deadline := time.Now().Add(time.Minute)
	for {
		mu.Lock()
		n := len(applied)
		mu.Unlock()
		if n == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker applied %d of %d readings", n, want)
		}
		time.Sleep(time.Millisecond)
	}
	p.abort()

	segs, err := journalFiles.list(chaos.OS, shardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var journaled []key
	for _, sg := range segs {
		got, err := readSegment(sg.path, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range got {
			journaled = append(journaled, key{j.r.Deployment, j.r.Seq})
		}
	}
	if len(journaled) != want {
		t.Fatalf("journaled %d readings, want %d", len(journaled), want)
	}
	for i := range journaled {
		if applied[i] != journaled[i] {
			t.Fatalf("position %d: worker applied %v, journal holds %v", i, applied[i], journaled[i])
		}
	}
}
