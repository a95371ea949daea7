package fleet

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Tests for the batch journal: one record per shard run on the durable
// submit path, and replay of those records after a crash. Each compares
// final reports with the offline run's and keeps its files on a memFS.

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
func journalSeqs(t *testing.T, fsys chaos.FS, dir string, shard, shards int) []uint64 {
	t.Helper()
	segs, err := journalFiles.list(fsys, shardDir(dir, shard))
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	for _, sg := range segs {
		got, err := readSegment(fsys, sg.path, shard, shards)
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
// applied twice. It is the harness's SubmitBatch cell on one shard.
func TestCrashRecoveryCheckpointInsideRecord(t *testing.T) {
	const width = 100 // one single-shard run, so one record, per batch
	tr := stuckTrace(t, 3)
	st := newStream(t, interleave(tagged(tr.Readings, "alpha", false), tagged(tr.Readings, "beta", false)))
	cut := 47 * width // a record boundary well past bootstrap
	cell{path: viaBatch, shards: 1, batch: width, durable: true, crash: "inside-record", cut: cut,
		crashed: func(t *testing.T, fsys chaos.FS, dir string) {
			// Checkpoints land every 64 readings and records span 100, so
			// at most one of the newest two sits on a record boundary.
			// Recover from one that does not.
			ckpts, err := checkpointFiles.list(fsys, shardDir(dir, 0))
			if err != nil || len(ckpts) == 0 {
				t.Fatalf("no checkpoints to recover from: %v", err)
			}
			newest := ckpts[len(ckpts)-1]
			if newest.seq%width == 0 {
				if len(ckpts) < 2 {
					t.Fatal("only checkpoint sits on a record boundary")
				}
				if err := fsys.Remove(newest.path); err != nil {
					t.Fatal(err)
				}
				newest = ckpts[len(ckpts)-2]
			}
			if newest.seq%width == 0 || newest.seq >= uint64(cut) {
				t.Fatalf("checkpoint seq %d does not fall inside a journaled record", newest.seq)
			}
		}}.run(t, st)
}

// TestDurableSubmitBatchLongerThanQueue submits batches far longer than the
// queue under Block, from two goroutines whose deployments share shards, so
// runs must be cut at the queue depth and slot reservations must not starve
// each other. A crash midway must recover to the offline reports.
func TestDurableSubmitBatchLongerThanQueue(t *testing.T) { submitBatchesLongerThanQueue(t, true) }

// submitBatchesLongerThanQueue runs two producers, each owning two
// deployments' streams, through a queue of 8 in batches of 100. When durable,
// the pool crashes halfway and a recovered one takes the rest.
func submitBatchesLongerThanQueue(t *testing.T, durable bool) {
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	st := newStream(t, fanOut(tr.Readings, "alpha", "beta", "gamma", "delta"))

	cfg := Config{Shards: 2, Seed: 1}
	if durable {
		cfg = durableConfig("mem", false)
		cfg.Durability.FS = newMemFS()
	}
	cfg.QueueLen = 8
	producers := [][]ingest.Reading{fanOut(tr.Readings, "alpha", "beta"), fanOut(tr.Readings, "gamma", "delta")}
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
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cut := 2 * n // each producer's whole stream
	if durable {
		cut = n // half of it
	}
	withDeadline(t, time.Minute, func() { run(p, 0, cut) })
	if durable {
		p.abort()
		cfg.QueueLen = 0
		cfg.Durability.Recover = true
		if p, err = New(cfg); err != nil {
			t.Fatalf("recover: %v", err)
		}
		withDeadline(t, time.Minute, func() { run(p, cut, 2*n) })
	}
	p.Drain()
	st.check(t, p)
}

// TestDurableDropNewestNeverJournalsDrops backs a DropNewest queue up with a
// stalled worker: the readings that find no slot are counted as dropped and
// never reach the journal, and recovery rebuilds exactly the state of the
// readings that were accepted.
func TestDurableDropNewestNeverJournalsDrops(t *testing.T) {
	const queueLen, burst = 16, 200
	tr := stuckTrace(t, 3)
	n := len(tr.Readings)
	all := tagged(tr.Readings, "alpha", true)

	release, stalled := make(chan struct{}), make(chan struct{})
	var stallOnce sync.Once
	reg := obs.NewRegistry()
	dir, fsys := "mem", newMemFS()
	first, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: queueLen, Policy: DropNewest, Metrics: reg,
		Durability: Durability{Dir: dir, EveryN: 500, FS: fsys},
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
	if got := journalSeqs(t, fsys, dir, 0, 1); len(got) != 1+queueLen {
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
	cut := n / 2
	submitRetrying(t, first, all[1+burst:cut])
	first.abort()

	second, err := New(Config{
		Shards: 1, Seed: 1, QueueLen: queueLen, Policy: DropNewest,
		Durability: Durability{Dir: dir, EveryN: 500, Recover: true, FS: fsys},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	submitRetrying(t, second, all[cut:])
	second.Drain()

	admitted := append(append([]ingest.Reading(nil), all[:1+queueLen]...), all[1+burst:]...)
	newStream(t, admitted).check(t, second)
}

// TestDurableEmptyDeploymentKey: the pool normalises an empty deployment key
// to ingest.DefaultDeployment at intake — as both wire codecs do — so a
// reading journaled under "" replays into the same deployment, on the same
// shard, as one submitted under the default key (a harness cell crashed
// mid-stream).
func TestDurableEmptyDeploymentKey(t *testing.T) {
	st := newStream(t, tagged(stuckTrace(t, 3).Readings, "", true))
	second := cell{path: viaBatch, batch: 250, shards: 2, durable: true, crash: "mid", cut: len(st.rs) / 2}.run(t, st)
	if got := second.Deployments(); len(got) != 1 || got[0] != ingest.DefaultDeployment {
		t.Fatalf("deployments %v, want only %q", got, ingest.DefaultDeployment)
	}
	rep, err := second.Report("")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := st.want[ingest.DefaultDeployment].report.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Error(`Report("") does not resolve to the default deployment`)
	}
}

// TestDurableRejectsInvalidReadings: a reading the journal could not replay
// intact is refused at admission with ErrInvalidReading naming it, with
// durability on or off; SubmitBatch commits exactly the prefix before it,
// and the journal stays gap-free and replayable.
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
	for _, durable := range []bool{true, false} {
		t.Run(map[bool]string{true: "durability on", false: "durability off"}[durable], func(t *testing.T) {
			dir, fsys := "mem", newMemFS()
			cfg := Config{Shards: 2, Seed: 1}
			if durable {
				cfg.Durability = Durability{Dir: dir, EveryN: 1 << 30, FS: fsys}
			}
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
			if !durable {
				return
			}

			var seqs []uint64
			for shard := 0; shard < cfg.Shards; shard++ {
				got := journalSeqs(t, fsys, dir, shard, cfg.Shards)
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
		})
	}
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
	dir, fsys := "mem", newMemFS()
	p, err := New(Config{Shards: 1, Seed: 1, Durability: Durability{Dir: dir, EveryN: 1 << 30, FS: fsys}})
	if err != nil {
		t.Fatal(err)
	}
	if a, d, err := p.SubmitBatch(rs); err != nil || a != len(rs) || d != 0 {
		t.Fatalf("accepted %d dropped %d: %v", a, d, err)
	}
	p.abort()
	if got := journalSeqs(t, fsys, dir, 0, 1); len(got) != len(rs) {
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
	dir, mem := "mem", newMemFS()
	// Slow journal writes make committers pile up behind the batch leader,
	// so batches carry several producers' runs.
	slow := chaos.NewFaultFS(mem, &chaos.Rule{Op: chaos.OpWrite, Path: "journal-", Delay: 200 * time.Microsecond})
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
		}(tagged(tr.Readings, dep, true))
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

	segs, err := journalFiles.list(mem, shardDir(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	var journaled []key
	for _, sg := range segs {
		got, err := readSegment(mem, sg.path, 0, 1)
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
