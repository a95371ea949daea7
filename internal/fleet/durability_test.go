package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// durableConfig is the pool configuration every recovery test shares; the
// aggressive EveryN forces many checkpoint/rotation cycles per run.
func durableConfig(dir string, recover bool) Config {
	return Config{
		Shards: 2,
		Seed:   1,
		Durability: Durability{
			Dir:     dir,
			EveryN:  64,
			Recover: recover,
		},
	}
}

// TestCrashRecoveryEquivalence is the durability tentpole guarantee: kill the
// pool mid-stream (no drain, no final checkpoint — exactly what SIGKILL
// leaves), recover a fresh pool from the same directory, stream the rest, and
// the final reports must be byte-identical to the offline run's. Crash
// points cover a deployment still buffering its bootstrap horizon, one just
// past it, and one deep into the stream with open tracks and checkpoints
// behind it. Each is a differential harness cell; mid-stream runs on the
// real disk, so the os filesystem stays covered.
func TestCrashRecoveryEquivalence(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 7).Readings, "alpha", "beta", "gamma"))
	n := len(st.rs)
	for _, c := range []cell{
		{crash: "during-bootstrap", cut: n / 10},        // inside the 24h buffering horizon
		{crash: "mid-stream", cut: n / 2, onDisk: true}, // detectors live, tracks open
		{crash: "near-end", cut: 9 * n / 10},            // quarantine state accumulated
	} {
		c.path, c.shards, c.durable = viaSubmit, 2, true
		t.Run(c.crash, func(t *testing.T) { c.run(t, st) })
	}
}

// TestCrashRecoveryRetransmission covers the producer-retry path: after the
// crash, the producer replays a chunk it already sent (same wire sequences).
// The journal-recovered state must skip the duplicates and the final report
// must still match the offline run (the harness's retransmit cell).
func TestCrashRecoveryRetransmission(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 5).Readings, "alpha", "beta"))
	cut := len(st.rs) / 2 // the producer retries conservatively from before it
	second := cell{path: viaSubmit, shards: 2, durable: true, crash: "mid", cut: cut, resend: cut - cut/4}.run(t, st)
	var buf bytes.Buffer
	if err := second.cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "duplicates_total") {
		t.Error("metrics missing duplicates counter")
	}
}

// TestRecoveryToleratesTornTail truncates the newest journal segment
// mid-record (what a crash during an append leaves) and corrupts the newest
// checkpoint outright; recovery must fall back to the previous checkpoint
// plus the intact journal prefix without error, and resubmitting from the
// surviving sequence must converge to the offline report. The damage lost
// an unknown tail of accepted readings, so the producer replays generously
// from well before the crash (wire-seq dedup skips what survived).
func TestRecoveryToleratesTornTail(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 5).Readings, "alpha", "beta"))
	cut := 3 * len(st.rs) / 4
	cell{path: viaSubmit, shards: 2, durable: true, onDisk: true, crash: "torn-tail", cut: cut, resend: cut / 2,
		crashed: func(t *testing.T, _ chaos.FS, dir string) {
			// Damage every shard directory: tear the newest journal's tail and
			// flip bytes in the newest checkpoint.
			for shardID := 0; shardID < 2; shardID++ {
				sdir := shardDir(dir, shardID)
				segs, err := journalFiles.list(chaos.OS, sdir)
				if err != nil || len(segs) == 0 {
					t.Fatalf("shard %d journals: %v (%d)", shardID, err, len(segs))
				}
				newest := segs[len(segs)-1].path
				data, err := os.ReadFile(newest)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(newest, data[:len(data)-len(data)/4], 0o644); err != nil {
					t.Fatal(err)
				}
				ckpts, err := checkpointFiles.list(chaos.OS, sdir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ckpts) > 1 { // keep at least one valid checkpoint to fall back to
					cdata, err := os.ReadFile(ckpts[len(ckpts)-1].path)
					if err != nil {
						t.Fatal(err)
					}
					for i := len(cdata) / 2; i < len(cdata)/2+32 && i < len(cdata); i++ {
						cdata[i] ^= 0xff
					}
					if err := os.WriteFile(ckpts[len(ckpts)-1].path, cdata, 0o644); err != nil {
						t.Fatal(err)
					}
				}
			}
		}}.run(t, st)
}

// TestRecoverEmptyDir pins down that Recover against a directory with no
// prior state is a plain fresh start.
func TestRecoverEmptyDir(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 2).Readings, "alpha"))
	pool, err := New(durableConfig(t.TempDir(), true))
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, pool, st.rs)
	pool.Drain()
	st.check(t, pool)
}

// TestRecoveryRejectsConfigMismatch: state written under one shard count or
// window must not silently load into a pool configured differently.
func TestRecoveryRejectsConfigMismatch(t *testing.T) {
	tr := stuckTrace(t, 2)
	cfg := durableConfig("mem", false)
	cfg.Durability.FS = newMemFS()
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, first, tagged(tr.Readings[:len(tr.Readings)/2], "alpha", true))
	first.abort()

	cfg.Durability.Recover = true
	bad := cfg
	bad.Shards = 3
	if _, err := New(bad); err == nil {
		t.Error("recovery accepted a shard-count mismatch")
	}

	badWindow := cfg
	badWindow.Window = 30 * time.Minute
	if _, err := New(badWindow); err == nil {
		t.Error("recovery accepted a window mismatch")
	}
}

// TestPanicQuarantinesDeployment injects a panic while handling one
// deployment's stream and checks the blast radius: that deployment is
// quarantined with a typed status, every other deployment on the same shard
// keeps running to the correct report, and the supervisor's panic/restart
// counters tick.
func TestPanicQuarantinesDeployment(t *testing.T) {
	tr := stuckTrace(t, 5)
	st := newStream(t, fanOut(tr.Readings, "alpha", "beta", "victim"))

	reg := obs.NewRegistry()
	boom := tr.Readings[len(tr.Readings)/2].Time
	pool, err := New(Config{
		Shards:  1, // one worker owns everything: maximal blast radius if isolation fails
		Seed:    1,
		Metrics: reg,
		panicOn: func(r ingest.Reading) bool {
			return r.Deployment == "victim" && r.Time >= boom
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, pool, st.rs)
	pool.Drain()

	vs, err := pool.Status("victim")
	if err != nil {
		t.Fatal(err)
	}
	if vs.State != StateQuarantined {
		t.Errorf("victim state %q, want %q", vs.State, StateQuarantined)
	}
	if vs.Err == "" || !strings.Contains(vs.Err, "panic") {
		t.Errorf("victim error %q does not identify the panic", vs.Err)
	}
	if _, err := pool.Report("victim"); err == nil {
		t.Error("quarantined deployment still serves reports")
	}

	delete(st.want, "victim")
	st.check(t, pool)
	for _, dep := range []string{"alpha", "beta"} {
		ds, err := pool.Status(dep)
		if err != nil {
			t.Fatal(err)
		}
		if ds.State != StateRunning {
			t.Errorf("%s state %q, want %q", dep, ds.State, StateRunning)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	if !strings.Contains(metrics, "fleet_panics_total 1") {
		t.Errorf("fleet_panics_total != 1:\n%s", firstLines(metrics, 40))
	}
	if !strings.Contains(metrics, "fleet_restarts_total 1") {
		t.Errorf("fleet_restarts_total != 1:\n%s", firstLines(metrics, 40))
	}
}

// TestCheckpointRetention checks pruning holds the directory to the newest
// two checkpoints and only the journal segments recovery needs.
func TestCheckpointRetention(t *testing.T) {
	tr := stuckTrace(t, 5)
	dir, fsys := "mem", newMemFS()
	cfg := durableConfig(dir, false)
	cfg.Durability.FS = fsys
	pool, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, pool, fanOut(tr.Readings, "alpha", "beta"))
	pool.Drain()

	for shardID := 0; shardID < 2; shardID++ {
		sdir := shardDir(dir, shardID)
		ckpts, err := checkpointFiles.list(fsys, sdir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ckpts) == 0 || len(ckpts) > 2 {
			t.Errorf("shard %d holds %d checkpoints, want 1-2", shardID, len(ckpts))
		}
		segs, err := journalFiles.list(fsys, sdir)
		if err != nil {
			t.Fatal(err)
		}
		oldest := ckpts[0].seq
		covered := false
		for _, sg := range segs {
			if sg.seq <= oldest {
				if covered {
					t.Errorf("shard %d keeps more than one segment below checkpoint seq %d", shardID, oldest)
				}
				covered = true
			}
		}
		entries, err := fsys.ReadDir(sdir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".tmp" {
				t.Errorf("shard %d left temp file %s behind", shardID, e.Name())
			}
		}
	}
}

// TestStatusStates walks a deployment through the bootstrapping and running
// states (failed/quarantined are covered elsewhere).
func TestStatusStates(t *testing.T) {
	tr := stuckTrace(t, 3)
	pool, err := New(Config{Shards: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rs := tagged(tr.Readings, "alpha", true)
	cell{}.feed(t, pool, rs[:10])
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := pool.Status("alpha")
		if err == nil {
			if st.State != StateBootstrapping {
				t.Errorf("early state %q, want %q", st.State, StateBootstrapping)
			}
			break
		}
		if !errors.Is(err, ErrUnknownDeployment) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("deployment never registered")
		}
		time.Sleep(time.Millisecond)
	}
	cell{}.feed(t, pool, rs[10:])
	pool.Drain()
	st, err := pool.Status("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRunning {
		t.Errorf("final state %q, want %q", st.State, StateRunning)
	}
	if !st.Bootstrapped {
		t.Error("final status not bootstrapped")
	}
}

// journaled is one reading as a journal segment hands it back.
type journaled struct {
	seq uint64
	r   ingest.Reading
}

// readSegment decodes a segment file completely.
func readSegment(fsys chaos.FS, path string, shard, shards int) ([]journaled, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []journaled
	err = decodeSegment(data, shard, shards, func(seq uint64, r ingest.Reading) bool {
		out = append(out, journaled{seq, r})
		return true
	})
	return out, err
}

// appendJournalRecord builds the record the submit path stages for a run
// starting at sequence first.
func appendJournalRecord(tb testing.TB, buf []byte, first uint64, rs []ingest.Reading) []byte {
	tb.Helper()
	var enc ingest.FrameEncoder
	rec, err := enc.AppendFrame(beginRecord(nil), rs)
	if err != nil {
		tb.Fatal(err)
	}
	sealRecord(rec, first)
	return append(buf, rec...)
}

// sameReading compares every field a journal must carry, values bit for bit.
func sameReading(a, b ingest.Reading) bool {
	if a.Deployment != b.Deployment || a.Seq != b.Seq || a.Sensor != b.Sensor ||
		a.Time != b.Time || len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

// TestJournalRoundTrip exercises the segment codec directly: batch records
// written are read back bit for bit with their sequences, shard-identity
// mismatches are refused, and a torn final record is lost whole.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := openJournal(chaos.OS, dir, 1, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	var want []journaled
	var buf []byte
	next := uint64(101)
	for rec := 0; rec < 3; rec++ {
		var run []ingest.Reading
		for i := 0; i < 2+rec; i++ { // ragged runs: 2, 3, 4 readings
			k := len(want) + i + 1
			run = append(run, ingest.Reading{
				Deployment: fmt.Sprintf("dep-%d", k%3),
				Seq:        uint64(k),
				Reading: sensor.Reading{
					Sensor: k % 4,
					Time:   time.Duration(k)*time.Minute + 7, // not a whole second
					Values: vecmat.Vector{float64(k) / 3, math.Nextafter(0.5, 1), -0.0},
				},
			})
		}
		buf = appendJournalRecord(t, buf, next, run)
		for i, r := range run {
			want = append(want, journaled{next + uint64(i), r})
		}
		next += uint64(len(run))
	}
	if err := w.write(buf); err != nil {
		t.Fatal(err)
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
	path := journalFiles.path(dir, 100)
	got, err := readSegment(chaos.OS, path, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d readings, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].seq != want[i].seq || !sameReading(got[i].r, want[i].r) {
			t.Fatalf("reading %d mismatch: %+v != %+v", i, got[i], want[i])
		}
	}
	if _, err := readSegment(chaos.OS, path, 0, 4); err == nil {
		t.Error("journal for shard 1 accepted by shard 0")
	}
	if _, err := readSegment(chaos.OS, path, 1, 8); err == nil {
		t.Error("journal for 4-shard layout accepted by 8-shard pool")
	}

	// A torn tail (partial final record) must cost exactly the final
	// record — all four of its readings, never a prefix of them.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = readSegment(chaos.OS, path, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want)-4 {
		t.Fatalf("torn tail: read %d readings, want %d", len(got), len(want)-4)
	}
}

// TestRestoreRejectsUnknownFields ensures restoreDeployment refuses
// inconsistent records rather than building partial deployments.
func TestRestoreRejectsBadDeploymentRecords(t *testing.T) {
	cfg := Config{}.withDefaults()
	cfg.Durability = Durability{Dir: t.TempDir()}
	cfg = cfg.withDefaults()
	cases := map[string]deploymentCheckpoint{
		"negative-first": {Name: "d", State: StateBootstrapping, FirstNS: -1},
		"unknown-state":  {Name: "d", State: "zombie"},
		"failed-no-err":  {Name: "d", State: StateFailed},
		"windower-only": {Name: "d", State: StateRunning,
			Windower: &ingest.WindowerState{Width: cfg.Window, Lateness: cfg.Lateness}},
		"bad-pending": {Name: "d", State: StateBootstrapping,
			Pending: 1, frames: [][]byte{{ingest.FrameMagic, ingest.FrameVersion, 0xff}}},
	}
	s := &shard{pool: &Pool{cfg: cfg}}
	for name, rec := range cases {
		if _, err := s.restoreDeployment(rec, new([]ingest.Reading)); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
}

// spreadDeployments names perShard deployments routed to each of shards
// shards.
func spreadDeployments(shards, perShard int) []string {
	var out []string
	count := make([]int, shards)
	for i := 0; len(out) < shards*perShard; i++ {
		name := fmt.Sprintf("dep-%d", i)
		if s := shardIndex(name, shards); count[s] < perShard {
			count[s]++
			out = append(out, name)
		}
	}
	return out
}

// bootstrapCut is the index of the first reading at or after 23 h: a crash
// there leaves every checkpoint inside the 24 h bootstrap.
func bootstrapCut(tr gdi.Trace) int {
	for i, r := range tr.Readings {
		if r.Time >= 23*time.Hour {
			return i
		}
	}
	return len(tr.Readings)
}

// TestCrashRecoveryParallelShards: four shards, deployments on every one,
// killed while each shard's newest checkpoint holds its deployments'
// bootstrap buffers, recover in parallel and must still match the offline
// run (a harness cell).
func TestCrashRecoveryParallelShards(t *testing.T) {
	tr := stuckTrace(t, 3)
	deployments := spreadDeployments(4, 2)
	st := newStream(t, fanOut(tr.Readings, deployments...))
	cell{path: viaSubmit, shards: 4, durable: true, crash: "bootstrap", cut: bootstrapCut(tr) * len(deployments),
		crashed: func(t *testing.T, fsys chaos.FS, dir string) {
			for id := 0; id < 4; id++ {
				ckpts, err := checkpointFiles.list(fsys, shardDir(dir, id))
				if err != nil || len(ckpts) == 0 {
					t.Fatalf("shard %d: no checkpoint (%v)", id, err)
				}
				data, err := fsys.ReadFile(ckpts[len(ckpts)-1].path)
				if err != nil {
					t.Fatal(err)
				}
				cf, err := decodeCheckpoint(data, id, 4)
				if err != nil {
					t.Fatal(err)
				}
				if len(cf.deployments) != 2 {
					t.Fatalf("shard %d checkpoint holds %d deployments, want 2", id, len(cf.deployments))
				}
				for _, d := range cf.deployments {
					if d.State != StateBootstrapping || d.Pending == 0 || len(d.frames) == 0 {
						t.Fatalf("shard %d: %s is %s with %d pending readings, want a bootstrap buffer", id, d.Name, d.State, d.Pending)
					}
				}
			}
		}}.run(t, st)
}

// snapshotTree reads every file under dir, keyed by path.
func snapshotTree(t *testing.T, fsys chaos.FS, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if e.IsDir() {
			maps.Copy(out, snapshotTree(t, fsys, path))
		} else if out[path], err = fsys.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// handleCountFS counts the files it has open.
type handleCountFS struct {
	chaos.FS
	open atomic.Int64
}

func (c *handleCountFS) OpenFile(name string, flag int, perm fs.FileMode) (chaos.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

type countedFile struct {
	chaos.File
	fs     *handleCountFS
	closed sync.Once
}

func (f *countedFile) Close() error {
	f.closed.Do(func() { f.fs.open.Add(-1) })
	return f.File.Close()
}

// TestRecoveryFailureLeavesDiskUntouched: a recovery that fails on some
// shards changes nothing on disk, reports the lowest-numbered failing
// shard's error, and closes every journal it opened; a later recovery with
// a healthy disk still matches the uninterrupted run.
func TestRecoveryFailureLeavesDiskUntouched(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 3).Readings, spreadDeployments(4, 1)...))
	cut := len(st.rs) / 2

	dir, mem := "mem", newMemFS()
	cfg := durableConfig(dir, false)
	cfg.Shards = 4
	cfg.Durability.FS = mem
	first, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, first, st.rs[:cut])
	first.abort()
	image := snapshotTree(t, mem, dir)

	ffs := chaos.NewFaultFS(mem)
	counter := &handleCountFS{FS: ffs}
	cfg.Durability.Recover = true
	cfg.Durability.FS = counter

	// Loading fails on shards 1 and 3: shards 0 and 2 load fine but must
	// not write their collapse checkpoints.
	ffs.AddRule(&chaos.Rule{Op: chaos.OpRead, Path: "shard-1" + string(filepath.Separator) + "journal-", Err: syscall.EIO})
	ffs.AddRule(&chaos.Rule{Op: chaos.OpRead, Path: "shard-3" + string(filepath.Separator) + "journal-", Err: syscall.EIO})
	_, err = New(cfg)
	if err == nil {
		t.Fatal("recovery succeeded with unreadable journals")
	}
	if !strings.Contains(err.Error(), "shard-1") {
		t.Errorf("error %q is not shard 1's", err)
	}
	after := snapshotTree(t, mem, dir)
	if len(after) != len(image) {
		t.Errorf("failed recovery left %d files, image has %d", len(after), len(image))
	}
	for path, data := range image {
		if !bytes.Equal(after[path], data) {
			t.Errorf("failed recovery changed %s", path)
		}
	}
	if open := counter.open.Load(); open != 0 {
		t.Errorf("failed recovery left %d files open", open)
	}

	// Committing fails on shard 2 after the others have opened their
	// journals: every one of them must be closed again.
	ffs.Clear()
	ffs.AddRule(&chaos.Rule{Op: chaos.OpRename, Path: "shard-2" + string(filepath.Separator) + "checkpoint-", Err: syscall.EIO})
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "shard-2") {
		t.Fatalf("commit failure: error %v, want shard 2's", err)
	}
	if open := counter.open.Load(); open != 0 {
		t.Errorf("failed commit left %d files open", open)
	}

	ffs.Clear()
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	cell{}.feed(t, p, st.rs[cut:])
	p.Drain()
	st.check(t, p)
	if open := counter.open.Load(); open != 0 {
		t.Errorf("drained pool left %d files open", open)
	}
}

// sameTree fails the test unless dir holds exactly the files of image, byte
// for byte.
func sameTree(t *testing.T, dir string, image map[string][]byte) {
	t.Helper()
	after := snapshotTree(t, chaos.OS, dir)
	if len(after) != len(image) {
		t.Errorf("directory holds %d files, image has %d", len(after), len(image))
	}
	for path, data := range image {
		if !bytes.Equal(after[path], data) {
			t.Errorf("%s changed", path)
		}
	}
}

// crashImage runs one durable shard over the first n readings of a stuck
// trace for deployment "old" and crashes it, leaving two retained
// checkpoints and the journal segments they need in dir. The short queue
// keeps the worker, whose checkpoints name the files, within a few readings
// of the submitter, so the image does not depend on scheduling.
func crashImage(t *testing.T, dir string, n int) Config {
	t.Helper()
	cfg := durableConfig(dir, false)
	cfg.Shards = 1
	cfg.QueueLen = 16
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cell{}.feed(t, p, tagged(stuckTrace(t, 3).Readings[:n], "old", true))
	p.abort()
	cfg.Durability.Recover = true
	return cfg
}

// TestRecoveryRefusesRetiredFormat: a checkpoint or journal segment that
// recovery would read and that begins with a retired magic (sgckpt1,
// sgwal1) stops recovery with ErrRetiredFormat naming the file. Recovery
// must not fall back past it to an older checkpoint, or replay past it as
// if the journal ended there, and it leaves the directory untouched.
func TestRecoveryRefusesRetiredFormat(t *testing.T) {
	for _, kind := range []struct {
		name         string
		files        fileKind
		magic, retro string
	}{
		{"checkpoint", checkpointFiles, checkpointMagic, "sgckpt1\n"},
		{"segment", journalFiles, journalMagic, "sgwal1\n"},
	} {
		t.Run(kind.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := crashImage(t, dir, 2000)
			files, err := kind.files.list(chaos.OS, shardDir(dir, 0))
			if err != nil || len(files) < 2 {
				t.Fatalf("%d %s files: %v", len(files), kind.name, err)
			}
			newest := files[len(files)-1].path
			data, err := os.ReadFile(newest)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest, append([]byte(kind.retro), data[len(kind.magic):]...), 0o644); err != nil {
				t.Fatal(err)
			}
			image := snapshotTree(t, chaos.OS, dir)

			_, err = New(cfg)
			if !errors.Is(err, ErrRetiredFormat) {
				t.Fatalf("recovery error %v, want ErrRetiredFormat", err)
			}
			if !strings.Contains(err.Error(), newest) {
				t.Errorf("error %q does not name %s", err, newest)
			}
			sameTree(t, dir, image)
		})
	}
}

// TestRecoveryRefusesWithoutUsableCheckpoint: when every retained
// checkpoint is damaged and pruning has removed the journal's first
// segment, nothing on disk can rebuild the shard. Recovery must refuse with
// ErrNoUsableCheckpoint naming the first journaled sequence rather than
// start empty, and leave the directory untouched.
func TestRecoveryRefusesWithoutUsableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := crashImage(t, dir, 2000)
	sdir := shardDir(dir, 0)
	segs, err := journalFiles.list(chaos.OS, sdir)
	if err != nil || len(segs) == 0 || segs[0].seq == 0 {
		t.Fatalf("want the first segment pruned, have %v (%v)", segs, err)
	}
	ckpts, err := checkpointFiles.list(chaos.OS, sdir)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("%d checkpoints retained, want 2: %v", len(ckpts), err)
	}
	for _, c := range ckpts {
		data, err := os.ReadFile(c.path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-1] ^= 0xff
		if err := os.WriteFile(c.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	image := snapshotTree(t, chaos.OS, dir)

	p, err := New(cfg)
	if !errors.Is(err, ErrNoUsableCheckpoint) {
		if err == nil {
			t.Errorf("recovery started with deployments %v", p.Deployments())
		}
		t.Fatalf("recovery error %v, want ErrNoUsableCheckpoint", err)
	}
	if want := fmt.Sprintf("journal starts at seq %d", segs[0].seq+1); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
	sameTree(t, dir, image)
}

// TestRecoveryRefusesUnreadableSegment: a journal segment that is not the
// newest but whose magic cannot be read must stop recovery with
// ErrSegmentUnreadable naming the file. Replaying it as empty would let the
// sequence-gap check drop every later, intact segment while recovery
// reports success: on this image the shard resumed at the older
// checkpoint's seq (1 936 of 2 000) and lost the newest segment. The
// directory is left untouched.
func TestRecoveryRefusesUnreadableSegment(t *testing.T) {
	dir := t.TempDir()
	cfg := crashImage(t, dir, 2000)
	sdir := shardDir(dir, 0)
	segs, err := journalFiles.list(chaos.OS, sdir)
	if err != nil || len(segs) < 2 {
		t.Fatalf("%d segments, want at least 2: %v", len(segs), err)
	}
	ckpts, err := checkpointFiles.list(chaos.OS, sdir)
	if err != nil || len(ckpts) != 2 {
		t.Fatalf("%d checkpoints retained, want 2: %v", len(ckpts), err)
	}
	damaged := segs[len(segs)-2].path
	for _, f := range []struct {
		path string
		at   func(data []byte) int
	}{
		{damaged, func([]byte) int { return 0 }},
		// Damaging the newest checkpoint moves replay back to the
		// older one, whose tail runs through the damaged segment.
		{ckpts[1].path, func(data []byte) int { return len(data) - 1 }},
	} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		data[f.at(data)] ^= 0xff
		if err := os.WriteFile(f.path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	image := snapshotTree(t, chaos.OS, dir)

	p, err := New(cfg)
	if !errors.Is(err, ErrSegmentUnreadable) {
		if err == nil {
			t.Errorf("recovery resumed at seq %d", p.shards[0].applied)
			p.Drain()
		}
		t.Fatalf("recovery error %v, want ErrSegmentUnreadable", err)
	}
	if !strings.Contains(err.Error(), damaged) {
		t.Errorf("error %q does not name %s", err, damaged)
	}
	sameTree(t, dir, image)
}

// TestRecoveryToleratesTornNewestSegmentHeader: the newest segment alone
// may have an unreadable header — torn by a crash while it was being
// opened, or its readings taken by a power loss as a torn tail would be —
// and recovery still restores everything before it.
func TestRecoveryToleratesTornNewestSegmentHeader(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(data []byte) []byte
	}{
		{"torn at open", func(data []byte) []byte { return data[:len(journalMagic)+3] }},
		{"first byte", func(data []byte) []byte { data[0] ^= 0xff; return data }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := crashImage(t, dir, 2000)
			segs, err := journalFiles.list(chaos.OS, shardDir(dir, 0))
			if err != nil || len(segs) == 0 {
				t.Fatalf("%d segments: %v", len(segs), err)
			}
			newest := segs[len(segs)-1]
			data, err := os.ReadFile(newest.path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(newest.path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := New(cfg)
			if err != nil {
				t.Fatalf("recovery over a torn newest header: %v", err)
			}
			defer p.Drain()
			if got := p.shards[0].applied; got != newest.seq {
				t.Errorf("recovery resumed at seq %d, want the torn segment's base %d", got, newest.seq)
			}
		})
	}
}

// TestRecoveryRefusesStateWithoutRecover: a pool started without Recover
// over a directory that holds a checkpoint or journal segment is refused
// with ErrStateExists naming the file. Starting there would let pruning
// keep the old run's files and delete the new run's. The directory is left
// untouched, and a later recovery still restores the old run.
func TestRecoveryRefusesStateWithoutRecover(t *testing.T) {
	dir := t.TempDir()
	cfg := crashImage(t, dir, 2000)
	image := snapshotTree(t, chaos.OS, dir)

	cfg.Durability.Recover = false
	_, err := New(cfg)
	if !errors.Is(err, ErrStateExists) {
		t.Fatalf("start over existing state: error %v, want ErrStateExists", err)
	}
	if !strings.Contains(err.Error(), shardDir(dir, 0)) {
		t.Errorf("error %q does not name a file under %s", err, shardDir(dir, 0))
	}
	sameTree(t, dir, image)

	cfg.Durability.Recover = true
	p, err := New(cfg)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer p.Drain()
	if got := p.Deployments(); len(got) != 1 || got[0] != "old" {
		t.Errorf("recovered deployments %v, want [old]", got)
	}
}
