package fleet

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/chaos"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// sameReadings compares two reading slices bit for bit.
func sameReadings(t *testing.T, got, want []sensor.Reading) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d readings, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameReading(ingest.Reading{Reading: got[i]}, ingest.Reading{Reading: want[i]}) {
			t.Fatalf("reading %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}

// codecShard is a shard with no pool behind it beyond the configuration, for
// driving export and restore directly.
func codecShard() *shard {
	cfg := Config{Durability: Durability{Dir: "unused"}}.withDefaults()
	return &shard{pool: &Pool{cfg: cfg}}
}

// TestCheckpointPendingSpansFrames: a bootstrap buffer larger than one
// frame's payload bound is split across several frames and restores bit
// for bit.
func TestCheckpointPendingSpansFrames(t *testing.T) {
	s := codecShard()
	// 300 readings of 4096 values: 9.8 MB of values alone, more than
	// ingest.MaxFramePayload.
	d := &deployment{name: "big", started: true}
	for i := 0; i < 300; i++ {
		v := make(vecmat.Vector, 4096)
		for j := range v {
			v[j] = float64(i*len(v)+j) / 7
		}
		d.pending = append(d.pending, sensor.Reading{Sensor: i % 10, Time: time.Duration(i) * time.Minute, Values: v})
	}
	rec, err := s.exportDeployment(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.frames) < 2 {
		t.Fatalf("%d frames, want the buffer split", len(rec.frames))
	}
	buf, err := encodeCheckpoint(checkpointHeader{Shards: 1, WindowNS: int64(s.pool.cfg.Window)}, []deploymentCheckpoint{rec})
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cf.deployments) != 1 || len(cf.deployments[0].frames) != len(rec.frames) {
		t.Fatalf("decoded %d deployments", len(cf.deployments))
	}
	got, err := s.restoreDeployment(cf.deployments[0], new([]ingest.Reading))
	if err != nil {
		t.Fatal(err)
	}
	sameReadings(t, got.pending, d.pending)
}

// referenceFrames is the checkpoint frame cut as an ingest.FrameEncoder
// renders it from scratch: each frame takes readings while their
// readingBudget total stays within ingest.MaxFramePayload, and at least one.
func referenceFrames(t *testing.T, name string, buf []sensor.Reading) [][]byte {
	t.Helper()
	rs := make([]ingest.Reading, len(buf))
	for i, r := range buf {
		rs[i] = ingest.Reading{Deployment: name, Reading: r}
	}
	var enc ingest.FrameEncoder
	var frames [][]byte
	for len(rs) > 0 {
		cut, size := 1, readingBudget(&rs[0])
		for ; cut < len(rs); cut++ {
			if size += readingBudget(&rs[cut]); size > ingest.MaxFramePayload {
				break
			}
		}
		frame, err := enc.AppendFrame(nil, rs[:cut])
		if err != nil {
			t.Fatal(err)
		}
		frames, rs = append(frames, frame), rs[cut:]
	}
	return frames
}

// TestCheckpointPendingFramesIncremental: checkpoints taken while a
// bootstrap buffer grows, across frame boundaries and a switch to ragged
// dims, each hold the frames an encoder cuts from the whole buffer.
func TestCheckpointPendingFramesIncremental(t *testing.T) {
	s := codecShard()
	d := &deployment{name: "grow", started: true}
	sealed := 0
	for _, step := range []int{1, 2, 97, 150, 1, 400, 3, 300} {
		for n := len(d.pending) + step; len(d.pending) < n; {
			i := len(d.pending)
			dim := 4096
			if i == 500 {
				dim = 3 // from here on the frames are ragged
			}
			v := make(vecmat.Vector, dim)
			for j := range v {
				v[j] = float64(i*len(v)+j) / 7
			}
			d.pending = append(d.pending, sensor.Reading{Sensor: i % 10, Time: time.Duration(i) * time.Minute, Values: v})
		}
		rec, err := s.exportDeployment(d)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceFrames(t, d.name, d.pending)
		if len(rec.frames) != len(want) {
			t.Fatalf("%d readings: %d frames, want %d", len(d.pending), len(rec.frames), len(want))
		}
		for i := range want {
			if !bytes.Equal(rec.frames[i], want[i]) {
				t.Fatalf("%d readings: frame %d differs from the reference's", len(d.pending), i)
			}
		}
		sealed = len(d.pendingFrames.sealed)
	}
	if sealed < 2 {
		t.Fatalf("%d sealed frames: the buffer never spanned frames", sealed)
	}
}

// TestRestoreScratchDoesNotLeak: restoring three bootstrapping deployments
// through one reused decode scratch, longest buffer first, gives each its
// own readings and values.
func TestRestoreScratchDoesNotLeak(t *testing.T) {
	s := codecShard()
	var recs []deploymentCheckpoint
	want := map[string][]sensor.Reading{}
	for k, shape := range []struct {
		name   string
		n, dim int
	}{{"a-long", 40, 2}, {"b-short", 3, 3}, {"c-mid", 17, 1}} {
		d := &deployment{name: shape.name, started: true}
		for i := 0; i < shape.n; i++ {
			v := make(vecmat.Vector, shape.dim)
			for j := range v {
				v[j] = float64(1000*k+10*i+j) + 0.25
			}
			d.pending = append(d.pending, sensor.Reading{Sensor: k*100 + i, Time: time.Duration(k*1000+i) * time.Second, Values: v})
		}
		rec, err := s.exportDeployment(d)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
		want[d.name] = d.pending
	}
	buf, err := encodeCheckpoint(checkpointHeader{Shards: 1, WindowNS: int64(s.pool.cfg.Window)}, recs)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(buf, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := s.restoreAll(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != len(want) {
		t.Fatalf("restored %d deployments, want %d", len(deps), len(want))
	}
	for name, rs := range want {
		sameReadings(t, deps[name].pending, rs)
	}
	// No restored buffer shares values with another.
	for _, r := range deps["a-long"].pending {
		for j := range r.Values {
			r.Values[j] = -1
		}
	}
	for _, name := range []string{"b-short", "c-mid"} {
		sameReadings(t, deps[name].pending, want[name])
	}
}

// TestCheckpointSeedRestores: the fuzz seed checkpoint decodes and restores
// both deployments, the bootstrap buffer bit for bit.
func TestCheckpointSeedRestores(t *testing.T) {
	cf, err := decodeCheckpoint(fuzzSeedCheckpoint(t), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	deps, err := codecShard().restoreAll(cf)
	if err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps["beta"].err == nil {
		t.Fatalf("restored %d deployments", len(deps))
	}
	sameReadings(t, deps["alpha"].pending, []sensor.Reading{
		{Sensor: 0, Time: time.Minute, Values: vecmat.Vector{15, 80}},
		{Sensor: 1, Time: 2 * time.Minute, Values: vecmat.Vector{16, 81}},
	})
}

// TestGoldenCheckpointReencodes: testdata/golden.sgckpt2 is a checkpoint an
// earlier release wrote for one shard of a one-shard pool with default
// settings, holding deployment "run" bootstrapped with two open windows and
// deployment "boot" still buffering its bootstrap horizon. It must restore,
// and exporting the restored deployments must re-encode it byte for byte,
// so any drift of the sgckpt2 encoder across releases shows here.
func TestGoldenCheckpointReencodes(t *testing.T) {
	data, err := os.ReadFile("testdata/golden.sgckpt2")
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(data, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := codecShard()
	deps, err := s.restoreAll(cf)
	if err != nil {
		t.Fatal(err)
	}
	run, boot := deps["run"], deps["boot"]
	if len(deps) != 2 || run == nil || boot == nil {
		t.Fatalf("restored %d deployments, want run and boot", len(deps))
	}
	if run.det == nil || run.wd == nil || len(run.pending) != 0 {
		t.Fatalf("run: detector %v, windower %v, bootstrap buffer %d; want a live detector",
			run.det != nil, run.wd != nil, len(run.pending))
	}
	if run.wd.Pending() != 2 {
		t.Fatalf("run: %d open windows, want 2", run.wd.Pending())
	}
	if boot.det != nil || boot.wd != nil || len(boot.pending) == 0 {
		t.Fatalf("boot: detector %v, windower %v, bootstrap buffer %d; want a bootstrap buffer only",
			boot.det != nil, boot.wd != nil, len(boot.pending))
	}
	recs := make([]deploymentCheckpoint, 0, len(cf.deployments))
	for _, rec := range cf.deployments {
		out, err := s.exportDeployment(deps[rec.Name])
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, out)
	}
	buf, err := encodeCheckpoint(cf.header, recs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		n := 0
		for n < len(buf) && n < len(data) && buf[n] == data[n] {
			n++
		}
		t.Fatalf("re-encoded checkpoint differs from the golden image at byte %d (%d vs %d bytes)", n, len(buf), len(data))
	}
}

// tamperFrame re-encodes a checkpoint file with the first frame of its
// first deployment that has frames replaced by bad(frame). The file's own
// framing stays valid; only the frame inside is damaged. It reports whether
// any frame was found.
func tamperFrame(t *testing.T, path string, shard, shards int, bad func([]byte) []byte) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := decodeCheckpoint(data, shard, shards)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cf.deployments {
		if d := &cf.deployments[i]; len(d.frames) > 0 {
			d.frames = append([][]byte{bad(d.frames[0])}, d.frames[1:]...)
			buf, err := encodeCheckpoint(cf.header, cf.deployments)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			return true
		}
	}
	return false
}

// badFrames are the two ways a frame inside a well-framed checkpoint can be
// damaged: a reading the frame decoder rejects (a non-finite value, which
// the encoder does not check), and a frame whose own CRC fails.
var badFrames = map[string]func([]byte) []byte{
	"rejected-reading": func(frame []byte) []byte {
		rs, _, err := ingest.DecodeFrame(frame)
		if err != nil {
			panic(err)
		}
		rs[len(rs)-1].Values[0] = math.NaN()
		out, err := ingest.EncodeFrame(rs)
		if err != nil {
			panic(err)
		}
		return out
	},
	"bad-crc": func(frame []byte) []byte {
		out := bytes.Clone(frame)
		out[len(out)-1] ^= 0xff
		return out
	},
}

// TestCheckpointBadFrameFallsBack: a damaged frame invalidates its whole
// checkpoint — restoring it yields nothing — and recovery falls back to the
// previous checkpoint plus a longer replay, converging on the offline
// run's reports.
func TestCheckpointBadFrameFallsBack(t *testing.T) {
	st := newStream(t, fanOut(stuckTrace(t, 3).Readings, "alpha", "beta"))
	cut := len(st.rs) / 5 // inside the bootstrap: every checkpoint holds pending frames

	for name, bad := range badFrames {
		t.Run(name, func(t *testing.T) {
			cell{path: viaSubmit, shards: 2, durable: true, onDisk: true, crash: name, cut: cut,
				crashed: func(t *testing.T, _ chaos.FS, dir string) {
					tampered := 0
					for id := 0; id < 2; id++ {
						ckpts, err := checkpointFiles.list(chaos.OS, shardDir(dir, id))
						if err != nil {
							t.Fatal(err)
						}
						if len(ckpts) < 2 {
							continue
						}
						newest := ckpts[len(ckpts)-1].path
						if !tamperFrame(t, newest, id, 2, bad) {
							continue
						}
						tampered++
						data, err := os.ReadFile(newest)
						if err != nil {
							t.Fatal(err)
						}
						cf, err := decodeCheckpoint(data, id, 2)
						if err != nil {
							t.Fatalf("shard %d: tampered checkpoint no longer frames cleanly: %v", id, err)
						}
						s := codecShard()
						if deps, err := s.restoreAll(cf); err == nil || deps != nil {
							t.Fatalf("shard %d: damaged frame restored (%d deployments, err %v)", id, len(deps), err)
						}
					}
					if tampered == 0 {
						t.Fatal("no checkpoint with frames to damage")
					}
				}}.run(t, st)
		})
	}
}

// TestCheckpointEncodeErrorCoolsDown: a checkpoint that cannot be encoded
// (a buffered reading the frame decoder would refuse) fails through
// runCheckpoint's bookkeeping — error counter, sticky error, cooldown —
// writes nothing, and never panics.
func TestCheckpointEncodeErrorCoolsDown(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := durableConfig("mem", false)
	cfg.Durability.FS = newMemFS()
	cfg.Metrics = reg
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.abort() // the workers are gone: the test owns the shard's state
	s := p.shards[0]
	s.deployments["bad"] = &deployment{name: "bad", started: true,
		pending: []sensor.Reading{{Sensor: 1, Time: time.Minute, Values: vecmat.Vector{math.NaN()}}}}
	before, err := checkpointFiles.list(s.dur.fs, s.dur.dir)
	if err != nil {
		t.Fatal(err)
	}

	if err := s.runCheckpoint(); err == nil || !strings.Contains(err.Error(), "not finite") {
		t.Fatalf("runCheckpoint error %v, want the bad reading named", err)
	}
	if s.ckptFailures != 1 || !s.ckptCooldownUntil.After(time.Now()) {
		t.Errorf("failures %d, cooldown until %v: no cooldown armed", s.ckptFailures, s.ckptCooldownUntil)
	}
	if st := p.ShardStatuses()[0]; st.LastCheckpointError == "" {
		t.Error("encode failure not surfaced on ShardStatuses")
	}
	// Due by count, but inside the cooldown: no second attempt.
	s.applied += 10 * uint64(cfg.Durability.EveryN)
	s.maybeCheckpoint()
	if s.ckptFailures != 1 {
		t.Errorf("%d failures: checkpoint retried inside its cooldown", s.ckptFailures)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fleet_shard0_checkpoint_errors_total 1") {
		t.Error("checkpoint error not counted")
	}
	after, err := checkpointFiles.list(s.dur.fs, s.dur.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before) {
		t.Errorf("%d checkpoints after the failure, %d before", len(after), len(before))
	}
	entries, err := s.dur.fs.ReadDir(s.dur.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("failed checkpoint left %s behind", e.Name())
		}
	}
}
