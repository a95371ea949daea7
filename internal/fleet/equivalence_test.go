package fleet

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"testing"
	"testing/fstest"

	"sensorguard/internal/chaos"
	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/scenario"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The differential harness. The paper's diagnosis (Eqs. 2–4 over windows,
// then the §3.4 reading of B^CO/B^CE) is a function of the reading stream
// alone, so every ingest path must leave each deployment exactly where the
// offline detector leaves it: Submit or SubmitBatch, NDJSON or binary POST,
// durable or not, crashed and recovered or not. Each cell streams one
// reading order into a pool over one path and checks every deployment's
// drained Report, and every decision record the last pool emitted, against
// the offline reference.

// ingestPath is how a cell hands readings to the pool.
type ingestPath int

const (
	viaSubmit ingestPath = iota
	viaBatch
	viaNDJSON
	viaBinary
	viaMixed // NDJSON and binary POSTs alternating per batch
)

var pathNames = [...]string{"submit", "batch", "ndjson", "binary", "mixed"}

// cell is one point of the matrix.
type cell struct {
	path   ingestPath
	shards int
	batch  int // readings per SubmitBatch call or POST (default 500)
	// durable journals and checkpoints on a memFS (on the real disk with
	// onDisk), every `every` applied readings (default 64).
	durable, onDisk bool
	every           int
	// crash, when set, names a crash after the first cut readings: the pool
	// is aborted and a new one recovers from its directory. crashed, when
	// set, inspects the directory in between.
	crash   string
	cut     int
	crashed func(t *testing.T, fsys chaos.FS, dir string)
	// resend, when set, makes the producer resend after the crash its
	// numbered readings from there up to the cut.
	resend int
	// invalid slips a NaN reading into the middle of the stream; admission
	// must refuse it on every path that can carry it.
	invalid bool
}

func (c cell) String() string {
	name := fmt.Sprintf("%s/shards=%d", pathNames[c.path], c.shards)
	for _, part := range []struct {
		on   bool
		name string
	}{{c.durable, "/durable"}, {c.crash != "", "/crash=" + c.crash}, {c.resend > 0, "/retransmit"}, {c.invalid, "/invalid"}} {
		if part.on {
			name += part.name
		}
	}
	return name
}

// offline is the offline detector's verdict on one deployment.
type offline struct {
	report  core.Report
	records map[int]core.DecisionRecord // by window
}

// stream is one arrival order and the offline verdict on each deployment.
type stream struct {
	rs   []ingest.Reading
	want map[string]offline
}

// newStream computes the reference for rs. Per deployment, over the
// readings the collector accepts (after wire-seq dedup) in arrival order:
// k-means seeds over the first day, then ProcessTrace with a decision ring.
func newStream(t testing.TB, rs []ingest.Reading) *stream {
	t.Helper()
	accepted := make(map[string][]sensor.Reading)
	last := make(map[string]uint64)
	for _, r := range rs {
		dep := cmp.Or(r.Deployment, ingest.DefaultDeployment)
		if r.Seq > 0 {
			if r.Seq <= last[dep] {
				continue
			}
			last[dep] = r.Seq
		}
		accepted[dep] = append(accepted[dep], r.Reading)
	}
	st := &stream{rs: rs, want: make(map[string]offline, len(accepted))}
	for dep, readings := range accepted {
		dayEnd := readings[0].Time + Config{}.withDefaults().Bootstrap
		var pts []vecmat.Vector
		for _, r := range readings {
			if r.Time < dayEnd {
				pts = append(pts, r.Values)
			}
		}
		seeds, err := cluster.KMeans(pts, 6, rand.New(rand.NewSource(1)), 100)
		if err != nil {
			t.Fatal(err)
		}
		det, err := core.NewDetector(core.DefaultConfig(seeds))
		if err != nil {
			t.Fatal(err)
		}
		ring := core.NewDecisionRing(1 << 12)
		det.SetDecisionSink(ring)
		if _, err := det.ProcessTrace(readings); err != nil {
			t.Fatal(err)
		}
		rep, err := det.Report()
		if err != nil {
			t.Fatal(err)
		}
		want := offline{report: rep, records: make(map[int]core.DecisionRecord)}
		for _, rec := range ring.Records() {
			rec.Latency = obs.StageLatency{}
			want.records[rec.Window] = rec
		}
		st.want[dep] = want
	}
	return st
}

// check fails the test unless every deployment of the reference holds the
// offline report in p, by value and by JSON bytes, and, when p retains
// decision records, every one equals the offline record of its window apart
// from the latency, trace and deployment stamps.
func (st *stream) check(t *testing.T, p *Pool) {
	t.Helper()
	for dep, want := range st.want {
		got, err := p.Report(dep)
		if err != nil {
			t.Errorf("report %s: %v", dep, err)
			continue
		}
		gj, _ := got.MarshalIndentJSON()
		wj, _ := want.report.MarshalIndentJSON()
		if !reflect.DeepEqual(got, want.report) || !bytes.Equal(gj, wj) {
			t.Errorf("deployment %s: report differs from offline:\n--- pool\n%s\n--- offline\n%s", dep, gj, wj)
		}
		recs, err := p.Decisions(dep)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range recs {
			rec.Latency, rec.TraceID, rec.Deployment = obs.StageLatency{}, "", ""
			if w, ok := want.records[rec.Window]; !ok || !reflect.DeepEqual(rec, w) {
				t.Errorf("deployment %s window %d: decision record differs from offline:\n%+v\n%+v", dep, rec.Window, rec, w)
				break
			}
		}
	}
}

// run streams st through the cell and checks the drained pool against the
// reference. It returns the pool for the cell's own assertions.
func (c cell) run(t *testing.T, st *stream) *Pool {
	t.Helper()
	var fsys chaos.FS = newMemFS()
	dir := "mem"
	if c.onDisk {
		fsys, dir = chaos.OS, t.TempDir()
	}
	open := func(recover bool) *Pool {
		cfg := Config{Shards: c.shards, Seed: 1, DecisionBuffer: 1 << 12, Metrics: obs.NewRegistry()}
		if c.durable {
			cfg.Durability = Durability{Dir: dir, EveryN: cmp.Or(c.every, 64), Recover: recover, FS: fsys}
		}
		p, err := New(cfg)
		if err != nil {
			t.Fatalf("new pool (recover %v): %v", recover, err)
		}
		return p
	}
	rs := st.rs
	if c.invalid {
		bad := rs[len(rs)/2]
		bad.Values = vecmat.Vector{math.NaN(), 1}
		rs = slices.Insert(slices.Clip(rs), len(rs)/2, bad)
	}
	p := open(false)
	refused := 0
	if c.crash != "" {
		refused += c.feed(t, p, rs[:c.cut])
		p.abort()
		if c.crashed != nil {
			c.crashed(t, fsys, dir)
		}
		p = open(true)
		if c.resend > 0 {
			var resend []ingest.Reading
			for _, r := range rs[c.resend:c.cut] {
				if r.Seq > 0 {
					resend = append(resend, r)
				}
			}
			c.feed(t, p, resend)
		}
		rs = rs[c.cut:]
	}
	refused += c.feed(t, p, rs)
	p.Drain()
	if want := map[bool]int{true: 1}[c.invalid]; refused != want {
		t.Errorf("admission refused %d readings, want %d", refused, want)
	}
	if got := p.Deployments(); len(got) != len(st.want) {
		t.Errorf("pool holds %d deployments, want %d", len(got), len(st.want))
	}
	st.check(t, p)
	if c.crash == "" { // the pool emitted every window
		for dep, want := range st.want {
			if recs, _ := p.Decisions(dep); len(recs) != len(want.records) {
				t.Errorf("deployment %s: %d decision records, offline emitted %d", dep, len(recs), len(want.records))
			}
		}
	}
	return p
}

// feed hands rs to p over the cell's path and returns how many readings
// admission refused as invalid; any other refusal fails the test. The zero
// cell submits one reading at a time.
func (c cell) feed(t *testing.T, p *Pool, rs []ingest.Reading) (refused int) {
	t.Helper()
	size := cmp.Or(c.batch, 500)
	switch c.path {
	case viaSubmit:
		for _, r := range rs {
			if err := p.Submit(r); c.invalid && errors.Is(err, ErrInvalidReading) {
				refused++
			} else if err != nil {
				t.Fatal(err)
			}
		}
	case viaBatch:
		for len(rs) > 0 {
			b := rs[:min(size, len(rs))]
			a, d, err := p.SubmitBatch(b)
			if c.invalid && errors.Is(err, ErrInvalidReading) {
				refused++
				a++
			} else if err != nil || d != 0 || a != len(b) {
				t.Fatalf("accepted %d dropped %d of %d: %v", a, d, len(b), err)
			}
			rs = rs[a:]
		}
	default:
		srv := httptest.NewServer(Handler(p, nil))
		defer srv.Close()
		for i := 0; i < len(rs); i += size {
			binary := c.path == viaBinary || c.path == viaMixed && (i/size)%2 == 1
			postWireBatch(t, srv.URL, rs[i:min(i+size, len(rs))], binary)
		}
	}
	return refused
}

// postWireBatch posts one batch over the given codec to a live /ingest and
// fails the test on any non-200.
func postWireBatch(t *testing.T, url string, readings []ingest.Reading, binary bool) {
	t.Helper()
	body, contentType := []byte(nil), "application/x-ndjson"
	if binary {
		frame, err := ingest.EncodeFrame(readings)
		if err != nil {
			t.Fatal(err)
		}
		body, contentType = frame, ingest.FrameContentType
	}
	for i := 0; !binary && i < len(readings); i++ {
		line, err := ingest.EncodeLine(readings[i])
		if err != nil {
			t.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	resp, err := http.Post(url+"/ingest", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /ingest (%s) = %d", contentType, resp.StatusCode)
	}
}

// interleave merges per-deployment streams round-robin.
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

// tagged stamps readings with a deployment key and, when seq is set, wire
// sequence index+1.
func tagged(readings []sensor.Reading, dep string, seq bool) []ingest.Reading {
	out := make([]ingest.Reading, len(readings))
	for i, r := range readings {
		out[i] = ingest.Reading{Deployment: dep, Reading: r}
		if seq {
			out[i].Seq = uint64(i + 1)
		}
	}
	return out
}

// fanOut is readings streamed under every deployment, numbered and
// interleaved round-robin.
func fanOut(readings []sensor.Reading, deployments ...string) []ingest.Reading {
	streams := make([][]ingest.Reading, len(deployments))
	for i, dep := range deployments {
		streams[i] = tagged(readings, dep, true)
	}
	return interleave(streams...)
}

// TestDifferentialCorpus runs the matrix over the 11 scenario campaigns at
// seed 1, interleaved round-robin into one arrival order so that several
// deployments share shards. Every path runs without durability on 2 and 4
// shards; durable without a crash and crashed inside bootstrap, mid-stream
// and near the end, with shard counts alternating so each crash point meets
// both across the paths; and crashed mid-stream with producer
// retransmission. Both submit paths also take an invalid reading, durable or
// not. -short runs one cell per path.
func TestDifferentialCorpus(t *testing.T) {
	var campaigns [][]ingest.Reading
	for _, sc := range scenario.Corpus() {
		run, err := sc.Build(scenario.Config{Scenario: sc.Spec().Name, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		campaigns = append(campaigns, run.Readings)
	}
	st := newStream(t, interleave(campaigns...))
	n := len(st.rs)
	var cells []cell
	for path := viaSubmit; path <= viaMixed; path++ {
		p := int(path)
		cells = append(cells, cell{path: path, shards: 2}, cell{path: path, shards: 4},
			cell{path: path, shards: 2 + 2*(p%2), durable: true, crash: "mid", cut: n / 2, resend: 3 * n / 8})
		for i, crash := range []string{"", "bootstrap", "mid", "end"} {
			cut := []int{0, n / 10, n / 2, 9 * n / 10}[i]
			cells = append(cells, cell{path: path, shards: 2 + 2*((p+i)%2), durable: true, crash: crash, cut: cut})
		}
	}
	for _, path := range []ingestPath{viaSubmit, viaBatch} {
		cells = append(cells, cell{path: path, shards: 2, invalid: true},
			cell{path: path, shards: 4, durable: true, crash: "mid", cut: n / 2, invalid: true})
	}
	if testing.Short() {
		cells = []cell{
			{path: viaSubmit, shards: 2},
			{path: viaBatch, shards: 4, invalid: true},
			{path: viaNDJSON, shards: 2, durable: true, crash: "bootstrap", cut: n / 10},
			{path: viaBinary, shards: 4, durable: true, crash: "mid", cut: n / 2, resend: 3 * n / 8},
			{path: viaMixed, shards: 2, durable: true, crash: "end", cut: 9 * n / 10},
		}
	}
	for _, c := range cells {
		c.every = 2048 // ~90 checkpoints over the pooled stream
		t.Run(c.String(), func(t *testing.T) { c.run(t, st) })
	}
}

// memFS is an in-memory chaos.FS: a mutex over a fstest.MapFS plus the
// write, rename and remove the map lacks. Sync and SyncDir do nothing.
type memFS struct {
	mu    sync.Mutex
	files fstest.MapFS
}

func newMemFS() *memFS { return &memFS{files: fstest.MapFS{}} }

// lock takes the mutex and returns its release.
func (m *memFS) lock() func() {
	m.mu.Lock()
	return m.mu.Unlock
}

// memFile appends to its file's data; a renamed or removed file keeps its
// writers, as on a POSIX disk.
type memFile struct {
	fs *memFS
	f  *fstest.MapFile
}

func (f *memFile) Write(p []byte) (int, error) {
	defer f.fs.lock()()
	f.f.Data = append(f.f.Data, p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

// OpenFile creates or truncates name, the one mode the journal and
// checkpoint writers open files in.
func (m *memFS) OpenFile(name string, _ int, perm fs.FileMode) (chaos.File, error) {
	defer m.lock()()
	m.files[name] = &fstest.MapFile{Mode: perm}
	return &memFile{m, m.files[name]}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	defer m.lock()()
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) Remove(name string) error {
	defer m.lock()()
	if _, ok := m.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) ReadFile(name string) ([]byte, error) {
	defer m.lock()()
	return m.files.ReadFile(name)
}

func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer m.lock()()
	return m.files.ReadDir(name)
}

func (m *memFS) MkdirAll(path string, perm fs.FileMode) error {
	defer m.lock()()
	m.files[path] = &fstest.MapFile{Mode: fs.ModeDir | perm}
	return nil
}

func (m *memFS) SyncDir(string) error { return nil }
