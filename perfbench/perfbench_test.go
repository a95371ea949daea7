package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/ingest"
)

func TestSameSeedSameTraffic(t *testing.T) {
	for _, codec := range []string{ingest.WireNDJSON, ingest.WireBinary} {
		a := planFor(t, 1, codec)
		b := planFor(t, 1, codec)
		other := planFor(t, 2, codec)
		for name, pa := range a {
			pb := b[name]
			if pa.readings != pb.readings {
				t.Fatalf("%s/%s: %d readings vs %d", codec, name, pa.readings, pb.readings)
			}
			for c := range pa.batches {
				if len(pa.batches[c]) != len(pb.batches[c]) {
					t.Fatalf("%s/%s: connection %d has %d vs %d batches", codec, name, c, len(pa.batches[c]), len(pb.batches[c]))
				}
				for i := range pa.batches[c] {
					if !bytes.Equal(pa.batches[c][i].body, pb.batches[c][i].body) {
						t.Fatalf("%s/%s: connection %d batch %d differs between two runs of seed 1", codec, name, c, i)
					}
				}
			}
		}
		if bytes.Equal(a["fixed"].batches[0][0].body, other["fixed"].batches[0][0].body) {
			t.Errorf("%s: seeds 1 and 2 produced the same first fixed-rate batch", codec)
		}
	}
}

func planFor(t *testing.T, seed int64, codec string) map[string]*phase {
	t.Helper()
	tr, err := generateTraffic(seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	phases, err := tr.plan(codec, false)
	if err != nil {
		t.Fatal(err)
	}
	return phases
}

func TestTrafficKeepsDeploymentOrder(t *testing.T) {
	tr, err := generateTraffic(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c, st := range tr.streams {
		last := map[string]uint64{}
		for i, r := range st {
			if connOf(r.Deployment) != c {
				t.Fatalf("connection %d carries %s", c, r.Deployment)
			}
			if r.Seq != last[r.Deployment]+1 {
				t.Fatalf("connection %d reading %d: %s seq %d after %d", c, i, r.Deployment, r.Seq, last[r.Deployment])
			}
			last[r.Deployment] = r.Seq
		}
	}
}

func TestQuantileIsExact(t *testing.T) {
	xs := []float64{9, 1, 7, 3, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.9, 8.2},
	} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	// A histogram would put both of these in one bucket; the sorted sample
	// does not.
	if got := median([]float64{1.001, 1.009}); math.Abs(got-1.005) > 1e-12 {
		t.Errorf("median = %v, want 1.005", got)
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its caller's slice")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of an empty sample should be NaN")
	}
}

func TestParseProcStat(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (sen tinel) (x)) S 1 4242 4242 0 -1 4194560 1186 0 0 0 250 31 0 0 20 0 9 0 12345 1234567 890 18446744073709551615\n"
	got, err := parseProcStat([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got.User != 2500*time.Millisecond || got.System != 310*time.Millisecond {
		t.Errorf("parsed %+v, want user 2.5s system 310ms", got)
	}
	if _, err := parseProcStat([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed without error")
	}
	if _, err := readProcCPU(os.Getpid()); err != nil {
		t.Errorf("reading this process's stat: %v", err)
	}
}

func TestParseProcIO(t *testing.T) {
	text := "rchar: 100\nwchar: 2048\nsyscr: 7\nsyscw: 12\nread_bytes: 0\nwrite_bytes: 4096\ncancelled_write_bytes: 0\n"
	got, err := parseProcIO([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.SyscW != 12 || got.WChar != 2048 {
		t.Errorf("parsed %+v, want syscw 12 wchar 2048", got)
	}
	if _, err := parseProcIO([]byte("rchar: 1\n")); err == nil {
		t.Error("io without syscw/wchar parsed without error")
	}
}

func TestParseMemStats(t *testing.T) {
	body := "heap profile: 1: 2 [3: 4] @ heap/1048576\n\n# runtime.MemStats\n# Alloc = 5\n# TotalAlloc = 123456\n# HeapAlloc = 7890\n# NumGC = 42\n"
	got, err := parseMemStats([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if got != (memStats{HeapAlloc: 7890, TotalAlloc: 123456, NumGC: 42}) {
		t.Errorf("parsed %+v", got)
	}
}

// TestOpenLoopTimesFromDueTime serves POSTs that each take 20 ms while the
// schedule asks for one every 5 ms: batch k is due at 5k ms but cannot be
// sent before 20k ms, so its latency must include that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const service = 20 * time.Millisecond
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(service)
		_ = json.NewEncoder(w).Encode(ingest.StreamStats{Accepted: 1})
	}))
	defer srv.Close()
	ph := &phase{name: "fixed", readings: 5}
	for i := 0; i < 5; i++ {
		ph.batches[0] = append(ph.batches[0], batch{body: []byte("{}\n"), n: 1})
	}
	var ps [numConns]*poster
	for c := range ps {
		ps[c] = newPoster(srv.URL, ingest.WireNDJSON)
	}
	st := openLoop(ps, ph, 200) // one reading every 5 ms
	if st.failed != 0 || st.accepted != 5 {
		t.Fatalf("failed %d, accepted %d: %v", st.failed, st.accepted, st.firstErr)
	}
	for k, lat := range st.latencyMS {
		// Sent no earlier than k services in, acknowledged one service
		// later, timed from 5k ms.
		min := float64(k+1)*20 - float64(k)*5
		if lat < min {
			t.Errorf("batch %d: latency %.1f ms, want at least %.1f ms from its due time", k, lat, min)
		}
		if lag := st.lagMS[k]; lag < float64(k)*15-1 {
			t.Errorf("batch %d: lag %.1f ms, want about %d ms", k, lag, k*15)
		}
	}
}

func TestIntervalRates(t *testing.T) {
	start := time.Unix(1000, 0)
	var acks [numConns][]ack
	// Connection 0 acks 100 readings every 10 ms for 1 s; connection 1
	// stops at 0.5 s, which ends the saturated span.
	for i := 1; i <= 100; i++ {
		acks[0] = append(acks[0], ack{at: start.Add(time.Duration(i) * 10 * time.Millisecond), n: 100})
		if i <= 50 {
			acks[1] = append(acks[1], ack{at: start.Add(time.Duration(i)*10*time.Millisecond + 5*time.Millisecond), n: 100})
		}
	}
	rates := intervalRates(start, acks, 100*time.Millisecond)
	if len(rates) != 4 {
		t.Fatalf("got %d intervals, want 4 (first dropped, stop at 0.505 s)", len(rates))
	}
	for _, r := range rates {
		if math.Abs(r-20000) > 1500 {
			t.Errorf("interval rate %.0f/s, want about 20000/s", r)
		}
	}
}

// TestAtReferenceSpeed: on a host running at half the reference speed,
// times halve and throughput doubles to give reference-host figures; the
// heap is not a time.
func TestAtReferenceSpeed(t *testing.T) {
	got := atReferenceSpeed(map[string]metric{
		"throughput_rps": {1000, "1/s"},
		"ack_p50_ms":     {4, "ms"},
		"setup_s":        {2, "s"},
		"sut_heap_mb":    {20, "MiB"},
	}, 0.5)
	want := map[string]float64{"throughput_rps": 2000, "ack_p50_ms": 2, "setup_s": 1, "sut_heap_mb": 20}
	for name, v := range want {
		if got[name].Value != v {
			t.Errorf("%s = %v, want %v", name, got[name].Value, v)
		}
	}
	if got["ack_p50_ms"].Unit != "ms" {
		t.Errorf("unit %q, want ms", got["ack_p50_ms"].Unit)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Trace: 1, ID: 1, Name: "post", Start: 0, End: 100},
		{Trace: 1, ID: 2, Parent: 1, Name: "handler", Start: 10, End: 90},
		{Trace: 1, ID: 3, Parent: 2, Name: "submit", Start: 20, End: 40},
		{Trace: 1, ID: 4, Parent: 2, Name: "submit", Start: 30, End: 60}, // overlaps the first
	}
	self, count := selfTimes(spans)
	want := map[string]time.Duration{"post": 20, "handler": 40, "submit": 50}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %d, want %d", name, self[name], d)
		}
	}
	if count["submit"] != 2 {
		t.Errorf("count(submit) = %d", count["submit"])
	}
}

// TestCrashImageIsDeterministic builds the collector, makes the crash image
// twice from one seed, and checks that both hold the same checkpoints, byte
// for byte.
func TestCrashImageIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the collector")
	}
	work := t.TempDir()
	bin := filepath.Join(work, "sentinel")
	build := exec.Command("go", "build", "-o", bin, "./cmd/sentinel")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build sentinel: %v\n%s", err, out)
	}
	tr, err := generateTraffic(5, traceDays)
	if err != nil {
		t.Fatal(err)
	}
	crash, err := tr.plan(ingest.WireBinary, true)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{o: options{sentinel: bin, workdir: work}, crash: crash, log: os.Stderr}
	images := make([]map[string][]byte, 2)
	for i := range images {
		dir := filepath.Join(work, "image", string(rune('a'+i)))
		if err := b.crashImage(dir, &roundResult{}); err != nil {
			t.Fatal(err)
		}
		if len(b.problems) > 0 {
			t.Fatalf("crash image %d: %v", i, b.problems)
		}
		images[i] = checkpoints(t, dir)
	}
	// Each shard checkpoints at every checkpointEvery readings it takes.
	if want := sutShards * (crashPerShard / checkpointEvery); len(images[0]) != want {
		t.Fatalf("crash image holds %d checkpoints, want %d per shard (%d): %v",
			len(images[0]), crashPerShard/checkpointEvery, want, keys(images[0]))
	}
	for name, data := range images[0] {
		if !bytes.Equal(data, images[1][name]) {
			t.Errorf("checkpoint %s differs between two crash images of one seed", name)
		}
	}
	if len(images[1]) != len(images[0]) {
		t.Errorf("checkpoints: %v vs %v", keys(images[0]), keys(images[1]))
	}
}

// checkpoints maps each checkpoint file of a crash image (by path relative
// to the image) to its bytes.
func checkpoints(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.Contains(info.Name(), "checkpoint") {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		out[rel] = data
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func keys(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
