package profiles

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

func newTestCapturer(t *testing.T, cfg Config) *Capturer {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.cpuDuration == 0 {
		cfg.cpuDuration = 20 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestCaptureNowWritesRing checks one synchronous capture lands cpu + heap +
// goroutine files whose names decode back to their metadata.
func TestCaptureNowWritesRing(t *testing.T) {
	c := newTestCapturer(t, Config{})
	entries := c.CaptureNow("unit-test")
	kinds := map[string]bool{}
	for _, e := range entries {
		kinds[e.Kind] = true
		if e.Reason != "unit-test" {
			t.Errorf("entry reason = %q, want unit-test", e.Reason)
		}
		if _, err := os.Stat(filepath.Join(c.Dir(), e.File)); err != nil {
			t.Errorf("entry file missing: %v", err)
		}
	}
	// CPU may be skipped if another profile is running process-wide (e.g.
	// go test -cpuprofile); heap and goroutine always land.
	if !kinds["heap"] || !kinds["goroutine"] {
		t.Fatalf("captured kinds = %v, want heap and goroutine", kinds)
	}
	idx := c.Index()
	if len(idx) < len(entries) {
		t.Fatalf("index lists %d entries, captured %d", len(idx), len(entries))
	}
	for _, e := range idx {
		if e.UnixMs == 0 || e.Bytes == 0 {
			t.Errorf("index entry incomplete: %+v", e)
		}
	}
}

// TestTriggerCaptureCoalesces checks the async trigger path: storms collapse
// to at most a few captures, and the capture completes eventually.
func TestTriggerCaptureCoalesces(t *testing.T) {
	c := newTestCapturer(t, Config{})
	for i := 0; i < 10; i++ {
		c.TriggerCapture("alert-queue-saturation")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		idx := c.Index()
		if len(idx) > 0 {
			if len(idx) > 9 { // 10 triggers × 3 kinds would be 30 files
				t.Fatalf("trigger storm produced %d files, coalescing failed", len(idx))
			}
			for _, e := range idx {
				if !strings.Contains(e.Reason, "alert-queue-saturation") {
					t.Fatalf("entry reason = %q", e.Reason)
				}
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("triggered capture never landed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPruneBounds fills the ring past MaxFiles and checks the oldest entries
// are removed first.
func TestPruneBounds(t *testing.T) {
	dir := t.TempDir()
	// Pre-seed fake old entries the pruner should sacrifice.
	for i := 0; i < 6; i++ {
		ms := time.Now().Add(-time.Duration(10-i) * time.Minute).UnixMilli()
		path := filepath.Join(dir, strconv.FormatInt(ms, 10)+"-old.heap.pprof")
		if err := os.WriteFile(path, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c := newTestCapturer(t, Config{Dir: dir, maxFiles: 4})
	c.CaptureNow("fresh")
	idx := c.Index()
	if len(idx) > 4 {
		t.Fatalf("ring holds %d files after prune, want ≤ 4", len(idx))
	}
	// The fresh capture must survive; only the oldest go.
	var fresh bool
	for _, e := range idx {
		if e.Reason == "fresh" {
			fresh = true
		}
	}
	if !fresh {
		t.Fatal("prune evicted the newest capture")
	}
}

// TestParseEntryName pins the filename round-trip: the name is the metadata.
func TestParseEntryName(t *testing.T) {
	e, ok := parseEntryName("1754650000000-alert-queue-saturation.cpu.pprof")
	if !ok || e.Kind != "cpu" || e.Reason != "alert-queue-saturation" || e.UnixMs != 1754650000000 {
		t.Fatalf("parsed %+v ok=%v", e, ok)
	}
	for _, bad := range []string{
		"notaprofile.txt", "x.cpu.pprof", "123.pprof", "123-r.mutex.pprof", "README.md",
	} {
		if _, ok := parseEntryName(bad); ok {
			t.Errorf("parseEntryName(%q) accepted", bad)
		}
	}
}

// TestHandlerIndexAndServe drives /debug/profiles: JSON index, file download,
// traversal rejection, and the nil-capturer 404.
func TestHandlerIndexAndServe(t *testing.T) {
	c := newTestCapturer(t, Config{})
	entries := c.CaptureNow("http-test")
	if len(entries) == 0 {
		t.Fatal("no entries captured")
	}

	h := Handler(c)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	if rec.Code != 200 {
		t.Fatalf("index status = %d", rec.Code)
	}
	var doc struct {
		Dir      string  `json:"dir"`
		Profiles []Entry `json:"profiles"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Profiles) < len(entries) {
		t.Fatalf("index lists %d profiles, want ≥ %d", len(doc.Profiles), len(entries))
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles/"+entries[0].File, nil))
	if rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("file serve status = %d len = %d", rec.Code, rec.Body.Len())
	}

	for _, bad := range []string{
		"/debug/profiles/../profiles.go",
		"/debug/profiles/nonexistent.cpu.pprof",
		"/debug/profiles/notaprofile.txt",
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", bad, nil))
		if rec.Code == 200 {
			t.Errorf("%s served, want rejection", bad)
		}
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/profiles", nil))
	if rec.Code != 404 {
		t.Fatalf("nil capturer status = %d, want 404", rec.Code)
	}
}
