package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// get runs one request against h and returns the recorder.
func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestMuxMetricsContentTypes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("widgets_total", "widgets made").Add(3)
	mux := NewMux(reg)

	rec := get(t, mux, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type %q, want Prometheus text exposition", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "widgets_total 3") {
		t.Errorf("/metrics body missing counter:\n%s", body)
	}

	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		rec := get(t, mux, path)
		if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s content type %q, want JSON", path, ct)
		}
		var doc map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
			t.Errorf("%s body not JSON: %v", path, err)
		}
	}
}

func TestMuxHealthzAndPprof(t *testing.T) {
	mux := NewMux(NewRegistry())
	rec := get(t, mux, "/healthz")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body.String())
	}
	// The pprof index and the symbol endpoint answer without profiling state.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if rec := get(t, mux, path); rec.Code != http.StatusOK {
			t.Errorf("%s status %d", path, rec.Code)
		}
	}
}

// TestMountLeavesHealthzToCaller pins the contract fleet.Handler relies on:
// Mount must not claim /healthz, or the serving mux would panic on the
// duplicate pattern when it registers its readiness handler.
func TestMountLeavesHealthzToCaller(t *testing.T) {
	mux := http.NewServeMux()
	Mount(mux, NewRegistry())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	if rec := get(t, mux, "/healthz"); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("caller's /healthz not in effect: %d", rec.Code)
	}
	if rec := get(t, mux, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("/metrics not mounted: %d", rec.Code)
	}
}

func TestTraceHandlerNilTracer(t *testing.T) {
	rec := get(t, TraceHandler(nil), "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var doc struct {
		Traces []TraceData `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if doc.Traces == nil || len(doc.Traces) != 0 {
		t.Errorf("nil tracer served %v, want empty list", doc.Traces)
	}
}

// TestTraceHandlerServesRingOldestFirst drives more traces through than the
// ring retains and checks the endpoint serves exactly the survivors, oldest
// first — the eviction order a debugging session depends on.
func TestTraceHandlerServesRingOldestFirst(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxTraces: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		sp := tr.Root(fmt.Sprintf("batch-%d", i))
		sp.SetInt("i", int64(i))
		ids = append(ids, sp.Context().Trace.String())
		sp.End()
	}

	rec := get(t, TraceHandler(tr), "/debug/traces")
	var doc struct {
		Traces []TraceData `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("body not JSON: %v", err)
	}
	if len(doc.Traces) != 2 {
		t.Fatalf("served %d traces, want the 2 retained", len(doc.Traces))
	}
	for i, td := range doc.Traces {
		if td.TraceID != ids[i+2] {
			t.Errorf("slot %d is %s, want %s", i, td.TraceID, ids[i+2])
		}
		if len(td.Spans) != 1 || td.Spans[0].Name != fmt.Sprintf("batch-%d", i+2) {
			t.Errorf("slot %d spans %+v", i, td.Spans)
		}
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("sensorguard_windows_total", "").Add(42)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var b strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	if body := get("/metrics"); !strings.Contains(body, "sensorguard_windows_total 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/healthz"); !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %q", body)
	}
	for _, path := range []string{"/metrics.json", "/debug/vars"} {
		var decoded map[string]any
		if err := json.Unmarshal([]byte(get(path)), &decoded); err != nil {
			t.Errorf("%s is not valid JSON: %v", path, err)
		} else if decoded["sensorguard_windows_total"].(float64) != 42 {
			t.Errorf("%s counter = %v", path, decoded["sensorguard_windows_total"])
		}
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", body)
	}
}
