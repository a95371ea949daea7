package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestObserveExemplar checks the bucket routing: the exemplar lands in the
// bucket its value falls in, replaces the previous one, and an empty trace ID
// degrades to a plain Observe.
func TestObserveExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	h.ObserveExemplar(0.05, "trace-a") // bucket 1: (0.01, 0.1]
	h.ObserveExemplar(5, "trace-inf")  // +Inf bucket
	h.ObserveExemplar(0.5, "")         // no exemplar, still counted

	snap := h.Snapshot()
	if snap.Count != 3 {
		t.Fatalf("count = %d, want 3", snap.Count)
	}
	if e := snap.Exemplars[1]; e == nil || e.TraceID != "trace-a" || e.Value != 0.05 {
		t.Fatalf("bucket 1 exemplar = %+v, want trace-a @ 0.05", e)
	}
	if e := snap.Exemplars[len(snap.Exemplars)-1]; e == nil || e.TraceID != "trace-inf" {
		t.Fatalf("+Inf exemplar = %+v, want trace-inf", e)
	}
	if e := snap.Exemplars[2]; e != nil {
		t.Fatalf("bucket 2 exemplar = %+v, want nil (empty trace ID)", e)
	}

	h.ObserveExemplar(0.06, "trace-b")
	if e := h.Snapshot().Exemplars[1]; e == nil || e.TraceID != "trace-b" {
		t.Fatalf("exemplar not replaced: %+v", e)
	}

	var nilH *Histogram
	nilH.ObserveExemplar(1, "x") // nil-safe
}

// TestObserveN checks the weighted observe: n samples of one value land in
// one bucket with the sum raised by n·v, matching n plain Observe calls, and
// the trace ID leaves exactly one exemplar.
func TestObserveN(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("wait_seconds", "", []float64{0.01, 0.1, 1})
	ref := reg.Histogram("ref_seconds", "", []float64{0.01, 0.1, 1})
	h.ObserveN(0.05, 7, "trace-run")
	h.ObserveN(0.5, 3, "")
	h.ObserveN(0.5, 0, "trace-none") // n == 0: nothing counted, no exemplar
	for i := 0; i < 7; i++ {
		ref.Observe(0.05)
	}
	for i := 0; i < 3; i++ {
		ref.Observe(0.5)
	}

	got, want := h.Snapshot(), ref.Snapshot()
	if got.Count != 10 || want.Count != 10 {
		t.Fatalf("count = %d (reference %d), want 10", got.Count, want.Count)
	}
	for i := range got.Counts {
		if got.Counts[i] != want.Counts[i] {
			t.Fatalf("bucket %d = %d, reference %d", i, got.Counts[i], want.Counts[i])
		}
	}
	if d := got.Sum - want.Sum; d > 1e-12 || d < -1e-12 {
		t.Fatalf("sum = %v, reference %v", got.Sum, want.Sum)
	}
	if got.Sum < 1.84 || got.Sum > 1.86 { // 7·0.05 + 3·0.5
		t.Fatalf("sum = %v, want 1.85", got.Sum)
	}
	if e := got.Exemplars[1]; e == nil || e.TraceID != "trace-run" || e.Value != 0.05 {
		t.Fatalf("bucket 1 exemplar = %+v, want trace-run @ 0.05", e)
	}
	if e := got.Exemplars[2]; e != nil {
		t.Fatalf("bucket 2 exemplar = %+v, want nil (no trace ID, or n == 0)", e)
	}

	var nilH *Histogram
	nilH.ObserveN(1, 5, "x") // nil-safe
}

// TestPrometheusExemplarSuffix checks /metrics renders OpenMetrics exemplar
// annotations on bucket lines that have one, and plain 0.0.4 lines otherwise.
func TestPrometheusExemplarSuffix(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1})
	h.ObserveExemplar(0.05, "abc123")
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `lat_seconds_bucket{le="0.1"} 1 # {trace_id="abc123"} 0.05 `) {
		t.Fatalf("missing exemplar annotation:\n%s", out)
	}
	// Buckets without exemplars stay in the plain text format.
	if !strings.Contains(out, "lat_seconds_bucket{le=\"0.01\"} 0\n") {
		t.Fatalf("empty bucket line altered:\n%s", out)
	}
}

// TestMetricsJSONExemplar checks /metrics.json carries the exemplar per
// bucket and omits the field where none exists.
func TestMetricsJSONExemplar(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1})
	h.ObserveExemplar(0.05, "abc123")
	data, err := json.Marshal(reg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, `"trace_id":"abc123"`) {
		t.Fatalf("exemplar missing from JSON snapshot: %s", s)
	}
	if strings.Count(s, `"exemplar"`) != 1 {
		t.Fatalf("want exactly one exemplar field (omitempty elsewhere): %s", s)
	}
}
