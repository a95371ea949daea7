package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	c := NewRootContext()
	if !c.Recording() {
		t.Fatal("fresh root context is not recording")
	}
	hdr := c.Traceparent()
	if len(hdr) != 55 || !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q malformed", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", hdr)
	}
	if got != c {
		t.Fatalf("round trip: got %+v, want %+v", got, c)
	}
}

func TestTraceparentUnsampledFlag(t *testing.T) {
	c := NewRootContext()
	c.Sampled = false
	got, ok := ParseTraceparent(c.Traceparent())
	if !ok || got.Sampled {
		t.Fatalf("unsampled context parsed as %+v, ok=%v", got, ok)
	}
	if got.Recording() {
		t.Error("valid-but-unsampled context reports recording")
	}
}

func TestParseTraceparentRejects(t *testing.T) {
	valid := NewRootContext().Traceparent()
	bad := []string{
		"",
		"00",
		valid[:54],                          // truncated
		strings.Replace(valid, "-", "_", 1), // wrong separator
		"00-" + strings.Repeat("0", 32) + valid[35:],      // all-zero trace ID
		valid[:36] + strings.Repeat("0", 16) + valid[52:], // all-zero span ID
		"00-" + strings.Repeat("zz", 16) + valid[35:],     // non-hex trace ID
		valid + "x", // garbage past flags
	}
	for _, s := range bad {
		if _, ok := ParseTraceparent(s); ok {
			t.Errorf("parsed %q", s)
		}
	}
	// Trailing "-<tracestate>" per spec must still parse.
	if _, ok := ParseTraceparent(valid + "-extra"); !ok {
		t.Error("version-suffixed traceparent rejected")
	}
}

func TestNilTracerAndSpanAreNoops(t *testing.T) {
	var tr *Tracer
	if sp := tr.Root("x"); sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	if sp := tr.StartSpan("x", NewRootContext()); sp != nil {
		t.Fatal("nil tracer returned a child span")
	}
	if got := tr.Traces(); got != nil {
		t.Fatalf("nil tracer returned traces %v", got)
	}
	var sp *Span
	sp.SetAttr("k", "v")
	sp.SetInt("k", 1)
	sp.End()
	if ctx := sp.Context(); ctx.Recording() {
		t.Error("nil span context records")
	}
}

func TestRootSampling(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 16; i++ {
		if sp := tr.Root("batch"); sp != nil {
			sampled++
			sp.End()
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 roots at 1/4", sampled)
	}
	if got := len(tr.Traces()); got != 4 {
		t.Fatalf("retained %d traces, want 4", got)
	}
}

func TestPropagatedContextBypassesSampling(t *testing.T) {
	// A producer-stamped context is already sampled: StartSpan must record
	// regardless of the tracer's root sampling rate.
	tr := NewTracer(TracerConfig{SampleEvery: 1000})
	parent := NewRootContext()
	sp := tr.StartSpan("ingest.decode", parent)
	if sp == nil {
		t.Fatal("propagated sampled context not recorded")
	}
	sp.End()
	traces := tr.Traces()
	if len(traces) != 1 || traces[0].TraceID != parent.Trace.String() {
		t.Fatalf("trace not retained under producer's ID: %+v", traces)
	}
}

func TestSpanParentLinksAndAttrs(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	root := tr.Root("root")
	child := tr.StartSpan("child", root.Context())
	child.SetAttr("kind", "test")
	child.SetInt("n", 42)
	child.End()
	root.End()

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := traces[0].Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans are recorded in completion order: child first.
	if spans[0].Name != "child" || spans[1].Name != "root" {
		t.Fatalf("span order %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].ParentID != spans[1].SpanID {
		t.Fatalf("child parent %q, root span %q", spans[0].ParentID, spans[1].SpanID)
	}
	if spans[1].ParentID != "" {
		t.Errorf("root has parent %q", spans[1].ParentID)
	}
	want := []SpanAttr{{Key: "kind", Value: "test"}, {Key: "n", Value: "42"}}
	if len(spans[0].Attrs) != 2 || spans[0].Attrs[0] != want[0] || spans[0].Attrs[1] != want[1] {
		t.Errorf("child attrs %+v, want %+v", spans[0].Attrs, want)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	sp := tr.Root("once")
	sp.End()
	sp.End()
	if got := len(tr.Traces()[0].Spans); got != 1 {
		t.Fatalf("double End recorded %d spans", got)
	}
}

func TestTraceRingEvictsOldest(t *testing.T) {
	tr := NewTracer(TracerConfig{MaxTraces: 3})
	var ids []string
	for i := 0; i < 5; i++ {
		sp := tr.Root(fmt.Sprintf("t%d", i))
		ids = append(ids, sp.Context().Trace.String())
		sp.End()
	}
	traces := tr.Traces()
	if len(traces) != 3 {
		t.Fatalf("retained %d traces, want 3", len(traces))
	}
	for i, td := range traces {
		if td.TraceID != ids[i+2] {
			t.Errorf("slot %d holds %s, want %s (oldest-first after eviction)", i, td.TraceID, ids[i+2])
		}
	}
}

func TestMaxSpansCountsOverflow(t *testing.T) {
	tr := NewTracer(TracerConfig{maxSpans: 2})
	root := tr.Root("root")
	for i := 0; i < 4; i++ {
		tr.StartSpan("child", root.Context()).End()
	}
	root.End()
	td := tr.Traces()[0]
	if len(td.Spans) != 2 || td.DroppedSpans != 3 {
		t.Fatalf("got %d spans, %d dropped; want 2 and 3", len(td.Spans), td.DroppedSpans)
	}
}

func TestStartSpanAtReconstructsTiming(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	parent := NewRootContext()
	start := time.Now().Add(-time.Second)
	sp := tr.StartSpanAt("post-hoc", parent, start)
	sp.EndAt(start.Add(250 * time.Millisecond))
	data := tr.Traces()[0].Spans[0]
	if data.StartUnixNano != start.UnixNano() {
		t.Errorf("start %d, want %d", data.StartUnixNano, start.UnixNano())
	}
	if data.DurationNS != (250 * time.Millisecond).Nanoseconds() {
		t.Errorf("duration %d, want 250ms", data.DurationNS)
	}
}

func TestStartSpanIgnoresNonRecordingParent(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	if sp := tr.StartSpan("x", SpanContext{}); sp != nil {
		t.Error("zero parent produced a span")
	}
	unsampled := NewRootContext()
	unsampled.Sampled = false
	if sp := tr.StartSpan("x", unsampled); sp != nil {
		t.Error("unsampled parent produced a span")
	}
}
