package obs

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"sync"
	"time"
)

// This file is the zero-dependency tracing half of the observability layer:
// Dapper-style spans with explicit parent links, sampled at the root, carried
// across process boundaries in the W3C traceparent header, and retained in a
// bounded ring of recent traces for the /debug/traces endpoint. One sampled
// reading batch leaves a single trace linking ingest decode → journal append
// → queue wait → window admission → detector stages → checkpoint append.

// TraceID identifies one end-to-end trace (16 random bytes, hex on the wire).
type TraceID [16]byte

// IsZero reports whether the ID is unset (the W3C spec forbids all-zero IDs).
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// SpanID identifies one span within a trace (8 random bytes, hex on the wire).
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// SpanContext is the propagated trace state: which trace a unit of work
// belongs to, which span is its parent, and whether the trace is sampled.
// The zero value is an unsampled, invalid context — every tracing call site
// treats it as "tracing off", so contexts can be threaded unconditionally.
type SpanContext struct {
	Trace   TraceID
	Span    SpanID
	Sampled bool
}

// Valid reports whether the context carries real IDs.
func (c SpanContext) Valid() bool { return !c.Trace.IsZero() && !c.Span.IsZero() }

// Recording reports whether spans should be recorded under this context.
func (c SpanContext) Recording() bool { return c.Sampled && c.Valid() }

// TraceparentHeader is the canonical HTTP header carrying a SpanContext
// (https://www.w3.org/TR/trace-context/).
const TraceparentHeader = "Traceparent"

// Traceparent renders the context in the W3C trace-context format:
// "00-<trace-id>-<span-id>-<flags>", flags bit 0 = sampled.
func (c SpanContext) Traceparent() string {
	flags := "00"
	if c.Sampled {
		flags = "01"
	}
	return "00-" + c.Trace.String() + "-" + c.Span.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent value. It accepts any version
// byte (per spec, future versions must stay prefix-compatible) and rejects
// malformed or all-zero IDs.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) < 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	if len(s) > 55 && s[55] != '-' {
		return SpanContext{}, false
	}
	var c SpanContext
	if _, err := hex.Decode(c.Trace[:], []byte(s[3:35])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(c.Span[:], []byte(s[36:52])); err != nil {
		return SpanContext{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return SpanContext{}, false
	}
	if !c.Valid() {
		return SpanContext{}, false
	}
	c.Sampled = flags[0]&1 != 0
	return c, true
}

// idFallback seeds deterministic IDs if crypto/rand ever fails (it does not
// on any supported platform, but an all-zero ID would be spec-invalid).
var idFallback struct {
	mu sync.Mutex
	n  uint64
}

func randBytes(p []byte) {
	if _, err := crand.Read(p); err != nil {
		idFallback.mu.Lock()
		idFallback.n++
		binary.BigEndian.PutUint64(p[len(p)-8:], idFallback.n)
		idFallback.mu.Unlock()
	}
}

// NewRootContext mints a fresh sampled context — what a producer (gdigen
// -post) stamps on a batch so the collector's spans join the producer's
// trace.
func NewRootContext() SpanContext {
	var c SpanContext
	randBytes(c.Trace[:])
	randBytes(c.Span[:])
	c.Sampled = true
	return c
}

// SpanAttr is one key/value annotation on a span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is the immutable record of one finished span, as served by
// /debug/traces.
type SpanData struct {
	Name          string     `json:"name"`
	TraceID       string     `json:"trace_id"`
	SpanID        string     `json:"span_id"`
	ParentID      string     `json:"parent_id,omitempty"`
	StartUnixNano int64      `json:"start_unix_nano"`
	DurationNS    int64      `json:"duration_ns"`
	Attrs         []SpanAttr `json:"attrs,omitempty"`
}

// Span is one in-flight unit of traced work. A nil *Span is the disabled
// form: every method no-ops, so call sites need no sampling guards.
type Span struct {
	tracer *Tracer
	ctx    SpanContext
	parent SpanID
	name   string
	start  time.Time
	attrs  []SpanAttr
}

// Context returns the span's context, for propagating to children. A nil
// span returns the zero (unsampled) context.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.ctx
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value; no-op on nil.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, SpanAttr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// End finishes the span now and records it; no-op on nil.
func (s *Span) End() { s.EndAt(time.Now()) }

// EndAt finishes the span at an explicit time — used to register post-hoc
// spans reconstructed from already-measured stage latencies; no-op on nil.
func (s *Span) EndAt(end time.Time) {
	if s == nil || s.tracer == nil {
		return
	}
	data := SpanData{
		Name:          s.name,
		TraceID:       s.ctx.Trace.String(),
		SpanID:        s.ctx.Span.String(),
		StartUnixNano: s.start.UnixNano(),
		DurationNS:    end.Sub(s.start).Nanoseconds(),
		Attrs:         s.attrs,
	}
	if !s.parent.IsZero() {
		data.ParentID = s.parent.String()
	}
	s.tracer.record(s.ctx.Trace, data)
	s.tracer = nil // double End records once
}

// TracerConfig parameterises a Tracer.
type TracerConfig struct {
	// SampleEvery samples one in N server-rooted traces (default 1 = every
	// root). Propagated contexts (a producer-stamped traceparent) bypass
	// root sampling: the producer already decided.
	SampleEvery int
	// MaxTraces bounds the retained trace ring (default 64). The oldest
	// trace is evicted when a new trace arrives at capacity.
	MaxTraces int

	// maxSpans, when set, replaces the constant of the same name — the hook
	// the overflow test shrinks the cap with.
	maxSpans int
}

// maxSpans caps the spans retained per trace; overflow is counted, not
// stored.
const maxSpans = 256

func (c TracerConfig) withDefaults() TracerConfig {
	if c.SampleEvery <= 0 {
		c.SampleEvery = 1
	}
	if c.MaxTraces <= 0 {
		c.MaxTraces = 64
	}
	if c.maxSpans <= 0 {
		c.maxSpans = maxSpans
	}
	return c
}

// Tracer samples and retains traces. A nil *Tracer is the disabled form:
// Root and StartSpan return nil spans, so instrumented code pays only a nil
// check when tracing is off. Safe for concurrent use.
type Tracer struct {
	cfg TracerConfig

	mu     sync.Mutex
	roots  uint64
	traces map[TraceID]*traceEntry
	order  []TraceID // insertion order, oldest first
}

type traceEntry struct {
	spans   []SpanData
	dropped int
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	return &Tracer{cfg: cfg.withDefaults(), traces: make(map[TraceID]*traceEntry)}
}

// Root starts a new trace, subject to root sampling; returns nil (recording
// off) for unsampled roots or a nil tracer.
func (t *Tracer) Root(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	n := t.roots
	t.roots++
	t.mu.Unlock()
	if n%uint64(t.cfg.SampleEvery) != 0 {
		return nil
	}
	ctx := NewRootContext()
	return &Span{tracer: t, ctx: ctx, name: name, start: time.Now()}
}

// StartSpan starts a child span under parent; nil when the tracer is nil or
// the parent context is not recording.
func (t *Tracer) StartSpan(name string, parent SpanContext) *Span {
	// The no-op check runs before the clock read: StartSpan sits on
	// per-reading hot paths where the tracer is usually nil or the
	// context unsampled, and time.Now is most of a no-op span's cost.
	if t == nil || !parent.Recording() {
		return nil
	}
	return t.StartSpanAt(name, parent, time.Now())
}

// StartSpanAt is StartSpan with an explicit start time, for spans whose
// boundaries were measured before the span object is built.
func (t *Tracer) StartSpanAt(name string, parent SpanContext, start time.Time) *Span {
	if t == nil || !parent.Recording() {
		return nil
	}
	ctx := SpanContext{Trace: parent.Trace, Sampled: true}
	randBytes(ctx.Span[:])
	return &Span{tracer: t, ctx: ctx, parent: parent.Span, name: name, start: start}
}

// record retains one finished span, creating its trace entry (and evicting
// the oldest trace at capacity) on first use.
func (t *Tracer) record(id TraceID, data SpanData) {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.traces[id]
	if e == nil {
		if len(t.order) >= t.cfg.MaxTraces {
			oldest := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, oldest)
		}
		e = &traceEntry{}
		t.traces[id] = e
		t.order = append(t.order, id)
	}
	if len(e.spans) >= t.cfg.maxSpans {
		e.dropped++
		return
	}
	e.spans = append(e.spans, data)
}

// TraceData is one retained trace: its spans in completion order.
type TraceData struct {
	TraceID      string     `json:"trace_id"`
	Spans        []SpanData `json:"spans"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
}

// Traces snapshots the retained traces, oldest first. Nil tracers return
// nil.
func (t *Tracer) Traces() []TraceData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceData, 0, len(t.order))
	for _, id := range t.order {
		e := t.traces[id]
		td := TraceData{TraceID: id.String(), DroppedSpans: e.dropped}
		td.Spans = append([]SpanData(nil), e.spans...)
		out = append(out, td)
	}
	return out
}
