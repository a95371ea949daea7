// Package obs is the zero-dependency observability layer of the detection
// pipeline: a concurrency-safe metrics registry (counters, gauges,
// fixed-bucket histograms) with Prometheus-text and JSON encodings, a
// structured per-window event stream with pluggable sinks, and an HTTP
// server exposing the registry plus pprof for live profiling.
//
// The package deliberately imports nothing from the rest of the module so
// every layer — core, cmd, exp — can depend on it without cycles.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and safe on a nil receiver (no-ops), so callers can hold
// unconditional handles even when metrics are disabled.
type Counter struct {
	name, help string
	v          atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. Nil-safe like Counter.
type Gauge struct {
	name, help string
	bits       atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution metric. Buckets are upper bounds
// in ascending order; observations above the last bound land in the implicit
// +Inf bucket. Nil-safe like Counter. Updates are lock-free so Observe stays
// cheap enough for per-stage hot-path timing; a concurrent Snapshot may see
// a sum momentarily behind the bucket counts.
type Histogram struct {
	name, help string
	bounds     []float64
	counts     []atomic.Uint64 // len(bounds)+1; last is +Inf
	exemplars  []atomic.Pointer[Exemplar]
	sumBits    atomic.Uint64
}

// Exemplar links one recent observation in a histogram bucket to the trace
// that produced it, so a latency spike on a dashboard jumps straight to a
// /debug/traces trace. Exposed as OpenMetrics exemplars on /metrics and as a
// per-bucket field in /metrics.json.
type Exemplar struct {
	Value    float64 `json:"value"`
	TraceID  string  `json:"trace_id"`
	UnixNano int64   `json:"unix_nano"`
}

// Observe folds one sample into the distribution.
func (h *Histogram) Observe(v float64) {
	h.ObserveN(v, 1, "")
}

// ObserveExemplar is Observe plus an exemplar: the bucket the sample lands in
// retains (value, traceID, now), replacing that bucket's previous exemplar.
// An empty traceID degrades to a plain Observe, so callers can pass the
// sampled trace ID unconditionally and pay the pointer store only for the
// (rare) traced observations.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	h.ObserveN(v, 1, traceID)
}

// ObserveN folds n samples of the same value v into the distribution in one
// step: the bucket count rises by n and the sum by n·v, exactly as n Observe
// calls would leave them. A non-empty traceID also stores one exemplar, as
// ObserveExemplar does. n == 0 is a no-op.
func (h *Histogram) ObserveN(v float64, n uint64, traceID string) {
	if h == nil || n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + add)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID, UnixNano: time.Now().UnixNano()})
	}
}

// HistogramSnapshot is a consistent copy of a histogram's state. Counts are
// per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64
	// Exemplars holds the retained exemplar per bucket (len(Counts) entries,
	// nil where a bucket has none).
	Exemplars []*Exemplar
	Sum       float64
	Count     uint64
}

// Snapshot returns a copy of the distribution.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{
		Bounds:    h.bounds,
		Counts:    make([]uint64, len(h.counts)),
		Exemplars: make([]*Exemplar, len(h.counts)),
		Sum:       math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		snap.Counts[i] = h.counts[i].Load()
		snap.Count += snap.Counts[i]
		snap.Exemplars[i] = h.exemplars[i].Load()
	}
	return snap
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// LatencyBuckets is the fixed bucket schema for per-stage latencies, in
// seconds: exponential from 1µs to 1s, wide enough for a cold classification
// pass and fine enough to resolve the sub-100µs hot path.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		0.1, 0.25, 0.5, 1,
	}
}

// Registry is a concurrency-safe collection of named metrics. The zero value
// is not usable; construct with NewRegistry.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Registering the same name as a different metric kind panics: that is
// a programming error, not a runtime condition.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkNew(name, "counter")
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkNew(name, "gauge")
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds (ascending) on first use.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.checkNew(name, "histogram")
	if len(buckets) == 0 {
		buckets = LatencyBuckets()
	}
	if !sort.Float64sAreSorted(buckets) {
		panic(fmt.Sprintf("obs: histogram %q buckets not ascending", name))
	}
	h := &Histogram{
		name:      name,
		help:      help,
		bounds:    append([]float64(nil), buckets...),
		counts:    make([]atomic.Uint64, len(buckets)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(buckets)+1),
	}
	r.histograms[name] = h
	return h
}

// checkNew panics when name is already registered as another kind. Callers
// hold r.mu.
func (r *Registry) checkNew(name, kind string) {
	_, c := r.counters[name]
	_, g := r.gauges[name]
	_, h := r.histograms[name]
	if c || g || h {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s", name, kind))
	}
}

// names returns every registered metric name, sorted.
func (r *Registry) names() []string {
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for n := range r.counters {
		out = append(out, n)
	}
	for n := range r.gauges {
		out = append(out, n)
	}
	for n := range r.histograms {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SplitMetricName splits a registered name into its base name and label
// body: "fleet_drifting{deployment=\"a\"}" → ("fleet_drifting",
// "deployment=\"a\""). Names without a label suffix return an empty body.
func SplitMetricName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 || !strings.HasSuffix(name, "}") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

// series renders a sample name for the text exposition format: base plus the
// merged label body (extra is appended after labels when both are present).
func series(base, labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return base
	case labels == "":
		return base + "{" + extra + "}"
	case extra == "":
		return base + "{" + labels + "}"
	default:
		return base + "{" + labels + "," + extra + "}"
	}
}

// WritePrometheus encodes every metric in the Prometheus text exposition
// format (version 0.0.4). Labeled series (names registered with a
// `{k="v"}` suffix) are grouped under a single HELP/TYPE header per base
// name, as the format requires.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := r.names()
	// Group label variants under their base name: sort by (base, full name)
	// so every series of one metric is contiguous regardless of how `{`
	// collates against other name characters.
	sort.Slice(names, func(i, j int) bool {
		bi, _ := SplitMetricName(names[i])
		bj, _ := SplitMetricName(names[j])
		if bi != bj {
			return bi < bj
		}
		return names[i] < names[j]
	})
	lastBase := ""
	for _, name := range names {
		base, labels := SplitMetricName(name)
		newBase := base != lastBase
		lastBase = base
		if c, ok := r.counters[name]; ok {
			if newBase {
				if err := writeHeader(w, base, c.help, "counter"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", series(base, labels, ""), c.Value()); err != nil {
				return err
			}
			continue
		}
		if g, ok := r.gauges[name]; ok {
			if newBase {
				if err := writeHeader(w, base, g.help, "gauge"); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", series(base, labels, ""), formatFloat(g.Value())); err != nil {
				return err
			}
			continue
		}
		h := r.histograms[name]
		if newBase {
			if err := writeHeader(w, base, h.help, "histogram"); err != nil {
				return err
			}
		}
		snap := h.Snapshot()
		var cum uint64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			le := fmt.Sprintf("le=%q", formatFloat(bound))
			if _, err := fmt.Fprintf(w, "%s %d%s\n",
				series(base+"_bucket", labels, le), cum, exemplarSuffix(snap.Exemplars[i])); err != nil {
				return err
			}
		}
		cum += snap.Counts[len(snap.Counts)-1]
		if _, err := fmt.Fprintf(w, "%s %d%s\n",
			series(base+"_bucket", labels, `le="+Inf"`), cum,
			exemplarSuffix(snap.Exemplars[len(snap.Exemplars)-1])); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
			series(base+"_sum", labels, ""), formatFloat(snap.Sum),
			series(base+"_count", labels, ""), snap.Count); err != nil {
			return err
		}
	}
	return nil
}

func writeHeader(w io.Writer, name, help, kind string) error {
	if help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// exemplarSuffix renders an OpenMetrics exemplar annotation for one bucket
// line (" # {trace_id=\"...\"} value timestamp"), or "" when the bucket has
// no exemplar — so histograms without exemplars encode byte-identically to
// the plain 0.0.4 text format.
func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	ts := float64(e.UnixNano) / 1e9
	return fmt.Sprintf(" # {trace_id=%q} %s %s", e.TraceID, formatFloat(e.Value), strconv.FormatFloat(ts, 'f', 3, 64))
}

// histogramJSON is the JSON shape of one histogram.
type histogramJSON struct {
	Count   uint64       `json:"count"`
	Sum     float64      `json:"sum"`
	Buckets []bucketJSON `json:"buckets"`
}

// bucketJSON is one cumulative histogram bucket.
type bucketJSON struct {
	LE       float64   `json:"le"`
	Count    uint64    `json:"count"`
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot returns every metric's current value keyed by name — counters as
// integers, gauges as floats, histograms as {count, sum, buckets}. The map
// is JSON-encodable and detached from the registry.
func (r *Registry) Snapshot() map[string]any {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		snap := h.Snapshot()
		hj := histogramJSON{Count: snap.Count, Sum: snap.Sum}
		var cum uint64
		for i, bound := range snap.Bounds {
			cum += snap.Counts[i]
			hj.Buckets = append(hj.Buckets, bucketJSON{LE: bound, Count: cum, Exemplar: snap.Exemplars[i]})
		}
		out[name] = hj
	}
	return out
}

// WriteJSON encodes the Snapshot as indented JSON (expvar-style).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
