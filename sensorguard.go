// Package sensorguard detects and distinguishes accidental errors from
// malicious attacks in distributed sensor networks, implementing the
// methodology of Basile, Gupta, Kalbarczyk and Iyer, "An Approach for
// Detecting and Distinguishing Errors versus Attacks in Sensor Networks"
// (DSN 2006).
//
// The core idea: a collector node groups sensor observations into time
// windows and, per window, statistically separates the correct view of the
// environment (the majority cluster of sensors) from the observable view
// (the mean over everything, corrupt data included). Two Hidden Markov
// Models estimated on-line — M_CO relating correct to observable states,
// and a per-suspect M_CE relating correct states to the suspect's erroneous
// states — are then analysed *structurally*: attacks warp the
// correct↔observable correspondence (non-orthogonal rows = Dynamic Deletion,
// non-orthogonal columns = Dynamic Creation, a displaced one-to-one mapping
// = Dynamic Change), while errors leave it intact and reveal themselves in
// M_CE (an all-ones column = Stuck-at, constant attribute ratio =
// Calibration, constant difference = Additive).
//
// # Quick start
//
//	states := []sensorguard.Vector{{12, 94}, {17, 84}, {24, 70}, {31, 56}}
//	det, err := sensorguard.NewDetector(sensorguard.DefaultConfig(states))
//	if err != nil { ... }
//	// Feed windowed readings (e.g. from a live collector or a trace):
//	steps, err := det.ProcessTrace(readings)
//	report, err := det.Report()
//	fmt.Println(report.Overall()) // e.g. "stuck-at", "dynamic-creation", "none"
//
// The package also ships a complete simulation substrate (environment model,
// sensor devices, lossy network, fault injectors, and a compensating
// adversary) so the methodology can be exercised end-to-end without
// hardware; see Simulate and GenerateTrace.
package sensorguard

import (
	"io"
	"log/slog"
	"math/rand"

	"sensorguard/internal/classify"
	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Core detector types, re-exported from the implementation packages.
type (
	// Config collects every tunable of the methodology (Table 1 of the
	// paper plus engineering parameters).
	Config = core.Config
	// Detector is the collector-side analysis pipeline (Fig. 1).
	Detector = core.Detector
	// Report is the structural diagnosis (Fig. 5).
	Report = core.Report
	// StepResult is the per-window outcome.
	StepResult = core.StepResult
	// SensorStep is the per-sensor, per-window outcome.
	SensorStep = core.SensorStep
	// Reading is one sensor message ⟨t, p⟩.
	Reading = sensor.Reading
	// Vector is a point in attribute space.
	Vector = vecmat.Vector
	// Kind is a diagnosed error/attack type.
	Kind = classify.Kind
	// NetworkDiagnosis is the B^CO attack analysis.
	NetworkDiagnosis = classify.NetworkDiagnosis
	// SensorDiagnosis is the per-sensor B^CE error analysis.
	SensorDiagnosis = classify.SensorDiagnosis
)

// Diagnosis kinds (see Kind).
const (
	KindNone            = classify.KindNone
	KindStuckAt         = classify.KindStuckAt
	KindCalibration     = classify.KindCalibration
	KindAdditive        = classify.KindAdditive
	KindUnknownError    = classify.KindUnknownError
	KindDynamicCreation = classify.KindDynamicCreation
	KindDynamicDeletion = classify.KindDynamicDeletion
	KindDynamicChange   = classify.KindDynamicChange
	KindMixed           = classify.KindMixed
)

// Observability types, re-exported so external callers can instrument the
// pipeline (see docs/OBSERVABILITY.md).
type (
	// MetricsRegistry is the concurrency-safe counter/gauge/histogram
	// registry with Prometheus-text and JSON encodings; assign one to
	// Config.Metrics to instrument the detector.
	MetricsRegistry = obs.Registry
	// DetectorStats is the cheap counter snapshot Detector.Stats returns.
	DetectorStats = core.Stats
	// Tracer is the sampling span tracer: assign one to Config.Tracer (or
	// FleetConfig.Tracer) to record end-to-end traces for sampled readings.
	Tracer = obs.Tracer
	// TracerConfig parameterises sampling and retention.
	TracerConfig = obs.TracerConfig
	// SpanContext identifies a trace position; stamp one on a batch via the
	// Traceparent header to join the producer's trace.
	SpanContext = obs.SpanContext
	// TraceData is one retained trace (spans plus drop count).
	TraceData = obs.TraceData
	// DecisionRecord is the detector's one per-window record: the window's
	// stats (observable/correct states, alarm counts, track symbols, stage
	// latencies) plus the provenance of the verdict — per-sensor mappings
	// and the B^CO structural evidence (see docs/OBSERVABILITY.md).
	DecisionRecord = core.DecisionRecord
	// WindowStats is the scalar part of a DecisionRecord.
	WindowStats = obs.WindowStats
	// DecisionEvidence is the §3.4 structural evidence inside a record.
	DecisionEvidence = core.DecisionEvidence
	// DecisionSink consumes decision records (assign to Config.Decisions);
	// sentinel's -events and -audit-log write them as NDJSON. Records are
	// lent for the Record call only: a sink that keeps one keeps its Clone.
	DecisionSink = core.DecisionSink
	// DecisionRing retains the most recent records in memory.
	DecisionRing = core.DecisionRing
	// DecisionLog streams records as NDJSON — the audit-log sink.
	DecisionLog = core.DecisionLog
	// Alert is one live SLO evaluation, served on GET /alerts.
	Alert = obs.Alert
	// HealthSnapshot is a deployment's drift-telemetry snapshot, served on
	// GET /debug/health/{deployment}.
	HealthSnapshot = obs.HealthSnapshot
	// ModelDrift is the polled model-shift measurement inside a snapshot.
	ModelDrift = obs.ModelDrift
)

// TraceparentHeader is the HTTP header carrying a W3C trace-context value on
// ingest batches.
const TraceparentHeader = obs.TraceparentHeader

// NewTracer returns a sampling tracer with bounded retention.
func NewTracer(cfg TracerConfig) *Tracer { return obs.NewTracer(cfg) }

// NewRootContext mints a fresh sampled root span context — what a producer
// stamps on an ingest batch to get it traced end to end.
func NewRootContext() SpanContext { return obs.NewRootContext() }

// ParseTraceparent parses a W3C traceparent header value.
func ParseTraceparent(s string) (SpanContext, bool) { return obs.ParseTraceparent(s) }

// NewDecisionRing returns a sink retaining the last capacity records.
func NewDecisionRing(capacity int) *DecisionRing { return core.NewDecisionRing(capacity) }

// NewDecisionLog returns a sink writing NDJSON records to w.
func NewDecisionLog(w io.Writer) *DecisionLog { return core.NewDecisionLog(w) }

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewLogger returns a JSON slog logger writing to w, tagged with a
// component attribute when component is non-empty — the structured logging
// entry point the cmd binaries and the fleet share (see
// docs/OBSERVABILITY.md).
func NewLogger(w io.Writer, level slog.Leveler, component string) *slog.Logger {
	return obs.NewLogger(w, level, component)
}

// ServeMetrics serves a registry's /metrics, /metrics.json, /debug/vars,
// /healthz, and /debug/pprof endpoints on addr in the background.
func ServeMetrics(addr string, reg *MetricsRegistry) (*obs.Server, error) {
	return obs.Serve(addr, reg)
}

// NewDetector builds a detector from the configuration.
func NewDetector(cfg Config) (*Detector, error) {
	return core.NewDetector(cfg)
}

// DetectorSnapshot is the versioned, JSON-serialisable export of a
// detector's complete accumulated state (see docs/RESILIENCE.md).
type DetectorSnapshot = core.Snapshot

// RestoreDetector rebuilds a detector from a snapshot. The configuration
// must match the one the snapshot was taken under (Config.InitialStates is
// not needed — the restored cluster set replaces the seeds); the restored
// detector continues the stream with byte-identical results.
func RestoreDetector(cfg Config, snap *DetectorSnapshot) (*Detector, error) {
	return core.RestoreDetector(cfg, snap)
}

// DefaultConfig returns the paper's Table 1 configuration for the given
// initial model states.
func DefaultConfig(initialStates []Vector) Config {
	return core.DefaultConfig(initialStates)
}

// InitialStatesFromReadings seeds the model-state set the way the paper's
// evaluation does: an offline clustering pass (k-means) over historical
// readings. k is the number of initial states (the paper uses M = 6).
func InitialStatesFromReadings(readings []Reading, k int, seed int64) ([]Vector, error) {
	points := make([]vecmat.Vector, len(readings))
	for i, r := range readings {
		points[i] = r.Values
	}
	return cluster.KMeans(points, k, rand.New(rand.NewSource(seed)), 100)
}

// RandomInitialStates seeds the model-state set with k random states inside
// the per-attribute [lo, hi] box — the paper's alternative initialisation
// (footnote 5).
func RandomInitialStates(k, dim int, lo, hi float64, seed int64) ([]Vector, error) {
	return cluster.RandomStates(k, dim, lo, hi, rand.New(rand.NewSource(seed)))
}
