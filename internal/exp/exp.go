// Package exp regenerates every table and figure of the paper's evaluation
// (§4), plus the ablation studies DESIGN.md calls out. Each experiment is a
// pure function from an experiment Config to a structured, printable result;
// the root-level benchmarks and cmd/experiments both drive these functions.
package exp

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Config scales an experiment. The paper evaluates on one month (July 2003)
// of GDI data; benchmarks may shrink Days for quicker iterations.
type Config struct {
	// Days is the trace length (the paper's evaluation uses 31).
	Days int
	// Seed drives all randomness.
	Seed int64
	// KMeansInit seeds the detector's initial states with an offline
	// clustering pass over the first day (the paper's setup); when false,
	// random initial states are used (the paper's footnote-5 variant).
	KMeansInit bool
	// SeedStates, when non-nil, overrides the initial model states
	// entirely. The Dynamic-Change experiment uses the four key dwell
	// states: with a finer grid the displaced mapping quantises onto too
	// few target states and genuinely stops being injective (see the
	// experiment's doc comment).
	SeedStates []vecmat.Vector
	// Metrics, when non-nil, instruments every detector the experiment
	// builds; the metrics accumulate across runs in the registry.
	Metrics *obs.Registry
	// Decisions, when non-nil, receives every detector's per-window
	// decision records.
	Decisions core.DecisionSink
}

// DefaultConfig mirrors the paper's month-long evaluation.
func DefaultConfig() Config {
	return Config{Days: 31, Seed: 2006, KMeansInit: true}
}

// Validate reports whether the experiment configuration is usable.
func (c Config) Validate() error {
	if c.Days < 2 {
		return fmt.Errorf("exp: need at least 2 days, got %d", c.Days)
	}
	return nil
}

// traceConfig maps the experiment config onto the GDI generator.
func (c Config) traceConfig() gdi.GenerateConfig {
	tc := gdi.DefaultGenerateConfig()
	tc.Days = c.Days
	tc.Seed = c.Seed
	return tc
}

// buildDetector seeds a detector the way the paper's evaluation does: M = 6
// initial states from an offline k-means pass over the trace's first day
// (or random states when KMeansInit is false).
func buildDetector(cfg Config, tr gdi.Trace) (*core.Detector, error) {
	const initialStates = 6
	var seeds []vecmat.Vector
	if cfg.SeedStates != nil {
		seeds = cfg.SeedStates
	} else if cfg.KMeansInit {
		var points []vecmat.Vector
		for _, r := range tr.Readings {
			if r.Time < 24*time.Hour {
				points = append(points, r.Values)
			}
		}
		var err error
		seeds, err = cluster.KMeans(points, initialStates, rand.New(rand.NewSource(cfg.Seed)), 100)
		if err != nil {
			return nil, fmt.Errorf("seed states: %w", err)
		}
	} else {
		var err error
		seeds, err = cluster.RandomStates(initialStates, 2, 0, 100, rand.New(rand.NewSource(cfg.Seed)))
		if err != nil {
			return nil, fmt.Errorf("random states: %w", err)
		}
	}
	ccfg := core.DefaultConfig(seeds)
	ccfg.Metrics = cfg.Metrics
	ccfg.Decisions = cfg.Decisions
	return core.NewDetector(ccfg)
}

// withSink returns a copy of cfg whose detectors also record their decisions
// into sink, preserving the registry and any sink the caller configured.
func (c Config) withSink(sink core.DecisionSink) Config {
	out := c
	out.Decisions = sink
	if c.Decisions != nil {
		out.Decisions = teeSink{c.Decisions, sink}
	}
	return out
}

// teeSink records every decision into each sink in order, lending each the
// same borrowed record within the call (see core.DecisionSink).
type teeSink []core.DecisionSink

func (t teeSink) Record(rec core.DecisionRecord) {
	for _, s := range t {
		s.Record(rec)
	}
}

// firstTrackOpen scans decision records for the first window that opened a
// track on the given sensor (-1 = never).
func firstTrackOpen(recs []core.DecisionRecord, sensor int) int {
	for _, rec := range recs {
		for _, s := range rec.Sensors {
			if s.Sensor == sensor && s.TrackOpened {
				return rec.Window
			}
		}
	}
	return -1
}

// sensorReading aliases the message type for brevity inside this package.
type sensorReading = sensor.Reading

// gdiGenerate produces the experiment's trace.
func gdiGenerate(cfg Config, opts ...network.Option) (gdi.Trace, error) {
	return gdi.Generate(cfg.traceConfig(), opts...)
}

// gdiGenerateWithTraceConfig produces a trace from an explicit generator
// configuration (used by sweeps that vary generator parameters).
func gdiGenerateWithTraceConfig(tc gdi.GenerateConfig, opts ...network.Option) (gdi.Trace, error) {
	return gdi.Generate(tc, opts...)
}

// run generates a trace with the given deployment options, builds a
// detector, and processes the whole trace.
func run(cfg Config, opts ...network.Option) (*core.Detector, gdi.Trace, error) {
	r, err := runWithSteps(cfg, opts...)
	if err != nil {
		return nil, gdi.Trace{}, err
	}
	return r.Detector, r.Trace, nil
}

// runResult bundles a processed run with its per-window step results.
type runResult struct {
	Detector *core.Detector
	Trace    gdi.Trace
	Steps    []core.StepResult
}

// sensorStep returns sensor id's outcome in step s, if it reported.
func sensorStep(s core.StepResult, id int) (core.SensorStep, bool) {
	for _, st := range s.Sensors {
		if st.Sensor == id {
			return st, true
		}
	}
	return core.SensorStep{}, false
}

// runWithSteps is run, keeping the per-window step results (needed by the
// alarm-series experiment).
func runWithSteps(cfg Config, opts ...network.Option) (runResult, error) {
	if err := cfg.Validate(); err != nil {
		return runResult{}, err
	}
	tr, err := gdiGenerate(cfg, opts...)
	if err != nil {
		return runResult{}, fmt.Errorf("generate trace: %w", err)
	}
	det, err := buildDetector(cfg, tr)
	if err != nil {
		return runResult{}, err
	}
	steps, err := det.ProcessTrace(tr.Readings)
	if err != nil {
		return runResult{}, fmt.Errorf("process trace: %w", err)
	}
	return runResult{Detector: det, Trace: tr, Steps: steps}, nil
}

// MatrixView is a labelled matrix for rendering B^CO / B^CE tables the way
// the paper prints them: states labelled by their attribute tuples.
type MatrixView struct {
	Name      string
	RowLabels []string
	ColLabels []string
	M         *vecmat.Matrix
}

// String renders the matrix as an aligned text table.
func (v MatrixView) String() string {
	var b strings.Builder
	width := 9
	for _, l := range append(append([]string{}, v.RowLabels...), v.ColLabels...) {
		if len(l)+1 > width {
			width = len(l) + 1
		}
	}
	pad := func(s string) string {
		if len(s) < width {
			return strings.Repeat(" ", width-len(s)) + s
		}
		return s
	}
	fmt.Fprintf(&b, "%s:\n", v.Name)
	b.WriteString(pad("i↓ j→"))
	for _, l := range v.ColLabels {
		b.WriteString(pad(l))
	}
	b.WriteByte('\n')
	for i := 0; i < v.M.Rows(); i++ {
		b.WriteString(pad(v.RowLabels[i]))
		for j := 0; j < v.M.Cols(); j++ {
			b.WriteString(pad(strconv.FormatFloat(v.M.At(i, j), 'f', 3, 64)))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// stateLabel renders a model state as the paper's "(temp,hum)" tuple.
func stateLabel(attrs map[int]vecmat.Vector, id int) string {
	v, ok := attrs[id]
	if !ok {
		if id < 0 {
			return "⊥"
		}
		return fmt.Sprintf("s%d", id)
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.Itoa(int(x + 0.5))
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// matrixView labels a snapshot's B matrix with state tuples.
func matrixView(name string, hiddenIDs, symbolIDs []int, m *vecmat.Matrix, attrs map[int]vecmat.Vector) MatrixView {
	rows := make([]string, len(hiddenIDs))
	for i, id := range hiddenIDs {
		rows[i] = stateLabel(attrs, id)
	}
	cols := make([]string, len(symbolIDs))
	for j, id := range symbolIDs {
		cols[j] = stateLabel(attrs, id)
	}
	return MatrixView{Name: name, RowLabels: rows, ColLabels: cols, M: m.Clone()}
}

// SeriesPoint is one sample of an attribute time series.
type SeriesPoint struct {
	T    time.Duration
	Temp float64
	Hum  float64
}

// meanSeries averages readings into per-window series points.
func meanSeries(readings []sensor.Reading, width time.Duration) []SeriesPoint {
	windows, err := network.WindowAll(readings, width)
	if err != nil {
		return nil
	}
	var out []SeriesPoint
	for _, w := range windows {
		if len(w.Readings) == 0 {
			continue
		}
		var t, h float64
		for _, r := range w.Readings {
			t += r.Values[0]
			h += r.Values[1]
		}
		n := float64(len(w.Readings))
		out = append(out, SeriesPoint{T: w.Start, Temp: t / n, Hum: h / n})
	}
	return out
}
