package exp

import (
	"fmt"
	"strings"
	"time"

	"sensorguard/internal/classify"
	"sensorguard/internal/core"
	"sensorguard/internal/fault"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// ---------------------------------------------------------------------------
// Detection-latency sweep: how fault magnitude trades off against the time
// to open a track and against classification quality. Subtle miscalibrations
// displace readings by less than the inter-state spacing and are invisible
// to the majority test — the sweep locates that sensitivity floor.

// LatencyPoint is one sweep point.
type LatencyPoint struct {
	// Factor is the humidity calibration factor injected on sensor 7
	// (1.0 = healthy; smaller = stronger fault).
	Factor float64
	// DetectionWindow is the first window with an open track (-1 =
	// undetected).
	DetectionWindow int
	// LatencyWindows is the delay from fault onset (-1 = undetected).
	LatencyWindows int
	// Kind is the final diagnosis for the sensor.
	Kind classify.Kind
}

// LatencySweepResult is the sweep outcome.
type LatencySweepResult struct {
	OnsetWindow int
	Points      []LatencyPoint
}

// AblationDetectionLatency sweeps the calibration-fault magnitude on sensor
// 7 and measures detection latency and final diagnosis. Detection delay is
// read off the detector's own decision records: each run gets a decision
// ring, and the latency is the gap between fault onset and the first record
// whose sensor row shows the faulted sensor's track opening.
func AblationDetectionLatency(cfg Config) (LatencySweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return LatencySweepResult{}, err
	}
	onset := 24 // windows (1 day at 1h windows)
	res := LatencySweepResult{OnsetWindow: onset}
	for _, factor := range []float64{0.95, 0.9, 0.85, 0.8, 0.7} {
		plan, err := fault.NewPlan(fault.Schedule{
			Sensor:   7,
			Injector: fault.Calibration{Factors: vecmat.Vector{1, factor}},
			Start:    time.Duration(onset) * time.Hour,
		})
		if err != nil {
			return res, err
		}
		ring := core.NewDecisionRing(cfg.Days*24 + 48)
		r, err := runWithSteps(cfg.withSink(ring), network.WithFaults(plan))
		if err != nil {
			return res, err
		}
		pt := LatencyPoint{Factor: factor, DetectionWindow: -1, LatencyWindows: -1, Kind: classify.KindNone}
		if w := firstTrackOpen(ring.Records(), 7); w >= 0 {
			pt.DetectionWindow = w
			pt.LatencyWindows = w - onset
		}
		rep, err := r.Detector.Report()
		if err != nil {
			return res, err
		}
		if d, ok := rep.Sensors[7]; ok {
			pt.Kind = d.Kind
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// String renders the sweep.
func (r LatencySweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — detection latency vs fault magnitude (humidity calibration on sensor 7, onset window %d)\n", r.OnsetWindow)
	for _, p := range r.Points {
		det := "undetected"
		if p.DetectionWindow >= 0 {
			det = fmt.Sprintf("window %d (latency %d)", p.DetectionWindow, p.LatencyWindows)
		}
		fmt.Fprintf(&b, "  factor %.2f: %s, diagnosis=%v\n", p.Factor, det, p.Kind)
	}
	return b.String()
}
