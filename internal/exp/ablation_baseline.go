package exp

import (
	"fmt"
	"strings"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/baseline"
	"sensorguard/internal/classify"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// ---------------------------------------------------------------------------
// Baseline comparison: the prior-work likelihood-threshold HMM detector
// (Warrender et al. [5], §2 of the paper) versus this methodology, on the
// same stuck-sensor scenario.

// BaselineComparisonResult contrasts the two detectors.
type BaselineComparisonResult struct {
	// BaselineTrainTime is the cost of the attack-free identification
	// phase the baseline requires (and this methodology does not).
	BaselineTrainTime time.Duration
	// BaselineAnomalousWindows / BaselineWindows is the fraction of
	// monitored windows the baseline flags on the faulty trace.
	BaselineAnomalousWindows int
	BaselineWindows          int
	// BaselineCleanFalseAlarms counts flagged windows on a clean trace.
	BaselineCleanFalseAlarms int
	BaselineCleanWindows     int
	// OursDetected / OursKind / OursCulprit are this methodology's
	// outcome on the same trace: not just detection, but the fault type
	// and the culprit sensor — which the baseline cannot produce.
	OursDetected bool
	OursKind     classify.Kind
	OursCulprit  int
}

// AblationBaseline runs the sensor-6 stuck fault through (a) the baseline
// detector, trained on a separate attack-free trace (its required training
// phase) and monitoring the network-mean series, and (b) this methodology.
func AblationBaseline(cfg Config) (BaselineComparisonResult, error) {
	if err := cfg.Validate(); err != nil {
		return BaselineComparisonResult{}, err
	}
	var res BaselineComparisonResult

	// Attack-free training trace (a *separate* deployment period the
	// baseline must trust to be clean).
	cleanCfg := cfg
	cleanCfg.Seed = cfg.Seed + 1000
	cleanTrace, err := gdiGenerate(cleanCfg)
	if err != nil {
		return res, err
	}
	trainSeries := seriesVectors(meanSeries(cleanTrace.Readings, time.Hour))

	det, err := baseline.Train(trainSeries, baseline.DefaultConfig())
	if err != nil {
		return res, fmt.Errorf("train baseline: %w", err)
	}
	res.BaselineTrainTime = det.TrainingTime()

	// Clean false-alarm behaviour on a third clean stretch.
	probeCfg := cfg
	probeCfg.Seed = cfg.Seed + 2000
	probeTrace, err := gdiGenerate(probeCfg)
	if err != nil {
		return res, err
	}
	cleanDet, err := det.Monitor(seriesVectors(meanSeries(probeTrace.Readings, time.Hour)))
	if err != nil {
		return res, err
	}
	res.BaselineCleanWindows = len(cleanDet)
	for _, d := range cleanDet {
		if d.Anomalous {
			res.BaselineCleanFalseAlarms++
		}
	}

	// The faulty trace, monitored by both.
	plan, err := sensor6Plan(cfg)
	if err != nil {
		return res, err
	}
	faultyTrace, err := gdiGenerate(cfg, network.WithFaults(plan))
	if err != nil {
		return res, err
	}
	faultyDet, err := det.Monitor(seriesVectors(meanSeries(faultyTrace.Readings, time.Hour)))
	if err != nil {
		return res, err
	}
	res.BaselineWindows = len(faultyDet)
	for _, d := range faultyDet {
		if d.Anomalous {
			res.BaselineAnomalousWindows++
		}
	}

	ours, err := buildDetector(cfg, faultyTrace)
	if err != nil {
		return res, err
	}
	if _, err := ours.ProcessTrace(faultyTrace.Readings); err != nil {
		return res, err
	}
	rep, err := ours.Report()
	if err != nil {
		return res, err
	}
	res.OursDetected = rep.Detected
	res.OursCulprit = -1
	for id, diag := range rep.Sensors {
		if diag.Kind == classify.KindStuckAt {
			res.OursKind = diag.Kind
			res.OursCulprit = id
		}
	}
	return res, nil
}

// BaselineAttackResult contrasts the detectors on the Dynamic Deletion
// attack. The attack is *designed* to keep the network view unremarkable —
// the pinned mean stays on a legitimate state and dwelling there longer is
// high-likelihood behaviour — so the likelihood-threshold baseline is
// structurally blind to it. The redundancy-based methodology still sees the
// deletion, because the correct sensors' view (which the adversary cannot
// rewrite) keeps visiting the hidden state the network stops reporting.
type BaselineAttackResult struct {
	// BaselineAnomalousWindows / BaselineWindows on the attacked trace.
	BaselineAnomalousWindows int
	BaselineWindows          int
	// OursKind is this methodology's diagnosis (dynamic-deletion).
	OursKind classify.Kind
	// OursSuspects are the sensors with open tracks — the compromised
	// set, which the baseline cannot name.
	OursSuspects []int
}

// AblationBaselineAttack runs the Table 6 deletion attack through both
// detectors.
func AblationBaselineAttack(cfg Config) (BaselineAttackResult, error) {
	if err := cfg.Validate(); err != nil {
		return BaselineAttackResult{}, err
	}
	var res BaselineAttackResult

	cleanCfg := cfg
	cleanCfg.Seed = cfg.Seed + 1000
	cleanTrace, err := gdiGenerate(cleanCfg)
	if err != nil {
		return res, err
	}
	det, err := baseline.Train(seriesVectors(meanSeries(cleanTrace.Readings, time.Hour)), baseline.DefaultConfig())
	if err != nil {
		return res, err
	}

	adv, err := maliciousThird()
	if err != nil {
		return res, err
	}
	strat := &attack.DynamicDeletion{
		Adversary:   adv,
		Target:      vecmat.Vector{31, 56},
		ReplaceWith: vecmat.Vector{24, 70},
		Radius:      6,
		Start:       3 * 24 * time.Hour,
	}
	attacked, err := gdiGenerate(cfg, network.WithAttack(strat))
	if err != nil {
		return res, err
	}
	dets, err := det.Monitor(seriesVectors(meanSeries(attacked.Readings, time.Hour)))
	if err != nil {
		return res, err
	}
	res.BaselineWindows = len(dets)
	for _, d := range dets {
		if d.Anomalous {
			res.BaselineAnomalousWindows++
		}
	}

	ours, err := buildDetector(cfg, attacked)
	if err != nil {
		return res, err
	}
	if _, err := ours.ProcessTrace(attacked.Readings); err != nil {
		return res, err
	}
	rep, err := ours.Report()
	if err != nil {
		return res, err
	}
	res.OursKind = rep.Network.Kind
	res.OursSuspects = rep.Suspects
	return res, nil
}

// String renders the attack comparison.
func (r BaselineAttackResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — baseline vs this methodology under a Dynamic Deletion attack\n")
	fmt.Fprintf(&b, "  baseline: flags %d/%d windows — the pinned mean stays inside the learned dynamics, so the\n"+
		"            likelihood test is structurally blind to deletion (and could not say error vs attack anyway)\n",
		r.BaselineAnomalousWindows, r.BaselineWindows)
	fmt.Fprintf(&b, "  ours:     diagnosis=%v, compromised sensors under track: %v\n",
		r.OursKind, r.OursSuspects)
	return b.String()
}

func seriesVectors(points []SeriesPoint) []vecmat.Vector {
	out := make([]vecmat.Vector, len(points))
	for i, p := range points {
		out[i] = vecmat.Vector{p.Temp, p.Hum}
	}
	return out
}

// String renders the comparison's deterministic part; the baseline's
// training time is in Timings.
func (r BaselineComparisonResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — prior-work baseline (likelihood-threshold HMM) vs this methodology\n")
	b.WriteString("  baseline: training phase on attack-free data (required);\n")
	fmt.Fprintf(&b, "            flags %d/%d windows on the faulty trace, %d/%d on a clean trace;\n",
		r.BaselineAnomalousWindows, r.BaselineWindows,
		r.BaselineCleanFalseAlarms, r.BaselineCleanWindows)
	b.WriteString("            no fault type, no culprit (the mean series erases the sensor identity)\n")
	culprit := "none"
	if r.OursCulprit >= 0 {
		culprit = fmt.Sprintf("sensor %d", r.OursCulprit)
	}
	fmt.Fprintf(&b, "  ours:     no training phase; detected=%v, type=%v, culprit=%s\n",
		r.OursDetected, r.OursKind, culprit)
	return b.String()
}

// Timings renders the baseline's wall-clock training time, which varies
// from run to run.
func (r BaselineComparisonResult) Timings() string {
	return fmt.Sprintf("baseline training phase %v\n", r.BaselineTrainTime)
}

// ---------------------------------------------------------------------------
// Noise robustness: the related work (Ye et al., cited in §5) reports that
// Markov-chain detectors only work under low noise. This sweep scales the
// sensor measurement noise and reports whether classification survives.

// NoisePoint is one sweep point.
type NoisePoint struct {
	// NoiseScale multiplies the default measurement noise σ.
	NoiseScale float64
	// Kind is the sensor-7 diagnosis under the calibration fault.
	Kind classify.Kind
	// HealthyRawRate is the healthy sensor's raw false-alarm rate.
	HealthyRawRate float64
}

// NoiseSweepResult is the sweep outcome.
type NoiseSweepResult struct {
	Points []NoisePoint
}

// AblationNoiseSweep runs the sensor-7 calibration fault at increasing
// measurement-noise scales.
func AblationNoiseSweep(cfg Config) (NoiseSweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return NoiseSweepResult{}, err
	}
	var res NoiseSweepResult
	plan, err := sensor7Plan()
	if err != nil {
		return res, err
	}
	for _, scale := range []float64{1, 2, 4, 8} {
		tc := cfg.traceConfig()
		tc.Noise = []float64{0.4 * scale, 1.0 * scale}
		tr, err := gdiGenerateWithTraceConfig(tc, network.WithFaults(plan))
		if err != nil {
			return res, err
		}
		det, err := buildDetector(cfg, tr)
		if err != nil {
			return res, err
		}
		if _, err := det.ProcessTrace(tr.Readings); err != nil {
			return res, err
		}
		rep, err := det.Report()
		if err != nil {
			return res, err
		}
		kind := classify.KindNone
		if d, ok := rep.Sensors[7]; ok {
			kind = d.Kind
		}
		res.Points = append(res.Points, NoisePoint{
			NoiseScale:     scale,
			Kind:           kind,
			HealthyRawRate: det.AlarmStats().RawRate(9),
		})
	}
	return res, nil
}

// String renders the sweep.
func (r NoiseSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — measurement-noise robustness (calibration fault on sensor 7)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  noise ×%.0f: diagnosis=%v, healthy raw alarm rate %.2f%%\n",
			p.NoiseScale, p.Kind, 100*p.HealthyRawRate)
	}
	return b.String()
}
