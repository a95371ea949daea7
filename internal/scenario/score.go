package scenario

// The scorer: joins a campaign's ground truth against the collector's
// per-window DecisionRecords (GET /debug/decisions/{deployment}) and turns
// the match into classification metrics. This is what makes the corpus a
// regression suite — BENCH_scenarios.json is a CorpusReport.

import (
	"sensorguard/internal/classify"
	"sensorguard/internal/core"
)

// kindClass maps every classify.Kind name onto a Label, built from the kinds
// themselves so a new diagnosis kind cannot silently fall through.
var kindClass = func() map[string]Label {
	m := make(map[string]Label)
	for k := classify.KindNone; k <= classify.KindMixed; k++ {
		switch {
		case k.IsAttack():
			m[k.String()] = LabelAttack
		case k.IsError():
			m[k.String()] = LabelError
		default:
			m[k.String()] = LabelBenign
		}
	}
	return m
}()

// PredictLabel reduces one decision record to the three-way verdict the
// ground truth is expressed in. Precedence mirrors the paper's diagnosis:
// the structural network verdict (§3.4, read off B^CO) decides attack vs
// error when present; otherwise any filtered alarm or open per-sensor track
// means something is wrong with a sensor — an error. A window skipped for
// lacking a quorum is unscorable (ok == false).
//
// One refinement over taking the verdict at face value: a structural attack
// verdict whose sensor-level evidence implicates exactly one sensor is
// re-read as an error. The paper's error model is per-sensor — a lone
// suspect with an alarm or open track plus a structural violation is
// exactly the shape a single faulty sensor leaves in B^CO, and the
// majority assumption prefers that explanation. Coordinated attacks
// implicate several sensors, and phantom injections (forged traffic from
// identities outside the sensor set) implicate none, so both keep the
// attack verdict.
func PredictLabel(rec core.DecisionRecord) (label Label, ok bool) {
	if rec.Skipped {
		return "", false
	}
	if rec.Evidence != nil {
		if cls, known := kindClass[rec.Evidence.Verdict]; known && cls != LabelBenign {
			if cls == LabelAttack && loneSensorShape(rec) {
				return LabelError, true
			}
			return cls, true
		}
	}
	if rec.FilteredAlarms > 0 {
		return LabelError, true
	}
	for _, s := range rec.Sensors {
		if s.TrackOpen {
			return LabelError, true
		}
	}
	return LabelBenign, true
}

// loneSensorShape reports whether a record's evidence looks like a single
// faulty sensor rather than a coordinated attack: exactly one sensor is
// implicated by a filtered alarm or an open track. Zero implicated sensors
// is NOT this shape — a fault always implicates its own sensor, so
// structural violations with no suspect point at injected traffic.
func loneSensorShape(rec core.DecisionRecord) bool {
	implicated := rec.FilteredAlarms
	open := 0
	for _, s := range rec.Sensors {
		if s.TrackOpen {
			open++
		}
	}
	if open > implicated {
		implicated = open
	}
	return implicated == 1
}

// Score is one scenario's verdict-vs-truth outcome.
type Score struct {
	Scenario   string `json:"scenario"`
	Class      Label  `json:"class"`
	Deployment string `json:"deployment"`
	Seed       int64  `json:"seed"`
	Days       int    `json:"days"`

	// Windows is the ground-truth window count; Scored is how many of them
	// had a joinable, non-skipped decision record. The tail windows held
	// open by the watermark at drain time simply go unscored.
	Windows int `json:"windows"`
	Scored  int `json:"scored"`
	// Correct counts exact label matches over the scored windows; Accuracy
	// is Correct/Scored (1 when nothing was scorable).
	Correct  int     `json:"correct"`
	Accuracy float64 `json:"accuracy"`
	// BenignWindows and FalseAlarms measure the false-alarm rate: scored
	// truth-benign windows and how many of them drew a non-benign verdict.
	BenignWindows  int     `json:"benign_windows"`
	FalseAlarms    int     `json:"false_alarms"`
	FalseAlarmRate float64 `json:"false_alarm_rate"`
	// OnsetWindow is the first non-benign truth window (-1 for benign
	// scenarios). Detected reports whether any scored window at or past the
	// onset drew a non-benign verdict; DetectionLatencyWindows is how many
	// windows after onset that first happened (-1 when undetected or not
	// applicable), DetectionLatencySec the same in event time.
	OnsetWindow             int     `json:"onset_window"`
	Detected                bool    `json:"detected"`
	DetectionLatencyWindows int     `json:"detection_latency_windows"`
	DetectionLatencySec     float64 `json:"detection_latency_sec"`
	// FinalVerdict is the structural verdict of the last scored window —
	// the diagnosis the campaign settles on, pinned against Spec.Expected.
	FinalVerdict string `json:"final_verdict"`
	// Confusion counts truth→predicted over scored windows.
	Confusion map[Label]map[Label]int `json:"confusion"`
}

// ScoreRun joins ground truth against decision records by window ordinal.
// Records for windows outside the truth (or duplicates — last record wins)
// are tolerated: the join is truth-driven.
func ScoreRun(run *Run, recs []core.DecisionRecord) Score {
	byWindow := make(map[int]core.DecisionRecord, len(recs))
	for _, r := range recs {
		byWindow[r.Window] = r
	}
	s := Score{
		Scenario:                run.Spec.Name,
		Class:                   run.Spec.Class,
		Deployment:              run.Config.Deployment,
		Seed:                    run.Config.Seed,
		Days:                    run.Config.Days,
		Windows:                 len(run.Truth),
		OnsetWindow:             run.OnsetWindow(),
		DetectionLatencyWindows: -1,
		Confusion: map[Label]map[Label]int{
			LabelBenign: {}, LabelError: {}, LabelAttack: {},
		},
	}
	lastScored := -1
	for _, wt := range run.Truth {
		rec, have := byWindow[wt.Window]
		if !have {
			continue
		}
		pred, ok := PredictLabel(rec)
		if !ok {
			continue
		}
		s.Scored++
		s.Confusion[wt.Label][pred]++
		if pred == wt.Label {
			s.Correct++
		}
		if wt.Label == LabelBenign {
			s.BenignWindows++
			if pred != LabelBenign {
				s.FalseAlarms++
			}
		}
		if s.OnsetWindow >= 0 && wt.Window >= s.OnsetWindow && pred != LabelBenign && !s.Detected {
			s.Detected = true
			s.DetectionLatencyWindows = wt.Window - s.OnsetWindow
			s.DetectionLatencySec = float64(s.DetectionLatencyWindows) * run.Window.Seconds()
		}
		if wt.Window > lastScored {
			lastScored = wt.Window
			if rec.Evidence != nil {
				s.FinalVerdict = rec.Evidence.Verdict
			}
		}
	}
	s.Accuracy = 1
	if s.Scored > 0 {
		s.Accuracy = float64(s.Correct) / float64(s.Scored)
	}
	if s.BenignWindows > 0 {
		s.FalseAlarmRate = float64(s.FalseAlarms) / float64(s.BenignWindows)
	}
	return s
}

// CorpusSummary aggregates the per-scenario scores.
type CorpusSummary struct {
	Scenarios int `json:"scenarios"`
	// MeanAccuracy and MeanFalseAlarmRate are unweighted means over
	// scenarios — each campaign counts once regardless of length.
	MeanAccuracy       float64 `json:"mean_accuracy"`
	MeanFalseAlarmRate float64 `json:"mean_false_alarm_rate"`
	// Anomalous counts scenarios with an onset; Detected how many of those
	// the detector flagged at all; MeanDetectionLatencySec averages the
	// event-time latency over the detected ones.
	Anomalous               int     `json:"anomalous"`
	Detected                int     `json:"detected"`
	MeanDetectionLatencySec float64 `json:"mean_detection_latency_sec"`
}

// CorpusReport is the committed BENCH_scenarios.json document.
type CorpusReport struct {
	SchemaVersion int     `json:"schema_version"`
	GeneratedAt   string  `json:"generated_at,omitempty"`
	GoOS          string  `json:"goos"`
	GoArch        string  `json:"goarch"`
	CPUs          int     `json:"cpus"`
	Seed          int64   `json:"seed"`
	WindowSec     float64 `json:"window_sec"`

	Scenarios []Score       `json:"scenarios"`
	Summary   CorpusSummary `json:"summary"`
}

// SchemaVersion is the current BENCH_scenarios.json schema.
const SchemaVersion = 1

// Summarize fills a report's summary from its per-scenario scores.
func Summarize(scores []Score) CorpusSummary {
	sum := CorpusSummary{Scenarios: len(scores)}
	if len(scores) == 0 {
		return sum
	}
	var acc, far, lat float64
	for _, s := range scores {
		acc += s.Accuracy
		far += s.FalseAlarmRate
		if s.OnsetWindow >= 0 {
			sum.Anomalous++
			if s.Detected {
				sum.Detected++
				lat += s.DetectionLatencySec
			}
		}
	}
	sum.MeanAccuracy = acc / float64(len(scores))
	sum.MeanFalseAlarmRate = far / float64(len(scores))
	if sum.Detected > 0 {
		sum.MeanDetectionLatencySec = lat / float64(sum.Detected)
	}
	return sum
}
