package obs

import (
	"sync"
	"time"
)

// This file is the detector-health half of the observability layer: a
// per-deployment rolling tracker that turns the pipeline's per-window
// evidence (alarm counts, cluster churn, track symbols) and its periodically
// polled model evidence (B^CO orthogonality, Markov transition-mass shift)
// into a drift verdict an operator — or an SLO — can consume. The split
// matters for cost: ObserveWindow is called on the detector step path and is
// pure arithmetic (no allocation); SetDrift carries the expensive model
// inspection and is fed by a background poller off the hot path.

// ModelDrift is the polled (heavyweight) model-drift evidence for one
// detector: how close the learned B^CO is to losing the orthogonality the
// paper's §3.4 diagnosis depends on, and how far the M_C/M_O transition
// structure has wandered from its bootstrap baseline.
type ModelDrift struct {
	// OrthoMaxDot is the largest off-diagonal row dot product of B^CO
	// (0 = perfectly orthogonal rows).
	OrthoMaxDot float64 `json:"ortho_max_dot"`
	// OrthoMargin is threshold − OrthoMaxDot: the remaining headroom
	// before row orthogonality is violated. Negative means violated.
	OrthoMargin float64 `json:"ortho_margin"`
	// MCShift and MOShift are the mean L1 transition-mass shifts of the
	// correct-model and observable-model chains vs. the baseline captured
	// after bootstrap, halved into [0, 1] (0 = identical, 1 = disjoint).
	MCShift float64 `json:"mc_shift"`
	MOShift float64 `json:"mo_shift"`
	// BaselineWindow is the window ordinal the baseline was captured at
	// (0 = no baseline yet, shifts not meaningful).
	BaselineWindow int `json:"baseline_window"`
}

// The tracker's smoothing and drift thresholds.
const (
	// healthAlpha is the EWMA smoothing factor for per-window rates
	// (≈ a 20-window memory).
	healthAlpha = 0.05
	// churnWindow is the fixed window, in detector windows, over which
	// cluster churn is counted.
	churnWindow = 64
	// maxFilteredRate: an EWMA filtered-alarm rate (alarms per
	// sensor-window) above this is drift.
	maxFilteredRate = 0.25
	// maxRawRate: an EWMA raw-alarm rate above this is drift.
	maxRawRate = 0.5
	// maxChurn: more spawn+merge events than this per churn window is
	// drift.
	maxChurn = 6
	// minOrthoMargin: a polled orthogonality margin below this is drift.
	minOrthoMargin = 0.05
	// maxShift: a polled M_C/M_O transition-mass shift above this is drift.
	maxShift = 0.35
)

// sparkLen is the number of recent windows retained for dashboard sparklines.
const sparkLen = 64

// ChurnStats is cluster-event churn over the tracker's fixed window.
type ChurnStats struct {
	Spawns int `json:"spawns"`
	Merges int `json:"merges"`
	// Windows is how many detector windows the counts cover (at most the
	// churn window, fewer until enough history accumulates).
	Windows int `json:"windows"`
}

// HealthSnapshot is the tracker's exported state, served per-deployment on
// /debug/health/{deployment} and rolled up on /status.
type HealthSnapshot struct {
	// Windows is the number of (non-skipped) windows observed.
	Windows int `json:"windows"`
	// SkippedWindows counts windows rejected for insufficient sensors.
	SkippedWindows int `json:"skipped_windows"`
	// RawAlarmRate and FilteredAlarmRate are EWMA alarms per sensor-window.
	RawAlarmRate      float64 `json:"raw_alarm_rate"`
	FilteredAlarmRate float64 `json:"filtered_alarm_rate"`
	// BottomFraction is the EWMA fraction of track symbols that were ⊥
	// (1 = every tracked sensor agrees with the network).
	BottomFraction float64 `json:"bottom_fraction"`
	// OpenTracks is the open diagnosis track count after the last window.
	OpenTracks int `json:"open_tracks"`
	// Churn is cluster spawn/merge churn over the churn window.
	Churn ChurnStats `json:"churn"`
	// Drift is the latest polled model-drift evidence.
	Drift ModelDrift `json:"drift"`
	// DriftUpdatedAt is when Drift was last refreshed (zero = never).
	DriftUpdatedAt time.Time `json:"drift_updated_at"`
	// Drifting is the tracker's verdict: at least one reason is present.
	Drifting bool `json:"drifting"`
	// Reasons lists every threshold currently exceeded.
	Reasons []string `json:"reasons,omitempty"`
	// Spark is the filtered-alarm-rate EWMA over the most recent windows,
	// oldest first — the dashboard sparkline.
	Spark []float64 `json:"spark,omitempty"`
}

// HealthTracker folds each window's WindowStats into rolling health state. Safe
// for concurrent use: the step path calls ObserveWindow while pollers call
// SetDrift and Snapshot. ObserveWindow allocates nothing.
type HealthTracker struct {
	// churnWindow and maxChurn start at the constants of the same names;
	// the churn test shrinks them.
	churnWindow, maxChurn int

	mu           sync.Mutex
	windows      int
	skipped      int
	rawRate      float64 // EWMA raw alarms per sensor-window
	filteredRate float64 // EWMA filtered alarms per sensor-window
	bottomFrac   float64 // EWMA ⊥ fraction of track symbols
	sawSymbols   bool
	openTracks   int
	churnSpawns  int
	churnMerges  int
	churnStart   int // window count when the churn window began
	prevSpawns   int // previous churn window totals (for smooth reads)
	prevMerges   int
	prevWindows  int
	drift        ModelDrift
	driftAt      time.Time
	spark        [sparkLen]float64
	sparkN       int // total sparkline points written (ring position)
}

// NewHealthTracker builds a tracker.
func NewHealthTracker() *HealthTracker {
	return &HealthTracker{churnWindow: churnWindow, maxChurn: maxChurn}
}

// ObserveWindow folds one window's stats into the rolling state. Nil-safe
// and allocation-free — it sits on the detector step path.
func (t *HealthTracker) ObserveWindow(s WindowStats) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.Skipped {
		t.skipped++
		return
	}
	t.windows++
	const a = healthAlpha
	if s.Reporting > 0 {
		raw := float64(s.RawAlarms) / float64(s.Reporting)
		filtered := float64(s.FilteredAlarms) / float64(s.Reporting)
		if t.windows == 1 {
			t.rawRate, t.filteredRate = raw, filtered
		} else {
			t.rawRate += a * (raw - t.rawRate)
			t.filteredRate += a * (filtered - t.filteredRate)
		}
	}
	if s.TrackSymbols > 0 {
		frac := float64(s.TrackBottoms) / float64(s.TrackSymbols)
		if !t.sawSymbols {
			t.bottomFrac = frac
			t.sawSymbols = true
		} else {
			t.bottomFrac += a * (frac - t.bottomFrac)
		}
	}
	t.openTracks = int(s.OpenTracks)
	t.churnSpawns += int(s.StateSpawns)
	t.churnMerges += int(s.StateMerges)
	if t.windows-t.churnStart >= t.churnWindow {
		t.prevSpawns, t.prevMerges = t.churnSpawns, t.churnMerges
		t.prevWindows = t.windows - t.churnStart
		t.churnSpawns, t.churnMerges = 0, 0
		t.churnStart = t.windows
	}
	t.spark[t.sparkN%sparkLen] = t.filteredRate
	t.sparkN++
}

// SetDrift records polled model-drift evidence. Nil-safe.
func (t *HealthTracker) SetDrift(d ModelDrift, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.drift = d
	t.driftAt = at
	t.mu.Unlock()
}

// churn returns the current churn counts: the completed previous window if
// one exists and the live window is young, else the live window.
func (t *HealthTracker) churn() ChurnStats {
	live := ChurnStats{Spawns: t.churnSpawns, Merges: t.churnMerges, Windows: t.windows - t.churnStart}
	if t.prevWindows == 0 {
		return live
	}
	// Report whichever window is worse, so a churn burst is visible both
	// while it accumulates and for a full window after it rolls over.
	prev := ChurnStats{Spawns: t.prevSpawns, Merges: t.prevMerges, Windows: t.prevWindows}
	if live.Spawns+live.Merges >= prev.Spawns+prev.Merges {
		return live
	}
	return prev
}

// Snapshot returns the current health state and verdict. Nil trackers return
// a zero snapshot.
func (t *HealthTracker) Snapshot() HealthSnapshot {
	if t == nil {
		return HealthSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	snap := HealthSnapshot{
		Windows:           t.windows,
		SkippedWindows:    t.skipped,
		RawAlarmRate:      t.rawRate,
		FilteredAlarmRate: t.filteredRate,
		OpenTracks:        t.openTracks,
		Churn:             t.churn(),
		Drift:             t.drift,
		DriftUpdatedAt:    t.driftAt,
	}
	if t.sawSymbols {
		// BottomFraction only means anything once symbols were recorded.
		snap.BottomFraction = t.bottomFrac
	} else {
		snap.BottomFraction = 1
	}
	n := t.sparkN
	if n > sparkLen {
		n = sparkLen
	}
	snap.Spark = make([]float64, n)
	for i := 0; i < n; i++ {
		snap.Spark[i] = t.spark[(t.sparkN-n+i)%sparkLen]
	}
	snap.Reasons = t.reasons()
	snap.Drifting = len(snap.Reasons) > 0
	return snap
}

// Drifting reports the verdict without building the full snapshot — the form
// the SLO probe calls once per tick. Nil-safe.
func (t *HealthTracker) Drifting() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.reasons()) > 0
}

// reasons evaluates every drift threshold. Callers hold t.mu.
func (t *HealthTracker) reasons() []string {
	var out []string
	if t.windows == 0 {
		return nil
	}
	if t.filteredRate > maxFilteredRate {
		out = append(out, "filtered alarm rate above threshold")
	}
	if t.rawRate > maxRawRate {
		out = append(out, "raw alarm rate above threshold")
	}
	if c := t.churn(); c.Spawns+c.Merges > t.maxChurn {
		out = append(out, "cluster churn above threshold")
	}
	if t.drift.BaselineWindow > 0 {
		if t.drift.OrthoMargin < minOrthoMargin {
			out = append(out, "B^CO orthogonality margin below threshold")
		}
		if t.drift.MCShift > maxShift {
			out = append(out, "M_C transition mass shifted from baseline")
		}
		if t.drift.MOShift > maxShift {
			out = append(out, "M_O transition mass shifted from baseline")
		}
	}
	return out
}
