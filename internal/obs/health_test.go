package obs

import (
	"testing"
	"time"
)

func TestHealthTrackerNilSafe(t *testing.T) {
	var tr *HealthTracker
	tr.ObserveWindow(WindowStats{Window: 1})
	tr.SetDrift(ModelDrift{}, time.Now())
	if tr.Drifting() {
		t.Fatal("nil tracker drifting")
	}
	if snap := tr.Snapshot(); snap.Windows != 0 {
		t.Fatalf("nil tracker snapshot: %+v", snap)
	}
}

func TestHealthTrackerHealthySteadyState(t *testing.T) {
	tr := NewHealthTracker()
	for w := 1; w <= 100; w++ {
		// One raw alarm every 10th window, always filtered out.
		raw := 0
		if w%10 == 0 {
			raw = 1
		}
		tr.ObserveWindow(WindowStats{
			Window: w, Reporting: 10, RawAlarms: raw,
			TrackSymbols: 2, TrackBottoms: 2,
		})
	}
	snap := tr.Snapshot()
	if snap.Drifting {
		t.Fatalf("healthy trace judged drifting: %v", snap.Reasons)
	}
	if snap.Windows != 100 {
		t.Fatalf("windows = %d, want 100", snap.Windows)
	}
	if snap.FilteredAlarmRate != 0 {
		t.Fatalf("filtered rate = %v, want 0", snap.FilteredAlarmRate)
	}
	if snap.RawAlarmRate <= 0 || snap.RawAlarmRate > 0.1 {
		t.Fatalf("raw rate = %v, want small positive", snap.RawAlarmRate)
	}
	if snap.BottomFraction != 1 {
		t.Fatalf("bottom fraction = %v, want 1", snap.BottomFraction)
	}
	if len(snap.Spark) != sparkLen {
		t.Fatalf("spark length = %d, want %d", len(snap.Spark), sparkLen)
	}
}

func TestHealthTrackerAlarmRateDrift(t *testing.T) {
	tr := NewHealthTracker()
	// Healthy prefix.
	for w := 1; w <= 50; w++ {
		tr.ObserveWindow(WindowStats{Window: w, Reporting: 10})
	}
	if tr.Drifting() {
		t.Fatal("drifting before the fault")
	}
	// Sustained fault: 4 of 10 sensors raise filtered alarms every window.
	for w := 51; w <= 120; w++ {
		tr.ObserveWindow(WindowStats{Window: w, Reporting: 10, RawAlarms: 4, FilteredAlarms: 4})
	}
	snap := tr.Snapshot()
	if !snap.Drifting {
		t.Fatalf("sustained alarms not judged drifting: %+v", snap)
	}
	found := false
	for _, r := range snap.Reasons {
		if r == "filtered alarm rate above threshold" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing filtered-rate reason: %v", snap.Reasons)
	}
	// Recovery: alarms stop; the EWMA must decay back under threshold.
	for w := 121; w <= 240; w++ {
		tr.ObserveWindow(WindowStats{Window: w, Reporting: 10})
	}
	if tr.Drifting() {
		t.Fatalf("still drifting after recovery: %v", tr.Snapshot().Reasons)
	}
}

func TestHealthTrackerChurnDrift(t *testing.T) {
	tr := NewHealthTracker()
	tr.churnWindow, tr.maxChurn = 16, 3
	for w := 1; w <= 10; w++ {
		tr.ObserveWindow(WindowStats{Window: w, Reporting: 5, StateSpawns: 1})
	}
	snap := tr.Snapshot()
	if !snap.Drifting {
		t.Fatalf("churn burst not judged drifting: %+v", snap)
	}
	if snap.Churn.Spawns != 10 {
		t.Fatalf("churn spawns = %d, want 10", snap.Churn.Spawns)
	}
	// Quiet for two full churn windows: the verdict must clear.
	for w := 11; w <= 50; w++ {
		tr.ObserveWindow(WindowStats{Window: w, Reporting: 5})
	}
	if tr.Drifting() {
		t.Fatalf("still drifting after churn settled: %v", tr.Snapshot().Reasons)
	}
}

func TestHealthTrackerModelDrift(t *testing.T) {
	tr := NewHealthTracker()
	tr.ObserveWindow(WindowStats{Window: 1, Reporting: 5})
	// Without a baseline, polled drift is ignored.
	tr.SetDrift(ModelDrift{OrthoMargin: -0.2, MCShift: 0.9}, time.Now())
	if tr.Drifting() {
		t.Fatal("drift judged without a baseline")
	}
	at := time.Now()
	tr.SetDrift(ModelDrift{OrthoMargin: -0.2, MCShift: 0.9, MOShift: 0.1, BaselineWindow: 1}, at)
	snap := tr.Snapshot()
	if !snap.Drifting {
		t.Fatalf("model drift not judged: %+v", snap)
	}
	if len(snap.Reasons) != 2 { // ortho margin + M_C shift, not M_O
		t.Fatalf("reasons = %v, want ortho + M_C", snap.Reasons)
	}
	if !snap.DriftUpdatedAt.Equal(at) {
		t.Fatalf("drift timestamp not recorded")
	}
}

func TestHealthTrackerSkippedWindows(t *testing.T) {
	tr := NewHealthTracker()
	tr.ObserveWindow(WindowStats{Window: 1, Skipped: true})
	tr.ObserveWindow(WindowStats{Window: 2, Reporting: 5})
	snap := tr.Snapshot()
	if snap.SkippedWindows != 1 || snap.Windows != 1 {
		t.Fatalf("skipped=%d windows=%d, want 1/1", snap.SkippedWindows, snap.Windows)
	}
}

func TestHealthTrackerObserveWindowNoAlloc(t *testing.T) {
	tr := NewHealthTracker()
	sample := WindowStats{Window: 1, Reporting: 10, RawAlarms: 1, TrackSymbols: 3, TrackBottoms: 2, StateSpawns: 1}
	allocs := testing.AllocsPerRun(1000, func() {
		sample.Window++
		tr.ObserveWindow(sample)
	})
	if allocs != 0 {
		t.Fatalf("ObserveWindow allocates %v per call, want 0", allocs)
	}
}
