package exp

import (
	"testing"

	"sensorguard/internal/core"
	"sensorguard/internal/obs"
)

// TestObserverThreadsThroughRuns checks that the metrics registry and
// decision sink on the experiment config reach the detectors it builds: one
// record per window lands in the sink and the registry's window counters
// match the step count.
func TestObserverThreadsThroughRuns(t *testing.T) {
	cfg := Config{Days: 3, Seed: 2006, KMeansInit: true}
	ring := core.NewDecisionRing(4096)
	reg := obs.NewRegistry()
	cfg.Metrics, cfg.Decisions = reg, ring

	r, err := runWithSteps(cfg)
	if err != nil {
		t.Fatalf("runWithSteps: %v", err)
	}
	if ring.Len() != len(r.Steps) {
		t.Errorf("sink saw %d records, detector took %d steps", ring.Len(), len(r.Steps))
	}
	var processed, skipped uint64
	for _, s := range r.Steps {
		if s.Skipped {
			skipped++
		} else {
			processed++
		}
	}
	if got := reg.Counter("sensorguard_windows_total", "").Value(); got != processed {
		t.Errorf("sensorguard_windows_total = %d, want %d", got, processed)
	}
	if got := reg.Counter("sensorguard_windows_skipped_total", "").Value(); got != skipped {
		t.Errorf("sensorguard_windows_skipped_total = %d, want %d", got, skipped)
	}
}

// TestWithSinkPreservesCallerObserver checks that withSink fans out to both
// the caller's decision sink and the added one, and keeps the caller's
// registry.
func TestWithSinkPreservesCallerObserver(t *testing.T) {
	callerRing := core.NewDecisionRing(8)
	reg := obs.NewRegistry()
	cfg := Config{Days: 2, Seed: 1, Metrics: reg, Decisions: callerRing}

	added := core.NewDecisionRing(8)
	got := cfg.withSink(added)
	if got.Metrics != reg {
		t.Error("withSink dropped the caller's registry")
	}
	got.Decisions.Record(core.DecisionRecord{})
	if callerRing.Len() != 1 || added.Len() != 1 {
		t.Errorf("record fan-out: caller %d, added %d, want 1 and 1", callerRing.Len(), added.Len())
	}

	// Without a caller sink the added sink is the only consumer.
	solo := Config{Days: 2, Seed: 1}.withSink(added)
	solo.Decisions.Record(core.DecisionRecord{})
	if added.Len() != 2 {
		t.Errorf("solo sink saw %d records, want 2", added.Len())
	}
}

// TestFirstTrackOpen checks the decision-record scan used by the latency
// sweep.
func TestFirstTrackOpen(t *testing.T) {
	rec := func(window int, opened ...int) core.DecisionRecord {
		r := core.DecisionRecord{WindowStats: obs.WindowStats{Window: window}}
		for _, id := range opened {
			r.Sensors = append(r.Sensors, core.SensorDecision{Sensor: id, TrackOpen: true, TrackOpened: true})
		}
		return r
	}
	recs := []core.DecisionRecord{rec(0), rec(1, 3), rec(2, 4, 7), rec(3, 7)}
	if got := firstTrackOpen(recs, 7); got != 2 {
		t.Errorf("firstTrackOpen(7) = %d, want 2", got)
	}
	if got := firstTrackOpen(recs, 9); got != -1 {
		t.Errorf("firstTrackOpen(9) = %d, want -1", got)
	}
}
