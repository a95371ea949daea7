package core

import (
	"math"
	"testing"
	"time"

	"sensorguard/internal/markov"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// TestStepZeroAllocWithHealthTracker extends the hot-path contract to the
// health feed: a detector with a HealthTracker attached must still step
// alloc-free once warm. The tracker is the one observer that is meant to be
// on for every deployment in a fleet, so it cannot be allowed to re-tax the
// path the bare-Step pin protects.
func TestStepZeroAllocWithHealthTracker(t *testing.T) {
	d := mustDetector(t)
	tracker := obs.NewHealthTracker()
	d.SetHealthTracker(tracker)
	points := keyStates()
	wins := make([]network.Window, 4)
	for i := range wins {
		wins[i] = uniformWindow(i, 10, points[i])
	}
	idx := 0
	step := func() {
		w := wins[idx%4]
		w.Index = idx
		if _, err := d.Step(w); err != nil {
			t.Fatal(err)
		}
		idx++
	}
	for i := 0; i < 128; i++ {
		step()
	}
	if got := testing.AllocsPerRun(500, step); got != 0 {
		t.Fatalf("steady-state Step with health tracker allocates %v times per window, want 0", got)
	}
	if snap := tracker.Snapshot(); snap.Windows != idx {
		t.Fatalf("tracker saw %d windows, detector stepped %d", snap.Windows, idx)
	}
}

// TestObserveHealthFeedsTracker checks the sample the step path folds into
// the tracker: quiet traffic yields zero alarm rates, a persistent outlier
// raises the raw rate, and window/track counters line up with what the
// detector reports.
func TestObserveHealthFeedsTracker(t *testing.T) {
	d := mustDetector(t)
	tracker := obs.NewHealthTracker()
	d.SetHealthTracker(tracker)
	points := keyStates()

	for i := 0; i < 60; i++ {
		if _, err := d.Step(uniformWindow(i, 10, points[i%4])); err != nil {
			t.Fatal(err)
		}
	}
	quiet := tracker.Snapshot()
	if quiet.Windows != 60 {
		t.Fatalf("windows = %d, want 60", quiet.Windows)
	}
	if quiet.RawAlarmRate != 0 || quiet.FilteredAlarmRate != 0 {
		t.Fatalf("alarm rates on quiet traffic: raw %v filtered %v",
			quiet.RawAlarmRate, quiet.FilteredAlarmRate)
	}

	// One sensor pinned far off every key state: raw alarms every window.
	outlier := make([]vecmat.Vector, 10)
	for i := 60; i < 120; i++ {
		for s := 0; s < 9; s++ {
			outlier[s] = points[i%4]
		}
		outlier[9] = vecmat.Vector{45, 20}
		if _, err := d.Step(window(i, outlier)); err != nil {
			t.Fatal(err)
		}
	}
	loud := tracker.Snapshot()
	if loud.Windows != 120 {
		t.Fatalf("windows = %d, want 120", loud.Windows)
	}
	if loud.RawAlarmRate <= quiet.RawAlarmRate {
		t.Fatalf("raw alarm rate did not rise with a persistent outlier: %v", loud.RawAlarmRate)
	}
	if loud.OpenTracks != d.Stats().OpenTracks {
		t.Fatalf("tracker open tracks %d != detector %d", loud.OpenTracks, d.Stats().OpenTracks)
	}
}

// TestDriftBaselineLifecycle pins the lazy baseline: absent before the first
// window, captured on demand afterwards, and the shift metrics read zero at
// capture time then move once the transition structure does.
func TestDriftBaselineLifecycle(t *testing.T) {
	d := mustDetector(t)
	if d.EnsureDriftBaseline() {
		t.Fatal("baseline armed before any window")
	}
	if drift := d.ModelDrift(); drift.BaselineWindow != 0 || drift.MCShift != 0 {
		t.Fatalf("drift reported without baseline: %+v", drift)
	}

	points := keyStates()
	for i := 0; i < 40; i++ {
		if _, err := d.Step(uniformWindow(i, 10, points[i%4])); err != nil {
			t.Fatal(err)
		}
	}
	if !d.EnsureDriftBaseline() {
		t.Fatal("baseline not captured after 40 windows")
	}
	at := d.ModelDrift()
	if at.BaselineWindow != 40 {
		t.Fatalf("baseline window = %d, want 40", at.BaselineWindow)
	}
	if at.MCShift != 0 || at.MOShift != 0 {
		t.Fatalf("shift nonzero immediately after capture: %+v", at)
	}
	// Re-arming is a no-op once captured.
	if !d.EnsureDriftBaseline() {
		t.Fatal("EnsureDriftBaseline lost the baseline")
	}

	// Change the visiting pattern: dwell on one state instead of cycling.
	// The M_C transition rows move, so the shift must become positive.
	for i := 40; i < 140; i++ {
		if _, err := d.Step(uniformWindow(i, 10, points[0])); err != nil {
			t.Fatal(err)
		}
	}
	after := d.ModelDrift()
	if after.BaselineWindow != 40 {
		t.Fatalf("baseline moved: %d", after.BaselineWindow)
	}
	if after.MCShift <= 0 {
		t.Fatalf("M_C shift = %v after dwell change, want > 0", after.MCShift)
	}
	if after.MCShift > 1 || after.MOShift > 1 {
		t.Fatalf("shift out of [0,1]: %+v", after)
	}

	// Explicit recapture resets the reference.
	d.CaptureDriftBaseline()
	re := d.ModelDrift()
	if re.BaselineWindow != 140 || re.MCShift != 0 {
		t.Fatalf("recapture did not reset reference: %+v", re)
	}
}

// TestChainShift exercises the row-distance metric directly: identical chains
// read 0, a redistributed row reads its half-L1 mass, and states that exist
// only on one side count as fully shifted rows.
func TestChainShift(t *testing.T) {
	mk := func(states ...int) *markov.Chain {
		c, err := markov.NewChain(0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range states {
			c.Observe(s)
		}
		return c
	}

	same := mk(1, 2, 1, 2, 1, 2, 1, 2)
	if got := chainShift(same, chainRows(same)); got != 0 {
		t.Fatalf("self-shift = %v, want 0", got)
	}

	// Baseline alternates 1↔2; the live chain always returns to 1. Both
	// from-rows move, so the mean shift is strictly positive and ≤ 1.
	base := chainRows(mk(1, 2, 1, 2, 1, 2, 1, 2))
	moved := mk(1, 1, 1, 2, 1, 1, 1, 1)
	got := chainShift(moved, base)
	if got <= 0 || got > 1 {
		t.Fatalf("shift = %v, want in (0,1]", got)
	}

	// A state present only in the live chain contributes a disjoint row.
	grown := mk(1, 2, 3, 1, 2, 3)
	if got := chainShift(grown, base); got <= 0 {
		t.Fatalf("shift with new state = %v, want > 0", got)
	}

	// Empty on both sides is defined as zero.
	empty, err := markov.NewChain(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if got := chainShift(empty, nil); got != 0 {
		t.Fatalf("empty shift = %v, want 0", got)
	}
}

// TestModelDriftOrthogonality checks the polled B^CO margin: a healthy
// detector trained on well-separated key states keeps its off-diagonal dot
// under the classifier threshold, i.e. a positive margin.
func TestModelDriftOrthogonality(t *testing.T) {
	d := mustDetector(t)
	points := keyStates()
	for i := 0; i < 200; i++ {
		if _, err := d.Step(uniformWindow(i, 10, points[i%4])); err != nil {
			t.Fatal(err)
		}
	}
	drift := d.ModelDrift()
	if drift.OrthoMaxDot < 0 {
		t.Fatalf("max off-diagonal dot negative: %v", drift.OrthoMaxDot)
	}
	th := DefaultConfig(keyStates()).Classify.NetRowOrtho.MaxOffDiag
	if want := th - drift.OrthoMaxDot; drift.OrthoMargin != want {
		t.Fatalf("margin %v, want threshold %v - dot %v = %v",
			drift.OrthoMargin, th, drift.OrthoMaxDot, want)
	}
	if drift.OrthoMargin <= 0 {
		t.Fatalf("healthy detector reads non-positive ortho margin: %+v", drift)
	}
}

// TestSharedRefreshDrift pins the poller entry point: inert without a
// tracker or before the first window, then publishes drift to the tracker.
func TestSharedRefreshDrift(t *testing.T) {
	d := mustDetector(t)
	s := NewShared(d)
	now := time.Unix(1700000000, 0)
	if _, ok := s.RefreshDrift(now); ok {
		t.Fatal("RefreshDrift published without a tracker")
	}

	tracker := obs.NewHealthTracker()
	d.SetHealthTracker(tracker)
	if _, ok := s.RefreshDrift(now); ok {
		t.Fatal("RefreshDrift published before any window")
	}

	points := keyStates()
	for i := 0; i < 30; i++ {
		if _, err := s.Step(uniformWindow(i, 10, points[i%4])); err != nil {
			t.Fatal(err)
		}
	}
	drift, ok := s.RefreshDrift(now)
	if !ok {
		t.Fatal("RefreshDrift inert on a live detector")
	}
	if drift.BaselineWindow != 30 {
		t.Fatalf("baseline window = %d, want 30", drift.BaselineWindow)
	}
	snap := tracker.Snapshot()
	if snap.Drift.BaselineWindow != 30 || !snap.DriftUpdatedAt.Equal(now) {
		t.Fatalf("tracker did not receive drift: %+v at %v", snap.Drift, snap.DriftUpdatedAt)
	}
}

// TestStepHealthOverhead pins the acceptance bound from the health tier:
// folding the sample into the tracker must cost < 5% of a steady-state Step.
// One warm detector steps thousands of short batches with the tracker
// detached (bare) and attached (tracked), interleaved and alternating which
// side goes first, and each side is scored by its fastest batch. Noise from
// a loaded machine (preemption, frequency shifts, a neighbour's cache
// traffic) only ever slows a batch down and comes in spells longer than a
// batch, so with short batches both sides reach the quiet floor and the
// minimum is the estimate it disturbs least. Stepping one detector keeps
// heap placement out of the comparison.
func TestStepHealthOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		t.Skip("race-detector instrumentation distorts the overhead ratio")
	}
	points := keyStates()
	wins := make([]network.Window, 4)
	for i := range wins {
		wins[i] = uniformWindow(i, 10, points[i])
	}
	d := mustDetector(t)
	tracker := obs.NewHealthTracker()
	d.SetHealthTracker(tracker)
	next := 0
	run := func(n int) time.Duration {
		start := time.Now()
		for i := 0; i < n; i++ {
			w := wins[next%4]
			w.Index = next
			next++
			if _, err := d.Step(w); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	run(256) // warm: states, chains and tracker past their first windows
	const batch = 100
	const trials = 3001
	bare := func() time.Duration {
		d.SetHealthTracker(nil)
		defer d.SetHealthTracker(tracker)
		return run(batch)
	}
	mb, mt := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < trials; i++ {
		if i%2 == 0 {
			mb = min(mb, bare())
			mt = min(mt, run(batch))
		} else {
			mt = min(mt, run(batch))
			mb = min(mb, bare())
		}
	}
	ratio := float64(mt) / float64(mb)
	t.Logf("steady-state Step: bare %v, with tracker %v (%.2f%% overhead)",
		mb/batch, mt/batch, (ratio-1)*100)
	if ratio > 1.05 {
		t.Fatalf("health tracker overhead %.2f%% exceeds 5%% budget (bare %v, tracked %v)",
			(ratio-1)*100, mb, mt)
	}
}

// TestModelDriftRepeatable: polls of an unchanged detector return the
// same M_C/M_O shifts bit for bit, since the shifts sum in ID order.
func TestModelDriftRepeatable(t *testing.T) {
	cfg, wins := gdiInput(t, 3, 1)
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, w := range wins {
		if _, err := d.Step(w); err != nil {
			t.Fatal(err)
		}
		if i == 12 {
			d.CaptureDriftBaseline()
		}
		first := d.ModelDrift()
		if first.MCShift > 0 || first.MOShift > 0 {
			moved++
		}
		for poll := 0; poll < 20; poll++ {
			again := d.ModelDrift()
			if math.Float64bits(again.MCShift) != math.Float64bits(first.MCShift) ||
				math.Float64bits(again.MOShift) != math.Float64bits(first.MOShift) {
				t.Fatalf("window %d poll %d: shifts %v/%v, first poll %v/%v",
					i, poll, again.MCShift, again.MOShift, first.MCShift, first.MOShift)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no window moved the chains off their baseline: the test compared zeros")
	}
}
