package core

import (
	"testing"
	"time"

	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// keyStates are the four GDI dwell states used to seed test detectors.
func keyStates() []vecmat.Vector {
	return []vecmat.Vector{{12, 94}, {17, 84}, {24, 70}, {31, 56}}
}

func mustDetector(t *testing.T) *Detector {
	t.Helper()
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatalf("NewDetector: %v", err)
	}
	return d
}

// window builds a synthetic observation window: each entry of bySensor is
// one sensor's mean reading (sensor ID = slice index); nil entries are
// missing sensors.
func window(idx int, bySensor []vecmat.Vector) network.Window {
	w := network.Window{
		Index: idx,
		Start: time.Duration(idx) * time.Hour,
		End:   time.Duration(idx+1) * time.Hour,
	}
	for id, v := range bySensor {
		if v == nil {
			continue
		}
		w.Readings = append(w.Readings, sensor.Reading{
			Sensor: id,
			Time:   w.Start + time.Minute,
			Values: v.Clone(),
		})
	}
	return w
}

// uniformWindow puts every one of n sensors at the same point.
func uniformWindow(idx, n int, p vecmat.Vector) network.Window {
	bySensor := make([]vecmat.Vector, n)
	for i := range bySensor {
		bySensor[i] = p
	}
	return window(idx, bySensor)
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero dim", func(c *Config) { c.Dim = 0 }},
		{"no states", func(c *Config) { c.InitialStates = nil }},
		{"ragged state", func(c *Config) { c.InitialStates = []vecmat.Vector{{1}} }},
		{"zero window", func(c *Config) { c.Window = 0 }},
		{"bad alpha", func(c *Config) { c.Alpha = 1 }},
		{"bad beta", func(c *Config) { c.Beta = 0 }},
		{"bad gamma", func(c *Config) { c.Gamma = -1 }},
		{"bad filter", func(c *Config) { c.FilterK = 0 }},
		{"filter k>n", func(c *Config) { c.FilterK = 9; c.FilterN = 3 }},
		{"zero quorum", func(c *Config) { c.MinSensors = 0 }},
		{"merge>=spawn", func(c *Config) { c.MergeDistance = 20 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig(keyStates())
			tc.mutate(&cfg)
			if _, err := NewDetector(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestStepIdentifiesStates(t *testing.T) {
	d := mustDetector(t)
	res, err := d.Step(uniformWindow(0, 10, vecmat.Vector{12.2, 93.5}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped {
		t.Fatal("window skipped")
	}
	if res.Observable != 0 || res.Correct != 0 {
		t.Errorf("o=%d c=%d, want state 0 for a (12,94)-like window", res.Observable, res.Correct)
	}
	for _, s := range res.Sensors {
		if s.Raw || s.Filtered || s.TrackOpen {
			t.Errorf("sensor %d alarmed in an agreeing window: %+v", s.Sensor, s)
		}
		if s.Mapped != 0 {
			t.Errorf("sensor %d mapped to %d", s.Sensor, s.Mapped)
		}
	}
	if d.Steps() != 1 {
		t.Errorf("Steps = %d", d.Steps())
	}
}

func TestStepSkipsBelowQuorum(t *testing.T) {
	d := mustDetector(t)
	res, err := d.Step(window(0, []vecmat.Vector{{12, 94}, {12, 94}})) // 2 < MinSensors 3
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped {
		t.Error("under-quorum window not skipped")
	}
	if d.SkippedWindows() != 1 || d.Steps() != 0 {
		t.Errorf("skipped=%d steps=%d", d.SkippedWindows(), d.Steps())
	}
}

func TestStepRejectsWrongDimension(t *testing.T) {
	d := mustDetector(t)
	w := window(0, []vecmat.Vector{{1}, {1}, {1}})
	if _, err := d.Step(w); err == nil {
		t.Error("wrong-dimension readings accepted")
	}
}

func TestOutlierSensorRaisesAlarmAndTrack(t *testing.T) {
	d := mustDetector(t)
	// Sensor 9 stuck at (15,1) while others agree at (24,70): the raw
	// alarm fires immediately; the filtered alarm (4-of-6) after 4
	// windows; a track opens then.
	for i := 0; i < 8; i++ {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = vecmat.Vector{24, 70}
		}
		bySensor[9] = vecmat.Vector{15, 1}
		res, err := d.Step(window(i, bySensor))
		if err != nil {
			t.Fatal(err)
		}
		s9 := res.Sensors[len(res.Sensors)-1]
		if s9.Sensor != 9 {
			t.Fatalf("window %d: last outcome is sensor %d, want 9", i, s9.Sensor)
		}
		if !s9.Raw {
			t.Fatalf("window %d: no raw alarm for the outlier", i)
		}
		if i < 3 && s9.Filtered {
			t.Errorf("window %d: filtered alarm before k raw alarms", i)
		}
		if i >= 3 && !s9.Filtered {
			t.Errorf("window %d: filtered alarm missing", i)
		}
		if i >= 3 && !s9.TrackOpen {
			t.Errorf("window %d: track not open", i)
		}
	}
	if _, ok := d.ModelCE(9); !ok {
		t.Error("no M_CE estimator for the tracked sensor")
	}
	if got := d.TrackedSensors(); len(got) != 1 || got[0] != 9 {
		t.Errorf("TrackedSensors = %v", got)
	}
	// The stuck reading spawned its own model state; the M_CE emission
	// must concentrate there.
	snap, _ := d.ModelCE(9)
	if len(snap.SymbolIDs) == 0 {
		t.Fatal("M_CE has no symbols")
	}
	stats := d.AlarmStats()
	if stats.RawRate(9) < 0.99 {
		t.Errorf("outlier raw rate = %v, want ≈1", stats.RawRate(9))
	}
	if stats.RawRate(0) != 0 {
		t.Errorf("healthy raw rate = %v, want 0", stats.RawRate(0))
	}
}

func TestTrackClosesWhenSensorRecovers(t *testing.T) {
	d := mustDetector(t)
	step := func(i int, bad bool) {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 10; s++ {
			bySensor[s] = vecmat.Vector{24, 70}
		}
		if bad {
			bySensor[9] = vecmat.Vector{15, 1}
		}
		if _, err := d.Step(window(i, bySensor)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 6; i++ {
		step(i, true)
	}
	if _, open := d.Tracks().Active(9); !open {
		t.Fatal("track did not open")
	}
	// Recovery: after the filter window drains, the track closes.
	for i := 6; i < 14; i++ {
		step(i, false)
	}
	if _, open := d.Tracks().Active(9); open {
		t.Error("track did not close after recovery")
	}
	if len(d.Tracks().ClosedTracks()) != 1 {
		t.Errorf("closed tracks = %d, want 1", len(d.Tracks().ClosedTracks()))
	}
}

func TestModelCOLearnsEnvironmentCycle(t *testing.T) {
	d := mustDetector(t)
	// Cycle through the four states repeatedly, all sensors agreeing.
	points := keyStates()
	for i := 0; i < 160; i++ {
		if _, err := d.Step(uniformWindow(i, 10, points[i%4])); err != nil {
			t.Fatal(err)
		}
	}
	snap := d.ModelCO()
	if len(snap.HiddenIDs) < 4 {
		t.Fatalf("hidden states = %v", snap.HiddenIDs)
	}
	// Diagonal emission: every state observed as itself.
	for i, id := range snap.HiddenIDs[:4] {
		j, err := snap.SymbolIndex(id)
		if err != nil {
			t.Fatalf("state %d has no symbol: %v", id, err)
		}
		if got := snap.B.At(i, j); got < 0.9 {
			t.Errorf("B[%d][%d] = %v, want ≈1", i, j, got)
		}
	}
	// The Markov chain M_C must capture the 0→1→2→3→0 cycle.
	mc := d.CorrectChain()
	for s := 0; s < 4; s++ {
		next := (s + 1) % 4
		if p := mc.Prob(s, next); p < 0.9 {
			t.Errorf("M_C P(%d→%d) = %v, want ≈1", s, next, p)
		}
	}
	if d.mo.Steps() != 160 {
		t.Errorf("M_O steps = %d", d.mo.Steps())
	}
}

func TestReportRequiresSteps(t *testing.T) {
	d := mustDetector(t)
	if _, err := d.Report(); err == nil {
		t.Error("Report before any step accepted")
	}
}

func TestMajorityState(t *testing.T) {
	d := mustDetector(t)
	if got := d.majorityState([]int{1, 1, 2}); got != 1 {
		t.Errorf("majority = %d, want 1", got)
	}
	// Tie breaks to the smaller ID.
	if got := d.majorityState([]int{2, 2, 1, 1}); got != 1 {
		t.Errorf("tie majority = %d, want 1", got)
	}
}

func TestStateAttributesCopies(t *testing.T) {
	d := mustDetector(t)
	attrs := d.StateAttributes()
	attrs[0][0] = 999
	if d.StateAttributes()[0][0] == 999 {
		t.Error("StateAttributes leaked internal storage")
	}
}
