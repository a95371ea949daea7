package core

import (
	"strings"
	"testing"

	"sensorguard/internal/classify"
	"sensorguard/internal/cluster"
	"sensorguard/internal/vecmat"
)

// TestMergePropagation drives two model states toward each other until the
// clusterer merges them and verifies every estimator (M_CO, M_CE, M_C, M_O,
// tracks, profiles) survives the replay consistently.
func TestMergePropagation(t *testing.T) {
	cfg := DefaultConfig([]vecmat.Vector{{0, 0}, {5, 0}})
	cfg.QuarantineAfter = 0 // keep the outlier contributing
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}

	merged := false
	for i := 0; i < 60 && !merged; i++ {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = vecmat.Vector{2.5, 0}
		}
		// Sensor 9 is a persistent outlier: it keeps a track (and an
		// M_CE estimator and profile) alive through the merge.
		bySensor[9] = vecmat.Vector{50, 50}
		res, err := d.Step(window(i, bySensor))
		if err != nil {
			t.Fatal(err)
		}
		for _, ev := range res.Events {
			if ev.Kind == cluster.EventMerge {
				merged = true
			}
		}
	}
	if !merged {
		t.Fatal("states never merged")
	}

	// All estimators must agree on the surviving alphabet and stay
	// stochastic.
	co := d.ModelCO()
	if !co.A.IsRowStochastic(1e-6, false) || !co.B.IsRowStochastic(1e-6, true) {
		t.Errorf("M_CO lost stochasticity after merge:\nA:\n%v\nB:\n%v", co.A, co.B)
	}
	attrs := d.StateAttributes()
	for _, id := range co.HiddenIDs {
		if _, ok := attrs[id]; !ok {
			t.Errorf("M_CO hidden state %d not in the state set %v", id, attrs)
		}
	}
	if ce, ok := d.ModelCE(9); ok {
		if !ce.B.IsRowStochastic(1e-6, true) {
			t.Errorf("M_CE lost stochasticity after merge:\n%v", ce.B)
		}
	} else {
		t.Error("outlier sensor lost its M_CE estimator")
	}
	for _, id := range d.CorrectChain().IDs() {
		if _, ok := attrs[id]; !ok {
			t.Errorf("M_C state %d not in the state set", id)
		}
	}
	// Profile hidden keys must reference surviving states only.
	for hidden := range d.ErrorProfile(9) {
		if _, ok := attrs[hidden]; !ok {
			t.Errorf("profile references merged-away state %d", hidden)
		}
	}
}

func TestReportStringAndOverall(t *testing.T) {
	d := mustDetector(t)
	for i := 0; i < 30; i++ {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = vecmat.Vector{24, 70}
		}
		bySensor[9] = vecmat.Vector{15, 1}
		if _, err := d.Step(window(i, bySensor)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := d.Report()
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "detected=true") || !strings.Contains(s, "sensor 9") {
		t.Errorf("report string incomplete: %s", s)
	}
	// A single constant outlier in a constant environment has only one
	// hidden state on its track: the per-sensor evidence is insufficient
	// for calibration/additive; Overall must still be an error or none,
	// never an attack.
	if rep.Overall().IsAttack() {
		t.Errorf("Overall = %v, want non-attack", rep.Overall())
	}
}

func TestOverallPrefersNetworkAttack(t *testing.T) {
	rep := Report{
		Network: classify.NetworkDiagnosis{Kind: classify.KindDynamicDeletion},
		Sensors: map[int]classify.SensorDiagnosis{
			1: {Kind: classify.KindStuckAt},
		},
	}
	if got := rep.Overall(); got != classify.KindDynamicDeletion {
		t.Errorf("Overall = %v, want the network attack", got)
	}
}

func TestOverallMajorityOfSensorKinds(t *testing.T) {
	rep := Report{
		Network: classify.NetworkDiagnosis{Kind: classify.KindNone},
		Sensors: map[int]classify.SensorDiagnosis{
			1: {Kind: classify.KindCalibration},
			2: {Kind: classify.KindCalibration},
			3: {Kind: classify.KindStuckAt},
		},
	}
	if got := rep.Overall(); got != classify.KindCalibration {
		t.Errorf("Overall = %v, want the majority sensor kind", got)
	}
	empty := Report{Network: classify.NetworkDiagnosis{Kind: classify.KindNone}}
	if got := empty.Overall(); got != classify.KindNone {
		t.Errorf("empty Overall = %v, want none", got)
	}
}
