package core

import (
	"math"
	"testing"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// referenceModelDrift is ModelDrift as it was when it read a full
// hmm.Snapshot of M_CO and filtered the active rows itself. It is the
// specification TestModelDriftMatchesSnapshotReference holds ModelDrift to.
func referenceModelDrift(d *Detector) obs.ModelDrift {
	th := d.cfg.Classify.NetRowOrtho.MaxOffDiag
	out := obs.ModelDrift{}
	co := d.mco.Snapshot()
	if co.B != nil {
		var totalVisits float64
		for _, v := range co.Visits {
			totalVisits += v
		}
		var rows []int
		for i, id := range co.HiddenIDs {
			if totalVisits > 0 && co.Visits[id]/totalVisits >= d.cfg.Classify.MinStateShare {
				rows = append(rows, i)
			}
		}
		for a := 0; a < len(rows); a++ {
			for b := a + 1; b < len(rows); b++ {
				var dot float64
				for k := 0; k < co.B.Cols(); k++ {
					dot += co.B.At(rows[a], k) * co.B.At(rows[b], k)
				}
				if dot > out.OrthoMaxDot {
					out.OrthoMaxDot = dot
				}
			}
		}
	}
	out.OrthoMargin = th - out.OrthoMaxDot
	if d.driftBase != nil {
		out.BaselineWindow = d.driftBase.window
		out.MCShift = chainShift(d.mc, d.driftBase.mc)
		out.MOShift = chainShift(d.mo, d.driftBase.mo)
	}
	return out
}

// TestModelDriftMatchesSnapshotReference compares ModelDrift with
// referenceModelDrift after every window of GDI detectors: trained on clean
// traces of two seeds, whose B^CO stays diagonal, and under the three
// dynamic attacks, whose merged, split or displaced rows give non-zero
// off-diagonal products.
func TestModelDriftMatchesSnapshotReference(t *testing.T) {
	type run struct {
		name   string
		cfg    Config
		wins   []network.Window
		attack bool
	}
	var runs []run
	for _, seed := range []int64{1, 2} {
		cfg, wins := gdiInput(t, 3, seed)
		runs = append(runs, run{name: "clean", cfg: cfg, wins: wins})
	}
	adv, err := attack.NewAdversary([]int{0, 1, 2}, gdi.Ranges())
	if err != nil {
		t.Fatal(err)
	}
	gate, err := attack.PeriodicGate(24*time.Hour, 0, 3*time.Hour+30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		name  string
		days  int
		strat attack.Strategy
	}{
		{"deletion", 8, &attack.DynamicDeletion{Adversary: adv, Target: vecmat.Vector{31, 56},
			ReplaceWith: vecmat.Vector{24, 70}, Radius: 6, Start: 3 * 24 * time.Hour}},
		{"creation", 8, &attack.Gated{Inner: &attack.DynamicCreation{Adversary: adv,
			Target: vecmat.Vector{14, 66}, Start: 4 * 24 * time.Hour}, Active: gate}},
		{"change", 6, &attack.DynamicChange{Adversary: adv, Offset: vecmat.Vector{5, -12},
			Start: 2 * 24 * time.Hour}},
	} {
		gcfg := gdi.DefaultGenerateConfig()
		gcfg.Days = a.days
		tr, err := gdi.Generate(gcfg, network.WithAttack(a.strat))
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(keyStates())
		wins, err := network.WindowAll(tr.Readings, cfg.Window)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{name: a.name, cfg: cfg, wins: wins, attack: true})
	}

	for _, r := range runs {
		d, err := NewDetector(r.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var positive int
		for i, w := range r.wins {
			if _, err := d.Step(w); err != nil {
				t.Fatal(err)
			}
			if i == len(r.wins)/3 {
				d.CaptureDriftBaseline()
			}
			got, want := d.ModelDrift(), referenceModelDrift(d)
			if math.Float64bits(got.OrthoMaxDot) != math.Float64bits(want.OrthoMaxDot) ||
				math.Float64bits(got.OrthoMargin) != math.Float64bits(want.OrthoMargin) ||
				got.BaselineWindow != want.BaselineWindow ||
				math.Float64bits(got.MCShift) != math.Float64bits(want.MCShift) ||
				math.Float64bits(got.MOShift) != math.Float64bits(want.MOShift) {
				t.Fatalf("%s window %d: ModelDrift %+v, snapshot reference %+v", r.name, i, got, want)
			}
			if got.OrthoMaxDot > 0 {
				positive++
			}
		}
		if r.attack && positive == 0 {
			t.Fatalf("%s: every off-diagonal product was 0; the comparison tested nothing", r.name)
		}
		t.Logf("%s: %d windows, %d with a non-zero product", r.name, len(r.wins), positive)
	}
}
