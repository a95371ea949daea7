package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/alarm"
	"sensorguard/internal/fault"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// snapshotTrace builds a windowed GDI trace with a stuck-at fault on sensor 6
// and an additive fault on sensor 3, so a mid-stream snapshot carries open
// tracks, per-sensor M_CE estimators, error profiles, filter evidence, and
// (late in the stream) quarantined sensors.
func snapshotTrace(t *testing.T, days int) []network.Window {
	t.Helper()
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = days
	drop, err := fault.NewIntermittent(0.7, 99)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := fault.NewPlan(
		fault.Schedule{
			Sensor:   6,
			Injector: fault.DecayToStuck{Floor: vecmat.Vector{15, 1}, TimeConstant: 12 * time.Hour},
			Start:    2 * 24 * time.Hour,
		},
		fault.Schedule{Sensor: 6, Injector: drop, Start: 2 * 24 * time.Hour},
		fault.Schedule{
			Sensor:   3,
			Injector: fault.Additive{Offsets: vecmat.Vector{9, 5}},
			Start:    24 * time.Hour,
		},
	)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := gdi.Generate(cfg, network.WithFaults(plan))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	windows, err := network.WindowAll(tr.Readings, DefaultConfig(nil).Window)
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	return windows
}

// stepAll drives every window through the detector, returning the per-window
// results.
func stepAll(t *testing.T, d *Detector, ws []network.Window) []StepResult {
	t.Helper()
	out := make([]StepResult, 0, len(ws))
	for _, w := range ws {
		res, err := d.Step(w)
		if err != nil {
			t.Fatalf("step %d: %v", w.Index, err)
		}
		out = append(out, res.Clone())
	}
	return out
}

// roundTrip snapshots d, pushes the snapshot through JSON (the on-disk
// representation), and restores a fresh detector from it.
func roundTrip(t *testing.T, d *Detector, cfg Config) *Detector {
	t.Helper()
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	cfg.InitialStates = nil // restored detectors must not need seeds
	restored, err := RestoreDetector(cfg, &decoded)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	return restored
}

func reportBytes(t *testing.T, d *Detector) []byte {
	t.Helper()
	rep, err := d.Report()
	if err != nil {
		t.Fatalf("report: %v", err)
	}
	raw, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatalf("marshal report: %v", err)
	}
	return raw
}

// TestSnapshotExactEquivalence is the tentpole guarantee: a detector restored
// from a JSON-round-tripped snapshot taken mid-stream produces byte-identical
// per-window results and a byte-identical final report on the remaining
// stream. The snapshot is taken twice (a third and two thirds in) so the
// restore-of-a-restore path is covered too.
func TestSnapshotExactEquivalence(t *testing.T) {
	windows := snapshotTrace(t, 12)
	cfg := DefaultConfig(keyStates())

	reference, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantSteps := stepAll(t, reference, windows)

	subject, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cutA, cutB := len(windows)/3, 2*len(windows)/3
	gotSteps := stepAll(t, subject, windows[:cutA])
	subject = roundTrip(t, subject, cfg)
	gotSteps = append(gotSteps, stepAll(t, subject, windows[cutA:cutB])...)
	subject = roundTrip(t, subject, cfg)
	gotSteps = append(gotSteps, stepAll(t, subject, windows[cutB:])...)

	if len(gotSteps) != len(wantSteps) {
		t.Fatalf("step count %d, want %d", len(gotSteps), len(wantSteps))
	}
	for i := range wantSteps {
		if !reflect.DeepEqual(gotSteps[i], wantSteps[i]) {
			t.Fatalf("window %d diverged after restore:\ngot  %+v\nwant %+v", i, gotSteps[i], wantSteps[i])
		}
	}

	want := reportBytes(t, reference)
	got := reportBytes(t, subject)
	if !bytes.Equal(got, want) {
		t.Fatalf("restored report differs from uninterrupted run:\ngot:\n%s\nwant:\n%s", got, want)
	}

	if !reflect.DeepEqual(subject.Stats(), reference.Stats()) {
		t.Errorf("stats diverged: got %+v want %+v", subject.Stats(), reference.Stats())
	}
	if !reflect.DeepEqual(subject.Quarantined(), reference.Quarantined()) {
		t.Errorf("quarantine diverged: got %v want %v", subject.Quarantined(), reference.Quarantined())
	}
}

// TestSnapshotRejectsSequentialFilters pins that only the k-of-n filter is
// checkpointed: the SPRT and CUSUM filters a FilterFactory installs are an
// offline ablation, and snapshotting or restoring a detector that runs one
// fails with a named error instead of dropping the filter's evidence.
func TestSnapshotRejectsSequentialFilters(t *testing.T) {
	factories := map[string]func() (alarm.Filter, error){
		"sprt":  func() (alarm.Filter, error) { return alarm.NewSPRTFilter(0.05, 0.5, 0.01, 0.01) },
		"cusum": func() (alarm.Filter, error) { return alarm.NewCUSUMFilter(0.05, 0.5, 4, 6) },
	}
	windows := snapshotTrace(t, 2)
	kofn, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, kofn, windows)
	snap, err := kofn.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for name, factory := range factories {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(keyStates())
			cfg.FilterFactory = factory
			d, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stepAll(t, d, windows)
			if _, err := d.Snapshot(); err == nil || !strings.Contains(err.Error(), "does not support state export") {
				t.Fatalf("Snapshot = %v, want the state-export error", err)
			}
			cfg.InitialStates = nil
			if _, err := RestoreDetector(cfg, snap); err == nil || !strings.Contains(err.Error(), "does not support state restore") {
				t.Fatalf("RestoreDetector = %v, want the state-restore error", err)
			}
		})
	}
}

// TestSnapshotMarshalDeterministic pins down that the same detector state
// always serialises to the same bytes (encoding/json sorts map keys), which
// the fleet's checkpoint dedup relies on.
func TestSnapshotMarshalDeterministic(t *testing.T) {
	windows := snapshotTrace(t, 6)
	cfg := DefaultConfig(keyStates())
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, d, windows)
	snapA, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	snapB, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rawA, err := json.Marshal(snapA)
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := json.Marshal(snapB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rawA, rawB) {
		t.Fatal("two snapshots of the same state serialise differently")
	}
}

// TestRestoreRejectsDamage feeds RestoreDetector systematically damaged
// snapshots; every one must fail cleanly (no panic, no partial detector).
func TestRestoreRejectsDamage(t *testing.T) {
	windows := snapshotTrace(t, 6)
	cfg := DefaultConfig(keyStates())
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, d, windows)
	good, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}

	damage := map[string]func(*Snapshot){
		"version":            func(s *Snapshot) { s.Version = 99 },
		"dim":                func(s *Snapshot) { s.Dim = 7 },
		"cluster-dup-id":     func(s *Snapshot) { s.Cluster.States[1].ID = s.Cluster.States[0].ID },
		"cluster-bad-dim":    func(s *Snapshot) { s.Cluster.States[0].Centroid = vecmat.Vector{1} },
		"cluster-next-id":    func(s *Snapshot) { s.Cluster.NextID = 0 },
		"mco-ragged-matrix":  func(s *Snapshot) { s.MCO.A[0] = s.MCO.A[0][:1] },
		"mco-missing-row":    func(s *Snapshot) { s.MCO.A = s.MCO.A[:1] },
		"mco-dup-hidden":     func(s *Snapshot) { s.MCO.HiddenIDs[1] = s.MCO.HiddenIDs[0] },
		"mco-unknown-prev":   func(s *Snapshot) { s.MCO.Prev = -99 },
		"mc-bad-shape":       func(s *Snapshot) { s.MC.P = s.MC.P[:1] },
		"filter-kind":        func(s *Snapshot) { s.Filter = json.RawMessage(`{"kind":"sprt"}`) },
		"filter-params":      func(s *Snapshot) { s.Filter = json.RawMessage(`{"kind":"k-of-n","k":1,"n":2}`) },
		"filter-garbage":     func(s *Snapshot) { s.Filter = json.RawMessage(`{`) },
		"stats-inconsistent": func(s *Snapshot) { s.AlarmStats.Sensors[0].Raw = s.AlarmStats.Sensors[0].Steps + 1 },
		"track-misaligned": func(s *Snapshot) {
			if len(s.Tracks.Active) > 0 {
				s.Tracks.Active[0].Hidden = s.Tracks.Active[0].Hidden[:0]
			} else {
				s.Tracks.Closed[0].Hidden = s.Tracks.Closed[0].Hidden[:0]
			}
		},
		"track-opened-count": func(s *Snapshot) { s.Tracks.Opened = -1 },
		"profile-bad-width": func(s *Snapshot) {
			for _, byHidden := range s.Profiles {
				for h, rs := range byHidden {
					byHidden[h] = rs[:1]
					return
				}
			}
		},
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			var snap Snapshot
			if err := json.Unmarshal(raw, &snap); err != nil {
				t.Fatal(err)
			}
			corrupt(&snap)
			restoreCfg := cfg
			restoreCfg.InitialStates = nil
			if _, err := RestoreDetector(restoreCfg, &snap); err == nil {
				t.Fatalf("damaged snapshot (%s) restored without error", name)
			}
		})
	}
}

// TestRestoreWithoutSeeds pins down that restore does not require
// InitialStates while NewDetector still does.
func TestRestoreWithoutSeeds(t *testing.T) {
	cfg := DefaultConfig(nil)
	if _, err := NewDetector(cfg); err == nil {
		t.Fatal("NewDetector accepted a config without initial states")
	}
	windows := snapshotTrace(t, 4)
	seeded := DefaultConfig(keyStates())
	d, err := NewDetector(seeded)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, d, windows)
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreDetector(cfg, snap); err != nil {
		t.Fatalf("restore without seeds: %v", err)
	}
}

// TestRestoreKeepsConfigHooks: a restored detector takes the decision sink
// and metrics registry from its configuration, as a new one does.
func TestRestoreKeepsConfigHooks(t *testing.T) {
	windows := snapshotTrace(t, 2)
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, d, windows[:24])
	snap, err := d.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(nil)
	ring := NewDecisionRing(64)
	cfg.Decisions = ring
	cfg.Metrics = obs.NewRegistry()
	restored, err := RestoreDetector(cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	stepAll(t, restored, windows[24:30])
	if got := len(ring.Records()); got != 6 {
		t.Errorf("restored detector recorded %d decisions over 6 windows, want 6", got)
	}
	if restored.inst == nil {
		t.Error("restored detector dropped the metrics registry")
	}
}
