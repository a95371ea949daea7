package scenario

import (
	"bytes"
	"crypto/sha256"

	"testing"
	"time"

	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// minConfig is the cheapest valid config for a scenario: its MinDays.
func minConfig(s Scenario) Config {
	return Config{Scenario: s.Spec().Name, Days: s.Spec().MinDays}
}

func TestCorpusShape(t *testing.T) {
	scenarios := Corpus()
	if len(scenarios) < 8 {
		t.Fatalf("corpus holds %d scenarios, the issue commits to ≥8", len(scenarios))
	}
	var classes = map[Label]int{}
	for _, s := range scenarios {
		spec := s.Spec()
		if spec.Name == "" || spec.Summary == "" || spec.Expected == "" {
			t.Errorf("%q: incomplete spec %+v", spec.Name, spec)
		}
		if spec.MinDays < 3 || spec.DefaultDays < spec.MinDays {
			t.Errorf("%s: bad day bounds min=%d default=%d", spec.Name, spec.MinDays, spec.DefaultDays)
		}
		classes[spec.Class]++
	}
	if classes[LabelBenign] < 2 || classes[LabelError] < 2 || classes[LabelAttack] < 4 {
		t.Errorf("class mix benign=%d error=%d attack=%d, want ≥2/≥2/≥4",
			classes[LabelBenign], classes[LabelError], classes[LabelAttack])
	}
}

func TestCorpusBuildsAreLabeledAndDeterministic(t *testing.T) {
	for _, s := range Corpus() {
		s := s
		t.Run(s.Spec().Name, func(t *testing.T) {
			t.Parallel()
			run, err := s.Build(minConfig(s))
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Readings) == 0 {
				t.Fatal("no readings")
			}
			wantWindows := run.Spec.MinDays * 24
			if len(run.Truth) != wantWindows {
				t.Errorf("truth covers %d windows, want %d", len(run.Truth), wantWindows)
			}
			// Truth is contiguous from window 0 and its severity only climbs:
			// the corpus injections are cumulative.
			rank := 0
			for i, wt := range run.Truth {
				if wt.Window != i {
					t.Fatalf("truth[%d] labels window %d", i, wt.Window)
				}
				if r := labelRank(wt.Label); r < rank {
					t.Errorf("window %d: label %s downgrades severity", i, wt.Label)
				} else {
					rank = r
				}
			}
			if run.Spec.Class == LabelBenign {
				if on := run.OnsetWindow(); on != -1 {
					t.Errorf("benign scenario has onset window %d", on)
				}
			} else {
				if on := run.OnsetWindow(); on != 48 {
					t.Errorf("onset window %d, corpus convention is 48 (48h, 1h windows)", on)
				}
				if run.Truth[len(run.Truth)-1].Label != run.Spec.Class {
					t.Errorf("final truth %s, spec class %s",
						run.Truth[len(run.Truth)-1].Label, run.Spec.Class)
				}
			}
			// Ship order must be usable as arrival order: the shipping key
			// is embedded implicitly, so check event-time ordering among
			// fresh (non-duplicate) frames per sensor.
			if h1, h2 := buildHash(t, s), buildHash(t, s); h1 != h2 {
				t.Errorf("two builds of the same config differ: %x vs %x", h1, h2)
			}
		})
	}
}

func buildHash(t *testing.T, s Scenario) [32]byte {
	t.Helper()
	run, err := s.Build(minConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range run.Readings {
		line, err := ingest.EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

func TestReplayScenarioCarriesStaleDuplicates(t *testing.T) {
	s, ok := Lookup("attack-replay-stale")
	if !ok {
		t.Fatal("attack-replay-stale missing from corpus")
	}
	run, err := s.Build(minConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	// The re-posted wire segment means some sequence numbers appear twice,
	// the second time after higher seqs have already shipped — exactly what
	// the collector's dedup high-water mark drops.
	seen := make(map[uint64]bool)
	var dups, regressions int
	var high uint64
	for _, r := range run.Readings {
		if r.Seq == 0 {
			continue
		}
		if seen[r.Seq] {
			dups++
			if r.Seq < high {
				regressions++
			}
		}
		seen[r.Seq] = true
		if r.Seq > high {
			high = r.Seq
		}
	}
	if dups == 0 || regressions == 0 {
		t.Errorf("dups=%d regressions=%d, want both > 0 (stale-seq replay)", dups, regressions)
	}
}

func TestSpoofScenarioForgesUnsequencedPhantoms(t *testing.T) {
	s, ok := Lookup("attack-spoof-inject")
	if !ok {
		t.Fatal("attack-spoof-inject missing from corpus")
	}
	run, err := s.Build(minConfig(s))
	if err != nil {
		t.Fatal(err)
	}
	forged := 0
	for _, r := range run.Readings {
		if r.Sensor >= 100 {
			if r.Seq != 0 {
				t.Fatalf("forged frame from phantom %d carries producer seq %d", r.Sensor, r.Seq)
			}
			if r.Time < corpusOnset {
				t.Fatalf("phantom frame at %v, before onset", r.Time)
			}
			forged++
		}
	}
	if forged == 0 {
		t.Error("no phantom frames in the spoof campaign")
	}
}

func TestDecodeConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"defaults", `{"scenario":"benign-control"}`, true},
		{"explicit", `{"scenario":"error-stuck","seed":7,"days":5,"sensors":12}`, true},
		{"unknown scenario", `{"scenario":"no-such"}`, false},
		{"unknown field", `{"scenario":"benign-control","dayz":9}`, false},
		{"days below min", `{"scenario":"composite-drift-attack","days":4}`, false},
		{"days above cap", `{"scenario":"benign-control","days":90}`, false},
		{"too few sensors", `{"scenario":"benign-control","sensors":2}`, false},
		{"negative rate", `{"scenario":"benign-control","rate":-1}`, false},
		{"trailing garbage", `{"scenario":"benign-control"} {"x":1}`, false},
		{"not an object", `[1,2]`, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, sc, err := DecodeConfig([]byte(tc.body))
			if tc.ok && err != nil {
				t.Fatalf("rejected: %v", err)
			}
			if !tc.ok {
				if err == nil {
					t.Fatal("accepted")
				}
				return
			}
			if sc == nil || cfg.Seed == 0 || cfg.Days == 0 || cfg.Sensors == 0 || cfg.Deployment == "" {
				t.Errorf("defaults not applied: %+v", cfg)
			}
		})
	}
}

func TestTruthSidecarRoundTrip(t *testing.T) {
	s, _ := Lookup("error-stuck")
	run, err := s.Build(Config{Scenario: "error-stuck", Days: s.Spec().MinDays, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTruth(&buf, run); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTruth(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Spec.Name != run.Spec.Name || got.Config != run.Config || got.Window != run.Window {
		t.Errorf("header round-trip: got %+v %v, want %+v %v", got.Config, got.Window, run.Config, run.Window)
	}
	if len(got.Truth) != len(run.Truth) {
		t.Fatalf("%d truth rows, want %d", len(got.Truth), len(run.Truth))
	}
	for i := range got.Truth {
		if got.Truth[i] != run.Truth[i] {
			t.Fatalf("row %d: %+v != %+v", i, got.Truth[i], run.Truth[i])
		}
	}
	// Truncated sidecars must not pass for complete ones.
	var short bytes.Buffer
	if err := WriteTruth(&short, run); err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimSuffix(short.Bytes(), []byte("\n"))
	trimmed = trimmed[:bytes.LastIndexByte(trimmed, '\n')+1]
	if _, err := ReadTruth(bytes.NewReader(trimmed)); err == nil {
		t.Error("truncated sidecar accepted")
	}
}

func TestPredictLabel(t *testing.T) {
	attackRec := core.DecisionRecord{Evidence: &core.DecisionEvidence{Verdict: "dynamic-creation"}}
	if l, ok := PredictLabel(attackRec); !ok || l != LabelAttack {
		t.Errorf("attack verdict → %v/%v", l, ok)
	}
	errRec := core.DecisionRecord{WindowStats: obs.WindowStats{FilteredAlarms: 2}, Evidence: &core.DecisionEvidence{Verdict: "none"}}
	if l, ok := PredictLabel(errRec); !ok || l != LabelError {
		t.Errorf("filtered alarms → %v/%v", l, ok)
	}
	trackRec := core.DecisionRecord{
		Sensors:  []core.SensorDecision{{Sensor: 1}, {Sensor: 2, TrackOpen: true}},
		Evidence: &core.DecisionEvidence{Verdict: "none"},
	}
	if l, ok := PredictLabel(trackRec); !ok || l != LabelError {
		t.Errorf("open track → %v/%v", l, ok)
	}
	if l, ok := PredictLabel(core.DecisionRecord{Evidence: &core.DecisionEvidence{Verdict: "none"}}); !ok || l != LabelBenign {
		t.Errorf("quiet record → %v/%v", l, ok)
	}
	if _, ok := PredictLabel(core.DecisionRecord{WindowStats: obs.WindowStats{Skipped: true}}); ok {
		t.Error("skipped window scored")
	}
	// The structural verdict outranks residual alarms when the evidence
	// spans several sensors: an attack diagnosis with coordinated alarms
	// still reads as attack.
	both := core.DecisionRecord{WindowStats: obs.WindowStats{FilteredAlarms: 3}, Evidence: &core.DecisionEvidence{Verdict: "dynamic-change"}}
	if l, _ := PredictLabel(both); l != LabelAttack {
		t.Errorf("attack verdict + coordinated alarms → %v, want attack", l)
	}
	// Exactly one implicated sensor is a fault's signature, not an
	// attack's — the structural verdict is demoted to error.
	lone := core.DecisionRecord{
		WindowStats: obs.WindowStats{FilteredAlarms: 1},
		Sensors:     []core.SensorDecision{{Sensor: 6, TrackOpen: true}},
		Evidence:    &core.DecisionEvidence{Verdict: "mixed", RowViolations: []vecmat.OrthoViolation{{I: 6, J: 6}}, ColViolations: []vecmat.OrthoViolation{{I: 0, J: 1}}},
	}
	if l, _ := PredictLabel(lone); l != LabelError {
		t.Errorf("lone-sensor mixed verdict → %v, want error", l)
	}
	// Two implicated sensors keep the attack verdict.
	pair := lone
	pair.FilteredAlarms = 2
	if l, _ := PredictLabel(pair); l != LabelAttack {
		t.Errorf("two-sensor mixed verdict → %v, want attack", l)
	}
	// A structural verdict with nobody implicated stays an attack — phantom
	// injections (forged traffic from outside the sensor set) look exactly
	// like this, and a genuine fault would implicate its own sensor.
	phantom := core.DecisionRecord{Evidence: &core.DecisionEvidence{Verdict: "dynamic-creation", ColViolations: []vecmat.OrthoViolation{{I: 1, J: 2}}}}
	if l, _ := PredictLabel(phantom); l != LabelAttack {
		t.Errorf("phantom creation verdict → %v, want attack", l)
	}
}

func TestScoreRunJoinsTruthAgainstRecords(t *testing.T) {
	run := &Run{
		Spec:   Spec{Name: "synthetic", Class: LabelAttack},
		Config: Config{Deployment: "dep", Seed: 1, Days: 1},
		Window: time.Hour,
		Truth: []WindowTruth{
			{Window: 0, Label: LabelBenign},
			{Window: 1, Label: LabelBenign},
			{Window: 2, Label: LabelAttack},
			{Window: 3, Label: LabelAttack},
			{Window: 4, Label: LabelAttack},
		},
	}
	recs := []core.DecisionRecord{
		{WindowStats: obs.WindowStats{Window: 0}, Evidence: &core.DecisionEvidence{Verdict: "none"}},
		{WindowStats: obs.WindowStats{Window: 1, FilteredAlarms: 1}, Evidence: &core.DecisionEvidence{Verdict: "none"}}, // false alarm
		{WindowStats: obs.WindowStats{Window: 2}, Evidence: &core.DecisionEvidence{Verdict: "none"}},                    // missed
		{WindowStats: obs.WindowStats{Window: 3}, Evidence: &core.DecisionEvidence{Verdict: "dynamic-creation"}},        // caught, latency 1
		// window 4 never emitted (held by the watermark) — unscored
	}
	s := ScoreRun(run, recs)
	if s.Windows != 5 || s.Scored != 4 {
		t.Errorf("windows=%d scored=%d, want 5/4", s.Windows, s.Scored)
	}
	if s.Correct != 2 || s.Accuracy != 0.5 {
		t.Errorf("correct=%d accuracy=%v, want 2/0.5", s.Correct, s.Accuracy)
	}
	if s.BenignWindows != 2 || s.FalseAlarms != 1 || s.FalseAlarmRate != 0.5 {
		t.Errorf("benign=%d fa=%d far=%v, want 2/1/0.5", s.BenignWindows, s.FalseAlarms, s.FalseAlarmRate)
	}
	if !s.Detected || s.DetectionLatencyWindows != 1 || s.DetectionLatencySec != 3600 {
		t.Errorf("detected=%v latency=%d/%vs, want true/1/3600", s.Detected, s.DetectionLatencyWindows, s.DetectionLatencySec)
	}
	if s.FinalVerdict != "dynamic-creation" {
		t.Errorf("final verdict %q", s.FinalVerdict)
	}
	if s.Confusion[LabelAttack][LabelBenign] != 1 || s.Confusion[LabelAttack][LabelAttack] != 1 {
		t.Errorf("confusion %+v", s.Confusion)
	}

	sum := Summarize([]Score{s, {Accuracy: 1, OnsetWindow: -1}})
	if sum.Scenarios != 2 || sum.Anomalous != 1 || sum.Detected != 1 {
		t.Errorf("summary %+v", sum)
	}
	if sum.MeanAccuracy != 0.75 || sum.MeanDetectionLatencySec != 3600 {
		t.Errorf("summary means %+v", sum)
	}
}

func FuzzDecodeConfig(f *testing.F) {
	f.Add(`{"scenario":"benign-control"}`)
	f.Add(`{"scenario":"error-stuck","seed":7,"days":5,"sensors":12,"deployment":"d","rate":2.5}`)
	f.Add(`{"scenario":"attack-flood-burst","days":62}`)
	f.Add(`{"scenario":"x","days":-1}`)
	f.Add(`{"scenario":"benign-control","extra":true}`)
	f.Add(`[{"scenario":"benign-control"}]`)
	f.Add(`{"scenario":1e309}`)
	f.Fuzz(func(t *testing.T, body string) {
		cfg, sc, err := DecodeConfig([]byte(body))
		if err != nil {
			return
		}
		// Whatever decodes must be a fully-validated, buildable config:
		// the invariants sgsim relies on without re-checking.
		if sc == nil {
			t.Fatal("nil scenario with nil error")
		}
		spec := sc.Spec()
		if cfg.Scenario != spec.Name {
			t.Fatalf("config names %q, resolved %q", cfg.Scenario, spec.Name)
		}
		if cfg.Days < spec.MinDays || cfg.Days > maxDays {
			t.Fatalf("days %d outside [%d,%d]", cfg.Days, spec.MinDays, maxDays)
		}
		if cfg.Sensors < 4 || cfg.Sensors > 100 {
			t.Fatalf("sensors %d escaped validation", cfg.Sensors)
		}
		if cfg.Seed == 0 || cfg.Deployment == "" || cfg.Rate < 0 {
			t.Fatalf("defaults missing: %+v", cfg)
		}
		if !safeDeployment(cfg.Deployment) || len(cfg.Deployment) > 128 {
			t.Fatalf("deployment %q escaped the charset validation", cfg.Deployment)
		}
	})
}
