package core

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/classify"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// cloneSink is the differential reference for the packed ring: it records
// every record into the ring and keeps its own Clone — the copy the
// DecisionSink contract tells a retaining sink to take.
type cloneSink struct {
	ring   *DecisionRing
	clones []DecisionRecord
}

func newCloneSink(capacity int) *cloneSink {
	return &cloneSink{ring: NewDecisionRing(capacity)}
}

func (s *cloneSink) Record(rec DecisionRecord) {
	s.ring.Record(rec)
	s.clones = append(s.clones, rec.Clone())
}

// check asserts the ring decodes to exactly the last clones, as values and
// as the JSON /debug/decisions serves.
func (s *cloneSink) check(t *testing.T, capacity int) {
	t.Helper()
	got := s.ring.Records()
	if want := min(len(s.clones), capacity); len(got) != want {
		t.Fatalf("ring holds %d records after %d, want %d", len(got), len(s.clones), want)
	}
	want := s.clones[len(s.clones)-len(got):]
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d of %d decodes to\n%#v\nwant\n%#v", i, len(got), got[i], want[i])
		}
	}
	gotJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("decoded records encode to\n%s\nwant\n%s", gotJSON, wantJSON)
	}
}

// stepScript drives the hook script through a detector recording into
// sink, with every third window traced, calling after (when non-nil) after
// each window.
func stepScript(tb testing.TB, sink DecisionSink, after func()) {
	tb.Helper()
	cfg := DefaultConfig(keyStates())
	cfg.Decisions = sink
	d, err := NewDetector(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for i, w := range hookScript() {
		if i%3 == 0 {
			w.Trace = obs.NewRootContext()
		}
		if _, err := d.Step(w); err != nil {
			tb.Fatal(err)
		}
		if after != nil {
			after()
		}
	}
}

// recordShapes tallies which record shapes a run produced, so a
// differential test can show it covered them.
type recordShapes struct {
	skipped, traced, quarantined, bottom, stateSymbol, rowViolations, colViolations, divergence bool
}

func shapesOf(recs []DecisionRecord) recordShapes {
	var sh recordShapes
	for _, rec := range recs {
		sh.skipped = sh.skipped || (rec.Skipped && rec.Evidence == nil)
		sh.traced = sh.traced || rec.TraceID != ""
		sh.quarantined = sh.quarantined || len(rec.Quarantined) > 0
		for _, s := range rec.Sensors {
			sh.bottom = sh.bottom || s.Symbol == "⊥"
			sh.stateSymbol = sh.stateSymbol || (s.Symbol != "" && s.Symbol != "⊥")
		}
		if ev := rec.Evidence; ev != nil {
			sh.rowViolations = sh.rowViolations || len(ev.RowViolations) > 0
			sh.colViolations = sh.colViolations || len(ev.ColViolations) > 0
			sh.divergence = sh.divergence || len(ev.Divergence) > 0
		}
	}
	return sh
}

// TestDecisionRingMatchesRecorded drives the detector with a clone sink
// and checks, after every window, that the packed ring decodes to exactly
// the records the detector lent it: with the ring wrapping (slots reused)
// and not, over skipped, traced, quarantined and ⊥-symbol windows.
func TestDecisionRingMatchesRecorded(t *testing.T) {
	for _, capacity := range []int{16, 256} {
		sink := newCloneSink(capacity)
		stepScript(t, sink, func() { sink.check(t, capacity) })
		want := recordShapes{true, true, true, true, true, true, true, true}
		if got := shapesOf(sink.clones); got != want {
			t.Errorf("capacity %d: script covered %+v, want %+v", capacity, got, want)
		}
	}
}

// TestDecisionRingMatchesRecordedAttack is the differential check on the
// §4.2 creation and deletion attacks, whose evidence carries non-empty
// row and column violations.
func TestDecisionRingMatchesRecordedAttack(t *testing.T) {
	adv, err := attack.NewAdversary([]int{0, 1, 2}, gdi.Ranges())
	if err != nil {
		t.Fatal(err)
	}
	gate, err := attack.PeriodicGate(24*time.Hour, 0, 3*time.Hour+30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var all []DecisionRecord
	for _, tc := range []struct {
		name string
		days int
		opt  network.Option
	}{
		{"creation", scenarioDays, network.WithAttack(&attack.Gated{
			Inner:  &attack.DynamicCreation{Adversary: adv, Target: vecmat.Vector{14, 66}, Start: 4 * 24 * time.Hour},
			Active: gate,
		})},
		{"deletion", scenarioDays + 7, network.WithAttack(&attack.DynamicDeletion{
			Adversary: adv, Target: vecmat.Vector{31, 56}, ReplaceWith: vecmat.Vector{24, 70},
			Radius: 6, Start: 3 * 24 * time.Hour,
		})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gcfg := gdi.DefaultGenerateConfig()
			gcfg.Days = tc.days
			tr, err := gdi.Generate(gcfg, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			const capacity = 64
			sink := newCloneSink(capacity)
			cfg := DefaultConfig(keyStates())
			cfg.Decisions = sink
			d, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wins, err := network.WindowAll(tr.Readings, cfg.Window)
			if err != nil {
				t.Fatal(err)
			}
			for i, w := range wins {
				if _, err := d.Step(w); err != nil {
					t.Fatal(err)
				}
				if i%16 == 0 || i == len(wins)-1 {
					sink.check(t, capacity)
				}
			}
			all = append(all, sink.clones...)
		})
	}
	if sh := shapesOf(all); !sh.rowViolations || !sh.colViolations {
		t.Errorf("attack runs covered %+v, want row and column violations", sh)
	}
}

// edgeRecords are hand-built records at the edges of the packed layout:
// nil against empty slices, every symbol form (⊥, state IDs past strconv's
// small-int cache, text that only looks numeric), extreme integers, and
// float bit patterns a lossy encoding would round.
func edgeRecords() []DecisionRecord {
	big := DecisionRecord{
		Deployment:      "edge",
		WindowStats:     obs.WindowStats{Window: 1 << 40, Observable: 101, Correct: 100, RawAlarms: 3, Readings: 7},
		TraceID:         "4bf92f3577b34da6a3ce929d0e0e4736",
		ObservableAttrs: vecmat.Vector{math.Copysign(0, -1), 5e-324, math.MaxFloat64},
		CorrectAttrs:    vecmat.Vector{-1.5, 0.1},
		Sensors: []SensorDecision{
			{Sensor: 0, Nearest: 100, RawAlarm: true, FilteredAlarm: true, TrackOpen: true, TrackOpened: true, Symbol: "100"},
			{Sensor: 1, Nearest: 7, TrackOpen: true, Symbol: "⊥"},
			{Sensor: 2, Nearest: -1, TrackClosed: true, Symbol: "-3"},
			{Sensor: math.MaxInt, Nearest: math.MinInt, Symbol: "007"},
			{Sensor: 4, Symbol: "+5"},
			{Sensor: 5, Symbol: "⊥⊥ text"},
			{Sensor: 6, Symbol: "9223372036854775807"},
			{Sensor: 7, Symbol: "99999999999999999999"},
		},
		Quarantined: []int{2, 9, 1000},
		Evidence: &DecisionEvidence{
			Verdict:       "mixed",
			Confidence:    0.75,
			RowViolations: []vecmat.OrthoViolation{{I: 1, J: 2, Dot: 0.5}, {I: 3, J: 3, Dot: -0.25}},
			ColViolations: []vecmat.OrthoViolation{{I: 100, J: 205, Dot: 1}},
			Associations:  []classify.Association{{Hidden: 1, Symbol: 102, Mass: 0.9}},
			ActiveHidden:  []int{1, 3, 1 << 33},
			Divergence: []AttributeDivergence{
				{Hidden: 1, Symbol: 102, Delta: vecmat.Vector{5, -12}, AllDisplaced: true},
				{Hidden: 3, Symbol: 3, Delta: vecmat.Vector{}},
				{Hidden: 4, Symbol: 4},
			},
		},
	}
	return []DecisionRecord{
		{},
		{WindowStats: obs.WindowStats{Window: 3, Skipped: true, Readings: 2, Reporting: 2}, TraceID: "t"},
		big,
		{Sensors: []SensorDecision{}, Quarantined: []int{}, ObservableAttrs: vecmat.Vector{}},
		{Sensors: []SensorDecision{{Sensor: 1}}, Evidence: &DecisionEvidence{}},
		{Evidence: &DecisionEvidence{
			Verdict:       "none",
			RowViolations: []vecmat.OrthoViolation{},
			ColViolations: []vecmat.OrthoViolation{},
			Associations:  []classify.Association{},
			ActiveHidden:  []int{},
			Divergence:    []AttributeDivergence{},
		}},
		big,
	}
}

// TestDecisionRingEdgeRecords round-trips the edge records through a ring
// small enough that each lands in a slot last used by a different shape.
func TestDecisionRingEdgeRecords(t *testing.T) {
	const capacity = 3
	sink := newCloneSink(capacity)
	for round := 0; round < 3; round++ {
		for _, rec := range edgeRecords() {
			sink.Record(rec)
			sink.check(t, capacity)
		}
	}
}

// FuzzDecisionRingRoundTrip decodes the input as a record's JSON, records
// it into a one-slot ring (fresh, then reusing a slot that held another
// record), and requires the ring to give back an identical record. Seeds
// are the edge records and a detector run's records.
func FuzzDecisionRingRoundTrip(f *testing.F) {
	seeds := edgeRecords()
	sink := newCloneSink(1)
	stepScript(f, sink, nil)
	for i := 0; i < len(sink.clones); i += 6 {
		seeds = append(seeds, sink.clones[i])
	}
	for _, rec := range seeds {
		data, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	filler := edgeRecords()[2]
	f.Fuzz(func(t *testing.T, data []byte) {
		var rec DecisionRecord
		if json.Unmarshal(data, &rec) != nil {
			return
		}
		ring := NewDecisionRing(1)
		for _, prev := range []*DecisionRecord{nil, &filler} {
			if prev != nil {
				ring.Record(*prev)
			}
			ring.Record(rec)
			got := ring.Records()
			if len(got) != 1 || !reflect.DeepEqual(got[0], rec) {
				t.Fatalf("ring returned %#v\nwant %#v", got, rec)
			}
		}
	})
}

// TestDecisionRingRecordZeroAllocWrapped pins the steady-state contract:
// once the ring has wrapped and every slot's buffer has held the largest
// record it will see, Record allocates nothing.
func TestDecisionRingRecordZeroAllocWrapped(t *testing.T) {
	src := newCloneSink(1)
	stepScript(t, src, nil)
	recs := src.clones
	// 16 slots against 61 records (coprime): a warm-up of 16 passes puts
	// every record in every slot.
	ring := NewDecisionRing(16)
	next := 0
	record := func() {
		ring.Record(recs[next%len(recs)])
		next++
	}
	for range 16 * len(recs) {
		record()
	}
	if got := testing.AllocsPerRun(500, record); got != 0 {
		t.Fatalf("wrapped DecisionRing.Record allocates %v times per call, want 0", got)
	}
}
