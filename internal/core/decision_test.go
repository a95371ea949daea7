package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

func TestDecisionRingEvictsOldest(t *testing.T) {
	r := NewDecisionRing(3)
	for i := 0; i < 5; i++ {
		r.Record(DecisionRecord{WindowStats: obs.WindowStats{Window: i}})
	}
	recs := r.Records()
	if len(recs) != 3 || r.Len() != 3 {
		t.Fatalf("retained %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Window != i+2 {
			t.Errorf("slot %d holds window %d, want %d", i, rec.Window, i+2)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
}

func TestDecisionLogWritesNDJSON(t *testing.T) {
	var buf bytes.Buffer
	l := NewDecisionLog(&buf)
	l.Record(DecisionRecord{Deployment: "gdi", WindowStats: obs.WindowStats{Window: 1}})
	l.Record(DecisionRecord{Deployment: "gdi", WindowStats: obs.WindowStats{Window: 2}})
	if err := l.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var rec DecisionRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("line %d not JSON: %v", i, err)
		}
		if rec.Window != i+1 || rec.Deployment != "gdi" {
			t.Errorf("line %d decoded to %+v", i, rec)
		}
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestDecisionLogStickyError checks a failed write is kept and every later
// record is dropped rather than retried.
func TestDecisionLogStickyError(t *testing.T) {
	l := NewDecisionLog(failWriter{})
	l.Record(DecisionRecord{})
	l.Record(DecisionRecord{})
	if l.Err() == nil {
		t.Error("write error not surfaced")
	}
}

// TestDecisionRecordJSONDerivedFields checks the encoding carries the fields
// derived from the per-sensor rows, and that they survive a decode.
func TestDecisionRecordJSONDerivedFields(t *testing.T) {
	rec := DecisionRecord{
		WindowStats: obs.WindowStats{Window: 4, Readings: 36, Reporting: 3, RawAlarms: 1},
		Sensors: []SensorDecision{
			{Sensor: 1, Nearest: 7},
			{Sensor: 2, Nearest: 3, RawAlarm: true, TrackOpen: true, TrackOpened: true},
			{Sensor: 5, Nearest: 7, TrackClosed: true},
		},
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Window       int           `json:"window"`
		Readings     int           `json:"readings"`
		Reporting    int           `json:"reporting"`
		Clusters     []ClusterSize `json:"clusters"`
		TracksOpened []int         `json:"tracks_opened"`
		TracksClosed []int         `json:"tracks_closed"`
		Sensors      []any         `json:"sensors"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	wantClusters := []ClusterSize{{State: 3, Size: 1}, {State: 7, Size: 2}}
	if doc.Window != 4 || doc.Readings != 36 || doc.Reporting != 3 || len(doc.Sensors) != 3 {
		t.Errorf("scalar keys decoded to %+v\n%s", doc, data)
	}
	if !slices.Equal(doc.Clusters, wantClusters) {
		t.Errorf("clusters = %v, want %v", doc.Clusters, wantClusters)
	}
	if !slices.Equal(doc.TracksOpened, []int{2}) || !slices.Equal(doc.TracksClosed, []int{5}) {
		t.Errorf("tracks opened %v closed %v, want [2] and [5]", doc.TracksOpened, doc.TracksClosed)
	}
	var back DecisionRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Clusters(), wantClusters) || !slices.Equal(back.TracksOpened(), []int{2}) {
		t.Errorf("decoded record derives clusters %v, opened %v", back.Clusters(), back.TracksOpened())
	}
}

// TestStepEmitsDecisionRecords drives an agreeing network plus one deviating
// sensor and checks the per-window record carries the full provenance: the
// Eq. (2)/(4) states with their attributes, per-sensor nearest states, the
// raw-vs-filtered alarm split, cluster sizes, and track symbols including ⊥.
func TestStepEmitsDecisionRecords(t *testing.T) {
	cfg := DefaultConfig(keyStates())
	ring := NewDecisionRing(64)
	cfg.Decisions = ring
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := 0
	for i := 0; i < 12; i++ {
		bySensor := make([]vecmat.Vector, 6)
		for s := 0; s < 5; s++ {
			bySensor[s] = keyStates()[2]
		}
		bySensor[5] = keyStates()[0] // persistent deviant: alarms, then a track
		if _, err := d.Step(window(i, bySensor)); err != nil {
			t.Fatal(err)
		}
		windows++
	}
	recs := ring.Records()
	if len(recs) != windows {
		t.Fatalf("got %d records for %d windows", len(recs), windows)
	}

	last := recs[len(recs)-1]
	if last.Window != windows-1 {
		t.Errorf("last record window %d, want %d", last.Window, windows-1)
	}
	if last.Observable != last.Correct {
		t.Errorf("agreeing majority split observable %d from correct %d", last.Observable, last.Correct)
	}
	if len(last.ObservableAttrs) == 0 || len(last.CorrectAttrs) == 0 {
		t.Error("state attributes missing from record")
	}
	if len(last.Sensors) != 6 {
		t.Fatalf("record has %d sensors, want 6", len(last.Sensors))
	}
	// Sensors ascend by ID; the deviant is sensor 5.
	total := 0
	for i, sd := range last.Sensors {
		if sd.Sensor != i {
			t.Errorf("sensor slot %d holds ID %d", i, sd.Sensor)
		}
	}
	for _, cs := range last.Clusters() {
		total += cs.Size
	}
	if total != 6 {
		t.Errorf("cluster sizes sum to %d, want 6", total)
	}
	deviant := last.Sensors[5]
	if !deviant.RawAlarm {
		t.Error("deviant sensor carries no raw alarm")
	}
	if deviant.Nearest == last.Correct {
		t.Error("deviant mapped onto the correct state")
	}
	if !deviant.TrackOpen || deviant.Symbol != strconv.Itoa(deviant.Nearest) {
		t.Errorf("deviant track %v symbol %q, want open with symbol %d",
			deviant.TrackOpen, deviant.Symbol, deviant.Nearest)
	}
	// Agreeing sensors with open tracks record the ⊥ symbol; ones without a
	// track record nothing.
	for _, sd := range last.Sensors[:5] {
		if sd.RawAlarm {
			t.Errorf("agreeing sensor %d alarmed", sd.Sensor)
		}
		if sd.Symbol != "" && sd.Symbol != "⊥" {
			t.Errorf("agreeing sensor %d symbol %q", sd.Sensor, sd.Symbol)
		}
	}
	if last.Evidence == nil {
		t.Fatal("record carries no structural evidence")
	}
	if last.Evidence.Verdict == "" {
		t.Error("evidence has no verdict")
	}

	// Raw vs filtered: the first deviating window alarms raw but the 4-of-6
	// filter has not tripped yet.
	first := recs[0]
	if first.RawAlarms != 1 || first.FilteredAlarms != 0 {
		t.Errorf("first window raw=%d filtered=%d, want 1 and 0", first.RawAlarms, first.FilteredAlarms)
	}
	if last.RawAlarms != 1 || last.FilteredAlarms != 1 {
		t.Errorf("last window raw=%d filtered=%d, want 1 and 1", last.RawAlarms, last.FilteredAlarms)
	}
}

func TestStepDecisionSkippedWindow(t *testing.T) {
	cfg := DefaultConfig(keyStates())
	ring := NewDecisionRing(4)
	cfg.Decisions = ring
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two sensors < MinSensors(3): the window is skipped but still recorded.
	if _, err := d.Step(uniformWindow(0, 2, keyStates()[0])); err != nil {
		t.Fatal(err)
	}
	recs := ring.Records()
	if len(recs) != 1 || !recs[0].Skipped {
		t.Fatalf("skipped window not recorded as skipped: %+v", recs)
	}
	if len(recs[0].Sensors) != 0 || recs[0].Evidence != nil {
		t.Error("skipped record carries pipeline fields")
	}
}

// TestStepDecisionCarriesTraceID checks the record links to the window's
// trace when one is sampled, and stays unlinked otherwise.
func TestStepDecisionCarriesTraceID(t *testing.T) {
	cfg := DefaultConfig(keyStates())
	ring := NewDecisionRing(4)
	cfg.Decisions = ring
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.SetTracer(obs.NewTracer(obs.TracerConfig{}))
	w := uniformWindow(0, 5, keyStates()[1])
	w.Trace = obs.NewRootContext()
	if _, err := d.Step(w); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Step(uniformWindow(1, 5, keyStates()[1])); err != nil {
		t.Fatal(err)
	}
	recs := ring.Records()
	if recs[0].TraceID != w.Trace.Trace.String() {
		t.Errorf("record trace %q, want %q", recs[0].TraceID, w.Trace.Trace.String())
	}
	if recs[1].TraceID != "" {
		t.Errorf("untraced window carries trace ID %q", recs[1].TraceID)
	}
}

// TestStepTracedEmitsStageSpans checks the detector's post-hoc span tree: a
// sampled window leaves one detector.step root whose five stage children
// tile its duration.
func TestStepTracedEmitsStageSpans(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerConfig{})
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	d.SetTracer(tracer)
	w := uniformWindow(0, 5, keyStates()[1])
	w.Trace = obs.NewRootContext()
	if _, err := d.Step(w); err != nil {
		t.Fatal(err)
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	byName := map[string]obs.SpanData{}
	for _, sp := range traces[0].Spans {
		byName[sp.Name] = sp
	}
	step, ok := byName["detector.step"]
	if !ok {
		t.Fatalf("no detector.step span in %v", names(traces[0].Spans))
	}
	if step.ParentID != w.Trace.Span.String() {
		t.Errorf("detector.step parent %q, want the window's context span %q", step.ParentID, w.Trace.Span.String())
	}
	var stagesNS int64
	for _, stage := range []string{"detector.derive", "detector.classify", "detector.map", "detector.alarm", "detector.hmm"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("stage span %s missing from %v", stage, names(traces[0].Spans))
		}
		if sp.ParentID != step.SpanID {
			t.Errorf("%s parent %q, want detector.step %q", stage, sp.ParentID, step.SpanID)
		}
		stagesNS += sp.DurationNS
	}
	if stagesNS != step.DurationNS {
		t.Errorf("stage durations sum to %dns, root spans %dns", stagesNS, step.DurationNS)
	}
}

func names(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}
