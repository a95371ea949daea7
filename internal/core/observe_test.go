package core

import (
	"bytes"
	"strings"
	"testing"

	"sensorguard/internal/classify"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// hookScript is the window sequence the hook matrix drives: nine sensors
// cycling the key states plus sensor 9 stuck far off them for 48 windows,
// so raw and filtered alarms, a track, M_CE, and (after QuarantineAfter
// windows) quarantine all engage; then 12 agreeing windows close the track,
// and a final two-sensor window falls below quorum and is skipped.
func hookScript() []network.Window {
	points := keyStates()
	var wins []network.Window
	for i := 0; i < 48; i++ {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = points[i%4]
		}
		bySensor[9] = vecmat.Vector{45, 20}
		wins = append(wins, window(i, bySensor))
	}
	for i := 48; i < 60; i++ {
		wins = append(wins, uniformWindow(i, 10, points[i%4]))
	}
	return append(wins, uniformWindow(60, 2, points[0]))
}

// hooks is one row of the hook matrix: which of the detector's per-window
// consumers are attached.
type hooks struct {
	metrics, health, decisions bool
	tracer                     bool // attach a tracer
	sampled                    bool // stamp a sampled context on every window
}

// hooked is a detector with a hook set attached, plus handles on the hooks.
type hooked struct {
	d       *Detector
	reg     *obs.Registry
	health  *obs.HealthTracker
	tracer  *obs.Tracer
	ring    *DecisionRing
	sampled bool
}

func newHooked(t testing.TB, h hooks) *hooked {
	t.Helper()
	out := &hooked{sampled: h.sampled}
	cfg := DefaultConfig(keyStates())
	if h.metrics {
		out.reg = obs.NewRegistry()
		cfg.Metrics = out.reg
	}
	if h.decisions {
		out.ring = NewDecisionRing(256)
		cfg.Decisions = out.ring
	}
	d, err := NewDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.tracer {
		out.tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1, MaxTraces: 1024})
		d.SetTracer(out.tracer)
	}
	if h.health {
		out.health = obs.NewHealthTracker()
		d.SetHealthTracker(out.health)
	}
	out.d = d
	return out
}

func (h *hooked) step(t testing.TB, w network.Window) {
	if h.sampled {
		w.Trace = obs.NewRootContext()
	}
	if _, err := h.d.Step(w); err != nil {
		t.Fatal(err)
	}
}

func reportJSON(t *testing.T, d *Detector) []byte {
	t.Helper()
	rep, err := d.Report()
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.MarshalIndentJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// recordTotals sums what a run's per-window records report.
type recordTotals struct {
	processed, skipped, raw, filtered, readings, opened, closed int
	quarantined                                                 bool
}

func tally(recs []DecisionRecord) recordTotals {
	var tot recordTotals
	for _, rec := range recs {
		if rec.Skipped {
			tot.skipped++
			continue
		}
		tot.processed++
		tot.raw += rec.RawAlarms
		tot.filtered += rec.FilteredAlarms
		tot.readings += int(rec.Readings)
		tot.opened += len(rec.TracksOpened())
		tot.closed += len(rec.TracksClosed())
		tot.quarantined = tot.quarantined || len(rec.Quarantined) > 0
	}
	return tot
}

// decisionsRun drives the hook script under a decision ring alone; its
// records are the reference every other hook set is held to.
func decisionsRun(t *testing.T) (*hooked, []DecisionRecord) {
	t.Helper()
	ref := newHooked(t, hooks{decisions: true})
	script := hookScript()
	for _, w := range script {
		ref.step(t, w)
	}
	recs := ref.ring.Records()
	if len(recs) != len(script) {
		t.Fatalf("got %d records for %d windows", len(recs), len(script))
	}
	return ref, recs
}

// TestObserverEmitsOneEventPerWindow checks the per-window records of the
// hook script one by one and against the detector's own totals.
func TestObserverEmitsOneEventPerWindow(t *testing.T) {
	ref, recs := decisionsRun(t)
	for i, rec := range recs {
		if rec.Window != i {
			t.Errorf("record %d: window = %d", i, rec.Window)
		}
		if rec.ModelStates <= 0 {
			t.Errorf("record %d: model states = %d", i, rec.ModelStates)
		}
		if rec.Latency.TotalNS <= 0 {
			t.Errorf("record %d: total latency = %d", i, rec.Latency.TotalNS)
		}
		switch {
		case rec.Skipped && (rec.Reporting != 2 || len(rec.Sensors) != 0):
			t.Errorf("skipped record %d: reporting %d, %d sensor rows", i, rec.Reporting, len(rec.Sensors))
		case !rec.Skipped && (rec.Reporting != 10 || len(rec.Sensors) != 10):
			t.Errorf("record %d: reporting %d, %d sensor rows, want 10", i, rec.Reporting, len(rec.Sensors))
		}
	}
	tot := tally(recs)
	if tot.processed != len(recs)-1 || tot.skipped != 1 {
		t.Fatalf("records: %d processed, %d skipped; want %d and 1", tot.processed, tot.skipped, len(recs)-1)
	}
	st := ref.d.Stats()
	if tot.opened != st.TracksOpened || tot.closed != st.TracksClosed || tot.opened == 0 || tot.closed == 0 {
		t.Errorf("records open %d / close %d tracks, detector %d / %d (want both nonzero)",
			tot.opened, tot.closed, st.TracksOpened, st.TracksClosed)
	}
	if !tot.quarantined {
		t.Error("the stuck sensor was never quarantined")
	}
	steps, wantRaw, wantFiltered := ref.d.AlarmStats().Totals()
	if steps != tot.processed*10 {
		t.Errorf("alarm stats cover %d sensor-steps, want %d", steps, tot.processed*10)
	}
	if tot.raw != wantRaw || tot.filtered != wantFiltered {
		t.Errorf("records count %d/%d raw/filtered alarms, stats say %d/%d", tot.raw, tot.filtered, wantRaw, wantFiltered)
	}
}

// TestObserverMetricsMatchDetectorState holds a metrics-only detector's
// registry to the detector's own state, with no decision sink attached.
func TestObserverMetricsMatchDetectorState(t *testing.T) {
	const n = 48
	h := newHooked(t, hooks{metrics: true})
	for _, w := range hookScript()[:n] {
		h.step(t, w)
	}
	st := h.d.Stats()
	counter := func(name string) int { return int(h.reg.Counter(name, "").Value()) }
	gauge := func(name string) int { return int(h.reg.Gauge(name, "").Value()) }
	if got := counter("sensorguard_windows_total"); got != st.Steps || got != n {
		t.Errorf("windows_total = %d, Stats.Steps = %d, want %d", got, st.Steps, n)
	}
	if got := counter("sensorguard_tracks_opened_total"); got != st.TracksOpened {
		t.Errorf("tracks_opened_total = %d, Stats.TracksOpened = %d", got, st.TracksOpened)
	}
	_, raw, filtered := h.d.AlarmStats().Totals()
	if got := counter("sensorguard_alarms_raw_total"); got != raw {
		t.Errorf("alarms_raw_total = %d, stats raw = %d", got, raw)
	}
	if got := counter("sensorguard_alarms_filtered_total"); got != filtered {
		t.Errorf("alarms_filtered_total = %d, stats filtered = %d", got, filtered)
	}
	if got := gauge("sensorguard_open_tracks"); got != st.OpenTracks {
		t.Errorf("open_tracks = %d, Stats.OpenTracks = %d", got, st.OpenTracks)
	}
	if got := gauge("sensorguard_model_states"); got != st.ModelStates {
		t.Errorf("model_states = %d, Stats.ModelStates = %d", got, st.ModelStates)
	}
	for _, name := range []string{"step", "stage_derive", "stage_classify", "stage_map", "stage_alarm", "stage_hmm"} {
		name = "sensorguard_" + name + "_seconds"
		if got := h.reg.Histogram(name, "", nil).Count(); got != n {
			t.Errorf("%s count = %d, want %d", name, got, n)
		}
	}
}

// TestObserverSkippedWindow checks a below-quorum window is counted as
// skipped and still delivered as a record.
func TestObserverSkippedWindow(t *testing.T) {
	h := newHooked(t, hooks{metrics: true, decisions: true})
	res, err := h.d.Step(uniformWindow(0, 1, keyStates()[0])) // below MinSensors
	if err != nil {
		t.Fatal(err)
	}
	if !res.Skipped {
		t.Fatal("window not skipped")
	}
	if got := h.reg.Counter("sensorguard_windows_skipped_total", "").Value(); got != 1 {
		t.Errorf("windows_skipped_total = %d, want 1", got)
	}
	if got := h.reg.Counter("sensorguard_windows_total", "").Value(); got != 0 {
		t.Errorf("windows_total = %d, want 0", got)
	}
	recs := h.ring.Records()
	if len(recs) != 1 || !recs[0].Skipped || recs[0].Reporting != 1 {
		t.Fatalf("skipped window not recorded: %+v", recs)
	}
}

// TestStepHookMatrix drives one window sequence under every hook set and
// checks that no hook changes the detector's output, that every consumer
// agrees with the per-window records, and what each hook costs in
// steady-state allocations (maxAllocs < 0: not pinned).
func TestStepHookMatrix(t *testing.T) {
	script := hookScript()
	bare := newHooked(t, hooks{})
	for _, w := range script {
		bare.step(t, w)
	}
	want := reportJSON(t, bare.d)
	_, recs := decisionsRun(t)
	tot := tally(recs)

	for _, tc := range []struct {
		name      string
		hooks     hooks
		maxAllocs float64
	}{
		{"none", hooks{}, 0},
		{"metrics", hooks{metrics: true}, 0},
		{"health", hooks{health: true}, 0},
		{"idle tracer", hooks{tracer: true}, 0},
		{"sampled tracer", hooks{tracer: true, sampled: true}, -1},
		{"decisions", hooks{decisions: true}, 0},
		{"all", hooks{metrics: true, health: true, tracer: true, sampled: true, decisions: true}, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHooked(t, tc.hooks)
			for _, w := range script {
				h.step(t, w)
			}
			if got := reportJSON(t, h.d); !bytes.Equal(got, want) {
				t.Fatalf("report differs from the bare run:\n%s\nwant:\n%s", got, want)
			}
			if h.reg != nil {
				checkMetrics(t, h, tot)
			}
			if h.health != nil {
				snap := h.health.Snapshot()
				if snap.Windows != tot.processed || snap.SkippedWindows != tot.skipped {
					t.Errorf("health saw %d windows, %d skipped; want %d and %d",
						snap.Windows, snap.SkippedWindows, tot.processed, tot.skipped)
				}
				if snap.OpenTracks != h.d.Stats().OpenTracks {
					t.Errorf("health open tracks %d, detector %d", snap.OpenTracks, h.d.Stats().OpenTracks)
				}
			}
			if h.ring != nil && h.ring.Len() != len(recs) {
				t.Errorf("ring holds %d records, want %d", h.ring.Len(), len(recs))
			}
			if h.tracer != nil {
				checkSpans(t, h, len(script))
			}
			if tc.maxAllocs < 0 {
				return
			}
			// Steady state: prebuilt agreeing windows once scratch has
			// grown.
			wins := benchWindows(10)
			idx := len(script)
			next := func() {
				w := wins[idx%4]
				w.Index = idx
				h.step(t, w)
				idx++
			}
			for i := 0; i < 128; i++ {
				next()
			}
			if got := testing.AllocsPerRun(200, next); got > tc.maxAllocs {
				t.Errorf("steady-state Step allocates %v times per window, want <= %v", got, tc.maxAllocs)
			}
		})
	}
}

// checkMetrics holds the registry to the record totals and the detector's
// own state.
func checkMetrics(t *testing.T, h *hooked, tot recordTotals) {
	t.Helper()
	processed, skipped := tot.processed, tot.skipped
	st := h.d.Stats()
	counter := func(name string) int { return int(h.reg.Counter(name, "").Value()) }
	gauge := func(name string) int { return int(h.reg.Gauge(name, "").Value()) }
	for name, want := range map[string]int{
		"sensorguard_windows_total":         processed,
		"sensorguard_windows_skipped_total": skipped,
		"sensorguard_readings_total":        tot.readings,
		"sensorguard_alarms_raw_total":      tot.raw,
		"sensorguard_alarms_filtered_total": tot.filtered,
		"sensorguard_tracks_opened_total":   st.TracksOpened,
		"sensorguard_tracks_closed_total":   st.TracksClosed,
		"sensorguard_state_spawns_total":    st.StateSpawns,
		"sensorguard_state_merges_total":    st.StateMerges,
	} {
		if got := counter(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if st.Steps != processed {
		t.Errorf("Stats.Steps = %d, want %d", st.Steps, processed)
	}
	for name, want := range map[string]int{
		"sensorguard_open_tracks":         st.OpenTracks,
		"sensorguard_model_states":        st.ModelStates,
		"sensorguard_quarantined_sensors": st.QuarantinedSensors,
		"sensorguard_sensors_seen":        st.SensorsSeen,
	} {
		if got := gauge(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	windows := uint64(processed + skipped)
	for _, name := range []string{"step", "stage_derive", "stage_classify", "stage_map", "stage_alarm", "stage_hmm"} {
		name = "sensorguard_" + name + "_seconds"
		if got := h.reg.Histogram(name, "", nil).Count(); got != windows {
			t.Errorf("%s count = %d, want %d", name, got, windows)
		}
	}
}

// checkSpans checks the tracer saw one detector.step tree per sampled window
// and none otherwise.
func checkSpans(t *testing.T, h *hooked, windows int) {
	t.Helper()
	steps := 0
	for _, tr := range h.tracer.Traces() {
		for _, sp := range tr.Spans {
			if sp.Name == "detector.step" {
				steps++
			}
		}
	}
	want := 0
	if h.sampled {
		want = windows
	}
	if steps != want {
		t.Errorf("tracer holds %d detector.step spans, want %d", steps, want)
	}
}

// TestDetectorStats checks the cheap counter snapshot against the detector's
// own accessors after the hook script.
func TestDetectorStats(t *testing.T) {
	d := mustDetector(t)
	for _, w := range hookScript()[:48] {
		if _, err := d.Step(w); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Steps != d.Steps() || st.SkippedWindows != d.SkippedWindows() {
		t.Errorf("Stats windows %d/%d, accessors %d/%d",
			st.Steps, st.SkippedWindows, d.Steps(), d.SkippedWindows())
	}
	if st.TracksOpened != d.Tracks().Opened() {
		t.Errorf("Stats.TracksOpened = %d, manager %d", st.TracksOpened, d.Tracks().Opened())
	}
	if st.TracksOpened == 0 {
		t.Error("stuck sensor never opened a track")
	}
	if st.OpenTracks != len(d.Tracks().ActiveTracks()) {
		t.Errorf("Stats.OpenTracks = %d, manager %d", st.OpenTracks, len(d.Tracks().ActiveTracks()))
	}
	if st.QuarantinedSensors != len(d.Quarantined()) {
		t.Errorf("Stats.QuarantinedSensors = %d, Quarantined() has %d", st.QuarantinedSensors, len(d.Quarantined()))
	}
	if st.ModelStates != len(d.States()) {
		t.Errorf("Stats.ModelStates = %d, States() has %d", st.ModelStates, len(d.States()))
	}
	if st.SensorsSeen != 10 {
		t.Errorf("Stats.SensorsSeen = %d, want 10", st.SensorsSeen)
	}
}

func TestReportOverallTieBreakDeterministic(t *testing.T) {
	// Two error kinds with equal counts: the smaller Kind value must win,
	// regardless of map iteration order.
	rep := Report{
		Sensors: map[int]classify.SensorDiagnosis{
			1: {Sensor: 1, Kind: classify.KindAdditive},
			2: {Sensor: 2, Kind: classify.KindAdditive},
			3: {Sensor: 3, Kind: classify.KindStuckAt},
			4: {Sensor: 4, Kind: classify.KindStuckAt},
		},
	}
	for i := 0; i < 50; i++ {
		if got := rep.Overall(); got != classify.KindStuckAt {
			t.Fatalf("Overall() = %v on iteration %d, want stuck-at", got, i)
		}
	}
	// A strict majority still wins over a smaller-valued minority kind.
	rep.Sensors[5] = classify.SensorDiagnosis{Sensor: 5, Kind: classify.KindAdditive}
	for i := 0; i < 50; i++ {
		if got := rep.Overall(); got != classify.KindAdditive {
			t.Fatalf("Overall() = %v on iteration %d, want additive", got, i)
		}
	}
}

func TestReportString(t *testing.T) {
	rep := Report{
		Detected: true,
		Sensors: map[int]classify.SensorDiagnosis{
			6: {Sensor: 6, Kind: classify.KindStuckAt},
			2: {Sensor: 2, Kind: classify.KindCalibration},
		},
	}
	s := rep.String()
	if !strings.Contains(s, "detected=true") {
		t.Errorf("String() missing detected flag: %q", s)
	}
	// Sensors render in ascending ID order.
	if i2, i6 := strings.Index(s, "sensor 2: calibration"), strings.Index(s, "sensor 6: stuck-at"); i2 < 0 || i6 < 0 || i2 > i6 {
		t.Errorf("String() sensor lines wrong or unordered:\n%s", s)
	}
}
