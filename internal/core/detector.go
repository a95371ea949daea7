package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"sensorguard/internal/alarm"
	"sensorguard/internal/classify"
	"sensorguard/internal/cluster"
	"sensorguard/internal/hmm"
	"sensorguard/internal/markov"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	runstats "sensorguard/internal/stats"
	"sensorguard/internal/track"
	"sensorguard/internal/vecmat"
)

// Detector is the collector-side analysis procedure of Fig. 1. It is not
// safe for concurrent use: a deployment has a single collector driving it.
type Detector struct {
	cfg Config

	states *cluster.Set
	mco    *hmm.Online
	mce    map[int]*hmm.Online
	mc     *markov.Chain
	mo     *markov.Chain

	filter alarm.Filter
	stats  *alarm.Stats
	tracks *track.Manager

	quarantined map[int]bool
	seen        map[int]bool

	inst *instruments
	// tracer and decisions are the provenance hooks: tracer records stage
	// spans for windows carrying a sampled trace context, decisions
	// receives one DecisionRecord per window. Both nil in the bare hot
	// path.
	tracer    *obs.Tracer
	decisions DecisionSink
	// health folds each window's stats (see health.go); nil when drift
	// telemetry is off. driftBase is the post-bootstrap M_C/M_O reference
	// the polled shift metrics compare against.
	health    *obs.HealthTracker
	driftBase *driftBaseline
	// clock is the serving layer's detector-step stage clock, fed one unit
	// per window from the same marks as the stage latencies; nil when off.
	clock *obs.StageClock

	// win is the current window's stats, filled in place by step: the one
	// per-window record every hook reads (decision records embed a copy).
	win obs.WindowStats
	// Stage timing takes cumulative monotonic marks via time.Since(epoch),
	// which skips the wall-clock read of time.Now and roughly halves the
	// per-mark cost. timed is set per window when any hook reads time;
	// start and last are the window's first and most recent marks.
	epoch       time.Time
	timed       bool
	start, last int64

	// profiles accumulate, per tracked sensor and hidden state, the
	// per-attribute statistics of the sensor's own readings while it was
	// alarming — the empirical error-state attributes the classifier's
	// ratio/difference test runs on.
	profiles map[int]map[int][]runstats.Running

	// scratch holds the per-window working set, reused across Steps so the
	// bare (uninstrumented) hot path allocates nothing in steady state.
	scratch stepScratch

	steps   int
	skipped int
}

// stepScratch is the detector's reusable per-window working set. Every slice
// and map here is cleared (not reallocated) at the start of each step; the
// returned StepResult borrows the sensors map, which is why Step's result is
// only valid until the next call (see StepResult).
type stepScratch struct {
	slot    map[int]int        // sensor ID → accumulation slot
	ids     []int              // sensor IDs, sorted ascending after grouping
	sums    []vecmat.Vector    // per-slot sum, then mean, of the window's readings
	counts  []int              // per-slot reading count
	points  []vecmat.Vector    // per-sensor means in ids order (aliases sums rows)
	values  []vecmat.Vector    // non-quarantined raw readings for Eq. (2)
	mapped  []int              // Eq. (3) assignment output
	overall vecmat.Vector      // Eq. (2) network mean
	states  map[int]int        // majority vote tally
	sensors map[int]SensorStep // StepResult.Sensors backing store
	opened  []int              // sensors whose track opened this window, ascending
	closed  []int              // sensors whose track closed this window, ascending

	// attrs is the state-attribute map stateAttrs refills; the rest is the
	// decision record's backing store (see decide), lent to the sink.
	attrs               map[int]vecmat.Vector
	obsAttrs, corrAttrs vecmat.Vector
	rows                []SensorDecision
	quarantined         []int
	evidence            DecisionEvidence
	divergence          []AttributeDivergence
}

// SensorStep is the per-sensor outcome of one window.
type SensorStep struct {
	// Mapped is the model state the sensor's observation mapped to (l_j).
	Mapped int
	// Raw and Filtered are the alarm levels this window.
	Raw, Filtered bool
	// TrackOpen reports whether an error/attack track is open after this
	// window.
	TrackOpen bool
	// Symbol is the error/attack symbol recorded on the sensor's track
	// (track.Bottom when agreeing); meaningful only when Recorded.
	Symbol   int
	Recorded bool
}

// StepResult is the outcome of one observation window.
//
// The Sensors map is borrowed from the detector's reusable scratch space: it
// is valid until the next call to Step on the same detector, which clears and
// refills it in place. Callers that retain results across windows (slices of
// step outcomes, test fixtures) must take a Clone first; callers that consume
// the result before stepping again (the streaming fleet, metric sinks) read
// it for free.
type StepResult struct {
	// Index is the window ordinal.
	Index int
	// Skipped reports that the window had too few sensors and was
	// ignored.
	Skipped bool
	// Observable and Correct are o_i and c_i (model-state IDs).
	Observable, Correct int
	// Sensors holds the per-sensor outcomes, keyed by sensor ID. Borrowed:
	// valid until the next Step.
	Sensors map[int]SensorStep
	// Events are the structural model-state changes after this window.
	Events []cluster.Event
}

// Clone returns an independent deep copy of the result, safe to retain after
// the next Step.
func (r StepResult) Clone() StepResult {
	out := r
	if r.Sensors != nil {
		out.Sensors = make(map[int]SensorStep, len(r.Sensors))
		for id, s := range r.Sensors {
			out.Sensors[id] = s
		}
	}
	if r.Events != nil {
		out.Events = append([]cluster.Event(nil), r.Events...)
	}
	return out
}

// NewDetector builds a detector from the configuration.
func NewDetector(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	set, err := cluster.New(cluster.Config{
		Alpha:           cfg.Alpha,
		MergeDistance:   cfg.MergeDistance,
		SpawnDistance:   cfg.SpawnDistance,
		CaptureDistance: cfg.CaptureDistance,
		MaxStates:       cfg.MaxStates,
	}, cfg.Dim, cfg.InitialStates)
	if err != nil {
		return nil, err
	}
	mco, err := hmm.NewOnline(cfg.Beta, cfg.Gamma)
	if err != nil {
		return nil, err
	}
	mc, err := markov.NewChain(cfg.Beta)
	if err != nil {
		return nil, err
	}
	mo, err := markov.NewChain(cfg.Beta)
	if err != nil {
		return nil, err
	}
	var filter alarm.Filter
	if cfg.FilterFactory != nil {
		filter, err = cfg.FilterFactory()
	} else {
		filter, err = alarm.NewKOfN(cfg.FilterK, cfg.FilterN)
	}
	if err != nil {
		return nil, err
	}
	return &Detector{
		cfg:         cfg,
		states:      set,
		mco:         mco,
		mce:         make(map[int]*hmm.Online),
		mc:          mc,
		mo:          mo,
		filter:      filter,
		stats:       alarm.NewStats(),
		tracks:      track.NewManager(),
		quarantined: make(map[int]bool),
		seen:        make(map[int]bool),
		profiles:    make(map[int]map[int][]runstats.Running),
		inst:        newInstruments(cfg.Metrics),
		tracer:      cfg.Tracer,
		decisions:   cfg.Decisions,
		epoch:       time.Now(),
	}, nil
}

// SetTracer installs (or removes) the span tracer. The serving layer wires
// it after construction because detectors are built behind factory hooks
// (fleet bootstrap, checkpoint restore) that predate the pool's tracer.
func (d *Detector) SetTracer(t *obs.Tracer) { d.tracer = t }

// SetDecisionSink installs (or removes) the per-window decision sink; wired
// post-construction for the same reason as SetTracer.
func (d *Detector) SetDecisionSink(s DecisionSink) { d.decisions = s }

// SetStepClock installs (or removes) the stage clock that receives each
// window's wall time, from the first stage mark through decision delivery,
// as one unit — the serving layer's detector_step stage.
func (d *Detector) SetStepClock(c *obs.StageClock) { d.clock = c }

// Step folds in one observation window. step fills the window's stats in
// place; every attached hook then reads them.
func (d *Detector) Step(w network.Window) (StepResult, error) {
	traced := d.tracer != nil && w.Trace.Recording()
	d.timed = d.inst != nil || traced || d.decisions != nil || d.clock != nil
	if d.timed {
		d.start = int64(time.Since(d.epoch))
		d.last = d.start
	}
	res, err := d.step(w)
	if err != nil {
		return res, err
	}
	st := &d.win
	st.ModelStates = int32(d.states.Len())
	st.OpenTracks = int32(d.tracks.OpenCount())
	st.Latency.TotalNS = d.last - d.start
	if d.inst != nil {
		d.inst.observe(d, st)
	}
	if traced {
		d.emitSpans(w.Trace)
	}
	if d.decisions != nil {
		d.decisions.Record(d.decide(w, res))
	}
	if d.health != nil {
		d.health.ObserveWindow(*st)
	}
	if d.clock != nil {
		d.clock.Observe(time.Since(d.epoch)-time.Duration(d.start), 1)
	}
	return res, nil
}

// lap closes one pipeline stage: the time since the previous mark goes into
// *stage. A no-op on untimed windows.
func (d *Detector) lap(stage *int64) {
	if !d.timed {
		return
	}
	now := int64(time.Since(d.epoch))
	*stage = now - d.last
	d.last = now
}

// emitSpans registers the window's stage spans from the step's own marks:
// the spans tile [start, last], so tracing takes no timestamps of its own.
func (d *Detector) emitSpans(ctx obs.SpanContext) {
	st := &d.win
	start := d.epoch.Add(time.Duration(d.start))
	root := d.tracer.StartSpanAt("detector.step", ctx, start)
	root.SetInt("window", int64(st.Window))
	if st.Skipped {
		root.SetAttr("skipped", "true")
	} else {
		root.SetInt("observable", int64(st.Observable))
		root.SetInt("correct", int64(st.Correct))
		root.SetInt("raw_alarms", int64(st.RawAlarms))
		root.SetInt("filtered_alarms", int64(st.FilteredAlarms))
	}
	child := root.Context()
	cursor := start
	for _, stage := range []struct {
		name string
		ns   int64
	}{
		{"detector.derive", st.Latency.DeriveNS},
		{"detector.classify", st.Latency.ClassifyNS},
		{"detector.map", st.Latency.MapNS},
		{"detector.alarm", st.Latency.AlarmNS},
		{"detector.hmm", st.Latency.HMMNS},
	} {
		sp := d.tracer.StartSpanAt(stage.name, child, cursor)
		cursor = cursor.Add(time.Duration(stage.ns))
		sp.EndAt(cursor)
	}
	root.EndAt(cursor)
}

// step is the pipeline body. It fills d.win — the one place the window's
// counts are taken — and, on timed windows, its stage latencies.
func (d *Detector) step(w network.Window) (StepResult, error) {
	sc := &d.scratch
	if sc.sensors == nil {
		sc.sensors = make(map[int]SensorStep)
	} else {
		clear(sc.sensors)
	}
	sc.opened, sc.closed = sc.opened[:0], sc.closed[:0]
	res := StepResult{Index: w.Index, Sensors: sc.sensors}
	st := &d.win
	*st = obs.WindowStats{Window: w.Index, Readings: int32(len(w.Readings))}

	// Per-sensor window means are the observations p_j of Eq. (2)-(4).
	ids, points, err := d.sensorMeans(w.Readings)
	if err != nil {
		return res, err
	}
	d.lap(&st.Latency.DeriveNS)
	st.Reporting = int32(len(ids))
	if len(ids) < d.cfg.MinSensors {
		res.Skipped = true
		st.Skipped = true
		d.skipped++
		return res, nil
	}
	for _, id := range ids {
		d.seen[id] = true
	}
	d.refreshQuarantine(w.Index)
	d.lap(&st.Latency.ClassifyNS)

	// Eq. (2) averages over *all* observations in the window, not over
	// per-sensor means: a sensor's influence on the observable state is
	// proportional to the traffic it actually delivers (a dying, thinning
	// sensor fades from the network view). Quarantined sensors — already
	// diagnosed as erroneous — are excluded from the network view.
	sc.values = sc.values[:0]
	for _, r := range w.Readings {
		if d.quarantined[r.Sensor] {
			continue
		}
		sc.values = append(sc.values, r.Values)
	}
	if len(sc.values) == 0 {
		for _, r := range w.Readings {
			sc.values = append(sc.values, r.Values)
		}
	}
	overall, err := d.meanInto(sc.values)
	if err != nil {
		return res, err
	}
	observable, distO, err := d.states.Nearest(overall) // Eq. (2)
	if err != nil {
		return res, err
	}
	sc.mapped, err = d.states.AssignTo(points, sc.mapped) // Eq. (3)
	if err != nil {
		return res, err
	}
	mapped := sc.mapped
	correct := d.majorityState(mapped) // Eq. (4)

	// Boundary deadband: when the overall mean sits essentially at a tie
	// between the correct state and another, Eq. (2)'s argmin is decided
	// by measurement noise, not by the environment. Snap such ambiguous
	// observables onto the correct state so transition windows do not
	// fabricate anomaly structure in M_CO (genuine attacks displace the
	// mean far beyond the deadband).
	if observable != correct && d.cfg.SnapDeadband > 0 {
		if dc, ok := d.states.DistanceTo(correct, overall); ok && dc-distO < d.cfg.SnapDeadband {
			observable = correct
		}
	}

	res.Observable, res.Correct = observable, correct
	st.Observable, st.Correct = observable, correct
	d.lap(&st.Latency.MapNS)

	// Alarm generation, filtering, and track management per sensor.
	for i, id := range ids {
		raw := mapped[i] != correct
		filtered := d.filter.Observe(id, raw)
		d.stats.Record(id, raw, filtered)
		if raw {
			st.RawAlarms++
		}
		if filtered {
			st.FilteredAlarms++
		}

		tr, symbol, recorded := d.tracks.Observe(w.Index, id, filtered, mapped[i], correct)
		if tr != nil {
			if tr.Closed == w.Index {
				sc.closed = append(sc.closed, id)
			} else if tr.Opened == w.Index {
				sc.opened = append(sc.opened, id)
			}
		}
		step := SensorStep{
			Mapped:    mapped[i],
			Raw:       raw,
			Filtered:  filtered,
			TrackOpen: tr != nil && tr.Active(),
			Symbol:    symbol,
			Recorded:  recorded,
		}
		if recorded {
			st.TrackSymbols++
			if symbol == track.Bottom {
				st.TrackBottoms++
			}
			est, err := d.ce(id)
			if err != nil {
				return res, err
			}
			est.Observe(correct, symbol)
			if symbol != track.Bottom {
				d.recordProfile(id, correct, points[i])
			}
		}
		res.Sensors[id] = step
	}
	d.lap(&st.Latency.AlarmNS)

	// Environment models.
	d.mco.Observe(correct, observable)
	d.mc.Observe(correct)
	d.mo.Observe(observable)

	// Model-state adaptation (Eqs. 5-6 + merge/spawn), with structural
	// events replayed onto every estimator.
	events, err := d.states.Adapt(points, overall)
	if err != nil {
		return res, err
	}
	for _, ev := range events {
		switch ev.Kind {
		case cluster.EventSpawn:
			st.StateSpawns++
		case cluster.EventMerge:
			st.StateMerges++
			if err := d.applyMerge(ev.Into, ev.From); err != nil {
				return res, err
			}
		}
	}
	res.Events = events
	d.lap(&st.Latency.HMMNS)
	d.steps++
	return res, nil
}

// refreshQuarantine re-derives the quarantine set: sensors whose track has
// been open for at least QuarantineAfter windows and whose M_CE diagnoses an
// accidental error — unless the same diagnosis is shared by more than
// QuarantineCoordinated of the sensors, which indicates a coordinated attack
// that must remain visible in B^CO. The set is rebuilt each window, so a
// closing track lifts the quarantine automatically.
func (d *Detector) refreshQuarantine(window int) {
	if d.cfg.QuarantineAfter <= 0 {
		return
	}
	// Steady-state early-out: with no open tracks there is nothing to
	// diagnose and nothing to quarantine — skip the map churn entirely.
	if d.tracks.OpenCount() == 0 {
		if len(d.quarantined) > 0 {
			clear(d.quarantined)
		}
		return
	}
	kinds := make(map[int]classify.Kind)
	var attrs map[int]vecmat.Vector
	for _, tr := range d.tracks.ActiveTracks() {
		if window-tr.Opened < d.cfg.QuarantineAfter {
			continue
		}
		snap, ok := d.ModelCE(tr.Sensor)
		if !ok {
			continue
		}
		if attrs == nil {
			attrs = d.stateAttrs()
		}
		diag, err := classify.Sensor(tr.Sensor, snap, attrs, d.ErrorProfile(tr.Sensor), d.cfg.Classify)
		if err != nil {
			continue
		}
		if diag.Kind.IsError() {
			kinds[tr.Sensor] = diag.Kind
		}
	}
	counts := make(map[classify.Kind]int)
	for _, k := range kinds {
		counts[k]++
	}
	next := make(map[int]bool, len(kinds))
	for id, k := range kinds {
		if len(d.seen) > 0 &&
			float64(counts[k])/float64(len(d.seen)) > d.cfg.QuarantineCoordinated {
			continue
		}
		next[id] = true
	}
	d.quarantined = next
}

// Quarantined returns the sensors currently excluded from the observable
// estimate, in ascending order.
func (d *Detector) Quarantined() []int {
	out := make([]int, 0, len(d.quarantined))
	for id := range d.quarantined {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// recordProfile folds one alarming window's reading into the sensor's
// per-hidden-state statistics.
func (d *Detector) recordProfile(sensorID, hidden int, value vecmat.Vector) {
	bySensor, ok := d.profiles[sensorID]
	if !ok {
		bySensor = make(map[int][]runstats.Running)
		d.profiles[sensorID] = bySensor
	}
	rs, ok := bySensor[hidden]
	if !ok {
		rs = make([]runstats.Running, d.cfg.Dim)
		bySensor[hidden] = rs
	}
	for i := 0; i < d.cfg.Dim && i < len(value); i++ {
		rs[i].Add(value[i])
	}
}

// ErrorProfile returns a sensor's empirical per-hidden-state statistics.
func (d *Detector) ErrorProfile(sensorID int) classify.ErrorProfile {
	bySensor := d.profiles[sensorID]
	out := make(classify.ErrorProfile, len(bySensor))
	for hidden, rs := range bySensor {
		st := classify.ErrorStats{
			Mean: make(vecmat.Vector, len(rs)),
			Std:  make(vecmat.Vector, len(rs)),
		}
		for i := range rs {
			st.Mean[i] = rs[i].Mean()
			st.Std[i] = rs[i].StdDev()
			st.N = rs[i].N()
		}
		out[hidden] = st
	}
	return out
}

// ce returns (building lazily) the M_CE estimator for a sensor.
func (d *Detector) ce(sensorID int) (*hmm.Online, error) {
	if est, ok := d.mce[sensorID]; ok {
		return est, nil
	}
	est, err := hmm.NewOnline(d.cfg.Beta, d.cfg.Gamma)
	if err != nil {
		return nil, err
	}
	d.mce[sensorID] = est
	return est, nil
}

// applyMerge replays a model-state merge onto every estimator that indexes
// by state ID.
func (d *Detector) applyMerge(into, from int) error {
	if err := mergeOnline(d.mco, into, from); err != nil {
		return fmt.Errorf("M_CO: %w", err)
	}
	for id, est := range d.mce {
		if err := mergeOnline(est, into, from); err != nil {
			return fmt.Errorf("M_CE sensor %d: %w", id, err)
		}
	}
	if err := mergeChain(d.mc, into, from); err != nil {
		return fmt.Errorf("M_C: %w", err)
	}
	if err := mergeChain(d.mo, into, from); err != nil {
		return fmt.Errorf("M_O: %w", err)
	}
	d.tracks.MergeState(into, from)
	for _, bySensor := range d.profiles {
		src, ok := bySensor[from]
		if !ok {
			continue
		}
		dst, ok := bySensor[into]
		if !ok {
			bySensor[into] = src
		} else {
			for i := range dst {
				if i < len(src) {
					dst[i].Merge(src[i])
				}
			}
		}
		delete(bySensor, from)
	}
	return nil
}

// mergeOnline merges hidden and symbol identities if the estimator knows
// them; unknown IDs are fine (the estimator never saw that state).
func mergeOnline(o *hmm.Online, into, from int) error {
	if containsInt(o.HiddenIDs(), from) {
		if !containsInt(o.HiddenIDs(), into) {
			o.EnsureHidden(into)
		}
		if err := o.MergeHidden(into, from); err != nil {
			return err
		}
	}
	if containsInt(o.SymbolIDs(), from) {
		if !containsInt(o.SymbolIDs(), into) {
			o.EnsureSymbol(into)
		}
		if err := o.MergeSymbol(into, from); err != nil {
			return err
		}
	}
	return nil
}

func mergeChain(c *markov.Chain, into, from int) error {
	if !containsInt(c.IDs(), from) {
		return nil
	}
	c.Ensure(into)
	return c.Merge(into, from)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// sensorMeans groups the window's readings by sensor and returns the sensor
// IDs (ascending) with their mean observation vectors. Both returned slices
// are backed by the detector's scratch space and are valid until the next
// step.
func (d *Detector) sensorMeans(readings []sensor.Reading) ([]int, []vecmat.Vector, error) {
	sc := &d.scratch
	if sc.slot == nil {
		sc.slot = make(map[int]int)
	} else {
		clear(sc.slot)
	}
	sc.ids = sc.ids[:0]
	sc.counts = sc.counts[:0]
	for _, r := range readings {
		if len(r.Values) != d.cfg.Dim {
			return nil, nil, fmt.Errorf("core: reading from sensor %d has dimension %d, want %d",
				r.Sensor, len(r.Values), d.cfg.Dim)
		}
		i, ok := sc.slot[r.Sensor]
		if !ok {
			i = len(sc.ids)
			sc.slot[r.Sensor] = i
			if i == len(sc.sums) {
				sc.sums = append(sc.sums, vecmat.NewVector(d.cfg.Dim))
			}
			sum := sc.sums[i]
			for k := range sum {
				sum[k] = 0
			}
			sc.ids = append(sc.ids, r.Sensor)
			sc.counts = append(sc.counts, 0)
		}
		if err := sc.sums[i].AddInPlace(r.Values); err != nil {
			return nil, nil, err
		}
		sc.counts[i]++
	}
	// Sort IDs ascending; slot still maps each ID to its accumulation row,
	// so the points slice is rebuilt in sorted order from the (unsorted)
	// sum rows, scaling each row into a mean in place.
	slices.Sort(sc.ids)
	sc.points = sc.points[:0]
	for _, id := range sc.ids {
		i := sc.slot[id]
		sum := sc.sums[i]
		inv := 1 / float64(sc.counts[i])
		for k := range sum {
			sum[k] *= inv
		}
		sc.points = append(sc.points, sum)
	}
	return sc.ids, sc.points, nil
}

// meanInto computes the component-wise mean of vs into the scratch overall
// vector (Eq. (2)'s network view) without allocating.
func (d *Detector) meanInto(vs []vecmat.Vector) (vecmat.Vector, error) {
	sc := &d.scratch
	if len(sc.overall) != d.cfg.Dim {
		sc.overall = vecmat.NewVector(d.cfg.Dim)
	}
	out := sc.overall
	for k := range out {
		out[k] = 0
	}
	if len(vs) == 0 {
		return nil, errors.New("core: mean of zero observations")
	}
	for _, v := range vs {
		if err := out.AddInPlace(v); err != nil {
			return nil, err
		}
	}
	inv := 1 / float64(len(vs))
	for k := range out {
		out[k] *= inv
	}
	return out, nil
}

// majorityState returns the state ID backing the largest group of mapped
// observations (ties break toward the smaller ID for determinism). The tally
// map is scratch, reused across windows.
func (d *Detector) majorityState(mapped []int) int {
	sc := &d.scratch
	if sc.states == nil {
		sc.states = make(map[int]int)
	} else {
		clear(sc.states)
	}
	for _, id := range mapped {
		sc.states[id]++
	}
	best, bestCount := 0, -1
	for id, c := range sc.states {
		if c > bestCount || (c == bestCount && id < best) {
			best, bestCount = id, c
		}
	}
	return best
}

// Stats is a cheap snapshot of the detector's internal counters — the
// numbers a caller can poll between windows without paying for a full
// Report (which runs the structural classifier).
type Stats struct {
	// Steps and SkippedWindows count processed and quorum-dropped windows.
	Steps, SkippedWindows int
	// TracksOpened and TracksClosed count error/attack track lifecycle
	// events; OpenTracks is the number open right now.
	TracksOpened, TracksClosed, OpenTracks int
	// QuarantinedSensors is the number of sensors currently excluded from
	// the observable estimate.
	QuarantinedSensors int
	// ModelStates is the current model-state count; StateSpawns and
	// StateMerges count structural changes since construction.
	ModelStates, StateSpawns, StateMerges int
	// SensorsSeen is the number of distinct sensors ever observed.
	SensorsSeen int
}

// Stats returns a snapshot of the detector's internal counters.
func (d *Detector) Stats() Stats {
	return Stats{
		Steps:              d.steps,
		SkippedWindows:     d.skipped,
		TracksOpened:       d.tracks.Opened(),
		TracksClosed:       d.tracks.ClosedCount(),
		OpenTracks:         d.tracks.OpenCount(),
		QuarantinedSensors: len(d.quarantined),
		ModelStates:        d.states.Len(),
		StateSpawns:        d.states.SpawnCount(),
		StateMerges:        d.states.MergeCount(),
		SensorsSeen:        len(d.seen),
	}
}

// Steps returns the number of non-skipped windows processed.
func (d *Detector) Steps() int { return d.steps }

// SkippedWindows returns the number of windows dropped for lacking a sensor
// quorum.
func (d *Detector) SkippedWindows() int { return d.skipped }

// States returns the current model states.
func (d *Detector) States() []cluster.State { return d.states.States() }

// stateAttrs refills the scratch map with the attribute vector of every
// current model state, keyed by state ID — StateAttributes without the
// copies. The vectors alias the state centroids: read them before the
// states next adapt, and never write them.
func (d *Detector) stateAttrs() map[int]vecmat.Vector {
	sc := &d.scratch
	if sc.attrs == nil {
		sc.attrs = make(map[int]vecmat.Vector)
	}
	d.states.CentroidsInto(sc.attrs)
	return sc.attrs
}

// StateAttributes returns the attribute vector of every current model state,
// keyed by state ID.
func (d *Detector) StateAttributes() map[int]vecmat.Vector {
	out := make(map[int]vecmat.Vector)
	for _, s := range d.states.States() {
		out[s.ID] = s.Centroid
	}
	return out
}

// ModelCO returns an ID-ordered snapshot of the M_CO estimator.
func (d *Detector) ModelCO() hmm.Snapshot { return d.mco.Snapshot() }

// ModelCE returns an ID-ordered snapshot of a sensor's M_CE estimator.
func (d *Detector) ModelCE(sensorID int) (hmm.Snapshot, bool) {
	est, ok := d.mce[sensorID]
	if !ok {
		return hmm.Snapshot{}, false
	}
	return est.Snapshot(), true
}

// TrackedSensors returns every sensor that ever had an error/attack track,
// in ascending order.
func (d *Detector) TrackedSensors() []int {
	ids := make([]int, 0, len(d.mce))
	for id := range d.mce {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// CorrectChain returns the Markov model M_C of the correct environment
// dynamics (step 5 of the methodology).
func (d *Detector) CorrectChain() *markov.Chain { return d.mc }

// ObservableChain returns the Markov model M_O of the observable dynamics.
func (d *Detector) ObservableChain() *markov.Chain { return d.mo }

// AlarmStats returns the per-sensor raw/filtered alarm statistics.
func (d *Detector) AlarmStats() *alarm.Stats { return d.stats }

// Tracks returns the track manager (open and closed tracks).
func (d *Detector) Tracks() *track.Manager { return d.tracks }
