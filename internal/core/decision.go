package core

import (
	"cmp"
	"encoding/json"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"sensorguard/internal/classify"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/track"
	"sensorguard/internal/vecmat"
)

// A DecisionRecord is the detector's one per-window record: every quantity
// the paper's methodology derives on the way to a verdict, captured the
// moment Step computes it. It has two parts. The embedded obs.WindowStats is
// the cheap scalar part every Step fills (window, o_i/c_i, raw and filtered
// alarm counts, track symbols and ⊥, churn, stage latencies); metrics, the
// health tracker, and stage spans read it without a record being built.
// The provenance part — state attributes, each sensor's nearest state l_j
// and alarms, and the §3.4 structural evidence read off B^CO this window —
// is built only for a DecisionSink. Where a Report answers "what is wrong",
// the record answers "why the detector thinks so".
//
// What the per-sensor rows already hold is derived, not stored: the
// cluster sizes (Clusters) and the tracks opened and closed this window
// (TracksOpened, TracksClosed). The JSON encoding includes them under
// "clusters", "tracks_opened", and "tracks_closed".
type DecisionRecord struct {
	// Deployment is stamped by the serving layer (empty for a bare
	// detector).
	Deployment string `json:"deployment,omitempty"`
	// WindowStats is the scalar part; on a skipped window (Skipped) only
	// it, Deployment, and TraceID are set.
	obs.WindowStats
	// TraceID links the record to its trace when the window carried a
	// sampled span context.
	TraceID string `json:"trace_id,omitempty"`
	// ObservableAttrs and CorrectAttrs are the attribute vectors of the
	// o_i and c_i model states (absent if the state has since merged
	// away).
	ObservableAttrs vecmat.Vector `json:"observable_attrs,omitempty"`
	CorrectAttrs    vecmat.Vector `json:"correct_attrs,omitempty"`
	// Sensors are the per-sensor outcomes, ascending by sensor ID.
	Sensors []SensorDecision `json:"sensors,omitempty"`
	// Quarantined lists the sensors excluded from the observable estimate
	// this window.
	Quarantined []int `json:"quarantined,omitempty"`
	// Evidence is the structural classification read off B^CO after this
	// window (nil while the model has no active states yet).
	Evidence *DecisionEvidence `json:"evidence,omitempty"`
}

// Clusters returns the per-state sensor counts behind the Eq. (4) majority,
// ascending by state ID, derived from the per-sensor rows.
func (r *DecisionRecord) Clusters() []ClusterSize {
	var out []ClusterSize
	for _, s := range r.Sensors {
		i, found := slices.BinarySearchFunc(out, s.Nearest, func(c ClusterSize, state int) int {
			return cmp.Compare(c.State, state)
		})
		if found {
			out[i].Size++
		} else {
			out = slices.Insert(out, i, ClusterSize{State: s.Nearest, Size: 1})
		}
	}
	return out
}

// TracksOpened returns the sensors whose error/attack track opened this
// window, ascending.
func (r *DecisionRecord) TracksOpened() []int {
	return r.sensorsWhere(func(s SensorDecision) bool { return s.TrackOpened })
}

// TracksClosed returns the sensors whose error/attack track closed this
// window, ascending.
func (r *DecisionRecord) TracksClosed() []int {
	return r.sensorsWhere(func(s SensorDecision) bool { return s.TrackClosed })
}

func (r *DecisionRecord) sensorsWhere(pred func(SensorDecision) bool) []int {
	var out []int
	for _, s := range r.Sensors {
		if pred(s) {
			out = append(out, s.Sensor)
		}
	}
	return out
}

// MarshalJSON encodes the record with its derived fields.
func (r DecisionRecord) MarshalJSON() ([]byte, error) {
	type fields DecisionRecord // the stored fields, without this method
	return json.Marshal(struct {
		fields
		Clusters     []ClusterSize `json:"clusters,omitempty"`
		TracksOpened []int         `json:"tracks_opened,omitempty"`
		TracksClosed []int         `json:"tracks_closed,omitempty"`
	}{fields(r), r.Clusters(), r.TracksOpened(), r.TracksClosed()})
}

// ClusterSize counts the sensors whose window observation mapped onto one
// model state (Eq. 3) — the cluster sizes the Eq. (4) majority is taken
// over.
type ClusterSize struct {
	State int `json:"state"`
	Size  int `json:"size"`
}

// SensorDecision is one sensor's per-window outcome.
type SensorDecision struct {
	Sensor int `json:"sensor"`
	// Nearest is the model state the sensor's observation mapped to (l_j,
	// Eq. 3).
	Nearest int `json:"nearest_state"`
	// RawAlarm is l_j ≠ c_i; FilteredAlarm is the k-of-n filter output.
	RawAlarm      bool `json:"raw_alarm"`
	FilteredAlarm bool `json:"filtered_alarm"`
	// TrackOpen reports an open error/attack track after this window;
	// TrackOpened and TrackClosed report that the track opened or closed
	// in this window.
	TrackOpen   bool `json:"track_open"`
	TrackOpened bool `json:"track_opened,omitempty"`
	TrackClosed bool `json:"track_closed,omitempty"`
	// Symbol is the symbol recorded on the sensor's track this window:
	// "⊥" when the sensor agreed with the majority, the observed state ID
	// otherwise, empty when nothing was recorded (no open track).
	Symbol string `json:"symbol,omitempty"`
}

// DecisionEvidence is the §3.4 structural analysis of B^CO as it stood after
// one window — the row/column orthogonality scores and attribute-divergence
// test the network verdict rests on.
type DecisionEvidence struct {
	// Verdict is the classify.Kind name ("none", "dynamic-deletion", ...).
	Verdict    string  `json:"verdict"`
	Confidence float64 `json:"confidence"`
	// RowViolations are non-orthogonal B^CO row pairs — two correct states
	// observed as one, the Dynamic-Deletion signature. ColViolations are
	// non-orthogonal column pairs — one correct state observed as two, the
	// Dynamic-Creation signature. Each carries the offending state IDs and
	// the dot product that crossed the threshold.
	RowViolations []vecmat.OrthoViolation `json:"row_violations,omitempty"`
	ColViolations []vecmat.OrthoViolation `json:"col_violations,omitempty"`
	// Associations maps each active hidden state to its dominant
	// observable symbol; ActiveHidden lists the states that passed the
	// spurious-state filter.
	Associations []classify.Association `json:"associations,omitempty"`
	ActiveHidden []int                  `json:"active_hidden,omitempty"`
	// Divergence is the Dynamic-Change attribute test per association: the
	// observable-minus-hidden attribute deltas and whether every attribute
	// is displaced beyond the noise floor.
	Divergence []AttributeDivergence `json:"divergence,omitempty"`
}

// AttributeDivergence is the attribute-displacement test input for one
// hidden→symbol association.
type AttributeDivergence struct {
	Hidden int `json:"hidden"`
	Symbol int `json:"symbol"`
	// Delta is observable attrs − hidden attrs, per attribute.
	Delta vecmat.Vector `json:"delta"`
	// AllDisplaced reports hidden ≠ symbol with every |delta| at or above
	// the ChangeMinDelta noise floor — the Dynamic-Change condition.
	AllDisplaced bool `json:"all_displaced"`
}

// DecisionSink receives one record per window. Implementations must be safe
// for use from the goroutine driving the detector.
//
// The record is borrowed, like StepResult: its slices and Evidence live in
// the detector's reusable scratch space and are valid only during the
// Record call, which the next window overwrites. A sink that keeps the
// record past the call must keep rec.Clone(); one that consumes it in the
// call (encodes, packs, or copies what it needs) reads it for free.
type DecisionSink interface {
	Record(DecisionRecord)
}

// Clone returns an independent deep copy of the record, safe to keep after
// the Record call that delivered it. Nil and empty slices stay as they are.
func (r DecisionRecord) Clone() DecisionRecord {
	out := r
	out.ObservableAttrs = slices.Clone(r.ObservableAttrs)
	out.CorrectAttrs = slices.Clone(r.CorrectAttrs)
	out.Sensors = slices.Clone(r.Sensors)
	out.Quarantined = slices.Clone(r.Quarantined)
	if r.Evidence != nil {
		ev := *r.Evidence
		ev.RowViolations = slices.Clone(ev.RowViolations)
		ev.ColViolations = slices.Clone(ev.ColViolations)
		ev.Associations = slices.Clone(ev.Associations)
		ev.ActiveHidden = slices.Clone(ev.ActiveHidden)
		ev.Divergence = slices.Clone(ev.Divergence)
		for i := range ev.Divergence {
			ev.Divergence[i].Delta = slices.Clone(ev.Divergence[i].Delta)
		}
		out.Evidence = &ev
	}
	return out
}

// DecisionRing retains the most recent records in a bounded buffer — the
// store behind /debug/decisions/{deployment}. Safe for concurrent use.
//
// Each record is kept packed (see decisionSlot) and decoded back into an
// identical DecisionRecord only when Records reads it. Slots are added as
// records arrive, up to capacity; after that each record reuses the evicted
// slot's buffer, so Record allocates nothing in steady state.
type DecisionRing struct {
	mu       sync.Mutex
	capacity int
	slots    []decisionSlot // oldest at start once len(slots) == capacity
	start    int
	emitted  int
	scratch  []byte // encoding buffer for the record being packed
}

// NewDecisionRing returns a ring retaining the last capacity records
// (capacity < 1 is treated as 1).
func NewDecisionRing(capacity int) *DecisionRing {
	return &DecisionRing{capacity: max(capacity, 1)}
}

// Record packs rec into the ring, evicting the oldest record when full. It
// keeps nothing rec points to, so the record may be borrowed.
func (r *DecisionRing) Record(rec DecisionRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emitted++
	var slot *decisionSlot
	if n := len(r.slots); n < r.capacity {
		if n == cap(r.slots) {
			// Grow by a quarter, not append's doubling: a deployment that
			// never fills the ring should not pay for the empty half.
			grown := make([]decisionSlot, n, n+min(max(n/4, 16), r.capacity-n))
			copy(grown, r.slots)
			r.slots = grown
		}
		r.slots = r.slots[:n+1]
		slot = &r.slots[n]
	} else {
		slot = &r.slots[r.start]
		r.start = (r.start + 1) % n
	}
	r.scratch = slot.pack(&rec, r.scratch)
}

// Records returns the retained records, oldest first. The packed slots are
// copied out under the lock and decoded after it is released, so a reader
// holds up the detector only for the copy.
func (r *DecisionRing) Records() []DecisionRecord {
	r.mu.Lock()
	slots := make([]decisionSlot, len(r.slots))
	size := 0
	for _, s := range r.slots {
		size += len(s.data)
	}
	data := make([]byte, 0, size)
	for i := range slots {
		s := r.slots[(r.start+i)%len(r.slots)]
		at := len(data)
		data = append(data, s.data...)
		s.data = data[at:len(data):len(data)]
		slots[i] = s
	}
	r.mu.Unlock()

	out := make([]DecisionRecord, len(slots))
	for i := range slots {
		out[i] = slots[i].record()
	}
	return out
}

// Len returns the number of retained records.
func (r *DecisionRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.slots)
}

// Dropped returns the number of records evicted from the buffer.
func (r *DecisionRing) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted - len(r.slots)
}

// DecisionLog streams records as NDJSON — the -audit-log sink. Safe for
// concurrent use; write errors are sticky (first kept, later records
// dropped), check Err after the run.
type DecisionLog struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewDecisionLog returns a log writing NDJSON to w.
func NewDecisionLog(w io.Writer) *DecisionLog {
	return &DecisionLog{enc: json.NewEncoder(w)}
}

// Record writes one NDJSON line, encoding rec before it returns.
func (l *DecisionLog) Record(rec DecisionRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return
	}
	l.err = l.enc.Encode(rec)
}

// Err returns the first write error, if any.
func (l *DecisionLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// decide assembles the window's decision record after step has run: the
// window's stats plus the provenance part. The record is built in the
// detector's scratch space and handed to the sink borrowed (see
// DecisionSink): nothing here allocates once the scratch has grown.
func (d *Detector) decide(w network.Window, res StepResult) DecisionRecord {
	rec := DecisionRecord{WindowStats: d.win}
	if w.Trace.Recording() {
		rec.TraceID = w.Trace.Trace.String()
	}
	if res.Skipped {
		return rec
	}

	sc := &d.scratch
	attrs := d.stateAttrs()
	if a, ok := attrs[res.Observable]; ok {
		sc.obsAttrs = append(sc.obsAttrs[:0], a...)
		rec.ObservableAttrs = sc.obsAttrs
	}
	if a, ok := attrs[res.Correct]; ok {
		sc.corrAttrs = append(sc.corrAttrs[:0], a...)
		rec.CorrectAttrs = sc.corrAttrs
	}

	// The scratch IDs are this window's sensors, already ascending.
	sc.rows = slices.Grow(sc.rows[:0], len(sc.ids))[:len(sc.ids)]
	for i, id := range sc.ids {
		st := res.Sensors[id]
		sd := SensorDecision{
			Sensor:        id,
			Nearest:       st.Mapped,
			RawAlarm:      st.Raw,
			FilteredAlarm: st.Filtered,
			TrackOpen:     st.TrackOpen,
			TrackOpened:   slices.Contains(sc.opened, id),
			TrackClosed:   slices.Contains(sc.closed, id),
		}
		if st.Recorded {
			if st.Symbol == track.Bottom {
				sd.Symbol = "⊥"
			} else {
				sd.Symbol = strconv.Itoa(st.Symbol)
			}
		}
		sc.rows[i] = sd
	}
	rec.Sensors = sc.rows
	if len(d.quarantined) > 0 {
		sc.quarantined = sc.quarantined[:0]
		for id := range d.quarantined {
			sc.quarantined = append(sc.quarantined, id)
		}
		slices.Sort(sc.quarantined)
		rec.Quarantined = sc.quarantined
	}
	rec.Evidence = d.evidence(attrs)
	return rec
}

// evidence runs the §3.4 network analysis on the current B^CO and folds in
// the attribute-divergence test; nil while no states are active. The
// result is the detector's scratch evidence, overwritten next window.
func (d *Detector) evidence(attrs map[int]vecmat.Vector) *DecisionEvidence {
	diag, err := classify.Network(d.ModelCO(), attrs, d.cfg.Classify)
	if err != nil {
		return nil
	}
	sc := &d.scratch
	// Each divergence slot keeps its Delta buffer across windows.
	divs := sc.divergence[:0]
	for _, a := range diag.Associations {
		hc, okH := attrs[a.Hidden]
		oc, okO := attrs[a.Symbol]
		if !okH || !okO || len(hc) != len(oc) {
			continue
		}
		divs = slices.Grow(divs, 1)[:len(divs)+1]
		div := &divs[len(divs)-1]
		div.Hidden, div.Symbol = a.Hidden, a.Symbol
		div.Delta = slices.Grow(div.Delta[:0], len(hc))[:len(hc)]
		div.AllDisplaced = a.Hidden != a.Symbol
		for i := range hc {
			div.Delta[i] = oc[i] - hc[i]
			if math.Abs(div.Delta[i]) < d.cfg.Classify.ChangeMinDelta {
				div.AllDisplaced = false
			}
		}
	}
	sc.divergence = divs
	if len(divs) == 0 {
		divs = nil
	}
	sc.evidence = DecisionEvidence{
		Verdict:       diag.Kind.String(),
		Confidence:    diag.Confidence,
		RowViolations: diag.RowViolations,
		ColViolations: diag.ColViolations,
		Associations:  diag.Associations,
		ActiveHidden:  diag.ActiveHidden,
		Divergence:    divs,
	}
	return &sc.evidence
}
