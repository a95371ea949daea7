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
type DecisionSink interface {
	Record(DecisionRecord)
}

// DecisionRing retains the most recent records in a bounded buffer — the
// store behind /debug/decisions/{deployment}. Safe for concurrent use.
type DecisionRing struct {
	mu      sync.Mutex
	buf     []DecisionRecord
	start   int
	n       int
	emitted int
}

// NewDecisionRing returns a ring retaining the last capacity records
// (capacity < 1 is treated as 1).
func NewDecisionRing(capacity int) *DecisionRing {
	if capacity < 1 {
		capacity = 1
	}
	return &DecisionRing{buf: make([]DecisionRecord, capacity)}
}

// Record appends, evicting the oldest when full.
func (r *DecisionRing) Record(rec DecisionRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.emitted++
	if r.n < len(r.buf) {
		r.buf[(r.start+r.n)%len(r.buf)] = rec
		r.n++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

// Records returns the retained records, oldest first.
func (r *DecisionRing) Records() []DecisionRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionRecord, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// Len returns the number of retained records.
func (r *DecisionRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of records evicted from the buffer.
func (r *DecisionRing) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.emitted - r.n
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

// Record writes one NDJSON line.
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
// window's stats plus the provenance part.
func (d *Detector) decide(w network.Window, res StepResult) DecisionRecord {
	rec := DecisionRecord{WindowStats: d.win}
	if w.Trace.Recording() {
		rec.TraceID = w.Trace.Trace.String()
	}
	if res.Skipped {
		return rec
	}

	attrs := d.StateAttributes()
	if a, ok := attrs[res.Observable]; ok {
		rec.ObservableAttrs = a.Clone()
	}
	if a, ok := attrs[res.Correct]; ok {
		rec.CorrectAttrs = a.Clone()
	}

	// The scratch IDs are this window's sensors, already ascending.
	sc := &d.scratch
	rec.Sensors = make([]SensorDecision, len(sc.ids))
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
		rec.Sensors[i] = sd
	}
	if len(d.quarantined) > 0 {
		rec.Quarantined = d.Quarantined()
	}
	rec.Evidence = d.evidence(attrs)
	return rec
}

// evidence runs the §3.4 network analysis on the current B^CO and folds in
// the attribute-divergence test; nil while no states are active.
func (d *Detector) evidence(attrs map[int]vecmat.Vector) *DecisionEvidence {
	diag, err := classify.Network(d.ModelCO(), attrs, d.cfg.Classify)
	if err != nil {
		return nil
	}
	ev := &DecisionEvidence{
		Verdict:       diag.Kind.String(),
		Confidence:    diag.Confidence,
		RowViolations: diag.RowViolations,
		ColViolations: diag.ColViolations,
		Associations:  diag.Associations,
		ActiveHidden:  diag.ActiveHidden,
	}
	for _, a := range diag.Associations {
		hc, okH := attrs[a.Hidden]
		oc, okO := attrs[a.Symbol]
		if !okH || !okO || len(hc) != len(oc) {
			continue
		}
		div := AttributeDivergence{
			Hidden:       a.Hidden,
			Symbol:       a.Symbol,
			Delta:        make(vecmat.Vector, len(hc)),
			AllDisplaced: a.Hidden != a.Symbol,
		}
		for i := range hc {
			div.Delta[i] = oc[i] - hc[i]
			if math.Abs(div.Delta[i]) < d.cfg.Classify.ChangeMinDelta {
				div.AllDisplaced = false
			}
		}
		ev.Divergence = append(ev.Divergence, div)
	}
	return ev
}
