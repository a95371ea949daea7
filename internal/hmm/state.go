package hmm

import (
	"fmt"
	"maps"

	"sensorguard/internal/vecmat"
)

// OnlineState is the serializable form of an Online estimator. Unlike
// Snapshot (an ID-sorted analysis view), OnlineState preserves the internal
// row/column registration order, because that order determines how future
// merges blend rows and which index positions EnsureHidden/EnsureSymbol hand
// out — a restored estimator must evolve exactly as the original would have.
type OnlineState struct {
	HiddenIDs   []int           `json:"hidden_ids"` // row order, NOT sorted
	SymbolIDs   []int           `json:"symbol_ids"` // column order, NOT sorted
	A           [][]float64     `json:"a"`          // hidden × hidden, row order
	B           [][]float64     `json:"b"`          // hidden × symbol
	Visits      map[int]float64 `json:"visits,omitempty"`
	Emissions   map[int]float64 `json:"emissions,omitempty"`
	Transitions map[int]float64 `json:"transitions,omitempty"`
	Prev        int             `json:"prev"`
	Started     bool            `json:"started"`
	Steps       int             `json:"steps"`
}

// Export returns the estimator's serializable state.
func (o *Online) Export() OnlineState {
	st := OnlineState{
		HiddenIDs: append([]int(nil), o.hiddenIDs...),
		SymbolIDs: append([]int(nil), o.symbolIDs...),
		A:         o.a.ExportRows(),
		B:         o.b.ExportRows(),
		Prev:      o.prev,
		Started:   o.started,
		Steps:     o.steps,
	}
	st.Visits = maps.Clone(o.visits)
	st.Emissions = maps.Clone(o.emits)
	st.Transitions = maps.Clone(o.transitions)
	return st
}

// RestoreOnline rebuilds an Online estimator from exported state with the
// given learning factors. The state is validated defensively — matrix shapes,
// ID uniqueness, Prev membership — since it may come from a damaged or
// hostile checkpoint file.
func RestoreOnline(beta, gamma float64, st OnlineState) (*Online, error) {
	o, err := NewOnline(beta, gamma)
	if err != nil {
		return nil, err
	}
	nh, ns := len(st.HiddenIDs), len(st.SymbolIDs)
	a, err := restoreMatrix(st.A, nh, nh, "A")
	if err != nil {
		return nil, err
	}
	b, err := restoreMatrix(st.B, nh, ns, "B")
	if err != nil {
		return nil, err
	}
	for i, id := range st.HiddenIDs {
		if _, dup := o.hiddenIdx[id]; dup {
			return nil, fmt.Errorf("hmm: restore: duplicate hidden ID %d", id)
		}
		o.hiddenIdx[id] = i
	}
	for i, id := range st.SymbolIDs {
		if _, dup := o.symbolIdx[id]; dup {
			return nil, fmt.Errorf("hmm: restore: duplicate symbol ID %d", id)
		}
		o.symbolIdx[id] = i
	}
	if st.Started {
		if _, ok := o.hiddenIdx[st.Prev]; !ok {
			return nil, fmt.Errorf("hmm: restore: previous hidden state %d unknown", st.Prev)
		}
	}
	o.hiddenIDs = append([]int(nil), st.HiddenIDs...)
	o.symbolIDs = append([]int(nil), st.SymbolIDs...)
	o.a, o.b = a, b
	o.visits = maps.Clone(st.Visits)
	o.emits = maps.Clone(st.Emissions)
	o.transitions = maps.Clone(st.Transitions)
	if o.visits == nil {
		o.visits = make(map[int]float64)
	}
	if o.emits == nil {
		o.emits = make(map[int]float64)
	}
	if o.transitions == nil {
		o.transitions = make(map[int]float64)
	}
	o.prev = st.Prev
	o.started = st.Started
	o.steps = st.Steps
	return o, nil
}

// restoreMatrix rebuilds matrix name from its exported rows.
func restoreMatrix(rows [][]float64, wantRows, wantCols int, name string) (*vecmat.Matrix, error) {
	m, err := vecmat.MatrixFromRows(rows, wantRows, wantCols)
	if err != nil {
		return nil, fmt.Errorf("hmm: restore: matrix %s %w", name, err)
	}
	return m, nil
}
