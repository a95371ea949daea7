package markov

import (
	"fmt"
	"maps"

	"sensorguard/internal/vecmat"
)

// ChainState is the serializable form of a Chain. The internal state order
// is preserved (not ID-sorted) because it decides row positions for future
// merges, so a restored chain continues the trajectory exactly as the
// original would have.
type ChainState struct {
	IDs     []int           `json:"ids"` // row order, NOT sorted
	P       [][]float64     `json:"p"`
	Counts  [][]float64     `json:"counts"`
	Visits  map[int]float64 `json:"visits,omitempty"`
	Prev    int             `json:"prev"`
	Started bool            `json:"started"`
	Steps   int             `json:"steps"`
}

// Export returns the chain's serializable state.
func (c *Chain) Export() ChainState {
	st := ChainState{
		IDs:     append([]int(nil), c.ids...),
		P:       c.p.ExportRows(),
		Counts:  c.counts.ExportRows(),
		Prev:    c.prev,
		Started: c.started,
		Steps:   c.steps,
		Visits:  maps.Clone(c.visits),
	}
	return st
}

// RestoreChain rebuilds a Chain from exported state with the given learning
// factor, validating shapes and ID uniqueness defensively.
func RestoreChain(beta float64, st ChainState) (*Chain, error) {
	c, err := NewChain(beta)
	if err != nil {
		return nil, err
	}
	n := len(st.IDs)
	p, err := restoreSquare(st.P, n, "P")
	if err != nil {
		return nil, err
	}
	counts, err := restoreSquare(st.Counts, n, "counts")
	if err != nil {
		return nil, err
	}
	for i, id := range st.IDs {
		if _, dup := c.idx[id]; dup {
			return nil, fmt.Errorf("markov: restore: duplicate state ID %d", id)
		}
		c.idx[id] = i
	}
	if st.Started {
		if _, ok := c.idx[st.Prev]; !ok {
			return nil, fmt.Errorf("markov: restore: previous state %d unknown", st.Prev)
		}
	}
	c.ids = append([]int(nil), st.IDs...)
	c.p, c.counts = p, counts
	c.visits = make(map[int]float64, len(st.Visits))
	for k, v := range st.Visits {
		c.visits[k] = v
	}
	c.prev = st.Prev
	c.started = st.Started
	c.steps = st.Steps
	return c, nil
}

// restoreSquare rebuilds the n×n matrix name from its exported rows.
func restoreSquare(rows [][]float64, n int, name string) (*vecmat.Matrix, error) {
	m, err := vecmat.MatrixFromRows(rows, n, n)
	if err != nil {
		return nil, fmt.Errorf("markov: restore: matrix %s %w", name, err)
	}
	return m, nil
}
