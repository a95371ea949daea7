// Package markov estimates first-order Markov chains over the detector's
// dynamic model-state alphabet. The methodology's step 5 extracts a Markov
// model M_C of the correct environment dynamics for the user (Fig. 7 of the
// paper); M_O over the observable states backs the error-vs-attack intuition
// of §3.4 ("attacks change the temporal behaviour of the environment as
// sensed by the network, while errors do not").
package markov

import (
	"fmt"
	"sort"
	"strings"

	"sensorguard/internal/vecmat"
)

// Chain is an incrementally estimated Markov chain over stable integer state
// IDs. Transition probabilities follow the same exponential update the
// paper uses for HMM rows; raw counts are kept alongside so that callers can
// distinguish well-supported transitions from noise.
type Chain struct {
	beta float64

	idx    map[int]int
	ids    []int
	p      *vecmat.Matrix // row-stochastic transition probabilities
	counts *vecmat.Matrix // raw transition counts
	visits map[int]float64

	prev    int
	started bool
	steps   int
}

// NewChain builds an empty chain with transition learning factor beta in
// (0,1).
func NewChain(beta float64) (*Chain, error) {
	if beta <= 0 || beta >= 1 {
		return nil, fmt.Errorf("markov: learning factor β=%v outside (0,1)", beta)
	}
	return &Chain{
		beta:   beta,
		idx:    make(map[int]int),
		p:      vecmat.NewMatrix(0, 0),
		counts: vecmat.NewMatrix(0, 0),
		visits: make(map[int]float64),
	}, nil
}

// Ensure registers a state ID if unseen; new rows start as identity
// (self-transition), matching the paper's identity initialisation.
func (c *Chain) Ensure(id int) {
	if _, ok := c.idx[id]; ok {
		return
	}
	row := c.p.AppendRow()
	col := c.p.AppendCol()
	c.counts.AppendRow()
	c.counts.AppendCol()
	c.idx[id] = row
	c.ids = append(c.ids, id)
	c.p.Set(row, col, 1)
}

// Observe folds in the next state of the trajectory.
func (c *Chain) Observe(state int) {
	c.Ensure(state)
	j := c.idx[state]
	if c.started && c.prev != state {
		i := c.idx[c.prev]
		for k := 0; k < c.p.Cols(); k++ {
			v := (1 - c.beta) * c.p.At(i, k)
			if k == j {
				v += c.beta
			}
			c.p.Set(i, k, v)
		}
		c.counts.Set(i, j, c.counts.At(i, j)+1)
	} else if c.started {
		i := c.idx[c.prev]
		c.counts.Set(i, j, c.counts.At(i, j)+1)
	}
	c.visits[state]++
	c.prev = state
	c.started = true
	c.steps++
}

// Merge folds state from into state into, mirroring a model-state merge.
func (c *Chain) Merge(into, from int) error {
	if into == from {
		return nil
	}
	ri, ok := c.idx[into]
	if !ok {
		return fmt.Errorf("markov: merge target %d unknown", into)
	}
	rf, ok := c.idx[from]
	if !ok {
		return fmt.Errorf("markov: merge source %d unknown", from)
	}
	wi, wf := c.visits[into], c.visits[from]
	total := wi + wf
	for k := 0; k < c.p.Cols(); k++ {
		var v float64
		if total > 0 {
			v = (c.p.At(ri, k)*wi + c.p.At(rf, k)*wf) / total
		} else {
			v = 0.5*c.p.At(ri, k) + 0.5*c.p.At(rf, k)
		}
		c.p.Set(ri, k, v)
		c.counts.Set(ri, k, c.counts.At(ri, k)+c.counts.At(rf, k))
	}
	c.p.RemoveRow(rf)
	c.counts.RemoveRow(rf)
	c.p.FoldColInto(ri, rf)
	c.counts.FoldColInto(ri, rf)

	delete(c.idx, from)
	c.ids = append(c.ids[:rf], c.ids[rf+1:]...)
	for i := rf; i < len(c.ids); i++ {
		c.idx[c.ids[i]] = i
	}
	c.visits[into] = total
	delete(c.visits, from)
	if c.started && c.prev == from {
		c.prev = into
	}
	return nil
}

// IDs returns the registered state IDs in ascending order.
func (c *Chain) IDs() []int {
	out := append([]int(nil), c.ids...)
	sort.Ints(out)
	return out
}

// Visits returns the visit count of a state.
func (c *Chain) Visits(id int) float64 { return c.visits[id] }

// Steps returns the number of observations folded in.
func (c *Chain) Steps() int { return c.steps }

// Prob returns the estimated transition probability from -> to (zero when
// either state is unknown).
func (c *Chain) Prob(from, to int) float64 {
	i, ok := c.idx[from]
	if !ok {
		return 0
	}
	j, ok := c.idx[to]
	if !ok {
		return 0
	}
	return c.p.At(i, j)
}

// Count returns the raw transition count from -> to.
func (c *Chain) Count(from, to int) float64 {
	i, ok := c.idx[from]
	if !ok {
		return 0
	}
	j, ok := c.idx[to]
	if !ok {
		return 0
	}
	return c.counts.At(i, j)
}

// Transition is one edge of the chain with its estimated probability and raw
// support.
type Transition struct {
	From, To int
	Prob     float64
	Count    float64
}

// Transitions returns every edge with Count > 0 or Prob >= minProb, ordered
// by (From, To). Self-loops with zero count are skipped (they are just the
// identity initialisation).
func (c *Chain) Transitions(minProb float64) []Transition {
	var out []Transition
	for _, from := range c.IDs() {
		i := c.idx[from]
		for _, to := range c.IDs() {
			j := c.idx[to]
			cnt, p := c.counts.At(i, j), c.p.At(i, j)
			if cnt == 0 && (p < minProb || from == to) {
				continue
			}
			out = append(out, Transition{From: from, To: to, Prob: p, Count: cnt})
		}
	}
	return out
}

// StationaryOccupancy returns the empirical state occupancy distribution
// (visit counts normalised), keyed by state ID.
func (c *Chain) StationaryOccupancy() map[int]float64 {
	var total float64
	for _, v := range c.visits {
		total += v
	}
	out := make(map[int]float64, len(c.visits))
	if total == 0 {
		return out
	}
	for id, v := range c.visits {
		out[id] = v / total
	}
	return out
}

// Dot renders the chain in Graphviz dot syntax with the given state labels
// (falling back to the numeric ID), for Fig. 7-style visualisation.
func (c *Chain) Dot(labels map[int]string, minProb float64) string {
	var b strings.Builder
	b.WriteString("digraph chain {\n")
	for _, id := range c.IDs() {
		label := labels[id]
		if label == "" {
			label = fmt.Sprintf("s%d", id)
		}
		fmt.Fprintf(&b, "  s%d [label=%q];\n", id, label)
	}
	for _, tr := range c.Transitions(minProb) {
		fmt.Fprintf(&b, "  s%d -> s%d [label=\"%.2f\"];\n", tr.From, tr.To, tr.Prob)
	}
	b.WriteString("}\n")
	return b.String()
}
