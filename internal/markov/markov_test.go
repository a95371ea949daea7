package markov

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mustChain(t *testing.T) *Chain {
	t.Helper()
	c, err := NewChain(0.9)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return c
}

func TestNewChainValidation(t *testing.T) {
	for _, beta := range []float64{0, 1, -0.5, 2} {
		if _, err := NewChain(beta); err == nil {
			t.Errorf("NewChain(%v) accepted", beta)
		}
	}
}

func TestObserveLearnsCycle(t *testing.T) {
	c := mustChain(t)
	for i := 0; i < 30; i++ {
		c.Observe(i % 3)
	}
	// 0 -> 1 -> 2 -> 0 must dominate.
	if p := c.Prob(0, 1); p < 0.9 {
		t.Errorf("Prob(0,1) = %v, want near 1", p)
	}
	if p := c.Prob(1, 2); p < 0.9 {
		t.Errorf("Prob(1,2) = %v, want near 1", p)
	}
	if p := c.Prob(2, 0); p < 0.9 {
		t.Errorf("Prob(2,0) = %v, want near 1", p)
	}
	if got := c.Count(0, 1); got != 10 {
		t.Errorf("Count(0,1) = %v, want 10", got)
	}
	if c.Steps() != 30 {
		t.Errorf("Steps = %d", c.Steps())
	}
}

func TestProbUnknownStates(t *testing.T) {
	c := mustChain(t)
	c.Observe(1)
	if c.Prob(1, 99) != 0 || c.Prob(99, 1) != 0 {
		t.Error("Prob with unknown states must be 0")
	}
	if c.Count(1, 99) != 0 || c.Count(99, 1) != 0 {
		t.Error("Count with unknown states must be 0")
	}
}

func TestSelfLoopCountsButKeepsRow(t *testing.T) {
	c := mustChain(t)
	c.Observe(0)
	c.Observe(0)
	c.Observe(0)
	// Self transitions are counted but do not trigger the EWMA update.
	if got := c.Count(0, 0); got != 2 {
		t.Errorf("Count(0,0) = %v, want 2", got)
	}
	if p := c.Prob(0, 0); p != 1 {
		t.Errorf("Prob(0,0) = %v, want identity 1", p)
	}
}

func TestRowsStayStochasticProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c, err := NewChain(0.6)
		if err != nil {
			return false
		}
		for i := 0; i < 300; i++ {
			if rng.Intn(20) == 0 {
				ids := c.IDs()
				if len(ids) >= 2 {
					a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
					if a != b {
						if err := c.Merge(a, b); err != nil {
							return false
						}
					}
				}
			}
			c.Observe(rng.Intn(7))
			// Check row stochasticity via Prob sums.
			for _, from := range c.IDs() {
				var s float64
				for _, to := range c.IDs() {
					p := c.Prob(from, to)
					if p < -1e-9 {
						return false
					}
					s += p
				}
				if math.Abs(s-1) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestMerge(t *testing.T) {
	c := mustChain(t)
	seq := []int{0, 1, 0, 1, 2, 0}
	for _, s := range seq {
		c.Observe(s)
	}
	if err := c.Merge(1, 2); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != 0 || ids[1] != 1 {
		t.Errorf("IDs after merge = %v, want [0 1]", ids)
	}
	if got := c.Visits(1); got != 3 {
		t.Errorf("merged visits = %v, want 3", got)
	}
	if err := c.Merge(1, 42); err == nil {
		t.Error("merge of unknown source accepted")
	}
	if err := c.Merge(42, 1); err == nil {
		t.Error("merge of unknown target accepted")
	}
	if err := c.Merge(1, 1); err != nil {
		t.Errorf("self merge should be a no-op: %v", err)
	}
}

func TestTransitionsFiltersIdentityNoise(t *testing.T) {
	c := mustChain(t)
	c.Observe(0)
	c.Observe(1)
	trs := c.Transitions(0.5)
	// Identity self-loops with zero counts must not be reported; the only
	// supported edge is 0->1 plus state 1's identity row (prob 1, count 0)
	// filtered because it is a self loop.
	if len(trs) != 1 || trs[0].From != 0 || trs[0].To != 1 {
		t.Errorf("Transitions = %+v, want only 0->1", trs)
	}
}

func TestStationaryOccupancy(t *testing.T) {
	c := mustChain(t)
	for _, s := range []int{0, 0, 0, 1} {
		c.Observe(s)
	}
	occ := c.StationaryOccupancy()
	if math.Abs(occ[0]-0.75) > 1e-12 || math.Abs(occ[1]-0.25) > 1e-12 {
		t.Errorf("occupancy = %v", occ)
	}
	empty := mustChain(t)
	if len(empty.StationaryOccupancy()) != 0 {
		t.Error("empty chain occupancy should be empty")
	}
}

func TestDot(t *testing.T) {
	c := mustChain(t)
	c.Observe(0)
	c.Observe(1)
	dot := c.Dot(map[int]string{0: "(12,94)"}, 0.5)
	for _, want := range []string{"digraph chain", `s0 [label="(12,94)"]`, "s0 -> s1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q:\n%s", want, dot)
		}
	}
}
