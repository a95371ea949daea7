package core

import (
	"math"
	"time"

	"sensorguard/internal/markov"
	"sensorguard/internal/obs"
)

// This file feeds the detector's own evidence into the obs.HealthTracker
// drift telemetry. Two cost tiers, matching the tracker's split: every Step
// folds the window's obs.WindowStats (counts the step already produced — no
// allocation, a few dozen nanoseconds), while ModelDrift inspects the learned
// models (B^CO orthogonality, M_C/M_O transition mass) and is meant to be
// called from a background poller, never the step path.

// SetHealthTracker installs (or removes) the per-deployment health tracker.
// The serving layer installs one on every detector it builds or restores.
func (d *Detector) SetHealthTracker(t *obs.HealthTracker) { d.health = t }

// driftBaseline is the post-bootstrap reference the shift metrics compare
// against: each chain's transition rows at capture time.
type driftBaseline struct {
	window int
	mc, mo []transition
}

// transition is one positive entry of a chain's transition matrix.
type transition struct {
	from, to int
	p        float64
}

// before orders transitions by (from, to).
func (a transition) before(b transition) bool {
	return a.from < b.from || a.from == b.from && a.to < b.to
}

// CaptureDriftBaseline records the current M_C/M_O transition structure as
// the drift reference. The fleet calls it (via EnsureDriftBaseline) once a
// detector is live; recapturing replaces the reference.
func (d *Detector) CaptureDriftBaseline() {
	d.driftBase = &driftBaseline{
		window: d.steps,
		mc:     chainRows(d.mc),
		mo:     chainRows(d.mo),
	}
}

// EnsureDriftBaseline captures the baseline once the detector has processed
// at least one window; reports whether a baseline now exists.
func (d *Detector) EnsureDriftBaseline() bool {
	if d.driftBase == nil && d.steps > 0 {
		d.CaptureDriftBaseline()
	}
	return d.driftBase != nil
}

// chainRows lists the chain's positive transition probabilities in
// ascending (from, to) ID order.
func chainRows(c *markov.Chain) []transition {
	ids := c.IDs()
	var out []transition
	for _, from := range ids {
		for _, to := range ids {
			if p := c.Prob(from, to); p > 0 {
				out = append(out, transition{from, to, p})
			}
		}
	}
	return out
}

// chainShift measures how far a chain's transition structure has moved from
// its baseline: the mean, over every from-state with a positive row entry in
// either, of half the L1 distance between the transition rows (0 =
// identical, 1 = disjoint — including states that appeared or vanished since
// the baseline). It merges the two (from, to)-ordered lists, so every sum
// runs in ascending ID order and repeated polls agree bit for bit.
func chainShift(c *markov.Chain, base []transition) float64 {
	now := chainRows(c)
	var total, l1 float64
	froms, from := 0, 0
	for i, j := 0, 0; i < len(now) || j < len(base); {
		var e transition
		var d float64
		switch {
		case j == len(base) || i < len(now) && now[i].before(base[j]):
			e, d = now[i], now[i].p
			i++
		case i == len(now) || base[j].before(now[i]):
			e, d = base[j], base[j].p
			j++
		default:
			e, d = now[i], math.Abs(now[i].p-base[j].p)
			i, j = i+1, j+1
		}
		if froms == 0 || e.from != from {
			total += l1 / 2
			l1, from = 0, e.from
			froms++
		}
		l1 += d
	}
	if froms == 0 {
		return 0
	}
	total += l1 / 2
	return total / float64(froms)
}

// ModelDrift computes the polled drift evidence: the largest off-diagonal
// row dot product of B^CO over the active hidden states (vs. the §3.4 row-
// orthogonality threshold the structural classifier uses), and the M_C/M_O
// transition-mass shift vs. the captured baseline. The B^CO part reads M_CO
// in place through the step's §3.4 workspace (Step and RefreshDrift are
// serialised by Shared); the shift part allocates one list per chain. Call
// it from a poller, not the step path.
func (d *Detector) ModelDrift() obs.ModelDrift {
	cfg := d.cfg.Classify
	out := obs.ModelDrift{
		OrthoMaxDot: d.scratch.network.MaxRowDot(d.mco.EmissionView(), cfg.MinStateShare),
	}
	out.OrthoMargin = cfg.NetRowOrtho.MaxOffDiag - out.OrthoMaxDot
	if d.driftBase != nil {
		out.BaselineWindow = d.driftBase.window
		out.MCShift = chainShift(d.mc, d.driftBase.mc)
		out.MOShift = chainShift(d.mo, d.driftBase.mo)
	}
	return out
}

// RefreshDrift is the poller entry point on a live detector: it arms the
// baseline if needed, computes ModelDrift, and publishes it to the health
// tracker. No-op without a tracker or before the first processed window.
func (s *Shared) RefreshDrift(at time.Time) (obs.ModelDrift, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.d.health == nil || !s.d.EnsureDriftBaseline() {
		return obs.ModelDrift{}, false
	}
	drift := s.d.ModelDrift()
	s.d.health.SetDrift(drift, at)
	return drift, true
}
