package core

import (
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

// SetHealthTracker installs (or removes) the per-deployment health tracker;
// wired post-construction like SetTracer, because detectors are built behind
// factory hooks that predate the serving layer's trackers.
func (d *Detector) SetHealthTracker(t *obs.HealthTracker) { d.health = t }

// driftBaseline is the post-bootstrap reference the shift metrics compare
// against: each chain's transition rows at capture time.
type driftBaseline struct {
	window int
	mc, mo map[int]map[int]float64 // from → to → prob (only > 0 entries)
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

func chainRows(c *markov.Chain) map[int]map[int]float64 {
	ids := c.IDs()
	rows := make(map[int]map[int]float64, len(ids))
	for _, from := range ids {
		var row map[int]float64
		for _, to := range ids {
			if p := c.Prob(from, to); p > 0 {
				if row == nil {
					row = make(map[int]float64, len(ids))
				}
				row[to] = p
			}
		}
		if row != nil {
			rows[from] = row
		}
	}
	return rows
}

// chainShift measures how far a chain's transition structure has moved from
// its baseline: the mean, over every from-state present in either, of half
// the L1 distance between the transition rows (0 = identical, 1 = disjoint —
// including states that appeared or vanished since the baseline).
func chainShift(c *markov.Chain, base map[int]map[int]float64) float64 {
	now := chainRows(c)
	froms := make(map[int]bool, len(now)+len(base))
	for id := range now {
		froms[id] = true
	}
	for id := range base {
		froms[id] = true
	}
	if len(froms) == 0 {
		return 0
	}
	var total float64
	for from := range froms {
		nrow, brow := now[from], base[from]
		tos := make(map[int]bool, len(nrow)+len(brow))
		for to := range nrow {
			tos[to] = true
		}
		for to := range brow {
			tos[to] = true
		}
		var l1 float64
		for to := range tos {
			d := nrow[to] - brow[to]
			if d < 0 {
				d = -d
			}
			l1 += d
		}
		total += l1 / 2
	}
	return total / float64(len(froms))
}

// ModelDrift computes the polled drift evidence: the largest off-diagonal
// row dot product of B^CO over the active hidden states (vs. the §3.4 row-
// orthogonality threshold the structural classifier uses), and the M_C/M_O
// transition-mass shift vs. the captured baseline. The B^CO part reads M_CO
// in place through the step's §3.4 workspace (Step and RefreshDrift are
// serialised by Shared); the shift part allocates. Call it from a poller,
// not the step path.
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
