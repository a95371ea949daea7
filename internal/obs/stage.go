package obs

import (
	"fmt"
	"sort"
	"time"
)

// StageClock accumulates busy time and processed units for one pipeline
// stage. Observations are counter adds, so a time-series sampler (or the
// StageSet utilization computation) can take reset-free deltas over any
// window. Nil-safe like the rest of the metric types.
type StageClock struct {
	busy  *Counter // busy nanoseconds
	units *Counter // units processed (readings, batches, checkpoints…)
}

// Observe accumulates d of busy time covering n processed units. Sampled
// call sites (timing 1-in-k operations) should pre-scale: Observe(k*d, k).
func (c *StageClock) Observe(d time.Duration, n uint64) {
	if c == nil {
		return
	}
	if d > 0 {
		c.busy.Add(uint64(d))
	}
	c.units.Add(n)
}

// StageUtilization is one stage's share of wall time over a sampling window:
// Utilization 1.0 means one core's worth of busy time; parallel stages can
// exceed 1.0.
type StageUtilization struct {
	Stage       string  `json:"stage"`
	Utilization float64 `json:"utilization"`
	BusySeconds float64 `json:"busy_seconds"`
	Units       uint64  `json:"units"`
}

// StageSet owns the clocks for a fixed set of pipeline stages, registered as
// fleet_stage_busy_ns_total{stage="..."} and fleet_stage_units_total{stage="..."}
// counters, and computes utilization deltas between snapshots for bottleneck
// attribution.
type StageSet struct {
	names  []string
	clocks map[string]*StageClock
}

// NewStageSet registers busy/units counters for each named stage.
func NewStageSet(reg *Registry, stages ...string) *StageSet {
	s := &StageSet{clocks: make(map[string]*StageClock, len(stages))}
	for _, name := range stages {
		labels := fmt.Sprintf("{stage=%q}", name)
		s.names = append(s.names, name)
		s.clocks[name] = &StageClock{
			busy: reg.Counter("fleet_stage_busy_ns_total"+labels,
				"Cumulative busy nanoseconds attributed to this pipeline stage."),
			units: reg.Counter("fleet_stage_units_total"+labels,
				"Cumulative units of work processed by this pipeline stage."),
		}
	}
	sort.Strings(s.names)
	return s
}

// Clock returns the clock for a stage, or nil for unknown stages (safe to
// Observe on).
func (s *StageSet) Clock(stage string) *StageClock {
	if s == nil {
		return nil
	}
	return s.clocks[stage]
}

// StageSnapshot is the cumulative counter state of every stage at an instant.
type StageSnapshot struct {
	At     time.Time
	BusyNS map[string]uint64
	Units  map[string]uint64
}

// Snapshot reads every stage's cumulative counters.
func (s *StageSet) Snapshot(now time.Time) StageSnapshot {
	snap := StageSnapshot{
		At:     now,
		BusyNS: make(map[string]uint64, len(s.names)),
		Units:  make(map[string]uint64, len(s.names)),
	}
	for name, c := range s.clocks {
		snap.BusyNS[name] = c.busy.Value()
		snap.Units[name] = c.units.Value()
	}
	return snap
}

// Utilization computes per-stage utilization between two snapshots, sorted by
// descending utilization then name. A non-positive wall interval returns nil.
func (s *StageSet) Utilization(prev, cur StageSnapshot) []StageUtilization {
	wall := cur.At.Sub(prev.At).Seconds()
	if wall <= 0 {
		return nil
	}
	out := make([]StageUtilization, 0, len(s.names))
	for _, name := range s.names {
		busy := float64(cur.BusyNS[name]-prev.BusyNS[name]) / 1e9
		out = append(out, StageUtilization{
			Stage:       name,
			Utilization: busy / wall,
			BusySeconds: busy,
			Units:       cur.Units[name] - prev.Units[name],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Utilization != out[j].Utilization {
			return out[i].Utilization > out[j].Utilization
		}
		return out[i].Stage < out[j].Stage
	})
	return out
}
