package obs

import (
	"testing"
	"time"
)

func TestStageClockObserve(t *testing.T) {
	reg := NewRegistry()
	s := NewStageSet(reg, "decode", "step")
	c := s.Clock("decode")
	c.Observe(5*time.Millisecond, 3)
	c.Observe(0, 1) // zero duration still counts the unit
	snap := s.Snapshot(time.Now())
	if got := snap.BusyNS["decode"]; got != uint64(5*time.Millisecond) {
		t.Fatalf("busy = %d, want %d", got, 5*time.Millisecond)
	}
	if got := snap.Units["decode"]; got != 4 {
		t.Fatalf("units = %d, want 4", got)
	}
	// Unknown stage and nil clock are safe.
	s.Clock("nope").Observe(time.Second, 1)
	var nilClock *StageClock
	nilClock.Observe(time.Second, 1)
}

// TestStageUtilization pins the delta computation: busy seconds between two
// snapshots divided by the wall interval, sorted busiest first.
func TestStageUtilization(t *testing.T) {
	reg := NewRegistry()
	s := NewStageSet(reg, "a", "b")
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	prev := s.Snapshot(t0)
	s.Clock("a").Observe(250*time.Millisecond, 10)
	s.Clock("b").Observe(750*time.Millisecond, 2)
	cur := s.Snapshot(t0.Add(time.Second))
	u := s.Utilization(prev, cur)
	if len(u) != 2 {
		t.Fatalf("got %d stages", len(u))
	}
	if u[0].Stage != "b" || u[0].Utilization != 0.75 || u[0].Units != 2 {
		t.Fatalf("u[0] = %+v, want stage b at 0.75", u[0])
	}
	if u[1].Stage != "a" || u[1].Utilization != 0.25 {
		t.Fatalf("u[1] = %+v, want stage a at 0.25", u[1])
	}
	// Non-positive wall interval yields nil rather than dividing by zero.
	if got := s.Utilization(cur, cur); got != nil {
		t.Fatalf("zero-wall utilization = %+v, want nil", got)
	}
}

// TestStageSetMetricsExported checks the stage counters surface through the
// registry's sample enumeration, which is what the time-series store scrapes.
func TestStageSetMetricsExported(t *testing.T) {
	reg := NewRegistry()
	s := NewStageSet(reg, "decode")
	s.Clock("decode").Observe(time.Millisecond, 7)
	var busy, units bool
	for _, sm := range reg.Samples() {
		switch sm.Name {
		case `fleet_stage_busy_ns_total{stage="decode"}`:
			busy = sm.Kind == KindCounter && sm.Value == float64(time.Millisecond)
		case `fleet_stage_units_total{stage="decode"}`:
			units = sm.Kind == KindCounter && sm.Value == 7
		}
	}
	if !busy || !units {
		t.Fatalf("stage counters not exported correctly (busy=%v units=%v)", busy, units)
	}
}
