package alarm

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewKOfNValidation(t *testing.T) {
	for _, bad := range [][2]int{{0, 3}, {4, 3}, {-1, 5}} {
		if _, err := NewKOfN(bad[0], bad[1]); err == nil {
			t.Errorf("NewKOfN(%d,%d) accepted", bad[0], bad[1])
		}
	}
	if _, err := NewKOfN(2, 3); err != nil {
		t.Errorf("valid k-of-n rejected: %v", err)
	}
}

func TestKOfNRaisesAndClears(t *testing.T) {
	f, err := NewKOfN(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Two alarms are not enough.
	f.Observe(0, true)
	if f.Observe(0, true) {
		t.Error("raised below k")
	}
	// Third alarm in window raises.
	if !f.Observe(0, true) {
		t.Error("did not raise at k alarms")
	}
	// Level holds while enough alarms remain in the window.
	if !f.Observe(0, false) || !f.Observe(0, false) {
		t.Error("cleared too early")
	}
	// Alarms age out of the window: clears.
	if f.Observe(0, false) {
		t.Error("did not clear after alarms aged out")
	}
}

func TestKOfNIndependentPerSensor(t *testing.T) {
	f, _ := NewKOfN(1, 1)
	if !f.Observe(0, true) {
		t.Error("sensor 0 did not raise")
	}
	if f.Observe(1, false) {
		t.Error("sensor 1 raised from sensor 0's state")
	}
}

func TestKOfNSteadyStreams(t *testing.T) {
	f, _ := NewKOfN(8, 10)
	for i := 0; i < 100; i++ {
		if got := f.Observe(0, true); i >= 7 && !got {
			t.Fatalf("solid alarm stream not raised at step %d", i)
		}
		if f.Observe(1, false) {
			t.Fatal("alarm-free stream raised")
		}
	}
}

func TestSPRTFilter(t *testing.T) {
	if _, err := NewSPRTFilter(0.5, 0.4, 0.01, 0.01); err == nil {
		t.Error("invalid SPRT parameters accepted")
	}
	f, err := NewSPRTFilter(0.02, 0.6, 0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// Persistent alarms raise the level and it holds.
	raised := false
	for i := 0; i < 30; i++ {
		raised = f.Observe(0, true)
	}
	if !raised {
		t.Fatal("SPRT filter never raised on solid alarms")
	}
	// Quiet stream eventually clears.
	for i := 0; i < 60; i++ {
		raised = f.Observe(0, false)
	}
	if raised {
		t.Error("SPRT filter never cleared on quiet stream")
	}
}

func TestCUSUMFilter(t *testing.T) {
	if _, err := NewCUSUMFilter(0.5, 0.4, 3, 5); err == nil {
		t.Error("invalid CUSUM parameters accepted")
	}
	if _, err := NewCUSUMFilter(0.02, 0.6, 3, 0); err == nil {
		t.Error("zero clearAfter accepted")
	}
	f, err := NewCUSUMFilter(0.02, 0.6, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	raised := false
	for i := 0; i < 20; i++ {
		raised = f.Observe(0, true)
	}
	if !raised {
		t.Fatal("CUSUM filter never raised")
	}
	// Three quiet steps: still raised (clearAfter = 4).
	for i := 0; i < 3; i++ {
		raised = f.Observe(0, false)
	}
	if !raised {
		t.Error("CUSUM filter cleared before clearAfter quiet steps")
	}
	if f.Observe(0, false) {
		t.Error("CUSUM filter did not clear after clearAfter quiet steps")
	}
}

func TestFiltersSuppressNoise(t *testing.T) {
	// A healthy sensor with the paper's 1.5% raw false-alarm rate must
	// essentially never trip any filter.
	rng := rand.New(rand.NewSource(21))
	kofn, _ := NewKOfN(6, 8)
	sprt, _ := NewSPRTFilter(0.02, 0.6, 0.001, 0.01)
	cusum, _ := NewCUSUMFilter(0.02, 0.6, 8, 4)
	var kTrips, sTrips, cTrips int
	const n = 10000
	for i := 0; i < n; i++ {
		raw := rng.Float64() < 0.015
		if kofn.Observe(0, raw) {
			kTrips++
		}
		if sprt.Observe(0, raw) {
			sTrips++
		}
		if cusum.Observe(0, raw) {
			cTrips++
		}
	}
	if kTrips > 0 {
		t.Errorf("k-of-n tripped %d times on healthy noise", kTrips)
	}
	if sTrips > n/100 {
		t.Errorf("SPRT level active %d/%d steps on healthy noise", sTrips, n)
	}
	if cTrips > n/100 {
		t.Errorf("CUSUM level active %d/%d steps on healthy noise", cTrips, n)
	}
}

func TestStats(t *testing.T) {
	s := NewStats()
	s.Record(0, true, false)
	s.Record(0, false, false)
	s.Record(0, true, true)
	s.Record(1, false, false)

	if s.Steps(0) != 3 || s.raw[0] != 2 {
		t.Errorf("steps/raw = %d/%d", s.Steps(0), s.raw[0])
	}
	if math.Abs(s.RawRate(0)-2.0/3.0) > 1e-12 {
		t.Errorf("RawRate = %v", s.RawRate(0))
	}
	if math.Abs(s.FilteredRate(0)-1.0/3.0) > 1e-12 {
		t.Errorf("FilteredRate = %v", s.FilteredRate(0))
	}
	if s.RawRate(9) != 0 || s.FilteredRate(9) != 0 {
		t.Error("unknown sensor rates must be 0")
	}
}
