package core

import (
	"sync"

	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// Shared wraps a Detector for concurrent use. The Detector itself is
// single-owner by design (one collector drives it), but a serving system has
// two kinds of callers: the shard worker stepping windows through it, and
// HTTP handlers snapshotting reports, stats, and quarantine sets while the
// stream is live. Shared serialises both behind one mutex so snapshots are
// taken between — never inside — windows.
type Shared struct {
	mu sync.Mutex
	d  *Detector
}

// NewShared wraps a detector. The caller must stop using the bare detector
// afterwards.
func NewShared(d *Detector) *Shared {
	return &Shared{d: d}
}

// Step folds in one observation window.
func (s *Shared) Step(w network.Window) (StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Step(w)
}

// Report runs the structural classification on the current models.
func (s *Shared) Report() (Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Report()
}

// Stats returns a snapshot of the detector's internal counters.
func (s *Shared) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Stats()
}

// Snapshot exports the detector's complete state between windows.
func (s *Shared) Snapshot() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Snapshot()
}

// Quarantined returns the sensors currently excluded from the observable
// estimate, in ascending order.
func (s *Shared) Quarantined() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.Quarantined()
}

// StateAttributes returns the attribute vector of every current model state,
// keyed by state ID.
func (s *Shared) StateAttributes() map[int]vecmat.Vector {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.d.StateAttributes()
}
