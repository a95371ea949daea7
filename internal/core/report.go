package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"sensorguard/internal/classify"
	"sensorguard/internal/cluster"
	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
)

// Report is the detector's diagnosis (Fig. 5): the network-level attack
// analysis of B^CO plus a per-tracked-sensor error analysis of B^CE.
type Report struct {
	// Detected reports whether any error/attack track was ever opened.
	Detected bool
	// Network is the B^CO structural diagnosis.
	Network classify.NetworkDiagnosis
	// Sensors holds one diagnosis per tracked sensor.
	Sensors map[int]classify.SensorDiagnosis
	// Suspects are the sensors with a track open right now.
	Suspects []int
	// States is the final model-state set.
	States []cluster.State
}

// Overall returns the single headline diagnosis: the network-level attack
// kind when one is present, otherwise the most common per-sensor error kind,
// otherwise KindNone. Ties between equally common kinds break toward the
// smaller Kind value (declaration order in classify), so the result is
// deterministic rather than map-iteration-order dependent.
func (r Report) Overall() classify.Kind {
	if r.Network.Kind.IsAttack() {
		return r.Network.Kind
	}
	counts := make(map[classify.Kind]int)
	for _, d := range r.Sensors {
		if d.Kind.IsError() || d.Kind.IsAttack() {
			counts[d.Kind]++
		}
	}
	best, bestCount := classify.KindNone, 0
	for k, c := range counts {
		if c > bestCount || (c == bestCount && bestCount > 0 && k < best) {
			best, bestCount = k, c
		}
	}
	return best
}

// String renders a human-readable summary.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "detected=%v overall=%v network=%v", r.Detected, r.Overall(), r.Network.Kind)
	ids := make([]int, 0, len(r.Sensors))
	for id := range r.Sensors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		fmt.Fprintf(&b, "\nsensor %d: %v", id, r.Sensors[id].Kind)
	}
	return b.String()
}

// Report runs the structural classification on the current models.
func (d *Detector) Report() (Report, error) {
	if d.steps == 0 {
		return Report{}, errors.New("core: no windows processed")
	}
	attrs := d.StateAttributes()
	net, err := classify.Network(d.ModelCO(), attrs, d.cfg.Classify)
	if err != nil {
		return Report{}, fmt.Errorf("network classification: %w", err)
	}
	rep := Report{
		Detected: d.tracks.Opened() > 0,
		Network:  net,
		Sensors:  make(map[int]classify.SensorDiagnosis),
		States:   d.States(),
	}
	for _, id := range d.TrackedSensors() {
		snap, ok := d.ModelCE(id)
		if !ok {
			continue
		}
		diag, err := classify.Sensor(id, snap, attrs, d.ErrorProfile(id), d.cfg.Classify)
		if err != nil {
			if errors.Is(err, classify.ErrNoStates) {
				continue // too little evidence for this sensor
			}
			return Report{}, fmt.Errorf("sensor %d classification: %w", id, err)
		}
		rep.Sensors[id] = diag
	}
	for _, t := range d.tracks.ActiveTracks() {
		rep.Suspects = append(rep.Suspects, t.Sensor)
	}
	return rep, nil
}

// ProcessTrace is a convenience for batch analysis: it windows a complete
// time-ordered trace with the configured window duration and steps the
// detector through every window, returning each step's result.
func (d *Detector) ProcessTrace(readings []sensor.Reading) ([]StepResult, error) {
	windows, err := network.WindowAll(readings, d.cfg.Window)
	if err != nil {
		return nil, err
	}
	out := make([]StepResult, 0, len(windows))
	for _, w := range windows {
		res, err := d.Step(w)
		if err != nil {
			return out, fmt.Errorf("window %d: %w", w.Index, err)
		}
		// Step's result borrows the detector's scratch space; the trace
		// retains every window, so take an independent copy.
		out = append(out, res.Clone())
	}
	return out, nil
}
