// Package fault implements the paper's sensor fault model (§3.3): injectors
// that corrupt a single sensor's readings the way degraded sensor hardware
// does. Each injector is a pure per-sensor transform — accidental errors,
// unlike attacks, have no knowledge of the rest of the network.
//
// The model comprises Stuck-at-Value, Calibration (multiplicative), Additive,
// and Random-Noise errors, plus DecayToStuck, the degradation trajectory the
// paper observes on GDI sensor 6 (a continuously decreasing humidity that
// settles at an almost-zero value and is then classified as stuck-at).
package fault

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sensorguard/internal/vecmat"
)

// Injector corrupts a clean reading vector. Implementations must not retain
// or mutate the input.
type Injector interface {
	// Name identifies the fault type for reports.
	Name() string
	// Apply returns the corrupted reading for a clean sample taken at
	// elapsed time t. sinceOnset is the time elapsed since the fault
	// became active.
	Apply(t, sinceOnset time.Duration, clean vecmat.Vector) vecmat.Vector
}

// StuckAt reports a fixed value regardless of the environment.
type StuckAt struct {
	Value vecmat.Vector
}

var _ Injector = StuckAt{}

// Name implements Injector.
func (StuckAt) Name() string { return "stuck-at" }

// Apply implements Injector.
func (f StuckAt) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	out := clean.Clone()
	for i := range out {
		if i < len(f.Value) {
			out[i] = f.Value[i]
		}
	}
	return out
}

// Calibration multiplies each attribute by a fixed factor.
type Calibration struct {
	Factors vecmat.Vector
}

var _ Injector = Calibration{}

// Name implements Injector.
func (Calibration) Name() string { return "calibration" }

// Apply implements Injector.
func (f Calibration) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	out := clean.Clone()
	for i := range out {
		if i < len(f.Factors) {
			out[i] *= f.Factors[i]
		}
	}
	return out
}

// Additive offsets each attribute by a fixed amount.
type Additive struct {
	Offsets vecmat.Vector
}

var _ Injector = Additive{}

// Name implements Injector.
func (Additive) Name() string { return "additive" }

// Apply implements Injector.
func (f Additive) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	out := clean.Clone()
	for i := range out {
		if i < len(f.Offsets) {
			out[i] += f.Offsets[i]
		}
	}
	return out
}

// RandomNoise adds zero-mean noise with high per-attribute variance.
type RandomNoise struct {
	sigma []float64
	rng   *rand.Rand
}

var _ Injector = (*RandomNoise)(nil)

// NewRandomNoise builds a noise fault with per-attribute standard
// deviations; seed makes the stream reproducible.
func NewRandomNoise(sigma []float64, seed int64) (*RandomNoise, error) {
	if len(sigma) == 0 {
		return nil, errors.New("fault: random noise needs at least one sigma")
	}
	for i, s := range sigma {
		if s < 0 {
			return nil, fmt.Errorf("fault: negative sigma %v for attribute %d", s, i)
		}
	}
	return &RandomNoise{sigma: append([]float64(nil), sigma...), rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Injector.
func (*RandomNoise) Name() string { return "random-noise" }

// Apply implements Injector.
func (f *RandomNoise) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	out := clean.Clone()
	for i := range out {
		if i < len(f.sigma) {
			out[i] += f.rng.NormFloat64() * f.sigma[i]
		}
	}
	return out
}

// DecayToStuck models progressive sensor degradation: readings decay
// exponentially from the true signal toward a floor value and end up stuck
// there — the manifest behaviour of GDI sensor 6 in Fig. 8.
type DecayToStuck struct {
	// Floor is the terminal stuck value per attribute.
	Floor vecmat.Vector
	// TimeConstant is the exponential decay constant τ: after ≈3τ the
	// reading is effectively stuck at Floor.
	TimeConstant time.Duration
}

var _ Injector = DecayToStuck{}

// Name implements Injector.
func (DecayToStuck) Name() string { return "decay-to-stuck" }

// Apply implements Injector.
func (f DecayToStuck) Apply(_, sinceOnset time.Duration, clean vecmat.Vector) vecmat.Vector {
	out := clean.Clone()
	if f.TimeConstant <= 0 {
		for i := range out {
			if i < len(f.Floor) {
				out[i] = f.Floor[i]
			}
		}
		return out
	}
	w := math.Exp(-float64(sinceOnset) / float64(f.TimeConstant))
	for i := range out {
		if i < len(f.Floor) {
			out[i] = f.Floor[i] + (out[i]-f.Floor[i])*w
		}
	}
	return out
}

// Dropper is an optional Injector extension: degraded sensors often stop
// transmitting (field studies note failing sensors manifest anomalies days
// before the electronics die [1]), so a fault may also suppress messages.
type Dropper interface {
	// Drop reports whether the sensor's message at this sample is lost.
	Drop(t, sinceOnset time.Duration) bool
}

// Intermittent drops a fraction of the sensor's messages without altering
// the values of those that survive. It composes with value-corrupting
// injectors in a Plan to model a dying sensor (e.g. DecayToStuck +
// Intermittent reproduces the paper's sensor 6: decreasing readings, thinning
// traffic).
type Intermittent struct {
	rate float64
	rng  *rand.Rand
}

var (
	_ Injector = (*Intermittent)(nil)
	_ Dropper  = (*Intermittent)(nil)
)

// NewIntermittent builds a message-dropping fault with the given drop rate
// in [0,1); seed makes the stream reproducible.
func NewIntermittent(rate float64, seed int64) (*Intermittent, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("fault: drop rate %v outside [0,1)", rate)
	}
	return &Intermittent{rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Name implements Injector.
func (*Intermittent) Name() string { return "intermittent" }

// Apply implements Injector (values pass through unchanged).
func (*Intermittent) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	return clean.Clone()
}

// Drop implements Dropper.
func (f *Intermittent) Drop(_, _ time.Duration) bool {
	return f.rng.Float64() < f.rate
}

// Outage suppresses every message while active — a powered-off mote, a
// firmware reset in progress, or a sensor that left the deployment for good
// (open-ended schedule). Values of messages outside the outage pass through
// unchanged, so one Schedule models a reboot gap and an open-ended one
// models permanent departure. The scenario corpus builds its sensor-churn
// campaigns (join/leave/firmware-reset) from exactly these schedules.
type Outage struct{}

var (
	_ Injector = Outage{}
	_ Dropper  = Outage{}
)

// Name implements Injector.
func (Outage) Name() string { return "outage" }

// Apply implements Injector (values pass through unchanged).
func (Outage) Apply(_, _ time.Duration, clean vecmat.Vector) vecmat.Vector {
	return clean.Clone()
}

// Drop implements Dropper: every message inside the schedule is lost.
func (Outage) Drop(_, _ time.Duration) bool { return true }

// Schedule activates an injector on one sensor during [Start, End). A zero
// End means the fault persists forever.
type Schedule struct {
	Sensor   int
	Injector Injector
	Start    time.Duration
	End      time.Duration
}

// Active reports whether the schedule applies at elapsed time t.
func (s Schedule) Active(t time.Duration) bool {
	if t < s.Start {
		return false
	}
	return s.End == 0 || t < s.End
}

// Plan is a set of fault schedules, applied per sensor in order.
type Plan struct {
	schedules []Schedule
}

// NewPlan validates and assembles a fault plan.
func NewPlan(schedules ...Schedule) (*Plan, error) {
	for i, s := range schedules {
		if s.Injector == nil {
			return nil, fmt.Errorf("fault: schedule %d has nil injector", i)
		}
		if s.Start < 0 || (s.End != 0 && s.End <= s.Start) {
			return nil, fmt.Errorf("fault: schedule %d has invalid interval [%v,%v)", i, s.Start, s.End)
		}
	}
	return &Plan{schedules: append([]Schedule(nil), schedules...)}, nil
}

// Apply corrupts a clean reading according to every schedule active for the
// sensor at time t. It returns the (possibly unchanged) values and whether
// the message is transmitted at all (false when an active Dropper fault
// suppresses it).
func (p *Plan) Apply(sensorID int, t time.Duration, clean vecmat.Vector) (vecmat.Vector, bool) {
	out := clean
	for _, s := range p.schedules {
		if s.Sensor != sensorID || !s.Active(t) {
			continue
		}
		if d, ok := s.Injector.(Dropper); ok && d.Drop(t, t-s.Start) {
			return nil, false
		}
		out = s.Injector.Apply(t, t-s.Start, out)
	}
	return out, true
}
