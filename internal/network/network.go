// Package network simulates the distributed deployment of §3.1: sensor
// nodes periodically sample the environment and send ⟨t, p⟩ messages to a
// single collector node over a lossy radio. The collector partitions the
// delivered observations into time windows of duration w (Eq. 1) for the
// detector.
//
// The link model reproduces the data-quality problems the paper reports on
// the GDI traces: messages can be lost outright (missing packets) or
// delivered malformed (garbage attribute values), which is what makes
// spurious model states appear in the constructed models (§4).
package network

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/env"
	"sensorguard/internal/fault"
	"sensorguard/internal/sensor"
)

// LinkConfig models the radio between nodes and the collector.
type LinkConfig struct {
	// LossProb is the probability a message is lost in transit.
	LossProb float64
	// MalformProb is the probability a delivered message carries garbage
	// attribute values (uniform over the admissible ranges).
	MalformProb float64
	// PerSensorLoss overrides LossProb for specific sensors — real
	// deployments have weak links (distant or obstructed motes).
	PerSensorLoss map[int]float64
}

// Validate reports whether the link probabilities are usable.
func (l LinkConfig) Validate() error {
	if l.LossProb < 0 || l.LossProb > 1 || l.MalformProb < 0 || l.MalformProb > 1 {
		return fmt.Errorf("network: link probabilities (%v, %v) outside [0,1]", l.LossProb, l.MalformProb)
	}
	for id, p := range l.PerSensorLoss {
		if p < 0 || p > 1 {
			return fmt.Errorf("network: sensor %d loss probability %v outside [0,1]", id, p)
		}
	}
	return nil
}

// lossFor returns the loss probability for a sensor.
func (l LinkConfig) lossFor(sensorID int) float64 {
	if p, ok := l.PerSensorLoss[sensorID]; ok {
		return p
	}
	return l.LossProb
}

// Config parameterises a simulated deployment.
type Config struct {
	// Sensors is the number of nodes (the paper's K = 10).
	Sensors int
	// SamplePeriod is the sensing interval (the paper's motes sample
	// every 5 minutes).
	SamplePeriod time.Duration
	// Noise is the per-attribute measurement noise σ of every device.
	Noise []float64
	// Ranges bounds each attribute (also used to draw malformed values).
	Ranges []sensor.Range
	// Link models the radio.
	Link LinkConfig
	// Seed drives every random stream in the deployment.
	Seed int64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sensors <= 0 {
		return errors.New("network: need at least one sensor")
	}
	if c.SamplePeriod <= 0 {
		return errors.New("network: sample period must be positive")
	}
	if len(c.Noise) == 0 {
		return errors.New("network: need at least one attribute")
	}
	if len(c.Ranges) != 0 && len(c.Ranges) != len(c.Noise) {
		return fmt.Errorf("network: %d ranges for %d attributes", len(c.Ranges), len(c.Noise))
	}
	return c.Link.Validate()
}

// Deployment is a reproducible simulated sensor network.
type Deployment struct {
	cfg     Config
	field   env.Field
	devices []*sensor.Device
	faults  *fault.Plan
	attack  attack.Strategy
	link    *rand.Rand
}

// Option customises a deployment.
type Option func(*Deployment)

// WithFaults installs a fault plan: scheduled per-sensor corruptions.
func WithFaults(p *fault.Plan) Option {
	return func(d *Deployment) { d.faults = p }
}

// WithAttack installs an attack strategy: a coordinated adversary that
// rewrites malicious sensors' readings each round.
func WithAttack(s attack.Strategy) Option {
	return func(d *Deployment) { d.attack = s }
}

// New builds a deployment sensing the given environment field.
func New(cfg Config, field env.Field, opts ...Option) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if field.Dim() != len(cfg.Noise) {
		return nil, fmt.Errorf("network: field has %d attributes, config %d", field.Dim(), len(cfg.Noise))
	}
	d := &Deployment{
		cfg:   cfg,
		field: field,
		link:  rand.New(rand.NewSource(cfg.Seed)),
	}
	for i := 0; i < cfg.Sensors; i++ {
		dev, err := sensor.NewDevice(i, cfg.Noise, cfg.Ranges, cfg.Seed+int64(i)+1)
		if err != nil {
			return nil, err
		}
		d.devices = append(d.devices, dev)
	}
	for _, o := range opts {
		o(d)
	}
	return d, nil
}

// Round simulates one sampling instant: every device samples the
// environment, scheduled faults corrupt their owners' readings, the attack
// strategy (if any) rewrites malicious readings with full knowledge of the
// round, and finally the link drops or malforms messages. The returned slice
// contains only the messages the collector actually receives.
func (d *Deployment) Round(t time.Duration) ([]sensor.Reading, error) {
	truth := d.field.At(t)
	round := make([]sensor.Reading, 0, len(d.devices))
	for _, dev := range d.devices {
		r, err := dev.Sample(t, truth)
		if err != nil {
			return nil, fmt.Errorf("sensor %d: %w", dev.ID(), err)
		}
		if d.faults != nil {
			values, transmitted := d.faults.Apply(dev.ID(), t, r.Values)
			if !transmitted {
				continue
			}
			r.Values = values
		}
		round = append(round, r)
	}
	if d.attack != nil {
		round = d.attack.Apply(t, round)
	}

	delivered := round[:0]
	for _, r := range round {
		if d.link.Float64() < d.cfg.Link.lossFor(r.Sensor) {
			continue // missing packet
		}
		if d.link.Float64() < d.cfg.Link.MalformProb {
			r = d.malform(r)
		}
		delivered = append(delivered, r)
	}
	return delivered, nil
}

// malform replaces the message payload with garbage drawn uniformly from the
// admissible ranges (or a wild default when no ranges are configured).
func (d *Deployment) malform(r sensor.Reading) sensor.Reading {
	out := r.Clone()
	for i := range out.Values {
		lo, hi := -1e3, 1e3
		if i < len(d.cfg.Ranges) {
			lo, hi = d.cfg.Ranges[i].Lo, d.cfg.Ranges[i].Hi
		}
		out.Values[i] = lo + d.link.Float64()*(hi-lo)
	}
	return out
}

// Run simulates rounds from start (inclusive) to end (exclusive) at the
// sample period, invoking deliver with each round's delivered messages.
func (d *Deployment) Run(start, end time.Duration, deliver func(t time.Duration, msgs []sensor.Reading) error) error {
	if deliver == nil {
		return errors.New("network: nil deliver callback")
	}
	if end < start {
		return fmt.Errorf("network: end %v before start %v", end, start)
	}
	for t := start; t < end; t += d.cfg.SamplePeriod {
		msgs, err := d.Round(t)
		if err != nil {
			return err
		}
		if err := deliver(t, msgs); err != nil {
			return err
		}
	}
	return nil
}

// SortReadings orders readings by (Time, Sensor) — used to re-sequence
// concurrent deliveries before windowing.
func SortReadings(rs []sensor.Reading) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Time != rs[j].Time {
			return rs[i].Time < rs[j].Time
		}
		return rs[i].Sensor < rs[j].Sensor
	})
}
