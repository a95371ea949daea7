// Package core wires the paper's full methodology (Fig. 1) into a Detector:
// windowed observations flow through model-state identification (on-line
// clustering), observable/correct state identification, alarm generation and
// filtering, error/attack track management, on-line estimation of the M_CO
// and per-sensor M_CE HMMs and of the M_C/M_O Markov chains, and finally the
// structural classification of §3.4.
package core

import (
	"errors"
	"fmt"
	"time"

	"sensorguard/internal/alarm"
	"sensorguard/internal/classify"
	"sensorguard/internal/cluster"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// Config collects every tunable of the methodology. The defaults mirror
// Table 1 of the paper.
type Config struct {
	// Dim is the attribute dimensionality (2 for the GDI traces).
	Dim int
	// InitialStates seeds the Model State Identification module (the
	// paper's M = 6 initial states, from an offline clustering pass or
	// random).
	InitialStates []vecmat.Vector
	// Window is the observation window duration w. The paper uses 12
	// samples of 5 minutes = 1 hour.
	Window time.Duration
	// Alpha is the model-state learning factor (Table 1: 0.10).
	Alpha float64
	// Beta is the transition-matrix learning factor (Table 1: 0.90).
	Beta float64
	// Gamma is the emission-matrix learning factor (Table 1: 0.90).
	Gamma float64
	// MergeDistance and SpawnDistance drive the clusterer's structural
	// updates (§3.1: merge states too close, spawn for observations too
	// far); CaptureDistance bounds the annulus of ambiguous observations
	// that neither update nor spawn states (see cluster.Config).
	MergeDistance, SpawnDistance, CaptureDistance float64
	// MaxStates caps the model-state count (0 = uncapped).
	MaxStates int
	// FilterK and FilterN parameterise the k-of-n alarm filter.
	FilterK, FilterN int
	// FilterFactory, when non-nil, supplies the alarm filter instead of
	// the k-of-n default — e.g. the SPRT or CUSUM filters of §3.1.
	FilterFactory func() (alarm.Filter, error)
	// MinSensors skips windows with fewer reporting sensors (the
	// majority assumption needs a quorum).
	MinSensors int
	// SnapDeadband snaps the observable state onto the correct state
	// when the overall mean is within this distance margin of a tie
	// between them — Eq. (2)'s argmin is noise-determined at such
	// boundaries. Zero disables snapping.
	SnapDeadband float64
	// QuarantineAfter enables the recovery action the paper motivates
	// (§1: "distinguishing faults from attacks is necessary to initiate a
	// correct recovery action"): once a sensor's track has been open for
	// this many windows and its M_CE diagnoses an accidental error, the
	// sensor's readings stop contributing to the observable-state
	// estimate (Eq. 2). Zero disables quarantine.
	QuarantineAfter int
	// QuarantineCoordinated withholds quarantine when more than this
	// fraction of sensors carry the *same* error diagnosis at once:
	// identical signatures on many sensors are the hallmark of a
	// coordinated attack (e.g. Dynamic Change mimics simultaneous
	// additive faults), which must stay visible in B^CO.
	QuarantineCoordinated float64
	// Classify holds the structural-analysis thresholds.
	Classify classify.Config
	// Metrics, when non-nil, receives the detector's per-window counters,
	// gauges, and stage-latency histograms (see internal/obs). Nil adds no
	// overhead to Step.
	Metrics *obs.Registry
	// Decisions, when non-nil, receives one DecisionRecord per window —
	// the window's stats plus the full provenance of the verdict. Nil
	// skips building the provenance entirely.
	Decisions DecisionSink
}

// DefaultConfig returns the Table 1 configuration for the given initial
// states: w = 1h (12 × 5-minute samples), α = 0.10, and HMM update weights
// β = γ = 0.10, plus the engineering defaults the paper leaves unstated
// (merge/spawn distances scaled to the GDI attribute space, a 4-of-6 alarm
// filter, a 3-sensor quorum).
//
// A note on β and γ: Table 1 lists 0.90 for both, but the paper's own
// emission matrices hold stable mixtures (e.g. the 0.3546/0.6454 split of
// Table 7), which the update b ← (1-γ)b + γδ cannot sustain when each new
// observation carries weight 0.9. We therefore read Table 1's 0.90 as the
// *retention* weight (1-γ) and default the update weight to 0.10, keeping
// the §3.2 update formula exactly as written.
func DefaultConfig(initialStates []vecmat.Vector) Config {
	return Config{
		Dim:                   2,
		InitialStates:         initialStates,
		Window:                time.Hour,
		Alpha:                 0.10,
		Beta:                  0.10,
		Gamma:                 0.10,
		MergeDistance:         4,
		SpawnDistance:         9,
		CaptureDistance:       5,
		MaxStates:             24,
		FilterK:               4,
		FilterN:               6,
		MinSensors:            3,
		SnapDeadband:          1.5,
		QuarantineAfter:       24,
		QuarantineCoordinated: 0.25,
		Classify:              classify.DefaultConfig(),
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error { return c.validate(true) }

// validate checks the configuration; requireSeeds relaxes the initial-state
// requirement for detectors rebuilt from a snapshot, whose model states come
// from the snapshot rather than from InitialStates.
func (c Config) validate(requireSeeds bool) error {
	if c.Dim <= 0 {
		return errors.New("core: dimension must be positive")
	}
	if requireSeeds && len(c.InitialStates) == 0 {
		return errors.New("core: need at least one initial model state")
	}
	for i, s := range c.InitialStates {
		if len(s) != c.Dim {
			return fmt.Errorf("core: initial state %d has dimension %d, want %d", i, len(s), c.Dim)
		}
	}
	if c.Window <= 0 {
		return errors.New("core: window must be positive")
	}
	for _, f := range []float64{c.Alpha, c.Beta, c.Gamma} {
		if f <= 0 || f >= 1 {
			return fmt.Errorf("core: learning factor %v outside (0,1)", f)
		}
	}
	if c.FilterK < 1 || c.FilterN < c.FilterK {
		return fmt.Errorf("core: need 1 <= FilterK <= FilterN, got %d/%d", c.FilterK, c.FilterN)
	}
	if c.MinSensors < 1 {
		return errors.New("core: MinSensors must be at least 1")
	}
	cc := cluster.Config{
		Alpha:           c.Alpha,
		MergeDistance:   c.MergeDistance,
		SpawnDistance:   c.SpawnDistance,
		CaptureDistance: c.CaptureDistance,
		MaxStates:       c.MaxStates,
	}
	return cc.Validate()
}
