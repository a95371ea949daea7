package fleet

import (
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"sensorguard/internal/obs"
)

// This file is the pool's SLO tier: declarative burn-rate specs bound to
// live measurement sources by name, evaluated on a background ticker that
// also polls model drift and publishes per-deployment health gauges.
//
// Sources are cumulative good/bad counters (see obs.SLOSource). Gauge-shaped
// conditions (saturation, staleness, drift) go through obs.ThresholdSource,
// which converts each tick into one good-or-bad event, so their burn rate is
// "fraction of recent time spent over the line" — the natural reading for
// conditions that degrade by lingering rather than by failing requests.

// sloTick is the burn-rate evaluation cadence. Drift polling and
// per-deployment health gauges ride the same tick.
const sloTick = 5 * time.Second

// defaultSLOs returns the burn-rate specs a pool evaluates. Names are the
// binding contract: each maps to a source wired inside the pool (bindSLO).
func defaultSLOs() []obs.SLOSpec {
	return []obs.SLOSpec{
		{
			Name:        "queue-saturation",
			Description: "shard ingest queue over 90% of capacity",
			Severity:    "page",
			Budget:      0.05,
			Fast:        time.Minute,
			Slow:        15 * time.Minute,
			Burn:        4,
		},
		{
			Name:        "checkpoint-staleness",
			Description: "stalest shard checkpoint older than three durability intervals",
			Severity:    "page",
			Budget:      0.1,
			Fast:        2 * time.Minute,
			Slow:        20 * time.Minute,
			Burn:        3,
		},
		{
			Name:        "journal-append-latency",
			Description: "journal group-commit slower than 50ms",
			Severity:    "ticket",
			Budget:      0.01,
			Fast:        5 * time.Minute,
			Slow:        time.Hour,
			Burn:        14.4,
		},
		{
			Name:        "queue-wait-latency",
			Description: "reading queue wait slower than 1s (p99 objective)",
			Severity:    "ticket",
			Budget:      0.01,
			Fast:        5 * time.Minute,
			Slow:        time.Hour,
			Burn:        14.4,
		},
		{
			Name:        "durability-degraded",
			Description: "at least one shard journal breaker open (readings accepted non-durable)",
			Severity:    "page",
			Budget:      0.05,
			Fast:        time.Minute,
			Slow:        15 * time.Minute,
			Burn:        4,
		},
		{
			Name:        "detector-drift",
			Description: "at least one deployment's detector drifting from its learned models",
			Severity:    "ticket",
			Budget:      0.1,
			Fast:        2 * time.Minute,
			Slow:        20 * time.Minute,
			Burn:        3,
		},
	}
}

// sloLatencyBounds are the per-source latency objectives, in seconds.
const (
	journalAppendBound = 0.05
	queueWaitBound     = 1.0
)

// bindSLO maps a spec name to its measurement source.
func (p *Pool) bindSLO(spec obs.SLOSpec) (obs.SLOSource, error) {
	switch spec.Name {
	case "queue-saturation":
		return obs.ThresholdSource(p.maxQueueSaturation, 0.9), nil
	case "checkpoint-staleness":
		interval := time.Duration(0)
		if p.cfg.Durability.Dir != "" {
			interval = p.cfg.Durability.Interval
		}
		if interval <= 0 {
			// Durability (or its interval trigger) is off: nothing can go
			// stale, so the source never produces events and never fires.
			return func() (uint64, uint64) { return 0, 0 }, nil
		}
		return obs.ThresholdSource(p.maxCheckpointAge, 3*interval.Seconds()), nil
	case "journal-append-latency":
		return obs.HistogramLatencySource(p.journalAppend, journalAppendBound), nil
	case "queue-wait-latency":
		return obs.HistogramLatencySource(p.queueWait, queueWaitBound), nil
	case "durability-degraded":
		return obs.ThresholdSource(func() float64 {
			return float64(len(p.degradedShards()))
		}, 0.5), nil
	case "detector-drift":
		return obs.ThresholdSource(func() float64 {
			return float64(len(p.driftingDeployments()))
		}, 0.5), nil
	}
	return nil, fmt.Errorf("fleet: SLO %q has no measurement source", spec.Name)
}

// driftingDeployments lists the deployments whose health tracker currently
// reads drifting, sorted by shard walk order (callers sort when it matters).
func (p *Pool) driftingDeployments() []string {
	var out []string
	for _, s := range p.shards {
		s.mu.RLock()
		for name, d := range s.deployments {
			if d.healthTracker().Drifting() {
				out = append(out, name)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// initSLO builds the engine and binds every configured spec. Called from New
// before the workers start.
func (p *Pool) initSLO() error {
	eng := obs.NewSLOEngine()
	for _, spec := range p.cfg.slos {
		src, err := p.bindSLO(spec)
		if err != nil {
			return err
		}
		if err := eng.Register(spec, src); err != nil {
			return err
		}
	}
	eng.OnTransition = func(a obs.Alert) {
		p.alertEdges.Inc()
		if a.State == obs.AlertFiring && p.cfg.Profiles != nil {
			// A paged alert ships with the profile of the incident: capture
			// runs asynchronously so the SLO ticker is never blocked on a
			// CPU profile.
			p.cfg.Profiles.TriggerCapture("alert-" + a.Name)
		}
		if log := p.cfg.Logger; log != nil {
			if a.State == obs.AlertFiring {
				log.Warn("slo alert firing",
					"alert", a.Name, "severity", a.Severity,
					"fast_burn", a.FastBurn, "slow_burn", a.SlowBurn,
					"burn_threshold", a.Burn, "description", a.Description)
			} else {
				log.Info("slo alert resolved",
					"alert", a.Name, "severity", a.Severity,
					"fast_burn", a.FastBurn, "slow_burn", a.SlowBurn)
			}
		}
	}
	p.slo = eng
	p.sloStop = make(chan struct{})
	p.sloDone = make(chan struct{})
	return nil
}

// runSLO is the pool's health ticker: every sloTick it refreshes model-drift
// telemetry for each live deployment, evaluates the burn-rate alerts, and
// republishes per-deployment health gauges.
func (p *Pool) runSLO() {
	defer close(p.sloDone)
	t := time.NewTicker(p.cfg.sloTick)
	defer t.Stop()
	for {
		select {
		case <-p.sloStop:
			return
		case now := <-t.C:
			p.healthSweep(now)
			p.slo.Tick(now)
		}
	}
}

// stopSLO shuts the ticker goroutine down; safe to call more than once.
func (p *Pool) stopSLO() {
	if p.sloStop == nil {
		return
	}
	p.sloOnce.Do(func() {
		close(p.sloStop)
		<-p.sloDone
	})
}

// healthSweep polls model drift on every bootstrapped deployment (capturing
// the drift baseline on first contact) and publishes per-deployment labeled
// gauges. Runs on the SLO ticker, never the step path; RefreshDrift
// serialises against the shard worker through core.Shared.
func (p *Pool) healthSweep(now time.Time) {
	p.updateBottleneck(now)
	reg := p.cfg.Metrics
	for _, s := range p.shards {
		s.mu.RLock()
		deps := make([]*deployment, 0, len(s.deployments))
		for _, d := range s.deployments {
			deps = append(deps, d)
		}
		s.mu.RUnlock()
		for _, d := range deps {
			ht := d.healthTracker()
			if ht == nil {
				continue
			}
			if det, _ := d.snapshot(); det != nil {
				if drift, ok := det.RefreshDrift(now); ok && p.cfg.Logger != nil && ht.Drifting() {
					p.cfg.Logger.Warn("detector drifting",
						"deployment", d.name,
						"ortho_margin", drift.OrthoMargin,
						"mc_shift", drift.MCShift, "mo_shift", drift.MOShift,
						"reasons", ht.Snapshot().Reasons)
				}
			}
			if reg == nil {
				continue
			}
			snap := ht.Snapshot()
			labels := fmt.Sprintf(`{deployment=%q}`, d.name)
			drifting := 0.0
			if snap.Drifting {
				drifting = 1
			}
			reg.Gauge("fleet_deployment_drifting"+labels,
				"1 when the deployment's health tracker reads drifting").Set(drifting)
			reg.Gauge("fleet_deployment_filtered_alarm_rate"+labels,
				"EWMA filtered alarms per sensor-window").Set(snap.FilteredAlarmRate)
			reg.Gauge("fleet_deployment_raw_alarm_rate"+labels,
				"EWMA raw alarms per sensor-window").Set(snap.RawAlarmRate)
			reg.Gauge("fleet_deployment_ortho_margin"+labels,
				"B^CO row-orthogonality margin vs the classifier threshold").Set(snap.Drift.OrthoMargin)
			reg.Gauge("fleet_deployment_open_tracks"+labels,
				"open diagnosis tracks after the last window").Set(float64(snap.OpenTracks))
		}
	}
	if reg != nil {
		reg.Gauge("fleet_drifting_deployments",
			"deployments whose health tracker currently reads drifting").
			Set(float64(len(p.driftingDeployments())))
		if p.cfg.Durability.Dir != "" {
			reg.Gauge("fleet_degraded_shards",
				"shards whose journal breaker is currently open (serving non-durable)").
				Set(float64(len(p.degradedShards())))
		}
	}
}

// Alerts returns the live evaluation of every registered SLO, firing first.
func (p *Pool) Alerts() []obs.Alert {
	if p.slo == nil {
		return []obs.Alert{}
	}
	return p.slo.Alerts()
}

// HealthSnapshot returns one deployment's drift-telemetry snapshot. It
// returns ErrUnknownDeployment for a deployment never seen and
// ErrBootstrapping before the deployment's detector (and tracker) exist.
func (p *Pool) HealthSnapshot(deployment string) (obs.HealthSnapshot, error) {
	d, err := p.lookup(deployment)
	if err != nil {
		return obs.HealthSnapshot{}, err
	}
	ht := d.healthTracker()
	if ht == nil {
		return obs.HealthSnapshot{}, ErrBootstrapping
	}
	return ht.Snapshot(), nil
}

// BuildInfo identifies the running binary on /status: the module version and
// VCS stamp the Go toolchain embedded at build time.
type BuildInfo struct {
	GoVersion string `json:"go_version"`
	Version   string `json:"version"`
	Revision  string `json:"revision,omitempty"`
	BuildTime string `json:"build_time,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

var (
	buildOnce sync.Once
	buildInfo BuildInfo
)

// Build returns the binary's build identification, resolved once.
func Build() BuildInfo {
	buildOnce.Do(func() {
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			buildInfo = BuildInfo{Version: "unknown"}
			return
		}
		buildInfo = BuildInfo{GoVersion: bi.GoVersion, Version: bi.Main.Version}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				buildInfo.Revision = s.Value
			case "vcs.time":
				buildInfo.BuildTime = s.Value
			case "vcs.modified":
				buildInfo.Modified = s.Value == "true"
			}
		}
	})
	return buildInfo
}
