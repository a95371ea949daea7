package core

import (
	"fmt"
	"runtime"
	"testing"

	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// BenchmarkStep measures single-window pipeline latency — the quantity that
// determines how large a deployment one collector can serve. One window of
// 10 sensors × 12 samples.

// benchWindows prebuilds one window per key state so the timed loops below
// measure Step alone, not fixture construction. Callers stamp the real
// ordinal onto a copy of the ring entry (a stack copy, no allocation).
func benchWindows(n int) []network.Window {
	points := keyStates()
	wins := make([]network.Window, len(points))
	for i := range wins {
		wins[i] = uniformWindow(i, n, points[i])
	}
	return wins
}

func BenchmarkStep(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepInstrumented is BenchmarkStep with a metrics registry
// attached. Comparing against BenchmarkStep measures the metrics overhead,
// which must stay within noise of the uninstrumented baseline.
func BenchmarkStepInstrumented(b *testing.B) {
	cfg := DefaultConfig(keyStates())
	cfg.Metrics = obs.NewRegistry()
	d, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepHealthTracker is BenchmarkStep with a per-deployment health
// tracker attached — the always-on fleet configuration. Comparing against
// BenchmarkStep gives the drift-telemetry overhead, which the health tier
// budgets at < 5% (see TestStepHealthOverhead).
func BenchmarkStepHealthTracker(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	d.SetHealthTracker(obs.NewHealthTracker())
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepWithTrackedSensor adds an alarming outlier so the alarm,
// track, M_CE, and profile paths are all exercised.
func BenchmarkStepWithTrackedSensor(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	outlier := make([][]vecmat.Vector, 4)
	for v := range outlier {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = keyStates()[v]
		}
		bySensor[9] = vecmat.Vector{45, 20}
		outlier[v] = bySensor
	}
	wins := make([]network.Window, 4)
	for v := range wins {
		wins[v] = window(v, outlier[v])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepTraced is BenchmarkStep with a tracer attached and every
// window carrying a freshly minted sampled context — the worst case, where
// each window emits a root span plus five stage spans. Comparing against
// BenchmarkStep gives the sampled-on tracing overhead for EXPERIMENTS.md.
func BenchmarkStepTraced(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	d.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1}))
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		w.Trace = obs.NewRootContext()
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepTracerIdle has a tracer attached but no sampled context on
// any window — the common case under 1/N sampling. It must track
// BenchmarkStep within noise: an idle tracer costs one nil check.
func BenchmarkStepTracerIdle(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	d.SetTracer(obs.NewTracer(obs.TracerConfig{SampleEvery: 1}))
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepWithDecisions measures the decision-record path: every window
// assembles a full DecisionRecord (including the B^CO structural evidence)
// into a ring sink.
func BenchmarkStepWithDecisions(b *testing.B) {
	cfg := DefaultConfig(keyStates())
	cfg.Decisions = NewDecisionRing(256)
	d, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepServing is BenchmarkStep with the hooks the serving fleet
// attaches to every deployment by default: a 256-record decision ring, a
// health tracker, an idle tracer, and the detector_step stage clock.
// Comparing against BenchmarkStep prices serving-mode observability as one
// number.
func BenchmarkStepServing(b *testing.B) {
	tracer, clock := servingHooks()
	d := servingDetector(b, DefaultConfig(keyStates()), tracer, clock)
	wins := benchWindows(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := wins[i%4]
		w.Index = i
		if _, err := d.Step(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepFleet prices the serving step on perfbench's traffic shape,
// which one hot detector over uniform windows (BenchmarkStepServing)
// under-prices: 64 generated GDI deployments (seeds 1..64, 6 days,
// bootstrapped as gdiInput does) with BenchmarkStepServing's hooks, stepped
// round-robin one window each, as a shard interleaves its deployments. Each
// detector first replays its trace twice, so every ring has wrapped; a
// deployment past its last window replays it from the start. One op is one
// window.
func BenchmarkStepFleet(b *testing.B) {
	const deployments, days, warm = 64, 6, 2
	tracer, clock := servingHooks()
	dets := make([]*Detector, deployments)
	wins := make([][]network.Window, deployments)
	for dep := range dets {
		var cfg Config
		cfg, wins[dep] = gdiInput(b, days, int64(dep+1))
		dets[dep] = servingDetector(b, cfg, tracer, clock)
	}
	next := make([]int, deployments) // each deployment's next window ordinal
	step := func(dep int) {
		ws := wins[dep]
		w := ws[next[dep]%len(ws)]
		w.Index = next[dep]
		next[dep]++
		if _, err := dets[dep].Step(w); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < warm*len(wins[0])*deployments; i++ {
		step(i % deployments)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i % deployments)
	}
}

// servingHooks returns the pool-wide hooks of a serving fleet: one idle
// tracer and one detector_step stage clock shared by every deployment.
func servingHooks() (*obs.Tracer, *obs.StageClock) {
	return obs.NewTracer(obs.TracerConfig{SampleEvery: 16}),
		obs.NewStageSet(obs.NewRegistry(), "detector_step").Clock("detector_step")
}

// servingDetector builds a detector with the per-deployment hooks the
// serving fleet attaches: a 256-record decision ring and a health tracker,
// plus the shared tracer and step clock.
func servingDetector(b *testing.B, cfg Config, tracer *obs.Tracer, clock *obs.StageClock) *Detector {
	cfg.Decisions = NewDecisionRing(256)
	d, err := NewDetector(cfg)
	if err != nil {
		b.Fatal(err)
	}
	d.SetTracer(tracer)
	d.SetHealthTracker(obs.NewHealthTracker())
	d.SetStepClock(clock)
	return d
}

// BenchmarkDecisionRingRetained prices the decision rings' memory on
// perfbench's traffic shape: 64 generated GDI deployments (seeds 1..64,
// bootstrapped as gdiInput does) step through detectors that each record
// into a 256-record ring, the serving default. It reports the live heap the
// rings keep once the detectors are gone, per retained record and per
// deployment. At days=6, perfbench's trace length, each ring holds 144
// records and has never wrapped; at days=16 each has taken 384 and evicted
// 128, so the figure includes the room a full ring's arena keeps for
// moving its live records down.
func BenchmarkDecisionRingRetained(b *testing.B) {
	for _, days := range []int{6, 16} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			const deployments = 64
			cfgs := make([]Config, deployments)
			wins := make([][]network.Window, deployments)
			for dep := range cfgs {
				cfgs[dep], wins[dep] = gdiInput(b, days, int64(dep+1))
			}
			var perRecord, perDeployment float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rings := make([]*DecisionRing, deployments)
				before := liveHeap()
				records := 0
				for dep := range rings {
					rings[dep] = NewDecisionRing(256)
					cfg := cfgs[dep]
					cfg.Decisions = rings[dep]
					d, err := NewDetector(cfg)
					if err != nil {
						b.Fatal(err)
					}
					for _, w := range wins[dep] {
						if _, err := d.Step(w); err != nil {
							b.Fatal(err)
						}
					}
					records += rings[dep].Len()
				}
				retained := float64(liveHeap() - before)
				perRecord, perDeployment = retained/float64(records), retained/deployments
				runtime.KeepAlive(rings)
			}
			b.ReportMetric(perRecord, "B/record")
			b.ReportMetric(perDeployment/1024, "KiB/deployment")
		})
	}
}

// liveHeap returns the heap bytes still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkReport measures the full structural classification.
func BenchmarkReport(b *testing.B) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		bySensor := make([]vecmat.Vector, 10)
		for s := 0; s < 9; s++ {
			bySensor[s] = keyStates()[i%4]
		}
		bySensor[9] = vecmat.Vector{45, 20}
		if _, err := d.Step(window(i, bySensor)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Report(); err != nil {
			b.Fatal(err)
		}
	}
}
