package core

import (
	"testing"
	"time"

	"sensorguard/internal/classify"
	"sensorguard/internal/env"
	"sensorguard/internal/fault"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// TestStreamingOperation drives the detector the way a live collector would:
// rounds arrive one at a time from the deployment, the windower closes
// windows as time advances, and each closed window is stepped immediately —
// no batch ProcessTrace. The diagnosis must match the batch path.
func TestStreamingOperation(t *testing.T) {
	plan, err := fault.NewPlan(fault.Schedule{
		Sensor:   6,
		Injector: fault.StuckAt{Value: vecmat.Vector{15, 1}},
		Start:    2 * 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	field, err := env.GDIProfile(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	dep, err := network.New(network.Config{
		Sensors:      10,
		SamplePeriod: 5 * time.Minute,
		Noise:        []float64{0.4, 1.0},
		Ranges:       gdi.Ranges(),
		Link:         network.LinkConfig{LossProb: 0.12, MalformProb: 0.002},
		Seed:         1,
	}, field, network.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}

	det, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := ingest.NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}

	stepWindows := 0
	deliver := func(_ time.Duration, msgs []sensor.Reading) error {
		for _, m := range msgs {
			for _, w := range wd.Add(m) {
				if _, err := det.Step(w); err != nil {
					return err
				}
				stepWindows++
			}
		}
		return nil
	}
	if err := dep.Run(0, 10*24*time.Hour, deliver); err != nil {
		t.Fatal(err)
	}
	for _, w := range wd.Flush() {
		if _, err := det.Step(w); err != nil {
			t.Fatal(err)
		}
		stepWindows++
	}

	if stepWindows < 235 {
		t.Fatalf("streamed %d windows, want ~240", stepWindows)
	}
	rep, err := det.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Detected {
		t.Fatal("streaming run did not detect the fault")
	}
	if diag, ok := rep.Sensors[6]; !ok || diag.Kind != classify.KindStuckAt {
		t.Errorf("streaming diagnosis = %+v, want stuck-at on sensor 6", rep.Sensors)
	}
	if rep.Network.Kind.IsAttack() {
		t.Errorf("streaming network kind = %v", rep.Network.Kind)
	}
}

// TestStreamingMatchesBatch verifies that the streamed path and the batch
// ProcessTrace path produce the same per-window decisions on the same trace.
func TestStreamingMatchesBatch(t *testing.T) {
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = 4
	tr, err := gdi.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	batchSteps, err := batch.ProcessTrace(tr.Readings)
	if err != nil {
		t.Fatal(err)
	}

	stream, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	wd, err := ingest.NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	var streamSteps []StepResult
	for _, r := range tr.Readings {
		for _, w := range wd.Add(r) {
			res, err := stream.Step(w)
			if err != nil {
				t.Fatal(err)
			}
			streamSteps = append(streamSteps, res.Clone())
		}
	}
	for _, w := range wd.Flush() {
		res, err := stream.Step(w)
		if err != nil {
			t.Fatal(err)
		}
		streamSteps = append(streamSteps, res.Clone())
	}

	if len(batchSteps) != len(streamSteps) {
		t.Fatalf("window counts differ: batch %d vs stream %d", len(batchSteps), len(streamSteps))
	}
	for i := range batchSteps {
		b, s := batchSteps[i], streamSteps[i]
		if b.Observable != s.Observable || b.Correct != s.Correct || b.Skipped != s.Skipped {
			t.Fatalf("window %d diverged: batch (o=%d c=%d skip=%v) vs stream (o=%d c=%d skip=%v)",
				i, b.Observable, b.Correct, b.Skipped, s.Observable, s.Correct, s.Skipped)
		}
	}
}
