package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
)

// TestSharedConcurrentSnapshots steps windows through a Shared detector while
// snapshot callers hammer it from other goroutines — the serve-mode access
// pattern — and checks the outcome matches a plain sequential run.
func TestSharedConcurrentSnapshots(t *testing.T) {
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = 3
	tr, err := gdi.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := network.WindowAll(tr.Readings, time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	plain, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	shared := NewShared(det)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = shared.Stats()
				_, _ = shared.Report()
				_ = shared.Quarantined()
				_ = shared.StateAttributes()
			}
		}()
	}

	for _, w := range windows {
		if _, err := plain.Step(w); err != nil {
			t.Fatal(err)
		}
		if _, err := shared.Step(w); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	want, err := plain.Report()
	if err != nil {
		t.Fatal(err)
	}
	got, err := shared.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("concurrent snapshots perturbed the detector: reports differ from a sequential run")
	}
	if got, want := shared.Stats(), plain.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("stats differ: %+v vs %+v", got, want)
	}
}
