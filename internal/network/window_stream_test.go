package network_test

import (
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// TestWindowerDropsLateMessages: the streaming windower at lateness 0 drops
// a reading whose window closed before it arrived, counts it in Late, and
// keeps it out of every later window. WindowAll sorts its input, so it
// never drops; the dropping lives in ingest.Windower.
func TestWindowerDropsLateMessages(t *testing.T) {
	w, err := ingest.NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	reading := func(id int, at time.Duration) sensor.Reading {
		return sensor.Reading{Sensor: id, Time: at, Values: vecmat.Vector{1}}
	}
	w.Add(reading(0, 2*time.Hour))
	if out := w.Add(reading(1, 30*time.Minute)); out != nil {
		t.Errorf("late message emitted windows: %v", out)
	}
	if w.Late() != 1 {
		t.Errorf("Late = %d, want 1", w.Late())
	}
	last := w.Flush()
	if len(last) != 1 || last[0].Index != 2 || len(last[0].Readings) != 1 {
		t.Errorf("late message leaked into a window: %+v", last)
	}
}
