package network

import (
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func r(sensorID int, t time.Duration) sensor.Reading {
	return sensor.Reading{Sensor: sensorID, Time: t, Values: vecmat.Vector{1}}
}

// TestNewWindowerValidation: WindowAll refuses a window width that is not
// positive, as the offline windower's constructor did.
func TestNewWindowerValidation(t *testing.T) {
	for _, width := range []time.Duration{0, -time.Hour} {
		if _, err := WindowAll([]sensor.Reading{r(0, 0)}, width); err == nil {
			t.Errorf("width %v accepted", width)
		}
	}
	if _, err := WindowAll([]sensor.Reading{r(0, 0)}, time.Hour); err != nil {
		t.Errorf("valid width rejected: %v", err)
	}
}

func TestWindowAllGroupsByWindow(t *testing.T) {
	wins, err := WindowAll([]sensor.Reading{r(0, 10*time.Minute), r(1, 50*time.Minute), r(0, 70*time.Minute)}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("%d windows, want 2", len(wins))
	}
	if win := wins[0]; win.Index != 0 || win.Start != 0 || win.End != time.Hour || len(win.Readings) != 2 {
		t.Errorf("window 0 = %+v", win)
	}
	if win := wins[1]; win.Index != 1 || win.Start != time.Hour || win.End != 2*time.Hour || len(win.Readings) != 1 {
		t.Errorf("window 1 = %+v", win)
	}
	if wins, err := WindowAll(nil, time.Hour); err != nil || wins != nil {
		t.Errorf("empty trace = %v, %v; want no windows", wins, err)
	}
}

// TestWindowAllEmitsEmptyGapWindows: windows between two readings are
// emitted with nil Readings, and each window's Readings is capped at its
// own length, so appending to one cannot overwrite the next window's.
func TestWindowAllEmitsEmptyGapWindows(t *testing.T) {
	wins, err := WindowAll([]sensor.Reading{r(0, 0), r(1, time.Minute), r(0, 3*time.Hour+time.Minute)}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 4 {
		t.Fatalf("%d windows, want 4 (one full, two empty, one full)", len(wins))
	}
	if len(wins[0].Readings) != 2 || wins[1].Readings != nil || wins[2].Readings != nil || len(wins[3].Readings) != 1 {
		t.Errorf("gap windows malformed: %+v", wins)
	}
	for i, win := range wins {
		if win.Index != i {
			t.Errorf("window %d has index %d", i, win.Index)
		}
		if cap(win.Readings) != len(win.Readings) {
			t.Errorf("window %d: cap %d past len %d", i, cap(win.Readings), len(win.Readings))
		}
	}
	_ = append(wins[0].Readings, r(9, 0))
	if wins[3].Readings[0].Sensor != 0 {
		t.Error("append to window 0 overwrote window 3")
	}
}

func TestWindowAllFirstWindowNotZero(t *testing.T) {
	wins, err := WindowAll([]sensor.Reading{r(0, 5*time.Hour)}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 1 || wins[0].Index != 5 {
		t.Errorf("windows = %+v, want one with index 5", wins)
	}
}

func TestWindowAll(t *testing.T) {
	msgs := []sensor.Reading{
		r(0, 70*time.Minute), // out of order on purpose
		r(1, 10*time.Minute),
		r(0, 20*time.Minute),
	}
	wins, err := WindowAll(msgs, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 2 {
		t.Fatalf("windows = %d, want 2", len(wins))
	}
	if len(wins[0].Readings) != 2 || len(wins[1].Readings) != 1 {
		t.Errorf("window sizes = %d,%d", len(wins[0].Readings), len(wins[1].Readings))
	}
	if _, err := WindowAll(msgs, 0); err == nil {
		t.Error("zero width accepted")
	}
}
