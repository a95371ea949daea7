package network

import (
	"errors"
	"time"

	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
)

// Window is one completed observation set O_i (Eq. 1): all messages whose
// timestamps fall in [w·(i-1), w·i).
type Window struct {
	// Index is the window ordinal i (0-based).
	Index int
	// Start and End bound the window.
	Start, End time.Duration
	// Readings are the delivered messages in arrival order.
	Readings []sensor.Reading
	// Trace carries the span context of a sampled reading admitted to this
	// window, linking the detector's stage spans back to the ingest trace.
	// The zero value (the common case) means no sampled reading landed
	// here and the detector records no spans for the window.
	Trace obs.SpanContext
}

// WindowIndex returns the ordinal of the window containing t for the given
// window duration.
func WindowIndex(t, width time.Duration) int {
	return int(t / width)
}

// BuildWindow assembles the Window with ordinal idx for the given window
// duration. It is the single place window bounds are derived from an index,
// shared by WindowAll here and the streaming windower in internal/ingest.
func BuildWindow(idx int, width time.Duration, readings []sensor.Reading) Window {
	return Window{
		Index:    idx,
		Start:    time.Duration(idx) * width,
		End:      time.Duration(idx+1) * width,
		Readings: readings,
	}
}

// WindowAll partitions a complete message trace into the windows of Eq. (1).
// It sorts a copy of the trace with SortReadings and cuts the copy at window
// boundaries, from the first reading's window through the last reading's.
// Gap windows in between are emitted with nil Readings, so indices stay
// contiguous. Each window's Readings is a sub-slice of the sorted copy capped
// at its own length, so an append to one window cannot spill into the next.
func WindowAll(readings []sensor.Reading, width time.Duration) ([]Window, error) {
	if width <= 0 {
		return nil, errors.New("network: window width must be positive")
	}
	if len(readings) == 0 {
		return nil, nil
	}
	sorted := make([]sensor.Reading, len(readings))
	copy(sorted, readings)
	SortReadings(sorted)
	first := WindowIndex(sorted[0].Time, width)
	last := WindowIndex(sorted[len(sorted)-1].Time, width)
	out := make([]Window, 0, last-first+1)
	for idx, lo := first, 0; idx <= last; idx++ {
		hi := lo
		for hi < len(sorted) && WindowIndex(sorted[hi].Time, width) == idx {
			hi++
		}
		var rs []sensor.Reading
		if hi > lo {
			rs = sorted[lo:hi:hi]
		}
		out = append(out, BuildWindow(idx, width, rs))
		lo = hi
	}
	return out, nil
}
