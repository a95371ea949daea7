package network

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// Property: for any random (possibly out-of-order) message stream, WindowAll
// (a) loses no reading, (b) places every reading inside its window's bounds,
// and (c) emits windows in strictly increasing index order with consistent
// bounds.
func TestWindowAllInvariantsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		width := time.Duration(1+rng.Intn(120)) * time.Minute
		n := rng.Intn(300)
		msgs := make([]sensor.Reading, n)
		for i := range msgs {
			msgs[i] = sensor.Reading{
				Sensor: rng.Intn(10),
				Time:   time.Duration(rng.Int63n(int64(48 * time.Hour))),
				Values: vecmat.Vector{rng.Float64()},
			}
		}
		windows, err := WindowAll(msgs, width)
		if err != nil {
			return false
		}
		total := 0
		prevIdx := -1 << 62
		for _, w := range windows {
			if w.Index <= prevIdx {
				return false // not strictly increasing
			}
			prevIdx = w.Index
			if w.End-w.Start != width {
				return false
			}
			if w.Start != time.Duration(w.Index)*width {
				return false
			}
			for _, r := range w.Readings {
				if r.Time < w.Start || r.Time >= w.End {
					return false
				}
			}
			total += len(w.Readings)
		}
		return total == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
