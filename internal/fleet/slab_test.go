//go:build go1.24

package fleet

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// TestSteppedWindowsFreeValueSlabs: once a window has been stepped and its
// readings released, nothing downstream of the windower — the detector's
// step scratch, the decision ring, the health tracker — may keep the
// readings' value storage alive. The binary decoder slices every reading of
// a frame out of one slab, so a kept vector would pin the whole frame. The
// test's window slices one test-owned slab and has more readings than the
// window after it, so a step scratch refilled by the next window would
// still hold some of them; only a weak pointer to the slab is kept.
func TestSteppedWindowsFreeValueSlabs(t *testing.T) {
	p, err := New(Config{Shards: 1, Seed: 1, States: 4, Window: time.Hour, Bootstrap: 4 * time.Hour, DecisionBuffer: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	points := []vecmat.Vector{{12, 94}, {17, 84}, {24, 70}, {31, 56}}
	submit := func(win int, values vecmat.Vector) {
		for s := 0; s < 10; s++ {
			if err := p.Submit(ingest.Reading{Deployment: "slab", Reading: sensor.Reading{
				Sensor: s,
				Time:   time.Duration(win)*time.Hour + time.Duration(s)*time.Minute,
				Values: values.Clone(),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < 6; w++ {
		submit(w, points[w%len(points)])
	}
	slab := submitSlabWindow(t, p, 6, points[2])
	// Window 9's readings move the watermark past window 7, so windows 6
	// and 7 are stepped and released; 8 and 9 stay open.
	for w := 7; w < 10; w++ {
		submit(w, points[w%len(points)])
	}
	waitStepped(t, p, "slab", 8)
	// The worker may still be busy with window 9's readings, and a
	// goroutine preempted mid-function has its innermost frame scanned
	// conservatively, so a dead stack slot can keep the slab through a
	// collection or two; a reference the pipeline keeps holds it through
	// every one.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		runtime.GC()
		if slab.Value() == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a stepped and released window's value slab is still reachable")
		}
	}
}

// submitSlabWindow submits window win as two readings per sensor whose
// Values all slice one fresh slab, and returns only a weak pointer to it.
func submitSlabWindow(t *testing.T, p *Pool, win int, v vecmat.Vector) weak.Pointer[float64] {
	t.Helper()
	slab := make([]float64, 20*len(v))
	rs := make([]ingest.Reading, 20)
	for i := range rs {
		vals := slab[i*len(v) : (i+1)*len(v) : (i+1)*len(v)]
		copy(vals, v)
		rs[i] = ingest.Reading{Deployment: "slab", Reading: sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(win)*time.Hour + time.Duration(i)*time.Minute,
			Values: vals,
		}}
	}
	if _, _, err := p.SubmitBatch(rs); err != nil {
		t.Fatal(err)
	}
	return weak.Make(&slab[0])
}
