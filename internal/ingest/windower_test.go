package ingest

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sensorguard/internal/network"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func reading(id int, t time.Duration) sensor.Reading {
	return sensor.Reading{Sensor: id, Time: t, Values: vecmat.Vector{float64(id)}}
}

// windows drives a stream through the windower and returns everything
// emitted, flush included.
func windows(t *testing.T, wd *Windower, stream []sensor.Reading) []network.Window {
	t.Helper()
	var out []network.Window
	for _, r := range stream {
		out = append(out, wd.Add(r)...)
	}
	return append(out, wd.Flush()...)
}

// TestInOrderMatchesWindowAll is the in-order equivalence the serving e2e
// relies on: for an ordered stream, the streaming windower must emit exactly
// the windows of the offline network.WindowAll, for any lateness bound.
func TestInOrderMatchesWindowAll(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var stream []sensor.Reading
	tm := time.Duration(0)
	for i := 0; i < 500; i++ {
		tm += time.Duration(rng.Intn(20)) * time.Minute // occasional multi-window gaps
		stream = append(stream, reading(i%5, tm))
	}
	// Canonical (time, sensor) order — the order a synchronous deployment
	// emits and WindowAll sorts into.
	network.SortReadings(stream)
	want, err := network.WindowAll(stream, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for _, lateness := range []time.Duration{0, 30 * time.Minute, 2 * time.Hour} {
		wd, err := NewWindower(time.Hour, lateness)
		if err != nil {
			t.Fatal(err)
		}
		got := windows(t, wd, stream)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("lateness %v: emitted windows differ from WindowAll (%d vs %d)", lateness, len(got), len(want))
		}
		if wd.Late() != 0 {
			t.Errorf("lateness %v: in-order stream counted %d late readings", lateness, wd.Late())
		}
	}
}

// TestOutOfOrderWithinLateness shuffles readings within the lateness bound:
// every reading must still land in its window, and window contents must
// match the sorted trace as sets.
func TestOutOfOrderWithinLateness(t *testing.T) {
	var stream []sensor.Reading
	for i := 0; i < 240; i++ {
		stream = append(stream, reading(i%4, time.Duration(i)*time.Minute))
	}
	// Shuffle within disjoint 20-reading blocks: arrival displacement is
	// bounded by 19 minutes of event time, inside the 30m lateness bound.
	shuffled := append([]sensor.Reading(nil), stream...)
	rng := rand.New(rand.NewSource(3))
	for base := 0; base+20 <= len(shuffled); base += 20 {
		rng.Shuffle(20, func(i, j int) {
			shuffled[base+i], shuffled[base+j] = shuffled[base+j], shuffled[base+i]
		})
	}
	wd, err := NewWindower(time.Hour, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	got := windows(t, wd, shuffled)
	if wd.Late() != 0 {
		t.Fatalf("%d readings dropped despite displacement within lateness", wd.Late())
	}
	want, err := network.WindowAll(stream, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d windows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].Start != want[i].Start || got[i].End != want[i].End {
			t.Fatalf("window %d bounds differ: %+v vs %+v", i, got[i], want[i])
		}
		if len(got[i].Readings) != len(want[i].Readings) {
			t.Fatalf("window %d holds %d readings, want %d", i, len(got[i].Readings), len(want[i].Readings))
		}
		network.SortReadings(got[i].Readings)
		network.SortReadings(want[i].Readings)
		if !reflect.DeepEqual(got[i].Readings, want[i].Readings) {
			t.Fatalf("window %d contents differ", i)
		}
	}
}

// TestLateReadingsDropped checks the watermark actually closes windows: a
// reading older than the watermark minus lateness is dropped and counted.
func TestLateReadingsDropped(t *testing.T) {
	wd, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []network.Window
	emitted = append(emitted, wd.Add(reading(0, 10*time.Minute))...)
	emitted = append(emitted, wd.Add(reading(0, 70*time.Minute))...) // closes window 0
	if len(emitted) != 1 || emitted[0].Index != 0 {
		t.Fatalf("expected window 0 emitted, got %+v", emitted)
	}
	if out := wd.Add(reading(1, 20*time.Minute)); out != nil {
		t.Fatalf("late reading emitted windows: %+v", out)
	}
	if wd.Late() != 1 {
		t.Errorf("late count %d, want 1", wd.Late())
	}
	// A reading in the still-open window 1 is fine even though its time is
	// behind the max seen.
	if wd.Add(reading(1, 65*time.Minute)); wd.Late() != 1 {
		t.Errorf("in-window out-of-order reading counted late")
	}
}

// TestWatermarkBoundaryAdmitsExactReading pins the boundary of the lateness
// contract: a reading whose event time equals the watermark (max time seen
// minus lateness) lands in a window whose end is strictly after the
// watermark, so it must be admitted — only readings strictly inside an
// already-emitted window are late. The emitted windows must still match the
// offline network.WindowAll over the admitted readings.
func TestWatermarkBoundaryAdmitsExactReading(t *testing.T) {
	wd, err := NewWindower(time.Hour, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	var emitted []network.Window
	emitted = append(emitted, wd.Add(reading(0, 10*time.Minute))...)
	// 2h30m: watermark 2h — windows 0 and the empty gap window 1 close.
	emitted = append(emitted, wd.Add(reading(0, 150*time.Minute))...)
	if len(emitted) != 2 || emitted[0].Index != 0 || emitted[1].Index != 1 {
		t.Fatalf("expected windows 0,1 emitted at watermark 2h, got %+v", emitted)
	}
	// Event time exactly at the watermark: window 2 = [2h, 3h) is still open.
	boundary := reading(1, 2*time.Hour)
	if out := wd.Add(boundary); len(out) != 0 {
		t.Fatalf("boundary reading emitted windows: %+v", out)
	}
	if wd.Late() != 0 {
		t.Fatalf("reading at the watermark counted late")
	}
	// One minute below the watermark falls in emitted window 1: dropped.
	wd.Add(reading(1, 119*time.Minute))
	if wd.Late() != 1 {
		t.Fatalf("late count %d, want 1 (reading below watermark)", wd.Late())
	}
	emitted = append(emitted, wd.Flush()...)

	// The admitted stream, offline: same windows, boundary reading included.
	kept := []sensor.Reading{reading(0, 10*time.Minute), boundary, reading(0, 150*time.Minute)}
	network.SortReadings(kept)
	want, err := network.WindowAll(kept, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i := range emitted {
		network.SortReadings(emitted[i].Readings)
	}
	if !reflect.DeepEqual(emitted, want) {
		t.Fatalf("emitted windows differ from offline WindowAll:\n got %+v\nwant %+v", emitted, want)
	}
}

// TestLatenessHoldsWindowsOpen checks the bounded-lateness contract: with
// lateness L, a window stays open until the watermark (max time - L) passes
// its end.
func TestLatenessHoldsWindowsOpen(t *testing.T) {
	wd, err := NewWindower(time.Hour, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wd.Add(reading(0, 10*time.Minute))
	// 80m: watermark 50m < 60m end — window 0 must stay open.
	if out := wd.Add(reading(0, 80*time.Minute)); len(out) != 0 {
		t.Fatalf("window 0 closed before watermark passed: %+v", out)
	}
	// Straggler for window 0, 75 minutes of event time later.
	wd.Add(reading(1, 45*time.Minute))
	// 95m: watermark 65m ≥ 60m — window 0 closes with both readings.
	out := wd.Add(reading(0, 95*time.Minute))
	if len(out) != 1 || len(out[0].Readings) != 2 {
		t.Fatalf("window 0 = %+v, want 2 readings", out)
	}
	if wd.Pending() != 1 {
		t.Errorf("pending %d, want 1 (window 1 open)", wd.Pending())
	}
}

// TestWindowerGroupsByWindow: with lateness 0 a window closes as soon as a
// reading of a later window arrives, and Flush emits the open one.
func TestWindowerGroupsByWindow(t *testing.T) {
	wd, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := wd.Add(reading(0, 10*time.Minute)); out != nil {
		t.Errorf("premature emit: %v", out)
	}
	if out := wd.Add(reading(1, 50*time.Minute)); out != nil {
		t.Errorf("premature emit: %v", out)
	}
	out := wd.Add(reading(0, 70*time.Minute))
	if len(out) != 1 {
		t.Fatalf("emitted %d windows, want 1", len(out))
	}
	if win := out[0]; win.Index != 0 || win.Start != 0 || win.End != time.Hour || len(win.Readings) != 2 {
		t.Errorf("window 0 = %+v", win)
	}
	last := wd.Flush()
	if len(last) != 1 || last[0].Index != 1 || len(last[0].Readings) != 1 {
		t.Errorf("flush = %+v", last)
	}
	if out := wd.Flush(); out != nil {
		t.Errorf("double flush emitted %+v", out)
	}
}

// Property: with lateness 0 the windower drops exactly the readings whose
// window is older than the newest reading's, and emits everything else.
func TestWindowerConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		wd, err := NewWindower(time.Hour, 0)
		if err != nil {
			return false
		}
		n := 1 + rng.Intn(200)
		kept, late := 0, 0
		highWater := time.Duration(-1)
		var emitted int
		for i := 0; i < n; i++ {
			// Mostly increasing times with occasional regressions.
			tt := time.Duration(rng.Int63n(int64(24 * time.Hour)))
			windowOfT := int(tt / time.Hour)
			windowHigh := int(highWater / time.Hour)
			if highWater >= 0 && windowOfT < windowHigh {
				late++
			} else {
				kept++
				if tt > highWater {
					highWater = tt
				}
			}
			for _, w := range wd.Add(reading(0, tt)) {
				emitted += len(w.Readings)
			}
		}
		for _, w := range wd.Flush() {
			emitted += len(w.Readings)
		}
		return emitted == kept && wd.Late() == late
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWindowerExportRestore: a windower restored from Export's cursor and
// readings emits exactly what the original does for the rest of the stream,
// and holds its own copy of every reading's Values.
func TestWindowerExportRestore(t *testing.T) {
	var stream []sensor.Reading
	for i := 0; i < 400; i++ {
		stream = append(stream, reading(i%4, time.Duration(i)*time.Minute))
	}
	rng := rand.New(rand.NewSource(5))
	for base := 0; base+20 <= len(stream); base += 20 {
		rng.Shuffle(20, func(i, j int) { stream[base+i], stream[base+j] = stream[base+j], stream[base+i] })
	}
	// orig is exported; twin takes the same stream and is never touched
	// by the export, so it says what the restored windower must emit.
	var orig, twin *Windower
	for _, w := range []**Windower{&orig, &twin} {
		wd, err := NewWindower(time.Hour, 90*time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		cut := append(stream[:250:250], reading(0, 10*time.Minute)) // one late reading for the cursor to carry
		for _, r := range cut {
			r.Values = r.Values.Clone() // the twins share no Values
			wd.Add(r)
		}
		*w = wd
	}
	st, buffered := orig.Export()
	if len(st.Open) < 2 {
		t.Fatalf("%d open windows at the cut, want several", len(st.Open))
	}
	n := 0
	for _, c := range st.Open {
		n += c
	}
	if n != len(buffered) {
		t.Fatalf("cursor lists %d buffered readings, Export returned %d", n, len(buffered))
	}
	restored, err := RestoreWindower(st, buffered)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buffered {
		buffered[i].Values[0] = -1 // must not reach the restored windower
	}
	want := windows(t, twin, stream[250:])
	got := windows(t, restored, stream[250:])
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored windower emitted %d windows differing from the original's %d", len(got), len(want))
	}
	if restored.Late() != twin.Late() || restored.Late() != 1 {
		t.Errorf("late counts %d (restored) vs %d, want 1", restored.Late(), twin.Late())
	}
}

// TestRestoreWindowerRejectsBadState: counts that disagree with the
// readings, windows outside the cursor, and readings before the start are
// refused.
func TestRestoreWindowerRejectsBadState(t *testing.T) {
	base := WindowerState{Width: time.Hour, Lateness: time.Hour, Started: true, NextEmit: 2, MaxIndex: 3}
	one := []sensor.Reading{reading(0, 2*time.Hour)}
	for name, tc := range map[string]struct {
		open     map[int]int
		started  bool
		buffered []sensor.Reading
	}{
		"count-short":    {map[int]int{2: 2}, true, one},
		"count-long":     {map[int]int{2: 0}, true, one},
		"count-negative": {map[int]int{2: -1, 3: 2}, true, append(one, one...)},
		"window-emitted": {map[int]int{1: 1}, true, one},
		"window-ahead":   {map[int]int{4: 1}, true, one},
		"not-started":    {nil, false, one},
	} {
		st := base
		st.Open, st.Started = tc.open, tc.started
		if _, err := RestoreWindower(st, tc.buffered); err == nil {
			t.Errorf("%s: restored without error", name)
		}
	}
	st := base
	st.Open = map[int]int{2: 1}
	if _, err := RestoreWindower(st, one); err != nil {
		t.Errorf("valid state refused: %v", err)
	}
}

func TestWindowerValidation(t *testing.T) {
	if _, err := NewWindower(0, 0); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewWindower(time.Hour, -time.Minute); err == nil {
		t.Error("negative lateness accepted")
	}
}

func TestFlushResets(t *testing.T) {
	wd, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out := wd.Flush(); out != nil {
		t.Errorf("flush of empty windower emitted %+v", out)
	}
	wd.Add(reading(0, 10*time.Minute))
	if out := wd.Flush(); len(out) != 1 {
		t.Fatalf("flush emitted %d windows, want 1", len(out))
	}
	if wd.Pending() != 0 {
		t.Error("pending after flush")
	}
	// Reusable after flush, fresh epoch.
	if out := wd.Add(reading(0, 5*time.Hour)); out != nil {
		t.Errorf("first reading after reset emitted %+v", out)
	}
	if out := wd.Flush(); len(out) != 1 || out[0].Index != 5 {
		t.Fatalf("post-reset flush %+v, want single window 5", out)
	}
}

// orderedStream is an in-order stream of n readings from five sensors,
// with occasional multi-window gaps, and the windows WindowAll cuts it
// into.
func orderedStream(t *testing.T, seed int64, n int) ([]sensor.Reading, []network.Window) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stream := make([]sensor.Reading, 0, n)
	tm := time.Duration(0)
	for i := 0; i < n; i++ {
		tm += time.Duration(rng.Intn(20)) * time.Minute
		stream = append(stream, reading(i%5, tm))
	}
	network.SortReadings(stream)
	want, err := network.WindowAll(stream, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return stream, want
}

// TestWindowerUnreleasedWindowsKeepReadings: windows a caller collects
// across several Add calls and never releases keep their readings, while
// another windower in the process releases every window it emits into the
// shared pool. This is how a caller that steps windows later (a replay
// probe) uses the windower: the windows are copied out of Add's reused
// result, and their arrays must never be handed to a new bucket.
func TestWindowerUnreleasedWindowsKeepReadings(t *testing.T) {
	stream, want := orderedStream(t, 11, 600)
	churn, _ := orderedStream(t, 12, 600)
	keeper, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	releaser, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	var kept []network.Window
	for i, r := range stream {
		kept = append(kept, keeper.Add(r)...)
		for _, w := range releaser.Add(churn[i]) {
			releaser.Release(w.Readings)
		}
	}
	kept = append(kept, keeper.Flush()...)
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("unreleased windows differ from WindowAll (%d vs %d windows)", len(kept), len(want))
	}
}

// TestWindowerReleaseClearsArray: Release zeroes the whole array, so the
// pool pins no reading's Values, and a window whose bucket reuses a
// released array holds exactly its own readings.
func TestWindowerReleaseClearsArray(t *testing.T) {
	stream, want := orderedStream(t, 13, 600)
	wd, err := NewWindower(time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	released := make(map[*sensor.Reading]bool)
	var got []network.Window
	reused := 0
	check := func(w network.Window) {
		if cap(w.Readings) > 0 && released[&w.Readings[:1][0]] {
			reused++
		}
		cp := w
		cp.Readings = append([]sensor.Reading(nil), w.Readings...)
		got = append(got, cp)
		if cap(w.Readings) == 0 {
			wd.Release(w.Readings)
			return
		}
		all := w.Readings[:cap(w.Readings)]
		wd.Release(w.Readings)
		for i, r := range all {
			if !reflect.DeepEqual(r, sensor.Reading{}) {
				t.Fatalf("window %d: released array slot %d still holds %+v", w.Index, i, r)
			}
		}
		released[&all[0]] = true
	}
	for _, r := range stream {
		for _, w := range wd.Add(r) {
			check(w)
		}
	}
	got = append(got, wd.Flush()...)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windows over released buckets differ from WindowAll (%d vs %d windows)", len(got), len(want))
	}
	if reused == 0 {
		t.Error("no window reused a released array: the test checked nothing")
	}
}
