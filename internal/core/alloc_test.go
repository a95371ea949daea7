package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/gdi"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// TestStepZeroAllocSteadyState pins the hot-path contract: once the
// detector's scratch space has grown to the window's working-set size, the
// bare (uninstrumented) Step allocates nothing. A regression here silently
// re-taxes every window of every deployment, so it fails loudly instead.
// It holds on synthetic key-state windows and on a generated GDI day, and
// on that day with the decision ring the serving fleet attaches: building
// each window's record, §3.4 evidence included, allocates nothing either.
func TestStepZeroAllocSteadyState(t *testing.T) {
	for _, tc := range []struct {
		name  string
		input func(t *testing.T) (Config, []network.Window, int)
	}{
		{"key-states", keyStateAllocInput},
		{"gdi-day", gdiDayAllocInput},
		{"gdi-day-serving", func(t *testing.T) (Config, []network.Window, int) {
			// Warm past the ring's capacity, so every slot has been
			// allocated and packing reuses the evicted one.
			const ring = 256
			cfg, wins, warm := gdiDayAllocInput(t)
			cfg.Decisions = NewDecisionRing(ring)
			return cfg, wins, max(warm, 2*ring)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, wins, warm := tc.input(t)
			d, err := NewDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			idx := 0
			step := func() {
				w := wins[idx%len(wins)]
				w.Index = idx
				if _, err := d.Step(w); err != nil {
					t.Fatal(err)
				}
				idx++
			}
			for i := 0; i < warm; i++ {
				step()
			}
			if got := testing.AllocsPerRun(500, step); got != 0 {
				t.Fatalf("steady-state Step allocates %v times per window, want 0", got)
			}
		})
	}
}

// keyStateAllocInput is four uniform windows, one per key state, warmed
// for 128 steps: scratch buffers grown, every key state visited, the
// cluster set settled.
func keyStateAllocInput(t *testing.T) (Config, []network.Window, int) {
	points := keyStates()
	wins := make([]network.Window, 4)
	for i := range wins {
		wins[i] = uniformWindow(i, 10, points[i])
	}
	return DefaultConfig(keyStates()), wins, 128
}

// gdiDayAllocInput is the evaluation's setup on a one-day generated GDI
// trace: six k-means states (seed 1) over its first 24 h, hourly windows,
// and one full replay of them as warm-up.
func gdiDayAllocInput(t *testing.T) (Config, []network.Window, int) {
	cfg, wins := gdiInput(t, 1, gdi.DefaultGenerateConfig().Seed)
	return cfg, wins, len(wins)
}

// gdiInput generates a GDI trace of the given length and seed and sets a
// detector up on it the way a serving deployment is bootstrapped: six
// k-means states (k-means seed 1) over its first 24 h, hourly windows.
func gdiInput(tb testing.TB, days int, seed int64) (Config, []network.Window) {
	gcfg := gdi.DefaultGenerateConfig()
	gcfg.Days = days
	gcfg.Seed = seed
	tr, err := gdi.Generate(gcfg)
	if err != nil {
		tb.Fatal(err)
	}
	var points []vecmat.Vector
	for _, r := range tr.Readings {
		if r.Time < 24*time.Hour {
			points = append(points, r.Values)
		}
	}
	seeds, err := cluster.KMeans(points, 6, rand.New(rand.NewSource(1)), 100)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig(seeds)
	cfg.Window = time.Hour
	wins, err := network.WindowAll(tr.Readings, time.Hour)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, wins
}

// TestStepResultCloneIndependent pins that Clone detaches a result from the
// detector's scratch space: stepping again must not mutate the clone.
func TestStepResultCloneIndependent(t *testing.T) {
	d, err := NewDetector(DefaultConfig(keyStates()))
	if err != nil {
		t.Fatal(err)
	}
	points := keyStates()
	res, err := d.Step(uniformWindow(0, 10, points[0]))
	if err != nil {
		t.Fatal(err)
	}
	borrowed := res.Sensors
	clone := res.Clone()
	want := slices.Clone(clone.Sensors)
	// Step a window with a different sensor population; the borrowed slice
	// is rewritten in place, the clone must not move.
	if _, err := d.Step(uniformWindow(1, 4, points[1])); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(borrowed, want) {
		t.Fatalf("test is vacuous: borrowed slice unchanged (len %d)", len(borrowed))
	}
	if len(clone.Sensors) != len(want) {
		t.Fatalf("clone mutated by later Step: len %d, want %d", len(clone.Sensors), len(want))
	}
	for i, s := range want {
		if clone.Sensors[i] != s {
			t.Fatalf("clone entry %d mutated: %+v != %+v", i, clone.Sensors[i], s)
		}
	}
}
