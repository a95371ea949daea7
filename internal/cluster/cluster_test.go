package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sensorguard/internal/vecmat"
)

func testConfig() Config {
	return Config{Alpha: 0.1, MergeDistance: 2, SpawnDistance: 10}
}

func mustNew(t *testing.T, cfg Config, dim int, initial []vecmat.Vector) *Set {
	t.Helper()
	s, err := New(cfg, dim, initial)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"alpha zero", Config{Alpha: 0, MergeDistance: 1, SpawnDistance: 2}},
		{"alpha one", Config{Alpha: 1, MergeDistance: 1, SpawnDistance: 2}},
		{"negative merge", Config{Alpha: 0.1, MergeDistance: -1, SpawnDistance: 2}},
		{"merge above spawn", Config{Alpha: 0.1, MergeDistance: 3, SpawnDistance: 2}},
		{"negative cap", Config{Alpha: 0.1, MergeDistance: 1, SpawnDistance: 2, MaxStates: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := testConfig().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	if _, err := New(testConfig(), 0, nil); err == nil {
		t.Error("zero dimension accepted")
	}
	if _, err := New(testConfig(), 2, []vecmat.Vector{{1}}); err == nil {
		t.Error("ragged initial centroid accepted")
	}
}

func TestNearestAndAssign(t *testing.T) {
	s := mustNew(t, testConfig(), 2, []vecmat.Vector{{0, 0}, {100, 100}})
	id, d, err := s.Nearest(vecmat.Vector{1, 1})
	if err != nil {
		t.Fatalf("Nearest: %v", err)
	}
	if id != 0 || math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("Nearest = (%d, %v), want (0, √2)", id, d)
	}
}

func TestNearestEmptySetErrors(t *testing.T) {
	s := mustNew(t, testConfig(), 2, nil)
	id, _, err := s.Nearest(vecmat.Vector{0, 0})
	if err == nil {
		t.Error("Nearest on empty set succeeded")
	}
	// Contract: every error path returns id -1, never a plausible state id.
	// Callers that check the id before the error would otherwise read state 0.
	if id != -1 {
		t.Errorf("Nearest on empty set returned id %d, want -1", id)
	}
}

func TestNearestDimensionMismatchErrors(t *testing.T) {
	s := mustNew(t, testConfig(), 2, []vecmat.Vector{{0, 0}})
	id, _, err := s.Nearest(vecmat.Vector{1, 2, 3})
	if err == nil {
		t.Error("Nearest with mismatched dimension succeeded")
	}
	if id != -1 {
		t.Errorf("Nearest with mismatched dimension returned id %d, want -1", id)
	}
}

func TestAdaptMovesCentroidTowardObservations(t *testing.T) {
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}})
	points := []vecmat.Vector{{10}, {10}, {10}}
	events, err := s.Adapt(points, nil)
	if err != nil {
		t.Fatalf("Adapt: %v", err)
	}
	if len(events) != 0 {
		t.Errorf("unexpected events: %v", events)
	}
	st, ok := s.ByID(0)
	if !ok {
		t.Fatal("state 0 vanished")
	}
	// Eq. 6 with α=0.1: 0.9·0 + 0.1·10 = 1.
	if math.Abs(st.Centroid[0]-1) > 1e-12 {
		t.Errorf("centroid = %v, want 1", st.Centroid[0])
	}
	if st.Weight != 3 {
		t.Errorf("weight = %v, want 3", st.Weight)
	}
}

func TestAdaptSpawnsFarStateAfterConfirmation(t *testing.T) {
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}})
	points := []vecmat.Vector{{0}, {50}}
	// First sighting: pending only, no spawn (one-off outliers must not
	// create states).
	events, err := s.Adapt(points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 || s.Len() != 1 {
		t.Fatalf("one-off outlier spawned: events=%v len=%d", events, s.Len())
	}
	// Second sighting in a later window confirms.
	events, err = s.Adapt(points, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventSpawn {
		t.Fatalf("events = %v, want one spawn", events)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d, want 2", s.Len())
	}
	st, ok := s.ByID(events[0].ID)
	if !ok {
		t.Fatal("spawned state not found")
	}
	if math.Abs(st.Centroid[0]-50) > 1e-9 {
		t.Errorf("spawned centroid = %v, want 50", st.Centroid[0])
	}
}

func TestPendingSpawnExpires(t *testing.T) {
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}})
	if _, err := s.Adapt([]vecmat.Vector{{50}}, nil); err != nil {
		t.Fatal(err)
	}
	// Let the pending sighting age out.
	for i := 0; i < pendingTTL; i++ {
		if _, err := s.Adapt([]vecmat.Vector{{0}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// A new far sighting now has no live pending partner: no spawn.
	events, err := s.Adapt([]vecmat.Vector{{50}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Errorf("expired pending still confirmed: %v", events)
	}
}

func TestAdaptSpawnsFromMeanPoint(t *testing.T) {
	// No individual observation is far from a state, but the supplied
	// mean point is — the Dynamic-Creation support (DESIGN.md §2).
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}, {60}})
	points := []vecmat.Vector{{0}, {60}}
	if _, err := s.Adapt(points, vecmat.Vector{30}); err != nil {
		t.Fatal(err)
	}
	events, err := s.Adapt(points, vecmat.Vector{30})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventSpawn {
		t.Fatalf("events = %v, want one mean spawn", events)
	}
	st, _ := s.ByID(events[0].ID)
	if math.Abs(st.Centroid[0]-30) > 1e-9 {
		t.Errorf("spawned centroid = %v, want 30", st.Centroid[0])
	}
}

func TestAdaptMergesCloseStates(t *testing.T) {
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}, {1}})
	// Give state 1 more weight so it survives the merge.
	points := []vecmat.Vector{{1}, {1}, {1}}
	events, err := s.Adapt(points, nil)
	if err != nil {
		t.Fatal(err)
	}
	var merge *Event
	for i := range events {
		if events[i].Kind == EventMerge {
			merge = &events[i]
		}
	}
	if merge == nil {
		t.Fatalf("no merge event in %v", events)
	}
	if merge.Into != 1 || merge.From != 0 {
		t.Errorf("merge = %+v, want heavier state 1 to survive", merge)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d, want 1", s.Len())
	}
}

func TestAdaptRespectsMaxStates(t *testing.T) {
	cfg := testConfig()
	cfg.MaxStates = 1
	s := mustNew(t, cfg, 1, []vecmat.Vector{{0}})
	points := []vecmat.Vector{{500}}
	for i := 0; i < 3; i++ {
		events, err := s.Adapt(points, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(events) != 0 || s.Len() != 1 {
			t.Errorf("cap violated: events=%v len=%d", events, s.Len())
		}
	}
}

func TestStatesReturnsCopies(t *testing.T) {
	s := mustNew(t, testConfig(), 2, []vecmat.Vector{{5, 5}})
	states := s.States()
	states[0].Centroid[0] = 999
	st, _ := s.ByID(0)
	if st.Centroid[0] != 5 {
		t.Error("States leaked internal centroid storage")
	}
}

func TestByIDMissing(t *testing.T) {
	s := mustNew(t, testConfig(), 1, []vecmat.Vector{{0}})
	if _, ok := s.ByID(42); ok {
		t.Error("ByID found a state that does not exist")
	}
}

// Property: state IDs are never reused across spawn/merge churn, and weights
// are conserved through merges.
func TestIDStabilityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Alpha: 0.2, MergeDistance: 1.5, SpawnDistance: 8}
		s, err := New(cfg, 1, []vecmat.Vector{{0}})
		if err != nil {
			return false
		}
		seen := map[int]bool{0: true}
		for step := 0; step < 30; step++ {
			n := 1 + rng.Intn(5)
			points := make([]vecmat.Vector, n)
			for i := range points {
				points[i] = vecmat.Vector{rng.Float64() * 40}
			}
			events, err := s.Adapt(points, nil)
			if err != nil {
				return false
			}
			for _, ev := range events {
				if ev.Kind == EventSpawn {
					if seen[ev.ID] {
						return false // reused ID
					}
					seen[ev.ID] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestEventString(t *testing.T) {
	if got := (Event{Kind: EventSpawn, ID: 3}).String(); got != "spawn(3)" {
		t.Errorf("spawn string = %q", got)
	}
	if got := (Event{Kind: EventMerge, Into: 1, From: 2}).String(); got != "merge(1<-2)" {
		t.Errorf("merge string = %q", got)
	}
	if got := (Event{}).String(); got != "event(?)" {
		t.Errorf("zero event string = %q", got)
	}
}
