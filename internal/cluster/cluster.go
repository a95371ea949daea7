// Package cluster implements the paper's Model State Identification module
// (§3.1): an on-line statistical clustering algorithm that maintains the set
// of model states S = {s_1..s_M} describing the physical conditions
// traversed by the environment and by error/attack data.
//
// States carry stable integer IDs so that the HMM and Markov-chain modules
// can keep their matrices aligned with the evolving state set: the clusterer
// reports every structural change (spawn or merge) as an Event that
// downstream estimators replay onto their own data structures.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"sensorguard/internal/vecmat"
)

// State is one model state: a centroid in attribute space with a stable ID.
type State struct {
	// ID is stable for the lifetime of the state and never reused.
	ID int
	// Centroid is the state's current position (Eq. 6 EWMA of the
	// observations mapped to it).
	Centroid vecmat.Vector
	// Weight counts how many observations have ever been mapped to the
	// state; the classifier uses it to suppress spurious states.
	Weight float64
}

// EventKind distinguishes structural changes to the state set.
type EventKind int

// Structural event kinds.
const (
	// EventSpawn reports a newly created state.
	EventSpawn EventKind = iota + 1
	// EventMerge reports that state From was folded into state Into.
	EventMerge
)

// Event describes one structural change to the state set. Downstream
// estimators must apply events in order.
type Event struct {
	Kind EventKind
	// ID is the spawned state for EventSpawn.
	ID int
	// Into and From identify the surviving and absorbed states for
	// EventMerge.
	Into, From int
}

// String renders the event for logs.
func (e Event) String() string {
	switch e.Kind {
	case EventSpawn:
		return fmt.Sprintf("spawn(%d)", e.ID)
	case EventMerge:
		return fmt.Sprintf("merge(%d<-%d)", e.Into, e.From)
	default:
		return "event(?)"
	}
}

// Config parameterises the clusterer.
type Config struct {
	// Alpha is the learning factor of the centroid update (Eq. 6),
	// in (0,1). The paper's evaluation uses 0.10.
	Alpha float64
	// MergeDistance: two states closer than this merge into one.
	MergeDistance float64
	// SpawnDistance: an observation farther than this from every state
	// spawns a new state at the observation.
	SpawnDistance float64
	// CaptureDistance: an observation farther than this from its nearest
	// state (but within SpawnDistance) is treated as ambiguous — it
	// neither updates the state (Eq. 6) nor spawns a new one. Without
	// this annulus, a gradual trajectory between two dwell points drags
	// a single state along the path and fuses structure that should stay
	// separate. Zero disables the annulus (capture = spawn).
	CaptureDistance float64
	// MaxStates caps the state count; when reached, no states spawn.
	// Zero means no cap.
	MaxStates int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Alpha <= 0 || c.Alpha >= 1 {
		return fmt.Errorf("cluster: alpha %v outside (0,1)", c.Alpha)
	}
	if c.MergeDistance < 0 || c.SpawnDistance <= 0 {
		return errors.New("cluster: distances must be positive")
	}
	if c.MergeDistance >= c.SpawnDistance {
		return errors.New("cluster: merge distance must be below spawn distance")
	}
	if c.CaptureDistance != 0 && (c.CaptureDistance <= c.MergeDistance || c.CaptureDistance > c.SpawnDistance) {
		return errors.New("cluster: capture distance must lie in (merge, spawn]")
	}
	if c.MaxStates < 0 {
		return errors.New("cluster: MaxStates must be non-negative")
	}
	return nil
}

// Set is the evolving set of model states. It is not safe for concurrent
// use; the detector drives it from a single goroutine.
type Set struct {
	cfg     Config
	dim     int
	states  []State
	nextID  int
	adapts  int
	pending []pendingSpawn
	spawned int
	merged  int

	// Adapt scratch, reused across windows so the steady-state per-window
	// update allocates nothing: per-state accumulation buffers (indexed like
	// states) and the spawn-candidate slice.
	scratchSums   []vecmat.Vector
	scratchCounts []int
	scratchCand   []vecmat.Vector
}

// pendingSpawn is a far observation waiting for confirmation: a new state
// spawns only when a second far observation lands within MergeDistance of a
// pending one in a *later* window. One-off outliers (e.g. malformed packets)
// never repeat at the same spot and therefore never pollute the state set,
// while genuine fault/attack dwells confirm within a window or two.
type pendingSpawn struct {
	point vecmat.Vector
	adapt int // Adapt-call ordinal at which the point was seen
}

// pendingTTL is how many Adapt calls a pending spawn survives unconfirmed.
const pendingTTL = 12

// New builds a state set seeded with the given initial centroids (the paper
// seeds with either random states or an offline clustering of historical
// data — see KMeans). dim is the attribute dimensionality.
func New(cfg Config, dim int, initial []vecmat.Vector) (*Set, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if dim <= 0 {
		return nil, errors.New("cluster: dimension must be positive")
	}
	s := &Set{cfg: cfg, dim: dim}
	for _, c := range initial {
		if len(c) != dim {
			return nil, fmt.Errorf("cluster: initial centroid %v has dimension %d, want %d", c, len(c), dim)
		}
		s.states = append(s.states, State{ID: s.nextID, Centroid: c.Clone()})
		s.nextID++
	}
	return s, nil
}

// Len returns the current number of states.
func (s *Set) Len() int { return len(s.states) }

// States returns a copy of the current states, ordered by ID.
func (s *Set) States() []State {
	out := make([]State, len(s.states))
	for i, st := range s.states {
		out[i] = State{ID: st.ID, Centroid: st.Centroid.Clone(), Weight: st.Weight}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the state with the given ID.
func (s *Set) ByID(id int) (State, bool) {
	for _, st := range s.states {
		if st.ID == id {
			return State{ID: st.ID, Centroid: st.Centroid.Clone(), Weight: st.Weight}, true
		}
	}
	return State{}, false
}

// Nearest returns the ID of the state closest to p and the Euclidean
// distance to it (Eqs. 2 and 3). It returns an error when the set is empty
// or p has the wrong dimension; on error the returned id is -1, which is
// never a valid state ID — callers that read the id before checking the
// error cannot mistake it for the first seeded state (ID 0).
//
// The dimension and emptiness checks run once per call; the per-state loop
// compares squared distances and takes a single square root at the end.
func (s *Set) Nearest(p vecmat.Vector) (id int, dist float64, err error) {
	if err := s.check(p); err != nil {
		return -1, 0, err
	}
	best, d2 := s.nearestSq(p)
	return s.states[best].ID, math.Sqrt(d2), nil
}

// check validates the emptiness and dimension preconditions of the
// nearest-state queries once, so the inner loops can run unchecked.
func (s *Set) check(p vecmat.Vector) error {
	if len(s.states) == 0 {
		return errors.New("cluster: empty state set")
	}
	if len(p) != s.dim {
		return fmt.Errorf("cluster: query %d-vector against %d-dimensional states: %w",
			len(p), s.dim, vecmat.ErrDimensionMismatch)
	}
	return nil
}

// nearestSq returns the index (not ID) of the state closest to p and the
// squared distance to it. Preconditions (non-empty set, matching dimension)
// must have been checked by the caller.
func (s *Set) nearestSq(p vecmat.Vector) (idx int, d2 float64) {
	best, bestD2 := 0, sqDist(s.states[0].Centroid, p)
	for i := 1; i < len(s.states); i++ {
		if d := sqDist(s.states[i].Centroid, p); d < bestD2 {
			best, bestD2 = i, d
		}
	}
	return best, bestD2
}

// sqDist is the unchecked squared Euclidean distance between two vectors of
// equal length (the Set invariant guarantees centroids match s.dim). The
// two-attribute case is unrolled: GDI-style deployments sense (temperature,
// humidity), and this sits innermost in every per-observation nearest-state
// scan. Both cases accumulate like vecmat.Vector.Distance, one square at a
// time from zero, so KMeans can compare these sums in place of its roots.
func sqDist(a, b vecmat.Vector) float64 {
	if len(a) == 2 && len(b) == 2 {
		dx := a[0] - b[0]
		dy := a[1] - b[1]
		s := dx * dx
		s += dy * dy
		return s
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DistanceTo returns the Euclidean distance from state id's centroid to p,
// without copying the centroid. It reports false when the state does not
// exist or p has the wrong dimension.
func (s *Set) DistanceTo(id int, p vecmat.Vector) (float64, bool) {
	if len(p) != s.dim {
		return 0, false
	}
	for i := range s.states {
		if s.states[i].ID == id {
			return math.Sqrt(sqDist(s.states[i].Centroid, p)), true
		}
	}
	return 0, false
}

// AssignTo maps each observation to its nearest state (Eq. 3), writing one
// state ID per observation into dst (grown as needed), so steady-state
// callers can reuse one buffer across windows. It returns dst resliced to
// len(points); on error the result is nil.
func (s *Set) AssignTo(points []vecmat.Vector, dst []int) ([]int, error) {
	for _, p := range points {
		if err := s.check(p); err != nil {
			return nil, err
		}
	}
	dst = dst[:0]
	for _, p := range points {
		idx, _ := s.nearestSq(p)
		dst = append(dst, s.states[idx].ID)
	}
	return dst, nil
}

// Adapt performs the end-of-window update. Spawn checks run first, against
// the *pre-update* state set: an observation too far from every existing
// state (and, when meanPoint is non-nil, the window mean — see DESIGN.md §2)
// becomes a new state rather than being absorbed into — and dragging — an
// unrelated one. Observations are then re-assigned against the post-spawn
// set and the Eq. (5)–(6) centroid adaptation runs, followed by merge
// checks. It returns the structural events in the order they must be
// applied downstream.
func (s *Set) Adapt(points []vecmat.Vector, meanPoint vecmat.Vector) ([]Event, error) {
	var events []Event

	// Preconditions once, up front: the spawn and accumulation loops below
	// run unchecked squared-distance queries.
	for _, p := range points {
		if err := s.check(p); err != nil {
			return nil, err
		}
	}
	if meanPoint != nil {
		if err := s.check(meanPoint); err != nil {
			return nil, err
		}
	}

	// Spawn pass: a far point spawns a state only when it confirms a
	// pending far point from an earlier window; otherwise it becomes
	// pending itself. Later far points in the same window see earlier
	// spawns, so a cluster of far points yields one state, not one per
	// point.
	s.adapts++
	candidates := points
	if meanPoint != nil {
		s.scratchCand = append(append(s.scratchCand[:0], points...), meanPoint)
		candidates = s.scratchCand
	}
	spawnSq := s.cfg.SpawnDistance * s.cfg.SpawnDistance
	for _, p := range candidates {
		if s.cfg.MaxStates > 0 && len(s.states) >= s.cfg.MaxStates {
			break
		}
		if _, d2 := s.nearestSq(p); d2 <= spawnSq {
			continue
		}
		if i := s.confirmPending(p); i >= 0 {
			mid, merr := vecmat.Mean([]vecmat.Vector{p, s.pending[i].point})
			if merr != nil {
				return nil, merr
			}
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			id := s.spawn(mid)
			events = append(events, Event{Kind: EventSpawn, ID: id})
		} else {
			s.pending = append(s.pending, pendingSpawn{point: p.Clone(), adapt: s.adapts})
		}
	}
	s.expirePending()

	// Eq. (5): group observations per (post-spawn) state; Eq. (6): EWMA
	// update. Points outside the capture annulus are ambiguous and do
	// not contribute. Accumulation goes into per-state scratch buffers
	// (indexed like s.states) reused across windows.
	capture := s.cfg.CaptureDistance
	if capture == 0 {
		capture = s.cfg.SpawnDistance
	}
	captureSq := capture * capture
	for len(s.scratchSums) < len(s.states) {
		s.scratchSums = append(s.scratchSums, vecmat.NewVector(s.dim))
	}
	if cap(s.scratchCounts) < len(s.states) {
		s.scratchCounts = make([]int, len(s.states))
	}
	s.scratchCounts = s.scratchCounts[:len(s.states)]
	for i := 0; i < len(s.states); i++ {
		s.scratchCounts[i] = 0
		sum := s.scratchSums[i]
		for d := range sum {
			sum[d] = 0
		}
	}
	for _, p := range points {
		idx, d2 := s.nearestSq(p)
		if d2 > captureSq {
			continue
		}
		sum := s.scratchSums[idx]
		for d := 0; d < s.dim; d++ {
			sum[d] += p[d]
		}
		s.scratchCounts[idx]++
	}
	for i := range s.states {
		st := &s.states[i]
		n := s.scratchCounts[i]
		if n == 0 {
			continue
		}
		inv := 1 / float64(n)
		for d := 0; d < s.dim; d++ {
			mean := s.scratchSums[i][d] * inv
			st.Centroid[d] = (1-s.cfg.Alpha)*st.Centroid[d] + s.cfg.Alpha*mean
		}
		st.Weight += float64(n)
	}

	// Merge: fold together states that drifted too close. The heavier
	// state survives so that long-lived structure keeps its identity.
	events = append(events, s.mergeClose()...)
	return events, nil
}

// confirmPending returns the index of a pending spawn from an earlier
// window within the confirmation radius of p, or -1. Confirmation uses the
// capture distance (falling back to merge distance) so a recurring dwell
// confirms even with window-to-window jitter.
func (s *Set) confirmPending(p vecmat.Vector) int {
	radius := s.cfg.CaptureDistance
	if radius == 0 {
		radius = s.cfg.MergeDistance
	}
	for i, pd := range s.pending {
		if pd.adapt == s.adapts {
			continue // same window: not independent confirmation
		}
		d, err := pd.point.Distance(p)
		if err == nil && d <= radius {
			return i
		}
	}
	return -1
}

func (s *Set) expirePending() {
	kept := s.pending[:0]
	for _, pd := range s.pending {
		if s.adapts-pd.adapt < pendingTTL {
			kept = append(kept, pd)
		}
	}
	s.pending = kept
}

func (s *Set) spawn(p vecmat.Vector) int {
	id := s.nextID
	s.nextID++
	s.states = append(s.states, State{ID: id, Centroid: p.Clone(), Weight: 1})
	s.spawned++
	return id
}

func (s *Set) mergeClose() []Event {
	var events []Event
	mergeSq := s.cfg.MergeDistance * s.cfg.MergeDistance
	for {
		merged := false
		for i := 0; i < len(s.states) && !merged; i++ {
			for j := i + 1; j < len(s.states) && !merged; j++ {
				if sqDist(s.states[i].Centroid, s.states[j].Centroid) > mergeSq {
					continue
				}
				into, from := i, j
				if s.states[from].Weight > s.states[into].Weight {
					into, from = from, into
				}
				events = append(events, s.merge(into, from))
				merged = true
			}
		}
		if !merged {
			return events
		}
	}
}

// merge folds state index from into state index into: the surviving centroid
// is the weight-weighted average and the weights add.
func (s *Set) merge(into, from int) Event {
	a, b := &s.states[into], &s.states[from]
	total := a.Weight + b.Weight
	if total > 0 {
		for d := 0; d < s.dim; d++ {
			a.Centroid[d] = (a.Centroid[d]*a.Weight + b.Centroid[d]*b.Weight) / total
		}
	}
	a.Weight = total
	ev := Event{Kind: EventMerge, Into: a.ID, From: b.ID}
	s.states = append(s.states[:from], s.states[from+1:]...)
	s.merged++
	return ev
}

// SpawnCount returns the total number of states ever spawned (initial seed
// states excluded).
func (s *Set) SpawnCount() int { return s.spawned }

// MergeCount returns the total number of merge events so far.
func (s *Set) MergeCount() int { return s.merged }
