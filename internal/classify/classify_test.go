package classify

import (
	"errors"
	"testing"

	"sensorguard/internal/hmm"
	"sensorguard/internal/track"
	"sensorguard/internal/vecmat"
)

// snap builds an hmm.Snapshot from explicit rows. Visit counts default to
// equal shares unless supplied.
func snap(hiddenIDs, symbolIDs []int, rows []vecmat.Vector, visits map[int]float64) hmm.Snapshot {
	b := vecmat.NewMatrix(len(hiddenIDs), len(symbolIDs))
	for i, r := range rows {
		if err := b.SetRow(i, r); err != nil {
			panic(err)
		}
	}
	if visits == nil {
		visits = make(map[int]float64, len(hiddenIDs))
		for _, id := range hiddenIDs {
			visits[id] = 100
		}
	}
	return hmm.Snapshot{
		HiddenIDs: hiddenIDs,
		SymbolIDs: symbolIDs,
		A:         vecmat.Identity(len(hiddenIDs)),
		B:         b,
		Visits:    visits,
	}
}

// gdiStates are the model-state attribute vectors used across the tests
// (IDs 0..5 plus the attack states).
func gdiStates() map[int]vecmat.Vector {
	return map[int]vecmat.Vector{
		0: {12, 94}, 1: {17, 84}, 2: {24, 70}, 3: {31, 56},
		4: {15, 1},  // sensor-6 stuck state
		5: {16, 27}, // spurious
		6: {29, 56}, // deletion target
		7: {20, 71}, // deletion replacement
		8: {25, 69}, // creation artifact
	}
}

func TestNetworkCleanIsNone(t *testing.T) {
	// Identity B^CO over the four key states: no attack.
	s := snap([]int{0, 1, 2, 3}, []int{0, 1, 2, 3}, []vecmat.Vector{
		{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1},
	}, nil)
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindNone {
		t.Errorf("Kind = %v, want none", d.Kind)
	}
	if len(d.Associations) != 4 {
		t.Errorf("associations = %+v", d.Associations)
	}
}

func TestNetworkDeletionSignatureFromPaperTable6(t *testing.T) {
	// Paper Table 6: rows (29,56) and (20,71) both emit (20,71).
	// IDs: 6=(29,56), 7=(20,71), 0=(12,94).
	s := snap([]int{6, 7, 0}, []int{6, 7, 0}, []vecmat.Vector{
		{0.001, 0.999, 0},
		{0, 1, 0},
		{0, 0, 1},
	}, nil)
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindDynamicDeletion {
		t.Fatalf("Kind = %v, want dynamic-deletion (%+v)", d.Kind, d)
	}
	if len(d.RowViolations) == 0 {
		t.Fatal("no row violations reported")
	}
	v := d.RowViolations[0]
	if v.I != 6 || v.J != 7 {
		t.Errorf("violation = %+v, want rows 6 and 7 (state IDs)", v)
	}
}

func TestNetworkCreationSignatureFromPaperTable7(t *testing.T) {
	// Paper Table 7: row (12,95) splits 0.3546/0.6454 over (12,95) and
	// the created (25,69). IDs: 0=(12,94)≈(12,95), 8=(25,69).
	s := snap([]int{0, 1, 3}, []int{0, 1, 3, 8}, []vecmat.Vector{
		{0.3546, 0, 0, 0.6454},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
	}, nil)
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindDynamicCreation {
		t.Fatalf("Kind = %v, want dynamic-creation (%+v)", d.Kind, d)
	}
	found := false
	for _, v := range d.ColViolations {
		if (v.I == 0 && v.J == 8) || (v.I == 8 && v.J == 0) {
			found = true
		}
	}
	if !found {
		t.Errorf("violations = %+v, want cols 0 and 8", d.ColViolations)
	}
}

func TestNetworkMixed(t *testing.T) {
	// Both a split row (creation) and two rows sharing a symbol
	// (deletion).
	s := snap([]int{0, 1, 2}, []int{0, 1, 2, 8}, []vecmat.Vector{
		{0.4, 0, 0, 0.6}, // creation: row 0 splits
		{0, 1, 0, 0},
		{0, 1, 0, 0}, // deletion: rows 1 and 2 share symbol 1
	}, nil)
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindMixed {
		t.Errorf("Kind = %v, want mixed", d.Kind)
	}
}

func TestNetworkChangeAttack(t *testing.T) {
	// One-to-one but displaced: hidden 0=(12,94)→symbol 2=(24,70),
	// hidden 1=(17,84)→symbol 3=(31,56). All attributes differ.
	s := snap([]int{0, 1}, []int{2, 3}, []vecmat.Vector{
		{1, 0},
		{0, 1},
	}, nil)
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindDynamicChange {
		t.Errorf("Kind = %v, want dynamic-change", d.Kind)
	}
}

func TestNetworkSpuriousStateSuppressed(t *testing.T) {
	// State 5 is visited in under 3% of steps; although its row would
	// violate orthogonality, it must be ignored.
	s := snap([]int{0, 1, 5}, []int{0, 1, 5}, []vecmat.Vector{
		{1, 0, 0},
		{0, 1, 0},
		{0.5, 0.5, 0}, // would be a violation if active
	}, map[int]float64{0: 500, 1: 480, 5: 5})
	d, err := Network(s, gdiStates(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindNone {
		t.Errorf("Kind = %v, want none (spurious suppressed)", d.Kind)
	}
	if len(d.ActiveHidden) != 2 {
		t.Errorf("ActiveHidden = %v", d.ActiveHidden)
	}
}

func TestNetworkNoStates(t *testing.T) {
	s := snap(nil, nil, nil, map[int]float64{})
	if _, err := Network(s, gdiStates(), DefaultConfig()); !errors.Is(err, ErrNoStates) {
		t.Errorf("err = %v, want ErrNoStates", err)
	}
}

// TestMaxRowDotSumsInSymbolOrder feeds MaxRowDot a view kept in
// registration order, as a live estimator's is, whose two active rows'
// product rounds differently summed in that order than in ascending symbol
// order; the result must be the ascending sum, as on a snapshot. The third
// row is barely visited and must not count.
func TestMaxRowDotSumsInSymbolOrder(t *testing.T) {
	co := snap([]int{5, 2, 9}, []int{3, 1, 2, 0}, []vecmat.Vector{
		{0.6, 0.9, 0.7, 0.9},
		{0.9, 1.0, 0.7, 0.2},
		{1, 1, 1, 1},
	}, map[int]float64{5: 100, 2: 100, 9: 1}).EmissionView()
	sum := func(cols []int) float64 {
		var dot float64
		for _, c := range cols {
			dot += co.B.At(0, c) * co.B.At(1, c)
		}
		return dot
	}
	ascending, registered := sum([]int{3, 1, 2, 0}), sum([]int{0, 1, 2, 3})
	if ascending == registered {
		t.Fatal("the two summation orders agree; the test cannot tell them apart")
	}
	var w Workspace
	for run := 0; run < 2; run++ { // the second run reuses the workspace
		if got := w.MaxRowDot(co, 0.05); got != ascending {
			t.Fatalf("run %d: MaxRowDot = %v, want the ascending-order sum %v (registration order gives %v)",
				run, got, ascending, registered)
		}
	}
	if got := w.MaxRowDot(co, 0.6); got != 0 {
		t.Fatalf("no active row: MaxRowDot = %v, want 0", got)
	}
}

func TestSensorStuckAtFromPaperTable3(t *testing.T) {
	// Paper Table 3 (sensor 6): every hidden state emits the stuck state
	// (15,1) (ID 4) with dominant probability; ⊥ is present.
	hidden := []int{0, 3, 5, 2, 1}
	symbols := []int{5, 4, track.Bottom}
	rows := []vecmat.Vector{
		{0, 1, 0},
		{0, 1, 0},
		{0, 0.9, 0.1},
		{0.33, 0.67, 0},
		{0.01, 0.99, 0},
	}
	s := snap(hidden, symbols, rows, nil)
	d, err := Sensor(6, s, gdiStates(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindStuckAt {
		t.Fatalf("Kind = %v, want stuck-at (%+v)", d.Kind, d)
	}
	if d.StuckState != 4 {
		t.Errorf("StuckState = %d, want 4 (the (15,1) state)", d.StuckState)
	}
	if d.Kind.IsAttack() || !d.Kind.IsError() {
		t.Error("stuck-at miscategorised")
	}
}

// scaledProfile builds an empirical profile whose means are the correct
// attributes transformed by f, with small within-state spread.
func scaledProfile(states map[int]vecmat.Vector, ids []int, f func(vecmat.Vector) vecmat.Vector, std float64, n int) ErrorProfile {
	out := make(ErrorProfile, len(ids))
	for _, id := range ids {
		mean := f(states[id])
		out[id] = ErrorStats{
			Mean: mean,
			Std:  vecmat.Vector{std, std},
			N:    n,
		}
	}
	return out
}

func TestSensorCalibration(t *testing.T) {
	// One-to-one B^CE with constant ratio ≈1.24/1.16: hidden states
	// 0..3, error states 10..13 with attributes scaled down.
	states := gdiStates()
	states[10] = vecmat.Vector{12 / 1.24, 94 / 1.16}
	states[11] = vecmat.Vector{17 / 1.24, 84 / 1.16}
	states[12] = vecmat.Vector{24 / 1.24, 70 / 1.16}
	states[13] = vecmat.Vector{31 / 1.24, 56 / 1.16}
	s := snap([]int{0, 1, 2, 3}, []int{10, 11, 12, 13, track.Bottom}, []vecmat.Vector{
		{0.86, 0, 0, 0, 0.14},
		{0, 0.85, 0, 0, 0.15},
		{0, 0, 0.87, 0, 0.13},
		{0, 0, 0, 0.9, 0.1},
	}, nil)
	profile := scaledProfile(states, []int{0, 1, 2, 3}, func(v vecmat.Vector) vecmat.Vector {
		return vecmat.Vector{v[0] / 1.24, v[1] / 1.16}
	}, 0.5, 20)
	d, err := Sensor(7, s, states, profile, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindCalibration {
		t.Fatalf("Kind = %v, want calibration (ratio=%+v diff=%+v)", d.Kind, d.Ratio, d.Diff)
	}
	// Ratio means recover the injected factors.
	if d.Ratio.Mean[0] < 1.2 || d.Ratio.Mean[0] > 1.3 {
		t.Errorf("ratio mean = %v, want ≈1.24", d.Ratio.Mean[0])
	}
}

func TestSensorAdditive(t *testing.T) {
	// Constant difference (+5, +10).
	states := gdiStates()
	states[10] = vecmat.Vector{12 - 5, 94 - 10}
	states[11] = vecmat.Vector{17 - 5, 84 - 10}
	states[12] = vecmat.Vector{24 - 5, 70 - 10}
	states[13] = vecmat.Vector{31 - 5, 56 - 10}
	s := snap([]int{0, 1, 2, 3}, []int{10, 11, 12, 13, track.Bottom}, []vecmat.Vector{
		{0.9, 0, 0, 0, 0.1},
		{0, 0.9, 0, 0, 0.1},
		{0, 0, 0.9, 0, 0.1},
		{0, 0, 0, 0.9, 0.1},
	}, nil)
	profile := scaledProfile(states, []int{0, 1, 2, 3}, func(v vecmat.Vector) vecmat.Vector {
		return vecmat.Vector{v[0] - 5, v[1] - 10}
	}, 0.5, 20)
	d, err := Sensor(3, s, states, profile, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindAdditive {
		t.Fatalf("Kind = %v, want additive (ratio=%+v diff=%+v)", d.Kind, d.Ratio, d.Diff)
	}
	if d.Diff.Mean[0] < 4.5 || d.Diff.Mean[0] > 5.5 {
		t.Errorf("diff mean = %v, want ≈5", d.Diff.Mean[0])
	}
}

func TestSensorRandomNoise(t *testing.T) {
	// High within-state variance with near-identity means: the paper's
	// Random-Noise error, identified here from the empirical profile.
	states := gdiStates()
	s := snap([]int{0, 1, 2}, []int{0, 1, 2, 3, track.Bottom}, []vecmat.Vector{
		{0.3, 0.3, 0.2, 0.1, 0.1},
		{0.2, 0.3, 0.3, 0.1, 0.1},
		{0.25, 0.25, 0.25, 0.15, 0.1},
	}, nil)
	profile := scaledProfile(states, []int{0, 1, 2}, func(v vecmat.Vector) vecmat.Vector {
		return v.Clone()
	}, 12, 30)
	d, err := Sensor(2, s, states, profile, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindRandomNoise {
		t.Errorf("Kind = %v, want random-noise (maxStd=%v)", d.Kind, d.MaxStd)
	}
}

func TestSensorHighVarianceNonIdentityIsUnknown(t *testing.T) {
	states := gdiStates()
	s := snap([]int{0, 1}, []int{0, 1, track.Bottom}, []vecmat.Vector{
		{0.5, 0.4, 0.1},
		{0.4, 0.5, 0.1},
	}, nil)
	profile := scaledProfile(states, []int{0, 1}, func(v vecmat.Vector) vecmat.Vector {
		return vecmat.Vector{v[0] + 20, v[1] - 30}
	}, 15, 30)
	d, err := Sensor(1, s, states, profile, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindUnknownError {
		t.Errorf("Kind = %v, want unknown-error", d.Kind)
	}
}

func TestSensorIdentityLowVarianceIsUnknown(t *testing.T) {
	// Agreement with correct states and low variance: boundary flapping,
	// not a fault signature.
	states := gdiStates()
	s := snap([]int{0, 1}, []int{0, 1, track.Bottom}, []vecmat.Vector{
		{0.9, 0, 0.1},
		{0, 0.9, 0.1},
	}, nil)
	profile := scaledProfile(states, []int{0, 1}, func(v vecmat.Vector) vecmat.Vector {
		return v.Clone()
	}, 0.5, 30)
	d, err := Sensor(1, s, states, profile, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindUnknownError {
		t.Errorf("Kind = %v, want unknown-error", d.Kind)
	}
}

func TestSensorNoiseIsUnknown(t *testing.T) {
	// Mass scattered over many symbols with no structure.
	s := snap([]int{0, 1, 2}, []int{0, 1, 2, 3, track.Bottom}, []vecmat.Vector{
		{0.3, 0.3, 0.2, 0.1, 0.1},
		{0.2, 0.3, 0.3, 0.1, 0.1},
		{0.25, 0.25, 0.25, 0.15, 0.1},
	}, nil)
	d, err := Sensor(2, s, gdiStates(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind != KindUnknownError {
		t.Errorf("Kind = %v, want unknown-error (no profile evidence)", d.Kind)
	}
}

func TestSensorAllBottomRowsSkipped(t *testing.T) {
	// The sensor agreed with the majority in every state: no structure
	// to classify.
	s := snap([]int{0, 1}, []int{0, track.Bottom}, []vecmat.Vector{
		{0, 1},
		{0, 1},
	}, nil)
	if _, err := Sensor(1, s, gdiStates(), nil, DefaultConfig()); !errors.Is(err, ErrNoStates) {
		t.Errorf("err = %v, want ErrNoStates", err)
	}
}

func TestSensorSingleActiveStateNotStuck(t *testing.T) {
	// Only one active hidden state: stuck-at cannot be distinguished
	// from a one-to-one error; must not claim stuck-at.
	s := snap([]int{0}, []int{4, track.Bottom}, []vecmat.Vector{
		{0.9, 0.1},
	}, nil)
	d, err := Sensor(5, s, gdiStates(), nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d.Kind == KindStuckAt {
		t.Error("stuck-at claimed from a single hidden state")
	}
}

func TestKindPredicatesAndStrings(t *testing.T) {
	attacks := []Kind{KindDynamicCreation, KindDynamicDeletion, KindDynamicChange, KindMixed}
	errs := []Kind{KindStuckAt, KindCalibration, KindAdditive, KindUnknownError}
	for _, k := range attacks {
		if !k.IsAttack() || k.IsError() {
			t.Errorf("%v predicates wrong", k)
		}
	}
	for _, k := range errs {
		if k.IsAttack() || !k.IsError() {
			t.Errorf("%v predicates wrong", k)
		}
	}
	if KindNone.IsAttack() || KindNone.IsError() {
		t.Error("none predicates wrong")
	}
	names := map[Kind]string{
		KindNone: "none", KindStuckAt: "stuck-at", KindCalibration: "calibration",
		KindAdditive: "additive", KindUnknownError: "unknown-error",
		KindDynamicCreation: "dynamic-creation", KindDynamicDeletion: "dynamic-deletion",
		KindDynamicChange: "dynamic-change", KindMixed: "mixed",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind must stringify")
	}
}
