package classify

import (
	"fmt"
	"math"
	"testing"

	"sensorguard/internal/hmm"
	"sensorguard/internal/vecmat"
)

// referenceNetwork is Network as it was before the analysis moved into a
// reusable Workspace, kept verbatim — with the helpers and the vecmat
// orthogonality tests it called — as the reference the workspace must
// match bit for bit.
func referenceNetwork(co hmm.Snapshot, states map[int]vecmat.Vector, cfg Config) (NetworkDiagnosis, error) {
	activeRows := referenceActiveHidden(co, cfg.MinStateShare)
	if len(activeRows) == 0 {
		return NetworkDiagnosis{}, ErrNoStates
	}
	// Restrict B to the active rows so spurious states contaminate
	// neither the row nor the column tests.
	sub := vecmat.NewMatrix(len(activeRows), len(co.SymbolIDs))
	for i, id := range activeRows {
		ri, err := co.HiddenIndex(id)
		if err != nil {
			return NetworkDiagnosis{}, err
		}
		if err := sub.SetRow(i, co.B.Row(ri)); err != nil {
			return NetworkDiagnosis{}, err
		}
	}
	colIdx, _ := referenceActiveSymbolsOf(sub, referenceAllRows(sub.Rows()), co.SymbolIDs)

	d := NetworkDiagnosis{ActiveHidden: activeRows}
	for _, v := range referenceRowsOrthogonal(sub, cfg.NetRowOrtho, nil) {
		d.RowViolations = append(d.RowViolations, vecmat.OrthoViolation{
			I: activeRows[v.I], J: activeRows[v.J], Dot: v.Dot,
		})
	}
	for _, v := range referenceColsOrthogonal(sub, cfg.NetColOrtho, colIdx) {
		d.ColViolations = append(d.ColViolations, vecmat.OrthoViolation{
			I: co.SymbolIDs[v.I], J: co.SymbolIDs[v.J], Dot: v.Dot,
		})
	}
	for i := range activeRows {
		c, mass := sub.DominantCol(i)
		if c >= 0 {
			d.Associations = append(d.Associations, Association{
				Hidden: activeRows[i], Symbol: co.SymbolIDs[c], Mass: mass,
			})
		}
	}

	if referenceIsChangeMapping(d.Associations, states, cfg.ChangeMinDelta, cfg.ChangeMinDominance) {
		d.Kind = KindDynamicChange
		d.Confidence = networkConfidence(&d, cfg)
		return d, nil
	}
	offDiagRows := 0
	for _, v := range d.RowViolations {
		if v.I != v.J {
			offDiagRows++
		}
	}
	colsBad := len(d.ColViolations) > 0
	switch {
	case offDiagRows > 0 && colsBad:
		d.Kind = KindMixed
	case offDiagRows > 0:
		d.Kind = KindDynamicDeletion
	case colsBad:
		d.Kind = KindDynamicCreation
	default:
		d.Kind = KindNone
	}
	d.Confidence = networkConfidence(&d, cfg)
	return d, nil
}

func referenceIsChangeMapping(assocs []Association, states map[int]vecmat.Vector, minDelta, minDominance float64) bool {
	if len(assocs) == 0 {
		return false
	}
	seen := make(map[int]bool, len(assocs))
	for _, a := range assocs {
		if a.Mass < minDominance {
			return false
		}
		if seen[a.Symbol] {
			return false // not injective
		}
		seen[a.Symbol] = true
	}
	return isChangeAttack(assocs, states, minDelta)
}

func referenceAllRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func referenceActiveHidden(s hmm.Snapshot, minShare float64) []int {
	var total float64
	for _, v := range s.Visits {
		total += v
	}
	if total == 0 {
		return nil
	}
	var out []int
	for _, id := range s.HiddenIDs {
		if s.Visits[id]/total >= minShare {
			out = append(out, id)
		}
	}
	return out
}

func referenceActiveSymbolsOf(b *vecmat.Matrix, rowIdx []int, ids []int) ([]int, []int) {
	const minMass = 0.05
	var idx, out []int
	for j := 0; j < b.Cols(); j++ {
		var mass float64
		for _, ri := range rowIdx {
			mass += b.At(ri, j)
		}
		if mass >= minMass {
			idx = append(idx, j)
			out = append(out, ids[j])
		}
	}
	return idx, out
}

func referenceRowsOrthogonal(m *vecmat.Matrix, th vecmat.OrthoThresholds, active []int) []vecmat.OrthoViolation {
	idx := referenceActiveIndices(active, m.Rows())
	var out []vecmat.OrthoViolation
	for a := 0; a < len(idx); a++ {
		i := idx[a]
		if d := referenceRowDot(m, i, i); d < th.MinDiag {
			out = append(out, vecmat.OrthoViolation{I: i, J: i, Dot: d})
		}
		for b := a + 1; b < len(idx); b++ {
			j := idx[b]
			if d := referenceRowDot(m, i, j); d > th.MaxOffDiag {
				out = append(out, vecmat.OrthoViolation{I: i, J: j, Dot: d})
			}
		}
	}
	return out
}

func referenceColsOrthogonal(m *vecmat.Matrix, th vecmat.OrthoThresholds, active []int) []vecmat.OrthoViolation {
	idx := referenceActiveIndices(active, m.Cols())
	var out []vecmat.OrthoViolation
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			i, j := idx[a], idx[b]
			if d := referenceColDot(m, i, j); d > th.MaxOffDiag {
				out = append(out, vecmat.OrthoViolation{I: i, J: j, Dot: d})
			}
		}
	}
	return out
}

func referenceRowDot(m *vecmat.Matrix, i, j int) float64 {
	var s float64
	for k := 0; k < m.Cols(); k++ {
		s += m.At(i, k) * m.At(j, k)
	}
	return s
}

func referenceColDot(m *vecmat.Matrix, i, j int) float64 {
	var s float64
	for k := 0; k < m.Rows(); k++ {
		s += m.At(k, i) * m.At(k, j)
	}
	return s
}

func referenceActiveIndices(active []int, n int) []int {
	if active != nil {
		return active
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// FuzzNetworkMatchesReference: on every M_CO-shaped estimator a script of
// observations, state spawns and merges produces, a Workspace reused across
// the whole script and run on the live estimator, and Network on a
// snapshot, both return referenceNetwork's diagnosis — every field bit for
// bit, nil slices nil and empty ones empty — and the same error. The
// script's first bytes set the attributes of states 0..9 and the
// spurious-state share, so the Dynamic-Change test and the active-row
// filter both vary.
func FuzzNetworkMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 1, 2, 6, 1, 2, 0, 3, 3})
	// Two states emitting one symbol (deletion), then a split row
	// (creation), then merges of both kinds.
	f.Add([]byte{9, 40, 80, 120, 160, 200, 240, 30, 70, 110, 150,
		0, 1, 1, 0, 2, 2, 3, 1, 2, 3, 1, 2, 3, 3, 4, 0, 3, 3, 3, 3, 4, 0, 4, 4,
		6, 2, 3, 7, 4, 1, 0, 0, 0, 5, 8, 0, 3, 8, 8})
	// A displaced one-to-one mapping (the Dynamic-Change signature).
	f.Add([]byte{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
		3, 0, 5, 3, 0, 5, 3, 1, 6, 3, 1, 6, 3, 2, 7, 3, 2, 7, 3, 0, 5, 3, 1, 6, 3, 2, 7})
	// One state splitting its emissions over two symbols (creation).
	f.Add([]byte{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
		0, 0, 0, 3, 0, 1, 0, 0, 0, 3, 0, 1, 0, 2, 2, 0, 2, 2, 0, 0, 0, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 11 {
			return
		}
		cfg := DefaultConfig()
		cfg.MinStateShare = float64(data[0]%32) / 100
		states := make(map[int]vecmat.Vector, 10)
		for id := 0; id < 10; id++ {
			v := float64(data[1+id])
			states[id] = vecmat.Vector{v / 4, 100 - v/3}
		}
		var ws Workspace
		scriptEstimator(t, data[11:], func(o *hmm.Online) {
			want, wantErr := referenceNetwork(o.Snapshot(), states, cfg)
			viaSnapshot, errSnapshot := Network(o.Snapshot(), states, cfg)
			live, errLive := ws.Network(o.EmissionView(), states, cfg)
			for _, got := range []struct {
				name string
				d    NetworkDiagnosis
				err  error
			}{{"Network", viaSnapshot, errSnapshot}, {"Workspace.Network", live, errLive}} {
				if fmt.Sprint(got.err) != fmt.Sprint(wantErr) {
					t.Fatalf("%s error %v, want %v", got.name, got.err, wantErr)
				}
				if diff := diagnosisDiff(got.d, want); diff != "" {
					t.Fatalf("%s differs from the reference: %s", got.name, diff)
				}
			}
		})
	})
}

// diagnosisDiff describes the first difference between two diagnoses, bit
// for bit and nil for nil, or returns "".
func diagnosisDiff(got, want NetworkDiagnosis) string {
	if math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
		return fmt.Sprintf("Confidence %v, want %v", got.Confidence, want.Confidence)
	}
	for _, pair := range [][2]any{
		{got.Kind, want.Kind},
		{got.RowViolations, want.RowViolations},
		{got.ColViolations, want.ColViolations},
		{got.Associations, want.Associations},
		{got.ActiveHidden, want.ActiveHidden},
	} {
		if g, w := bitString(pair[0]), bitString(pair[1]); g != w {
			return fmt.Sprintf("%s, want %s", g, w)
		}
	}
	return ""
}

// bitString renders v with %#v after replacing each float64 inside a
// violation or association by its bit pattern, so the comparison sees
// signed zeros and NaN payloads.
func bitString(v any) string {
	switch s := v.(type) {
	case []vecmat.OrthoViolation:
		if s == nil {
			return fmt.Sprintf("%#v", s)
		}
		out := make([][3]uint64, len(s))
		for i, x := range s {
			out[i] = [3]uint64{uint64(x.I), uint64(x.J), math.Float64bits(x.Dot)}
		}
		return fmt.Sprintf("violations%#v", out)
	case []Association:
		if s == nil {
			return fmt.Sprintf("%#v", s)
		}
		out := make([][3]uint64, len(s))
		for i, x := range s {
			out[i] = [3]uint64{uint64(x.Hidden), uint64(x.Symbol), math.Float64bits(x.Mass)}
		}
		return fmt.Sprintf("associations%#v", out)
	}
	return fmt.Sprintf("%#v", v)
}

// scriptEstimator drives a fresh M_CO-shaped estimator (β = γ = 0.9, one
// alphabet of IDs 0..9 for states and symbols) through the operations
// script encodes, three bytes each: mostly observations, which are
// identity-biased as a healthy network's are, plus state spawns and
// merges of both kinds. check runs after every operation. It is the
// script hmm's FuzzSnapshotMatchesReference runs, so the two targets cover
// the same estimators.
func scriptEstimator(tb testing.TB, script []byte, check func(o *hmm.Online)) {
	tb.Helper()
	o, err := hmm.NewOnline(0.9, 0.9)
	if err != nil {
		tb.Fatal(err)
	}
	for ; len(script) >= 3; script = script[3:] {
		op, x, y := script[0]%8, int(script[1]%10), int(script[2]%10)
		switch op {
		case 0, 1, 2:
			o.Observe(x, x)
		case 3:
			o.Observe(x, y)
		case 4:
			o.EnsureHidden(x)
		case 5:
			o.EnsureSymbol(x)
		case 6:
			_ = o.MergeHidden(x, y) // unknown IDs are refused, and that is fine
		case 7:
			_ = o.MergeSymbol(x, y)
		}
		check(o)
	}
}
