package hmm

import (
	"fmt"
	"math"
	"testing"

	"sensorguard/internal/vecmat"
)

// referenceSnapshot is Online.Snapshot as it was before it resolved each
// ID's index once instead of once per cell, kept verbatim as the reference
// the faster form must match bit for bit.
func referenceSnapshot(o *Online) Snapshot {
	hid := o.HiddenIDs()
	sym := o.SymbolIDs()
	a := vecmat.NewMatrix(len(hid), len(hid))
	b := vecmat.NewMatrix(len(hid), len(sym))
	for i, hi := range hid {
		ri := o.hiddenIdx[hi]
		for j, hj := range hid {
			a.Set(i, j, o.a.At(ri, o.hiddenIdx[hj]))
		}
		for j, sj := range sym {
			b.Set(i, j, o.b.At(ri, o.symbolIdx[sj]))
		}
	}
	visits := make(map[int]float64, len(hid))
	for _, h := range hid {
		visits[h] = o.visits[h]
	}
	emits := make(map[int]float64, len(sym))
	for _, s := range sym {
		emits[s] = o.emits[s]
	}
	return Snapshot{HiddenIDs: hid, SymbolIDs: sym, A: a, B: b, Visits: visits, Emissions: emits}
}

// scriptEstimator drives a fresh M_CO-shaped estimator (β = γ = 0.9, one
// alphabet of IDs 0..9 for states and symbols) through the operations
// script encodes, three bytes each: mostly observations, which are
// identity-biased as a healthy network's are, plus state spawns and
// merges of both kinds. check runs after every operation.
func scriptEstimator(tb testing.TB, script []byte, check func(o *Online)) {
	tb.Helper()
	o, err := NewOnline(0.9, 0.9)
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

// FuzzSnapshotMatchesReference: Snapshot equals referenceSnapshot — IDs,
// every A and B entry and both count maps, bit for bit — on every estimator
// a script of observations, spawns and merges produces.
func FuzzSnapshotMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 3, 1, 2, 6, 1, 2, 0, 3, 3})
	f.Add([]byte{4, 5, 0, 5, 7, 0, 3, 5, 7, 0, 5, 5, 7, 5, 7, 6, 7, 5, 1, 2, 2})
	f.Fuzz(func(t *testing.T, script []byte) {
		scriptEstimator(t, script, func(o *Online) {
			if diff := snapshotDiff(o.Snapshot(), referenceSnapshot(o)); diff != "" {
				t.Fatalf("snapshot differs from the reference: %s", diff)
			}
		})
	})
}

// snapshotDiff describes the first difference between two snapshots, bit
// for bit and nil for nil, or returns "".
func snapshotDiff(got, want Snapshot) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"HiddenIDs", got.HiddenIDs, want.HiddenIDs},
		{"SymbolIDs", got.SymbolIDs, want.SymbolIDs},
		{"Visits", got.Visits, want.Visits},
		{"Emissions", got.Emissions, want.Emissions},
	} {
		if g, w := fmt.Sprintf("%#v", f.got), fmt.Sprintf("%#v", f.want); g != w {
			return fmt.Sprintf("%s %s, want %s", f.name, g, w)
		}
	}
	for _, m := range []struct {
		name      string
		got, want *vecmat.Matrix
	}{{"A", got.A, want.A}, {"B", got.B, want.B}} {
		if m.got.Rows() != m.want.Rows() || m.got.Cols() != m.want.Cols() {
			return fmt.Sprintf("%s is %dx%d, want %dx%d", m.name, m.got.Rows(), m.got.Cols(), m.want.Rows(), m.want.Cols())
		}
		for i := 0; i < m.got.Rows(); i++ {
			for j := 0; j < m.got.Cols(); j++ {
				if g, w := m.got.At(i, j), m.want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Sprintf("%s(%d,%d) = %v, want %v", m.name, i, j, g, w)
				}
			}
		}
	}
	return ""
}
