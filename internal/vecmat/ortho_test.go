package vecmat

import (
	"math"
	"testing"
)

// permutation builds a permutation-like emission matrix: hidden state i emits
// symbol perm[i] with probability 1.
func permutation(perm []int, cols int) *Matrix {
	m := NewMatrix(len(perm), cols)
	for i, j := range perm {
		m.Set(i, j, 1)
	}
	return m
}

func TestRowsOrthogonalCleanPermutation(t *testing.T) {
	m := permutation([]int{0, 1, 2}, 3)
	th := DefaultOrthoThresholds()
	if v := m.RowsOrthogonal(nil, th, nil); len(v) != 0 {
		t.Errorf("permutation rows flagged: %+v", v)
	}
	if v := m.ColsOrthogonal(nil, th, nil); len(v) != 0 {
		t.Errorf("permutation cols flagged: %+v", v)
	}
}

func TestRowsNotOrthogonalDeletionSignature(t *testing.T) {
	// Two hidden states emitting the same symbol: the Dynamic-Deletion
	// signature of Table 6 (rows (29,56) and (20,71) both emit (20,71)).
	m := NewMatrix(3, 3)
	m.SetRow(0, Vector{0.001, 0.999, 0})
	m.SetRow(1, Vector{0, 1, 0})
	m.SetRow(2, Vector{0, 0, 1})
	th := DefaultOrthoThresholds()
	v := m.RowsOrthogonal(nil, th, nil)
	if len(v) == 0 {
		t.Fatal("deletion signature not flagged by row test")
	}
	found := false
	for _, viol := range v {
		if viol.I == 0 && viol.J == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected violation between rows 0 and 1, got %+v", v)
	}
	// The column test must stay clean in this scenario only if columns are
	// orthogonal; here column 1 receives mass from rows 0 and 1, but each
	// *pair of columns* shares no row mass, so columns remain orthogonal.
	if cv := m.ColsOrthogonal(nil, th, nil); len(cv) != 0 {
		t.Errorf("columns unexpectedly flagged: %+v", cv)
	}
}

func TestColsNotOrthogonalCreationSignature(t *testing.T) {
	// One hidden state splitting mass over two symbols: the
	// Dynamic-Creation signature of Table 7 (row (12,95) = 0.3546/0.6454).
	m := NewMatrix(4, 5)
	m.SetRow(0, Vector{1, 0, 0, 0, 0})
	m.SetRow(1, Vector{0, 1, 0, 0, 0})
	m.SetRow(2, Vector{0, 0, 1, 0, 0})
	m.SetRow(3, Vector{0, 0, 0, 0.3546, 0.6454})
	th := DefaultOrthoThresholds()
	cv := m.ColsOrthogonal(nil, th, nil)
	if len(cv) == 0 {
		t.Fatal("creation signature not flagged by column test")
	}
	found := false
	for _, viol := range cv {
		if viol.I == 3 && viol.J == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected violation between cols 3 and 4, got %+v", cv)
	}
	// Rows: row 3 has self-dot 0.3546²+0.6454² ≈ 0.54 < 0.8, so the row
	// diagonal condition also fires — the paper treats a creation attack
	// as detected through the column condition; both may fire.
	rv := m.RowsOrthogonal(nil, th, nil)
	foundDiag := false
	for _, viol := range rv {
		if viol.I == 3 && viol.J == 3 {
			foundDiag = true
		}
	}
	if !foundDiag {
		t.Errorf("expected diagonal violation on row 3, got %+v", rv)
	}
}

func TestOrthogonalityActiveSubset(t *testing.T) {
	// A spurious never-classified state (row/col 2) violates orthogonality,
	// but restricting to the active subset {0,1} must pass.
	m := NewMatrix(3, 3)
	m.SetRow(0, Vector{1, 0, 0})
	m.SetRow(1, Vector{0, 1, 0})
	m.SetRow(2, Vector{0.5, 0.5, 0})
	th := DefaultOrthoThresholds()
	if v := m.RowsOrthogonal(nil, th, []int{0, 1}); len(v) != 0 {
		t.Errorf("active-subset rows flagged: %+v", v)
	}
	if v := m.RowsOrthogonal(nil, th, nil); len(v) == 0 {
		t.Error("full-set rows should be flagged")
	}
	if v := m.ColsOrthogonal(nil, th, []int{0, 1}); len(v) == 0 {
		t.Error("columns 0 and 1 share row-2 mass and should be flagged")
	}
}

func TestAllOnesColumn(t *testing.T) {
	// Table 3 shape: every hidden state emits the stuck symbol (column 1)
	// with dominant probability.
	m := NewMatrix(5, 3)
	m.SetRow(0, Vector{0, 1, 0})
	m.SetRow(1, Vector{0, 1, 0})
	m.SetRow(2, Vector{0, 0.9, 0.1})
	m.SetRow(3, Vector{0.33, 0.67, 0})
	m.SetRow(4, Vector{0.01, 0.99, 0})
	col, ok := m.AllOnesColumn(nil, 0.5)
	if !ok || col != 1 {
		t.Errorf("AllOnesColumn = (%d,%v), want (1,true)", col, ok)
	}

	// A one-to-one (calibration-like) matrix must not match.
	p := permutation([]int{0, 1, 2}, 3)
	if _, ok := p.AllOnesColumn(nil, 0.5); ok {
		t.Error("permutation matrix matched stuck-at signature")
	}

	// Empty active set cannot match.
	if _, ok := m.AllOnesColumn([]int{}, 0.5); ok {
		t.Error("empty active set matched stuck-at signature")
	}
}

func TestDominantColAndColMass(t *testing.T) {
	m := NewMatrix(2, 3)
	m.SetRow(0, Vector{0.2, 0.7, 0.1})
	m.SetRow(1, Vector{0.6, 0.3, 0.1})
	if c, mass := m.DominantCol(0); c != 1 || math.Abs(mass-0.7) > 1e-12 {
		t.Errorf("DominantCol(0) = (%d,%v)", c, mass)
	}
	zero := NewMatrix(2, 2)
	if c, _ := zero.DominantCol(0); c != -1 {
		t.Errorf("DominantCol on zero row = %d, want -1", c)
	}
}
