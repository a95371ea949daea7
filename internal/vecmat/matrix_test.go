package vecmat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIdentity(t *testing.T) {
	m := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Errorf("I[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}
	if !m.IsRowStochastic(1e-12, false) {
		t.Error("identity matrix should be row stochastic")
	}
}

func TestMatrixRowColAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	if err := m.SetRow(0, Vector{1, 2, 3}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	if err := m.SetRow(1, Vector{4, 5, 6}); err != nil {
		t.Fatalf("SetRow: %v", err)
	}
	if got := m.Row(1); !got.Equal(Vector{4, 5, 6}, 0) {
		t.Errorf("Row(1) = %v", got)
	}
	if got := m.Col(2); !got.Equal(Vector{3, 6}, 0) {
		t.Errorf("Col(2) = %v", got)
	}
	if err := m.SetRow(0, Vector{1}); err == nil {
		t.Error("SetRow with wrong length succeeded, want error")
	}
}

func TestMatrixAppendRemove(t *testing.T) {
	m := Identity(2)
	r := m.AppendRow()
	if r != 2 || m.Rows() != 3 {
		t.Fatalf("AppendRow: idx=%d rows=%d", r, m.Rows())
	}
	c := m.AppendCol()
	if c != 2 || m.Cols() != 3 {
		t.Fatalf("AppendCol: idx=%d cols=%d", c, m.Cols())
	}
	m.Set(2, 2, 1)
	// Now m is 3x3 identity.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if got := m.At(i, j); got != want {
				t.Fatalf("after grow, m[%d][%d] = %v, want %v", i, j, got, want)
			}
		}
	}

	m.RemoveRow(1)
	m.RemoveCol(1)
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("after remove: %dx%d, want 2x2", m.Rows(), m.Cols())
	}
	if m.At(0, 0) != 1 || m.At(1, 1) != 1 || m.At(0, 1) != 0 || m.At(1, 0) != 0 {
		t.Errorf("after remove, matrix is\n%v", m)
	}
}

func TestMatrixFoldColInto(t *testing.T) {
	m := NewMatrix(2, 3)
	m.SetRow(0, Vector{1, 2, 4})
	m.SetRow(1, Vector{8, 16, 32})
	m.FoldColInto(1, 2)
	if m.Cols() != 2 {
		t.Fatalf("cols = %d, want 2", m.Cols())
	}
	if got := m.Col(1); !got.Equal(Vector{6, 48}, 0) {
		t.Errorf("folded col = %v, want (6,48)", got)
	}
}

func TestNormalizeRows(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetRow(0, Vector{2, 2})
	m.SetRow(1, Vector{0, 0}) // never-visited row stays zero
	m.SetRow(2, Vector{1, 3})
	m.NormalizeRows()
	if got := m.Row(0); !got.Equal(Vector{0.5, 0.5}, 1e-12) {
		t.Errorf("row 0 = %v", got)
	}
	if got := m.Row(1); !got.Equal(Vector{0, 0}, 0) {
		t.Errorf("row 1 = %v, want zeros", got)
	}
	if got := m.Row(2); !got.Equal(Vector{0.25, 0.75}, 1e-12) {
		t.Errorf("row 2 = %v", got)
	}
	if !m.IsRowStochastic(1e-9, true) {
		t.Error("normalized matrix should be row stochastic (allowing empty rows)")
	}
	if m.IsRowStochastic(1e-9, false) {
		t.Error("matrix with a zero row must fail strict stochasticity")
	}
}

func TestIsRowStochasticRejectsNegative(t *testing.T) {
	m := NewMatrix(1, 2)
	m.SetRow(0, Vector{1.5, -0.5})
	if m.IsRowStochastic(1e-9, false) {
		t.Error("row with negative entry accepted as stochastic")
	}
}

// Property: NormalizeRows is idempotent and preserves row-stochasticity for
// random non-negative matrices.
func TestNormalizeRowsIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, rng.Float64()*10)
			}
		}
		m.NormalizeRows()
		if !m.IsRowStochastic(1e-9, true) {
			return false
		}
		before := m.Clone()
		m.NormalizeRows()
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Abs(m.At(i, j)-before.At(i, j)) > 1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestMatrixRemoveFromEmptyDimension: a row can be removed from a matrix
// with no columns and a column from one with no rows — an estimator whose
// states exist before any symbol does, or the reverse, merges them so.
func TestMatrixRemoveFromEmptyDimension(t *testing.T) {
	m := NewMatrix(2, 0)
	m.RemoveRow(1)
	if m.Rows() != 1 || m.Cols() != 0 {
		t.Errorf("after RemoveRow: %dx%d, want 1x0", m.Rows(), m.Cols())
	}
	m = NewMatrix(0, 2)
	m.RemoveCol(0)
	if m.Rows() != 0 || m.Cols() != 1 {
		t.Errorf("after RemoveCol: %dx%d, want 0x1", m.Rows(), m.Cols())
	}
	for _, remove := range []func(){
		func() { NewMatrix(0, 2).RemoveRow(0) },
		func() { NewMatrix(2, 0).RemoveCol(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range remove did not panic")
				}
			}()
			remove()
		}()
	}
}

func TestMatrixOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At out of range did not panic")
		}
	}()
	NewMatrix(1, 1).At(1, 0)
}

func TestMatrixRowsRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 2, 0.25)
	m.Set(1, 0, math.Nextafter(1, 2))
	rows := m.ExportRows()
	rows[0][0] = 7 // the export is a copy
	if m.At(0, 0) != 0 {
		t.Fatal("ExportRows aliases the matrix")
	}
	rows[0][0] = 0
	back, err := MatrixFromRows(rows, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if math.Float64bits(back.At(i, j)) != math.Float64bits(m.At(i, j)) {
				t.Errorf("(%d,%d) = %v, want %v", i, j, back.At(i, j), m.At(i, j))
			}
		}
	}
	for _, tc := range []struct {
		rows       [][]float64
		want       string
		nrow, ncol int
	}{
		{[][]float64{{1}}, "has 1 rows, want 2", 2, 1},
		{[][]float64{{1, 2}, {3}}, "row 1 has 1 cols, want 2", 2, 2},
	} {
		if _, err := MatrixFromRows(tc.rows, tc.nrow, tc.ncol); err == nil || err.Error() != tc.want {
			t.Errorf("MatrixFromRows(%v) error %v, want %q", tc.rows, err, tc.want)
		}
	}
}
