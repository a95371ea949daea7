package vecmat

// The structural classifier of the paper (§3.4) decides between error and
// attack types by testing whether the rows and columns of an HMM emission
// matrix B are (approximately) orthogonal:
//
//	∀i,j: Σ_k b_ik·b_jk = δ_ij   (rows)
//	∀i,j: Σ_k b_ki·b_kj = δ_ij   (columns)
//
// The experimental section uses thresholds rather than exact equality
// (Σ < 0.1 for i≠j, Σ > 0.8 for i=j); OrthoThresholds captures them.

// OrthoThresholds parameterises the approximate orthogonality test.
type OrthoThresholds struct {
	// MaxOffDiag is the largest allowed dot product between two distinct
	// rows (columns). The paper's evaluation uses 0.1.
	MaxOffDiag float64
	// MinDiag is the smallest allowed self-dot-product of a row. The
	// paper's evaluation uses 0.8. It only applies to rows (which are
	// probability distributions); column self-products carry no such
	// normalisation and are not tested.
	MinDiag float64
}

// DefaultOrthoThresholds mirrors the thresholds reported in §4.1.
func DefaultOrthoThresholds() OrthoThresholds {
	return OrthoThresholds{MaxOffDiag: 0.1, MinDiag: 0.8}
}

// OrthoViolation describes one failed orthogonality condition: the pair of
// rows or columns whose dot product exceeded the threshold.
type OrthoViolation struct {
	I, J int     // indices of the offending pair (I < J), or I == J for a diagonal failure
	Dot  float64 // the offending dot product
}

// RowsOrthogonal tests the row condition over the subset of row indices in
// active (every row index when active is nil) and appends every violation
// to dst. Nothing is appended when the rows are orthogonal within the
// thresholds, so a nil dst comes back nil; callers that test every window
// pass their previous result resliced to zero length and allocate nothing.
func (m *Matrix) RowsOrthogonal(dst []OrthoViolation, th OrthoThresholds, active []int) []OrthoViolation {
	n := span(active, m.rows)
	for a := 0; a < n; a++ {
		i := index(active, a)
		if d := m.rowDot(i, i); d < th.MinDiag {
			dst = append(dst, OrthoViolation{I: i, J: i, Dot: d})
		}
		for b := a + 1; b < n; b++ {
			j := index(active, b)
			if d := m.rowDot(i, j); d > th.MaxOffDiag {
				dst = append(dst, OrthoViolation{I: i, J: j, Dot: d})
			}
		}
	}
	return dst
}

// ColsOrthogonal tests the column condition over the subset of column
// indices in active (every column when active is nil) and appends every
// violation to dst, as RowsOrthogonal does. As in the paper, raw dot
// products are used: with row-stochastic B every entry is at most one, so a
// split row (the creation signature) yields a cross product well above the
// threshold while estimation noise stays below it.
func (m *Matrix) ColsOrthogonal(dst []OrthoViolation, th OrthoThresholds, active []int) []OrthoViolation {
	n := span(active, m.cols)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			i, j := index(active, a), index(active, b)
			if d := m.colDot(i, j); d > th.MaxOffDiag {
				dst = append(dst, OrthoViolation{I: i, J: j, Dot: d})
			}
		}
	}
	return dst
}

// rowDot and colDot index the row slices directly; each sum runs in
// ascending k, as a loop over At would.
func (m *Matrix) rowDot(i, j int) float64 {
	a, b := m.RowView(i), m.RowView(j)
	b = b[:len(a)]
	var s float64
	for k, v := range a {
		s += v * b[k]
	}
	return s
}

func (m *Matrix) colDot(i, j int) float64 {
	var s float64
	for k := 0; k < m.rows; k++ {
		row := m.RowView(k)
		s += row[i] * row[j]
	}
	return s
}

// span and index walk an active index subset without materialising it: a
// nil active stands for every index below n, an empty one for none.
func span(active []int, n int) int {
	if active == nil {
		return n
	}
	return len(active)
}

func index(active []int, a int) int {
	if active == nil {
		return a
	}
	return active[a]
}

// DominantCol returns, for row i, the column with the largest entry and that
// entry's value. The classifier uses it to associate a hidden state with the
// symbol it most often emits (footnote 6 of the paper).
func (m *Matrix) DominantCol(i int) (col int, mass float64) {
	col = -1
	for j, v := range m.RowView(i) {
		if v > mass {
			mass, col = v, j
		}
	}
	return col, mass
}

// AllOnesColumn tests the stuck-at signature of Eq. (7): a single column k
// whose entries are ~1 on every active row while all other columns are ~0.
// It returns the column index and true when such a column exists. minOne is
// the per-entry threshold for "approximately one" (the paper's sensor-6
// matrix has entries down to 0.67 on one row; the evaluation treats it as
// "approximately all ones", so callers typically pass ~0.5 and require the
// column to dominate every row instead of demanding exact ones).
func (m *Matrix) AllOnesColumn(active []int, minOne float64) (int, bool) {
	n := span(active, m.rows)
	if n == 0 {
		return -1, false
	}
	col := -1
	for a := 0; a < n; a++ {
		c, mass := m.DominantCol(index(active, a))
		if c < 0 || mass < minOne {
			return -1, false
		}
		if col == -1 {
			col = c
		} else if c != col {
			return -1, false
		}
	}
	return col, true
}
