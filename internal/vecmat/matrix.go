package vecmat

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Matrix is a dense row-major matrix. The detector uses it for the HMM
// transition matrix A and the emission matrices B^CO / B^CE, whose dimensions
// change as the model-state set evolves, so rows and columns can be appended
// and removed.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Reshape makes m a zero rows×cols matrix, reusing its storage when it is
// large enough: a workspace that rebuilds a small matrix every window
// allocates only when the matrix outgrows every earlier one.
func (m *Matrix) Reshape(rows, cols int) {
	m.rows, m.cols = rows, cols
	m.data = slices.Grow(m.data[:0], rows*cols)[:rows*cols]
	clear(m.data)
}

// Identity returns the n×n identity matrix, the paper's initial value for
// both A and B (§3.2).
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns element (i, j). It panics on out-of-range indices, mirroring
// slice semantics: indices here are always derived from the registry and an
// out-of-range access is a programming error, not a runtime condition.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// check is small enough to inline into At and Set: it panics with an
// indexError, whose message is formatted only if someone prints it.
func (m *Matrix) check(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
}

// indexError is the panic value of an out-of-range element access.
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	return fmt.Sprintf("vecmat: index (%d,%d) out of range for %dx%d matrix", e.i, e.j, e.rows, e.cols)
}

// RowView returns row i in place: a slice of the matrix's own storage, so
// writes go through. It is valid until the matrix is next reshaped or grows
// or loses a row or column.
func (m *Matrix) RowView(i int) []float64 {
	if uint(i) >= uint(m.rows) {
		panic(indexError{i, 0, m.rows, m.cols})
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Clone returns an independent copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) Vector {
	out := make(Vector, m.cols)
	copy(out, m.data[i*m.cols:(i+1)*m.cols])
	return out
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) Vector {
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// ExportRows returns the matrix as one copied slice per row, the form
// checkpoints serialise.
func (m *Matrix) ExportRows() [][]float64 {
	out := make([][]float64, m.rows)
	for i := range out {
		out[i] = m.Row(i)
	}
	return out
}

// MatrixFromRows rebuilds a rows×cols matrix from ExportRows output. The
// error says which dimension is wrong; callers prefix it with the matrix's
// name.
func MatrixFromRows(data [][]float64, rows, cols int) (*Matrix, error) {
	if len(data) != rows {
		return nil, fmt.Errorf("has %d rows, want %d", len(data), rows)
	}
	m := NewMatrix(rows, cols)
	for i, row := range data {
		if len(row) != cols {
			return nil, fmt.Errorf("row %d has %d cols, want %d", i, len(row), cols)
		}
		copy(m.data[i*cols:], row)
	}
	return m, nil
}

// SetRow overwrites row i with v.
func (m *Matrix) SetRow(i int, v Vector) error {
	if len(v) != m.cols {
		return fmt.Errorf("set row of length %d in %dx%d matrix: %w", len(v), m.rows, m.cols, ErrDimensionMismatch)
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
	return nil
}

// AppendRow grows the matrix by one zero row and returns its index.
func (m *Matrix) AppendRow() int {
	m.data = append(m.data, make([]float64, m.cols)...)
	m.rows++
	return m.rows - 1
}

// AppendCol grows the matrix by one zero column and returns its index.
func (m *Matrix) AppendCol() int {
	next := make([]float64, m.rows*(m.cols+1))
	for i := 0; i < m.rows; i++ {
		copy(next[i*(m.cols+1):], m.data[i*m.cols:(i+1)*m.cols])
	}
	m.data = next
	m.cols++
	return m.cols - 1
}

// RemoveRow deletes row i, shifting later rows up.
func (m *Matrix) RemoveRow(i int) {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("vecmat: row %d out of range for %dx%d matrix", i, m.rows, m.cols))
	}
	copy(m.data[i*m.cols:], m.data[(i+1)*m.cols:])
	m.data = m.data[:(m.rows-1)*m.cols]
	m.rows--
}

// RemoveCol deletes column j, shifting later columns left.
func (m *Matrix) RemoveCol(j int) {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("vecmat: column %d out of range for %dx%d matrix", j, m.rows, m.cols))
	}
	next := make([]float64, m.rows*(m.cols-1))
	for i := 0; i < m.rows; i++ {
		copy(next[i*(m.cols-1):], m.data[i*m.cols:i*m.cols+j])
		copy(next[i*(m.cols-1)+j:], m.data[i*m.cols+j+1:(i+1)*m.cols])
	}
	m.data = next
	m.cols--
}

// FoldColInto adds column src into column dst and removes column src.
func (m *Matrix) FoldColInto(dst, src int) {
	if dst == src {
		return
	}
	for i := 0; i < m.rows; i++ {
		m.Set(i, dst, m.At(i, dst)+m.At(i, src))
	}
	m.RemoveCol(src)
}

// NormalizeRows rescales every row to sum to one. Rows that sum to zero are
// left untouched (they represent states never visited).
func (m *Matrix) NormalizeRows() {
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			s += m.At(i, j)
		}
		if s <= 0 {
			continue
		}
		for j := 0; j < m.cols; j++ {
			m.Set(i, j, m.At(i, j)/s)
		}
	}
}

// IsRowStochastic reports whether every row is a probability distribution
// within tol: non-negative entries summing to 1. Rows summing to 0 (never
// visited) are accepted when allowEmpty is true.
func (m *Matrix) IsRowStochastic(tol float64, allowEmpty bool) bool {
	for i := 0; i < m.rows; i++ {
		var s float64
		for j := 0; j < m.cols; j++ {
			v := m.At(i, j)
			if v < -tol {
				return false
			}
			s += v
		}
		if allowEmpty && math.Abs(s) <= tol {
			continue
		}
		if math.Abs(s-1) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix with 3-decimal entries, one row per line.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			b.WriteByte('\n')
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(strconv.FormatFloat(m.At(i, j), 'f', 3, 64))
		}
	}
	return b.String()
}
