// Package vecmat provides the small dense linear-algebra primitives the
// detector is built on: attribute vectors, dense matrices, stochastic-matrix
// maintenance, and the row/column orthogonality tests used by the structural
// classifier (paper §3.4).
//
// Everything here is deliberately simple and allocation-conscious: the
// detector runs one update per observation window, on matrices whose
// dimension is the number of model states (single digits in the paper's
// evaluation), so clarity wins over asymptotics.
package vecmat

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Vector is a point in attribute space (e.g. ⟨temperature, humidity⟩).
type Vector []float64

// ErrDimensionMismatch is returned by vector and matrix operations whose
// operands do not share the required shape.
var ErrDimensionMismatch = errors.New("vecmat: dimension mismatch")

// NewVector returns a zero vector with n components.
func NewVector(n int) Vector {
	return make(Vector, n)
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) (Vector, error) {
	if len(v) != len(w) {
		return nil, fmt.Errorf("add %d-vector to %d-vector: %w", len(w), len(v), ErrDimensionMismatch)
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out, nil
}

// Scale returns k·v.
func (v Vector) Scale(k float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = k * v[i]
	}
	return out
}

// AddInPlace accumulates w into v. It returns ErrDimensionMismatch when the
// lengths differ.
func (v Vector) AddInPlace(w Vector) error {
	if len(v) != len(w) {
		return fmt.Errorf("accumulate %d-vector into %d-vector: %w", len(w), len(v), ErrDimensionMismatch)
	}
	for i := range v {
		v[i] += w[i]
	}
	return nil
}

// Distance returns the Euclidean distance ‖v - w‖₂, the metric used by the
// nearest-state queries of Eqs. (2) and (3).
func (v Vector) Distance(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("distance between %d-vector and %d-vector: %w", len(w), len(v), ErrDimensionMismatch)
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return math.Sqrt(s), nil
}

// SquaredDistance returns ‖v - w‖₂² — the comparison key of the detector's
// nearest-state queries, which only need the argmin and therefore skip the
// square root of Distance on the hot path.
func (v Vector) SquaredDistance(w Vector) (float64, error) {
	if len(v) != len(w) {
		return 0, fmt.Errorf("distance between %d-vector and %d-vector: %w", len(w), len(v), ErrDimensionMismatch)
	}
	var s float64
	for i := range v {
		d := v[i] - w[i]
		s += d * d
	}
	return s, nil
}

// Mean returns the component-wise mean of the given vectors. It returns an
// error when vs is empty or the vectors disagree in dimension.
func Mean(vs []Vector) (Vector, error) {
	if len(vs) == 0 {
		return nil, errors.New("vecmat: mean of zero vectors")
	}
	out := make(Vector, len(vs[0]))
	for _, v := range vs {
		if err := out.AddInPlace(v); err != nil {
			return nil, err
		}
	}
	inv := 1.0 / float64(len(vs))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}

// Equal reports whether v and w agree component-wise within tol.
func (v Vector) Equal(w Vector, tol float64) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if math.Abs(v[i]-w[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the vector in the paper's tuple notation, e.g. "(12,94)".
func (v Vector) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(x, 'g', 4, 64))
	}
	b.WriteByte(')')
	return b.String()
}
