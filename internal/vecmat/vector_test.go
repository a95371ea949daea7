package vecmat

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestVectorAddSub(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}

	sum, err := v.Add(w)
	if err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !sum.Equal(Vector{5, 7, 9}, 1e-12) {
		t.Errorf("Add = %v, want (5,7,9)", sum)
	}
}

func TestVectorDimensionMismatch(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{1, 2, 3}
	if _, err := v.Add(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Add mismatch err = %v, want ErrDimensionMismatch", err)
	}
	if _, err := v.Distance(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Distance mismatch err = %v, want ErrDimensionMismatch", err)
	}
	if err := v.AddInPlace(w); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("AddInPlace mismatch err = %v, want ErrDimensionMismatch", err)
	}
}

func TestVectorScaleNormDistance(t *testing.T) {
	v := Vector{3, 4}
	if got := v.Scale(2); !got.Equal(Vector{6, 8}, 1e-12) {
		t.Errorf("Scale = %v, want (6,8)", got)
	}
	d, err := v.Distance(Vector{0, 0})
	if err != nil {
		t.Fatalf("Distance: %v", err)
	}
	if math.Abs(d-5) > 1e-12 {
		t.Errorf("Distance = %v, want 5", d)
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Errorf("Clone shares backing array: v = %v", v)
	}
}

func TestMean(t *testing.T) {
	got, err := Mean([]Vector{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatalf("Mean: %v", err)
	}
	if !got.Equal(Vector{3, 4}, 1e-12) {
		t.Errorf("Mean = %v, want (3,4)", got)
	}

	if _, err := Mean(nil); err == nil {
		t.Error("Mean(nil) succeeded, want error")
	}
	if _, err := Mean([]Vector{{1}, {1, 2}}); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("Mean ragged err = %v, want ErrDimensionMismatch", err)
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{12, 94}
	if got := v.String(); got != "(12,94)" {
		t.Errorf("String = %q, want (12,94)", got)
	}
}

func TestVectorTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c [3]float64) bool {
		// Guard against pathological float inputs from quick.
		for _, x := range [][3]float64{a, b, c} {
			for _, v := range x {
				if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
					return true
				}
			}
		}
		u, v, w := Vector(a[:]), Vector(b[:]), Vector(c[:])
		duw, _ := u.Distance(w)
		duv, _ := u.Distance(v)
		dvw, _ := v.Distance(w)
		return duw <= duv+dvw+1e-6*(1+duv+dvw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
