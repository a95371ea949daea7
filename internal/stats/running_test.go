package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningMatchesBatch(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	if r.N() != len(xs) {
		t.Errorf("N = %d, want %d", r.N(), len(xs))
	}
	if math.Abs(r.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", r.Mean())
	}
	// Unbiased variance of this classic sample is 32/7.
	if want := 32.0 / 7.0; math.Abs(r.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", r.Variance(), want)
	}
	if math.Abs(r.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", r.StdDev())
	}
}

func TestRunningEdgeCases(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Error("zero value Running must report zeros")
	}
	r.Add(42)
	if r.Variance() != 0 {
		t.Errorf("variance of single sample = %v, want 0", r.Variance())
	}
	r.Reset()
	if r.N() != 0 {
		t.Error("Reset did not clear count")
	}
}

// Property: Welford agrees with the two-pass textbook formula on random data.
func TestRunningAgainstTwoPassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 100
		}
		var r Running
		var sum float64
		for _, x := range xs {
			r.Add(x)
			sum += x
		}
		mean := sum / float64(n)
		var m2 float64
		for _, x := range xs {
			m2 += (x - mean) * (x - mean)
		}
		wantVar := m2 / float64(n-1)
		return math.Abs(r.Mean()-mean) < 1e-9 && math.Abs(r.Variance()-wantVar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRunningMerge(t *testing.T) {
	xs := []float64{1, 5, 2, 8, 3, 9, 4, 7}
	var whole, a, b Running
	for i, x := range xs {
		whole.Add(x)
		if i < 3 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	if a.N() != whole.N() {
		t.Errorf("merged N = %d, want %d", a.N(), whole.N())
	}
	if math.Abs(a.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("merged mean = %v, want %v", a.Mean(), whole.Mean())
	}
	if math.Abs(a.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("merged variance = %v, want %v", a.Variance(), whole.Variance())
	}

	// Merging an empty accumulator is a no-op; merging into empty copies.
	var empty Running
	before := a
	a.Merge(empty)
	if a != before {
		t.Error("merge of empty changed accumulator")
	}
	empty.Merge(a)
	if math.Abs(empty.Mean()-a.Mean()) > 1e-12 || empty.N() != a.N() {
		t.Error("merge into empty did not copy")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || math.Abs(s.Mean-2) > 1e-12 {
		t.Errorf("Summarize = %+v", s)
	}
	if math.Abs(s.Variance-1) > 1e-12 {
		t.Errorf("Variance = %v, want 1", s.Variance)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero", z)
	}
}
