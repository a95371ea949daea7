package hmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"sensorguard/internal/vecmat"
)

// weatherModel is the classic two-state example: hidden Rainy/Sunny emitting
// Walk/Shop/Clean.
func weatherModel(t *testing.T) *Model {
	t.Helper()
	a := vecmat.NewMatrix(2, 2)
	a.SetRow(0, vecmat.Vector{0.7, 0.3})
	a.SetRow(1, vecmat.Vector{0.4, 0.6})
	b := vecmat.NewMatrix(2, 3)
	b.SetRow(0, vecmat.Vector{0.1, 0.4, 0.5})
	b.SetRow(1, vecmat.Vector{0.6, 0.3, 0.1})
	m, err := NewModel(a, b, vecmat.Vector{0.6, 0.4})
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return m
}

func TestModelValidation(t *testing.T) {
	a := vecmat.NewMatrix(2, 2)
	a.SetRow(0, vecmat.Vector{0.5, 0.5})
	a.SetRow(1, vecmat.Vector{0.5, 0.5})
	b := vecmat.NewMatrix(2, 2)
	b.SetRow(0, vecmat.Vector{1, 0})
	b.SetRow(1, vecmat.Vector{0, 1})

	if _, err := NewModel(nil, b, vecmat.Vector{0.5, 0.5}); err == nil {
		t.Error("nil A accepted")
	}
	if _, err := NewModel(a, b, vecmat.Vector{0.5}); err == nil {
		t.Error("short π accepted")
	}
	if _, err := NewModel(a, b, vecmat.Vector{0.9, 0.9}); err == nil {
		t.Error("non-normalised π accepted")
	}
	bad := a.Clone()
	bad.Set(0, 0, 0.9)
	if _, err := NewModel(bad, b, vecmat.Vector{0.5, 0.5}); err == nil {
		t.Error("non-stochastic A accepted")
	}
	rect := vecmat.NewMatrix(2, 3)
	if _, err := NewModel(rect, b, vecmat.Vector{0.5, 0.5}); err == nil {
		t.Error("rectangular A accepted")
	}
	if _, err := NewModel(a, b, vecmat.Vector{0.5, 0.5}); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
}

func TestLogLikelihoodKnownValue(t *testing.T) {
	m := weatherModel(t)
	// Brute-force P(O) for a short sequence and compare.
	obs := []int{0, 1, 2}
	var want float64
	for s0 := 0; s0 < 2; s0++ {
		for s1 := 0; s1 < 2; s1++ {
			for s2 := 0; s2 < 2; s2++ {
				p := m.Pi[s0] * m.B.At(s0, obs[0]) *
					m.A.At(s0, s1) * m.B.At(s1, obs[1]) *
					m.A.At(s1, s2) * m.B.At(s2, obs[2])
				want += p
			}
		}
	}
	got, err := m.LogLikelihood(obs)
	if err != nil {
		t.Fatalf("LogLikelihood: %v", err)
	}
	if math.Abs(got-math.Log(want)) > 1e-9 {
		t.Errorf("loglik = %v, want %v", got, math.Log(want))
	}
}

func TestLogLikelihoodErrors(t *testing.T) {
	m := weatherModel(t)
	if _, err := m.LogLikelihood(nil); !errors.Is(err, ErrNoObservations) {
		t.Errorf("empty obs err = %v, want ErrNoObservations", err)
	}
	if _, err := m.LogLikelihood([]int{5}); err == nil {
		t.Error("out-of-range symbol accepted")
	}
}

func TestBaumWelchImprovesLikelihood(t *testing.T) {
	truth := weatherModel(t)
	rng := rand.New(rand.NewSource(42))
	obs, _ := truth.Generate(400, rng.Float64)

	est, err := PerturbedUniformModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	before, err := est.LogLikelihood(obs)
	if err != nil {
		t.Fatal(err)
	}
	after, iters, err := est.BaumWelch(obs, 50, 1e-6)
	if err != nil {
		t.Fatalf("BaumWelch: %v", err)
	}
	if after <= before {
		t.Errorf("BaumWelch did not improve likelihood: %v -> %v", before, after)
	}
	if iters == 0 {
		t.Error("BaumWelch performed zero iterations")
	}
	if err := est.Validate(); err != nil {
		t.Errorf("re-estimated model invalid: %v", err)
	}
}

func TestBaumWelchMonotoneLikelihood(t *testing.T) {
	truth := weatherModel(t)
	rng := rand.New(rand.NewSource(9))
	obs, _ := truth.Generate(200, rng.Float64)

	est, err := PerturbedUniformModel(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(-1)
	for i := 0; i < 10; i++ {
		ll, _, err := est.BaumWelch(obs, 1, -1) // one EM step at a time
		if err != nil {
			t.Fatal(err)
		}
		if ll+1e-9 < prev {
			t.Fatalf("likelihood decreased at EM step %d: %v -> %v", i, prev, ll)
		}
		prev = ll
	}
}

func TestBaumWelchErrors(t *testing.T) {
	m := weatherModel(t)
	if _, _, err := m.BaumWelch([]int{0}, 5, 1e-6); !errors.Is(err, ErrNoObservations) {
		t.Errorf("short obs err = %v", err)
	}
}

func TestUniformModel(t *testing.T) {
	m, err := UniformModel(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.States() != 3 || m.Symbols() != 4 {
		t.Errorf("shape = %dx%d", m.States(), m.Symbols())
	}
	if _, err := UniformModel(0, 1); err == nil {
		t.Error("zero states accepted")
	}
}

func TestGenerateRespectsSupport(t *testing.T) {
	m := weatherModel(t)
	rng := rand.New(rand.NewSource(1))
	obs, hidden := m.Generate(1000, rng.Float64)
	if len(obs) != 1000 || len(hidden) != 1000 {
		t.Fatalf("lengths = %d/%d", len(obs), len(hidden))
	}
	for i := range obs {
		if obs[i] < 0 || obs[i] >= m.Symbols() {
			t.Fatalf("obs[%d] = %d out of range", i, obs[i])
		}
		if hidden[i] < 0 || hidden[i] >= m.States() {
			t.Fatalf("hidden[%d] = %d out of range", i, hidden[i])
		}
	}
}

func TestOnlineTracksGeneratedChain(t *testing.T) {
	// The on-line estimator fed the *true* hidden path of a generated
	// sequence should approximately recover B.
	truth := weatherModel(t)
	rng := rand.New(rand.NewSource(17))
	obs, hidden := truth.Generate(20000, rng.Float64)

	o, err := NewOnline(0.05, 0.05) // small factors: long averaging window
	if err != nil {
		t.Fatal(err)
	}
	for t := range obs {
		o.Observe(hidden[t], obs[t])
	}
	snap := o.Snapshot()
	for i := 0; i < 2; i++ {
		ri, _ := snap.HiddenIndex(i)
		for k := 0; k < 3; k++ {
			ck, _ := snap.SymbolIndex(k)
			got := snap.B.At(ri, ck)
			want := truth.B.At(i, k)
			if math.Abs(got-want) > 0.12 {
				t.Errorf("B[%d][%d] = %v, want about %v", i, k, got, want)
			}
		}
	}
}
