package hmm

import (
	"errors"
	"fmt"
	"math"

	"sensorguard/internal/vecmat"
)

// Model is a classical HMM λ = (A, B, π) over index-based states 0..M-1 and
// symbols 0..N-1 (Rabiner's notation, §2 of the paper).
type Model struct {
	A  *vecmat.Matrix // M×M state transition distribution
	B  *vecmat.Matrix // M×N observation symbol distribution
	Pi vecmat.Vector  // initial state distribution, length M
}

// NewModel validates and wraps the given distributions.
func NewModel(a, b *vecmat.Matrix, pi vecmat.Vector) (*Model, error) {
	m := &Model{A: a, B: b, Pi: pi}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// Validate checks shape compatibility and stochasticity.
func (m *Model) Validate() error {
	if m.A == nil || m.B == nil {
		return errors.New("hmm: nil distribution matrix")
	}
	states := m.A.Rows()
	if m.A.Cols() != states {
		return fmt.Errorf("hmm: A is %dx%d, want square", m.A.Rows(), m.A.Cols())
	}
	if m.B.Rows() != states {
		return fmt.Errorf("hmm: B has %d rows, want %d", m.B.Rows(), states)
	}
	if len(m.Pi) != states {
		return fmt.Errorf("hmm: π has length %d, want %d", len(m.Pi), states)
	}
	const tol = 1e-6
	if !m.A.IsRowStochastic(tol, false) {
		return errors.New("hmm: A is not row stochastic")
	}
	if !m.B.IsRowStochastic(tol, false) {
		return errors.New("hmm: B is not row stochastic")
	}
	var s float64
	for _, p := range m.Pi {
		if p < -tol {
			return errors.New("hmm: π has negative mass")
		}
		s += p
	}
	if math.Abs(s-1) > tol {
		return fmt.Errorf("hmm: π sums to %v, want 1", s)
	}
	return nil
}

// States returns the number of hidden states M.
func (m *Model) States() int { return m.A.Rows() }

// Symbols returns the number of observation symbols N.
func (m *Model) Symbols() int { return m.B.Cols() }

// LogLikelihood runs the scaled forward algorithm and returns
// log Pr{O|λ} for the observation sequence obs (symbol indices). This is the
// quantity thresholded by the prior intrusion-detection work the paper
// critiques (Pr{O|λ} < η ⇒ anomaly).
func (m *Model) LogLikelihood(obs []int) (float64, error) {
	alpha, logProb, err := m.forward(obs)
	_ = alpha
	return logProb, err
}

// forward computes scaled forward variables and the sequence log-likelihood.
func (m *Model) forward(obs []int) ([][]float64, float64, error) {
	if len(obs) == 0 {
		return nil, 0, ErrNoObservations
	}
	states := m.States()
	alpha := make([][]float64, len(obs))
	var logProb float64
	for t := range obs {
		if obs[t] < 0 || obs[t] >= m.Symbols() {
			return nil, 0, fmt.Errorf("hmm: symbol %d out of range [0,%d)", obs[t], m.Symbols())
		}
		alpha[t] = make([]float64, states)
		var scale float64
		for j := 0; j < states; j++ {
			var p float64
			if t == 0 {
				p = m.Pi[j]
			} else {
				for i := 0; i < states; i++ {
					p += alpha[t-1][i] * m.A.At(i, j)
				}
			}
			p *= m.B.At(j, obs[t])
			alpha[t][j] = p
			scale += p
		}
		if scale == 0 {
			return nil, math.Inf(-1), nil
		}
		for j := range alpha[t] {
			alpha[t][j] /= scale
		}
		logProb += math.Log(scale)
	}
	return alpha, logProb, nil
}

// backward computes scaled backward variables using the same per-step
// scaling as forward (the standard Rabiner scaling).
func (m *Model) backward(obs []int, alpha [][]float64) [][]float64 {
	states := m.States()
	t := len(obs)
	beta := make([][]float64, t)
	beta[t-1] = make([]float64, states)
	for j := range beta[t-1] {
		beta[t-1][j] = 1
	}
	for step := t - 2; step >= 0; step-- {
		beta[step] = make([]float64, states)
		var scale float64
		for i := 0; i < states; i++ {
			var p float64
			for j := 0; j < states; j++ {
				p += m.A.At(i, j) * m.B.At(j, obs[step+1]) * beta[step+1][j]
			}
			beta[step][i] = p
			scale += p
		}
		if scale > 0 {
			for i := range beta[step] {
				beta[step][i] /= scale
			}
		}
	}
	return beta
}

// BaumWelch re-estimates the model in place from an observation sequence,
// running up to maxIter EM iterations or until the log-likelihood improves
// by less than tol. It returns the final log-likelihood and the number of
// iterations performed. This is the expensive classical identification step
// whose training cost (reported as ~2 weeks in [Warrender et al.]) motivates
// the paper's redundancy-based shortcut.
func (m *Model) BaumWelch(obs []int, maxIter int, tol float64) (float64, int, error) {
	if len(obs) < 2 {
		return 0, 0, ErrNoObservations
	}
	states, symbols := m.States(), m.Symbols()
	prevLL := math.Inf(-1)
	iter := 0
	for ; iter < maxIter; iter++ {
		alpha, ll, err := m.forward(obs)
		if err != nil {
			return 0, iter, err
		}
		if math.IsInf(ll, -1) {
			return ll, iter, errors.New("hmm: observation sequence has zero probability")
		}
		if ll-prevLL < tol && iter > 0 {
			return ll, iter, nil
		}
		prevLL = ll
		beta := m.backward(obs, alpha)

		// gamma[t][i] ∝ alpha[t][i]·beta[t][i]
		gamma := make([][]float64, len(obs))
		for t := range obs {
			gamma[t] = make([]float64, states)
			var s float64
			for i := 0; i < states; i++ {
				gamma[t][i] = alpha[t][i] * beta[t][i]
				s += gamma[t][i]
			}
			if s > 0 {
				for i := range gamma[t] {
					gamma[t][i] /= s
				}
			}
		}

		// Accumulate xi sums for A and gamma sums for B.
		aNum := vecmat.NewMatrix(states, states)
		aDen := make([]float64, states)
		for t := 0; t < len(obs)-1; t++ {
			var s float64
			xi := vecmat.NewMatrix(states, states)
			for i := 0; i < states; i++ {
				for j := 0; j < states; j++ {
					v := alpha[t][i] * m.A.At(i, j) * m.B.At(j, obs[t+1]) * beta[t+1][j]
					xi.Set(i, j, v)
					s += v
				}
			}
			if s == 0 {
				continue
			}
			for i := 0; i < states; i++ {
				for j := 0; j < states; j++ {
					aNum.Set(i, j, aNum.At(i, j)+xi.At(i, j)/s)
				}
				aDen[i] += gamma[t][i]
			}
		}
		bNum := vecmat.NewMatrix(states, symbols)
		bDen := make([]float64, states)
		for t := range obs {
			for i := 0; i < states; i++ {
				bNum.Set(i, obs[t], bNum.At(i, obs[t])+gamma[t][i])
				bDen[i] += gamma[t][i]
			}
		}

		// M step with a small floor to keep the model ergodic.
		const floor = 1e-10
		for i := 0; i < states; i++ {
			m.Pi[i] = gamma[0][i]
			if aDen[i] > 0 {
				for j := 0; j < states; j++ {
					m.A.Set(i, j, math.Max(aNum.At(i, j)/aDen[i], floor))
				}
			}
			if bDen[i] > 0 {
				for k := 0; k < symbols; k++ {
					m.B.Set(i, k, math.Max(bNum.At(i, k)/bDen[i], floor))
				}
			}
		}
		m.A.NormalizeRows()
		m.B.NormalizeRows()
		normalizePi(m.Pi)
	}
	ll, err := m.LogLikelihood(obs)
	return ll, iter, err
}

func normalizePi(pi vecmat.Vector) {
	var s float64
	for _, p := range pi {
		s += p
	}
	if s <= 0 {
		for i := range pi {
			pi[i] = 1 / float64(len(pi))
		}
		return
	}
	for i := range pi {
		pi[i] /= s
	}
}

// UniformModel returns a model with uniform A, B, and π — the usual blind
// starting point for Baum-Welch.
func UniformModel(states, symbols int) (*Model, error) {
	if states <= 0 || symbols <= 0 {
		return nil, errors.New("hmm: states and symbols must be positive")
	}
	a := vecmat.NewMatrix(states, states)
	b := vecmat.NewMatrix(states, symbols)
	pi := vecmat.NewVector(states)
	for i := 0; i < states; i++ {
		pi[i] = 1 / float64(states)
		for j := 0; j < states; j++ {
			a.Set(i, j, 1/float64(states))
		}
		for k := 0; k < symbols; k++ {
			b.Set(i, k, 1/float64(symbols))
		}
	}
	return NewModel(a, b, pi)
}

// PerturbedUniformModel returns a uniform model with deterministic small
// asymmetries (Baum-Welch cannot escape a perfectly symmetric saddle point).
func PerturbedUniformModel(states, symbols int) (*Model, error) {
	m, err := UniformModel(states, symbols)
	if err != nil {
		return nil, err
	}
	for i := 0; i < states; i++ {
		for j := 0; j < states; j++ {
			m.A.Set(i, j, m.A.At(i, j)*(1+0.01*float64((i+j)%3)))
		}
		for k := 0; k < symbols; k++ {
			m.B.Set(i, k, m.B.At(i, k)*(1+0.01*float64((i+2*k)%5)))
		}
	}
	m.A.NormalizeRows()
	m.B.NormalizeRows()
	return m, nil
}

// Generate samples a length-n observation sequence (and the hidden path)
// from the model using the supplied uniform random source in [0,1).
func (m *Model) Generate(n int, randFloat func() float64) (obs, hidden []int) {
	obs = make([]int, n)
	hidden = make([]int, n)
	state := sample(m.Pi, randFloat())
	for t := 0; t < n; t++ {
		hidden[t] = state
		obs[t] = sample(m.B.Row(state), randFloat())
		state = sample(m.A.Row(state), randFloat())
	}
	return obs, hidden
}

func sample(dist vecmat.Vector, u float64) int {
	var acc float64
	for i, p := range dist {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(dist) - 1
}
