// Package stats provides the streaming statistics and sequential
// change-detection procedures the detector relies on: running moments
// (Welford), batch summaries, and the SPRT and CUSUM procedures the
// paper's Alarm Filtering module cites (§3.1, [9]).
package stats

import "math"

// Running accumulates count, mean, and variance of a stream using Welford's
// numerically stable one-pass algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (r *Running) Add(x float64) {
	r.n++
	d := x - r.mean
	r.mean += d / float64(r.n)
	r.m2 += d * (x - r.mean)
}

// N returns the number of observations seen.
func (r *Running) N() int { return r.n }

// Mean returns the sample mean (0 before any observation).
func (r *Running) Mean() float64 { return r.mean }

// Variance returns the unbiased sample variance (0 with fewer than two
// observations).
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Reset clears the accumulator.
func (r *Running) Reset() { *r = Running{} }

// RunningState is the serializable form of a Running accumulator: the exact
// Welford triple, so Export/Restore round-trips are bit-identical and a
// restored accumulator continues the stream indistinguishably.
type RunningState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
}

// Export returns the accumulator's serializable state.
func (r Running) Export() RunningState {
	return RunningState{N: r.n, Mean: r.mean, M2: r.m2}
}

// Restore rebuilds a Running accumulator from exported state.
func (s RunningState) Restore() Running {
	return Running{n: s.N, mean: s.Mean, m2: s.M2}
}

// Merge folds another accumulator into r using Chan's parallel-variance
// formula, as if every observation of other had been Added to r.
func (r *Running) Merge(other Running) {
	if other.n == 0 {
		return
	}
	if r.n == 0 {
		*r = other
		return
	}
	na, nb := float64(r.n), float64(other.n)
	delta := other.mean - r.mean
	total := na + nb
	r.mean += delta * nb / total
	r.m2 += other.m2 + delta*delta*na*nb/total
	r.n += other.n
}

// Summary holds batch statistics of a sample.
type Summary struct {
	N        int
	Mean     float64
	Variance float64
	Min      float64
	Max      float64
}

// Summarize computes batch statistics over xs. A zero Summary is returned
// for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var r Running
	s := Summary{Min: xs[0], Max: xs[0]}
	for _, x := range xs {
		r.Add(x)
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.N, s.Mean, s.Variance = r.N(), r.Mean(), r.Variance()
	return s
}
