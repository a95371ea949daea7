package stats

import (
	"errors"
	"math"
)

// The paper's Alarm Filtering module (§3.1) suggests filtering raw alarms
// either with a simple k-of-n rule or with sequential change-detection
// schemes — the Sequential Probability Ratio Test (SPRT) and the Cumulative
// Sum (CUSUM) procedure [Basseville & Nikiforov]. Both are implemented here
// over Bernoulli alarm streams: under H0 a healthy sensor raises a raw alarm
// with small probability p0 (boundary noise), under H1 a faulty/malicious
// sensor raises alarms with much larger probability p1.

// Decision is the outcome of a sequential test step.
type Decision int

// Sequential test outcomes.
const (
	// Continue means the test has not accumulated enough evidence.
	Continue Decision = iota + 1
	// AcceptH0 means the stream is consistent with healthy behaviour.
	AcceptH0
	// AcceptH1 means a change (fault/attack) has been detected.
	AcceptH1
)

// String returns the decision name.
func (d Decision) String() string {
	switch d {
	case Continue:
		return "continue"
	case AcceptH0:
		return "accept-h0"
	case AcceptH1:
		return "accept-h1"
	default:
		return "unknown"
	}
}

// SPRT is Wald's sequential probability ratio test for a Bernoulli stream.
// It accumulates the log-likelihood ratio of H1 (alarm probability p1) over
// H0 (alarm probability p0) and stops when it crosses the boundaries implied
// by the desired error rates.
type SPRT struct {
	llr        float64
	lowerBound float64
	upperBound float64
	llr1, llr0 float64 // per-observation increments for alarm / no-alarm
}

// NewSPRT builds a Bernoulli SPRT. p0 < p1 are the alarm probabilities under
// H0 and H1; alpha and beta are the acceptable false-positive and
// false-negative rates.
func NewSPRT(p0, p1, alpha, beta float64) (*SPRT, error) {
	switch {
	case p0 <= 0 || p1 >= 1 || p0 >= p1:
		return nil, errors.New("stats: SPRT needs 0 < p0 < p1 < 1")
	case alpha <= 0 || alpha >= 1 || beta <= 0 || beta >= 1:
		return nil, errors.New("stats: SPRT needs error rates in (0,1)")
	}
	return &SPRT{
		lowerBound: math.Log(beta / (1 - alpha)),
		upperBound: math.Log((1 - beta) / alpha),
		llr1:       math.Log(p1 / p0),
		llr0:       math.Log((1 - p1) / (1 - p0)),
	}, nil
}

// Observe folds in one Bernoulli observation (true = raw alarm) and returns
// the test decision. After AcceptH0 or AcceptH1 the test restarts from zero
// evidence, so it can be used continuously on a stream.
func (s *SPRT) Observe(alarm bool) Decision {
	if alarm {
		s.llr += s.llr1
	} else {
		s.llr += s.llr0
	}
	switch {
	case s.llr >= s.upperBound:
		s.llr = 0
		return AcceptH1
	case s.llr <= s.lowerBound:
		s.llr = 0
		return AcceptH0
	default:
		return Continue
	}
}

// Evidence returns the current log-likelihood ratio.
func (s *SPRT) Evidence() float64 { return s.llr }

// CUSUM is a one-sided cumulative-sum detector on a Bernoulli alarm stream:
// g ← max(0, g + z), where z is the log-likelihood-ratio increment of the
// observation, and a change is declared when g exceeds threshold h.
type CUSUM struct {
	g          float64
	h          float64
	llr1, llr0 float64
}

// NewCUSUM builds a Bernoulli CUSUM with pre/post-change alarm probabilities
// p0 < p1 and decision threshold h > 0.
func NewCUSUM(p0, p1, h float64) (*CUSUM, error) {
	if p0 <= 0 || p1 >= 1 || p0 >= p1 {
		return nil, errors.New("stats: CUSUM needs 0 < p0 < p1 < 1")
	}
	if h <= 0 {
		return nil, errors.New("stats: CUSUM needs threshold h > 0")
	}
	return &CUSUM{
		h:    h,
		llr1: math.Log(p1 / p0),
		llr0: math.Log((1 - p1) / (1 - p0)),
	}, nil
}

// Observe folds in one observation and reports whether the cumulative
// statistic crossed the threshold. On detection the statistic resets.
func (c *CUSUM) Observe(alarm bool) bool {
	z := c.llr0
	if alarm {
		z = c.llr1
	}
	c.g = math.Max(0, c.g+z)
	if c.g >= c.h {
		c.g = 0
		return true
	}
	return false
}

// Statistic returns the current cumulative statistic g.
func (c *CUSUM) Statistic() float64 { return c.g }

// Reset clears the cumulative statistic.
func (c *CUSUM) Reset() { c.g = 0 }
