// Package alarm implements the paper's Alarm Generation and Alarm Filtering
// modules (§3.1). Raw alarms — raised whenever a sensor's reading does not
// map to the correct environment state — are noisy (the paper measures a
// 1.5% raw false-alarm rate on a healthy GDI node, Fig. 12), so a filter
// turns the raw stream into a stable per-sensor alarm *level* that the
// track-management module keys on.
//
// Three filters are provided: the simple k-of-n rule the paper describes,
// and the two sequential change-detection schemes it cites (SPRT, CUSUM).
package alarm

import (
	"errors"
	"fmt"

	"sensorguard/internal/stats"
)

// Filter turns a per-sensor stream of raw alarms into a filtered alarm
// level. Implementations keep independent state per sensor.
type Filter interface {
	// Observe folds in one time step for the sensor and returns the
	// filtered alarm level after the step (true = alarm raised).
	Observe(sensorID int, raw bool) bool
}

// KOfN raises the filtered alarm while at least K of the last N raw
// observations were alarms — the paper's simple filtering rule.
type KOfN struct {
	k, n    int
	history map[int]*ring
}

type ring struct {
	buf   []bool
	next  int
	count int // alarms currently in buf
	fill  int // observations seen, capped at len(buf)
}

func (r *ring) push(v bool) int {
	if r.fill == len(r.buf) && r.buf[r.next] {
		r.count--
	}
	if r.fill < len(r.buf) {
		r.fill++
	}
	r.buf[r.next] = v
	if v {
		r.count++
	}
	r.next = (r.next + 1) % len(r.buf)
	return r.count
}

var _ Filter = (*KOfN)(nil)

// NewKOfN builds a k-of-n filter (1 ≤ k ≤ n).
func NewKOfN(k, n int) (*KOfN, error) {
	if k < 1 || n < k {
		return nil, fmt.Errorf("alarm: need 1 <= k <= n, got k=%d n=%d", k, n)
	}
	return &KOfN{k: k, n: n, history: make(map[int]*ring)}, nil
}

// Observe implements Filter.
func (f *KOfN) Observe(sensorID int, raw bool) bool {
	r, ok := f.history[sensorID]
	if !ok {
		r = &ring{buf: make([]bool, f.n)}
		f.history[sensorID] = r
	}
	return r.push(raw) >= f.k
}

// SPRTFilter drives the filtered level with Wald's sequential test: the
// level raises on AcceptH1 and clears on AcceptH0, holding in between.
type SPRTFilter struct {
	p0, p1, alpha, beta float64
	tests               map[int]*stats.SPRT
	level               map[int]bool
}

var _ Filter = (*SPRTFilter)(nil)

// NewSPRTFilter builds an SPRT-driven filter; parameters as stats.NewSPRT.
func NewSPRTFilter(p0, p1, alpha, beta float64) (*SPRTFilter, error) {
	if _, err := stats.NewSPRT(p0, p1, alpha, beta); err != nil {
		return nil, err
	}
	return &SPRTFilter{
		p0: p0, p1: p1, alpha: alpha, beta: beta,
		tests: make(map[int]*stats.SPRT),
		level: make(map[int]bool),
	}, nil
}

// Observe implements Filter.
func (f *SPRTFilter) Observe(sensorID int, raw bool) bool {
	test, ok := f.tests[sensorID]
	if !ok {
		// Parameters were validated in the constructor.
		test, _ = stats.NewSPRT(f.p0, f.p1, f.alpha, f.beta)
		f.tests[sensorID] = test
	}
	switch test.Observe(raw) {
	case stats.AcceptH1:
		f.level[sensorID] = true
	case stats.AcceptH0:
		f.level[sensorID] = false
	}
	return f.level[sensorID]
}

// CUSUMFilter raises the level when the cumulative statistic crosses its
// threshold and clears it after ClearAfter consecutive alarm-free steps.
type CUSUMFilter struct {
	p0, p1, h  float64
	clearAfter int
	tests      map[int]*stats.CUSUM
	level      map[int]bool
	quiet      map[int]int
}

var _ Filter = (*CUSUMFilter)(nil)

// NewCUSUMFilter builds a CUSUM-driven filter; p0, p1, h as stats.NewCUSUM,
// clearAfter > 0.
func NewCUSUMFilter(p0, p1, h float64, clearAfter int) (*CUSUMFilter, error) {
	if _, err := stats.NewCUSUM(p0, p1, h); err != nil {
		return nil, err
	}
	if clearAfter <= 0 {
		return nil, errors.New("alarm: clearAfter must be positive")
	}
	return &CUSUMFilter{
		p0: p0, p1: p1, h: h, clearAfter: clearAfter,
		tests: make(map[int]*stats.CUSUM),
		level: make(map[int]bool),
		quiet: make(map[int]int),
	}, nil
}

// Observe implements Filter.
func (f *CUSUMFilter) Observe(sensorID int, raw bool) bool {
	test, ok := f.tests[sensorID]
	if !ok {
		test, _ = stats.NewCUSUM(f.p0, f.p1, f.h)
		f.tests[sensorID] = test
	}
	if test.Observe(raw) {
		f.level[sensorID] = true
	}
	if raw {
		f.quiet[sensorID] = 0
	} else {
		f.quiet[sensorID]++
		if f.quiet[sensorID] >= f.clearAfter {
			f.level[sensorID] = false
		}
	}
	return f.level[sensorID]
}

// Stats accumulates raw and filtered alarm counts per sensor, backing the
// Fig. 12 false-alarm-rate measurements.
type Stats struct {
	steps    map[int]int
	raw      map[int]int
	filtered map[int]int
}

// NewStats returns an empty accumulator.
func NewStats() *Stats {
	return &Stats{steps: make(map[int]int), raw: make(map[int]int), filtered: make(map[int]int)}
}

// Record folds in one step's raw and filtered alarm for a sensor.
func (s *Stats) Record(sensorID int, raw, filtered bool) {
	s.steps[sensorID]++
	if raw {
		s.raw[sensorID]++
	}
	if filtered {
		s.filtered[sensorID]++
	}
}

// Steps returns the steps observed for a sensor.
func (s *Stats) Steps(sensorID int) int { return s.steps[sensorID] }

// RawRate returns the raw alarm rate for a sensor (0 with no steps).
func (s *Stats) RawRate(sensorID int) float64 {
	if s.steps[sensorID] == 0 {
		return 0
	}
	return float64(s.raw[sensorID]) / float64(s.steps[sensorID])
}

// Totals returns the step, raw-alarm, and filtered-alarm counts summed over
// every sensor — the aggregate view a metrics scrape cross-checks against.
func (s *Stats) Totals() (steps, raw, filtered int) {
	for _, n := range s.steps {
		steps += n
	}
	for _, n := range s.raw {
		raw += n
	}
	for _, n := range s.filtered {
		filtered += n
	}
	return steps, raw, filtered
}

// FilteredRate returns the filtered alarm rate for a sensor.
func (s *Stats) FilteredRate(sensorID int) float64 {
	if s.steps[sensorID] == 0 {
		return 0
	}
	return float64(s.filtered[sensorID]) / float64(s.steps[sensorID])
}
