package exp

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sensorguard/internal/classify"
	"sensorguard/internal/env"
	"sensorguard/internal/fault"
	"sensorguard/internal/markov"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// ---------------------------------------------------------------------------
// Table 1 — experimental setup.

// Table1Row is one parameter row of the setup table.
type Table1Row struct {
	Parameter   string
	Description string
	Value       string
}

// Table1 returns the experimental setup, mirroring the paper's Table 1.
// Note on β/γ: the paper lists 0.90, which this implementation reads as the
// retention weight of the §3.2 update (see core.DefaultConfig); both views
// are printed.
func Table1() []Table1Row {
	return []Table1Row{
		{"K", "Number of sensors", "10"},
		{"M", "Number of initial model states", "6"},
		{"w", "Observation window size", "12 samples (1h)"},
		{"alpha", "Learning factor used to estimate model states", "0.10"},
		{"beta", "Learning factor for state transition probability A", "0.90 retention (update weight 0.10)"},
		{"gamma", "Learning factor for observation symbol probability B", "0.90 retention (update weight 0.10)"},
	}
}

// RenderTable1 prints the setup table.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — experimental setup\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6s %-55s %s\n", r.Parameter, r.Description, r.Value)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 6 — humidity and temperature variation over one day.

// Figure6Result is the daily attribute variation (the paper plots July 9).
type Figure6Result struct {
	Day      int
	Points   []SeriesPoint
	TempMin  float64
	TempMax  float64
	HumMin   float64
	HumMax   float64
	Readings int
}

// Figure6 reproduces the daily variation plot: the network-mean temperature
// and humidity over one full day (day 9 of the trace), hourly resolution.
func Figure6(cfg Config) (Figure6Result, error) {
	if err := cfg.Validate(); err != nil {
		return Figure6Result{}, err
	}
	day := 9
	if cfg.Days <= day {
		day = cfg.Days - 1
	}
	tr, err := gdiGenerate(cfg)
	if err != nil {
		return Figure6Result{}, err
	}
	start := time.Duration(day) * 24 * time.Hour
	end := start + 24*time.Hour
	var selected []sensorReading
	for _, r := range tr.Readings {
		if r.Time >= start && r.Time < end {
			selected = append(selected, r)
		}
	}
	res := Figure6Result{Day: day, Readings: len(selected)}
	res.Points = meanSeries(selected, time.Hour)
	if len(res.Points) == 0 {
		return res, fmt.Errorf("exp: no data in day %d", day)
	}
	res.TempMin, res.TempMax = res.Points[0].Temp, res.Points[0].Temp
	res.HumMin, res.HumMax = res.Points[0].Hum, res.Points[0].Hum
	for _, p := range res.Points {
		res.TempMin = minF(res.TempMin, p.Temp)
		res.TempMax = maxF(res.TempMax, p.Temp)
		res.HumMin = minF(res.HumMin, p.Hum)
		res.HumMax = maxF(res.HumMax, p.Hum)
	}
	return res, nil
}

// String renders the daily series as an hour-by-hour table.
func (r Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — daily variation (day %d, %d readings)\n", r.Day, r.Readings)
	fmt.Fprintf(&b, "  temp range [%.1f, %.1f] °C, humidity range [%.1f, %.1f] %%\n",
		r.TempMin, r.TempMax, r.HumMin, r.HumMax)
	b.WriteString("  hour  temp   hum\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %4.0f %5.1f %5.1f\n", p.T.Hours()-float64(r.Day)*24, p.Temp, p.Hum)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — correct Markov model M_C of the environment.

// StateInfo describes one recovered model state.
type StateInfo struct {
	ID        int
	Attrs     vecmat.Vector
	Occupancy float64
	Key       bool // one of the four main states (vs spurious)
}

// Figure7Result is the recovered correct Markov model.
type Figure7Result struct {
	States      []StateInfo
	Transitions []markov.Transition
	// KeyRecovered counts how many of the paper's four key states have a
	// well-visited recovered state within MatchRadius.
	KeyRecovered int
	MatchRadius  float64
	Dot          string
}

// Figure7 reproduces the correct Markov model: a month-long fault-free run,
// returning M_C's states and transitions. The paper finds four key states —
// (12,94), (17,84), (24,70), (31,56) — plus a low-probability spurious one.
func Figure7(cfg Config) (Figure7Result, error) {
	det, _, err := run(cfg)
	if err != nil {
		return Figure7Result{}, err
	}
	mc := det.CorrectChain()
	attrs := det.StateAttributes()
	occ := mc.StationaryOccupancy()

	res := Figure7Result{MatchRadius: 5}
	ids := mc.IDs()
	labels := make(map[int]string, len(ids))
	for _, id := range ids {
		info := StateInfo{ID: id, Attrs: attrs[id], Occupancy: occ[id]}
		info.Key = info.Occupancy >= 0.05
		res.States = append(res.States, info)
		labels[id] = stateLabel(attrs, id)
	}
	sort.Slice(res.States, func(i, j int) bool { return res.States[i].Occupancy > res.States[j].Occupancy })
	res.Transitions = mc.Transitions(0.05)
	res.Dot = mc.Dot(labels, 0.05)

	for _, key := range env.GDIKeyStates() {
		kv := vecmat.Vector{key[0], key[1]}
		for _, st := range res.States {
			if st.Attrs == nil || st.Occupancy < 0.05 {
				continue
			}
			if d, err := st.Attrs.Distance(kv); err == nil && d <= res.MatchRadius {
				res.KeyRecovered++
				break
			}
		}
	}
	return res, nil
}

// String renders the recovered model.
func (r Figure7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7 — correct Markov model M_C (%d/4 key states recovered within %.0f units)\n",
		r.KeyRecovered, r.MatchRadius)
	b.WriteString("  states (by occupancy):\n")
	for _, s := range r.States {
		tag := "spurious"
		if s.Key {
			tag = "key"
		}
		fmt.Fprintf(&b, "    %-10s occupancy %.3f  [%s]\n", s.Attrs, s.Occupancy, tag)
	}
	b.WriteString("  transitions (p ≥ 0.05):\n")
	for _, t := range r.Transitions {
		fmt.Fprintf(&b, "    s%d -> s%d  p=%.2f (count %.0f)\n", t.From, t.To, t.Prob, t.Count)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 8 — faulty sensors 6 and 7 versus healthy sensor 9.

// Figure8Result holds one week of humidity traces for the two faulty sensors
// and a healthy reference.
type Figure8Result struct {
	WeekStart time.Duration
	Sensor6   []SeriesPoint
	Sensor7   []SeriesPoint
	Sensor9   []SeriesPoint
	// Final6Hum is sensor 6's last humidity reading (the paper's sensor 6
	// decays to an almost-zero value).
	Final6Hum float64
	// Ratio7 is sensor 7's average humidity relative to sensor 9 (the
	// paper reports ≈10% above correct sensors).
	Ratio7 float64
}

// Figure8 reproduces the faulty-sensor traces: sensor 6 decays to (15,1)
// from day 2, sensor 7 reads ≈10% high in humidity.
func Figure8(cfg Config) (Figure8Result, error) {
	if err := cfg.Validate(); err != nil {
		return Figure8Result{}, err
	}
	plan, err := paperFaultPlan()
	if err != nil {
		return Figure8Result{}, err
	}
	tr, err := gdiGenerate(cfg, network.WithFaults(plan))
	if err != nil {
		return Figure8Result{}, err
	}
	weekStart := 2 * 24 * time.Hour
	weekEnd := weekStart + 7*24*time.Hour
	if weekEnd > time.Duration(cfg.Days)*24*time.Hour {
		weekEnd = time.Duration(cfg.Days) * 24 * time.Hour
	}
	slice := func(sensorID int) []SeriesPoint {
		var rs []sensorReading
		for _, r := range tr.FilterSensor(sensorID) {
			if r.Time >= weekStart && r.Time < weekEnd {
				rs = append(rs, r)
			}
		}
		return meanSeries(rs, 4*time.Hour)
	}
	res := Figure8Result{
		WeekStart: weekStart,
		Sensor6:   slice(6),
		Sensor7:   slice(7),
		Sensor9:   slice(9),
	}
	if n := len(res.Sensor6); n > 0 {
		res.Final6Hum = res.Sensor6[n-1].Hum
	}
	var sum7, sum9 float64
	n := minI(len(res.Sensor7), len(res.Sensor9))
	for i := 0; i < n; i++ {
		sum7 += res.Sensor7[i].Hum
		sum9 += res.Sensor9[i].Hum
	}
	if sum9 > 0 {
		res.Ratio7 = sum7 / sum9
	}
	return res, nil
}

// String renders the comparison.
func (r Figure8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8 — faulty sensors 6 (decaying) and 7 (miscalibrated) vs healthy 9\n")
	fmt.Fprintf(&b, "  sensor 6 final humidity: %.1f%% (decays toward ~1%%)\n", r.Final6Hum)
	fmt.Fprintf(&b, "  sensor 7 humidity vs sensor 9: ×%.2f (paper: ≈×1.10)\n", r.Ratio7)
	b.WriteString("  t(h)   hum6   hum7   hum9\n")
	n := minI(len(r.Sensor6), minI(len(r.Sensor7), len(r.Sensor9)))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  %4.0f %6.1f %6.1f %6.1f\n",
			r.Sensor6[i].T.Hours(), r.Sensor6[i].Hum, r.Sensor7[i].Hum, r.Sensor9[i].Hum)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Fig. 9 + Tables 2 & 3 — HMMs for the stuck-at sensor 6.

// StuckAtResult is the sensor-6 experiment outcome.
type StuckAtResult struct {
	BCO        MatrixView
	BCE        MatrixView
	Network    classify.NetworkDiagnosis
	Diagnosis  classify.SensorDiagnosis
	StuckAttrs vecmat.Vector
}

// Tables2And3 reproduces the stuck-at classification: sensor 6 decays to
// (15,1) from day 2 (with thinning traffic, as in the field data); B^CO must
// stay approximately orthogonal while B^CE develops the Eq. (7) all-ones
// column, classifying the sensor as stuck-at.
func Tables2And3(cfg Config) (StuckAtResult, error) {
	plan, err := sensor6Plan(cfg)
	if err != nil {
		return StuckAtResult{}, err
	}
	det, _, err := run(cfg, network.WithFaults(plan))
	if err != nil {
		return StuckAtResult{}, err
	}
	rep, err := det.Report()
	if err != nil {
		return StuckAtResult{}, err
	}
	attrs := det.StateAttributes()
	co := det.ModelCO()
	res := StuckAtResult{
		BCO:     matrixView("B^CO (faulty sensor 6)", co.HiddenIDs, co.SymbolIDs, co.B, attrs),
		Network: rep.Network,
	}
	if ce, ok := det.ModelCE(6); ok {
		res.BCE = matrixView("B^CE (faulty sensor 6)", ce.HiddenIDs, ce.SymbolIDs, ce.B, attrs)
	}
	res.Diagnosis = rep.Sensors[6]
	if v, ok := attrs[res.Diagnosis.StuckState]; ok {
		res.StuckAttrs = v
	}
	return res, nil
}

// String renders the stuck-at experiment.
func (r StuckAtResult) String() string {
	var b strings.Builder
	b.WriteString("Tables 2-3 / Fig. 9 — stuck-at fault on sensor 6\n")
	fmt.Fprintf(&b, "  network diagnosis: %v (want none: errors keep B^CO orthogonal)\n", r.Network.Kind)
	fmt.Fprintf(&b, "  sensor 6 diagnosis: %v, stuck state %v (paper: stuck at (15,1))\n",
		r.Diagnosis.Kind, r.StuckAttrs)
	b.WriteString(r.BCO.String())
	b.WriteString(r.BCE.String())
	return b.String()
}

// ---------------------------------------------------------------------------
// Tables 4 & 5 — calibration fault on sensor 7.

// CalibrationResult is the sensor-7 experiment outcome.
type CalibrationResult struct {
	BCO       MatrixView
	BCE       MatrixView
	Network   classify.NetworkDiagnosis
	Diagnosis classify.SensorDiagnosis
}

// Tables4And5 reproduces the calibration classification: sensor 7 reports
// multiplicatively miscalibrated values; B^CO and B^CE are both ≈orthogonal
// and the correct/error attribute ratio is constant (the paper reports
// ratios ≈(1.24, 1.16) with low variance versus differences with high
// variance).
func Tables4And5(cfg Config) (CalibrationResult, error) {
	plan, err := sensor7Plan()
	if err != nil {
		return CalibrationResult{}, err
	}
	det, _, err := run(cfg, network.WithFaults(plan))
	if err != nil {
		return CalibrationResult{}, err
	}
	rep, err := det.Report()
	if err != nil {
		return CalibrationResult{}, err
	}
	attrs := det.StateAttributes()
	co := det.ModelCO()
	res := CalibrationResult{
		BCO:     matrixView("B^CO (faulty sensor 7)", co.HiddenIDs, co.SymbolIDs, co.B, attrs),
		Network: rep.Network,
	}
	if ce, ok := det.ModelCE(7); ok {
		res.BCE = matrixView("B^CE (faulty sensor 7)", ce.HiddenIDs, ce.SymbolIDs, ce.B, attrs)
	}
	res.Diagnosis = rep.Sensors[7]
	return res, nil
}

// String renders the calibration experiment.
func (r CalibrationResult) String() string {
	var b strings.Builder
	b.WriteString("Tables 4-5 — calibration fault on sensor 7\n")
	fmt.Fprintf(&b, "  network diagnosis: %v (want none)\n", r.Network.Kind)
	fmt.Fprintf(&b, "  sensor 7 diagnosis: %v\n", r.Diagnosis.Kind)
	if len(r.Diagnosis.Ratio.Mean) == 2 {
		fmt.Fprintf(&b, "  ratio mean (%.2f, %.2f) spread (%.3f, %.3f)  [paper: (1.24,1.16), low variance]\n",
			r.Diagnosis.Ratio.Mean[0], r.Diagnosis.Ratio.Mean[1],
			r.Diagnosis.Ratio.Spread[0], r.Diagnosis.Ratio.Spread[1])
		fmt.Fprintf(&b, "  diff  mean (%.1f, %.1f) spread (%.3f, %.3f)  [paper: high variance]\n",
			r.Diagnosis.Diff.Mean[0], r.Diagnosis.Diff.Mean[1],
			r.Diagnosis.Diff.Spread[0], r.Diagnosis.Diff.Spread[1])
	}
	b.WriteString(r.BCO.String())
	b.WriteString(r.BCE.String())
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12 — raw alarms for a faulty and a non-faulty node.

// Figure12Result carries the raw alarm picture.
type Figure12Result struct {
	// FaultyRate and HealthyRate are the raw alarm rates (the paper
	// reports ≈1.5% false alarms on the healthy node).
	FaultyRate  float64
	HealthyRate float64
	// FaultySeries and HealthySeries mark alarm windows (1 = raw alarm).
	FaultySeries  []bool
	HealthySeries []bool
	// FilteredFaultyRate shows the effect of the k-of-n filter.
	FilteredFaultyRate  float64
	FilteredHealthyRate float64
}

// Figure12 reproduces the alarm-generation picture using the sensor-6 fault
// run: raw alarms of faulty sensor 6 versus healthy sensor 9.
func Figure12(cfg Config) (Figure12Result, error) {
	plan, err := sensor6Plan(cfg)
	if err != nil {
		return Figure12Result{}, err
	}
	det, err := runWithSteps(cfg, network.WithFaults(plan))
	if err != nil {
		return Figure12Result{}, err
	}
	stats := det.Detector.AlarmStats()
	res := Figure12Result{
		FaultyRate:          stats.RawRate(6),
		HealthyRate:         stats.RawRate(9),
		FilteredFaultyRate:  stats.FilteredRate(6),
		FilteredHealthyRate: stats.FilteredRate(9),
	}
	for _, s := range det.Steps {
		if s.Skipped {
			continue
		}
		if st, ok := sensorStep(s, 6); ok {
			res.FaultySeries = append(res.FaultySeries, st.Raw)
		}
		if st, ok := sensorStep(s, 9); ok {
			res.HealthySeries = append(res.HealthySeries, st.Raw)
		}
	}
	return res, nil
}

// String renders alarm rates and a compact alarm strip.
func (r Figure12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12 — raw alarms, faulty (sensor 6) vs non-faulty (sensor 9)\n")
	fmt.Fprintf(&b, "  raw alarm rate: faulty %.1f%%, healthy %.2f%% (paper: ≈1.5%% healthy)\n",
		100*r.FaultyRate, 100*r.HealthyRate)
	fmt.Fprintf(&b, "  filtered alarm rate: faulty %.1f%%, healthy %.2f%%\n",
		100*r.FilteredFaultyRate, 100*r.FilteredHealthyRate)
	strip := func(name string, xs []bool) {
		fmt.Fprintf(&b, "  %s: ", name)
		step := len(xs)/96 + 1
		for i := 0; i < len(xs); i += step {
			on := false
			for j := i; j < i+step && j < len(xs); j++ {
				on = on || xs[j]
			}
			if on {
				b.WriteByte('|')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	strip("faulty ", r.FaultySeries)
	strip("healthy", r.HealthySeries)
	return b.String()
}

// ---------------------------------------------------------------------------
// Shared fault plans.

// sensor6Plan is the paper's sensor-6 degradation: decay to (15,1) from day
// 2 with thinning traffic.
func sensor6Plan(cfg Config) (*fault.Plan, error) {
	drop, err := fault.NewIntermittent(0.7, cfg.Seed+6)
	if err != nil {
		return nil, err
	}
	return fault.NewPlan(
		fault.Schedule{
			Sensor:   6,
			Injector: fault.DecayToStuck{Floor: vecmat.Vector{15, 1}, TimeConstant: 12 * time.Hour},
			Start:    2 * 24 * time.Hour,
		},
		fault.Schedule{Sensor: 6, Injector: drop, Start: 2 * 24 * time.Hour},
	)
}

// sensor7Plan is the paper's sensor-7 miscalibration. The factors are the
// reciprocals of the correct/error ratios the paper reports (1.24, 1.16).
func sensor7Plan() (*fault.Plan, error) {
	return fault.NewPlan(fault.Schedule{
		Sensor:   7,
		Injector: fault.Calibration{Factors: vecmat.Vector{1 / 1.24, 1 / 1.16}},
		Start:    24 * time.Hour,
	})
}

// paperFaultPlan combines both faulty sensors for the Figure 8 trace.
func paperFaultPlan() (*fault.Plan, error) {
	s6drop, err := fault.NewIntermittent(0.5, 6)
	if err != nil {
		return nil, err
	}
	return fault.NewPlan(
		fault.Schedule{
			Sensor:   6,
			Injector: fault.DecayToStuck{Floor: vecmat.Vector{15, 1}, TimeConstant: 36 * time.Hour},
			Start:    2 * 24 * time.Hour,
		},
		fault.Schedule{Sensor: 6, Injector: s6drop, Start: 2 * 24 * time.Hour},
		fault.Schedule{
			Sensor:   7,
			Injector: fault.Calibration{Factors: vecmat.Vector{1, 1.10}},
			Start:    0,
		},
	)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
