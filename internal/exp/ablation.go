package exp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"sensorguard/internal/alarm"
	"sensorguard/internal/attack"
	"sensorguard/internal/classify"
	"sensorguard/internal/core"
	"sensorguard/internal/gdi"
	"sensorguard/internal/hmm"
	"sensorguard/internal/network"
	"sensorguard/internal/vecmat"
)

// ---------------------------------------------------------------------------
// Ablation: on-line estimation (with redundancy-derived hidden states)
// versus classical Baum-Welch identification. §2 of the paper argues the
// classical identification problem is what makes prior HMM detectors
// impractical (weeks of training); the redundancy shortcut reduces it to a
// counting update.

// OnlineVsBaumWelchResult compares the two estimators on the same data.
type OnlineVsBaumWelchResult struct {
	Sequence int // observation count
	// OnlineDuration and BaumWelchDuration are the wall-clock costs: the
	// fastest of timingTrials interleaved runs of each estimator.
	OnlineDuration    time.Duration
	BaumWelchDuration time.Duration
	// Speedup is BaumWelchDuration / OnlineDuration.
	Speedup float64
	// OnlineBError and BaumWelchBError are the mean absolute emission-
	// matrix errors against the planted model (Baum-Welch columns are
	// aligned by best permutation of its hidden states).
	OnlineBError    float64
	BaumWelchBError float64
	// BaumWelchIters is the number of EM iterations run.
	BaumWelchIters int
}

// timingTrials is how many runs of each estimator AblationOnlineVsBaumWelch
// interleaves. It keeps the fastest per side, so a GC pause or preemption
// in one run (other processes sharing the CPUs) cannot decide the ratio.
const timingTrials = 21

// AblationOnlineVsBaumWelch plants a ground-truth HMM, generates a sequence,
// and compares (a) the paper's on-line estimator fed the true hidden path
// (standing in for the redundancy-derived correct states) against (b)
// Baum-Welch identification from observations alone.
func AblationOnlineVsBaumWelch(seqLen int, seed int64) (OnlineVsBaumWelchResult, error) {
	if seqLen < 10 {
		return OnlineVsBaumWelchResult{}, fmt.Errorf("exp: sequence too short: %d", seqLen)
	}
	truth, err := plantedModel()
	if err != nil {
		return OnlineVsBaumWelchResult{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	obs, hidden := truth.Generate(seqLen, rng.Float64)

	res := OnlineVsBaumWelchResult{Sequence: seqLen}
	var online *hmm.Online
	var est *hmm.Model
	runOnline := func() error {
		start := time.Now()
		o, err := hmm.NewOnline(0.05, 0.05)
		if err != nil {
			return err
		}
		for t := range obs {
			o.Observe(hidden[t], obs[t])
		}
		res.OnlineDuration = min(res.OnlineDuration, time.Since(start))
		online = o
		return nil
	}
	runBaumWelch := func() error {
		start := time.Now()
		m, err := hmm.PerturbedUniformModel(truth.States(), truth.Symbols())
		if err != nil {
			return err
		}
		_, iters, err := m.BaumWelch(obs, 60, 1e-5)
		if err != nil {
			return err
		}
		res.BaumWelchDuration = min(res.BaumWelchDuration, time.Since(start))
		est, res.BaumWelchIters = m, iters
		return nil
	}
	res.OnlineDuration, res.BaumWelchDuration = math.MaxInt64, math.MaxInt64
	for trial := 0; trial < timingTrials; trial++ {
		first, second := runOnline, runBaumWelch
		if trial%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return res, err
		}
		if err := second(); err != nil {
			return res, err
		}
	}
	res.Speedup = float64(res.BaumWelchDuration) / float64(max(res.OnlineDuration, 1))

	res.OnlineBError = onlineBError(online, truth)
	res.BaumWelchBError = permutedBError(est, truth)
	return res, nil
}

// plantedModel is a 3-state, 4-symbol ground truth with distinct emissions.
func plantedModel() (*hmm.Model, error) {
	a := vecmat.NewMatrix(3, 3)
	_ = a.SetRow(0, vecmat.Vector{0.8, 0.15, 0.05})
	_ = a.SetRow(1, vecmat.Vector{0.1, 0.8, 0.1})
	_ = a.SetRow(2, vecmat.Vector{0.05, 0.15, 0.8})
	b := vecmat.NewMatrix(3, 4)
	_ = b.SetRow(0, vecmat.Vector{0.9, 0.05, 0.03, 0.02})
	_ = b.SetRow(1, vecmat.Vector{0.05, 0.85, 0.05, 0.05})
	_ = b.SetRow(2, vecmat.Vector{0.02, 0.03, 0.05, 0.9})
	return hmm.NewModel(a, b, vecmat.Vector{1.0 / 3, 1.0 / 3, 1.0 / 3})
}

func onlineBError(o *hmm.Online, truth *hmm.Model) float64 {
	snap := o.Snapshot()
	var sum float64
	var n int
	for i := 0; i < truth.States(); i++ {
		ri, err := snap.HiddenIndex(i)
		if err != nil {
			continue
		}
		for k := 0; k < truth.Symbols(); k++ {
			ck, err := snap.SymbolIndex(k)
			if err != nil {
				continue
			}
			sum += absF(snap.B.At(ri, ck) - truth.B.At(i, k))
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}

// permutedBError aligns the estimated hidden states to the truth by the
// best permutation (hidden-state identity is unidentifiable in EM).
func permutedBError(est, truth *hmm.Model) float64 {
	states := truth.States()
	perms := permutations(states)
	best := -1.0
	for _, p := range perms {
		var sum float64
		var n int
		for i := 0; i < states; i++ {
			for k := 0; k < truth.Symbols(); k++ {
				sum += absF(est.B.At(p[i], k) - truth.B.At(i, k))
				n++
			}
		}
		e := sum / float64(n)
		if best < 0 || e < best {
			best = e
		}
	}
	return best
}

func permutations(n int) [][]int {
	if n == 1 {
		return [][]int{{0}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// String renders the comparison's deterministic part: the accuracy of each
// estimator. The wall-clock costs are in Timings.
func (r OnlineVsBaumWelchResult) String() string {
	return fmt.Sprintf(
		"Ablation — on-line (redundancy) vs Baum-Welch identification (%d steps)\n"+
			"  on-line:    B error %.4f\n"+
			"  Baum-Welch: %d iters, B error %.4f\n",
		r.Sequence, r.OnlineBError, r.BaumWelchIters, r.BaumWelchBError)
}

// Timings renders the wall-clock costs and the speedup, which vary from run
// to run.
func (r OnlineVsBaumWelchResult) Timings() string {
	return fmt.Sprintf("on-line %v, Baum-Welch %v, speedup ×%.0f\n",
		r.OnlineDuration, r.BaumWelchDuration, r.Speedup)
}

// ---------------------------------------------------------------------------
// Ablation: alarm filters (k-of-n vs SPRT vs CUSUM, §3.1).

// FilterOutcome is one filter's behaviour on the stuck-sensor run.
type FilterOutcome struct {
	Name string
	// DetectionWindow is the first window with an open track for the
	// faulty sensor (-1 = never).
	DetectionWindow int
	// LatencyWindows is DetectionWindow minus the fault onset window.
	LatencyWindows int
	// HealthyFilteredRate is the filtered alarm rate on a healthy sensor
	// (false-positive behaviour).
	HealthyFilteredRate float64
	// Classified reports whether the sensor was still diagnosed
	// stuck-at.
	Classified bool
}

// AlarmFilterAblationResult compares the three filters.
type AlarmFilterAblationResult struct {
	OnsetWindow int
	Outcomes    []FilterOutcome
}

// AblationAlarmFilters runs the sensor-6 stuck fault under each §3.1 filter
// and compares detection latency and false-positive behaviour.
func AblationAlarmFilters(cfg Config) (AlarmFilterAblationResult, error) {
	if err := cfg.Validate(); err != nil {
		return AlarmFilterAblationResult{}, err
	}
	plan, err := sensor6Plan(cfg)
	if err != nil {
		return AlarmFilterAblationResult{}, err
	}
	tr, err := gdiGenerate(cfg, network.WithFaults(plan))
	if err != nil {
		return AlarmFilterAblationResult{}, err
	}
	onset := int((2 * 24 * time.Hour) / time.Hour)
	res := AlarmFilterAblationResult{OnsetWindow: onset}

	filters := []struct {
		name    string
		factory func() (alarm.Filter, error)
	}{
		{"k-of-n (4/6)", func() (alarm.Filter, error) { return alarm.NewKOfN(4, 6) }},
		{"SPRT", func() (alarm.Filter, error) { return alarm.NewSPRTFilter(0.02, 0.6, 0.001, 0.01) }},
		{"CUSUM", func() (alarm.Filter, error) { return alarm.NewCUSUMFilter(0.02, 0.6, 8, 4) }},
	}
	for _, f := range filters {
		det, err := buildDetector(cfg, tr)
		if err != nil {
			return res, err
		}
		// Rebuild with the filter under test.
		c := core.DefaultConfig(initialSeeds(det))
		c.FilterFactory = f.factory
		det, err = core.NewDetector(c)
		if err != nil {
			return res, err
		}
		steps, err := det.ProcessTrace(tr.Readings)
		if err != nil {
			return res, err
		}
		out := FilterOutcome{Name: f.name, DetectionWindow: -1}
		for _, s := range steps {
			if st, ok := sensorStep(s, 6); ok && st.TrackOpen {
				out.DetectionWindow = s.Index
				break
			}
		}
		if out.DetectionWindow >= 0 {
			out.LatencyWindows = out.DetectionWindow - onset
		}
		out.HealthyFilteredRate = det.AlarmStats().FilteredRate(9)
		if rep, err := det.Report(); err == nil {
			if d, ok := rep.Sensors[6]; ok {
				out.Classified = d.Kind == classify.KindStuckAt
			}
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// initialSeeds extracts a detector's current initial state centroids so a
// clone can be built with a different filter. (Every run re-derives them via
// k-means in buildDetector; this keeps the comparison apples-to-apples.)
func initialSeeds(det *core.Detector) []vecmat.Vector {
	states := det.States()
	out := make([]vecmat.Vector, 0, len(states))
	for _, s := range states {
		out = append(out, s.Centroid)
	}
	return out
}

// String renders the filter comparison.
func (r AlarmFilterAblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — alarm filters (fault onset at window %d)\n", r.OnsetWindow)
	for _, o := range r.Outcomes {
		fmt.Fprintf(&b, "  %-12s detection window %4d (latency %2d), healthy filtered rate %.3f%%, stuck-at classified %v\n",
			o.Name, o.DetectionWindow, o.LatencyWindows, 100*o.HealthyFilteredRate, o.Classified)
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// Ablation: initial model states (k-means vs random; paper footnote 5 says
// the methodology worked equally well with random initial states).

// InitialStatesResult compares initialisations on the fault-free model run.
type InitialStatesResult struct {
	KMeansKeyStates int
	RandomKeyStates int
	KMeansStates    int
	RandomStates    int
}

// AblationInitialStates runs the Figure 7 model recovery with k-means and
// with random initial states.
func AblationInitialStates(cfg Config) (InitialStatesResult, error) {
	var res InitialStatesResult
	km := cfg
	km.KMeansInit = true
	f7, err := Figure7(km)
	if err != nil {
		return res, err
	}
	res.KMeansKeyStates = f7.KeyRecovered
	res.KMeansStates = len(f7.States)

	rnd := cfg
	rnd.KMeansInit = false
	f7r, err := Figure7(rnd)
	if err != nil {
		return res, err
	}
	res.RandomKeyStates = f7r.KeyRecovered
	res.RandomStates = len(f7r.States)
	return res, nil
}

// String renders the initialisation comparison.
func (r InitialStatesResult) String() string {
	return fmt.Sprintf(
		"Ablation — initial model states (paper footnote 5)\n"+
			"  k-means init: %d/4 key states recovered (%d states total)\n"+
			"  random init:  %d/4 key states recovered (%d states total)\n",
		r.KMeansKeyStates, r.KMeansStates, r.RandomKeyStates, r.RandomStates)
}

// ---------------------------------------------------------------------------
// Ablation: the majority assumption. §3.1 requires that correct sensors
// outnumber compromised ones; sweeping the compromised fraction past 1/2
// shows the methodology's breaking point.

// MajorityPoint is one sweep point.
type MajorityPoint struct {
	Malicious int
	Fraction  float64
	// Kind is the network diagnosis under a Dynamic Deletion attack.
	Kind classify.Kind
	// Detected reports whether tracks opened at all.
	Detected bool
}

// MajoritySweepResult is the sweep outcome.
type MajoritySweepResult struct {
	Sensors int
	Points  []MajorityPoint
}

// AblationMajoritySweep mounts the Table 6 deletion attack with 1..6 of 10
// sensors compromised.
func AblationMajoritySweep(cfg Config) (MajoritySweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return MajoritySweepResult{}, err
	}
	res := MajoritySweepResult{Sensors: 10}
	for m := 1; m <= 6; m++ {
		ids := make([]int, m)
		for i := range ids {
			ids[i] = i
		}
		adv, err := attack.NewAdversary(ids, gdi.Ranges())
		if err != nil {
			return res, err
		}
		strat := &attack.DynamicDeletion{
			Adversary:   adv,
			Target:      vecmat.Vector{31, 56},
			ReplaceWith: vecmat.Vector{24, 70},
			Radius:      6,
			Start:       3 * 24 * time.Hour,
		}
		det, _, err := run(cfg, network.WithAttack(strat))
		if err != nil {
			return res, err
		}
		rep, err := det.Report()
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, MajorityPoint{
			Malicious: m,
			Fraction:  float64(m) / 10,
			Kind:      rep.Network.Kind,
			Detected:  rep.Detected,
		})
	}
	return res, nil
}

// String renders the sweep.
func (r MajoritySweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — majority assumption sweep (deletion attack, %d sensors)\n", r.Sensors)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %d/10 compromised: detected=%v, diagnosis=%v\n", p.Malicious, p.Detected, p.Kind)
	}
	return b.String()
}
