// Package classify implements the paper's error-versus-attack classification
// methodology (§3.4, Fig. 5): a structural analysis of the emission matrices
// of the two HMMs the detector estimates.
//
// Network-level analysis of B^CO distinguishes attacks (which warp the
// correspondence between correct and observable environment states) from
// errors (which leave it one-to-one):
//
//   - rows not orthogonal  → Dynamic Deletion (two correct states observed
//     as one);
//   - columns not orthogonal → Dynamic Creation (one correct state observed
//     as two);
//   - both → Mixed;
//   - orthogonal but every hidden state associated with an observable state
//     whose attributes all differ → Dynamic Change.
//
// Per-sensor analysis of B^CE types the error on a tracked sensor:
//
//   - a single dominant column (Eq. 7) → Stuck-at-Value;
//   - one-to-one structure with constant correct/error attribute ratio →
//     Calibration; constant difference → Additive;
//   - no structure → Unknown (the paper notes Random-Noise errors cannot be
//     classified under this estimation model).
package classify

import (
	"errors"
	"fmt"
	"math"

	"sensorguard/internal/hmm"
	"sensorguard/internal/stats"
	"sensorguard/internal/track"
	"sensorguard/internal/vecmat"
)

// Kind is the diagnosed error/attack type.
type Kind int

// Diagnosis kinds.
const (
	// KindNone means no anomaly structure was found.
	KindNone Kind = iota + 1
	// KindStuckAt is the Stuck-at-Value error.
	KindStuckAt
	// KindCalibration is the multiplicative Calibration error.
	KindCalibration
	// KindAdditive is the Additive error.
	KindAdditive
	// KindUnknownError is an error with no recognised structure.
	KindUnknownError
	// KindRandomNoise is a high-variance, zero-mean corrupted sensor.
	// The paper (§3.4) deems Random-Noise errors unclassifiable from the
	// HMM structure alone; this implementation identifies them from the
	// suspect's empirical per-state statistics instead (near-identity
	// means with inflated variance).
	KindRandomNoise
	// KindDynamicCreation is the state-creating attack.
	KindDynamicCreation
	// KindDynamicDeletion is the state-deleting attack.
	KindDynamicDeletion
	// KindDynamicChange is the state-displacing attack.
	KindDynamicChange
	// KindMixed is a combination attack.
	KindMixed
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindStuckAt:
		return "stuck-at"
	case KindCalibration:
		return "calibration"
	case KindAdditive:
		return "additive"
	case KindUnknownError:
		return "unknown-error"
	case KindRandomNoise:
		return "random-noise"
	case KindDynamicCreation:
		return "dynamic-creation"
	case KindDynamicDeletion:
		return "dynamic-deletion"
	case KindDynamicChange:
		return "dynamic-change"
	case KindMixed:
		return "mixed"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// IsAttack reports whether the kind is a malicious-attack diagnosis.
func (k Kind) IsAttack() bool {
	switch k {
	case KindDynamicCreation, KindDynamicDeletion, KindDynamicChange, KindMixed:
		return true
	default:
		return false
	}
}

// IsError reports whether the kind is an accidental-error diagnosis.
func (k Kind) IsError() bool {
	switch k {
	case KindStuckAt, KindCalibration, KindAdditive, KindUnknownError, KindRandomNoise:
		return true
	default:
		return false
	}
}

// Config holds the classification thresholds.
type Config struct {
	// NetRowOrtho tests B^CO rows (the Dynamic-Deletion signature). A
	// deletion concentrates a full row onto another row's symbol, so the
	// offending dot product is large (the paper's Table 6 row pair dots
	// at ≈1); a higher threshold than the column test rejects the ~0.1
	// artifacts left by windows straddling attack activation edges.
	NetRowOrtho vecmat.OrthoThresholds
	// NetColOrtho tests B^CO columns (the Dynamic-Creation signature). A
	// creation splits one row between two symbols, which caps the column
	// dot product at 0.25 (the paper's Table 7 split dots at ≈0.23), so
	// the threshold stays at the paper's 0.1.
	NetColOrtho vecmat.OrthoThresholds
	// SensorOrtho tests the per-sensor B^CE one-to-one structure (§4.1
	// uses off-diagonal < 0.1 and diagonal > 0.8).
	SensorOrtho vecmat.OrthoThresholds
	// ChangeMinDominance is the minimum dominant emission mass for the
	// injective mapping of the Dynamic-Change test.
	ChangeMinDominance float64
	// MinStateShare suppresses spurious states: hidden states visited in
	// fewer than this fraction of steps are excluded from the structural
	// analysis (the paper drops the low-probability (16,27) state).
	MinStateShare float64
	// StuckDominance is the per-row threshold for the Eq. (7) "column of
	// approximately all ones" (the paper's sensor-6 matrix has entries
	// down to 0.67).
	StuckDominance float64
	// ConstSpreadMax bounds the normalised spread (std/|mean|) accepted
	// as a "constant" ratio or difference in the calibration/additive
	// test.
	ConstSpreadMax float64
	// ChangeMinDelta is the per-attribute minimum displacement for the
	// Dynamic-Change test (∀i: x_i^c ≠ x_i^o needs a noise floor).
	ChangeMinDelta float64
	// ErrStdMax is the largest per-attribute within-state standard
	// deviation of a suspect's readings still considered a *structured*
	// transform; above it the corruption is noise-like.
	ErrStdMax float64
	// MinProfileN is the minimum number of recorded windows per hidden
	// state for the state to contribute to the ratio/difference test.
	MinProfileN int
	// IdentityRatioTol and IdentityDiffTol define the near-identity band
	// (ratio ≈ 1, difference ≈ 0) within which the suspect's means agree
	// with the correct states — boundary flapping or pure noise, not a
	// systematic transform.
	IdentityRatioTol float64
	IdentityDiffTol  float64
}

// DefaultConfig mirrors the paper's evaluation thresholds.
func DefaultConfig() Config {
	return Config{
		NetRowOrtho:        vecmat.OrthoThresholds{MaxOffDiag: 0.25, MinDiag: 0.5},
		NetColOrtho:        vecmat.DefaultOrthoThresholds(),
		SensorOrtho:        vecmat.DefaultOrthoThresholds(),
		ChangeMinDominance: 0.6,
		MinStateShare:      0.03,
		StuckDominance:     0.5,
		ConstSpreadMax:     0.15,
		ChangeMinDelta:     1.0,
		ErrStdMax:          3.0,
		MinProfileN:        5,
		IdentityRatioTol:   0.06,
		IdentityDiffTol:    1.5,
	}
}

// Association pairs a hidden (correct) state with the observation symbol it
// dominantly emits.
type Association struct {
	Hidden int
	Symbol int
	Mass   float64
}

// NetworkDiagnosis is the outcome of the B^CO analysis.
type NetworkDiagnosis struct {
	// Kind is KindNone, or one of the attack kinds.
	Kind Kind
	// RowViolations and ColViolations carry the offending state-ID pairs
	// (translated from matrix indices).
	RowViolations, ColViolations []vecmat.OrthoViolation
	// Associations maps every active hidden state to its dominant
	// observable state.
	Associations []Association
	// ActiveHidden lists the hidden states that passed the
	// spurious-state filter.
	ActiveHidden []int
	// Confidence scores the diagnosis in [0,1]: how far past its
	// decision threshold the supporting evidence sits.
	Confidence float64
}

// ErrNoStates is returned when the analysis has no active states to work on.
var ErrNoStates = errors.New("classify: no active states")

// Network analyses the B^CO snapshot. states supplies the attribute vector
// of every model state (for the Dynamic-Change attribute test). The
// diagnosis owns its slices; see Workspace.Network for the form that reuses
// them.
func Network(co hmm.Snapshot, states map[int]vecmat.Vector, cfg Config) (NetworkDiagnosis, error) {
	var w Workspace
	return w.Network(co.EmissionView(), states, cfg)
}

// Workspace holds the working set of the network analysis — the active
// rows, the active sub-matrix of B and the result slices — so that running
// it every window allocates nothing once the buffers have grown. A zero
// Workspace is ready to use; it is not safe for concurrent use.
type Workspace struct {
	order   []int // the view's rows in ascending hidden-ID order
	active  []int // active hidden IDs, ascending
	rows    []int // their row index in the view's B
	cols    []int // the view's column index of each symbol, by ascending ID
	symbols []int // symbol IDs, ascending
	sub     vecmat.Matrix
	colIdx  []int // sub columns with enough mass for the column test
	rowViol []vecmat.OrthoViolation
	colViol []vecmat.OrthoViolation
	assocs  []Association
}

// Network analyses B^CO as Network does, reading co in place. The
// diagnosis's slices belong to the workspace and are overwritten by its
// next call: read or copy them before then. The result is identical, bit
// for bit and nil for nil, to Network's on a snapshot of the same
// estimator.
func (w *Workspace) Network(co hmm.EmissionView, states map[int]vecmat.Vector, cfg Config) (NetworkDiagnosis, error) {
	w.activeRows(co, cfg.MinStateShare)
	if len(w.active) == 0 {
		return NetworkDiagnosis{}, ErrNoStates
	}
	// Restrict B to the active rows, columns in ascending symbol order, so
	// spurious states contaminate neither the row nor the column tests.
	w.cols = sortedOrder(w.cols, co.SymbolIDs)
	w.symbols = w.symbols[:0]
	for _, c := range w.cols {
		w.symbols = append(w.symbols, co.SymbolIDs[c])
	}
	w.sub.Reshape(len(w.active), len(w.cols))
	for i, ri := range w.rows {
		src, dst := co.B.RowView(ri), w.sub.RowView(i)
		for j, cj := range w.cols {
			dst[j] = src[cj]
		}
	}
	sub := &w.sub
	// The column test skips symbols the active rows barely emit; when none
	// has the mass, a nil index list tests them all.
	const minMass = 0.05
	w.colIdx = w.colIdx[:0]
	for j := 0; j < sub.Cols(); j++ {
		var mass float64
		for i := 0; i < sub.Rows(); i++ {
			mass += sub.At(i, j)
		}
		if mass >= minMass {
			w.colIdx = append(w.colIdx, j)
		}
	}
	colIdx := w.colIdx
	if len(colIdx) == 0 {
		colIdx = nil
	}

	// Violations come back as sub-matrix indices and are translated to
	// state IDs in place.
	w.rowViol = sub.RowsOrthogonal(w.rowViol[:0], cfg.NetRowOrtho, nil)
	for i := range w.rowViol {
		v := &w.rowViol[i]
		v.I, v.J = w.active[v.I], w.active[v.J]
	}
	w.colViol = sub.ColsOrthogonal(w.colViol[:0], cfg.NetColOrtho, colIdx)
	for i := range w.colViol {
		v := &w.colViol[i]
		v.I, v.J = w.symbols[v.I], w.symbols[v.J]
	}
	w.assocs = w.assocs[:0]
	for i, id := range w.active {
		c, mass := sub.DominantCol(i)
		if c >= 0 {
			w.assocs = append(w.assocs, Association{Hidden: id, Symbol: w.symbols[c], Mass: mass})
		}
	}
	d := NetworkDiagnosis{
		ActiveHidden:  w.active,
		RowViolations: nilIfEmpty(w.rowViol),
		ColViolations: nilIfEmpty(w.colViol),
		Associations:  nilIfEmpty(w.assocs),
	}

	// Decision. The Dynamic-Change signature — a clean injective mapping
	// of every hidden state onto a *different*, attribute-displaced
	// observable state — is tested first: a change attack can leave
	// marginal orthogonality violations at its activation edges, but no
	// deletion (non-injective) or creation (identity-dominant split) can
	// satisfy the injective all-displaced condition.
	if isChangeMapping(d.Associations, states, cfg.ChangeMinDelta, cfg.ChangeMinDominance) {
		d.Kind = KindDynamicChange
		d.Confidence = networkConfidence(&d, cfg)
		return d, nil
	}
	// A deletion shows as two *distinct* rows emitting the same symbol:
	// only off-diagonal row violations count as deletion evidence. A
	// diagonal (self-product) violation is a split row — the same
	// symptom the column test detects for a creation — so it is reported
	// but does not flip the decision to deletion/mixed by itself.
	offDiagRows := 0
	for _, v := range d.RowViolations {
		if v.I != v.J {
			offDiagRows++
		}
	}
	colsBad := len(d.ColViolations) > 0
	switch {
	case offDiagRows > 0 && colsBad:
		d.Kind = KindMixed
	case offDiagRows > 0:
		d.Kind = KindDynamicDeletion
	case colsBad:
		d.Kind = KindDynamicCreation
	default:
		d.Kind = KindNone
	}
	d.Confidence = networkConfidence(&d, cfg)
	return d, nil
}

// MaxRowDot returns the largest dot product of two distinct active rows of
// co's B: the row-orthogonality evidence the drift poller tracks against
// NetRowOrtho. The active rows are Network's (visit share at least
// minShare) and each product is summed over the columns in ascending symbol
// order, so a live view and a snapshot of one estimator give the same bits.
// It is 0 with fewer than two active rows.
func (w *Workspace) MaxRowDot(co hmm.EmissionView, minShare float64) float64 {
	w.activeRows(co, minShare)
	if len(w.rows) < 2 {
		return 0
	}
	w.cols = sortedOrder(w.cols, co.SymbolIDs)
	var best float64
	for a, ra := range w.rows {
		for _, rb := range w.rows[a+1:] {
			var dot float64
			for _, c := range w.cols {
				dot += co.B.At(ra, c) * co.B.At(rb, c)
			}
			if dot > best {
				best = dot
			}
		}
	}
	return best
}

// activeRows fills w.active with the hidden states of co whose visit share
// reaches minShare, in ascending ID order, and w.rows with their row index
// in co.B. Both are empty when nothing has been visited.
func (w *Workspace) activeRows(co hmm.EmissionView, minShare float64) {
	w.active, w.rows = w.active[:0], w.rows[:0]
	var total float64
	for _, v := range co.Visits {
		total += v
	}
	if total == 0 {
		return
	}
	w.order = sortedOrder(w.order, co.HiddenIDs)
	for _, ri := range w.order {
		id := co.HiddenIDs[ri]
		if co.Visits[id]/total >= minShare {
			w.active = append(w.active, id)
			w.rows = append(w.rows, ri)
		}
	}
}

// sortedOrder refills dst with the positions of ids in ascending ID order
// (the IDs are distinct). An insertion sort: the lists are a few dozen
// states at most, and a snapshot's are already sorted.
func sortedOrder(dst, ids []int) []int {
	dst = dst[:0]
	for p := range ids {
		dst = append(dst, p)
		for k := len(dst) - 1; k > 0 && ids[dst[k-1]] > ids[dst[k]]; k-- {
			dst[k-1], dst[k] = dst[k], dst[k-1]
		}
	}
	return dst
}

// nilIfEmpty returns nil for an empty slice, so a reused buffer reports "no
// entries" exactly as a never-appended nil slice does.
func nilIfEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// isChangeMapping extends isChangeAttack with the injectivity and dominance
// conditions of the network-level Dynamic-Change test.
func isChangeMapping(assocs []Association, states map[int]vecmat.Vector, minDelta, minDominance float64) bool {
	if len(assocs) == 0 {
		return false
	}
	for i, a := range assocs {
		if a.Mass < minDominance {
			return false
		}
		for _, b := range assocs[:i] {
			if b.Symbol == a.Symbol {
				return false // not injective
			}
		}
	}
	return isChangeAttack(assocs, states, minDelta)
}

// isChangeAttack tests the Dynamic-Change signature: a one-to-one
// correspondence in which every hidden state's attributes all differ from
// its associated observable state's attributes by more than the noise floor.
func isChangeAttack(assocs []Association, states map[int]vecmat.Vector, minDelta float64) bool {
	if len(assocs) == 0 {
		return false
	}
	for _, a := range assocs {
		if a.Hidden == a.Symbol {
			return false // identity mapping: nothing displaced
		}
		hc, ok := states[a.Hidden]
		if !ok {
			return false
		}
		oc, ok := states[a.Symbol]
		if !ok {
			return false
		}
		if len(hc) != len(oc) {
			return false
		}
		for i := range hc {
			if math.Abs(hc[i]-oc[i]) < minDelta {
				return false // some attribute unchanged
			}
		}
	}
	return true
}

// AttributeFit summarises how constant the correct/error attribute ratio or
// difference is across associated state pairs, per attribute.
type AttributeFit struct {
	// Mean and Spread are per-attribute: Spread is std/max(|mean|, ε).
	Mean   []float64
	Spread []float64
}

// worst returns the largest per-attribute spread.
func (f AttributeFit) worst() float64 {
	w := 0.0
	for _, s := range f.Spread {
		w = math.Max(w, s)
	}
	return w
}

// ErrorStats summarises a suspect sensor's own readings within one hidden
// (correct) environment state: the empirical error-state attributes the
// paper's §3.4 ratio/difference test compares against the correct state.
// Using the empirical per-state mean rather than a quantised model-state
// centroid makes the test immune to the state-grid resolution.
type ErrorStats struct {
	// Mean and Std are per-attribute statistics of the sensor's window
	// means recorded while the environment was in this hidden state and
	// the sensor was alarming.
	Mean vecmat.Vector
	Std  vecmat.Vector
	// N counts the recorded windows.
	N int
}

// ErrorProfile maps hidden-state IDs to the suspect's empirical statistics.
type ErrorProfile map[int]ErrorStats

// SensorDiagnosis is the outcome of the per-sensor B^CE analysis.
type SensorDiagnosis struct {
	Sensor int
	Kind   Kind
	// StuckState is the stuck symbol for KindStuckAt.
	StuckState int
	// Ratio and Diff summarise the calibration/additive tests (correct
	// state attributes against the sensor's empirical error means).
	Ratio, Diff AttributeFit
	// MaxStd is the largest per-attribute within-state standard
	// deviation observed (the noise test input).
	MaxStd float64
	// Associations maps active hidden states to dominant non-⊥ symbols
	// of B^CE (reported for inspection; the classification itself relies
	// on the empirical profile).
	Associations []Association
	// Confidence scores the diagnosis in [0,1]: how far past its
	// decision threshold the supporting evidence sits.
	Confidence float64
}

// Sensor analyses one tracked sensor: the B^CE snapshot for the stuck-at
// signature (Eq. 7, ⊥ excluded per §4.1) and the empirical error profile
// for the calibration/additive/noise discrimination.
func Sensor(sensorID int, ce hmm.Snapshot, states map[int]vecmat.Vector, profile ErrorProfile, cfg Config) (SensorDiagnosis, error) {
	d := SensorDiagnosis{Sensor: sensorID, Kind: KindUnknownError}

	var w Workspace
	w.activeRows(ce.EmissionView(), cfg.MinStateShare)
	activeRows, rowIdx := w.active, w.rows
	if len(activeRows) == 0 {
		return d, ErrNoStates
	}

	// Build the ⊥-free view: columns other than Bottom.
	sub, subIDs := dropBottom(ce)

	// Drop rows whose mass sits almost entirely on ⊥: in those hidden
	// states the sensor agreed with the majority, so they carry no
	// information about the error structure.
	const minErrMass = 0.05
	kept := rowIdx[:0]
	keptIDs := activeRows[:0]
	for i, ri := range rowIdx {
		var mass float64
		for j := 0; j < sub.Cols(); j++ {
			mass += sub.At(ri, j)
		}
		if mass >= minErrMass {
			kept = append(kept, ri)
			keptIDs = append(keptIDs, activeRows[i])
		}
	}
	rowIdx, activeRows = kept, keptIDs
	if len(rowIdx) == 0 {
		return d, ErrNoStates
	}

	// Stuck-at: Eq. (7) single dominant column across all active rows.
	if col, ok := sub.AllOnesColumn(rowIdx, cfg.StuckDominance); ok {
		// A single active hidden state cannot distinguish stuck-at
		// from a one-to-one error; require at least two.
		if len(activeRows) >= 2 {
			d.Kind = KindStuckAt
			d.StuckState = subIDs[col]
			minMass := 1.0
			for _, ri := range rowIdx {
				if _, mass := sub.DominantCol(ri); mass < minMass {
					minMass = mass
				}
			}
			d.Confidence = sensorConfidence(&d, minMass, cfg)
			return d, nil
		}
	}

	// Report the B^CE associations (dominant non-⊥ symbol per active
	// hidden state) for inspection and the change-attack fallback.
	norm := sub.Clone()
	norm.NormalizeRows()
	for _, ri := range rowIdx {
		c, mass := norm.DominantCol(ri)
		if c >= 0 {
			d.Associations = append(d.Associations, Association{
				Hidden: hiddenIDAt(ce, ri), Symbol: subIDs[c], Mass: mass,
			})
		}
	}

	// Empirical ratio/difference analysis over the hidden states with
	// enough recorded windows. The test needs the fault observed across
	// at least two environment states: with a single state the ratio and
	// difference are trivially "constant" and carry no evidence.
	used := make([]int, 0, len(activeRows))
	for _, id := range activeRows {
		if st, ok := profile[id]; ok && st.N >= cfg.MinProfileN {
			used = append(used, id)
		}
	}
	if len(used) < 2 {
		return d, nil
	}
	ratio, diff, maxStd, err := profileFits(used, states, profile)
	if err != nil {
		return d, nil //nolint:nilerr // missing attributes: report unknown
	}
	d.Ratio, d.Diff, d.MaxStd = ratio, diff, maxStd

	// Identity band: the suspect's means agree with the correct states.
	identity := true
	for i := range ratio.Mean {
		if math.Abs(ratio.Mean[i]-1) > cfg.IdentityRatioTol ||
			math.Abs(diff.Mean[i]) > cfg.IdentityDiffTol {
			identity = false
		}
	}

	switch {
	case maxStd > cfg.ErrStdMax:
		// Noise-like corruption. The profile records only *alarming*
		// windows, which biases the empirical mean away from the
		// correct value by a fraction of the noise spread, so the
		// identity band here scales with the observed std: a mean
		// displacement within one within-state std is consistent with
		// zero-mean noise; anything larger is unrecognised.
		noisyIdentity := true
		for i := range diff.Mean {
			if math.Abs(diff.Mean[i]) > maxStd {
				noisyIdentity = false
			}
		}
		if noisyIdentity {
			d.Kind = KindRandomNoise
			d.Confidence = sensorConfidence(&d, 0, cfg)
		}
		return d, nil
	case identity:
		// Structured agreement — boundary flapping, not a fault type.
		return d, nil
	}

	rw, dw := ratio.worst(), diff.worst()
	switch {
	case rw <= cfg.ConstSpreadMax && rw <= dw:
		d.Kind = KindCalibration
	case dw <= cfg.ConstSpreadMax:
		d.Kind = KindAdditive
	default:
		// Neither constant: §3.4 says check for a Dynamic Change
		// pattern before giving up.
		if isChangeAttack(d.Associations, states, cfg.ChangeMinDelta) {
			d.Kind = KindDynamicChange
		}
	}
	d.Confidence = sensorConfidence(&d, 0, cfg)
	return d, nil
}

// profileFits computes the per-attribute ratio and difference summaries of
// correct-state attributes against the suspect's empirical error means, and
// the largest within-state standard deviation.
func profileFits(used []int, states map[int]vecmat.Vector, profile ErrorProfile) (ratio, diff AttributeFit, maxStd float64, err error) {
	var dim int
	var ratios, diffs [][]float64
	for _, id := range used {
		hc, ok := states[id]
		if !ok {
			return ratio, diff, 0, fmt.Errorf("classify: no attributes for state %d", id)
		}
		st := profile[id]
		if len(st.Mean) != len(hc) {
			return ratio, diff, 0, vecmat.ErrDimensionMismatch
		}
		if dim == 0 {
			dim = len(hc)
			ratios = make([][]float64, dim)
			diffs = make([][]float64, dim)
		}
		for i := 0; i < dim; i++ {
			const eps = 1e-9
			den := st.Mean[i]
			if math.Abs(den) < eps {
				den = eps
			}
			ratios[i] = append(ratios[i], hc[i]/den)
			diffs[i] = append(diffs[i], hc[i]-st.Mean[i])
			if i < len(st.Std) {
				maxStd = math.Max(maxStd, st.Std[i])
			}
		}
	}
	fit := func(per [][]float64) AttributeFit {
		f := AttributeFit{Mean: make([]float64, dim), Spread: make([]float64, dim)}
		for i := 0; i < dim; i++ {
			s := stats.Summarize(per[i])
			f.Mean[i] = s.Mean
			f.Spread[i] = math.Sqrt(s.Variance) / math.Max(math.Abs(s.Mean), 1e-9)
		}
		return f
	}
	return fit(ratios), fit(diffs), maxStd, nil
}

func hiddenIDAt(s hmm.Snapshot, rowIdx int) int { return s.HiddenIDs[rowIdx] }

// dropBottom returns B without the ⊥ column plus the surviving symbol IDs.
func dropBottom(s hmm.Snapshot) (*vecmat.Matrix, []int) {
	bottomCol := -1
	for j, id := range s.SymbolIDs {
		if id == track.Bottom {
			bottomCol = j
		}
	}
	if bottomCol < 0 {
		return s.B.Clone(), append([]int(nil), s.SymbolIDs...)
	}
	m := s.B.Clone()
	m.RemoveCol(bottomCol)
	ids := make([]int, 0, len(s.SymbolIDs)-1)
	for j, id := range s.SymbolIDs {
		if j != bottomCol {
			ids = append(ids, id)
		}
	}
	return m, ids
}
