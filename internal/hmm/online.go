// Package hmm implements the Hidden Markov Model machinery the detector is
// built on. Two estimators live here:
//
//   - Online, the paper's simple on-line procedure (§3.2): at the end of each
//     observation window the current hidden-state estimate and observation
//     symbol update the transition matrix A and emission matrix B with
//     exponential learning factors β and γ. Because the detector's model-state
//     set evolves (states spawn and merge), Online works over a *dynamic*
//     alphabet of stable integer IDs.
//
//   - Model + forward/backward/BaumWelch, the classical batch machinery the
//     paper contrasts against (§2: the standard identification problem is what
//     makes prior HMM-based detectors impractical). It backs the on-line vs
//     Baum-Welch ablation.
package hmm

import (
	"errors"
	"fmt"
	"sort"

	"sensorguard/internal/vecmat"
)

// Online estimates an HMM incrementally. Hidden states and observation
// symbols are identified by stable integer IDs supplied by the caller (the
// detector uses model-state IDs from the clusterer, plus a sentinel ID for
// the paper's ⊥ symbol in M_CE).
//
// Matrices A and B are kept row-stochastic by construction: every update is
// a convex combination of a stochastic row with a Kronecker-delta row, and
// merges are visit-weighted convex combinations (rows) or column sums
// (columns).
type Online struct {
	beta, gamma float64

	hiddenIdx map[int]int // hidden ID -> row index
	hiddenIDs []int       // row index -> hidden ID
	symbolIdx map[int]int // symbol ID -> column index
	symbolIDs []int       // column index -> symbol ID

	a *vecmat.Matrix // hidden × hidden transition distribution
	b *vecmat.Matrix // hidden × symbol emission distribution

	visits      map[int]float64 // hidden ID -> times observed as current state
	emits       map[int]float64 // symbol ID -> times observed
	transitions map[int]float64 // hidden ID -> outgoing transition updates

	prev    int
	started bool
	steps   int
}

// NewOnline builds an empty on-line estimator with learning factors beta
// (transition rows) and gamma (emission rows), both in (0,1). The paper's
// evaluation uses β = γ = 0.90.
func NewOnline(beta, gamma float64) (*Online, error) {
	if beta <= 0 || beta >= 1 || gamma <= 0 || gamma >= 1 {
		return nil, fmt.Errorf("hmm: learning factors β=%v γ=%v outside (0,1)", beta, gamma)
	}
	return &Online{
		beta:        beta,
		gamma:       gamma,
		hiddenIdx:   make(map[int]int),
		symbolIdx:   make(map[int]int),
		a:           vecmat.NewMatrix(0, 0),
		b:           vecmat.NewMatrix(0, 0),
		visits:      make(map[int]float64),
		emits:       make(map[int]float64),
		transitions: make(map[int]float64),
	}, nil
}

// EnsureHidden registers a hidden state ID if unseen. New rows of A and B
// are initialised in the spirit of the paper's identity initialisation: the
// new A row puts all mass on the state's own self-transition, and the new B
// row puts all mass on the symbol with the same ID when it exists (the
// detector's M_CO shares one alphabet for states and symbols), falling back
// to a uniform row otherwise.
func (o *Online) EnsureHidden(id int) {
	if _, ok := o.hiddenIdx[id]; ok {
		return
	}
	row := o.a.AppendRow()
	o.b.AppendRow()
	col := o.a.AppendCol()
	o.hiddenIdx[id] = row
	o.hiddenIDs = append(o.hiddenIDs, id)
	o.a.Set(row, col, 1)
	o.initEmissionRow(row, id)
}

func (o *Online) initEmissionRow(row, hiddenID int) {
	if col, ok := o.symbolIdx[hiddenID]; ok {
		o.b.Set(row, col, 1)
		return
	}
	if n := o.b.Cols(); n > 0 {
		for j := 0; j < n; j++ {
			o.b.Set(row, j, 1/float64(n))
		}
	}
}

// EnsureSymbol registers an observation symbol ID if unseen. The new B
// column starts at zero except that a hidden state with the same ID moves
// its identity mass onto it (keeping rows stochastic requires taking that
// mass from the row's current distribution only when the row is still in its
// initial uniform/degenerate form and unvisited; visited rows are left
// untouched and learn the new symbol through updates).
func (o *Online) EnsureSymbol(id int) {
	if _, ok := o.symbolIdx[id]; ok {
		return
	}
	col := o.b.AppendCol()
	o.symbolIdx[id] = col
	o.symbolIDs = append(o.symbolIDs, id)
	if row, ok := o.hiddenIdx[id]; ok && o.visits[id] == 0 {
		// Reset the unvisited row to the identity shape.
		for j := 0; j < o.b.Cols(); j++ {
			o.b.Set(row, j, 0)
		}
		o.b.Set(row, col, 1)
	}
}

// Observe folds in one time step: hidden is the current hidden-state
// estimate (the detector's correct state c_i) and symbol the current
// observation symbol (o_i for M_CO, e_i or Bottom for M_CE). Unknown IDs
// are registered automatically.
func (o *Online) Observe(hidden, symbol int) {
	o.EnsureHidden(hidden)
	o.EnsureSymbol(symbol)
	j := o.hiddenIdx[hidden]

	if o.started && o.prev != hidden {
		// A-row update for the previous state i:
		// ∀k: a_ik ← (1-β)a_ik + β·δ_kj.
		i := o.hiddenIdx[o.prev]
		for k := 0; k < o.a.Cols(); k++ {
			v := (1 - o.beta) * o.a.At(i, k)
			if k == j {
				v += o.beta
			}
			o.a.Set(i, k, v)
		}
		o.transitions[o.prev]++
	}

	// B-row update for the current state:
	// ∀k: b_jk ← (1-γ)b_jk + γ·δ_kl.
	// A row that never received initial mass (its hidden state was
	// registered before any symbol existed) is seeded with a pure delta,
	// which keeps B row-stochastic.
	l := o.symbolIdx[symbol]
	var rowMass float64
	for k := 0; k < o.b.Cols(); k++ {
		rowMass += o.b.At(j, k)
	}
	if rowMass < 1e-12 {
		o.b.Set(j, l, 1)
	} else {
		for k := 0; k < o.b.Cols(); k++ {
			v := (1 - o.gamma) * o.b.At(j, k)
			if k == l {
				v += o.gamma
			}
			o.b.Set(j, k, v)
		}
	}

	o.visits[hidden]++
	o.emits[symbol]++
	o.prev = hidden
	o.started = true
	o.steps++
}

// MergeHidden folds hidden state from into hidden state into, mirroring a
// model-state merge in the clusterer. A rows and B rows combine as
// visit-weighted convex combinations (preserving stochasticity); the A
// column of from folds into the column of into by summation.
func (o *Online) MergeHidden(into, from int) error {
	if into == from {
		return nil
	}
	ri, ok := o.hiddenIdx[into]
	if !ok {
		return fmt.Errorf("hmm: merge target hidden state %d unknown", into)
	}
	rf, ok := o.hiddenIdx[from]
	if !ok {
		return fmt.Errorf("hmm: merge source hidden state %d unknown", from)
	}

	wi, wf := o.visits[into], o.visits[from]
	total := wi + wf
	blend := func(m *vecmat.Matrix) {
		for k := 0; k < m.Cols(); k++ {
			var v float64
			if total > 0 {
				v = (m.At(ri, k)*wi + m.At(rf, k)*wf) / total
			} else {
				v = 0.5*m.At(ri, k) + 0.5*m.At(rf, k)
			}
			m.Set(ri, k, v)
		}
	}
	blend(o.a)
	blend(o.b)
	o.a.RemoveRow(rf)
	o.b.RemoveRow(rf)
	o.a.FoldColInto(o.colOf(into), o.colOf(from))

	o.dropHidden(from, rf)
	o.visits[into] = total
	delete(o.visits, from)
	o.transitions[into] += o.transitions[from]
	delete(o.transitions, from)
	if o.started && o.prev == from {
		o.prev = into
	}
	return nil
}

func (o *Online) colOf(hiddenID int) int { return o.hiddenIdx[hiddenID] }

func (o *Online) dropHidden(id, row int) {
	delete(o.hiddenIdx, id)
	o.hiddenIDs = append(o.hiddenIDs[:row], o.hiddenIDs[row+1:]...)
	for i := row; i < len(o.hiddenIDs); i++ {
		o.hiddenIdx[o.hiddenIDs[i]] = i
	}
}

// MergeSymbol folds symbol from into symbol into: B columns add.
func (o *Online) MergeSymbol(into, from int) error {
	if into == from {
		return nil
	}
	ci, ok := o.symbolIdx[into]
	if !ok {
		return fmt.Errorf("hmm: merge target symbol %d unknown", into)
	}
	cf, ok := o.symbolIdx[from]
	if !ok {
		return fmt.Errorf("hmm: merge source symbol %d unknown", from)
	}
	o.b.FoldColInto(ci, cf)
	delete(o.symbolIdx, from)
	o.symbolIDs = append(o.symbolIDs[:cf], o.symbolIDs[cf+1:]...)
	for i := cf; i < len(o.symbolIDs); i++ {
		o.symbolIdx[o.symbolIDs[i]] = i
	}
	o.emits[into] += o.emits[from]
	delete(o.emits, from)
	return nil
}

// HiddenIDs returns the registered hidden-state IDs in ascending order.
func (o *Online) HiddenIDs() []int {
	out := append([]int(nil), o.hiddenIDs...)
	sort.Ints(out)
	return out
}

// SymbolIDs returns the registered symbol IDs in ascending order.
func (o *Online) SymbolIDs() []int {
	out := append([]int(nil), o.symbolIDs...)
	sort.Ints(out)
	return out
}

// Visits returns how many times the hidden state has been the current state.
func (o *Online) Visits(hiddenID int) float64 { return o.visits[hiddenID] }

// Emissions returns how many times the symbol has been observed.
func (o *Online) Emissions(symbolID int) float64 { return o.emits[symbolID] }

// Steps returns the number of Observe calls folded in.
func (o *Online) Steps() int { return o.steps }

// Snapshot materialises the estimator into ordered matrices: rows/columns
// follow ascending ID order, so snapshots are directly comparable across
// calls regardless of internal registration order.
func (o *Online) Snapshot() Snapshot {
	hid := o.HiddenIDs()
	sym := o.SymbolIDs()
	// Resolve every ID to its internal index once, not once per cell.
	hidAt := make([]int, len(hid))
	for i, h := range hid {
		hidAt[i] = o.hiddenIdx[h]
	}
	symAt := make([]int, len(sym))
	for j, s := range sym {
		symAt[j] = o.symbolIdx[s]
	}
	a := vecmat.NewMatrix(len(hid), len(hid))
	b := vecmat.NewMatrix(len(hid), len(sym))
	for i, ri := range hidAt {
		for j, cj := range hidAt {
			a.Set(i, j, o.a.At(ri, cj))
		}
		for j, cj := range symAt {
			b.Set(i, j, o.b.At(ri, cj))
		}
	}
	visits := make(map[int]float64, len(hid))
	for _, h := range hid {
		visits[h] = o.visits[h]
	}
	emits := make(map[int]float64, len(sym))
	for _, s := range sym {
		emits[s] = o.emits[s]
	}
	return Snapshot{HiddenIDs: hid, SymbolIDs: sym, A: a, B: b, Visits: visits, Emissions: emits}
}

// EmissionView lends the estimator's emission matrix B and its visit
// counts in place, in internal row and column order, with no copy: the view
// the §3.4 network analysis runs on every window. It is valid until the
// next Observe or merge, and must not be written.
func (o *Online) EmissionView() EmissionView {
	return EmissionView{HiddenIDs: o.hiddenIDs, SymbolIDs: o.symbolIDs, B: o.b, Visits: o.visits}
}

// EmissionView is a read-only view of an emission matrix B: row i belongs
// to hidden state HiddenIDs[i] and column j to symbol SymbolIDs[j], in
// whatever order the source keeps them (a Snapshot's is ascending, a live
// estimator's is registration order).
type EmissionView struct {
	HiddenIDs []int
	SymbolIDs []int
	B         *vecmat.Matrix
	Visits    map[int]float64 // hidden ID -> times observed as current state
}

// Snapshot is an immutable, ID-ordered view of an Online estimator.
type Snapshot struct {
	HiddenIDs []int
	SymbolIDs []int
	A         *vecmat.Matrix // indexed by position in HiddenIDs
	B         *vecmat.Matrix // rows by HiddenIDs, cols by SymbolIDs
	Visits    map[int]float64
	Emissions map[int]float64
}

// EmissionView lends the snapshot's B and visit counts as an EmissionView.
func (s Snapshot) EmissionView() EmissionView {
	return EmissionView{HiddenIDs: s.HiddenIDs, SymbolIDs: s.SymbolIDs, B: s.B, Visits: s.Visits}
}

// HiddenIndex returns the row position of a hidden ID in the snapshot.
func (s Snapshot) HiddenIndex(id int) (int, error) {
	for i, h := range s.HiddenIDs {
		if h == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("hmm: hidden ID %d not in snapshot", id)
}

// SymbolIndex returns the column position of a symbol ID in the snapshot.
func (s Snapshot) SymbolIndex(id int) (int, error) {
	for i, v := range s.SymbolIDs {
		if v == id {
			return i, nil
		}
	}
	return 0, fmt.Errorf("hmm: symbol ID %d not in snapshot", id)
}

// ErrNoObservations is returned by operations that need at least one
// observed step.
var ErrNoObservations = errors.New("hmm: no observations")
