package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"sensorguard/internal/vecmat"
)

// KMeans runs Lloyd's algorithm with k-means++ seeding over the given
// points and returns k centroids. The paper seeds the on-line clusterer with
// the output of an offline clustering pass over historical data (§4.1); this
// is that pass.
//
// rng drives the (deterministic, seeded) initialisation. maxIter bounds the
// Lloyd iterations; the algorithm also stops early on convergence.
//
// The kernel works on one flat copy of the points and compares squared
// distances, yet its output is bit-for-bit that of the textbook algorithm
// over Euclidean distances: a point joins the centroid whose root distance
// is strictly smaller (see closer), a k-means++ weight is the root distance
// squared, and every sum and rng draw keeps the textbook order. After the
// first pass, Hamerly's bounds (see bounds) skip every point that provably
// keeps its centroid, so the assignments, and with them every sum and draw,
// are the textbook's.
func KMeans(points []vecmat.Vector, k int, rng *rand.Rand, maxIter int) ([]vecmat.Vector, error) {
	return KMeansOf(points, func(p vecmat.Vector) vecmat.Vector { return p }, k, rng, maxIter)
}

// KMeansOf is KMeans over the points vectorOf reads off items, in order. It
// copies each point straight into the kernel's flat working copy, so a
// caller whose points sit inside other values (a buffered reading's
// Values) builds no slice of them first.
func KMeansOf[T any](items []T, vectorOf func(T) vecmat.Vector, k int, rng *rand.Rand, maxIter int) ([]vecmat.Vector, error) {
	switch {
	case k <= 0:
		return nil, errors.New("cluster: k must be positive")
	case len(items) < k:
		return nil, fmt.Errorf("cluster: %d points cannot seed %d clusters", len(items), k)
	case rng == nil:
		return nil, errors.New("cluster: nil rng")
	}
	n, dim := len(items), len(vectorOf(items[0]))
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)
	flat := resize(&ws.flat, n*dim)
	prune := k > 1 && dim <= pruneMaxDim
	for i, item := range items {
		p := vectorOf(item)
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: ragged point %v: %w", p, vecmat.ErrDimensionMismatch)
		}
		for _, x := range p {
			if !(math.Abs(x) <= pruneMaxAbs) {
				prune = false // non-finite or huge: every pass is a full scan
			}
		}
		copy(flat[i*dim:], p)
	}

	cent := seedPlusPlus(flat, resize(&ws.d2, n), n, dim, k, rng)
	assign := resize(&ws.assign, n)
	clear(assign)
	sums := resize(&ws.sums, k*dim)
	counts := resize(&ws.counts, k)
	var b *bounds
	if prune {
		b = ws.bounds(n, k, dim)
	}
	for iter := 0; iter < maxIter; iter++ {
		var changed bool
		if b != nil && iter > 0 {
			changed = b.assign(assign, flat, cent, dim, k)
		} else {
			changed = assignNearest(assign, flat, cent, dim, k, b)
		}
		if !changed && iter > 0 {
			break
		}
		sumClusters(sums, counts, assign, flat, dim)
		if b != nil {
			copy(b.old, cent)
		}
		for c, count := range counts {
			dst := cent[c*dim : c*dim+dim]
			if count == 0 {
				// Re-seed an empty cluster at a random point.
				p := rng.Intn(n)
				copy(dst, flat[p*dim:p*dim+dim])
				continue
			}
			scale := 1 / float64(count)
			for j, x := range sums[c*dim : c*dim+dim] {
				dst[j] = scale * x
			}
		}
		if b != nil {
			b.moved(cent, dim, k)
		}
	}

	centroids := make([]vecmat.Vector, k)
	for c := range centroids {
		centroids[c] = cent[c*dim : c*dim+dim : c*dim+dim]
	}
	return centroids, nil
}

// workspace is a KMeans run's working memory: all of it but the centroids
// the run returns. A collector bootstraps its deployments one after
// another, so runs take it from a pool instead of allocating it afresh.
type workspace struct {
	flat, d2, sums []float64
	assign, counts []int
	b              bounds
}

var workspaces = sync.Pool{New: func() any { return new(workspace) }}

// resize returns *s with length n, reallocating it when its capacity is
// short. What it held is left in place.
func resize[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	*s = (*s)[:n]
	return *s
}

// bounds sizes the workspace's bounds for n points and k centroids of dim.
func (ws *workspace) bounds(n, k, dim int) *bounds {
	b := &ws.b
	resize(&b.upper, n)
	resize(&b.lower, n)
	resize(&b.old, k*dim)
	resize(&b.drift, k)
	resize(&b.other, k)
	return b
}

// closer reports whether a point at squared distance s from one centroid is
// nearer than at squared distance best from another, deciding exactly as
// √s < √best would. Two squared distances that differ can round to the same
// root, and then the earlier centroid must keep the point; so the roots are
// taken whenever s is within 2⁻⁴⁸ of best, where they could coincide.
func closer(s, best float64) bool {
	return s < best && (s < best*(1-0x1p-48) || math.Sqrt(s) < math.Sqrt(best))
}

// nearest returns the centroid among the k in cent that the textbook
// assigns p to (the first on a root tie), its squared distance, and the
// smallest squared distance to any other centroid.
func nearest(p, cent []float64, dim, k int) (best int, bestS, nextS float64) {
	bestS, nextS = math.Inf(1), math.Inf(1)
	if dim == 2 {
		// Every serving input is (temperature, humidity): keep the point
		// in two locals across the k centroids. s is summed as sqDist
		// sums it, so it rounds as 0 + dx² + dy² does.
		x, y := p[0], p[1]
		for c := 0; c < k; c++ {
			dx, dy := x-cent[2*c], y-cent[2*c+1]
			s := dx * dx
			s += dy * dy
			if closer(s, bestS) {
				if bestS < nextS {
					nextS = bestS
				}
				best, bestS = c, s
			} else if s < nextS {
				nextS = s
			}
		}
		return best, bestS, nextS
	}
	for c := 0; c < k; c++ {
		if s := sqDist(p, cent[c*dim:c*dim+dim]); closer(s, bestS) {
			if bestS < nextS {
				nextS = bestS
			}
			best, bestS = c, s
		} else if s < nextS {
			nextS = s
		}
	}
	return best, bestS, nextS
}

// assignNearest points assign[i] at the nearest of the k centroids in cent
// (the first on a tie) and reports whether any assignment changed. With b,
// it also sets every point's bounds from the distances it computed.
func assignNearest(assign []int, flat, cent []float64, dim, k int, b *bounds) bool {
	changed := false
	for i := range assign {
		best, bestS, nextS := nearest(flat[i*dim:i*dim+dim], cent, dim, k)
		if b != nil {
			b.upper[i], b.lower[i] = up(math.Sqrt(bestS)), down(math.Sqrt(nextS))
		}
		if assign[i] != best {
			assign[i], changed = best, true
		}
	}
	return changed
}

// sumClusters sets sums and counts to each cluster's sum and count of
// members, adding the points in index order as the textbook does.
func sumClusters(sums []float64, counts, assign []int, flat []float64, dim int) {
	clear(sums)
	clear(counts)
	if dim != 2 {
		for i, c := range assign {
			sum := sums[c*dim : c*dim+dim]
			for j, x := range flat[i*dim : i*dim+dim] {
				sum[j] += x
			}
			counts[c]++
		}
		return
	}
	// Neighbouring points mostly share a cluster, so the running sum and
	// count of the cluster the latest point joined stay in locals until a
	// point joins another: the chain of adds runs in registers, not through
	// memory, and each cluster still adds its points in index order.
	flat = flat[:2*len(assign)]
	run, x, y, count := assign[0], 0.0, 0.0, 0
	for i, c := range assign {
		if c != run {
			sums[2*run], sums[2*run+1], counts[run] = x, y, count
			run, x, y, count = c, sums[2*c], sums[2*c+1], counts[c]
		}
		x += flat[2*i]
		y += flat[2*i+1]
		count++
	}
	sums[2*run], sums[2*run+1], counts[run] = x, y, count
}

// Hamerly's bounds prune a Lloyd pass only where rounding cannot matter.
// Let δ be the relative error of a computed distance, the root of a computed
// squared distance, against the exact distance between the same two float
// vectors: δ < (dim/2+2)·2⁻⁵³, below 2⁻³⁷ for dim ≤ pruneMaxDim. Squares that
// underflow add at most 2⁻⁵²⁰ absolute. up and down turn a computed
// distance, or a computed sum or difference of bounds, into an exact upper
// or lower bound: each moves its argument by pruneSlack ≫ δ relative and
// pruneFloor ≫ 2⁻⁵²⁰ absolute. Inputs above pruneMaxAbs in magnitude, or
// non-finite, switch pruning off, so no square, sum or bound can overflow.
const (
	pruneSlack  = 0x1p-30
	pruneFloor  = 0x1p-500
	pruneMaxAbs = 0x1p500
	pruneMaxDim = 1 << 16
)

// up rounds a computed distance or bound x ≥ 0 up to an exact upper bound.
func up(x float64) float64 { return x*(1+pruneSlack) + pruneFloor }

// down rounds a computed distance or bound x ≥ 0 down to an exact lower
// bound.
func down(x float64) float64 { return x*(1-pruneSlack) - pruneFloor }

// bounds holds Hamerly's per-point bounds for one KMeans run: upper[i] is at
// least the exact distance from point i to its centroid, and lower[i] at
// most the exact distance to every other centroid. A point with
// up(upper[i]) < lower[i] has, by the analysis above, a computed distance
// to its centroid strictly below every other computed distance, so the
// textbook scan would keep it where it is. A NaN bound fails that test.
type bounds struct {
	upper, lower []float64
	old          []float64 // the centroids before the update step
	drift        []float64 // per centroid, an upper bound on how far it moved
	other        []float64 // per centroid c, the largest drift of any other
}

// assign is assignNearest for every pass after the first. A point whose
// bounds, moved by the last update, still separate keeps its centroid
// without computing a distance. Any other first tightens its upper bound to
// its own centroid; only a point that still does not separate is scanned
// over all k centroids, as assignNearest scans it.
func (b *bounds) assign(assign []int, flat, cent []float64, dim, k int) bool {
	upper, lower := b.upper[:len(assign)], b.lower[:len(assign)]
	drift, other := b.drift, b.other
	changed := false
	for i, a := range assign {
		u := up(upper[i] + drift[a])
		l := down(lower[i] - other[a])
		if !(up(u) < l) {
			p := flat[i*dim : i*dim+dim]
			u = up(math.Sqrt(sqDist(p, cent[a*dim:a*dim+dim])))
			if !(up(u) < l) {
				best, bestS, nextS := nearest(p, cent, dim, k)
				u, l = up(math.Sqrt(bestS)), down(math.Sqrt(nextS))
				if best != a {
					assign[i], changed = best, true
				}
			}
		}
		upper[i], lower[i] = u, l
	}
	return changed
}

// moved records how far each centroid moved in the update step from b.old
// to cent, and the largest move of any other centroid.
func (b *bounds) moved(cent []float64, dim, k int) {
	first, second, arg := 0.0, 0.0, -1
	for c := 0; c < k; c++ {
		d := up(math.Sqrt(sqDist(b.old[c*dim:c*dim+dim], cent[c*dim:c*dim+dim])))
		b.drift[c] = d
		if d > first {
			first, second, arg = d, first, c
		} else if d > second {
			second = d
		}
	}
	for c := range b.other {
		b.other[c] = first
	}
	if arg >= 0 {
		b.other[arg] = second
	}
}

// seedPlusPlus picks k initial centroids from the n flat points with the
// k-means++ rule: each next seed is sampled with probability proportional
// to its squared distance from the nearest existing seed. It returns them
// as one flat k×dim slice. d2, n long, keeps each point's running minimum,
// so a new seed costs one distance per point. A weight is the root distance
// squared, (√s)², as in the textbook algorithm: it need not equal s, and
// weighting by s could move the sampled pick.
func seedPlusPlus(flat, d2 []float64, n, dim, k int, rng *rand.Rand) []float64 {
	cent := make([]float64, k*dim)
	p := rng.Intn(n)
	copy(cent, flat[p*dim:p*dim+dim])
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for c := 1; c < k; c++ {
		last := cent[(c-1)*dim : c*dim]
		var total float64
		for i := range d2 {
			// (√s)² ≥ s(1−2⁻⁵¹) for s ≥ 2⁻¹⁰⁰⁰, so it cannot undercut
			// d2[i] when s clears it by 2⁻⁴⁹: skip the root there.
			if s := sqDist(flat[i*dim:i*dim+dim], last); !(s > d2[i]*(1+0x1p-49)+0x1p-1000) {
				r := math.Sqrt(s)
				if w := r * r; w < d2[i] {
					d2[i] = w
				}
			}
			total += d2[i]
		}
		if total == 0 {
			// All points coincide with existing seeds; duplicate one.
			p = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var acc float64
			p = n - 1
			for i, w := range d2 {
				acc += w
				if acc >= target {
					p = i
					break
				}
			}
		}
		copy(cent[c*dim:], flat[p*dim:p*dim+dim])
	}
	return cent
}

// RandomStates returns k random centroids drawn uniformly inside the
// per-dimension [lo, hi] box — the paper's alternative initialisation
// (footnote 5: the methodology "worked equally well" with random states).
func RandomStates(k, dim int, lo, hi float64, rng *rand.Rand) ([]vecmat.Vector, error) {
	if k <= 0 || dim <= 0 {
		return nil, errors.New("cluster: k and dim must be positive")
	}
	if rng == nil {
		return nil, errors.New("cluster: nil rng")
	}
	if hi < lo {
		return nil, fmt.Errorf("cluster: empty range [%v,%v]", lo, hi)
	}
	out := make([]vecmat.Vector, k)
	for i := range out {
		v := vecmat.NewVector(dim)
		for d := range v {
			v[d] = lo + rng.Float64()*(hi-lo)
		}
		out[i] = v
	}
	return out, nil
}
