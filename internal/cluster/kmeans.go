package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

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
// squared, and every sum and rng draw keeps the textbook order.
func KMeans(points []vecmat.Vector, k int, rng *rand.Rand, maxIter int) ([]vecmat.Vector, error) {
	switch {
	case k <= 0:
		return nil, errors.New("cluster: k must be positive")
	case len(points) < k:
		return nil, fmt.Errorf("cluster: %d points cannot seed %d clusters", len(points), k)
	case rng == nil:
		return nil, errors.New("cluster: nil rng")
	}
	n, dim := len(points), len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: ragged point %v: %w", p, vecmat.ErrDimensionMismatch)
		}
	}
	flat := make([]float64, n*dim)
	for i, p := range points {
		copy(flat[i*dim:], p)
	}

	cent := seedPlusPlus(flat, n, dim, k, rng)
	assign := make([]int, n)
	sums := make([]float64, k*dim)
	counts := make([]int, k)
	for iter := 0; iter < maxIter; iter++ {
		if !assignNearest(assign, flat, cent, dim, k) && iter > 0 {
			break
		}
		clear(sums)
		clear(counts)
		for i, c := range assign {
			sum := sums[c*dim : c*dim+dim]
			for j, x := range flat[i*dim : i*dim+dim] {
				sum[j] += x
			}
			counts[c]++
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
	}

	centroids := make([]vecmat.Vector, k)
	for c := range centroids {
		centroids[c] = cent[c*dim : c*dim+dim : c*dim+dim]
	}
	return centroids, nil
}

// closer reports whether a point at squared distance s from one centroid is
// nearer than at squared distance best from another, deciding exactly as
// √s < √best would. Two squared distances that differ can round to the same
// root, and then the earlier centroid must keep the point; so the roots are
// taken whenever s is within 2⁻⁴⁸ of best, where they could coincide.
func closer(s, best float64) bool {
	return s < best && (s < best*(1-0x1p-48) || math.Sqrt(s) < math.Sqrt(best))
}

// assignNearest points assign[i] at the nearest of the k centroids in cent
// (the first on a tie) and reports whether any assignment changed.
func assignNearest(assign []int, flat, cent []float64, dim, k int) bool {
	changed := false
	if dim == 2 {
		// Every serving input is (temperature, humidity): keep the point
		// in two locals across the k centroids. s is summed as sqDist
		// sums it, so it rounds as 0 + dx² + dy² does.
		for i := range assign {
			x, y := flat[2*i], flat[2*i+1]
			best, bestS := 0, math.Inf(1)
			for c := 0; c < k; c++ {
				dx, dy := x-cent[2*c], y-cent[2*c+1]
				s := dx * dx
				s += dy * dy
				if closer(s, bestS) {
					best, bestS = c, s
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		return changed
	}
	for i := range assign {
		p := flat[i*dim : i*dim+dim]
		best, bestS := 0, math.Inf(1)
		for c := 0; c < k; c++ {
			if s := sqDist(p, cent[c*dim:c*dim+dim]); closer(s, bestS) {
				best, bestS = c, s
			}
		}
		if assign[i] != best {
			assign[i], changed = best, true
		}
	}
	return changed
}

// seedPlusPlus picks k initial centroids from the n flat points with the
// k-means++ rule: each next seed is sampled with probability proportional
// to its squared distance from the nearest existing seed. It returns them
// as one flat k×dim slice. d2 keeps each point's running minimum, so a new
// seed costs one distance per point. A weight is the root distance squared,
// (√s)², as in the textbook algorithm: it need not equal s, and weighting
// by s could move the sampled pick.
func seedPlusPlus(flat []float64, n, dim, k int, rng *rand.Rand) []float64 {
	cent := make([]float64, k*dim)
	p := rng.Intn(n)
	copy(cent, flat[p*dim:p*dim+dim])
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = math.Inf(1)
	}
	for c := 1; c < k; c++ {
		last := cent[(c-1)*dim : c*dim]
		var total float64
		for i := range d2 {
			r := math.Sqrt(sqDist(flat[i*dim:i*dim+dim], last))
			if w := r * r; w < d2[i] {
				d2[i] = w
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
