package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"sensorguard/internal/gdi"
	"sensorguard/internal/vecmat"
)

// blob generates n points around center with the given spread.
func blob(rng *rand.Rand, center vecmat.Vector, spread float64, n int) []vecmat.Vector {
	out := make([]vecmat.Vector, n)
	for i := range out {
		p := vecmat.NewVector(len(center))
		for d := range p {
			p[d] = center[d] + rng.NormFloat64()*spread
		}
		out[i] = p
	}
	return out
}

func TestKMeansSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	centers := []vecmat.Vector{{12, 94}, {17, 84}, {24, 70}, {31, 56}}
	var points []vecmat.Vector
	for _, c := range centers {
		points = append(points, blob(rng, c, 0.5, 100)...)
	}
	got, err := KMeans(points, len(centers), rng, 100)
	if err != nil {
		t.Fatalf("KMeans: %v", err)
	}
	if len(got) != len(centers) {
		t.Fatalf("got %d centroids, want %d", len(got), len(centers))
	}
	// Each true center must have a recovered centroid within 1 unit.
	for _, c := range centers {
		best := math.Inf(1)
		for _, g := range got {
			d, _ := c.Distance(g)
			best = math.Min(best, d)
		}
		if best > 1 {
			t.Errorf("no centroid near %v (closest at distance %v)", c, best)
		}
	}
}

func TestKMeansValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := []vecmat.Vector{{1}, {2}}
	if _, err := KMeans(pts, 0, rng, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMeans(pts, 3, rng, 10); err == nil {
		t.Error("k > len(points) accepted")
	}
	if _, err := KMeans(pts, 1, nil, 10); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := KMeans([]vecmat.Vector{{1}, {1, 2}}, 1, rng, 10); err == nil {
		t.Error("ragged points accepted")
	}
}

func TestKMeansDeterministicForSeed(t *testing.T) {
	centers := []vecmat.Vector{{0, 0}, {50, 50}}
	mk := func(seed int64) []vecmat.Vector {
		rng := rand.New(rand.NewSource(seed))
		var points []vecmat.Vector
		for _, c := range centers {
			points = append(points, blob(rng, c, 1, 50)...)
		}
		got, err := KMeans(points, 2, rng, 50)
		if err != nil {
			t.Fatalf("KMeans: %v", err)
		}
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		return got
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if !a[i].Equal(b[i], 1e-12) {
			t.Errorf("same seed produced different centroids: %v vs %v", a[i], b[i])
		}
	}
}

func TestKMeansIdenticalPoints(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := []vecmat.Vector{{5, 5}, {5, 5}, {5, 5}}
	got, err := KMeans(pts, 2, rng, 10)
	if err != nil {
		t.Fatalf("KMeans on identical points: %v", err)
	}
	for _, g := range got {
		if !g.Equal(vecmat.Vector{5, 5}, 1e-9) {
			t.Errorf("centroid = %v, want (5,5)", g)
		}
	}
}

// bootstrapDay returns the attribute vectors of the first 24 h of a
// two-day synthetic GDI deployment: what the collector clusters when that
// deployment bootstraps.
func bootstrapDay(tb testing.TB, seed int64) []vecmat.Vector {
	tb.Helper()
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = 2
	cfg.Seed = seed
	tr, err := gdi.Generate(cfg)
	if err != nil {
		tb.Fatalf("generate: %v", err)
	}
	var pts []vecmat.Vector
	for _, r := range tr.Readings {
		if r.Time < tr.Readings[0].Time+24*time.Hour {
			pts = append(pts, r.Values)
		}
	}
	return pts
}

// tiePoints puts p = (0, 0) last, after five copies of a = (2²⁶, 1) and
// five of b = (−2²⁶, 0). p's squared distances, 2⁵²+1 from a and 2⁵² from
// b, are one ulp apart yet share the root 2²⁶, so p must stay with a when
// a is the earlier centroid. A kernel comparing plain squared distances
// moves it to b.
func tiePoints() []vecmat.Vector {
	var pts []vecmat.Vector
	for range 5 {
		pts = append(pts, vecmat.Vector{0x1p26, 1})
	}
	for range 5 {
		pts = append(pts, vecmat.Vector{-0x1p26, 0})
	}
	return append(pts, vecmat.Vector{0, 0})
}

// tieSeed is an rng seed under which k-means++ seeds tiePoints with a
// first and b second.
const tieSeed = 1

func TestKMeansMatchesReference(t *testing.T) {
	type kmCase struct {
		name   string
		points []vecmat.Vector
		k      int
		seed   int64
	}
	var cases []kmCase
	// perfbench's 64 deployments at workload seed 1.
	for d := range 64 {
		pts := bootstrapDay(t, 1_000_003+int64(d)+1)
		for _, seed := range []int64{1, 2, 7} {
			cases = append(cases, kmCase{fmt.Sprintf("gdi-dep-%d/rng-%d", d, seed), pts, 6, seed})
		}
	}

	rng := rand.New(rand.NewSource(11))
	var oneD, threeD []vecmat.Vector
	for _, c := range []vecmat.Vector{{0}, {5}, {9}, {30}} {
		oneD = append(oneD, blob(rng, c, 1, 80)...)
	}
	for _, c := range []vecmat.Vector{{12, 94, 3}, {17, 84, 1}, {24, 70, 2}} {
		threeD = append(threeD, blob(rng, c, 2, 60)...)
	}
	var identical []vecmat.Vector
	for range 40 {
		identical = append(identical, vecmat.Vector{5, 5})
	}
	// Two locations cannot seed three clusters: the third seed duplicates
	// one of them, loses every point to the earlier twin, and is re-seeded.
	reseed := []vecmat.Vector{{5, 5}, {5, 5}, {5, 5}, {9, 9}}
	for _, seed := range []int64{1, 2, 7} {
		cases = append(cases,
			kmCase{fmt.Sprintf("1d-blobs/rng-%d", seed), oneD, 4, seed},
			kmCase{fmt.Sprintf("3d-blobs/rng-%d", seed), threeD, 3, seed},
			kmCase{fmt.Sprintf("identical/rng-%d", seed), identical, 3, seed},
			kmCase{fmt.Sprintf("k-equals-n/rng-%d", seed), threeD[:12], 12, seed},
			kmCase{fmt.Sprintf("empty-reseed/rng-%d", seed), reseed, 3, seed},
		)
	}

	tie := tiePoints()
	a, b, p := tie[0], tie[5], tie[10]
	sa := (p[0]-a[0])*(p[0]-a[0]) + (p[1]-a[1])*(p[1]-a[1])
	sb := (p[0]-b[0])*(p[0]-b[0]) + (p[1]-b[1])*(p[1]-b[1])
	if sa != math.Nextafter(sb, math.Inf(1)) || math.Sqrt(sa) != math.Sqrt(sb) {
		t.Fatalf("tie case: squared distances %v and %v are not one ulp apart with one root", sa, sb)
	}
	seeds, err := referenceSeedPlusPlus(tie, 2, rand.New(rand.NewSource(tieSeed)))
	if err != nil || !seeds[0].Equal(a, 0) || !seeds[1].Equal(b, 0) {
		t.Fatalf("tie case: rng seed %d seeds %v, want a then b", tieSeed, seeds)
	}
	cases = append(cases, kmCase{"root-tie", tie, 2, tieSeed})

	for _, tc := range cases {
		want, err := referenceKMeans(tc.points, tc.k, rand.New(rand.NewSource(tc.seed)), 100)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got, err := KMeans(tc.points, tc.k, rand.New(rand.NewSource(tc.seed)), 100)
		if err != nil {
			t.Fatalf("%s: KMeans: %v", tc.name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d centroids, want %d", tc.name, len(got), len(want))
		}
		for c := range want {
			if len(got[c]) != len(want[c]) {
				t.Fatalf("%s: centroid %d has dim %d, want %d", tc.name, c, len(got[c]), len(want[c]))
			}
			for j := range want[c] {
				if math.Float64bits(got[c][j]) != math.Float64bits(want[c][j]) {
					t.Errorf("%s: centroid %d = %v, want %v", tc.name, c, got[c], want[c])
					break
				}
			}
		}
	}
}

// BenchmarkKMeans clusters one GDI bootstrap day (2,591 points) into six
// states, as the collector does for every deployment it bootstraps.
func BenchmarkKMeans(b *testing.B) {
	pts := bootstrapDay(b, 1_000_003+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KMeans(pts, 6, rand.New(rand.NewSource(1)), 100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKMeansCorpus clusters the bootstrap days of all 64 perfbench
// deployments (workload seed 1) into six states each: the mix of inputs a
// crash recovery clusters.
func BenchmarkKMeansCorpus(b *testing.B) {
	days := make([][]vecmat.Vector, 64)
	for d := range days {
		days[d] = bootstrapDay(b, 1_000_003+int64(d)+1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pts := range days {
			if _, err := KMeans(pts, 6, rand.New(rand.NewSource(1)), 100); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// fuzzPoints builds a point set from fuzz input. data[0] picks the
// dimension, 1 to 3; then each op byte adds points:
//
//	op%4 == 0: one point from the next 8·dim bytes, raw float64 bits;
//	op%4 == 1: a copy of an earlier point, picked by the next byte's low
//	           seven bits and negated when its top bit is set;
//	op%4 == 2: a point on an integer grid, each coordinate the next byte
//	           as int8 times 2^(e−7), e = (op>>2)%37 − 10, so magnitudes
//	           run from 2⁻¹⁰ ≈ 1e-3 to 2²⁶;
//	op%4 == 3: a near-root tie in the shape of tiePoints, scaled to 2^e with
//	           e = 13 + (op>>2)%14: a = (2^e, 2^(e−26+j)), b = (−2^e, 0)
//	           and p = 0 between them, j = (op>>6)%3 − 1. At j = 0, p's
//	           squared distances are one ulp apart with one root.
//
// It stops at 4096 points or when the input runs out.
func fuzzPoints(data []byte) []vecmat.Vector {
	if len(data) == 0 {
		return nil
	}
	dim := 1 + int(data[0]%3)
	var pts []vecmat.Vector
	for rest := data[1:]; len(rest) > 0 && len(pts) < 4096; {
		op := rest[0]
		rest = rest[1:]
		switch op % 4 {
		case 0:
			if len(rest) < 8*dim {
				return pts
			}
			p := make(vecmat.Vector, dim)
			for j := range p {
				p[j] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*j:]))
			}
			pts, rest = append(pts, p), rest[8*dim:]
		case 1:
			if len(rest) < 1 || len(pts) == 0 {
				return pts
			}
			p := pts[int(rest[0]&0x7f)%len(pts)].Clone()
			if rest[0]&0x80 != 0 {
				p = p.Scale(-1)
			}
			pts, rest = append(pts, p), rest[1:]
		case 2:
			if len(rest) < dim {
				return pts
			}
			scale := math.Ldexp(1, int(op>>2)%37-10-7)
			p := make(vecmat.Vector, dim)
			for j := range p {
				p[j] = float64(int8(rest[j])) * scale
			}
			pts, rest = append(pts, p), rest[dim:]
		case 3:
			e := 13 + int(op>>2)%14
			a, b, z := make(vecmat.Vector, dim), make(vecmat.Vector, dim), make(vecmat.Vector, dim)
			a[0], b[0] = math.Ldexp(1, e), -math.Ldexp(1, e)
			if dim > 1 {
				a[1] = math.Ldexp(1, e-26+int(op>>6)%3-1)
			}
			pts = append(pts, a, b, z)
		}
	}
	return pts
}

// encodePoints is the fuzzPoints input that rebuilds pts exactly.
func encodePoints(pts []vecmat.Vector) []byte {
	data := []byte{byte(len(pts[0]) - 1)}
	for _, p := range pts {
		data = append(data, 0)
		for _, x := range p {
			data = binary.LittleEndian.AppendUint64(data, math.Float64bits(x))
		}
	}
	return data
}

// FuzzKMeansMatchesReference holds KMeans to referenceKMeans bit for bit,
// error for error, on the fuzzPoints set for k = 1 + k8%8, with any NaN
// equal to any other: Go leaves unspecified which payload an operation on
// two NaNs returns, and the compiler may order an addition's operands
// either way. The seeds are the shapes TestKMeansMatchesReference checks.
func FuzzKMeansMatchesReference(f *testing.F) {
	f.Add(encodePoints(bootstrapDay(f, 1_000_003+1)), uint8(5), int64(1))
	rng := rand.New(rand.NewSource(11))
	var oneD, threeD []vecmat.Vector
	for _, c := range []vecmat.Vector{{0}, {5}, {9}, {30}} {
		oneD = append(oneD, blob(rng, c, 1, 80)...)
	}
	for _, c := range []vecmat.Vector{{12, 94, 3}, {17, 84, 1}, {24, 70, 2}} {
		threeD = append(threeD, blob(rng, c, 2, 60)...)
	}
	f.Add(encodePoints(oneD), uint8(3), int64(1))
	f.Add(encodePoints(threeD), uint8(2), int64(2))
	f.Add(encodePoints(threeD[:12]), uint8(11), int64(7))
	f.Add(encodePoints([]vecmat.Vector{{5, 5}, {5, 5}, {5, 5}}), uint8(1), int64(2))
	f.Add(encodePoints([]vecmat.Vector{{5, 5}, {5, 5}, {5, 5}, {9, 9}}), uint8(2), int64(1))
	f.Add(encodePoints(tiePoints()), uint8(1), int64(tieSeed))
	// Mirrored points and duplicate centroids: a kernel that skips a point
	// whose bounds merely touch (upper ≤ lower) keeps it from an earlier
	// twin centroid on the first; one whose bounds carry no rounding
	// margin skips a point it must move on the second.
	f.Add(encodePoints([]vecmat.Vector{{14.07, 8.13}, {-14.07, -8.13}, {-14.07, -8.13}, {14.07, 8.13}, {0, 0}, {14.07, 8.13}}), uint8(3), int64(38))
	f.Add(encodePoints([]vecmat.Vector{{27.42, 26.37}, {-27.42, -26.37}, {27.42, 26.37}, {0, 0}, {27.42, 26.37}}), uint8(3), int64(4))
	// Integer grids and scaled root ties, two and one dimensional.
	f.Add([]byte{1, 2, 3, 4, 2, 250, 9, 2, 3, 4, 1, 0, 3, 67, 131, 2, 7, 7, 1, 2}, uint8(2), int64(3))
	f.Add([]byte{0, 6, 1, 6, 2, 6, 3, 6, 5, 6, 8, 1, 1, 1, 3, 6, 4, 6, 250}, uint8(1), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, k8 uint8, seed int64) {
		pts := fuzzPoints(data)
		if len(pts) == 0 {
			return
		}
		k := 1 + int(k8%8)
		want, werr := referenceKMeans(pts, k, rand.New(rand.NewSource(seed)), 100)
		got, err := KMeans(pts, k, rand.New(rand.NewSource(seed)), 100)
		if (err != nil) != (werr != nil) {
			t.Fatalf("KMeans error %v, reference error %v", err, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%d centroids, want %d", len(got), len(want))
		}
		for c := range want {
			for j := range want[c] {
				g, w := got[c][j], want[c][j]
				if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
					t.Fatalf("k=%d seed=%d: centroid %d = %v, want %v", k, seed, c, got[c], want[c])
				}
			}
		}
	})
}

func TestRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	got, err := RandomStates(6, 2, 0, 100, rng)
	if err != nil {
		t.Fatalf("RandomStates: %v", err)
	}
	if len(got) != 6 {
		t.Fatalf("got %d states, want 6", len(got))
	}
	for _, v := range got {
		if len(v) != 2 {
			t.Fatalf("state dim = %d, want 2", len(v))
		}
		for _, x := range v {
			if x < 0 || x > 100 {
				t.Errorf("state component %v outside [0,100]", x)
			}
		}
	}

	if _, err := RandomStates(0, 2, 0, 1, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RandomStates(1, 2, 5, 1, rng); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := RandomStates(1, 2, 0, 1, nil); err == nil {
		t.Error("nil rng accepted")
	}
}

// referenceKMeans is the textbook KMeans that the flat kernel replaced,
// kept verbatim as the oracle the kernel must match bit for bit: Lloyd's
// algorithm over Euclidean distances with k-means++ seeding.
func referenceKMeans(points []vecmat.Vector, k int, rng *rand.Rand, maxIter int) ([]vecmat.Vector, error) {
	switch {
	case k <= 0:
		return nil, errors.New("cluster: k must be positive")
	case len(points) < k:
		return nil, fmt.Errorf("cluster: %d points cannot seed %d clusters", len(points), k)
	case rng == nil:
		return nil, errors.New("cluster: nil rng")
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: ragged point %v: %w", p, vecmat.ErrDimensionMismatch)
		}
	}

	centroids, err := referenceSeedPlusPlus(points, k, rng)
	if err != nil {
		return nil, err
	}

	assign := make([]int, len(points))
	for iter := 0; iter < maxIter; iter++ {
		changed := false
		for i, p := range points {
			best, bestDist := 0, math.Inf(1)
			for c, cent := range centroids {
				d, derr := p.Distance(cent)
				if derr != nil {
					return nil, derr
				}
				if d < bestDist {
					best, bestDist = c, d
				}
			}
			if assign[i] != best {
				assign[i], changed = best, true
			}
		}
		if !changed && iter > 0 {
			break
		}
		sums := make([]vecmat.Vector, k)
		counts := make([]int, k)
		for c := range sums {
			sums[c] = vecmat.NewVector(dim)
		}
		for i, p := range points {
			if err := sums[assign[i]].AddInPlace(p); err != nil {
				return nil, err
			}
			counts[assign[i]]++
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				centroids[c] = points[rng.Intn(len(points))].Clone()
				continue
			}
			centroids[c] = sums[c].Scale(1 / float64(counts[c]))
		}
	}
	return centroids, nil
}

// referenceSeedPlusPlus picks k initial centroids with the k-means++ rule: each next
// seed is sampled with probability proportional to its squared distance from
// the nearest existing seed.
func referenceSeedPlusPlus(points []vecmat.Vector, k int, rng *rand.Rand) ([]vecmat.Vector, error) {
	centroids := make([]vecmat.Vector, 0, k)
	centroids = append(centroids, points[rng.Intn(len(points))].Clone())
	d2 := make([]float64, len(points))
	for len(centroids) < k {
		var total float64
		for i, p := range points {
			best := math.Inf(1)
			for _, c := range centroids {
				d, err := p.Distance(c)
				if err != nil {
					return nil, err
				}
				if dd := d * d; dd < best {
					best = dd
				}
			}
			d2[i] = best
			total += best
		}
		if total == 0 {
			// All points coincide with existing seeds; duplicate one.
			centroids = append(centroids, points[rng.Intn(len(points))].Clone())
			continue
		}
		target := rng.Float64() * total
		var acc float64
		pick := len(points) - 1
		for i, w := range d2 {
			acc += w
			if acc >= target {
				pick = i
				break
			}
		}
		centroids = append(centroids, points[pick].Clone())
	}
	return centroids, nil
}
