package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// referenceSensorMeans is the map-based grouping Detector.group replaced:
// one map lookup per reading, the sums accumulated per sensor in reading
// order, then each scaled into a mean in ascending sensor order. It is the
// specification FuzzStepGroupingMatchesReference holds group to.
func referenceSensorMeans(readings []sensor.Reading, dim int) ([]int, []vecmat.Vector, error) {
	slot := make(map[int]int)
	var ids, counts []int
	var sums []vecmat.Vector
	for _, r := range readings {
		if len(r.Values) != dim {
			return nil, nil, fmt.Errorf("core: reading from sensor %d has dimension %d, want %d",
				r.Sensor, len(r.Values), dim)
		}
		i, ok := slot[r.Sensor]
		if !ok {
			i = len(ids)
			slot[r.Sensor] = i
			sums = append(sums, vecmat.NewVector(dim))
			ids = append(ids, r.Sensor)
			counts = append(counts, 0)
		}
		if err := sums[i].AddInPlace(r.Values); err != nil {
			return nil, nil, err
		}
		counts[i]++
	}
	slices.Sort(ids)
	var points []vecmat.Vector
	for _, id := range ids {
		i := slot[id]
		sum := sums[i]
		inv := 1 / float64(counts[i])
		for k := range sum {
			sum[k] *= inv
		}
		points = append(points, sum)
	}
	return ids, points, nil
}

// referenceNetworkMean is Eq. (2) as Detector.step computed it before
// networkMean: the non-quarantined readings' values gathered (all of them
// when every one is quarantined) and averaged by referenceMeanInto.
func referenceNetworkMean(readings []sensor.Reading, quarantined map[int]bool, dim int) (vecmat.Vector, error) {
	var values []vecmat.Vector
	for _, r := range readings {
		if quarantined[r.Sensor] {
			continue
		}
		values = append(values, r.Values)
	}
	if len(values) == 0 {
		for _, r := range readings {
			values = append(values, r.Values)
		}
	}
	return referenceMeanInto(values, dim)
}

// referenceMeanInto is the component-wise mean Eq. (2) used to take.
func referenceMeanInto(vs []vecmat.Vector, dim int) (vecmat.Vector, error) {
	out := vecmat.NewVector(dim)
	if len(vs) == 0 {
		return nil, errors.New("core: mean of zero observations")
	}
	for _, v := range vs {
		if err := out.AddInPlace(v); err != nil {
			return nil, err
		}
	}
	inv := 1 / float64(len(vs))
	for k := range out {
		out[k] *= inv
	}
	return out, nil
}

// groupingIDs are the sensor IDs the fuzz input picks from: small ones,
// negative and extreme ones, and sets that share a grouping cache entry
// (equal modulo slotCacheSize).
var groupingIDs = []int{
	0, 1, 2, 3, 7, 63, 64, 65, 129, -63, -1, -64, -65,
	math.MaxInt, math.MinInt, math.MaxInt - slotCacheSize, 1 << 40, 1<<40 + slotCacheSize,
}

// FuzzStepGroupingMatchesReference steps a detector's grouping pass over a
// fuzzer-built sequence of windows and requires, window by window, the
// sensor IDs, the per-sensor means and the Eq. (2) network mean to equal
// the map-based reference bit for bit, and a ragged reading to fail with
// the reference's error. The detector is reused across windows, so stale
// cache entries from earlier windows are in play; a window can also start
// at the generation counter's wrap. See groupingGen for the input format.
func FuzzStepGroupingMatchesReference(f *testing.F) {
	type rd struct {
		id     int
		ragged bool
		vals   []int16
	}
	type win struct {
		wrap  bool
		qmask byte // quarantines the window's k-th new sensor when bit k%8 is set; 0xff all
		rs    []rd
	}
	seed := func(dim int, wins ...win) []byte {
		b := []byte{byte(dim - 1)}
		for _, w := range wins {
			var flags byte
			if w.wrap {
				flags = 1
			}
			b = append(b, byte(len(w.rs)), flags, w.qmask)
			for _, r := range w.rs {
				b = append(b, 0xff)
				b = binary.LittleEndian.AppendUint64(b, uint64(r.id))
				shape := byte(0)
				if r.ragged {
					shape = 31
				}
				b = append(b, shape)
				n := dim
				if r.ragged {
					n--
				}
				for k := 0; k < n; k++ {
					b = binary.LittleEndian.AppendUint16(b, uint16(r.vals[k%len(r.vals)]))
					b = append(b, 20) // scale 1
				}
			}
		}
		return b
	}
	f.Add(seed(2, win{rs: []rd{{-1, false, []int16{3, 4}}, {math.MinInt, false, []int16{-7, 1}},
		{math.MaxInt, false, []int16{5, 5}}, {-1, false, []int16{1, 2}}, {1 << 40, false, []int16{9, -9}}}}))
	colliding := win{rs: []rd{{1, false, []int16{1, 2}}, {65, false, []int16{3, 4}}, {129, false, []int16{5, 6}},
		{-63, false, []int16{7, 8}}, {1, false, []int16{9, 10}}, {65, false, []int16{11, 12}}, {-63, false, []int16{13, 14}}}}
	f.Add(seed(2, colliding, colliding, win{rs: []rd{{65, false, []int16{1, 1}}, {2, false, []int16{2, 2}}}}))
	f.Add(seed(3, win{rs: []rd{{1, false, []int16{1}}, {2, true, []int16{2}}, {3, false, []int16{3}}}}))
	quarantined := win{qmask: 0x05, rs: []rd{{4, false, []int16{10, 20}}, {5, false, []int16{30, 40}},
		{6, false, []int16{50, 60}}, {4, false, []int16{70, 80}}, {7, false, []int16{-5, -6}}}}
	f.Add(seed(2, quarantined))
	quarantined.qmask = 0xff
	reversed := slices.Clone(quarantined.rs)
	slices.Reverse(reversed) // the same sensors in another slot order, so stale entries would misfile them
	f.Add(seed(2, quarantined, win{wrap: true, rs: reversed}, win{rs: colliding.rs}))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		g := &groupingGen{b: data}
		dim := int(g.byte())%3 + 1
		cfg := DefaultConfig([]vecmat.Vector{make(vecmat.Vector, dim)})
		cfg.Dim = dim
		d, err := NewDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for window := 0; len(g.b) > 0 && window < 16; window++ {
			readings, quarantined, wrap := g.window(dim)
			if wrap {
				d.scratch.gen = math.MaxUint32
			}
			wantIDs, wantPoints, wantErr := referenceSensorMeans(readings, dim)
			ids, points, err := d.group(readings)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("window %d: error %v, want %v", window, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !slices.Equal(ids, wantIDs) {
				t.Fatalf("window %d: ids %v, want %v", window, ids, wantIDs)
			}
			for i := range points {
				if !sameVectorBits(points[i], wantPoints[i]) {
					t.Fatalf("window %d: sensor %d mean %v, want %v", window, ids[i], points[i], wantPoints[i])
				}
			}
			if len(readings) == 0 {
				continue // a step skips the window before Eq. (2)
			}
			d.quarantined = quarantined
			want, err := referenceNetworkMean(readings, quarantined, dim)
			if err != nil {
				t.Fatal(err)
			}
			if got := d.networkMean(readings); !sameVectorBits(got, want) {
				t.Fatalf("window %d: Eq. (2) mean %v, want %v (quarantined %v)", window, got, want, quarantined)
			}
		}
	})
}

func sameVectorBits(a, b vecmat.Vector) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// groupingGen reads FuzzStepGroupingMatchesReference's windows from fuzz
// bytes, 0 once they run out. The first byte picks the dimension (1–3);
// each window is a reading count (0–47), a flags byte (bit 0: start at the
// generation counter's wrap), a quarantine mask, then the readings. A
// reading is a sensor byte (0xff: a raw 8-byte ID follows; else an index
// into groupingIDs), a shape byte (31 mod 32 makes it ragged, one value
// short or, with bit 5, one long), then per value an int16 and a scale
// exponent byte.
type groupingGen struct{ b []byte }

func (g *groupingGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *groupingGen) uint64() uint64 {
	var v uint64
	for k := 0; k < 8; k++ {
		v |= uint64(g.byte()) << (8 * k)
	}
	return v
}

func (g *groupingGen) window(dim int) (readings []sensor.Reading, quarantined map[int]bool, wrap bool) {
	n := int(g.byte()) % 48
	wrap = g.byte()&1 != 0
	qmask := g.byte()
	quarantined = make(map[int]bool)
	var order []int
	for i := 0; i < n; i++ {
		var id int
		if s := g.byte(); s == 0xff {
			id = int(g.uint64())
		} else {
			id = groupingIDs[int(s)%len(groupingIDs)]
		}
		if !slices.Contains(order, id) {
			if qmask == 0xff || qmask>>(len(order)%8)&1 != 0 {
				quarantined[id] = true
			}
			order = append(order, id)
		}
		values := dim
		if shape := g.byte(); shape%32 == 31 {
			if shape&0x20 != 0 {
				values++
			} else {
				values--
			}
		}
		r := sensor.Reading{Sensor: id, Values: make(vecmat.Vector, values)}
		for k := range r.Values {
			v := int16(uint16(g.byte()) | uint16(g.byte())<<8)
			r.Values[k] = math.Ldexp(float64(v), int(g.byte()%40)-20)
		}
		readings = append(readings, r)
	}
	return readings, quarantined, wrap
}
