package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sensorguard/internal/classify"
	"sensorguard/internal/obs"
	"sensorguard/internal/vecmat"
)

// FuzzDecisionRingMatchesClones records a sequence of fuzzer-built records
// into a ring of capacity 1–9 and, after every record, requires Records to
// equal deep clones of the last capacity records, floats compared by their
// bits. data[0] picks the capacity; recordGen reads the records from the
// rest. The records swing between a few bytes and tens of kilobytes, so
// the arena both grows and moves its live records down, and their lengths
// cross the one-, two- and three-byte length prefixes.
func FuzzDecisionRingMatchesClones(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 40, 200, 600} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	// Capacity 3: a record with an 18 KB symbol, then small ones.
	f.Add([]byte{2, 0xff, 0x13, 0x50, 0xa0, 0xff, 0xff, 0xff, 0xff, 0x07, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := int(data[0])%9 + 1
		g := &recordGen{b: data[1:]}
		ring := NewDecisionRing(capacity)
		var clones []DecisionRecord
		for len(g.b) > 0 && len(clones) < 32 {
			rec := g.record()
			ring.Record(rec)
			clones = append(clones, rec.Clone())
			scribble(&rec) // the ring must have kept nothing rec points to

			got := ring.Records()
			want := clones[len(clones)-min(len(clones), capacity):]
			if len(got) != len(want) || ring.Len() != len(want) || ring.Dropped() != len(clones)-len(want) {
				t.Fatalf("after %d records: %d records, Len %d, Dropped %d; want %d and %d dropped",
					len(clones), len(got), ring.Len(), ring.Dropped(), len(want), len(clones)-len(want))
			}
			for i := range got {
				if !sameBits(reflect.ValueOf(got[i]), reflect.ValueOf(want[i])) {
					t.Fatalf("after %d records, record %d of %d decodes to\n%#v\nwant\n%#v",
						len(clones), i, len(got), got[i], want[i])
				}
			}
		}
	})
}

// sameBits is reflect.DeepEqual with floats compared by their bits, so NaN
// payloads and signed zeros must survive too.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// recordGen builds DecisionRecords from fuzz input. Every choice reads the
// input; once it runs out every read is zero, which ends the slices.
type recordGen struct{ b []byte }

func (g *recordGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *recordGen) uint64() uint64 {
	var buf [8]byte
	g.b = g.b[copy(buf[:], g.b):]
	return binary.LittleEndian.Uint64(buf[:])
}

// int64 is small, extreme or raw: the varint widths from one byte to ten.
func (g *recordGen) int64() int64 {
	switch c := g.byte(); c % 8 {
	case 0, 1, 2:
		return int64(int8(g.byte()))
	case 3:
		return math.MinInt64 + int64(c>>3)
	case 4:
		return math.MaxInt64 - int64(c>>3)
	case 5:
		return int64(int32(g.uint64()))
	default:
		return int64(g.uint64())
	}
}

func (g *recordGen) int() int     { return int(g.int64()) }
func (g *recordGen) int32() int32 { return int32(g.int64()) }

// float is a raw bit pattern (NaN payloads, infinities, subnormals), a
// signed zero, or a small integer.
func (g *recordGen) float() float64 {
	switch g.byte() % 4 {
	case 0:
		return math.Float64frombits(g.uint64())
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 0
	default:
		return float64(int8(g.byte()))
	}
}

func (g *recordGen) bool() bool { return g.byte()&1 != 0 }

// text is empty, short, or up to 18 KB: long enough that one record can
// outgrow every other in the ring and need a three-byte length.
func (g *recordGen) text() string {
	switch c := g.byte(); c % 4 {
	case 0:
		return ""
	case 1, 2:
		n := min(int(c>>2), len(g.b))
		s := string(g.b[:n])
		g.b = g.b[n:]
		return s
	default:
		return strings.Repeat("x⊥", int(g.byte())*int(g.byte())/14)
	}
}

// count is -1 (nil), 0 (empty) or a short length.
func (g *recordGen) count() int {
	c := g.byte()
	if c%8 == 0 {
		return -1
	}
	return int(c % 7)
}

func genSlice[E any](g *recordGen, elem func() E) []E {
	n := g.count()
	if n < 0 {
		return nil
	}
	out := make([]E, n)
	for i := range out {
		out[i] = elem()
	}
	return out
}

func (g *recordGen) symbol() string {
	switch g.byte() % 5 {
	case 0:
		return ""
	case 1:
		return "⊥"
	case 2:
		return strconv.Itoa(g.int())
	case 3:
		return "0" + strconv.Itoa(int(g.byte())) // looks numeric, is not strconv.Itoa's
	default:
		return g.text()
	}
}

func (g *recordGen) verdict() string {
	if c := g.byte(); c%4 != 0 {
		return classify.Kind(c % 13).String() // a kind's name, or kind(n) past the named ones
	}
	return g.text()
}

func (g *recordGen) record() DecisionRecord {
	rec := DecisionRecord{
		WindowStats: obs.WindowStats{
			Window: g.int(), Observable: g.int(), Correct: g.int(), RawAlarms: g.int(), FilteredAlarms: g.int(),
			Readings: g.int32(), Reporting: g.int32(), TrackSymbols: g.int32(), TrackBottoms: g.int32(),
			StateSpawns: g.int32(), StateMerges: g.int32(), ModelStates: g.int32(), OpenTracks: g.int32(),
			Skipped: g.bool(),
			Latency: obs.StageLatency{DeriveNS: g.int64(), ClassifyNS: g.int64(), MapNS: g.int64(), AlarmNS: g.int64(), HMMNS: g.int64()},
		},
	}
	lat := &rec.Latency
	if lat.TotalNS = lat.DeriveNS + lat.ClassifyNS + lat.MapNS + lat.AlarmNS + lat.HMMNS; g.bool() {
		lat.TotalNS = g.int64()
	}
	switch g.byte() % 3 {
	case 0:
		rec.Deployment = "dep-1"
	case 1:
		rec.Deployment = g.text()
	}
	rec.TraceID = g.text()
	rec.ObservableAttrs = genSlice(g, g.float)
	rec.CorrectAttrs = genSlice(g, g.float)
	rec.Sensors = genSlice(g, func() SensorDecision {
		return SensorDecision{
			Sensor: g.int(), Nearest: g.int(),
			RawAlarm: g.bool(), FilteredAlarm: g.bool(), TrackOpen: g.bool(), TrackOpened: g.bool(), TrackClosed: g.bool(),
			Symbol: g.symbol(),
		}
	})
	rec.Quarantined = genSlice(g, g.int)
	if g.bool() {
		violation := func() vecmat.OrthoViolation { return vecmat.OrthoViolation{I: g.int(), J: g.int(), Dot: g.float()} }
		rec.Evidence = &DecisionEvidence{
			Verdict:       g.verdict(),
			Confidence:    g.float(),
			RowViolations: genSlice(g, violation),
			ColViolations: genSlice(g, violation),
			Associations: genSlice(g, func() classify.Association {
				return classify.Association{Hidden: g.int(), Symbol: g.int(), Mass: g.float()}
			}),
			ActiveHidden: genSlice(g, g.int),
			Divergence: genSlice(g, func() AttributeDivergence {
				return AttributeDivergence{Hidden: g.int(), Symbol: g.int(), Delta: genSlice(g, g.float), AllDisplaced: g.bool()}
			}),
		}
	}
	return rec
}

// scribble overwrites every element rec's slices hold, as a detector
// reusing its scratch for the next window does.
func scribble(rec *DecisionRecord) {
	for _, v := range []vecmat.Vector{rec.ObservableAttrs, rec.CorrectAttrs} {
		for i := range v {
			v[i] = math.NaN()
		}
	}
	for i := range rec.Sensors {
		rec.Sensors[i] = SensorDecision{Sensor: -1, Symbol: "scribbled"}
	}
	for i := range rec.Quarantined {
		rec.Quarantined[i] = -1
	}
	if ev := rec.Evidence; ev != nil {
		for i := range ev.Divergence {
			for j := range ev.Divergence[i].Delta {
				ev.Divergence[i].Delta[j] = -1
			}
		}
		clear(ev.RowViolations)
		clear(ev.Associations)
		*ev = DecisionEvidence{Verdict: "scribbled"}
	}
}
