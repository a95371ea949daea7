package ingest

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"sensorguard/internal/gdi"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// referenceDecodeLine is DecodeLine as it was before the scanLine fast
// path: encoding/json into wireReading, then the time and frame checks. It
// is the specification FuzzDecodeLine holds DecodeLine to, so keep it as
// it is.
func referenceDecodeLine(line []byte) (Reading, error) {
	var w wireReading
	if err := json.Unmarshal(line, &w); err != nil {
		return Reading{}, fmt.Errorf("ingest: bad JSON: %w", err)
	}
	ns := w.TimeS * float64(time.Second)
	if math.IsNaN(w.TimeS) || w.TimeS < 0 || ns >= 1<<63 {
		return Reading{}, fmt.Errorf("ingest: time_s %v outside [0, %g)", w.TimeS, maxSeconds)
	}
	dep := w.Deployment
	if dep == "" {
		dep = DefaultDeployment
	}
	r := Reading{
		Deployment: dep,
		Seq:        w.Seq,
		Reading: sensor.Reading{
			Sensor: w.Sensor,
			Time:   time.Duration(w.TimeS * float64(time.Second)),
			Values: vecmat.Vector(w.Values),
		},
	}
	if err := CheckFrameReading(&r); err != nil {
		return Reading{}, err
	}
	return r, nil
}

// decodeLineSeeds are lines at the edges of the fast path: what it must
// claim, what it must leave to encoding/json, and numbers strconv and JSON
// disagree on.
var decodeLineSeeds = []string{
	`{"deployment":"gdi-field-7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.5,94.0]}`,
	`{"sensor":1,"time_s":5,"values":[1]}`,
	`{"values":[1,2,3],"time_s":5,"sensor":1,"seq":9,"deployment":"gdi"}`,
	// Whitespace, and Python's json.dumps separators.
	` { "sensor" : 1 , "time_s" : 5 , "values" : [ 1 , 2 ] } `,
	"\t{\"sensor\":1,\r\n\"time_s\":5,\"values\":[\t1\n]}\r",
	`{"deployment": "gdi", "seq": 3, "sensor": 1, "time_s": 5.0, "values": [1.5, 2.5]}`,
	// Keys encoding/json matches, merges or ignores.
	`{"Sensor":1,"time_s":5,"values":[1]}`,
	`{"SENSOR":1,"TIME_S":5,"VALUES":[1]}`,
	`{"sensor":1,"sensor":2,"time_s":5,"values":[1]}`,
	`{"sensor":1,"time_s":5,"values":[1,2],"values":[3]}`,
	`{"sensor":1,"time_s":5,"values":[1],"extra":{"a":[1,"]"]}}`,
	`{"sensor":1,"time_s":5,"values":[1]}`,
	// null fields.
	`{"deployment":null,"sensor":1,"time_s":5,"values":[1]}`,
	`{"sensor":null,"time_s":5,"values":[1]}`,
	`{"sensor":1,"time_s":5,"values":null}`,
	`{"sensor":1,"time_s":5,"values":[null]}`,
	// Escapes, non-ASCII and invalid UTF-8 in the deployment.
	`{"deployment":"a&b","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":"a\u0026b\u00e9","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":"a\"b","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":"a\\b","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":"a\/b\n","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":"déploiement","sensor":1,"time_s":5,"values":[1]}`,
	"{\"deployment\":\"a\xffb\",\"sensor\":1,\"time_s\":5,\"values\":[1]}",
	"{\"deployment\":\"a\tb\",\"sensor\":1,\"time_s\":5,\"values\":[1]}",
	"{\"deployment\":\"a\x7fb\",\"sensor\":1,\"time_s\":5,\"values\":[1]}",
	`{"deployment":"","sensor":1,"time_s":5,"values":[1]}`,
	`{"deployment":7,"sensor":1,"time_s":5,"values":[1]}`,
	// Numbers.
	`{"sensor":01,"time_s":5,"values":[1]}`,
	`{"sensor":1,"time_s":+5,"values":[1]}`,
	`{"sensor":1,"time_s":.5,"values":[1]}`,
	`{"sensor":1,"time_s":5.,"values":[1]}`,
	`{"sensor":-0,"time_s":-0,"values":[-0]}`,
	`{"sensor":1,"time_s":5,"values":[1e+21,5e-324,1.7976931348623157e+308]}`,
	`{"sensor":1,"time_s":5,"values":[1E5,-2.5e-3,0.000001]}`,
	`{"sensor":1,"time_s":5,"values":[1e400]}`,
	`{"sensor":1,"time_s":5,"values":[1e-400]}`,
	`{"sensor":1,"time_s":1e400,"values":[1]}`,
	`{"sensor":3.0,"time_s":5,"values":[1]}`,
	`{"sensor":1e2,"time_s":5,"values":[1]}`,
	`{"sensor":99999999999999999999,"time_s":5,"values":[1]}`,
	`{"seq":-1,"sensor":1,"time_s":5,"values":[1]}`,
	`{"seq":18446744073709551615,"sensor":-9223372036854775808,"time_s":5,"values":[-1]}`,
	`{"seq":18446744073709551616,"sensor":1,"time_s":5,"values":[1]}`,
	`{"sensor":1,"time_s":5,"values":[inf,NaN]}`,
	`{"sensor":1,"time_s":5,"values":[0x1p3]}`,
	`{"sensor":1,"time_s":5,"values":[1.e5,-,1e,1e+]}`,
	`{"sensor":1,"time_s":5,"values":["1"]}`,
	`{"sensor":1,"time_s":"5","values":[1]}`,
	// Structure and trailing bytes.
	`{"sensor":1,"time_s":5,"values":[1]}x`,
	`{"sensor":1,"time_s":5,"values":[1]}{}`,
	`{"sensor":1,"time_s":5,"values":[1]},`,
	`{"sensor":1,"time_s":5,"values":[1],}`,
	`{"sensor":1,"time_s":5,"values":[1,]}`,
	`{"sensor":1,"time_s":5,"values":[,1]}`,
	`{"sensor":1,"time_s":5,"values":[1 2]}`,
	`{"sensor":1,"time_s":5,"values":[[1]]}`,
	`{"sensor":1,"time_s":5,"values":[]}`,
	`{"sensor":1,"time_s":5,"values":[1]`,
	`{"sensor":1 "time_s":5}`,
	`{}`,
	`[]`,
	``,
	`null`,
}

// checkDecodeLine holds DecodeLine to referenceDecodeLine on one input: the
// same Reading (values compared bit for bit) or the same error. When the
// fast path claims the line, encoding/json must decode it to the same
// wireReading.
func checkDecodeLine(t *testing.T, line []byte) {
	t.Helper()
	got, gerr := DecodeLine(line)
	want, werr := referenceDecodeLine(line)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%q: error %v, reference error %v", line, gerr, werr)
		}
	case got.Deployment != want.Deployment || got.Seq != want.Seq || got.Sensor != want.Sensor ||
		got.Time != want.Time || !sameBits(got.Values, want.Values):
		t.Fatalf("%q: decoded %+v, reference %+v", line, got, want)
	}
	if w, ok := scanLine(line); ok {
		var ref wireReading
		if err := json.Unmarshal(line, &ref); err != nil {
			t.Fatalf("%q: fast path claimed a line encoding/json refuses: %v", line, err)
		}
		if !sameWire(w, ref) {
			t.Fatalf("%q: fast path %+v, encoding/json %+v", line, w, ref)
		}
	}
}

// scanLine is the fast path as DecodeLine runs it, with no previous line's
// deployment key to reuse.
func scanLine(p []byte) (wireReading, bool) { return scanLineReuse(p, "") }

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameWire(a, b wireReading) bool {
	return a.Deployment == b.Deployment && a.Seq == b.Seq && a.Sensor == b.Sensor &&
		math.Float64bits(a.TimeS) == math.Float64bits(b.TimeS) && sameBits(a.Values, b.Values)
}

// FuzzDecodeLine is the differential proof that the fast path changes
// nothing: for every input DecodeLine agrees with referenceDecodeLine.
func FuzzDecodeLine(f *testing.F) {
	for _, s := range decodeLineSeeds {
		f.Add([]byte(s))
	}
	for _, r := range frameReadings() {
		if line, err := EncodeLine(r); err == nil {
			f.Add(line)
		}
	}
	f.Fuzz(checkDecodeLine)
}

// fastPathReadings are readings whose EncodeLine rendering the fast path
// must claim: a GDI trace with and without pressure, and the extremes
// json.Marshal renders in exponent form or at full width.
func fastPathReadings(t *testing.T) []Reading {
	t.Helper()
	var out []Reading
	for _, pressure := range []bool{false, true} {
		cfg := gdi.DefaultGenerateConfig()
		cfg.Days = 4
		cfg.WithPressure = pressure
		tr, err := gdi.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, sr := range tr.Readings {
			r := Reading{Reading: sr}
			if i%2 == 0 {
				r.Deployment, r.Seq = "gdi-field-7", uint64(i+1)
			}
			out = append(out, r)
		}
	}
	extremes := vecmat.Vector{1e21, 5e-324, math.MaxFloat64, -math.MaxFloat64, -1e-7, 0.1, -12.345678901234567, math.Copysign(0, -1)}
	for i, v := range extremes {
		out = append(out, Reading{
			Deployment: "edge ~!#$%'()*+,-./:;=?@[]^_`{|}",
			Seq:        math.MaxUint64 - uint64(i),
			Reading: sensor.Reading{
				Sensor: -1 - i,
				Time:   time.Duration(i) * 1e5 * time.Hour,
				Values: vecmat.Vector{v, -v},
			},
		})
	}
	return out
}

// TestEncodeLineTakesFastPath pins the fast path to the canonical form: a
// drift in EncodeLine's output (or in what producers send) would otherwise
// move every line to encoding/json without failing anything.
func TestEncodeLineTakesFastPath(t *testing.T) {
	readings := fastPathReadings(t)
	if len(readings) < 20000 {
		t.Fatalf("only %d readings", len(readings))
	}
	for _, r := range readings {
		line, err := EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scanLine(line); !ok {
			t.Fatalf("fast path refused EncodeLine output %s", line)
		}
		checkDecodeLine(t, line)
	}
	python := []byte(`{"deployment": "gdi", "seq": 18446744073709551615, "sensor": -3, "time_s": 300.0, "values": [12.5, -94.0, 1e+21]}`)
	if _, ok := scanLine(python); !ok {
		t.Fatalf("fast path refused Python-separator line %s", python)
	}
	checkDecodeLine(t, python)
}
