package ingest

import (
	"bytes"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
)

// checkScanFloat holds scanFloat to what it replaced: scanNumber's grammar,
// then strconv.ParseFloat on the token. ok, the end index (wherever the
// grammar holds) and the float64 bits must all agree.
func checkScanFloat(t *testing.T, p []byte) {
	t.Helper()
	got, gend, gok := scanFloat(p, 0)
	tok, wend, grammar := scanNumber(p, 0)
	var want float64
	wok := grammar
	if grammar {
		var err error
		want, err = strconv.ParseFloat(string(tok), 64)
		wok = err == nil
		if gend != wend {
			t.Fatalf("%q: end %d, scanNumber's %d", p, gend, wend)
		}
	}
	if gok != wok {
		t.Fatalf("%q: ok %v, scanNumber+ParseFloat ok %v", p, gok, wok)
	}
	if gok && math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#x), strconv %v (%#x)", p, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// scanFloatSeeds are the numbers at the edges of each conversion path.
var scanFloatSeeds = []string{
	"0", "-0", "0.0", "-0.0e-999", "0e99999999999999999999",
	"5e-324", "2.4703282292062328e-324", "4.9406564584124654e-324",
	"2.2250738585072014e-308", "2.2250738585072011e-308",
	"1e23", "8.98846567431158e307", "1.7976931348623157e308", "1.7976931348623159e308",
	"9007199254740992", "9007199254740993", "9007199254740993.0", "9007199254740995",
	"1e22", "1e-22", "123456789012345678e-22", "4503599627370496.5", "4503599627370497.5",
	"12.383708002381136", "94.00000000000001", "86400.5", "9223372036.854775808",
	"1234567890123456789", "12345678901234567890", "0.0000000000000000000000012345",
	"1.9999999999999999", "0.99999999999999999", "1.3407807929942596e154",
	"1e64", "1e65", "1e-64", "1e-65", "9.999999999999999e64", "1E+5", "-2.5e-3",
	"01", "+5", ".5", "5.", "1e", "1e+", "-", "", "inf", "NaN", "0x1p3", "1.5x",
}

// FuzzParseFloatMatchesStrconv is the differential proof of the one-pass
// number scanner: on every input it agrees with scanNumber followed by
// strconv.ParseFloat.
func FuzzParseFloatMatchesStrconv(f *testing.F) {
	for _, s := range scanFloatSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkScanFloat)
}

// TestScanFloatSweep runs checkScanFloat over renderings of many floats:
// uniform and GDI-shaped values, random bit patterns, wide exponents, and
// 'e' renderings at every precision up to 19 digits — including those of
// points halfway between adjacent floats, which exercise Eisel–Lemire's
// rounding exits.
func TestScanFloatSweep(t *testing.T) {
	for _, s := range scanFloatSeeds {
		checkScanFloat(t, []byte(s))
	}
	rng := rand.New(rand.NewSource(29))
	var floats []float64
	for i := 0; i < 4000; i++ {
		floats = append(floats, rng.Float64(), 5+20*rng.Float64(), 40+60*rng.Float64(), -1e6*rng.Float64())
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
		floats = append(floats, rng.Float64()*math.Pow(10, float64(rng.Intn(160)-80)))
	}
	var buf []byte
	check := func(b []byte) {
		checkScanFloat(t, b)
		checkScanFloat(t, append(b, ']')) // the number ends before the delimiter
	}
	for _, f := range floats {
		for _, format := range []byte{'g', 'e', 'f'} {
			check(strconv.AppendFloat(buf[:0], f, format, -1, 64))
		}
	}
	for _, f := range floats[:2000] {
		for prec := 0; prec <= 19; prec++ {
			check(strconv.AppendFloat(buf[:0], f, 'e', prec, 64))
		}
		// The exact midpoint between f and the next float up, and its
		// 15- to 19-digit roundings.
		next := math.Nextafter(f, math.Inf(1))
		if math.IsInf(next, 0) {
			continue
		}
		mid := new(big.Float).SetPrec(2000).SetFloat64(f)
		mid.Add(mid, new(big.Float).SetPrec(2000).SetFloat64(next))
		mid.Quo(mid, big.NewFloat(2))
		for prec := 14; prec <= 18; prec++ {
			check(mid.Append(buf[:0], 'e', prec))
		}
	}
}

// TestPowersOfTenTable pins the generated table to rows of the published
// Eisel–Lemire table (also strconv's): 10^-2, 10^-1, 10^0 and 10^28.
func TestPowersOfTenTable(t *testing.T) {
	for _, c := range []struct {
		q      int
		hi, lo uint64
	}{
		{-2, 0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3},
		{-1, 0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
		{0, 0x8000000000000000, 0},
		{28, 0x813F3978F8940984, 0x4000000000000000},
	} {
		if got := powersOfTen[c.q-pow10Min]; got != [2]uint64{c.hi, c.lo} {
			t.Errorf("10^%d: {%#x, %#x}, want {%#x, %#x}", c.q, got[0], got[1], c.hi, c.lo)
		}
	}
}

// TestDecodeLineTimeBound checks the top of the time_s range: maxSeconds
// itself converts to 2^63 ns, past the largest Duration, and is refused as
// out of range, not wrapped to a negative time; the float just below it
// decodes.
func TestDecodeLineTimeBound(t *testing.T) {
	line := func(ts float64) []byte {
		return []byte(`{"sensor":1,"time_s":` + strconv.FormatFloat(ts, 'f', -1, 64) + `,"values":[1]}`)
	}
	for _, at := range [][]byte{line(maxSeconds), []byte(`{"sensor":1,"time_s":9223372036.854775808,"values":[1]}`)} {
		_, err := DecodeLine(at)
		if err == nil || !strings.Contains(err.Error(), "outside [0, 9.223372036854776e+09)") {
			t.Fatalf("%s: error %v, want the half-open time_s range", at, err)
		}
		checkDecodeLine(t, at)
	}
	below := math.Nextafter(maxSeconds, 0)
	r, err := DecodeLine(line(below))
	if err != nil {
		t.Fatal(err)
	}
	if want := time.Duration(below * float64(time.Second)); r.Time != want || r.Time <= 0 {
		t.Fatalf("time %v, want %v", r.Time, want)
	}
	checkDecodeLine(t, line(below))
}

// TestDecodeLineReusesDeploymentKey checks that a line naming the previous
// line's deployment shares its string, and that any other key is its own.
func TestDecodeLineReusesDeploymentKey(t *testing.T) {
	line := []byte(`{"deployment":"gdi-field-7","sensor":1,"time_s":5,"values":[1]}`)
	prev := strings.Clone("gdi-field-7")
	r, err := decodeLine(line, prev)
	if err != nil {
		t.Fatal(err)
	}
	if unsafe.StringData(r.Deployment) != unsafe.StringData(prev) {
		t.Fatal("same deployment key was copied, not reused")
	}
	for _, other := range []string{"", "gdi-field-8", "gdi-field-77"} {
		r, err := decodeLine(line, other)
		if err != nil || r.Deployment != "gdi-field-7" {
			t.Fatalf("prev %q: deployment %q, %v", other, r.Deployment, err)
		}
	}
}

// TestReadStreamNDJSONAllocs pins the NDJSON stream's allocations: a body
// of lines from one deployment allocates each line's Values array and a
// small constant, so no per-line copy of the deployment key (or anything
// else per line) can come back unnoticed.
func TestReadStreamNDJSONAllocs(t *testing.T) {
	lines := encodeLines(t, decodeBatch())
	body := append(bytes.Join(lines, []byte("\n")), '\n')
	allocs := testing.AllocsPerRun(20, func() {
		st, err := ReadWireStream(bytes.NewReader(body), discardBatches{}, StreamOptions{})
		if err != nil || st.Accepted != len(lines) {
			t.Fatalf("accepted %d of %d: %v", st.Accepted, len(lines), err)
		}
	})
	if limit := float64(len(lines) + 8); allocs > limit {
		t.Fatalf("%v allocations for %d lines, want at most %v", allocs, len(lines), limit)
	}
}
