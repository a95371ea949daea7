package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func frameReadings() []Reading {
	return []Reading{
		{Deployment: "gdi", Seq: 10, Reading: sensor.Reading{Sensor: 3, Time: 300 * time.Second, Values: vecmat.Vector{12.5, 94.0}}},
		{Deployment: "gdi", Seq: 11, Reading: sensor.Reading{Sensor: 4, Time: 301 * time.Second, Values: vecmat.Vector{13.5, 93.0}}},
		{Deployment: "lab", Seq: 7, Reading: sensor.Reading{Sensor: 0, Time: 90 * time.Second, Values: vecmat.Vector{-2.25, 41.0}}},
		{Deployment: "gdi", Seq: 12, Reading: sensor.Reading{Sensor: 5, Time: 299 * time.Second, Values: vecmat.Vector{0, 0}}},
	}
}

// readingEqual reports semantic equality of two readings (used by the fuzz
// round-trip; NaN-free by construction since CheckFrameReading already ran).
func readingEqual(a, b Reading) bool {
	if a.Deployment != b.Deployment || a.Seq != b.Seq || a.Sensor != b.Sensor || a.Time != b.Time {
		return false
	}
	if len(a.Values) != len(b.Values) {
		return false
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return false
		}
	}
	return true
}

func assertRoundTrip(t *testing.T, in []Reading) {
	t.Helper()
	frame, err := EncodeFrame(in)
	if err != nil {
		t.Fatal(err)
	}
	got, rejected, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 0 {
		t.Fatalf("rejected %d readings of a valid frame", rejected)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d readings, want %d", len(got), len(in))
	}
	for i := range in {
		want := in[i]
		if want.Deployment == "" {
			want.Deployment = DefaultDeployment
		}
		want.Trace = got[i].Trace // trace never rides the wire
		if !readingEqual(got[i], want) {
			t.Fatalf("reading %d: got %+v, want %+v", i, got[i], want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	assertRoundTrip(t, frameReadings())
}

func TestFrameRoundTripRaggedDims(t *testing.T) {
	assertRoundTrip(t, []Reading{
		{Deployment: "a", Reading: sensor.Reading{Sensor: 1, Time: time.Second, Values: vecmat.Vector{1}}},
		{Deployment: "a", Reading: sensor.Reading{Sensor: 2, Time: 2 * time.Second, Values: vecmat.Vector{1, 2, 3}}},
		{Deployment: "b", Reading: sensor.Reading{Sensor: 3, Time: 3 * time.Second, Values: vecmat.Vector{4, 5}}},
	})
}

func TestFrameRoundTripEdgeValues(t *testing.T) {
	assertRoundTrip(t, []Reading{
		// Seq deltas that wrap the int64 range, an empty deployment (decodes
		// as the default), negative sensor id, out-of-order timestamps.
		{Deployment: "", Seq: math.MaxUint64, Reading: sensor.Reading{Sensor: -9, Time: 0, Values: vecmat.Vector{math.MaxFloat64}}},
		{Deployment: "", Seq: 1, Reading: sensor.Reading{Sensor: 0, Time: time.Duration(math.MaxInt64), Values: vecmat.Vector{-math.MaxFloat64}}},
		{Deployment: "x", Seq: 0, Reading: sensor.Reading{Sensor: 1 << 30, Time: time.Nanosecond, Values: vecmat.Vector{math.SmallestNonzeroFloat64}}},
	})
}

func TestFrameSingleReading(t *testing.T) {
	assertRoundTrip(t, frameReadings()[:1])
}

func TestEncodeFrameRejectsEmpty(t *testing.T) {
	if _, err := EncodeFrame(nil); err == nil {
		t.Fatal("empty frame encoded")
	}
	if _, err := EncodeFrame([]Reading{{Deployment: "a"}}); err == nil {
		t.Fatal("reading without values encoded")
	}
}

func TestFrameEncoderReuse(t *testing.T) {
	var enc FrameEncoder
	for round := 0; round < 3; round++ {
		for _, r := range frameReadings() {
			enc.Add(r)
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeFrame(append([]byte(nil), frame...))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(frameReadings()) {
			t.Fatalf("round %d: %d readings", round, len(got))
		}
		enc.Reset()
	}
}

// TestAppendFrame pins AppendFrame to Frame's bytes, with the destination's
// existing contents kept, across encoder reuse with different intern tables;
// and a reading Add refuses leaves the frame as it was.
func TestAppendFrame(t *testing.T) {
	var staged, appender FrameEncoder
	for round, rs := range [][]Reading{frameReadings(), frameReadings()[2:], frameReadings()[:1]} {
		for _, r := range rs {
			if err := staged.Add(r); err != nil {
				t.Fatal(err)
			}
		}
		want, err := staged.Frame()
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Reading{
			{Deployment: "other"},
			{Deployment: strings.Repeat("k", maxDeploymentLen+1), Reading: sensor.Reading{Values: vecmat.Vector{1}}},
		} {
			if err := staged.Add(bad); err == nil {
				t.Fatalf("round %d: added %.20q with %d values", round, bad.Deployment, len(bad.Values))
			}
		}
		if again, err := staged.Frame(); err != nil || staged.Len() != len(rs) || !bytes.Equal(again, want) {
			t.Fatalf("round %d: a refused reading changed the frame", round)
		}
		staged.Reset()
		prefix := []byte("head")
		got, err := appender.AppendFrame(prefix, rs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("round %d: AppendFrame differs from Frame", round)
		}
	}
	if got, err := appender.AppendFrame([]byte("x"), nil); err == nil || string(got) != "x" {
		t.Fatalf("empty run: %q, %v; want the destination back and an error", got, err)
	}
	if _, err := new(FrameEncoder).Frame(); err == nil {
		t.Fatal("empty encoder rendered a frame")
	}
}

// TestCheckFrameReading: every reading CheckFrameReading passes survives a
// frame round trip, and every one it refuses would not.
func TestCheckFrameReading(t *testing.T) {
	ok := frameReadings()[0]
	if err := CheckFrameReading(&ok); err != nil {
		t.Fatal(err)
	}
	bad := map[string]Reading{
		"nan":           {Deployment: "d", Reading: sensor.Reading{Values: vecmat.Vector{math.NaN()}}},
		"inf":           {Deployment: "d", Reading: sensor.Reading{Values: vecmat.Vector{1, math.Inf(1)}}},
		"no-values":     {Deployment: "d"},
		"negative-time": {Deployment: "d", Reading: sensor.Reading{Time: -1, Values: vecmat.Vector{1}}},
		"too-many":      {Deployment: "d", Reading: sensor.Reading{Values: make(vecmat.Vector, maxFrameDim+1)}},
		"oversize-key":  {Deployment: strings.Repeat("k", maxDeploymentLen+1), Reading: sensor.Reading{Values: vecmat.Vector{1}}},
	}
	for name, r := range bad {
		if CheckFrameReading(&r) == nil {
			t.Errorf("%s: accepted", name)
		}
		frame, err := EncodeFrame([]Reading{ok, r})
		if err != nil {
			continue // the encoder refuses it outright
		}
		got, rejected, err := DecodeFrame(frame)
		if err == nil && rejected == 0 && len(got) == 2 {
			t.Errorf("%s: survived a frame round trip", name)
		}
	}
}

func TestDecodeFrameRejectsInvalidReadings(t *testing.T) {
	// NaN values and negative times are semantic faults: skipped and
	// counted, not fatal — the frame's healthy readings survive.
	rs := frameReadings()
	rs[1].Values = vecmat.Vector{math.NaN(), 1}
	rs[2].Time = -time.Second
	frame, err := EncodeFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	got, rejected, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 2 || len(got) != 2 {
		t.Fatalf("got %d readings, %d rejected; want 2 and 2", len(got), rejected)
	}
}

func TestDecodeFrameCorruption(t *testing.T) {
	frame, err := EncodeFrame(frameReadings())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   string
	}{
		{"bad magic", func(f []byte) []byte { f[0] = 'x'; return f }, "magic"},
		{"bad version", func(f []byte) []byte { f[1] = 0x7F; return f }, "version"},
		{"truncated header", func(f []byte) []byte { return f[:3] }, "truncated"},
		{"truncated body", func(f []byte) []byte { return f[:len(f)-5] }, "bytes"},
		{"trailing garbage", func(f []byte) []byte { return append(f, 0xAA) }, "bytes"},
		{"flipped payload bit", func(f []byte) []byte { f[frameHeaderLen] ^= 0x40; return f }, "CRC"},
		{"flipped crc bit", func(f []byte) []byte { f[len(f)-1] ^= 0x01; return f }, "CRC"},
		{"oversized length prefix", func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[2:6], MaxFramePayload+1)
			return f
		}, "exceeds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), frame...))
			_, _, err := DecodeFrame(mutated)
			if err == nil {
				t.Fatal("corrupt frame decoded")
			}
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("error %T is not *FrameError: %v", err, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeFrameCRCValidButMalformed rebuilds a structurally broken payload
// with a correct CRC: the checksum must not launder a malformed frame.
func TestDecodeFrameCRCValidButMalformed(t *testing.T) {
	payload := []byte{0x00} // deployment table size 0: structurally invalid
	frame := make([]byte, 0, frameHeaderLen+len(payload)+frameTrailerLen)
	frame = append(frame, FrameMagic, FrameVersion)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, _, err := DecodeFrame(frame); err == nil {
		t.Fatal("malformed payload decoded")
	}
}

// FuzzFrameDecode feeds arbitrary bytes to the frame decoder (it must never
// panic or over-allocate) and, when the input happens to decode, re-encodes
// the surviving readings and decodes again: the second trip must be
// lossless.
func FuzzFrameDecode(f *testing.F) {
	if frame, err := EncodeFrame(frameReadings()); err == nil {
		f.Add(frame)
		f.Add(frame[:len(frame)-2])
		mutated := append([]byte(nil), frame...)
		mutated[frameHeaderLen+3] ^= 0xFF
		f.Add(mutated)
	}
	f.Add([]byte{FrameMagic, FrameVersion, 0, 0, 0, 0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		readings, rejected, err := DecodeFrame(data)
		if err != nil {
			if len(readings) != 0 || rejected != 0 {
				t.Fatalf("error with partial results: %d readings, %d rejected", len(readings), rejected)
			}
			return
		}
		if len(readings) == 0 {
			return // every reading was semantically rejected
		}
		frame, err := EncodeFrame(readings)
		if err != nil {
			t.Fatalf("re-encode of decoded readings failed: %v", err)
		}
		again, rej2, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rej2 != 0 || len(again) != len(readings) {
			t.Fatalf("round trip lost readings: %d -> %d (%d rejected)", len(readings), len(again), rej2)
		}
		for i := range readings {
			if !readingEqual(readings[i], again[i]) {
				t.Fatalf("reading %d changed across round trip:\n%+v\n%+v", i, readings[i], again[i])
			}
		}
	})
}

func TestFrameSmallerThanNDJSON(t *testing.T) {
	// The point of the codec: a batch of realistic readings must be
	// substantially smaller than its NDJSON rendering.
	var nd bytes.Buffer
	var rs []Reading
	for i := 0; i < 500; i++ {
		r := Reading{
			Deployment: "gdi",
			Seq:        uint64(i + 1),
			Reading: sensor.Reading{
				Sensor: i % 10,
				Time:   time.Duration(i) * 30 * time.Second,
				Values: vecmat.Vector{12.5 + float64(i%7)/3, 94.0 - float64(i%11)/2},
			},
		}
		rs = append(rs, r)
		line, err := EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		nd.Write(line)
		nd.WriteByte('\n')
	}
	frame, err := EncodeFrame(rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame)*2 > nd.Len() {
		t.Fatalf("frame %d bytes vs NDJSON %d: expected at least 2x smaller", len(frame), nd.Len())
	}
}

// referenceAppendFrame is the slice-based frame encoder FrameEncoder
// replaced: it interns deployments and picks the uniform or ragged layout
// in one pass over rs, then writes each column in turn. It is the
// byte-for-byte reference for FuzzFrameEncoderMatchesReference.
func referenceAppendFrame(dst []byte, rs []Reading) ([]byte, error) {
	if len(rs) == 0 {
		return dst, errors.New("ingest: empty frame")
	}
	depIdx := map[string]int{}
	var deps []string
	var rowDep []int
	dim := len(rs[0].Values)
	for i := range rs {
		r := &rs[i]
		if len(r.Values) == 0 {
			return dst, errors.New("ingest: reading needs at least one value")
		}
		if len(r.Values) != dim {
			dim = 0 // ragged
		}
		idx, ok := depIdx[r.Deployment]
		if !ok {
			if len(r.Deployment) > maxDeploymentLen {
				return dst, fmt.Errorf("ingest: deployment key %d bytes long (max %d)", len(r.Deployment), maxDeploymentLen)
			}
			idx = len(deps)
			depIdx[r.Deployment] = idx
			deps = append(deps, r.Deployment)
		}
		rowDep = append(rowDep, idx)
	}

	start := len(dst)
	p := append(dst, make([]byte, frameHeaderLen)...)
	p = binary.AppendUvarint(p, uint64(len(deps)))
	for _, d := range deps {
		p = binary.AppendUvarint(p, uint64(len(d)))
		p = append(p, d...)
	}
	p = binary.AppendUvarint(p, uint64(len(rs)))
	p = binary.AppendUvarint(p, uint64(dim))
	if dim == 0 {
		for i := range rs {
			p = binary.AppendUvarint(p, uint64(len(rs[i].Values)))
		}
	}
	for _, d := range rowDep {
		p = binary.AppendUvarint(p, uint64(d))
	}
	for i := range rs {
		p = binary.AppendUvarint(p, zigzag(int64(rs[i].Sensor)))
	}
	var prevSeq uint64
	for i := range rs {
		p = binary.AppendUvarint(p, zigzag(int64(rs[i].Seq-prevSeq)))
		prevSeq = rs[i].Seq
	}
	var prevNS int64
	for i := range rs {
		ns := int64(rs[i].Time)
		p = binary.AppendUvarint(p, zigzag(ns-prevNS))
		prevNS = ns
	}
	if dim > 0 {
		for a := 0; a < dim; a++ {
			for i := range rs {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(rs[i].Values[a]))
			}
		}
	} else {
		for i := range rs {
			for _, v := range rs[i].Values {
				p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
			}
		}
	}

	payload := p[start+frameHeaderLen:]
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("ingest: frame payload %d bytes (max %d)", len(payload), MaxFramePayload)
	}
	p[start] = FrameMagic
	p[start+1] = FrameVersion
	binary.LittleEndian.PutUint32(p[start+2:start+6], uint32(len(payload)))
	return binary.LittleEndian.AppendUint32(p, crc32.ChecksumIEEE(payload)), nil
}

// fuzzFrameReading is one reading of a FuzzFrameEncoderMatchesReference
// program: dep picks the deployment key (0 ⇒ "", 255 ⇒ one over
// maxDeploymentLen, else "d<dep>"); shape's low three bits count the
// values (0 ⇒ a reading Add refuses) and its top bit starts a new frame
// on the reused encoders; sensor, seq and time are signed steps from the
// previous reading (seq's top two bits shift its step by 0, 20, 40 or 60
// bits); each value byte repeats into a float64's eight bytes.
func fuzzFrameReading(dep, shape, sensor, seq, tm byte, vals ...byte) []byte {
	return append([]byte{dep, shape, sensor, seq, tm}, vals...)
}

// FuzzFrameEncoderMatchesReference holds FrameEncoder to
// referenceAppendFrame byte for byte: Frame after every Add, accepted or
// refused, and AppendFrame over each frame's readings, on encoders reused
// across Reset with another dim and deployment set. Add must refuse
// exactly the readings the reference refuses, with its message.
func FuzzFrameEncoderMatchesReference(f *testing.F) {
	seed := func(rs ...[]byte) []byte { return bytes.Join(rs, nil) }
	// Interleaved and empty deployment keys, negative steps.
	f.Add(seed(
		fuzzFrameReading(1, 2, 3, 1, 10, 7, 8),
		fuzzFrameReading(0, 2, 0xFE, 0xF0, 0xF6, 9, 10),
		fuzzFrameReading(2, 2, 5, 3, 1, 11, 12),
		fuzzFrameReading(1, 2, 0x80, 0x80, 0x80, 0xFF, 0),
		fuzzFrameReading(0, 2, 1, 1, 1, 1, 2),
	))
	// A switch to ragged mid-frame, then a wider uniform frame and a
	// second two-deployment frame on the reused encoders: stale ragged or
	// deployment columns would show.
	f.Add(seed(
		fuzzFrameReading(1, 2, 1, 1, 1, 1, 2),
		fuzzFrameReading(1, 2, 2, 1, 1, 3, 4),
		fuzzFrameReading(1, 3, 3, 1, 1, 5, 6, 7),
		fuzzFrameReading(2, 1, 4, 1, 1, 8),
		fuzzFrameReading(3, 0x84, 1, 1, 1, 9, 10, 11, 12),
		fuzzFrameReading(3, 4, 2, 1, 1, 13, 14, 15, 16),
		fuzzFrameReading(0, 0x81, 1, 1, 1, 17),
		fuzzFrameReading(1, 1, 1, 1, 1, 18),
	))
	// Refused readings: no values, an oversize key, mid-frame and first.
	f.Add(seed(
		fuzzFrameReading(1, 0, 1, 1, 1),
		fuzzFrameReading(255, 1, 1, 1, 1, 2),
		fuzzFrameReading(1, 1, 1, 1, 1, 3),
		fuzzFrameReading(255, 1, 1, 1, 1, 4),
		fuzzFrameReading(2, 0, 1, 1, 1),
		fuzzFrameReading(2, 1, 1, 1, 1, 5),
	))
	// Over 127 deployments: two-byte deployment indices.
	var many [][]byte
	for d := 1; d <= 130; d++ {
		many = append(many, fuzzFrameReading(byte(d), 1, byte(d), 1, 1, byte(d)))
	}
	f.Add(seed(many...))
	f.Add([]byte{})

	oversize := strings.Repeat("k", maxDeploymentLen+1)
	f.Fuzz(func(t *testing.T, data []byte) {
		var inc, whole FrameEncoder
		var frame, accepted []Reading
		var r Reading
		check := func() {
			want, werr := referenceAppendFrame([]byte("head"), frame)
			got, err := whole.AppendFrame([]byte("head"), frame)
			if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(got, want) {
				t.Fatalf("AppendFrame of %d readings: %v, want %v; bytes equal %v", len(frame), err, werr, bytes.Equal(got, want))
			}
		}
		for len(data) >= 5 {
			dep, shape, sensorStep, seqStep, timeStep := data[0], data[1], int8(data[2]), data[3], int8(data[4])
			data = data[5:]
			if shape&0x80 != 0 {
				check()
				inc.Reset()
				frame, accepted = frame[:0], accepted[:0]
			}
			switch dep {
			case 0:
				r.Deployment = ""
			case 255:
				r.Deployment = oversize
			default:
				r.Deployment = fmt.Sprintf("d%d", dep)
			}
			r.Sensor += int(sensorStep) * 1000
			r.Seq += uint64(int8(seqStep)) << (seqStep >> 6 * 20) // steps up to ±2^67, wrapping
			r.Time += time.Duration(timeStep) * time.Second
			n := min(int(shape&7), len(data))
			r.Values = make(vecmat.Vector, n)
			for j := range r.Values {
				r.Values[j] = math.Float64frombits(uint64(data[j]) * 0x0101010101010101)
			}
			data = data[n:]

			frame = append(frame, r)
			_, werr := referenceAppendFrame(nil, append(accepted, r))
			err := inc.Add(r)
			if fmt.Sprint(err) != fmt.Sprint(werr) {
				t.Fatalf("Add of %.20q with %d values: %v, reference %v", r.Deployment, n, err, werr)
			}
			if err == nil {
				accepted = append(accepted, r)
			}
			want, werr := referenceAppendFrame(nil, accepted)
			got, err := inc.Frame()
			if fmt.Sprint(err) != fmt.Sprint(werr) || !bytes.Equal(got, want) || inc.Len() != len(accepted) {
				t.Fatalf("Frame after %d readings (%d accepted, Len %d): %v, want %v; bytes equal: %v",
					len(frame), len(accepted), inc.Len(), err, werr, bytes.Equal(got, want))
			}
		}
		check()
	})
}
