package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
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
// existing contents kept, across encoder reuse with different intern tables.
func TestAppendFrame(t *testing.T) {
	var staged, appender FrameEncoder
	for round, rs := range [][]Reading{frameReadings(), frameReadings()[2:], frameReadings()[:1]} {
		for _, r := range rs {
			staged.Add(r)
		}
		want, err := staged.Frame()
		if err != nil {
			t.Fatal(err)
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
}

// TestFrameAppender: after every Append, Frame equals AppendFrame over the
// readings so far, through uniform readings, a switch to ragged dims, and
// negative sensor, seq and time deltas; and a refused reading leaves the
// frame as it was.
func TestFrameAppender(t *testing.T) {
	rs := []Reading{
		{Deployment: "d", Seq: 9, Reading: sensor.Reading{Sensor: 3, Time: 5 * time.Second, Values: vecmat.Vector{20.5, 61}}},
		{Deployment: "d", Seq: 4, Reading: sensor.Reading{Sensor: -2, Time: time.Second, Values: vecmat.Vector{-0.0, 1e300}}},
		{Deployment: "d", Seq: 1 << 63, Reading: sensor.Reading{Sensor: 7, Time: 7 * time.Hour, Values: vecmat.Vector{math.SmallestNonzeroFloat64, 2}}},
		{Deployment: "d", Reading: sensor.Reading{Sensor: 0, Time: 7 * time.Hour, Values: vecmat.Vector{1, 2, 3}}},
		{Deployment: "d", Seq: 2, Reading: sensor.Reading{Sensor: 1, Time: 8 * time.Hour, Values: vecmat.Vector{4}}},
	}
	var a FrameAppender
	var enc FrameEncoder
	for i := range rs {
		if err := a.Append(&rs[i]); err != nil {
			t.Fatal(err)
		}
		for _, bad := range []Reading{
			{Deployment: "other", Reading: sensor.Reading{Values: vecmat.Vector{1}}},
			{Deployment: "d", Reading: sensor.Reading{Values: vecmat.Vector{math.NaN()}}},
		} {
			if err := a.Append(&bad); err == nil {
				t.Fatalf("after %d readings: appended %+v", i+1, bad)
			}
		}
		want, err := enc.AppendFrame(nil, rs[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		got, err := a.Frame([]byte("head"))
		if err != nil {
			t.Fatal(err)
		}
		if a.Len() != i+1 || string(got[:4]) != "head" || !bytes.Equal(got[4:], want) {
			t.Fatalf("after %d readings: Frame differs from AppendFrame", i+1)
		}
	}
	if _, err := new(FrameAppender).Frame(nil); err == nil {
		t.Fatal("empty appender rendered a frame")
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
