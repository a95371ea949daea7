package ingest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// BenchmarkDecodeLine measures the wire-to-Reading cost of one NDJSON line —
// the first stage every streamed reading pays. Allocations are reported
// because decode cost is pure overhead on the ingest hot path. short values
// take Clinger's exact path; gdi is a full-precision line as GDI traffic
// carries it (json.Marshal of 17-significant-digit floats), whose values
// take Eisel–Lemire.
func BenchmarkDecodeLine(b *testing.B) {
	for _, c := range []struct{ name, line string }{
		{"short", `{"deployment":"gdi-field-7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.5,94.0]}`},
		{"gdi", `{"deployment":"gdi-field-7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.383708002381136,94.05312707452253]}`},
	} {
		b.Run(c.name, func(b *testing.B) {
			line := []byte(c.line)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeLine(line); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// discardBatches is a Consumer that accepts and forgets every reading.
type discardBatches struct{}

func (discardBatches) SubmitBatch(rs []Reading) (int, int, error) { return len(rs), 0, nil }

// decodeBatch is one shipper batch: 500 readings of full-precision (16- and
// 17-digit) values, the input both codecs' decode costs are measured on.
func decodeBatch() []Reading {
	rng := rand.New(rand.NewSource(1))
	rs := make([]Reading, 500)
	for i := range rs {
		rs[i] = Reading{
			Deployment: "gdi-field-7",
			Seq:        uint64(i + 1),
			Reading: sensor.Reading{
				Sensor: i % 10,
				Time:   time.Duration(i/10) * 5 * time.Minute,
				Values: vecmat.Vector{5 + 20*rng.Float64(), 40 + 60*rng.Float64()},
			},
		}
	}
	return rs
}

// encodeLines renders rs as NDJSON, one line per reading, newlines omitted.
func encodeLines(tb testing.TB, rs []Reading) [][]byte {
	lines := make([][]byte, len(rs))
	for i, r := range rs {
		line, err := EncodeLine(r)
		if err != nil {
			tb.Fatal(err)
		}
		lines[i] = line
	}
	return lines
}

// encodeFrame renders rs as one binary frame, the way the shipper sends a
// batch.
func encodeFrame(tb testing.TB, rs []Reading) []byte {
	frame, err := new(FrameEncoder).AppendFrame(nil, rs)
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// BenchmarkReadStreamNDJSON measures the NDJSON stream reader end to end
// short of the consumer: one decodeBatch body through ReadWireStream,
// reported per reading.
func BenchmarkReadStreamNDJSON(b *testing.B) {
	lines := encodeLines(b, decodeBatch())
	body := append(bytes.Join(lines, []byte("\n")), '\n')
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ReadWireStream(bytes.NewReader(body), discardBatches{}, StreamOptions{})
		if err != nil || st.Accepted != len(lines) {
			b.Fatalf("accepted %d of %d: %v", st.Accepted, len(lines), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(lines)), "ns/reading")
}

// BenchmarkReadStreamBinary is BenchmarkReadStreamNDJSON for the binary
// codec: a stream of decodeBatch frames through ReadWireStream, reported
// per reading. frames=1 is the shape of an HTTP POST from the shipper,
// frames=200 that of a long TCP stream or source file.
func BenchmarkReadStreamBinary(b *testing.B) {
	rs := decodeBatch()
	frame := encodeFrame(b, rs)
	for _, frames := range []int{1, 200} {
		b.Run(fmt.Sprintf("frames=%d", frames), func(b *testing.B) {
			body := bytes.Repeat(frame, frames)
			n := frames * len(rs)
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := ReadWireStream(bytes.NewReader(body), discardBatches{}, StreamOptions{})
				if err != nil || st.Accepted != n {
					b.Fatalf("accepted %d of %d: %v", st.Accepted, n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/reading")
		})
	}
}

// BenchmarkDecodeFrame measures the binary codec on the same readings as
// BenchmarkReadStreamNDJSON: one decodeBatch frame, reported per reading.
func BenchmarkDecodeFrame(b *testing.B) {
	rs := decodeBatch()
	frame := encodeFrame(b, rs)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, rejected, err := DecodeFrame(frame)
		if err != nil || rejected != 0 || len(got) != len(rs) {
			b.Fatalf("decoded %d of %d (%d rejected): %v", len(got), len(rs), rejected, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
}

// BenchmarkAppendFrame measures the frame encoder in its two uses. journal
// is one 256-reading run across 4 deployments, encoded with AppendFrame
// into a reused record buffer as the collector's journal writes it; each
// timestamp's 10 readings are one deployment's, as an event-time merge of
// GDI traces delivers them. shipper is one decodeBatch batch staged with
// Add and rendered with Frame as ingest.Shipper sends it. Both report
// ns/reading.
func BenchmarkAppendFrame(b *testing.B) {
	run := decodeBatch()[:256]
	for i := range run {
		run[i].Deployment = fmt.Sprintf("gdi-field-%d", i/10%4)
	}
	b.Run("journal", func(b *testing.B) {
		var enc FrameEncoder
		var rec []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if rec, err = enc.AppendFrame(rec[:0], run); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(run)), "ns/reading")
	})
	b.Run("shipper", func(b *testing.B) {
		batch := decodeBatch()
		var enc FrameEncoder
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			enc.Reset()
			for _, r := range batch {
				enc.Add(r)
			}
			if _, err := enc.Frame(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/reading")
	})
}

// TestBinaryDecodeCheaperThanNDJSON pins the binary codec's reason to
// exist: a shipper batch decodes for less per reading as one frame than as
// NDJSON lines. Each codec is scored by its fastest of many short batches,
// interleaved and alternating which goes first. Noise from a loaded machine
// only ever slows a batch down, so both sides reach the quiet floor and the
// minimum is the estimate it disturbs least.
func TestBinaryDecodeCheaperThanNDJSON(t *testing.T) {
	rs := decodeBatch()
	lines := encodeLines(t, rs)
	frame := encodeFrame(t, rs)
	ndjson := func() time.Duration {
		start := time.Now()
		for _, line := range lines {
			if _, err := DecodeLine(line); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	binary := func() time.Duration {
		start := time.Now()
		if _, _, err := DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	const trials = 201
	mn, mb := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < trials; i++ {
		if i%2 == 0 {
			mn = min(mn, ndjson())
			mb = min(mb, binary())
		} else {
			mb = min(mb, binary())
			mn = min(mn, ndjson())
		}
	}
	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(rs)) }
	t.Logf("decode per reading: NDJSON %.0f ns, binary %.0f ns (%.1fx)", per(mn), per(mb), per(mn)/per(mb))
	if mb >= mn {
		t.Fatalf("binary decode %.0f ns/reading is not cheaper than NDJSON %.0f ns/reading", per(mb), per(mn))
	}
}

// BenchmarkWindowerAdd measures the streaming windower's per-reading cost on
// an in-order stream (the common case): bucket append, watermark advance,
// and the periodic window emission every 12 readings.
func BenchmarkWindowerAdd(b *testing.B) {
	wd, err := NewWindower(time.Hour, 30*time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(i) * 5 * time.Minute,
			Values: vecmat.Vector{12.5, 94.0},
		}
		wd.Add(r)
	}
}
