package ingest

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// BenchmarkDecodeLine measures the wire-to-Reading cost of one NDJSON line —
// the first stage every streamed reading pays. Allocations are reported
// because decode cost is pure overhead on the ingest hot path.
func BenchmarkDecodeLine(b *testing.B) {
	line := []byte(`{"deployment":"gdi-field-7","seq":12345,"sensor":3,"time_s":86400.5,"values":[12.5,94.0]}`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// discardBatches is a BatchConsumer that accepts and forgets every reading.
type discardBatches struct{}

func (discardBatches) Submit(Reading) error                       { return nil }
func (discardBatches) SubmitBatch(rs []Reading) (int, int, error) { return len(rs), 0, nil }

// BenchmarkReadStreamNDJSON measures the NDJSON stream reader end to end
// short of the consumer: one 500-line body of full-precision (16- and
// 17-digit) values through ReadStreamOpts, reported per reading.
func BenchmarkReadStreamNDJSON(b *testing.B) {
	const lines = 500
	rng := rand.New(rand.NewSource(1))
	var body bytes.Buffer
	for i := 0; i < lines; i++ {
		line, err := EncodeLine(Reading{
			Deployment: "gdi-field-7",
			Seq:        uint64(i + 1),
			Reading: sensor.Reading{
				Sensor: i % 10,
				Time:   time.Duration(i/10) * 5 * time.Minute,
				Values: vecmat.Vector{5 + 20*rng.Float64(), 40 + 60*rng.Float64()},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
	}
	b.SetBytes(int64(body.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ReadStreamOpts(bytes.NewReader(body.Bytes()), discardBatches{}, StreamOptions{})
		if err != nil || st.Accepted != lines {
			b.Fatalf("accepted %d of %d: %v", st.Accepted, lines, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*lines), "ns/reading")
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
