package sensorguard_test

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorguard"
)

// decodeUnits is the ingest_decode stage's units counter.
const decodeUnits = `fleet_stage_units_total{stage="ingest_decode"}`

// wireBody renders n readings in one wire codec: NDJSON lines, or binary
// frames of up to 250 readings each.
func wireBody(t *testing.T, n int, binary bool) []byte {
	t.Helper()
	rs := make([]sensorguard.IngestReading, n)
	for i := range rs {
		rs[i] = sensorguard.IngestReading{
			Deployment: "attr",
			Reading: sensorguard.Reading{
				Sensor: i % 10,
				Time:   time.Duration(i) * time.Second,
				Values: sensorguard.Vector{12.5 + float64(i%7), 94.25},
			},
		}
	}
	var body bytes.Buffer
	for len(rs) > 0 {
		if binary {
			k := min(len(rs), 250)
			frame, err := sensorguard.EncodeIngestFrame(rs[:k])
			if err != nil {
				t.Fatal(err)
			}
			body.Write(frame)
			rs = rs[k:]
			continue
		}
		line, err := sensorguard.EncodeIngestLine(rs[0])
		if err != nil {
			t.Fatal(err)
		}
		body.Write(line)
		body.WriteByte('\n')
		rs = rs[1:]
	}
	return body.Bytes()
}

// deliverFunc sends body over one transport into p and returns how many
// readings the transport reports accepted.
type deliverFunc func(t *testing.T, p *sensorguard.Fleet, reg *sensorguard.MetricsRegistry, body []byte, contentType string) int

// TestDecodeAttributionEveryTransport: whichever transport and codec a
// stream arrives over, the fleet-wired entry point accepts every reading and
// counts each one decoded on the ingest_decode stage clock, so /status
// bottleneck attribution sees all ingest paths alike.
func TestDecodeAttributionEveryTransport(t *testing.T) {
	const n = 1000
	transports := map[string]deliverFunc{
		"http": func(t *testing.T, p *sensorguard.Fleet, reg *sensorguard.MetricsRegistry, body []byte, contentType string) int {
			srv := httptest.NewServer(sensorguard.FleetHandler(p, reg))
			defer srv.Close()
			resp, err := http.Post(srv.URL+"/ingest", contentType, bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st sensorguard.IngestStats
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("POST /ingest = %d (%v)", resp.StatusCode, err)
			}
			return st.Accepted
		},
		"tcp": func(t *testing.T, p *sensorguard.Fleet, reg *sensorguard.MetricsRegistry, body []byte, _ string) int {
			srv, err := sensorguard.ServeIngestTCP("127.0.0.1:0", p)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(body); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			// Close severs live connections: wait until the server-side
			// reader has decoded the whole stream first.
			accepted := reg.Counter("fleet_readings_total", "")
			units := reg.Counter(decodeUnits, "")
			deadline := time.Now().Add(10 * time.Second)
			for accepted.Value() < n || units.Value() < n {
				if time.Now().After(deadline) {
					t.Fatalf("TCP stream stalled: %d accepted, %d decoded, want %d", accepted.Value(), units.Value(), n)
				}
				time.Sleep(5 * time.Millisecond)
			}
			return int(accepted.Value())
		},
		"source": func(t *testing.T, p *sensorguard.Fleet, _ *sensorguard.MetricsRegistry, body []byte, _ string) int {
			st, err := sensorguard.ReadIngestWire(bytes.NewReader(body), p)
			if err != nil {
				t.Fatal(err)
			}
			return st.Accepted
		},
	}
	for _, transport := range []string{"http", "tcp", "source"} {
		for _, binary := range []bool{false, true} {
			codec, contentType := "ndjson", "application/x-ndjson"
			if binary {
				codec, contentType = "binary", sensorguard.IngestFrameContentType
			}
			t.Run(transport+"/"+codec, func(t *testing.T) {
				reg := sensorguard.NewMetricsRegistry()
				p, err := sensorguard.NewFleet(sensorguard.FleetConfig{
					Shards:    1,
					Seed:      1,
					Bootstrap: 1000 * time.Hour, // never bootstraps: ingest only
					Metrics:   reg,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Drain()
				units := reg.Counter(decodeUnits, "")
				before := units.Value()
				if got := transports[transport](t, p, reg, wireBody(t, n, binary), contentType); got != n {
					t.Fatalf("accepted %d readings, want %d", got, n)
				}
				if got := units.Value() - before; got != n {
					t.Fatalf("%s rose by %d, want %d", decodeUnits, got, n)
				}
			})
		}
	}
}
