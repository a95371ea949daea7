package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
)

// ndjson renders a trace as the POST /ingest wire format.
func ndjson(t *testing.T, deployment string, readings []ingest.Reading) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range readings {
		r.Deployment = deployment
		line, err := ingest.EncodeLine(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func TestHTTPSurface(t *testing.T) {
	tr := stuckTrace(t, 2)
	readings := make([]ingest.Reading, len(tr.Readings))
	for i, r := range tr.Readings {
		readings[i] = ingest.Reading{Reading: r}
	}

	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 2, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler(pool, reg))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// Stream the whole trace in, plus a second deployment that stays inside
	// its bootstrap horizon.
	resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson",
		bytes.NewReader(ndjson(t, "gdi", readings)))
	if err != nil {
		t.Fatal(err)
	}
	var st ingest.StreamStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Accepted != len(readings) || st.Rejected != 0 || st.Dropped != 0 {
		t.Fatalf("ingest stats %+v, want %d accepted", st, len(readings))
	}
	if _, err := http.Post(srv.URL+"/ingest", "application/x-ndjson",
		bytes.NewReader(ndjson(t, "young", readings[:5]))); err != nil {
		t.Fatal(err)
	}

	if code, body := get("/report/nope"); code != http.StatusNotFound {
		t.Errorf("report for unknown deployment: %d %s", code, body)
	}

	// The young deployment is still buffering: 503 until it bootstraps.
	// Poll for the worker to register it first.
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, _ := get("/report/young")
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("report for bootstrapping deployment: %d, want 503", code)
		}
		time.Sleep(time.Millisecond)
	}

	pool.Drain() // bootstraps stragglers and flushes windows

	code, body := get("/report/gdi")
	if code != http.StatusOK {
		t.Fatalf("report: %d %s", code, body)
	}
	if !strings.Contains(body, `"network"`) || !strings.Contains(body, `"detected"`) {
		t.Errorf("report body missing diagnosis fields:\n%s", firstLines(body, 10))
	}

	code, body = get("/status/gdi")
	if code != http.StatusOK || !strings.Contains(body, `"bootstrapped": true`) {
		t.Errorf("status: %d %s", code, body)
	}

	code, body = get("/deployments")
	if code != http.StatusOK {
		t.Fatalf("deployments: %d", code)
	}
	var deps []string
	if err := json.Unmarshal([]byte(body), &deps); err != nil {
		t.Fatal(err)
	}
	if len(deps) != 2 || deps[0] != "gdi" || deps[1] != "young" {
		t.Errorf("deployments %v, want [gdi young]", deps)
	}

	code, body = get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "fleet_shard0_queue_depth") {
		t.Errorf("metrics endpoint missing fleet gauges: %d\n%s", code, firstLines(body, 20))
	}

	// Ingest after drain is a fatal consumer error → 503.
	resp, err = http.Post(srv.URL+"/ingest", "application/x-ndjson",
		bytes.NewReader(ndjson(t, "gdi", readings[:1])))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("ingest after drain: %d, want 503", resp.StatusCode)
	}
}

func TestTCPIngest(t *testing.T) {
	tr := stuckTrace(t, 2)
	readings := make([]ingest.Reading, len(tr.Readings))
	for i, r := range tr.Readings {
		readings[i] = ingest.Reading{Reading: r}
	}
	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 2, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ingest.ServeTCP(ln, pool, ingest.DefaultTCPIdleTimeout, ingest.StreamOptions{})

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ndjson(t, "tcp-dep", readings)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	// Close severs live connections, so wait for the server-side reader to
	// consume the whole stream before shutting it down.
	accepted := reg.Counter("fleet_readings_total", "")
	deadline := time.Now().Add(10 * time.Second)
	for accepted.Value() < uint64(len(readings)) {
		if time.Now().After(deadline) {
			t.Fatalf("TCP stream stalled: %d of %d readings accepted", accepted.Value(), len(readings))
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	pool.Drain()
	rep, err := pool.Report("tcp-dep")
	if err != nil {
		t.Fatal(err)
	}
	want := offlineReport(t, tr)
	if rep.Overall() != want.Overall() {
		t.Errorf("TCP-streamed overall %v, want %v", rep.Overall(), want.Overall())
	}
}
