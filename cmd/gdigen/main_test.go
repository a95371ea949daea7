package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorguard"
	"sensorguard/internal/ingest"
)

func TestRunGeneratesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-days", "2", "-sensors", "5", "-seed", "3"}, &buf, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	tr, err := sensorguard.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatalf("output not parseable: %v", err)
	}
	if got := len(tr.Sensors()); got != 5 {
		t.Errorf("sensors = %d, want 5", got)
	}
	if len(tr.Readings) < 1000 {
		t.Errorf("readings = %d, want a 2-day trace", len(tr.Readings))
	}
}

func TestRunFaultVariants(t *testing.T) {
	for _, f := range []string{"stuck", "calibration", "additive", "decay", "noise"} {
		t.Run(f, func(t *testing.T) {
			var buf bytes.Buffer
			err := run([]string{"-days", "2", "-fault", f, "-fault-start", "1h"}, &buf, io.Discard)
			if err != nil {
				t.Fatalf("run with fault %s: %v", f, err)
			}
			if buf.Len() == 0 {
				t.Error("empty output")
			}
		})
	}
	if err := run([]string{"-fault", "bogus"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("unknown fault accepted")
	}
}

func TestRunAttackVariants(t *testing.T) {
	for _, a := range []string{"creation", "deletion", "change"} {
		t.Run(a, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run([]string{"-days", "2", "-attack", a}, &buf, io.Discard); err != nil {
				t.Fatalf("run with attack %s: %v", a, err)
			}
		})
	}
	if err := run([]string{"-attack", "bogus"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("unknown attack accepted")
	}
	if err := run([]string{"-attack", "deletion", "-malicious", "a,b"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("bad malicious list accepted")
	}
}

func TestRunStuckFaultShowsInOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-days", "2", "-fault", "stuck", "-fault-sensor", "3", "-fault-start", "1h"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	// Stuck readings "15,1" must appear in the CSV rows of sensor 3.
	found := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Contains(line, ",3,15,1") {
			found = true
			break
		}
	}
	if !found {
		t.Error("stuck values not present in trace output")
	}
}

func TestRunStreamNDJSON(t *testing.T) {
	// The same generation flags must yield the same readings in both
	// encodings: -stream is a re-encoding of the trace, not a new trace.
	gen := []string{"-days", "2", "-sensors", "5", "-seed", "3", "-fault", "stuck", "-fault-start", "1h"}
	var csvBuf bytes.Buffer
	if err := run(gen, &csvBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	tr, err := sensorguard.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(append(gen, "-stream", "-deployment", "ridge"), &buf, io.Discard); err != nil {
		t.Fatalf("run -stream: %v", err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != len(tr.Readings) {
		t.Fatalf("streamed %d lines, trace has %d readings", len(lines), len(tr.Readings))
	}
	for i, line := range lines {
		r, err := sensorguard.DecodeIngestLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d undecodable: %v\n%s", i, err, line)
		}
		if r.Deployment != "ridge" {
			t.Fatalf("line %d deployment %q, want ridge", i, r.Deployment)
		}
		if r.Sensor != tr.Readings[i].Sensor || r.Time != tr.Readings[i].Time {
			t.Fatalf("line %d is %+v, want reading %+v", i, r.Reading, tr.Readings[i])
		}
	}
	if err := run([]string{"-stream", "-rate", "-2"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("negative rate accepted")
	}
}

// frameCollector gathers readings submitted by the wire reader.
type frameCollector struct {
	readings []sensorguard.IngestReading
}

func (c *frameCollector) SubmitBatch(rs []sensorguard.IngestReading) (int, int, error) {
	c.readings = append(c.readings, rs...)
	return len(rs), 0, nil
}

func TestRunStreamBinaryWire(t *testing.T) {
	// -wire=binary is a re-encoding of the same stream: decoding the frame
	// output must yield exactly the readings of the NDJSON stream.
	gen := []string{"-days", "2", "-sensors", "5", "-seed", "3", "-fault", "stuck", "-fault-start", "1h"}
	var csvBuf bytes.Buffer
	if err := run(gen, &csvBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	tr, err := sensorguard.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := run(append(gen, "-stream", "-wire", "binary", "-deployment", "ridge"), &buf, io.Discard); err != nil {
		t.Fatalf("run -stream -wire binary: %v", err)
	}
	if buf.Len() == 0 || buf.Bytes()[0] != 0xBF {
		t.Fatalf("output does not start with the frame magic byte: % x", buf.Bytes()[:min(buf.Len(), 8)])
	}
	var col frameCollector
	st, err := ingest.ReadWireStream(&buf, &col, ingest.StreamOptions{})
	if err != nil {
		t.Fatalf("frame stream undecodable: %v", err)
	}
	if st.Rejected != 0 || len(col.readings) != len(tr.Readings) {
		t.Fatalf("decoded %d readings (%d rejected), trace has %d", len(col.readings), st.Rejected, len(tr.Readings))
	}
	for i, r := range col.readings {
		if r.Deployment != "ridge" {
			t.Fatalf("reading %d deployment %q, want ridge", i, r.Deployment)
		}
		if r.Sensor != tr.Readings[i].Sensor || r.Time != tr.Readings[i].Time {
			t.Fatalf("reading %d is %+v, want %+v", i, r.Reading, tr.Readings[i])
		}
	}
}

func TestRunStreamPaced(t *testing.T) {
	// A very high rate multiplier still exercises the pacing branch without
	// slowing the test measurably.
	var buf bytes.Buffer
	if err := run([]string{"-days", "1", "-sensors", "2", "-stream", "-rate", "1e9"}, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("paced stream produced no output")
	}
}

func TestParseIDs(t *testing.T) {
	ids, err := parseIDs("0, 1,2")
	if err != nil || len(ids) != 3 || ids[2] != 2 {
		t.Errorf("parseIDs = %v, %v", ids, err)
	}
	if _, err := parseIDs("x"); err == nil {
		t.Error("bad ID accepted")
	}
}

// flakyIngest is an httptest handler that fails its first `failures`
// requests with 503 before accepting NDJSON, recording every line received
// on successful requests.
type flakyIngest struct {
	mu       sync.Mutex
	failures int
	requests int
	lines    []string
}

func (f *flakyIngest) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.requests++
	if f.requests <= f.failures {
		http.Error(w, "shard queue unavailable", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		f.lines = append(f.lines, line)
	}
	fmt.Fprintln(w, `{"accepted":0,"rejected":0,"dropped":0}`)
}

// TestRunPostRetriesTransientFailures checks the -post producer: transient
// 5xx failures are retried with the same batch until the server accepts, and
// the delivered stream carries contiguous wire sequence numbers from 1.
func TestRunPostRetriesTransientFailures(t *testing.T) {
	sink := &flakyIngest{failures: 2}
	srv := httptest.NewServer(sink)
	defer srv.Close()

	gen := []string{"-days", "1", "-sensors", "3", "-seed", "3",
		"-stream", "-post", srv.URL, "-post-batch", "100", "-post-retry", "30s"}
	if err := run(gen, io.Discard, io.Discard); err != nil {
		t.Fatalf("run -post: %v", err)
	}

	var csvBuf bytes.Buffer
	if err := run([]string{"-days", "1", "-sensors", "3", "-seed", "3"}, &csvBuf, io.Discard); err != nil {
		t.Fatal(err)
	}
	tr, err := sensorguard.ReadTraceCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.requests <= sink.failures {
		t.Fatalf("server saw %d requests, producer never got past the failures", sink.requests)
	}
	if len(sink.lines) != len(tr.Readings) {
		t.Fatalf("delivered %d lines, trace has %d readings", len(sink.lines), len(tr.Readings))
	}
	for i, line := range sink.lines {
		r, err := sensorguard.DecodeIngestLine([]byte(line))
		if err != nil {
			t.Fatalf("line %d undecodable: %v\n%s", i, err, line)
		}
		if r.Seq != uint64(i+1) {
			t.Fatalf("line %d wire seq %d, want %d", i, r.Seq, i+1)
		}
		if r.Sensor != tr.Readings[i].Sensor || r.Time != tr.Readings[i].Time {
			t.Fatalf("line %d is %+v, want reading %+v", i, r.Reading, tr.Readings[i])
		}
	}
}

// TestRunPostPermanentFailure checks that a 4xx response is not retried.
func TestRunPostPermanentFailure(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.Error(w, "bad request", http.StatusBadRequest)
	}))
	defer srv.Close()

	err := run([]string{"-days", "1", "-sensors", "2", "-stream",
		"-post", srv.URL, "-post-retry", "30s"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("4xx response did not fail the run")
	}
	if got := requests.Load(); got != 1 {
		t.Errorf("4xx was retried: %d requests", got)
	}
}

// TestRunPostExhaustsRetryBudget checks that an unreachable server fails the
// run once the retry budget lapses instead of retrying forever.
func TestRunPostExhaustsRetryBudget(t *testing.T) {
	// A listener that is closed immediately: connection refused on every try.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := srv.URL
	srv.Close()

	start := time.Now()
	err := run([]string{"-days", "1", "-sensors", "2", "-stream",
		"-post", url, "-post-retry", "300ms"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("unreachable server did not fail the run")
	}
	if !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Errorf("unexpected error: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("retry loop ran %v past a 300ms budget", elapsed)
	}
}

func TestRunPostFlagValidation(t *testing.T) {
	if err := run([]string{"-post", "http://x/ingest"}, io.Discard, io.Discard); err == nil {
		t.Error("-post without -stream accepted")
	}
	if err := run([]string{"-stream", "-post", "http://x/ingest", "-post-batch", "0"}, io.Discard, io.Discard); err == nil {
		t.Error("zero -post-batch accepted")
	}
}

// TestRunPostStampsTraceContext checks the producer-side tracing contract:
// every POST carries a valid Traceparent header, each batch gets its own
// trace ID, retries of one batch reuse that batch's trace ID, and every
// retry emits a structured NDJSON event naming it on the diagnostic stream.
func TestRunPostStampsTraceContext(t *testing.T) {
	var (
		mu       sync.Mutex
		requests int
		headers  []string
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		requests++
		headers = append(headers, r.Header.Get(sensorguard.TraceparentHeader))
		if requests == 2 { // fail the second batch once: one retry
			http.Error(w, "shard queue unavailable", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, `{"accepted":0,"rejected":0,"dropped":0}`)
	}))
	defer srv.Close()

	var diag bytes.Buffer
	gen := []string{"-days", "1", "-sensors", "3", "-seed", "3",
		"-stream", "-post", srv.URL, "-post-batch", "500", "-post-retry", "30s"}
	if err := run(gen, io.Discard, &diag); err != nil {
		t.Fatalf("run -post: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if requests < 3 {
		t.Fatalf("server saw %d requests, want at least 2 batches + 1 retry", requests)
	}
	traceIDs := map[string]bool{}
	for i, h := range headers {
		tc, ok := sensorguard.ParseTraceparent(h)
		if !ok {
			t.Fatalf("request %d Traceparent %q does not parse", i, h)
		}
		traceIDs[tc.Trace.String()] = true
	}
	// Batches 1..N each mint a trace; the retry reuses batch 2's, so the
	// distinct trace count is one less than the request count.
	if len(traceIDs) != requests-1 {
		t.Errorf("%d requests carry %d distinct trace IDs, want %d", requests, len(traceIDs), requests-1)
	}
	if headers[1] != headers[2] {
		t.Errorf("retry re-minted the trace context: %q then %q", headers[1], headers[2])
	}

	// The retry left one structured event on the diagnostic stream.
	retried, ok := sensorguard.ParseTraceparent(headers[1])
	if !ok {
		t.Fatal("failed request carried no parseable context")
	}
	var events []retryEvent
	for _, line := range strings.Split(strings.TrimRight(diag.String(), "\n"), "\n") {
		if !strings.Contains(line, "ingest_post_retry") {
			continue
		}
		var ev retryEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("retry event not JSON: %v\n%s", err, line)
		}
		events = append(events, ev)
	}
	if len(events) != 1 {
		t.Fatalf("got %d retry events, want 1:\n%s", len(events), diag.String())
	}
	ev := events[0]
	if ev.Event != "ingest_post_retry" || ev.Attempt != 1 || ev.TraceID != retried.Trace.String() {
		t.Errorf("retry event %+v does not name attempt 1 of trace %s", ev, retried.Trace.String())
	}
	if ev.BackoffMS <= 0 || ev.Err == "" {
		t.Errorf("retry event %+v missing backoff or error detail", ev)
	}
	if ev.Status != http.StatusServiceUnavailable {
		t.Errorf("retry event status = %d, want the failed attempt's %d", ev.Status, http.StatusServiceUnavailable)
	}
}

func TestValidateRejectsBadFlagCombinations(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"negative days", []string{"-days", "-1"}, "-days"},
		{"zero sensors", []string{"-sensors", "0"}, "-sensors"},
		{"loss out of range", []string{"-loss", "1.5"}, "-loss"},
		{"malform out of range", []string{"-malform", "-0.1"}, "-malform"},
		{"negative rate", []string{"-rate", "-2"}, "-rate"},
		{"rate without stream", []string{"-rate", "10"}, "-rate needs -stream"},
		{"post without stream", []string{"-post", "http://x/ingest"}, "-post needs -stream"},
		{"zero post batch", []string{"-stream", "-post", "http://x/ingest", "-post-batch", "0"}, "-post-batch"},
		{"zero post retry", []string{"-stream", "-post", "http://x/ingest", "-post-retry", "0s"}, "-post-retry"},
		{"empty deployment", []string{"-stream", "-deployment", ""}, "-deployment"},
		{"negative fault sensor", []string{"-fault", "stuck", "-fault-sensor", "-3"}, "-fault-sensor"},
		{"negative fault start", []string{"-fault", "stuck", "-fault-start", "-1h"}, "-fault-start"},
		{"unknown wire", []string{"-stream", "-wire", "bogus"}, "-wire"},
		{"binary wire without stream", []string{"-wire", "binary"}, "-wire=binary needs -stream"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard, io.Discard)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestValidateReportsEveryProblemAtOnce(t *testing.T) {
	err := run([]string{"-days", "0", "-sensors", "0", "-rate", "-1"}, io.Discard, io.Discard)
	if err == nil {
		t.Fatal("invalid flags accepted")
	}
	for _, want := range []string{"-days", "-sensors", "-rate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q is missing %q", err, want)
		}
	}
}
