package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The pool is the consumer both wire decoders feed batches to.
var _ ingest.Consumer = (*Pool)(nil)

// postBatch posts one batch over the given codec to a live /ingest and fails
// the test on any non-200.
func postWireBatch(t *testing.T, url string, readings []ingest.Reading, binary bool) {
	t.Helper()
	var body bytes.Buffer
	contentType := "application/x-ndjson"
	if binary {
		var enc ingest.FrameEncoder
		for _, r := range readings {
			enc.Add(r)
		}
		frame, err := enc.Frame()
		if err != nil {
			t.Fatal(err)
		}
		body.Write(frame)
		contentType = ingest.FrameContentType
	} else {
		for _, r := range readings {
			line, err := ingest.EncodeLine(r)
			if err != nil {
				t.Fatal(err)
			}
			body.Write(line)
			body.WriteByte('\n')
		}
	}
	resp, err := http.Post(url+"/ingest", contentType, &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("POST /ingest (%s) = %d", contentType, resp.StatusCode)
	}
}

// TestE2EMixedCodecMatchesOffline is the codec-equivalence acceptance test:
// a trace streamed through POST /ingest with batches alternating between
// NDJSON and binary frames must land every deployment in exactly the
// detector state of (a) a pure-NDJSON replay and (b) the offline batch
// pipeline — the binary codec is a wire change, not a semantic one.
func TestE2EMixedCodecMatchesOffline(t *testing.T) {
	tr := stuckTrace(t, 7)
	want := offlineReport(t, tr)

	readings := make([]ingest.Reading, len(tr.Readings))
	for i, r := range tr.Readings {
		readings[i] = ingest.Reading{Deployment: "gdi", Reading: r}
	}

	replay := func(mixed bool) core.Report {
		pool, err := New(Config{Shards: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(Handler(pool, nil))
		defer srv.Close()
		const batch = 500
		for i := 0; i < len(readings); i += batch {
			end := min(i+batch, len(readings))
			binary := mixed && (i/batch)%2 == 1
			postWireBatch(t, srv.URL, readings[i:end], binary)
		}
		pool.Drain()
		rep, err := pool.Report("gdi")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	pure := replay(false)
	mixed := replay(true)
	for name, got := range map[string]core.Report{"pure-NDJSON": pure, "mixed-codec": mixed} {
		if !reflect.DeepEqual(got, want) {
			gj, _ := got.MarshalIndentJSON()
			wj, _ := want.MarshalIndentJSON()
			t.Fatalf("%s replay differs from offline report:\n--- replay\n%s\n--- offline\n%s", name, gj, wj)
		}
	}
}

// TestSubmitBatchMatchesSubmit pins the staged submit path to the
// one-reading path: same readings, same shard routing, same final reports.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	tr := stuckTrace(t, 3)

	one, err := New(Config{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, one, "gdi", tr.Readings)
	one.Drain()
	want, err := one.Report("gdi")
	if err != nil {
		t.Fatal(err)
	}

	batched, err := New(Config{Shards: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]ingest.Reading, 0, 256)
	flush := func() {
		accepted, dropped, err := batched.SubmitBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if accepted != len(batch) || dropped != 0 {
			t.Fatalf("accepted %d dropped %d of %d", accepted, dropped, len(batch))
		}
		batch = batch[:0]
	}
	for _, r := range tr.Readings {
		batch = append(batch, ingest.Reading{Deployment: "gdi", Reading: r})
		if len(batch) == cap(batch) {
			flush()
		}
	}
	flush()
	batched.Drain()
	got, err := batched.Report("gdi")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("SubmitBatch replay diverged from Submit replay")
	}

	if _, _, err := batched.SubmitBatch(batch[:0]); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if _, _, err := batched.SubmitBatch([]ingest.Reading{{Deployment: "gdi"}}); err != ErrClosed {
		t.Fatalf("drained pool returned %v, want ErrClosed", err)
	}
}

// TestE2EBinaryDecodeNotBottleneck is the flip side of
// TestE2EDecodeBottleneckAttribution: once the pipeline is doing real work
// (a short bootstrap horizon, so readings reach window admit and detector
// steps), driving it over the binary codec must NOT attribute ingest_decode
// as the bottleneck — the whole point of the columnar frame format — while
// the decode stage clock still proves binary decode work was measured.
func TestE2EBinaryDecodeNotBottleneck(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		Shards:    1,
		Seed:      1,
		Bootstrap: time.Minute, // bootstrap fast: admit+step compete with decode
		Metrics:   reg,
		sloTick:   25 * time.Millisecond,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	srv := httptest.NewServer(Handler(p, reg))
	defer srv.Close()

	// Binary frames of 500 with event time advancing across posts, so the
	// windower keeps admitting and the detector keeps stepping.
	nextFrames := func(post int) []byte {
		var batch bytes.Buffer
		var enc ingest.FrameEncoder
		base := time.Duration(post) * 2000 * time.Second
		for i := 0; i < 2000; i++ {
			enc.Add(ingest.Reading{
				Deployment: "obs",
				Reading: sensor.Reading{
					Sensor: i % 10,
					Time:   base + time.Duration(i)*time.Second,
					Values: vecmat.Vector{12.5 + float64((post*2000+i)%97)/9.7, 94.25},
				},
			})
			if enc.Len() == 500 {
				frame, err := enc.Frame()
				if err != nil {
					t.Fatal(err)
				}
				batch.Write(frame)
				enc.Reset()
			}
		}
		return batch.Bytes()
	}

	type statusDoc struct {
		Bottleneck *Bottleneck `json:"bottleneck"`
	}
	deadline := time.Now().Add(15 * time.Second)
	var st statusDoc
	for post := 0; ; post++ {
		resp, err := http.Post(srv.URL+"/ingest", ingest.FrameContentType, bytes.NewReader(nextFrames(post)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("POST /ingest = %d", resp.StatusCode)
		}
		getJSON(t, srv.URL+"/status", &st)
		if b := st.Bottleneck; b != nil && b.Utilization > 0 && b.Stage != "idle" {
			var decodeBusy bool
			for _, su := range b.Stages {
				if su.Stage == StageDecode && su.Units > 0 && su.BusySeconds > 0 {
					decodeBusy = true
				}
			}
			// Success: decode work was measured in this attribution window
			// and some other stage is the argmax.
			if decodeBusy && b.Stage != StageDecode {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("binary-driven load still attributes decode (or never measured it); last: %+v", st.Bottleneck)
		}
	}
}
