package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The pool is the consumer both wire decoders feed batches to.
var _ ingest.Consumer = (*Pool)(nil)

// TestE2EMixedCodecMatchesOffline is the codec-equivalence acceptance test:
// a trace streamed through POST /ingest, as pure NDJSON and with batches
// alternating between NDJSON and binary frames, must land every deployment
// in exactly the detector state of the offline batch pipeline — the binary
// codec is a wire change, not a semantic one. Both are differential harness
// cells.
func TestE2EMixedCodecMatchesOffline(t *testing.T) {
	st := newStream(t, tagged(stuckTrace(t, 7).Readings, "gdi", false))
	for _, path := range []ingestPath{viaNDJSON, viaMixed} {
		t.Run(pathNames[path], func(t *testing.T) { cell{path: path, shards: 3}.run(t, st) })
	}
}

// TestSubmitBatchMatchesSubmit pins the staged submit path to the
// one-reading path: both harness cells give the offline reports. A drained
// pool still takes an empty batch and refuses any other with ErrClosed.
func TestSubmitBatchMatchesSubmit(t *testing.T) {
	st := newStream(t, tagged(stuckTrace(t, 3).Readings, "gdi", false))
	cell{path: viaSubmit, shards: 4}.run(t, st)
	batched := cell{path: viaBatch, shards: 4, batch: 256}.run(t, st)

	if _, _, err := batched.SubmitBatch([]ingest.Reading{}); err != nil {
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
