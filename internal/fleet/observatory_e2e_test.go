package fleet

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/profiles"
	"sensorguard/internal/obs/tsdb"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// TestE2EDecodeBottleneckAttribution drives the observatory acceptance
// scenario end to end: a live pool ingests a continuous NDJSON stream over
// POST /ingest (the decode-bound load shape — a huge bootstrap horizon keeps
// detector work negligible), the stage accounting attributes the busy time,
// /status names ingest_decode as the bottleneck, and a /metrics/range rate
// query over the embedded time-series store shows positive ingest throughput.
func TestE2EDecodeBottleneckAttribution(t *testing.T) {
	reg := obs.NewRegistry()
	db := tsdb.New(tsdb.Config{Registry: reg, Resolution: 20 * time.Millisecond, Retention: time.Minute})
	db.Start()
	defer db.Close()
	cfg := Config{
		Shards:    1,
		Seed:      1,
		Bootstrap: 1000 * time.Hour, // never bootstraps: pure decode+admit load
		Metrics:   reg,
		sloTick:   25 * time.Millisecond,
		TSDB:      db,
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	srv := httptest.NewServer(Handler(p, reg))
	defer srv.Close()

	// One NDJSON batch, re-posted in a loop: every line goes through
	// ingest.DecodeLine on the handler goroutine, which is the timed
	// ingest_decode stage.
	var batch bytes.Buffer
	for i := 0; i < 2000; i++ {
		line, err := ingest.EncodeLine(ingest.Reading{
			Deployment: "obs",
			Reading: sensor.Reading{
				Sensor: i % 10,
				Time:   time.Duration(i) * time.Second,
				Values: vecmat.Vector{12.5, 94.25},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		batch.Write(line)
		batch.WriteByte('\n')
	}
	payload := batch.Bytes()

	type statusDoc struct {
		Bottleneck *Bottleneck `json:"bottleneck"`
	}
	deadline := time.Now().Add(15 * time.Second)
	var st statusDoc
	for {
		resp, err := http.Post(srv.URL+"/ingest", "application/x-ndjson", bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		getJSON(t, srv.URL+"/status", &st)
		if b := st.Bottleneck; b != nil && b.Stage == StageDecode {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bottleneck never attributed to %s; last: %+v", StageDecode, st.Bottleneck)
		}
	}
	b := st.Bottleneck
	if b.Utilization <= 0 || b.WindowSeconds <= 0 {
		t.Fatalf("bottleneck has empty accounting: %+v", b)
	}
	var decodeSeen bool
	for _, su := range b.Stages {
		if su.Stage == StageDecode && su.Units > 0 && su.BusySeconds > 0 {
			decodeSeen = true
		}
	}
	if !decodeSeen {
		t.Fatalf("stage table missing a busy %s entry: %+v", StageDecode, b.Stages)
	}

	// Historical evidence: the readings counter's rate over the store must be
	// positive, served by the same HTTP surface the dashboard queries.
	var res tsdb.Result
	deadline = time.Now().Add(5 * time.Second)
	for {
		code := getJSON(t, srv.URL+"/metrics/range?metric=fleet_readings_total&func=rate&window=30s", &res)
		if code != 200 {
			t.Fatalf("/metrics/range = %d", code)
		}
		if len(res.Series) == 1 && len(res.Series[0].Points) == 1 && res.Series[0].Points[0][1] > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest rate never positive: %+v", res)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The utilization gauges the sweep publishes are queryable too.
	var util tsdb.Result
	deadline = time.Now().Add(5 * time.Second)
	for {
		getJSON(t, srv.URL+"/metrics/range?prefix=fleet_stage_utilization", &util)
		if len(util.Series) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet_stage_utilization series never sampled")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestE2EAlertTriggersProfileCapture drives the incident-evidence leg: a
// stalled worker saturates the queue, the queue-saturation SLO fires, and the
// firing transition triggers a profile capture that shows up (with the alert
// as its reason) on /debug/profiles.
func TestE2EAlertTriggersProfileCapture(t *testing.T) {
	profDir := t.TempDir()
	cap, err := profiles.New(profiles.Config{Dir: profDir})
	if err != nil {
		t.Fatal(err)
	}
	defer cap.Close()

	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	cfg := Config{
		Shards:   1,
		QueueLen: 10,
		Policy:   DropNewest,
		Seed:     1,
		Metrics:  obs.NewRegistry(),
		sloTick:  5 * time.Millisecond,
		slos:     fastSLOs("queue-saturation"),
		Profiles: cap,
		stallOn: func(r ingest.Reading) <-chan struct{} {
			if r.Deployment != "stall" {
				return nil
			}
			select {
			case entered <- struct{}{}:
			default:
			}
			return gate
		},
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	released := false
	release := func() {
		if !released {
			released = true
			close(gate)
		}
	}
	defer p.Drain()
	defer release()
	srv := httptest.NewServer(Handler(p, cfg.Metrics))
	defer srv.Close()

	reading := func(i int) ingest.Reading {
		return ingest.Reading{Deployment: "stall", Reading: sensor.Reading{
			Sensor: i % 10,
			Time:   time.Duration(i) * time.Second,
			Values: vecmat.Vector{12, 94},
		}}
	}
	if err := p.Submit(reading(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the stall hook")
	}
	for i := 1; i <= 2*cfg.QueueLen; i++ {
		_ = p.Submit(reading(i))
	}
	waitAlert(t, srv.URL, "queue-saturation", obs.AlertFiring, 5*time.Second)

	// The firing transition triggered an async capture; its files must appear
	// on the profile index with the alert name as their reason.
	type profilesDoc struct {
		Dir      string           `json:"dir"`
		Profiles []profiles.Entry `json:"profiles"`
	}
	var doc profilesDoc
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, srv.URL+"/debug/profiles", &doc)
		var found bool
		for _, e := range doc.Profiles {
			if strings.Contains(e.Reason, "queue-saturation") && e.Bytes > 0 {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no incident profile captured; index: %+v", doc.Profiles)
		}
		time.Sleep(20 * time.Millisecond)
	}

	release()
	waitAlert(t, srv.URL, "queue-saturation", obs.AlertOK, 10*time.Second)
}
