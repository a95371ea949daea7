package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sensorguard/internal/attack"
	"sensorguard/internal/classify"
	"sensorguard/internal/core"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// postBatch ships readings as one POST /ingest request, optionally stamped
// with a producer trace context — the gdigen -post wire behaviour.
func postBatch(t *testing.T, url, deployment string, readings []sensor.Reading, tc obs.SpanContext) {
	t.Helper()
	var buf bytes.Buffer
	for _, r := range readings {
		line, err := ingest.EncodeLine(ingest.Reading{Deployment: deployment, Reading: r})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	req, err := http.NewRequest(http.MethodPost, url+"/ingest", &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if tc.Valid() {
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("ingest: %s %s", resp.Status, body)
	}
}

// TestEndToEndTraceChain drives a producer-stamped reading batch through the
// whole serving pipeline and asserts a single trace links every hop: NDJSON
// decode, journal append, shard queue wait, window admission, the five
// detector stages under detector.step, and the checkpoint append.
func TestEndToEndTraceChain(t *testing.T) {
	tr := stuckTrace(t, 1)
	split := 4 * time.Hour
	var early, late []sensor.Reading
	for _, r := range tr.Readings {
		if r.Time < split {
			early = append(early, r)
		} else {
			late = append(late, r)
		}
	}

	tracer := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	reg := obs.NewRegistry()
	pool, err := New(Config{
		Shards:    1,
		Seed:      1,
		Lateness:  time.Second,
		Bootstrap: 2 * time.Hour,
		Metrics:   reg,
		Tracer:    tracer,
		Durability: Durability{
			Dir:    "mem",
			EveryN: 1,
			FS:     newMemFS(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Drain()
	srv := httptest.NewServer(Handler(pool, reg))
	defer srv.Close()

	// Batch 1 (unstamped) carries the deployment through its bootstrap
	// horizon; batch 2 arrives stamped with the producer's trace context.
	postBatch(t, srv.URL, "gdi", early, obs.SpanContext{})
	producer := obs.NewRootContext()
	postBatch(t, srv.URL, "gdi", late, producer)

	want := []string{
		"ingest.decode", "journal.append", "ingest.queue_wait", "window.admit",
		"detector.step", "detector.derive", "detector.classify", "detector.map",
		"detector.alarm", "detector.hmm", "checkpoint.append",
	}
	// The shard worker finishes the batch asynchronously: poll /debug/traces
	// until the producer's trace carries every hop.
	var spans []obs.SpanData
	deadline := time.Now().Add(10 * time.Second)
	for {
		spans = nil
		resp, err := http.Get(srv.URL + "/debug/traces")
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Traces []obs.TraceData `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, td := range doc.Traces {
			if td.TraceID == producer.Trace.String() {
				spans = td.Spans
			}
		}
		if haveAll(spans, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer trace incomplete after 10s: have %v, want %v", spanNames(spans), want)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Parent links: the decode span hangs off the producer's span; journal,
	// queue-wait, window-admit, detector.step, and checkpoint hang off the
	// decode span; the stage spans hang off detector.step.
	byName := map[string]obs.SpanData{}
	for _, sp := range spans {
		if _, seen := byName[sp.Name]; !seen {
			byName[sp.Name] = sp // first occurrence: the stamped reading's hop
		}
	}
	decode := byName["ingest.decode"]
	if decode.ParentID != producer.Span.String() {
		t.Errorf("decode parent %q, want producer span %q", decode.ParentID, producer.Span.String())
	}
	for _, name := range []string{"journal.append", "ingest.queue_wait", "window.admit", "detector.step", "checkpoint.append"} {
		if got := byName[name].ParentID; got != decode.SpanID {
			t.Errorf("%s parent %q, want decode span %q", name, got, decode.SpanID)
		}
	}
	step := byName["detector.step"]
	for _, name := range []string{"detector.derive", "detector.classify", "detector.map", "detector.alarm", "detector.hmm"} {
		if got := byName[name].ParentID; got != step.SpanID {
			t.Errorf("%s parent %q, want detector.step span %q", name, got, step.SpanID)
		}
	}
}

func haveAll(spans []obs.SpanData, want []string) bool {
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, w := range want {
		if !names[w] {
			return false
		}
	}
	return true
}

func spanNames(spans []obs.SpanData) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestDeletionDecisionProvenance injects the paper's Dynamic Deletion attack
// (Table 6 / Fig. 10) and checks the served decision records explain the
// verdict: the last record's evidence names the same kind the report
// diagnoses, with the non-orthogonal B^CO row pair as the exhibit.
func TestDeletionDecisionProvenance(t *testing.T) {
	adv, err := attack.NewAdversary([]int{0, 1, 2}, gdi.Ranges())
	if err != nil {
		t.Fatal(err)
	}
	strat := &attack.DynamicDeletion{
		Adversary:   adv,
		Target:      vecmat.Vector{31, 56},
		ReplaceWith: vecmat.Vector{24, 70},
		Radius:      6,
		Start:       3 * 24 * time.Hour,
	}
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = 21 // the deletion row mixture needs time to wash in
	cfg.Seed = 2006
	tr, err := gdi.Generate(cfg, network.WithAttack(strat))
	if err != nil {
		t.Fatal(err)
	}

	pool, err := New(Config{Shards: 1, Seed: 2006, DecisionBuffer: 8})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, pool, "gdi", tr.Readings)
	pool.Drain()

	srv := httptest.NewServer(Handler(pool, nil))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/decisions/gdi")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Deployment string                `json:"deployment"`
		Decisions  []core.DecisionRecord `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Deployment != "gdi" || len(doc.Decisions) == 0 {
		t.Fatalf("decisions endpoint returned %q with %d records", doc.Deployment, len(doc.Decisions))
	}

	rep, err := pool.Report("gdi")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Network.Kind != classify.KindDynamicDeletion {
		t.Fatalf("report kind %v, want dynamic-deletion", rep.Network.Kind)
	}

	last := doc.Decisions[len(doc.Decisions)-1]
	if last.Deployment != "gdi" {
		t.Errorf("record deployment %q", last.Deployment)
	}
	if last.Evidence == nil {
		t.Fatal("last decision record carries no evidence")
	}
	if last.Evidence.Verdict != rep.Network.Kind.String() {
		t.Errorf("evidence verdict %q, report kind %q — the record must explain the served diagnosis",
			last.Evidence.Verdict, rep.Network.Kind)
	}
	offDiag := false
	for _, v := range last.Evidence.RowViolations {
		if v.I != v.J {
			offDiag = true
			if v.Dot <= 0 {
				t.Errorf("row violation %d,%d has non-positive dot %v", v.I, v.J, v.Dot)
			}
		}
	}
	if !offDiag {
		t.Errorf("no off-diagonal B^CO row violation in evidence: %+v", last.Evidence.RowViolations)
	}
	// The unknown ("nope") deployment must 404, buffered deployments serve
	// oldest-first windows.
	if resp, err := http.Get(srv.URL + "/debug/decisions/nope"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown deployment decisions: %d", resp.StatusCode)
		}
	}
	for i := 1; i < len(doc.Decisions); i++ {
		if doc.Decisions[i].Window <= doc.Decisions[i-1].Window {
			t.Fatalf("decision records out of order: %d after %d", doc.Decisions[i].Window, doc.Decisions[i-1].Window)
		}
	}
}
