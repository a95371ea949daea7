package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/ingest"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// fastSLOs shrinks the burn windows so the alert lifecycle runs in
// milliseconds: fire when the bad fraction exceeds 2× a 10% budget over both
// a 60ms fast and 150ms slow window, resolve after 40ms below threshold.
func fastSLOs(names ...string) []obs.SLOSpec {
	specs := make([]obs.SLOSpec, 0, len(names))
	for _, n := range names {
		specs = append(specs, obs.SLOSpec{
			Name:       n,
			Severity:   "page",
			Budget:     0.1,
			Fast:       60 * time.Millisecond,
			Slow:       150 * time.Millisecond,
			Burn:       2,
			ClearAfter: 40 * time.Millisecond,
		})
	}
	return specs
}

type alertsDoc struct {
	Alerts []obs.Alert `json:"alerts"`
}

type healthDoc struct {
	Deployment string             `json:"deployment"`
	Health     obs.HealthSnapshot `json:"health"`
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if into != nil {
		if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitAlert polls /alerts until the named alert reaches wantState.
func waitAlert(t *testing.T, base, name string, wantState obs.AlertState, deadline time.Duration) obs.Alert {
	t.Helper()
	var last alertsDoc
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		getJSON(t, base+"/alerts", &last)
		for _, a := range last.Alerts {
			if a.Name == name && a.State == wantState {
				return a
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("alert %q never reached state %q; last: %+v", name, wantState, last.Alerts)
	return obs.Alert{}
}

// TestE2EQueueSaturationAlertLifecycle drives the acceptance scenario's
// saturation leg end to end through a live pool and its HTTP surface: a
// stalled shard worker backs the queue up past 90%, the queue-saturation
// burn-rate alert fires on /alerts, /healthz flips to 503 listing it, and
// once the stall lifts and the queue drains the alert resolves.
func TestE2EQueueSaturationAlertLifecycle(t *testing.T) {
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
	// First reading: the worker picks it up and blocks on the gate.
	if err := p.Submit(reading(0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never reached the stall hook")
	}
	// Fill the queue behind the stalled worker; extras are shed.
	for i := 1; i <= 2*cfg.QueueLen; i++ {
		_ = p.Submit(reading(i))
	}
	if sat := p.maxQueueSaturation(); sat < 0.9 {
		t.Fatalf("queue saturation %.2f after fill, want >= 0.9", sat)
	}

	fired := waitAlert(t, srv.URL, "queue-saturation", obs.AlertFiring, 5*time.Second)
	if fired.FastBurn < fired.Burn || fired.SlowBurn < fired.Burn {
		t.Fatalf("firing alert under threshold: %+v", fired)
	}

	// /healthz must flip to 503 with a structured body naming the alert.
	var h Health
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d during saturation, want 503", code)
	}
	if h.Ready || h.Status != "degraded" {
		t.Fatalf("degraded pool reports ready: %+v", h)
	}
	found := false
	for _, r := range h.Reasons {
		if r == "alert firing: queue-saturation" {
			found = true
		}
	}
	if !found {
		t.Fatalf("/healthz reasons missing firing alert: %v", h.Reasons)
	}

	// Recovery: lift the stall, let the queue drain, alert resolves after
	// the hysteresis window.
	release()
	resolved := waitAlert(t, srv.URL, "queue-saturation", obs.AlertOK, 10*time.Second)
	if resolved.State != obs.AlertOK {
		t.Fatalf("alert did not resolve: %+v", resolved)
	}
}

// TestE2EDetectorDriftAlert drives the drift leg: a deployment bootstraps on
// clean traffic, then a minority of its sensors start disagreeing
// persistently. The filtered-alarm EWMA crosses the drift threshold,
// /debug/health/{deployment} reports it, and the detector-drift burn-rate
// alert fires with /healthz naming both.
func TestE2EDetectorDriftAlert(t *testing.T) {
	points := []vecmat.Vector{{12, 94}, {17, 84}, {24, 70}, {31, 56}}
	cfg := Config{
		Shards:    1,
		Seed:      1,
		States:    4,
		Window:    time.Hour,
		Bootstrap: 4 * time.Hour,
		Metrics:   obs.NewRegistry(),
		sloTick:   5 * time.Millisecond,
		slos:      fastSLOs("detector-drift"),
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	srv := httptest.NewServer(Handler(p, cfg.Metrics))
	defer srv.Close()

	// Unknown deployment → 404; known but bootstrapping → 503.
	if code := getJSON(t, srv.URL+"/debug/health/nope", nil); code != http.StatusNotFound {
		t.Fatalf("/debug/health/nope = %d, want 404", code)
	}

	// One window = one reading per sensor; bad sensors sit far off every
	// key state so they alarm every window once the detector is live.
	feed := func(win int, bad int) {
		base := time.Duration(win) * time.Hour
		for s := 0; s < 10; s++ {
			v := points[win%len(points)]
			if s >= 10-bad {
				v = vecmat.Vector{45, 20}
			}
			if err := p.Submit(ingest.Reading{Deployment: "drift", Reading: sensor.Reading{
				Sensor: s,
				Time:   base + 30*time.Minute,
				Values: v.Clone(),
			}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for w := 0; w < 4; w++ { // bootstrap horizon (4h)
		feed(w, 0)
	}
	// Submit returns once the readings are queued; the deployment exists
	// (404 → 503) only after the shard worker has taken the first run.
	code := getJSON(t, srv.URL+"/debug/health/drift", nil)
	for deadline := time.Now().Add(10 * time.Second); code == http.StatusNotFound && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		code = getJSON(t, srv.URL+"/debug/health/drift", nil)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/debug/health/drift while bootstrapping = %d, want 503", code)
	}
	for w := 4; w < 24; w++ { // clean steady state
		feed(w, 0)
	}
	for w := 24; w < 80; w++ { // 4/10 sensors persistently disagreeing
		feed(w, 4)
	}

	// The shard worker folds the queued windows in behind Submit. Drift can
	// turn on from the B^CO orthogonality margin alone while it is still
	// folding them in, before the filtered-alarm rate has climbed, so the
	// health document is read only once every window the watermark closes
	// has been stepped: windows 0-77 (the newest reading, in window 79, less
	// the one-window lateness leaves 78 and 79 open).
	waitStepped(t, p, "drift", 78)
	var hd healthDoc
	if code := getJSON(t, srv.URL+"/debug/health/drift", &hd); code != http.StatusOK || !hd.Health.Drifting {
		t.Fatalf("/debug/health/drift = %d after every window, want 200 and drifting: %+v", code, hd.Health)
	}
	if hd.Health.FilteredAlarmRate <= 0.25 {
		t.Fatalf("drifting without filtered-alarm threshold crossed: %+v", hd.Health)
	}
	wantReason := "filtered alarm rate above threshold"
	if !contains(hd.Health.Reasons, wantReason) {
		t.Fatalf("reasons %v missing %q", hd.Health.Reasons, wantReason)
	}

	// The burn-rate alert rides the SLO ticker's drift probe.
	waitAlert(t, srv.URL, "detector-drift", obs.AlertFiring, 5*time.Second)

	var h Health
	if code := getJSON(t, srv.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz = %d with drifting deployment, want 503", code)
	}
	if !contains(h.Reasons, "detector drift on drift") {
		t.Fatalf("/healthz reasons missing drift: %v", h.Reasons)
	}
	if !contains(h.Reasons, "alert firing: detector-drift") {
		t.Fatalf("/healthz reasons missing drift alert: %v", h.Reasons)
	}

	// The sweep also publishes per-deployment labeled gauges.
	stop := time.Now().Add(5 * time.Second)
	for {
		snap := cfg.Metrics.Snapshot()
		if v, ok := snap[`fleet_deployment_drifting{deployment="drift"}`].(float64); ok && v == 1 {
			break
		}
		if time.Now().After(stop) {
			t.Fatalf("drifting gauge never published; metrics: %v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitStepped waits until the deployment's detector has stepped n windows.
func waitStepped(t *testing.T, p *Pool, deployment string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := p.Status(deployment)
		if err != nil && !errors.Is(err, ErrUnknownDeployment) { // the worker has yet to take its first run
			t.Fatal(err)
		}
		stepped := st.Detector.Steps + st.Detector.SkippedWindows
		if stepped == n {
			return
		}
		if stepped > n || time.Now().After(deadline) {
			t.Fatalf("%s stepped %d windows, want %d", deployment, stepped, n)
		}
	}
}

func contains(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestDashboardAndAlertsSmoke pins the ops surface a browser hits: the
// dashboard page serves self-contained HTML, /alerts returns every default
// SLO in ok state on an idle pool, and /status carries build identification.
func TestDashboardAndAlertsSmoke(t *testing.T) {
	reg := obs.NewRegistry()
	p, err := New(Config{Shards: 1, Metrics: reg, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Drain()
	srv := httptest.NewServer(Handler(p, reg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/debug/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.HasPrefix(resp.Header.Get("Content-Type"), "text/html") {
		t.Fatalf("/debug/dashboard: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if !strings.Contains(string(body[:n]), "sensorguard") {
		t.Fatal("/debug/dashboard body missing page content")
	}

	var alerts alertsDoc
	if code := getJSON(t, srv.URL+"/alerts", &alerts); code != 200 {
		t.Fatalf("/alerts = %d", code)
	}
	if len(alerts.Alerts) != len(defaultSLOs()) {
		t.Fatalf("/alerts has %d entries, want %d", len(alerts.Alerts), len(defaultSLOs()))
	}
	for _, a := range alerts.Alerts {
		if a.State != obs.AlertOK {
			t.Fatalf("idle pool has firing alert: %+v", a)
		}
	}

	var st struct {
		Build BuildInfo `json:"build"`
	}
	if code := getJSON(t, srv.URL+"/status", &st); code != 200 {
		t.Fatalf("/status = %d", code)
	}
	if st.Build.GoVersion == "" && st.Build.Version == "" {
		t.Fatalf("/status build info empty: %+v", st.Build)
	}
}

// TestSLOUnknownNameRejected pins the binding contract: a spec whose name has
// no measurement source fails pool construction instead of silently never
// firing.
func TestSLOUnknownNameRejected(t *testing.T) {
	_, err := New(Config{slos: fastSLOs("made-up-slo")})
	if err == nil || !strings.Contains(err.Error(), "made-up-slo") {
		t.Fatalf("unknown SLO name accepted: %v", err)
	}
}
