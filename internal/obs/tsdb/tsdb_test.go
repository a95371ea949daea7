package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/obs"
)

// fakeSource is a controllable Sample enumeration for deterministic tests.
type fakeSource struct {
	mu      sync.Mutex
	samples []obs.Sample
}

func (f *fakeSource) set(samples ...obs.Sample) {
	f.mu.Lock()
	f.samples = append(f.samples[:0], samples...)
	f.mu.Unlock()
}

func (f *fakeSource) get() []obs.Sample {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]obs.Sample(nil), f.samples...)
}

// TestRetentionEviction drives a deterministic clock far past the retention
// horizon and checks eviction is chunk-granular: old chunks go, a live
// series always keeps its newest chunk, and a series whose source vanished is
// deleted entirely once its history decays.
func TestRetentionEviction(t *testing.T) {
	src := &fakeSource{}
	db := New(Config{source: src.get, Resolution: time.Second, Retention: time.Minute})

	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	// Sample two series for 2 minutes (well past retention + one chunk span).
	for i := 0; i < 120; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		src.set(
			obs.Sample{Name: "live_total", Kind: obs.KindCounter, Value: float64(i)},
			obs.Sample{Name: "doomed_gauge", Kind: obs.KindGauge, Value: float64(i)},
		)
		db.Sample(now)
	}
	pts, _, ok := db.read("live_total")
	if !ok {
		t.Fatal("live_total missing")
	}
	// Retention is 1m at 1s resolution; chunk-granular eviction may keep up
	// to one extra chunk (240 samples), so the floor is existence of recent
	// points and absence of the very first ones once a chunk boundary passed.
	last := t0.Add(119 * time.Second).UnixMilli()
	if pts[len(pts)-1].t != last {
		t.Fatalf("newest point at %d, want %d", pts[len(pts)-1].t, last)
	}

	// Now the doomed series vanishes from the source while the live one keeps
	// sampling long enough for every doomed chunk to pass the horizon.
	for i := 120; i < 120+2*chunkCap; i++ {
		now := t0.Add(time.Duration(i) * time.Second)
		src.set(obs.Sample{Name: "live_total", Kind: obs.KindCounter, Value: float64(i)})
		db.Sample(now)
	}
	if _, _, ok := db.read("doomed_gauge"); ok {
		t.Fatal("doomed_gauge still present after its history decayed")
	}
	pts, _, _ = db.read("live_total")
	if len(pts) == 0 {
		t.Fatal("live series evicted to nothing")
	}
	now := t0.Add(time.Duration(119+2*chunkCap) * time.Second)
	oldest := pts[0].t
	// Oldest retained point must be within retention + one chunk span.
	if lag := now.UnixMilli() - oldest; lag > (time.Minute + chunkCap*time.Second).Milliseconds() {
		t.Fatalf("oldest point lags %dms, beyond retention + one chunk", lag)
	}
	st := db.Stats()
	if st.Series != 1 {
		t.Fatalf("stats series = %d, want 1", st.Series)
	}
	if st.NewestMs != now.UnixMilli() {
		t.Fatalf("stats newest = %d, want %d", st.NewestMs, now.UnixMilli())
	}
}

// TestMaxSeriesCap checks series beyond the cap are dropped and counted,
// while existing series keep sampling.
func TestMaxSeriesCap(t *testing.T) {
	src := &fakeSource{}
	db := New(Config{source: src.get, maxSeries: 2})
	var samples []obs.Sample
	for i := 0; i < 5; i++ {
		samples = append(samples, obs.Sample{Name: fmt.Sprintf("s%d", i), Kind: obs.KindGauge, Value: 1})
	}
	src.set(samples...)
	db.Sample(time.Now())
	db.Sample(time.Now().Add(time.Second))
	st := db.Stats()
	if st.Series != 2 {
		t.Fatalf("series = %d, want cap 2", st.Series)
	}
	if st.DroppedNames == 0 {
		t.Fatal("dropped counter not incremented")
	}
}

// TestCloseWithoutStart pins the lifecycle fix: Close must not hang when
// Start was never called, and double Close is safe.
func TestCloseWithoutStart(t *testing.T) {
	db := New(Config{source: func() []obs.Sample { return nil }})
	done := make(chan struct{})
	go func() { db.Close(); db.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close hung without Start")
	}
}

// TestConcurrentSampleAndQuery exercises the store against a live registry
// under the race detector: writers mutate metrics while the sampler ticks
// and readers query.
func TestConcurrentSampleAndQuery(t *testing.T) {
	reg := obs.NewRegistry()
	ctr := reg.Counter("race_total", "")
	g := reg.Gauge("race_gauge", "")
	h := reg.Histogram("race_seconds", "", obs.LatencyBuckets())
	db := New(Config{Registry: reg, Resolution: time.Millisecond, Retention: time.Minute})
	db.Start()
	defer db.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ctr.Inc()
			g.Set(float64(i))
			h.Observe(float64(i%10) / 1000)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			now := time.Now()
			_, _ = db.Query(RangeQuery{Metric: "race_total", Func: "rate",
				Window: time.Second, Start: now.Add(-time.Second), End: now}, now)
			_ = db.Stats()
		}
	}()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	pts, kind, ok := db.read("race_total")
	if !ok || kind != obs.KindCounter || len(pts) == 0 {
		t.Fatalf("race_total not sampled: ok=%v kind=%v points=%d", ok, kind, len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].v < pts[i-1].v {
			t.Fatalf("counter went backwards at %d: %v -> %v", i, pts[i-1].v, pts[i].v)
		}
	}
}
