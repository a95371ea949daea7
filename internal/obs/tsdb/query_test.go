package tsdb

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/obs"
)

// seedCounter loads one counter series with a sample per second.
func seedCounter(t *testing.T, name string, t0 time.Time, vals []float64) *DB {
	t.Helper()
	src := &fakeSource{}
	db := New(Config{source: src.get, Resolution: time.Second, Retention: time.Hour})
	for i, v := range vals {
		src.set(obs.Sample{Name: name, Kind: obs.KindCounter, Value: v})
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	return db
}

// TestRateGolden pins rate() against hand-computed vectors: monotone growth
// and a counter reset folded the same way the SLO engine folds it (a
// negative delta contributes the new raw value).
func TestRateGolden(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	cases := []struct {
		name string
		vals []float64
		want float64 // rate over the whole span
	}{
		// 0,10,20,30 over 3s: increase 30, rate 10/s.
		{"monotone", []float64{0, 10, 20, 30}, 10},
		// 0,10,20,5,15: deltas 10,10,reset→5,10 = 35 over 4s.
		{"reset", []float64{0, 10, 20, 5, 15}, 35.0 / 4},
		// flat counter: zero rate.
		{"flat", []float64{7, 7, 7}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := seedCounter(t, "c_total", t0, tc.vals)
			end := t0.Add(time.Duration(len(tc.vals)-1) * time.Second)
			res, err := db.Query(RangeQuery{Metric: "c_total", Func: "rate",
				Window: time.Duration(len(tc.vals)) * time.Second}, end)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
				t.Fatalf("series = %+v, want one instant point", res.Series)
			}
			got := res.Series[0].Points[0][1]
			if math.Abs(got-tc.want) > 1e-9 {
				t.Fatalf("rate = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestIncreaseAndGauge checks increase() on counters versus plain
// last-minus-first on gauges: a dip in a gauge is a real decrease, not a
// reset.
func TestIncreaseAndGauge(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	src := &fakeSource{}
	db := New(Config{source: src.get, Resolution: time.Second, Retention: time.Hour})
	vals := []float64{10, 20, 5, 8}
	for i, v := range vals {
		src.set(
			obs.Sample{Name: "c_total", Kind: obs.KindCounter, Value: v},
			obs.Sample{Name: "g", Kind: obs.KindGauge, Value: v},
		)
		db.Sample(t0.Add(time.Duration(i) * time.Second))
	}
	end := t0.Add(3 * time.Second)
	q := RangeQuery{Metric: "c_total", Func: "increase", Window: 10 * time.Second}
	res, err := db.Query(q, end)
	if err != nil {
		t.Fatal(err)
	}
	// Counter: 10 + reset→5 + 3 = 18.
	if got := res.Series[0].Points[0][1]; got != 18 {
		t.Fatalf("counter increase = %v, want 18", got)
	}
	q.Metric = "g"
	res, err = db.Query(q, end)
	if err != nil {
		t.Fatal(err)
	}
	// Gauge: last - first = -2.
	if got := res.Series[0].Points[0][1]; got != -2 {
		t.Fatalf("gauge increase = %v, want -2", got)
	}
}

// TestRangeEvaluationGrid checks a start/end/step query emits a grid of
// points and that raw returns the newest value in each window.
func TestRangeEvaluationGrid(t *testing.T) {
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	db := seedCounter(t, "c_total", t0, []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	res, err := db.Query(RangeQuery{Metric: "c_total", Func: "raw",
		Start: t0, End: t0.Add(9 * time.Second), Step: 3 * time.Second,
		Window: 5 * time.Second}, t0.Add(9*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	if len(pts) != 4 {
		t.Fatalf("grid has %d points, want 4 (0,3,6,9s)", len(pts))
	}
	for i, want := range []float64{0, 3, 6, 9} {
		if pts[i][1] != want {
			t.Fatalf("grid[%d] = %v, want %v", i, pts[i][1], want)
		}
	}
	if res.StepMs != 3000 || res.StartMs != t0.UnixMilli() {
		t.Fatalf("grid meta = start %d step %d", res.StartMs, res.StepMs)
	}
}

// TestQuantileOverTime feeds a real registry histogram and recomputes a
// windowed quantile from the sampled cumulative buckets.
func TestQuantileOverTime(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("lat_seconds", "", []float64{0.01, 0.1, 1})
	db := New(Config{Registry: reg, Resolution: time.Second, Retention: time.Hour})
	t0 := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	db.Sample(t0)
	// 90 observations in (0.01, 0.1], 10 in (0.1, 1] → p50 inside the
	// second bucket, p99 inside the third.
	for i := 0; i < 90; i++ {
		h.Observe(0.05)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.5)
	}
	db.Sample(t0.Add(time.Second))
	res, err := db.Query(RangeQuery{Metric: "lat_seconds", Func: "quantile", Q: 0.5,
		Window: 10 * time.Second}, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 1 {
		t.Fatalf("quantile series = %+v, want one instant point", res.Series)
	}
	if got := res.Series[0].Points[0][1]; got <= 0.01 || got > 0.1 {
		t.Fatalf("p50 = %v, want within (0.01, 0.1]", got)
	}
	res, err = db.Query(RangeQuery{Metric: "lat_seconds", Func: "quantile", Q: 0.99,
		Window: 10 * time.Second}, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Series[0].Points[0][1]; got <= 0.1 || got > 1 {
		t.Fatalf("p99 = %v, want within (0.1, 1]", got)
	}
}

func TestQueryErrors(t *testing.T) {
	db := New(Config{source: func() []obs.Sample { return nil }})
	now := time.Now()
	for _, q := range []RangeQuery{
		{},                                    // no metric or prefix
		{Metric: "x", Func: "avg"},            // unknown func
		{Metric: "x", Func: "quantile", Q: 0}, // q out of range
		{Metric: "x", Func: "quantile", Q: 2}, // q out of range
		{Metric: "x", Start: now, End: now.Add(-time.Hour)}, // start after end
	} {
		if _, err := db.Query(q, now); err == nil {
			t.Errorf("Query(%+v) accepted invalid input", q)
		}
	}
}

// TestHandler drives the HTTP surface: a range query, list=1, parameter
// validation, and the nil-store 404.
func TestHandler(t *testing.T) {
	t0 := time.Now().Add(-10 * time.Second)
	db := seedCounter(t, "c_total", t0, []float64{0, 10, 20, 30})

	h := Handler(db)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/range?metric=c_total&func=rate&window=10s", nil))
	if rec.Code != 200 {
		t.Fatalf("rate query status = %d: %s", rec.Code, rec.Body)
	}
	var res Result
	if err := json.NewDecoder(rec.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Func != "rate" || len(res.Series) != 1 {
		t.Fatalf("result = %+v", res)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/range?list=1", nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), "c_total") {
		t.Fatalf("list status = %d body = %s", rec.Code, rec.Body)
	}

	for _, url := range []string{
		"/metrics/range?metric=c_total&window=bogus",
		"/metrics/range?metric=c_total&start=notanumber",
		"/metrics/range?metric=c_total&func=quantile&q=nope",
		"/metrics/range",
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 400 {
			t.Errorf("%s status = %d, want 400", url, rec.Code)
		}
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics/range?metric=x", nil))
	if rec.Code != 404 {
		t.Fatalf("nil store status = %d, want 404", rec.Code)
	}
}
