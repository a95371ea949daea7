package ingest

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

func testReading(i int) Reading {
	return Reading{
		Deployment: "dep",
		Seq:        uint64(i + 1),
		Reading: sensor.Reading{
			Sensor: i % 3,
			Time:   time.Duration(i) * time.Minute,
			Values: vecmat.Vector{float64(i), 50},
		},
	}
}

func TestShipperBatchesAndDelivers(t *testing.T) {
	var mu sync.Mutex
	var got []Reading
	var posts int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		posts++
		sc := bufio.NewScanner(r.Body)
		for sc.Scan() {
			rd, err := DecodeLine(sc.Bytes())
			if err != nil {
				t.Errorf("decode shipped line: %v", err)
			}
			got = append(got, rd)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	ship, err := NewShipper(ShipperConfig{URL: srv.URL, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := ship.Add(ctx, testReading(i)); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
	}
	if err := ship.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 10 || ship.Shipped() != 10 {
		t.Fatalf("delivered %d readings (Shipped=%d), want 10", len(got), ship.Shipped())
	}
	// 10 readings at batch size 4: Add flushes full batches lazily, so the
	// server sees 4+4+2 across three POSTs.
	if posts != 3 {
		t.Errorf("posts = %d, want 3", posts)
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("reading %d arrived with seq %d, want order preserved", i, r.Seq)
		}
	}
}

// TestShipperBinaryRefusesAtAdd: a binary shipper refuses a reading the
// frame encoder refuses at Add and keeps its batch, so one bad reading
// neither wedges later batches nor loses the good readings staged beside
// it; and a reading's values are copied at Add.
func TestShipperBinaryRefusesAtAdd(t *testing.T) {
	var mu sync.Mutex
	var sink collector
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		st, err := ReadWireStream(r.Body, &sink, StreamOptions{})
		if err != nil || st.Rejected != 0 {
			t.Errorf("read shipped frame: %+v, %v", st, err)
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()

	ship, err := NewShipper(ShipperConfig{URL: srv.URL, BatchSize: 10, Wire: WireBinary})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var want []Reading
	for i := 0; i < 40; i++ {
		r := testReading(i)
		if i == 0 || i == 15 {
			r.Values = nil
			if err := ship.Add(ctx, r); err == nil {
				t.Fatalf("Add(%d) accepted a reading with no values", i)
			}
			continue
		}
		want = append(want, testReading(i))
		if err := ship.Add(ctx, r); err != nil {
			t.Fatalf("Add(%d): %v", i, err)
		}
		r.Values[0] = -1 // the shipper copied the values at Add
	}
	if err := ship.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	got := sink.got
	if ship.Shipped() != len(want) || len(got) != len(want) {
		t.Fatalf("shipped %d, delivered %d readings, want %d", ship.Shipped(), len(got), len(want))
	}
	for i := range want {
		want[i].Trace = got[i].Trace
		if !readingEqual(got[i], want[i]) {
			t.Fatalf("reading %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestShipperRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			http.Error(w, "catching my breath", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ship, err := NewShipper(ShipperConfig{URL: srv.URL, RetryBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ship.Add(ctx, testReading(0)); err != nil {
		t.Fatal(err)
	}
	if err := ship.Flush(ctx); err != nil {
		t.Fatalf("Flush should ride out a 503: %v", err)
	}
	if calls.Load() != 2 {
		t.Errorf("server saw %d attempts, want 2", calls.Load())
	}
}

func TestShipperPermanentFailureIsNotRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		http.Error(w, "bad payload", http.StatusBadRequest)
	}))
	defer srv.Close()
	ship, err := NewShipper(ShipperConfig{URL: srv.URL, RetryBudget: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := ship.Add(ctx, testReading(0)); err != nil {
		t.Fatal(err)
	}
	if err := ship.Flush(ctx); err == nil {
		t.Fatal("Flush swallowed a 4xx")
	}
	if calls.Load() != 1 {
		t.Errorf("server saw %d attempts, want exactly 1 for a permanent failure", calls.Load())
	}
	if ship.Shipped() != 0 {
		t.Errorf("Shipped = %d after failure, want 0", ship.Shipped())
	}
}

func TestShipperHonoursContextCancel(t *testing.T) {
	// A server that always 503s forces the retry loop; cancelling the
	// context must end it promptly instead of burning the full budget.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	ship, err := NewShipper(ShipperConfig{URL: srv.URL, RetryBudget: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := ship.Add(ctx, testReading(0)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := ship.Flush(ctx); err == nil {
		t.Fatal("Flush succeeded against a dead server")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled flush took %v, want prompt abort", elapsed)
	}
}

func TestShipperConfigValidation(t *testing.T) {
	if _, err := NewShipper(ShipperConfig{}); err == nil {
		t.Error("empty URL accepted")
	}
	s, err := NewShipper(ShipperConfig{URL: "http://example.invalid/ingest"})
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.BatchSize != 500 || s.cfg.RetryBudget != time.Minute {
		t.Errorf("defaults = batch %d budget %v, want 500 / 1m", s.cfg.BatchSize, s.cfg.RetryBudget)
	}
	if s.cfg.Logger == nil || s.cfg.Client == nil {
		t.Error("nil logger/client not defaulted")
	}
}
