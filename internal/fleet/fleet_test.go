package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/classify"
	"sensorguard/internal/core"
	"sensorguard/internal/fault"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// stuckTrace generates a days-long GDI trace with sensor 6 stuck from 36h.
func stuckTrace(t testing.TB, days int) gdi.Trace {
	t.Helper()
	plan, err := fault.NewPlan(fault.Schedule{
		Sensor:   6,
		Injector: fault.StuckAt{Value: vecmat.Vector{15, 1}},
		Start:    36 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = days
	tr, err := gdi.Generate(cfg, network.WithFaults(plan))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func submitAll(t testing.TB, p *Pool, deployment string, readings []sensor.Reading) {
	t.Helper()
	if err := submitErr(p, deployment, readings); err != nil {
		t.Fatal(err)
	}
}

func submitErr(p *Pool, deployment string, readings []sensor.Reading) error {
	for _, r := range readings {
		if err := p.Submit(ingest.Reading{Deployment: deployment, Reading: r}); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamingMatchesBatch is the serving equivalence guarantee: streaming
// a trace in order through the sharded fleet yields exactly the diagnosis of
// the offline batch pipeline — same bootstrap clustering, same windows, same
// report. The comparison is the differential harness's Submit cell.
func TestStreamingMatchesBatch(t *testing.T) {
	tr := stuckTrace(t, 7)
	pool := cell{path: viaSubmit, shards: 3}.run(t, newStream(t, tagged(tr.Readings, "gdi", false)))
	got, err := pool.Report("gdi")
	if err != nil {
		t.Fatal(err)
	}
	if got.Overall() != classify.KindStuckAt {
		t.Fatalf("overall %v, want stuck-at", got.Overall())
	}
}

// TestShortTraceBootstrapsOnDrain: a stream shorter than the bootstrap
// horizon must still be diagnosed at drain, matching the batch path (which
// seeds from the whole trace when it is under a day).
func TestShortTraceBootstrapsOnDrain(t *testing.T) {
	tr := stuckTrace(t, 1)
	st := newStream(t, tagged(tr.Readings, "gdi", false))
	pool, err := New(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Report("gdi"); !errors.Is(err, ErrUnknownDeployment) {
		t.Errorf("report before any reading: %v, want ErrUnknownDeployment", err)
	}
	submitAll(t, pool, "gdi", tr.Readings[:10])
	// The shard worker registers the deployment asynchronously; wait for it,
	// then the report must say "bootstrapping" (readings buffered, no
	// detector yet).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := pool.Report("gdi")
		if errors.Is(err, ErrBootstrapping) {
			break
		}
		if !errors.Is(err, ErrUnknownDeployment) {
			t.Errorf("report during bootstrap: %v, want ErrBootstrapping", err)
			break
		}
		if time.Now().After(deadline) {
			t.Error("deployment never left the unknown state")
			break
		}
		time.Sleep(time.Millisecond)
	}
	submitAll(t, pool, "gdi", tr.Readings[10:])
	pool.Drain()
	st.check(t, pool)
}

// TestConcurrentProducers exercises the pool under -race: 8 producers
// streaming 8 deployments concurrently while a reader polls live reports,
// then checks every deployment converged to the same diagnosis and that the
// shard metrics surfaced.
func TestConcurrentProducers(t *testing.T) {
	tr := stuckTrace(t, 7)
	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 4, QueueLen: 64, Seed: 1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 8
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := submitErr(pool, fmt.Sprintf("dep-%d", i), tr.Readings); err != nil {
				t.Errorf("producer %d: %v", i, err)
			}
		}(i)
	}

	// A concurrent reader hammers the snapshot surface while shards churn.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, dep := range pool.Deployments() {
				_, _ = pool.Status(dep)
				_, _ = pool.Report(dep)
			}
		}
	}()

	wg.Wait()
	pool.Drain()
	close(stop)
	rg.Wait()

	want, err := pool.Report("dep-0")
	if err != nil {
		t.Fatal(err)
	}
	if want.Overall() != classify.KindStuckAt {
		t.Fatalf("dep-0 overall %v, want stuck-at", want.Overall())
	}
	for i := 1; i < producers; i++ {
		got, err := pool.Report(fmt.Sprintf("dep-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("dep-%d report differs from dep-0 on the identical stream", i)
		}
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	metrics := buf.String()
	for _, want := range []string{
		"fleet_readings_total",
		"fleet_shard0_queue_depth",
		"fleet_shard0_dropped_total",
		"fleet_shard0_late_dropped_total",
		"fleet_shard0_windows_total",
		"fleet_shard3_queue_depth",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(metrics, fmt.Sprintf("fleet_readings_total %d", producers*len(tr.Readings))) {
		t.Errorf("fleet_readings_total does not count all submitted readings:\n%s",
			firstLines(metrics, 40))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// TestDropNewestPolicy wedges a shard worker inside a detector bootstrap and
// checks Submit sheds (and counts) readings once the queue is full instead
// of blocking.
func TestDropNewestPolicy(t *testing.T) {
	reg := obs.NewRegistry()
	release := make(chan struct{})
	entered := make(chan struct{})
	pool, err := New(Config{
		Shards:    1,
		QueueLen:  2,
		Policy:    DropNewest,
		Bootstrap: time.Nanosecond,
		States:    1,
		Metrics:   reg,
		newDetector: func(seeds []vecmat.Vector) (*core.Detector, error) {
			close(entered)
			<-release // hold the worker here while the test floods the queue
			return core.NewDetector(core.DefaultConfig([]vecmat.Vector{{15, 80}}))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int) ingest.Reading {
		return ingest.Reading{Deployment: "d", Reading: sensor.Reading{
			Sensor: i % 4,
			Time:   time.Duration(i) * time.Minute,
			Values: vecmat.Vector{15, 80},
		}}
	}
	// First reading buffers (time 0 < 1ns horizon is false — 0 < 1ns? no:
	// 0 >= deadline only when Bootstrap elapsed; with 1ns horizon the
	// second reading triggers bootstrap).
	if err := pool.Submit(mk(0)); err != nil {
		t.Fatal(err)
	}
	if err := pool.Submit(mk(1)); err != nil {
		t.Fatal(err)
	}
	<-entered // worker is now wedged in NewDetector
	// Fill the queue, then overflow it.
	dropped := 0
	for i := 2; i < 10; i++ {
		if err := pool.Submit(mk(i)); errors.Is(err, ingest.ErrDropped) {
			dropped++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if dropped < 6 { // queue holds 2; at least 6 of 8 must shed
		t.Errorf("dropped %d readings, want >= 6", dropped)
	}
	close(release)
	pool.Drain()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), fmt.Sprintf("fleet_shard0_dropped_total %d", dropped)) {
		t.Errorf("dropped counter does not match %d:\n%s", dropped, firstLines(buf.String(), 40))
	}
	if err := pool.Submit(mk(99)); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after drain: %v, want ErrClosed", err)
	}
}

// TestLateReadingsCounted streams wildly out-of-order data and checks the
// per-shard late counter reflects the windower drops.
func TestLateReadingsCounted(t *testing.T) {
	reg := obs.NewRegistry()
	pool, err := New(Config{
		Shards:    1,
		Bootstrap: time.Nanosecond,
		Lateness:  time.Minute,
		States:    1,
		newDetector: func(seeds []vecmat.Vector) (*core.Detector, error) {
			return core.NewDetector(core.DefaultConfig([]vecmat.Vector{{15, 80}}))
		},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(tm time.Duration) ingest.Reading {
		return ingest.Reading{Deployment: "d", Reading: sensor.Reading{
			Time: tm, Values: vecmat.Vector{15, 80},
		}}
	}
	for _, tm := range []time.Duration{
		0, 10 * time.Hour, // watermark leaps to 10h - 1m
		30 * time.Minute, 90 * time.Minute, // both behind the watermark: late
		11 * time.Hour,
	} {
		if err := pool.Submit(mk(tm)); err != nil {
			t.Fatal(err)
		}
	}
	pool.Drain()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "fleet_shard0_late_dropped_total 2") {
		t.Errorf("late counter missing or wrong:\n%s", firstLines(buf.String(), 40))
	}
}

// TestDeploymentsRouting checks the key→shard map is deterministic and the
// deployment listing is sorted and complete.
func TestDeploymentsRouting(t *testing.T) {
	pool, err := New(Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, n := range names {
		if err := pool.Submit(ingest.Reading{Deployment: n, Reading: sensor.Reading{
			Values: vecmat.Vector{1, 2},
		}}); err != nil {
			t.Fatal(err)
		}
		if got, again := shardIndex(n, 4), shardIndex(n, 4); got != again {
			t.Fatalf("shardIndex not deterministic for %q", n)
		}
	}
	pool.Drain()
	got := pool.Deployments()
	if len(got) != len(names) {
		t.Fatalf("deployments %v, want %d names", got, len(names))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("deployments not sorted: %v", got)
		}
	}
}

// TestNewRejectsNegativeConfig checks that New refuses a negative size or
// duration and names the field, instead of serving with its default.
func TestNewRejectsNegativeConfig(t *testing.T) {
	for field, cfg := range map[string]Config{
		"Shards":              {Shards: -1},
		"QueueLen":            {QueueLen: -1},
		"Window":              {Window: -time.Hour},
		"Lateness":            {Lateness: -time.Minute},
		"Bootstrap":           {Bootstrap: -time.Hour},
		"States":              {States: -1},
		"DecisionBuffer":      {DecisionBuffer: -1},
		"Durability.Interval": {Durability: Durability{Dir: t.TempDir(), Interval: -time.Second}},
		"Durability.EveryN":   {Durability: Durability{Dir: t.TempDir(), EveryN: -1}},
	} {
		pool, err := New(cfg)
		if err == nil {
			pool.Drain()
			t.Errorf("%s: New accepted a negative value", field)
			continue
		}
		if !strings.Contains(err.Error(), field+" must not be negative") {
			t.Errorf("%s: error %q does not name the field", field, err)
		}
	}
}
