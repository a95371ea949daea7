package main

import (
	"fmt"
	"runtime"
	"time"
)

// The collector's pipeline stages (internal/fleet/stages.go). queue_wait is
// waiting, not work, so it is reported but left out of the accounting.
var sutStages = []string{"ingest_decode", "journal_append", "queue_wait", "window_admit", "detector_step", "checkpoint"}

const stageBusyMetric = "fleet_stage_busy_ns_total"

// sutSample is what the traced run reads from the SUT around its fixed-rate
// phase: /proc I/O counters, the heap endpoint's allocation counters, and
// the stage busy-time counters on /metrics.
type sutSample struct {
	io0, io1       procIO
	heap0, heap1   memStats
	stage0, stage1 map[string]float64
	after          memStats // after the whole round, before SIGTERM
	wall, cpu      time.Duration
	readings       int
	skew           float64 // fleet.shard_skew
}

func sampleSUT(s *sut) (*sutSample, error) {
	x := &sutSample{}
	var err error
	if x.heap0, err = s.heap(); err != nil {
		return nil, err
	}
	if x.stage0, err = s.counters(stageBusyMetric); err != nil {
		return nil, err
	}
	if x.io0, err = readProcIO(s.pid()); err != nil {
		return nil, err
	}
	return x, nil
}

func (x *sutSample) finish(s *sut, wall, cpu time.Duration, readings int) error {
	var err error
	if x.io1, err = readProcIO(s.pid()); err != nil {
		return err
	}
	if x.stage1, err = s.counters(stageBusyMetric); err != nil {
		return err
	}
	if x.heap1, err = s.heap(); err != nil {
		return err
	}
	x.wall, x.cpu, x.readings = wall, cpu, readings
	return nil
}

// stageBusy returns a stage's busy nanoseconds over the phase.
func (x *sutSample) stageBusy(stage string) float64 {
	key := fmt.Sprintf(`%s{stage="%s"}`, stageBusyMetric, stage)
	return x.stage1[key] - x.stage0[key]
}

// metrics are the SUT-side per-layer metrics. Shares are of wall ×
// GOMAXPROCS over the fixed-rate phase; the work stages, the unattributed
// remainder of the SUT's CPU time, and idle time add up to 1.
func (x *sutSample) metrics(m map[string]metric) {
	capacity := float64(x.wall) * float64(runtime.NumCPU())
	work := 0.0
	for _, st := range sutStages {
		busy := x.stageBusy(st)
		m["stage."+st+".busy_share"] = metric{busy / capacity, "share"}
		if st != "queue_wait" {
			work += busy
		}
	}
	m["stage.unattributed_share"] = metric{(float64(x.cpu) - work) / capacity, "share"}
	m["stage.idle_share"] = metric{1 - float64(x.cpu)/capacity, "share"}
	n := float64(x.readings)
	m["sut.write_syscalls_per_kreading"] = metric{float64(x.io1.SyscW-x.io0.SyscW) / n * 1000, "count"}
	m["sut.write_bytes_per_reading"] = metric{float64(x.io1.WChar-x.io0.WChar) / n, "B"}
	m["sut.alloc_b_per_reading"] = metric{float64(x.heap1.TotalAlloc-x.heap0.TotalAlloc) / n, "B"}
	// heap1's read forced one collection of its own.
	m["sut.gc_per_mreading"] = metric{float64(x.heap1.NumGC-x.heap0.NumGC-1) / n * 1e6, "count"}
}

// shardSkew is max/mean readings per shard, from the deployment → shard
// map /status reports and each deployment's reading count.
func shardSkew(deps []deploymentStatus, readings map[string]int) (float64, error) {
	per := map[int]int{}
	total := 0
	for _, d := range deps {
		n, ok := readings[d.Deployment]
		if !ok {
			return 0, fmt.Errorf("/status lists unknown deployment %q", d.Deployment)
		}
		per[d.Shard] += n
		total += n
	}
	if total == 0 || len(per) == 0 {
		return 0, fmt.Errorf("/status lists no readings")
	}
	most := 0
	for _, n := range per {
		most = max(most, n)
	}
	return float64(most) / (float64(total) / float64(sutShards)), nil
}
