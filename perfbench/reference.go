package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/ingest"
	"sensorguard/internal/sensor"
	"sensorguard/internal/vecmat"
)

// The collector's defaults the offline reference must mirror: sentinel's
// -states, -seed, -window and -bootstrap.
const (
	refStates    = 6
	refSeed      = 1
	refWindow    = time.Hour
	refBootstrap = 24 * time.Hour
)

// referenceReports runs the offline detector over every deployment's
// readings — k-means over its first 24 h, then core.Detector over the whole
// stream, as `sentinel` does on a trace file — and returns each report as
// compact JSON, keyed by deployment. Deployments run on two goroutines.
func referenceReports(perDep [][]ingest.Reading) (map[string][]byte, error) {
	out := make(map[string][]byte, len(perDep))
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for d := range next {
				rep, err := referenceReport(perDep[d])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %s: %w", depName(d), err)
				}
				out[depName(d)] = rep
				mu.Unlock()
			}
		}()
	}
	for d := range perDep {
		next <- d
	}
	close(next)
	wg.Wait()
	return out, firstErr
}

func referenceReport(rs []ingest.Reading) ([]byte, error) {
	det, err := bootstrapDetector(rs)
	if err != nil {
		return nil, err
	}
	readings := make([]sensor.Reading, len(rs))
	for i, r := range rs {
		readings[i] = r.Reading
	}
	if _, err := det.ProcessTrace(readings); err != nil {
		return nil, err
	}
	rep, err := det.Report()
	if err != nil {
		return nil, err
	}
	data, err := rep.MarshalIndentJSON()
	if err != nil {
		return nil, err
	}
	return compactJSON(data)
}

// bootstrapPoints returns the attribute vectors of a stream's first 24 h.
func bootstrapPoints(rs []ingest.Reading) []vecmat.Vector {
	var pts []vecmat.Vector
	for _, r := range rs {
		if r.Time < rs[0].Time+refBootstrap {
			pts = append(pts, r.Values)
		}
	}
	return pts
}

// bootstrapDetector seeds the model states by k-means over the first 24 h
// and builds the detector the collector would build for this stream.
func bootstrapDetector(rs []ingest.Reading) (*core.Detector, error) {
	if len(rs) == 0 {
		return nil, fmt.Errorf("empty stream")
	}
	seeds, err := cluster.KMeans(bootstrapPoints(rs), refStates, rand.New(rand.NewSource(refSeed)), 100)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig(seeds)
	cfg.Window = refWindow
	return core.NewDetector(cfg)
}

func compactJSON(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, data); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// compareReports checks the SUT's SIGTERM output (a JSON object of reports
// keyed by deployment) against the reference. It returns how many
// deployments mismatched or were missing, with a description of the first.
func compareReports(out []byte, want map[string][]byte) (int, error) {
	var got map[string]json.RawMessage
	if err := json.Unmarshal(out, &got); err != nil {
		return len(want), fmt.Errorf("sentinel report output: %w", err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	var first error
	for _, name := range names {
		raw, ok := got[name]
		var g []byte
		var err error
		if ok {
			g, err = compactJSON(raw)
		}
		if !ok || err != nil || !bytes.Equal(g, want[name]) {
			bad++
			if first == nil {
				first = fmt.Errorf("deployment %s: report differs from the offline reference", name)
				if !ok {
					first = fmt.Errorf("deployment %s: missing from sentinel's reports", name)
				}
			}
		}
	}
	if len(got) != len(want) {
		bad++
		if first == nil {
			first = fmt.Errorf("sentinel reported %d deployments, want %d", len(got), len(want))
		}
	}
	return bad, first
}
