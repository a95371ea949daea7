package network

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"sensorguard/internal/sensor"
)

// RunConcurrent simulates the deployment with one goroutine per node, each
// sampling its own device timeline and streaming messages to an in-process
// collector — the live (rather than replayed) operating mode of the system.
// The returned trace is re-sequenced by (time, sensor) before being handed
// back, since concurrent delivery is unordered.
//
// Coordinated attack strategies need a synchronous view of every round and
// are therefore rejected in this mode; per-sensor faults apply as usual.
func (d *Deployment) RunConcurrent(start, end time.Duration) ([]sensor.Reading, error) {
	if d.attack != nil {
		return nil, errors.New("network: coordinated attacks require the synchronous Run mode")
	}
	if end < start {
		return nil, errors.New("network: end before start")
	}

	// Buffer the collector channel so producers rarely block on the single
	// consumer, and size the trace for the lossless upper bound so the append
	// loop never regrows it mid-run.
	rounds := 0
	if end > start {
		rounds = int((end-start-1)/d.cfg.SamplePeriod) + 1
	}
	msgs := make(chan sensor.Reading, 4*len(d.devices))
	var wg sync.WaitGroup
	errs := make([]error, len(d.devices))
	for i, dev := range d.devices {
		wg.Add(1)
		go func(i int, dev *sensor.Device) {
			defer wg.Done()
			link := rand.New(rand.NewSource(d.cfg.Seed + 1000 + int64(i)))
			for t := start; t < end; t += d.cfg.SamplePeriod {
				r, err := dev.Sample(t, d.field.At(t))
				if err != nil {
					errs[i] = err
					return
				}
				if d.faults != nil {
					values, transmitted := d.faults.Apply(dev.ID(), t, r.Values)
					if !transmitted {
						continue
					}
					r.Values = values
				}
				if link.Float64() < d.cfg.Link.lossFor(dev.ID()) {
					continue
				}
				if link.Float64() < d.cfg.Link.MalformProb {
					r = d.malformWith(link, r)
				}
				msgs <- r
			}
		}(i, dev)
	}

	done := make(chan struct{})
	trace := make([]sensor.Reading, 0, rounds*len(d.devices))
	go func() {
		defer close(done)
		for r := range msgs {
			trace = append(trace, r)
		}
	}()

	wg.Wait()
	close(msgs)
	<-done

	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	SortReadings(trace)
	return trace, nil
}

// malformWith is malform with an explicit random source (the concurrent mode
// gives each node its own link stream to stay race-free).
func (d *Deployment) malformWith(rng *rand.Rand, r sensor.Reading) sensor.Reading {
	out := r.Clone()
	for i := range out.Values {
		lo, hi := -1e3, 1e3
		if i < len(d.cfg.Ranges) {
			lo, hi = d.cfg.Ranges[i].Lo, d.cfg.Ranges[i].Hi
		}
		out.Values[i] = lo + rng.Float64()*(hi-lo)
	}
	return out
}
