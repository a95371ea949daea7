package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sensorguard/internal/ingest"
)

// poster owns one keep-alive connection to the SUT's POST /ingest.
type poster struct {
	client      *http.Client
	url         string
	contentType string
}

func newPoster(base, codec string) *poster {
	ct := "application/x-ndjson"
	if codec == ingest.WireBinary {
		ct = ingest.FrameContentType
	}
	return &poster{
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
		url:         base + "/ingest",
		contentType: ct,
	}
}

func (p *poster) close() { p.client.CloseIdleConnections() }

// post ships one body and returns the collector's stream outcome.
func (p *poster) post(body []byte) (ingest.StreamStats, error) {
	req, err := http.NewRequest(http.MethodPost, p.url, bytes.NewReader(body))
	if err != nil {
		return ingest.StreamStats{}, err
	}
	req.Header.Set("Content-Type", p.contentType)
	resp, err := p.client.Do(req)
	if err != nil {
		return ingest.StreamStats{}, err
	}
	defer resp.Body.Close()
	msg, err := io.ReadAll(resp.Body)
	if err != nil {
		return ingest.StreamStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ingest.StreamStats{}, fmt.Errorf("POST /ingest: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	var st ingest.StreamStats
	if err := json.Unmarshal(msg, &st); err != nil {
		return ingest.StreamStats{}, fmt.Errorf("POST /ingest response: %w", err)
	}
	return st, nil
}

// shipStats is the outcome of shipping one phase.
type shipStats struct {
	posts, failed     int
	accepted          int
	rejected, dropped int
	latencyMS, lagMS  []float64 // open loop: per POST, from its due time
	elapsed           time.Duration
	intervalRPS       []float64 // closed loop: per-interval acked readings/s
	firstErr          error
	acks              [numConns][]ack
}

type ack struct {
	at time.Time
	n  int
}

func (s *shipStats) add(o ingest.StreamStats, n int, err error) {
	s.posts++
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
		return
	}
	s.accepted += o.Accepted
	s.rejected += o.Rejected
	s.dropped += o.Dropped
	if o.Accepted != n {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("POST accepted %d of %d readings (rejected %d, dropped %d)",
				o.Accepted, n, o.Rejected, o.Dropped)
		}
	}
}

func (s *shipStats) merge(o *shipStats) {
	s.posts += o.posts
	s.failed += o.failed
	s.accepted += o.accepted
	s.rejected += o.rejected
	s.dropped += o.dropped
	s.latencyMS = append(s.latencyMS, o.latencyMS...)
	s.lagMS = append(s.lagMS, o.lagMS...)
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// openLoop ships a phase at a fixed offered rate (readings/s across both
// connections). Each connection's batch k is due at start + (readings before
// it)/(its share of the rate); it is sent at its due time or, if the
// previous POST on that connection is still out, as soon as that returns.
// Latency runs from the due time, so a stall also counts against every
// batch queued behind it; how late the generator sent is the lag.
func openLoop(ps [numConns]*poster, ph *phase, rate float64) *shipStats {
	total := &shipStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for c := range ps {
		bs := ph.batches[c]
		connReadings := 0
		for _, b := range bs {
			connReadings += b.n
		}
		if connReadings == 0 {
			continue
		}
		connRate := rate * float64(connReadings) / float64(ph.readings)
		wg.Add(1)
		go func(p *poster, bs []batch) {
			defer wg.Done()
			st := &shipStats{}
			cum := 0
			for _, b := range bs {
				due := start.Add(time.Duration(float64(cum) / connRate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				o, err := p.post(b.body)
				acked := time.Now()
				st.add(o, b.n, err)
				st.latencyMS = append(st.latencyMS, float64(acked.Sub(due))/1e6)
				st.lagMS = append(st.lagMS, float64(sent.Sub(due))/1e6)
				cum += b.n
			}
			mu.Lock()
			total.merge(st)
			mu.Unlock()
		}(ps[c], bs)
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	return total
}

// throughputInterval is the bucket the closed-loop throughput is measured
// over; the reported figure is the median bucket, so the ramp and short
// host stalls drop out.
const throughputInterval = 100 * time.Millisecond

// closedLoop ships a phase as fast as the SUT acknowledges: each
// connection sends its next batch when the previous one is acknowledged.
func closedLoop(ps [numConns]*poster, ph *phase) *shipStats {
	total := &shipStats{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range ps {
		wg.Add(1)
		go func(c int, p *poster, bs []batch) {
			defer wg.Done()
			st := &shipStats{}
			acks := make([]ack, 0, len(bs))
			for _, b := range bs {
				o, err := p.post(b.body)
				st.add(o, b.n, err)
				acks = append(acks, ack{at: time.Now(), n: o.Accepted})
			}
			mu.Lock()
			total.merge(st)
			total.acks[c] = acks
			mu.Unlock()
		}(c, ps[c], ph.batches[c])
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	total.intervalRPS = intervalRates(start, total.acks, throughputInterval)
	return total
}

// intervalRates measures throughput in fixed intervals from start, up to the
// moment the first connection ran out of traffic (after that the load is no
// longer saturating). Within an interval the rate runs from its first
// acknowledgement to its last, so it is not quantised to whole batches. The
// first interval (connection ramp) is dropped.
func intervalRates(start time.Time, acks [numConns][]ack, width time.Duration) []float64 {
	var end time.Time
	var all []ack
	for _, as := range acks {
		if len(as) == 0 {
			continue
		}
		if last := as[len(as)-1].at; end.IsZero() || last.Before(end) {
			end = last
		}
		all = append(all, as...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].at.Before(all[j].at) })
	full := int(end.Sub(start) / width)
	var out []float64
	for k := min(1, full-1); k < full; k++ {
		lo, hi := start.Add(time.Duration(k)*width), start.Add(time.Duration(k+1)*width)
		var first, last time.Time
		n := 0
		for _, a := range all {
			if a.at.Before(lo) || !a.at.Before(hi) {
				continue
			}
			if first.IsZero() {
				first = a.at // readings acked by the first ack predate the span
			} else {
				n += a.n
			}
			last = a.at
		}
		if span := last.Sub(first); n > 0 && span > 0 {
			out = append(out, float64(n)/span.Seconds())
		}
	}
	return out
}
