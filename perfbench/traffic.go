package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
)

// The common traffic: 64 deployments, each with its own synthetic GDI trace
// (paper defaults: 10 motes, 5-minute sampling, 12% loss), merged in
// event-time order and shipped in 500-reading POSTs over two connections.
const (
	numDeployments = 64
	traceDays      = 6
	batchSize      = 500 // ingest.Shipper's default batch
	numConns       = 2
	// sutShards is sentinel's default -shards. Connections are split by
	// the shard a deployment routes to, so every shard is fed by exactly
	// one connection and its arrival order — hence its journal and its
	// checkpoints — does not depend on how the two connections interleave.
	sutShards = 4
	// warmupEnd bounds the warm-up traffic: one hour past the collector's
	// 24 h bootstrap horizon, so every deployment has run its k-means and
	// stepped its first windows before anything is timed.
	warmupEnd = 25 * time.Hour
	// fixedShare is the percentage of the post-warm-up traffic shipped at
	// the fixed rate; the saturating phase takes the rest. Saturated
	// throughput runs at 2–3 times the fixed rates, so this gives both
	// phases about the same time.
	fixedShare = 30
)

func depName(i int) string { return "dep-" + strconv.Itoa(i) }

// depSeed derives deployment d's trace seed from the workload seed.
func depSeed(seed int64, d int) int64 { return seed*1_000_003 + int64(d) + 1 }

// shardOf mirrors the collector's deployment routing: FNV-1a over the key,
// modulo the shard count.
func shardOf(dep string, shards int) int {
	h := uint32(2166136261)
	for i := 0; i < len(dep); i++ {
		h ^= uint32(dep[i])
		h *= 16777619
	}
	return int(h % uint32(shards))
}

func connOf(dep string) int { return shardOf(dep, sutShards) % numConns }

// traffic is one seed's readings. perDep holds each deployment's stream in
// order, Seq-stamped 1..n; streams holds each connection's merge of its
// deployments in event-time order (a deployment's own order is kept).
type traffic struct {
	perDep  [][]ingest.Reading
	streams [numConns][]ingest.Reading
}

func generateTraffic(seed int64, days int) (*traffic, error) {
	t := &traffic{perDep: make([][]ingest.Reading, numDeployments)}
	for d := range t.perDep {
		cfg := gdi.DefaultGenerateConfig()
		cfg.Days = days
		cfg.Seed = depSeed(seed, d)
		tr, err := gdi.Generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", depName(d), err)
		}
		name := depName(d)
		rs := make([]ingest.Reading, len(tr.Readings))
		for i, r := range tr.Readings {
			rs[i] = ingest.Reading{Deployment: name, Seq: uint64(i + 1), Reading: r}
		}
		t.perDep[d] = rs
	}
	for c := range t.streams {
		var deps [][]ingest.Reading
		for d, rs := range t.perDep {
			if connOf(depName(d)) == c {
				deps = append(deps, rs)
			}
		}
		t.streams[c] = mergeByTime(deps)
	}
	return t, nil
}

// mergeByTime merges per-deployment streams by event time. Ties go to the
// lower stream index, and each stream's own order is kept even where its
// timestamps are not monotone.
func mergeByTime(streams [][]ingest.Reading) []ingest.Reading {
	n := 0
	for _, s := range streams {
		n += len(s)
	}
	out := make([]ingest.Reading, 0, n)
	pos := make([]int, len(streams))
	for len(out) < n {
		best := -1
		for i, s := range streams {
			if pos[i] == len(s) {
				continue
			}
			if best < 0 || s[pos[i]].Time < streams[best][pos[best]].Time {
				best = i
			}
		}
		out = append(out, streams[best][pos[best]])
		pos[best]++
	}
	return out
}

// plan splits the traffic into phases and encodes them in codec. Every
// plan starts with the warm-up: each connection's readings before 25 h of
// event time. An ingest plan splits the rest into a fixed-rate phase
// (fixedShare percent) and a saturating phase. A crash plan (recover) first
// takes each shard's crash prefix — its first crashPerShard readings — and
// splits what is left the same way.
func (tr *traffic) plan(codec string, crashPlan bool) (map[string]*phase, error) {
	var warmEnd, suffixLen [numConns]int
	for c, st := range tr.streams {
		warmEnd[c] = len(st)
		for i, r := range st {
			if r.Time >= warmupEnd {
				warmEnd[c] = i
				break
			}
		}
	}
	var names []string
	var assign func(c, i int, r ingest.Reading) int
	if !crashPlan {
		names = []string{"warmup", "fixed", "saturated"}
		assign = func(c, i int, _ ingest.Reading) int {
			switch {
			case i < warmEnd[c]:
				return 0
			case i-warmEnd[c] < (len(tr.streams[c])-warmEnd[c])*fixedShare/100:
				return 1
			default:
				return 2
			}
		}
	} else {
		// The crash prefix is each shard's first crashPerShard readings.
		perShard := make([]int, sutShards)
		inPrefix := func(r ingest.Reading) bool {
			s := shardOf(r.Deployment, sutShards)
			perShard[s]++
			return perShard[s] <= crashPerShard
		}
		crash := make([][]bool, numConns)
		for c, st := range tr.streams {
			crash[c] = make([]bool, len(st))
			for i, r := range st {
				crash[c][i] = inPrefix(r)
				if i < warmEnd[c] && !crash[c][i] {
					return nil, fmt.Errorf("crash prefix of %d readings per shard ends inside the warm-up", crashPerShard)
				}
				if !crash[c][i] {
					suffixLen[c]++
				}
			}
		}
		for s, n := range perShard {
			if n < crashPerShard {
				return nil, fmt.Errorf("shard %d has only %d readings, crash prefix needs %d", s, n, crashPerShard)
			}
		}
		names = []string{"warmup", "crash", "fixed", "saturated"}
		var seen [numConns]int
		assign = func(c, i int, _ ingest.Reading) int {
			switch {
			case i < warmEnd[c]:
				return 0
			case crash[c][i]:
				return 1
			}
			seen[c]++
			if seen[c] <= suffixLen[c]*fixedShare/100 {
				return 2
			}
			return 3
		}
	}
	phases, err := tr.split(codec, names, assign)
	if err != nil {
		return nil, err
	}
	out := map[string]*phase{}
	for _, p := range phases {
		out[p.name] = p
	}
	return out, nil
}

// phase is one timed or untimed stretch of traffic, pre-encoded per
// connection. Nothing is encoded while a phase is being shipped.
type phase struct {
	name     string
	batches  [numConns][]batch
	readings int
}

type batch struct {
	body []byte
	n    int
}

// split assigns every reading of every connection stream to a phase index
// in [0, len(names)) and encodes each connection's share of each phase, in
// stream order, as 500-reading batches in the given codec. assign must be
// monotone along each deployment's stream (a deployment's readings never
// go back to an earlier phase), so every deployment stays in order.
func (t *traffic) split(codec string, names []string, assign func(c, i int, r ingest.Reading) int) ([]*phase, error) {
	phases := make([]*phase, len(names))
	for p := range phases {
		phases[p] = &phase{name: names[p]}
	}
	for c, stream := range t.streams {
		parts := make([][]ingest.Reading, len(names))
		for i, r := range stream {
			p := assign(c, i, r)
			parts[p] = append(parts[p], r)
		}
		for p, rs := range parts {
			bs, err := encodeBatches(codec, rs)
			if err != nil {
				return nil, err
			}
			phases[p].batches[c] = bs
			phases[p].readings += len(rs)
		}
	}
	return phases, nil
}

// encodeBatches renders readings as batchSize-reading POST bodies, byte for
// byte what ingest.Shipper sends: NDJSON lines each ending in '\n', or one
// binary frame per batch.
func encodeBatches(codec string, rs []ingest.Reading) ([]batch, error) {
	var out []batch
	var enc ingest.FrameEncoder
	var buf bytes.Buffer
	for i := 0; i < len(rs); i += batchSize {
		chunk := rs[i:min(i+batchSize, len(rs))]
		var body []byte
		switch codec {
		case ingest.WireBinary:
			enc.Reset()
			for _, r := range chunk {
				enc.Add(r)
			}
			frame, err := enc.Frame()
			if err != nil {
				return nil, err
			}
			body = append([]byte(nil), frame...)
		case ingest.WireNDJSON:
			buf.Reset()
			for _, r := range chunk {
				line, err := ingest.EncodeLine(r)
				if err != nil {
					return nil, err
				}
				buf.Write(line)
				buf.WriteByte('\n')
			}
			body = append([]byte(nil), buf.Bytes()...)
		default:
			return nil, fmt.Errorf("unknown codec %q", codec)
		}
		out = append(out, batch{body: body, n: len(chunk)})
	}
	return out, nil
}
