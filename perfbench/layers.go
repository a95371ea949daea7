package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/fleet"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/sensor"
)

// probeBatches bounds the in-process probes that time one call per batch:
// the first probeBatches batches after the warm-up.
const probeBatches = 300

// decodedBatch is one POST body with the readings it decodes to.
type decodedBatch struct {
	body     []byte
	readings []ingest.Reading
}

// decodeAll turns the named phases' bodies back into readings, connection
// by connection, in phase order — each deployment's readings stay in order.
func decodeAll(codec string, phases map[string]*phase, names ...string) ([]decodedBatch, error) {
	var out []decodedBatch
	for _, name := range names {
		ph := phases[name]
		for c := range ph.batches {
			for _, bt := range ph.batches[c] {
				rs, err := decodeBody(codec, bt.body)
				if err != nil {
					return nil, err
				}
				if len(rs) != bt.n {
					return nil, fmt.Errorf("phase %s: body decodes to %d readings, want %d", name, len(rs), bt.n)
				}
				out = append(out, decodedBatch{body: bt.body, readings: rs})
			}
		}
	}
	return out, nil
}

// decodeBody decodes one POST body with the codec's public decoder.
func decodeBody(codec string, body []byte) ([]ingest.Reading, error) {
	if codec == ingest.WireBinary {
		rs, rejected, err := ingest.DecodeFrame(body)
		if err == nil && rejected > 0 {
			err = fmt.Errorf("frame rejected %d readings", rejected)
		}
		return rs, err
	}
	var out []ingest.Reading
	for _, line := range bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n")) {
		r, err := ingest.DecodeLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func readingsIn(bs []decodedBatch) int {
	n := 0
	for _, b := range bs {
		n += len(b.readings)
	}
	return n
}

// layerMetrics is the traced run: the SUT-side metrics of its round plus
// every in-process probe, with spans written to <workdir>/traces/.
func (b *bench) layerMetrics(rounds []*roundResult, calibBefore, calibAfter float64) (map[string]metric, error) {
	m := map[string]metric{}
	r := rounds[0]
	r.sutSide.metrics(m)
	lat := append([]float64(nil), r.fixed.latencyMS...)
	sort.Float64s(lat)
	m["post.ack_p90_ms"] = metric{sortedQuantile(lat, 0.90), "ms"}
	m["post.ack_p99_ms"] = metric{sortedQuantile(lat, 0.99), "ms"}
	m["post.ack_count"] = metric{float64(len(lat)), "count"}
	m["gen.lag_p99_ms"] = metric{quantile(r.fixed.lagMS, 0.99), "ms"}
	m["host.calib_before_ms"] = metric{calibBefore, "ms"}
	m["host.calib_after_ms"] = metric{calibAfter, "ms"}
	m["host.calib_ms"] = metric{median(b.calib), "ms"}
	m["fleet.shard_skew"] = metric{r.sutSide.skew, "ratio"}

	rec := newRecorder()
	names := []string{"warmup", "fixed", "saturated"}
	if b.w.recover {
		names = []string{"warmup", "crash", "fixed", "saturated"}
	}
	all, err := decodeAll(b.w.codec, b.phases, names...)
	if err != nil {
		return nil, err
	}
	warm := len(b.phases["warmup"].batches[0]) + len(b.phases["warmup"].batches[1])
	sample := all[warm:min(len(all), warm+probeBatches)]

	decodeNS := probeDecode(rec, b.w.codec, sample, m)
	probeStream(rec, sample, decodeNS, m)
	submitNS, _, err := probeSubmit(rec, b.o.workdir, all[:warm], sample, false)
	if err != nil {
		return nil, err
	}
	durableNS, journalBytes, err := probeSubmit(rec, b.o.workdir, all[:warm], sample, true)
	if err != nil {
		return nil, err
	}
	m["submit.ns_per_reading"] = metric{submitNS, "ns"}
	m["journal_append.ns_per_reading"] = metric{durableNS - submitNS, "ns"}
	m["journal_append.bytes_per_reading"] = metric{journalBytes, "B"}
	if err := b.probeHandler(rec, all[:warm], sample, m); err != nil {
		return nil, err
	}
	dets, err := b.probePipeline(rec, all, m)
	if err != nil {
		return nil, err
	}
	if err := probeCheckpoint(rec, dets, m); err != nil {
		return nil, err
	}
	if err := b.probeRecovery(rec, m); err != nil {
		return nil, err
	}
	self, count := selfTimes(rec.spans)
	b.writeTrace(rec, self, count, m)
	return m, nil
}

// probeDecode times the codec's public decoder on each sample body.
func probeDecode(rec *recorder, codec string, sample []decodedBatch, m map[string]metric) float64 {
	var busy time.Duration
	bytesIn := 0
	for i, bt := range sample {
		id := rec.begin(traceDecode+i, 0, "ingest_decode")
		t0 := time.Now()
		_, _ = decodeBody(codec, bt.body)
		busy += time.Since(t0)
		rec.end(id)
		bytesIn += len(bt.body)
	}
	n := float64(readingsIn(sample))
	ns := float64(busy.Nanoseconds()) / n
	m["ingest_decode.ns_per_reading"] = metric{ns, "ns"}
	m["ingest_decode.bytes_per_reading"] = metric{float64(bytesIn) / n, "B"}
	return ns
}

// discard is a BatchConsumer that accepts and forgets everything.
type discard struct{}

func (discard) Submit(ingest.Reading) error { return nil }
func (discard) SubmitBatch(rs []ingest.Reading) (int, int, error) {
	return len(rs), 0, nil
}

// probeStream times ingest.ReadWireStream — codec sniffing, framing and
// decode — into a discarding consumer; decode's share is taken off.
func probeStream(rec *recorder, sample []decodedBatch, decodeNS float64, m map[string]metric) {
	var busy time.Duration
	for i, bt := range sample {
		id := rec.begin(traceStream+i, 0, "ingest_stream")
		t0 := time.Now()
		_, _ = ingest.ReadWireStream(bytes.NewReader(bt.body), discard{}, ingest.StreamOptions{})
		busy += time.Since(t0)
		rec.end(id)
	}
	ns := float64(busy.Nanoseconds())/float64(readingsIn(sample)) - decodeNS
	m["ingest_stream.ns_per_reading"] = metric{ns, "ns"}
}

// Trace-id ranges, one per probe, so ids never collide across probes.
const (
	traceDecode   = 1_000_000
	traceStream   = 2_000_000
	traceSubmit   = 3_000_000
	traceDurable  = 4_000_000
	traceHandler  = 5_000_000
	tracePipeline = 6_000_000
	traceState    = 7_000_000
	traceRecovery = 8_000_000
)

// waitIdle waits until the pool's shard queues are empty, so the next timed
// call measures the layer itself rather than backpressure from the workers.
func waitIdle(p *fleet.Pool) {
	for p.Health().QueueSaturation > 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// probeSubmit times fleet.Pool.SubmitBatch on each sample batch, into
// queues with room, on a pool configured like the SUT (metrics on, four
// shards), and returns ns per reading. The durable pool journals every
// reading but never checkpoints during the probe, so the directory's growth
// is journal bytes alone; it returns that per reading too.
func probeSubmit(rec *recorder, workdir string, warm, sample []decodedBatch, durable bool) (ns, journalBytes float64, err error) {
	cfg := fleet.Config{Shards: sutShards, Metrics: obs.NewRegistry()}
	name, trace := "submit_probe", traceSubmit
	var dir string
	if durable {
		if dir, err = freshDir(workdir, "probe-journal"); err != nil {
			return 0, 0, err
		}
		defer os.RemoveAll(dir)
		cfg.Durability = fleet.Durability{Dir: dir, EveryN: 1 << 40}
		name, trace = "submit_probe.durable", traceDurable
	}
	p, err := fleet.New(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer p.Drain()
	for _, bt := range warm {
		if _, _, err := p.SubmitBatch(bt.readings); err != nil {
			return 0, 0, err
		}
	}
	waitIdle(p)
	bytes0 := dirBytes(dir)
	var busy time.Duration
	for i, bt := range sample {
		id := rec.begin(trace+i, 0, name)
		t0 := time.Now()
		acc, _, err := p.SubmitBatch(bt.readings)
		busy += time.Since(t0)
		rec.end(id)
		if err != nil || acc != len(bt.readings) {
			return 0, 0, fmt.Errorf("%s: accepted %d of %d: %v", name, acc, len(bt.readings), err)
		}
		waitIdle(p)
	}
	n := float64(readingsIn(sample))
	return float64(busy.Nanoseconds()) / n, float64(dirBytes(dir)-bytes0) / n, nil
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// timedConsumer forwards to the pool and records a "submit" span, child of
// the handler span in flight, around every call the handler makes into it.
// The client goroutine sets the trace before each request and the server
// goroutine reads it, so the fields sit behind mu.
type timedConsumer struct {
	pool *fleet.Pool
	rec  *recorder

	mu            sync.Mutex
	trace, parent int
	submit        time.Duration // time inside the pool
	handler       time.Duration // time inside the handler
}

func (c *timedConsumer) span() (rec *recorder, trace, parent int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec, c.trace, c.parent
}

func (c *timedConsumer) setSpan(trace, parent int) {
	c.mu.Lock()
	c.trace, c.parent = trace, parent
	c.mu.Unlock()
}

func (c *timedConsumer) add(submit, handler time.Duration) {
	c.mu.Lock()
	c.submit += submit
	c.handler += handler
	c.mu.Unlock()
}

func (c *timedConsumer) Submit(r ingest.Reading) error {
	rec, trace, parent := c.span()
	id := rec.begin(trace, parent, "submit")
	t0 := time.Now()
	err := c.pool.Submit(r)
	c.add(time.Since(t0), 0)
	rec.end(id)
	return err
}

func (c *timedConsumer) SubmitBatch(rs []ingest.Reading) (int, int, error) {
	rec, trace, parent := c.span()
	id := rec.begin(trace, parent, "submit")
	t0 := time.Now()
	acc, drop, err := c.pool.SubmitBatch(rs)
	c.add(time.Since(t0), 0)
	rec.end(id)
	return acc, drop, err
}

// probeHandler serves the collector's POST /ingest handler in-process on
// loopback — ingest.IngestHandlerStaged over a pool configured like the
// SUT, the handler fleet.Handler mounts on that route — behind a timing
// middleware, and POSTs each sample body over one connection into idle
// queues. Spans: the client's "post", its child "http_handler", and the
// handler's "submit" calls into the pool below that. The handler's self
// time is stream framing, decode and the response; the POST's self time is
// transport. Decode's part is read from the pool's ingest_decode stage
// clock, which the handler feeds.
func (b *bench) probeHandler(rec *recorder, warm, sample []decodedBatch, m map[string]metric) error {
	reg := obs.NewRegistry()
	cfg := fleet.Config{Shards: sutShards, Metrics: reg}
	if b.w.durable {
		dir, err := freshDir(b.o.workdir, "probe-handler")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		cfg.Durability = fleet.Durability{Dir: dir, EveryN: checkpointEvery}
	}
	p, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	defer p.Drain()
	tc := &timedConsumer{pool: p}
	route := ingest.IngestHandlerStaged(tc, nil, p.DecodeClock())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ingest", func(w http.ResponseWriter, r *http.Request) {
		rec, trace, parent := tc.span()
		id := rec.begin(trace, parent, "http_handler")
		tc.setSpan(trace, id)
		t0 := time.Now()
		route(w, r)
		tc.add(0, time.Since(t0))
		rec.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	post := newPoster("http://"+ln.Addr().String(), b.w.codec)
	defer post.close()
	for _, bt := range warm {
		if _, err := post.post(bt.body); err != nil {
			return err
		}
	}
	waitIdle(p)
	// Time the sample only: reset the totals and start recording spans.
	tc.mu.Lock()
	tc.submit, tc.handler, tc.rec = 0, 0, rec
	tc.mu.Unlock()
	decodeClock := reg.Counter(fmt.Sprintf("%s{stage=%q}", stageBusyMetric, fleet.StageDecode), "")
	decode0 := decodeClock.Value()
	var total time.Duration
	for i, bt := range sample {
		trace := traceHandler + i
		root := rec.begin(trace, 0, "post")
		tc.setSpan(trace, root)
		t0 := time.Now()
		st, err := post.post(bt.body)
		total += time.Since(t0)
		rec.end(root)
		if err != nil || st.Accepted != len(bt.readings) {
			return fmt.Errorf("in-process POST: accepted %d of %d: %v", st.Accepted, len(bt.readings), err)
		}
		waitIdle(p)
	}
	decodeBusy := time.Duration(decodeClock.Value() - decode0)
	tc.mu.Lock()
	submitBusy, handlerBusy := tc.submit, tc.handler
	tc.mu.Unlock()
	posts := float64(len(sample))
	perPost := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / posts }
	m["http_handler.us_per_post"] = metric{perPost(handlerBusy), "us"}
	m["http_handler.transport_us_per_post"] = metric{perPost(total - handlerBusy), "us"}
	m["http_handler.submit_us_per_post"] = metric{perPost(submitBusy), "us"}
	m["http_handler.decode_us_per_post"] = metric{perPost(decodeBusy), "us"}
	// What the handler spent beyond its submits and decode — stream
	// framing and the response — is the unattributed remainder.
	m["http_handler.unattributed_share"] = metric{
		1 - float64(submitBusy+decodeBusy)/float64(handlerBusy), "share"}
	return nil
}

// replica is one deployment in the in-process pipeline: the collector's
// per-deployment work (bootstrap buffer, k-means, windower, detector) done
// by the benchmark through the layers' public calls.
type replica struct {
	pending []sensor.Reading
	first   time.Duration
	started bool
	wd      *ingest.Windower
	det     *core.Detector
}

// pipelineStats are the in-process pipeline's per-layer figures.
type pipelineStats struct {
	admit, bootstrap time.Duration
	readings, wins   int
	boots            int
	steps            []float64 // µs per Detector.Step
	wall             time.Duration
}

// runPipeline pushes every batch through the replica pipeline: window
// admission for the batch's readings (k-means bootstrap inside it when a
// deployment crosses its 24 h horizon), then one Detector.Step per window
// the batch closed. With a nil recorder it records no spans.
func runPipeline(rec *recorder, all []decodedBatch) (map[string]*replica, *pipelineStats, error) {
	reps := map[string]*replica{}
	st := &pipelineStats{}
	type pendingWin struct {
		r *replica
		w network.Window
	}
	var wins []pendingWin
	start := time.Now()
	for i, bt := range all {
		trace := tracePipeline + i
		root := rec.begin(trace, 0, "batch")
		aid := rec.begin(trace, root, "window_admit")
		t0 := time.Now()
		var boot time.Duration
		wins = wins[:0]
		for _, r := range bt.readings {
			rp := reps[r.Deployment]
			if rp == nil {
				rp = &replica{}
				reps[r.Deployment] = rp
			}
			if rp.det == nil {
				if !rp.started {
					rp.started, rp.first = true, r.Time
				}
				if r.Time < rp.first+refBootstrap {
					rp.pending = append(rp.pending, r.Reading)
					continue
				}
				bid := rec.begin(trace, aid, "bootstrap")
				b0 := time.Now()
				err := rp.bootstrap()
				boot += time.Since(b0)
				rec.end(bid)
				if err != nil {
					return nil, nil, fmt.Errorf("bootstrap %s: %w", r.Deployment, err)
				}
				st.boots++
				for _, pr := range rp.pending {
					for _, w := range rp.wd.Add(pr) {
						wins = append(wins, pendingWin{rp, w})
					}
				}
				st.readings += len(rp.pending)
				rp.pending = nil
			}
			for _, w := range rp.wd.Add(r.Reading) {
				wins = append(wins, pendingWin{rp, w})
			}
			st.readings++
		}
		st.admit += time.Since(t0) - boot
		st.bootstrap += boot
		rec.end(aid)
		for _, pw := range wins {
			if err := st.step(rec, trace, root, pw.r, pw.w); err != nil {
				return nil, nil, err
			}
		}
		rec.end(root)
	}
	for name, rp := range reps {
		if rp.det == nil {
			if err := rp.bootstrap(); err != nil {
				return nil, nil, fmt.Errorf("bootstrap %s: %w", name, err)
			}
			for _, pr := range rp.pending {
				for _, w := range rp.wd.Add(pr) {
					if err := st.step(nil, 0, 0, rp, w); err != nil {
						return nil, nil, err
					}
				}
			}
			rp.pending = nil
		}
		for _, w := range rp.wd.Flush() {
			if err := st.step(nil, 0, 0, rp, w); err != nil {
				return nil, nil, err
			}
		}
	}
	st.wall = time.Since(start)
	return reps, st, nil
}

func (st *pipelineStats) step(rec *recorder, trace, parent int, rp *replica, w network.Window) error {
	id := rec.begin(trace, parent, "detector_step")
	t0 := time.Now()
	_, err := rp.det.Step(w)
	d := time.Since(t0)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("window %d: %w", w.Index, err)
	}
	st.steps = append(st.steps, float64(d.Nanoseconds())/1e3)
	st.wins++
	return nil
}

// bootstrap seeds the replica's detector by k-means over its buffered
// first 24 h, as the collector's shard worker does.
func (rp *replica) bootstrap() error {
	pts := bootstrapPoints(sensorToIngest(rp.pending))
	seeds, err := cluster.KMeans(pts, refStates, rand.New(rand.NewSource(refSeed)), 100)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig(seeds)
	cfg.Window = refWindow
	if rp.det, err = core.NewDetector(cfg); err != nil {
		return err
	}
	rp.wd, err = ingest.NewWindower(refWindow, refWindow)
	return err
}

func sensorToIngest(rs []sensor.Reading) []ingest.Reading {
	out := make([]ingest.Reading, len(rs))
	for i, r := range rs {
		out[i].Reading = r
	}
	return out
}

// probePipeline runs the replica pipeline twice — untraced, then traced —
// checks its reports against the offline reference, and reports the admit,
// step and bootstrap layers plus the tracing overhead.
func (b *bench) probePipeline(rec *recorder, all []decodedBatch, m map[string]metric) (map[string]*replica, error) {
	plain, plainSt, err := runPipeline(nil, all)
	if err != nil {
		return nil, err
	}
	bad := 0
	for name, rp := range plain {
		rep, err := rp.det.Report()
		if err != nil {
			return nil, err
		}
		data, err := rep.MarshalIndentJSON()
		if err != nil {
			return nil, err
		}
		got, err := compactJSON(data)
		if err != nil || !bytes.Equal(got, b.ref[name]) {
			bad++
		}
	}
	b.attempted++
	if bad > 0 {
		b.failed++
	}
	b.check(bad == 0, "in-process pipeline: %d deployments differ from the offline reference", bad)

	spans := rec.len()
	reps, st, err := runPipeline(rec, all)
	if err != nil {
		return nil, err
	}
	spans = rec.len() - spans
	// The tracing overhead is what the traced pass's spans cost — as many
	// spans recorded again on a spare recorder — over the untraced pass's
	// time. Subtracting the two passes' times cannot measure it: on a shared
	// host passes vary by ±20%, and the spans cost about 1%.
	m["trace.overhead_share"] = metric{spanCost(spans).Seconds() / plainSt.wall.Seconds(), "share"}
	n := float64(st.readings)
	m["window_admit.ns_per_reading"] = metric{float64(plainSt.admit.Nanoseconds()) / n, "ns"}
	m["window_admit.windows_per_kreading"] = metric{float64(plainSt.wins) / n * 1000, "count"}
	steps := append([]float64(nil), plainSt.steps...)
	sort.Float64s(steps)
	m["detector_step.p50_us"] = metric{sortedQuantile(steps, 0.50), "us"}
	m["detector_step.p99_us"] = metric{sortedQuantile(steps, 0.99), "us"}
	m["detector_step.count"] = metric{float64(len(steps)), "count"}
	m["bootstrap.ms_per_deployment"] = metric{plainSt.bootstrap.Seconds() * 1e3 / float64(plainSt.boots), "ms"}
	allocs, err := stepAllocs(all)
	if err != nil {
		return nil, err
	}
	m["detector_step.allocs"] = metric{allocs, "count"}
	return reps, nil
}

// spanCost times recording n spans on a spare recorder.
func spanCost(n int) time.Duration {
	spare := newRecorder()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		spare.end(spare.begin(i, 0, "span"))
	}
	return time.Since(t0)
}

// stepAllocs measures Detector.Step's steady-state heap allocations: it
// rebuilds dep-0's detector over its stream, then steps the same windows
// again under testing.AllocsPerRun.
func stepAllocs(all []decodedBatch) (float64, error) {
	var rs []ingest.Reading
	for _, bt := range all {
		for _, r := range bt.readings {
			if r.Deployment == depName(0) {
				rs = append(rs, r)
			}
		}
	}
	det, err := bootstrapDetector(rs)
	if err != nil {
		return 0, err
	}
	readings := make([]sensor.Reading, len(rs))
	for i, r := range rs {
		readings[i] = r.Reading
	}
	wins, err := network.WindowAll(readings, refWindow)
	if err != nil {
		return 0, err
	}
	next := 0
	var stepErr error
	step := func() {
		w := wins[next%len(wins)]
		w.Index = next
		next++
		if _, err := det.Step(w); err != nil && stepErr == nil {
			stepErr = err
		}
	}
	for range wins {
		step()
	}
	allocs := testing.AllocsPerRun(len(wins), step)
	return allocs, stepErr
}

// probeCheckpoint snapshots every pipeline detector the way a checkpoint
// does (core.Detector.Snapshot, JSON-encoded), then restores each snapshot
// with core.RestoreDetector.
func probeCheckpoint(rec *recorder, reps map[string]*replica, m map[string]metric) error {
	names := make([]string, 0, len(reps))
	for name := range reps {
		names = append(names, name)
	}
	sort.Strings(names)
	var snapT, restoreT time.Duration
	total := 0
	for i, name := range names {
		id := rec.begin(traceState+i, 0, "checkpoint")
		t0 := time.Now()
		snap, err := reps[name].det.Snapshot()
		if err != nil {
			return err
		}
		data, err := json.Marshal(snap)
		if err != nil {
			return err
		}
		snapT += time.Since(t0)
		rec.end(id)
		total += len(data)

		id = rec.begin(traceState+i, 0, "recovery.restore")
		t0 = time.Now()
		var back core.Snapshot
		if err := json.Unmarshal(data, &back); err != nil {
			return err
		}
		cfg := core.DefaultConfig(nil)
		cfg.Window = refWindow
		if _, err := core.RestoreDetector(cfg, &back); err != nil {
			return fmt.Errorf("restore %s: %w", name, err)
		}
		restoreT += time.Since(t0)
		rec.end(id)
	}
	n := float64(len(names))
	m["checkpoint.ms_per_deployment"] = metric{snapT.Seconds() * 1e3 / n, "ms"}
	m["checkpoint.bytes"] = metric{float64(total) / n, "B"}
	m["recovery.restore_ms_per_deployment"] = metric{restoreT.Seconds() * 1e3 / n, "ms"}
	return nil
}

// probeRecovery builds a crash image with the real SUT and recovers it
// in-process with fleet.New; replay is what the recovery took beyond
// restoring the deployments.
func (b *bench) probeRecovery(rec *recorder, m map[string]metric) error {
	dir, err := freshDir(b.o.workdir, "probe-crash")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	if err := b.crashImage(dir, &roundResult{}); err != nil {
		return err
	}
	id := rec.begin(traceRecovery, 0, "recovery")
	t0 := time.Now()
	p, err := fleet.New(fleet.Config{
		Shards:     sutShards,
		Metrics:    obs.NewRegistry(),
		Durability: fleet.Durability{Dir: dir, EveryN: checkpointEvery, Recover: true},
	})
	elapsed := time.Since(t0)
	rec.end(id)
	if err != nil {
		return err
	}
	p.Drain()
	restore := time.Duration(m["recovery.restore_ms_per_deployment"].Value * numDeployments * float64(time.Millisecond))
	m["recovery.replay_ns_per_reading"] = metric{float64((elapsed - restore).Nanoseconds()) / float64(replayedPerRecovery()), "ns"}
	return nil
}

// writeTrace writes the spans and a self-time summary to <workdir>/traces/.
func (b *bench) writeTrace(rec *recorder, self map[string]time.Duration, count map[string]int, m map[string]metric) {
	dir := filepath.Join(b.o.workdir, "traces")
	base := fmt.Sprintf("%s-seed%d", b.w.name, b.o.seed)
	path, err := rec.write(dir, base+".spans.jsonl")
	if err != nil {
		fmt.Fprintln(b.log, "perfbench: spans:", err)
		return
	}
	type row struct {
		Span   string  `json:"span"`
		Count  int     `json:"count"`
		SelfMS float64 `json:"self_ms"`
	}
	var rows []row
	for name, d := range self {
		rows = append(rows, row{name, count[name], float64(d.Microseconds()) / 1e3})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfMS > rows[j].SelfMS })
	summary, _ := json.MarshalIndent(struct {
		SelfTimes []row             `json:"self_times"`
		Metrics   map[string]metric `json:"metrics"`
	}{rows, m}, "", "  ")
	_ = os.WriteFile(filepath.Join(dir, base+".summary.json"), summary, 0o644)
	fmt.Fprintf(b.log, "perfbench: %d spans in %s\n", len(rec.spans), path)
	for _, r := range rows {
		fmt.Fprintf(b.log, "  %-20s %8d spans %10.1f ms self\n", r.Span, r.Count, r.SelfMS)
	}
}
