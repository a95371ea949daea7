// Command perfbench is sensorguard's end-to-end and per-layer benchmark. It
// launches the real collector (`sentinel -listen`, default serve flags) as
// the system under test, replays pre-encoded traffic into it over loopback
// from this process, checks every report the collector prints against an
// offline reference, and prints one JSON result line.
//
//	perfbench -sentinel path/to/sentinel -workdir dir \
//	    --workload binary-ingest --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is the traced run: the
// per-layer metrics, with spans written to <workdir>/traces/. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sensorguard/internal/ingest"
)

// workload is one traffic mix; see README.md for why each exists.
type workload struct {
	name    string
	codec   string
	durable bool
	rate    float64 // fixed-rate phase, offered readings/s
	recover bool
}

var workloads = []workload{
	{name: "ndjson-ingest", codec: ingest.WireNDJSON, rate: 150_000},
	{name: "binary-ingest", codec: ingest.WireBinary, rate: 500_000},
	{name: "recover", codec: ingest.WireBinary, durable: true, rate: 120_000, recover: true},
}

const (
	// checkpointEvery is the durable SUT's -checkpoint-every: count-based,
	// so the checkpoints a run takes do not depend on its speed.
	checkpointEvery = 20_000
	// crashPerShard is how many readings of each shard the crash image
	// holds: checkpoints at one and two checkpointEvery (the first lies in
	// the warm-up) and a journal tail of 0.95 checkpoint intervals behind
	// the second.
	crashPerShard = 3*checkpointEvery - checkpointEvery/20
	minRounds     = 3
	maxRounds     = 20
	// recoveriesPerRound is how many recoveries every round times from
	// copies of a crash image. On recover the last one goes on to serve the
	// traffic; an ingest round times them after its own SUT has stopped.
	recoveriesPerRound = 2
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sentinel string
	workdir  string
}

func main() {
	// Stop the SUT on the way out, whichever way that is.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(2)
	}()
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	killAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	var o options
	var traceFlag int
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	flags.StringVar(&o.workload, "workload", "", "workload name")
	flags.Int64Var(&o.seed, "seed", 1, "traffic seed")
	flags.Float64Var(&o.seconds, "seconds", 10, "timed seconds per run (rounds repeat until reached)")
	flags.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flags.StringVar(&o.sentinel, "sentinel", "", "path to the sentinel binary under test")
	flags.StringVar(&o.workdir, "workdir", "", "working directory for checkpoints and traces")
	if err := flags.Parse(args); err != nil {
		return err
	}
	o.trace = traceFlag == 1
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.sentinel == "" || o.workdir == "" {
		return errors.New("-sentinel and -workdir are required")
	}
	if _, err := os.Stat(o.sentinel); err != nil {
		return err
	}
	b, err := newBench(o, *w, stderr)
	if err != nil {
		return err
	}
	res, err := b.run()
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run: a workload, its pre-encoded traffic and reference.
type bench struct {
	o      options
	w      workload
	log    io.Writer
	phases map[string]*phase
	ref    map[string][]byte
	// crash holds the warm-up and crash-prefix phases, binary-encoded,
	// that crashImage ships.
	crash map[string]*phase
	// depReadings is each deployment's reading count.
	depReadings map[string]int

	attempted, failed int
	problems          []string
	calib             []float64 // host calibration samples, ms
	// recoveries holds every recovery of a crash image the run timed.
	recoveries []recovery
}

// roundResult is what one SUT lifetime measured.
type roundResult struct {
	setupS           float64
	cpuUSPerReading  float64  // over the fixed-rate phase
	heap             memStats // the SUT's, after the round
	timed            time.Duration
	fixed, saturated *shipStats
	sutSide          *sutSample // traced run only
}

// recovery is one timed `sentinel -recover` on a copy of the crash image.
type recovery struct {
	ready           time.Duration // launch to the first 200 on GET /deployments
	cpuUSPerReading float64       // its CPU by then, per journal reading replayed
}

func newBench(o options, w workload, log io.Writer) (*bench, error) {
	b := &bench{o: o, w: w, log: log}
	t0 := time.Now()
	tr, err := generateTraffic(o.seed, traceDays)
	if err != nil {
		return nil, err
	}
	if b.phases, err = tr.plan(w.codec, w.recover); err != nil {
		return nil, err
	}
	if w.recover {
		b.crash = b.phases
	} else if b.crash, err = tr.plan(ingest.WireBinary, true); err != nil {
		return nil, err
	}
	b.depReadings = map[string]int{}
	for d, rs := range tr.perDep {
		b.depReadings[depName(d)] = len(rs)
	}
	b.ref, err = referenceReports(tr.perDep)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "perfbench: %s seed %d: traffic, encoding and reference in %.2fs\n",
		w.name, o.seed, time.Since(t0).Seconds())
	return b, nil
}

// replayedPerRecovery is how many journal readings a recovery from the
// crash image replays: per shard, the tail behind its checkpoint at
// floor(crashPerShard/checkpointEvery) intervals.
func replayedPerRecovery() int { return sutShards * (crashPerShard % checkpointEvery) }

func (b *bench) sutArgs(dir string) []string {
	if !b.w.durable {
		return nil
	}
	return durableArgs(dir)
}

func durableArgs(dir string) []string {
	return []string{"-checkpoint-dir", dir, "-checkpoint-every", strconv.Itoa(checkpointEvery)}
}

func (b *bench) run() (*result, error) {
	calibBefore := calibrate()
	// An ingest workload gets its recovery_s from the crash image the
	// recover workload uses, built once here. It times recoveries after
	// every round, so the samples spread over the run as the rounds do.
	var image string
	if !b.w.recover && !b.o.trace {
		var err error
		if image, err = freshDir(b.o.workdir, "crash-image"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(image)
		if err := b.crashImage(image, &roundResult{}); err != nil {
			return nil, err
		}
	}
	// Drop everything but the encoded bodies before timing, so the
	// generator's own GC does not compete with the SUT.
	runtime.GC()
	debug.FreeOSMemory()

	var rounds []*roundResult
	var timed time.Duration
	for len(rounds) < maxRounds && (len(rounds) < minRounds || timed.Seconds() < b.o.seconds) {
		var r *roundResult
		var err error
		if b.w.recover {
			r, err = b.recoverRound()
		} else {
			r, err = b.ingestRound()
		}
		for i := 0; err == nil && image != "" && i < recoveriesPerRound; i++ {
			var ready time.Duration
			ready, err = b.bareRecovery(image)
			r.timed += ready
		}
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", len(rounds), err)
		}
		rounds = append(rounds, r)
		timed += r.timed
		fmt.Fprintf(b.log, "perfbench: round %d: setup %.3fs ack p50 %.3fms of %d throughput %.0f/s heap %.2fMiB cpu %.3fus/reading; "+
			"noise: generator lag p99 %.3fms, SUT %d GCs and %.0f MiB allocated over its lifetime\n",
			len(rounds)-1, r.setupS, median(r.fixed.latencyMS), len(r.fixed.latencyMS), median(r.saturated.intervalRPS),
			r.heap.heapMB(), r.cpuUSPerReading, quantile(r.fixed.lagMS, 0.99), r.heap.NumGC, float64(r.heap.TotalAlloc)/(1<<20))
		if b.o.trace {
			break // one SUT round feeds the traced run's SUT-side metrics
		}
	}
	calibAfter := calibrate()
	var metrics map[string]metric
	if b.o.trace {
		var err error
		if metrics, err = b.layerMetrics(rounds, calibBefore, calibAfter); err != nil {
			return nil, err
		}
	} else {
		measured := endToEnd(rounds, b.recoveries, b.w.recover)
		speed := calibRefMS / median(b.calib)
		metrics = atReferenceSpeed(measured, speed)
		fmt.Fprintf(b.log, "perfbench: host ran at %.3f of the reference speed; as measured: %s\n", speed, formatMetrics(measured))
	}
	for i, rc := range b.recoveries {
		fmt.Fprintf(b.log, "perfbench: recovery %d: ready %.3fs cpu %.3fus/reading replayed\n",
			i, rc.ready.Seconds(), rc.cpuUSPerReading)
	}
	for _, p := range b.problems {
		fmt.Fprintln(b.log, "perfbench: check failed:", p)
	}
	fmt.Fprintf(b.log, "perfbench: %d rounds, %.1fs timed; host calibration %.1f ms before, %.1f ms after, median %.3f ms of %d\n",
		len(rounds), timed.Seconds(), calibBefore, calibAfter, median(b.calib), len(b.calib))
	return &result{
		Correct:   len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	}, nil
}

// endToEnd reduces the run to the end-to-end metrics: medians across rounds,
// with per-POST latencies and per-interval throughput pooled, and across
// recoveries. On recover, cpu_us_per_reading is the recoveries' CPU per
// reading replayed.
func endToEnd(rounds []*roundResult, recoveries []recovery, recoverWL bool) map[string]metric {
	var setup, cpu, heap, lat, rps, ready []float64
	for _, r := range rounds {
		setup = append(setup, r.setupS)
		if !recoverWL {
			cpu = append(cpu, r.cpuUSPerReading)
		}
		heap = append(heap, r.heap.heapMB())
		lat = append(lat, r.fixed.latencyMS...)
		rps = append(rps, r.saturated.intervalRPS...)
	}
	for _, rc := range recoveries {
		ready = append(ready, rc.ready.Seconds())
		if recoverWL {
			cpu = append(cpu, rc.cpuUSPerReading)
		}
	}
	return map[string]metric{
		"throughput_rps":     {median(rps), "1/s"},
		"cpu_us_per_reading": {median(cpu), "us"},
		"ack_p50_ms":         {median(lat), "ms"},
		"setup_s":            {median(setup), "s"},
		"sut_heap_mb":        {median(heap), "MiB"},
		"recovery_s":         {median(ready), "s"},
	}
}

// calibRefMS is what calibrate takes on the reference host: a quiet 2-vCPU
// x86-64 VM, the kind the benchmark was built on.
const calibRefMS = 23.0

// atReferenceSpeed scales a run's end-to-end metrics to the reference host
// speed. On a shared host the speed the benchmark gets drifts by 10–25% over
// minutes, and can halve for a while, and every timing moves with it. So
// does calibrate, which runs no sensorguard code, so a change to the
// collector cannot move it. speed is calibRefMS over the run's median
// calibration: times are multiplied by it and throughput is divided by it.
// The heap is not a time and stays as measured.
func atReferenceSpeed(m map[string]metric, speed float64) map[string]metric {
	out := make(map[string]metric, len(m))
	for name, v := range m {
		switch name {
		case "throughput_rps":
			v.Value /= speed
		case "sut_heap_mb":
		default:
			v.Value *= speed
		}
		out[name] = v
	}
	return out
}

// formatMetrics renders metrics as name=value pairs in name order.
func formatMetrics(m map[string]metric) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, name := range names {
		fmt.Fprintf(&sb, " %s=%.6g", name, m[name].Value)
	}
	return sb.String()
}

// check records a failed output check.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// account adds a shipped phase to the attempted/failed counts and checks
// that every reading was accepted.
func (b *bench) account(ph *phase, st *shipStats) {
	b.attempted += st.posts
	b.failed += st.failed
	b.check(st.failed == 0 && st.accepted == ph.readings && st.rejected == 0 && st.dropped == 0,
		"phase %s: %d/%d POSTs failed, accepted %d of %d readings, rejected %d, dropped %d (first error: %v)",
		ph.name, st.failed, st.posts, st.accepted, ph.readings, st.rejected, st.dropped, st.firstErr)
}

// finish stops the SUT, compares its reports with the reference and
// returns the heap it held after the run.
func (b *bench) finish(s *sut, r *roundResult) error {
	ms, err := s.heap()
	if err != nil {
		return err
	}
	r.heap = ms
	if r.sutSide != nil {
		r.sutSide.after = ms
	}
	out, err := s.stop()
	if err != nil {
		return err
	}
	bad, err := compareReports(out, b.ref)
	b.attempted++
	if bad > 0 {
		b.failed++
	}
	b.check(bad == 0, "%d deployments' reports differ from the reference: %v", bad, err)
	return nil
}

func posters(base, codec string) [numConns]*poster {
	var ps [numConns]*poster
	for c := range ps {
		ps[c] = newPoster(base, codec)
	}
	return ps
}

func closeAll(ps [numConns]*poster) {
	for _, p := range ps {
		p.close()
	}
}

// ingestRound is one SUT lifetime on an ingest workload: start, warm up,
// ship the fixed-rate phase, then the saturating phase, then SIGTERM and
// check the reports.
func (b *bench) ingestRound() (r *roundResult, err error) {
	dir, err := freshDir(b.o.workdir, "ckpt")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := startSUT(b.o.sentinel, b.sutArgs(dir)...)
	if err != nil {
		return nil, err
	}
	defer s.kill()
	r = &roundResult{}
	ps := posters(s.base, b.w.codec)
	defer closeAll(ps)
	if err := b.warmup(s, ps, b.phases["warmup"], r); err != nil {
		return nil, err
	}
	if err := b.timedPhases(s, ps, r); err != nil {
		return nil, err
	}
	return r, b.finish(s, r)
}

// warmup ships the first 25 h of every deployment and waits until all of
// them have bootstrapped and the queues are empty: the end of set-up.
func (b *bench) warmup(s *sut, ps [numConns]*poster, ph *phase, r *roundResult) error {
	b.account(ph, closedLoop(ps, ph))
	if err := s.settle(numDeployments); err != nil {
		return err
	}
	r.setupS = time.Since(s.started).Seconds()
	return nil
}

// timedPhases ships the fixed-rate phase, measuring SUT CPU per reading
// over it, and the saturating phase.
func (b *bench) timedPhases(s *sut, ps [numConns]*poster, r *roundResult) error {
	b.calib = append(b.calib, calibrate())
	ph := b.phases["fixed"]
	var side *sutSample
	if b.o.trace {
		var err error
		if side, err = sampleSUT(s); err != nil {
			return err
		}
	}
	cpu0, err := readProcCPU(s.pid())
	if err != nil {
		return err
	}
	t0 := time.Now()
	r.fixed = openLoop(ps, ph, b.w.rate)
	b.account(ph, r.fixed)
	if err := s.settle(0); err != nil {
		return err
	}
	wall := time.Since(t0)
	cpu1, err := readProcCPU(s.pid())
	if err != nil {
		return err
	}
	r.cpuUSPerReading = float64((cpu1.total() - cpu0.total()).Microseconds()) / float64(ph.readings)
	if side != nil {
		if err := side.finish(s, wall, cpu1.total()-cpu0.total(), ph.readings); err != nil {
			return err
		}
		deps, err := s.status()
		if err != nil {
			return err
		}
		if side.skew, err = shardSkew(deps, b.depReadings); err != nil {
			return err
		}
		r.sutSide = side
	}
	b.calib = append(b.calib, calibrate())
	ph = b.phases["saturated"]
	r.saturated = closedLoop(ps, ph)
	b.account(ph, r.saturated)
	r.timed += r.fixed.elapsed + r.saturated.elapsed
	if err := s.settle(0); err != nil {
		return err
	}
	b.calib = append(b.calib, calibrate())
	return nil
}

// recoverCopy copies the crash image into a fresh directory, starts
// `sentinel -recover` on it and records the recovery. The caller kills the
// SUT and removes dir.
func (b *bench) recoverCopy(image string) (s *sut, dir string, err error) {
	if dir, err = freshDir(b.o.workdir, "ckpt"); err != nil {
		return nil, "", err
	}
	if err := copyTree(dir, image); err != nil {
		return nil, "", err
	}
	if s, err = startSUT(b.o.sentinel, append(durableArgs(dir), "-recover")...); err != nil {
		return nil, "", err
	}
	cpu, err := readProcCPU(s.pid())
	if err != nil {
		s.kill()
		return nil, "", err
	}
	b.recoveries = append(b.recoveries, recovery{
		ready:           s.ready.Sub(s.started),
		cpuUSPerReading: float64(cpu.total().Microseconds()) / float64(replayedPerRecovery()),
	})
	return s, dir, nil
}

// bareRecovery times one recovery of a copy of image, then crashes it
// again and returns how long it took to become ready.
func (b *bench) bareRecovery(image string) (time.Duration, error) {
	s, dir, err := b.recoverCopy(image)
	if err != nil {
		return 0, err
	}
	s.kill()
	return s.ready.Sub(s.started), os.RemoveAll(dir)
}

// copyTree copies the regular files and directories under src into dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// recoverRound builds a crash image with a durable SUT (its warm-up is the
// round's set-up) and SIGKILLs it. Then it times `sentinel -recover`, from
// launch to its first 200, on recoveriesPerRound fresh copies of the image;
// the last recovered SUT serves the rest of the traffic.
func (b *bench) recoverRound() (r *roundResult, err error) {
	image, err := freshDir(b.o.workdir, "crash-image")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(image)
	r = &roundResult{}
	if err := b.crashImage(image, r); err != nil {
		return nil, err
	}
	for i := 1; i < recoveriesPerRound; i++ {
		ready, err := b.bareRecovery(image)
		if err != nil {
			return nil, err
		}
		r.timed += ready
	}
	s, dir, err := b.recoverCopy(image)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer s.kill()
	r.timed += s.ready.Sub(s.started)
	ps := posters(s.base, b.w.codec)
	defer closeAll(ps)
	if err := b.timedPhases(s, ps, r); err != nil {
		return nil, err
	}
	return r, b.finish(s, r)
}

// crashImage runs a durable SUT over the warm-up and the rest of the crash
// prefix, waits for its queues to empty and SIGKILLs it, leaving a
// checkpoint per shard and a journal tail in dir.
func (b *bench) crashImage(dir string, r *roundResult) error {
	s, err := startSUT(b.o.sentinel, durableArgs(dir)...)
	if err != nil {
		return err
	}
	defer s.kill()
	ps := posters(s.base, ingest.WireBinary)
	defer closeAll(ps)
	if err := b.warmup(s, ps, b.crash["warmup"], r); err != nil {
		return err
	}
	ph := b.crash["crash"]
	b.account(ph, closedLoop(ps, ph))
	if err := s.settle(0); err != nil {
		return err
	}
	// Queues empty means every reading is journaled and dequeued; give the
	// workers a moment to apply the last dequeued batch.
	time.Sleep(20 * time.Millisecond)
	s.kill()
	return nil
}

// calibrate times a fixed CPU loop on every CPU at once (about 20 ms on a
// current core) and returns the mean in milliseconds: a yardstick for how
// fast the host runs right now.
func calibrate() float64 {
	n := runtime.NumCPU()
	ms := make([]float64, n)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			x := uint64(88172645463325252) + uint64(i)
			for j := 0; j < 10_000_000; j++ {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
			}
			ms[i] = float64(time.Since(start).Microseconds())/1000 + float64(x&1)*1e-9
		}(i)
	}
	wg.Wait()
	return sum(ms) / float64(n)
}
