// Command sgbench is the hot-path benchmark harness: it generates a
// synthetic GDI trace, encodes it as NDJSON (the ingest wire format), and
// replays it through a real fleet.Pool — decode, shard routing, streaming
// windower, detector step — measuring end-to-end ingest throughput and
// per-window detector latency, plus the allocation count of a bare
// Detector.Step. Results land in a JSON report (BENCH_hotpath.json in CI)
// so the numbers travel with the commit that produced them.
//
// Usage:
//
//	sgbench [flags]
//
// Examples:
//
//	sgbench -out BENCH_hotpath.json
//	sgbench -days 2 -passes 50 -shards 1,4,16 -out -
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/cluster"
	"sensorguard/internal/core"
	"sensorguard/internal/fleet"
	"sensorguard/internal/gdi"
	"sensorguard/internal/ingest"
	"sensorguard/internal/network"
	"sensorguard/internal/obs"
	"sensorguard/internal/obs/profiles"
	"sensorguard/internal/vecmat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sgbench:", err)
		os.Exit(1)
	}
}

type options struct {
	days        int
	deployments int
	passes      int
	shards      string
	seed        int64
	out         string
	record      string // trajectory file to append a summary entry to
	commit      string // commit id recorded with -record; default git HEAD
	convert     string // existing report to summarize instead of benching
	profileDir  string // capture profiles of the largest-shard replay here
	maxprocs    int    // GOMAXPROCS override; 0 leaves the runtime default
}

// report is the JSON document sgbench emits. Every latency is in
// microseconds; throughput is readings per second of wall time.
type report struct {
	GOOS        string       `json:"goos"`
	GOARCH      string       `json:"goarch"`
	CPUs        int          `json:"cpus"`
	TraceDays   int          `json:"trace_days"`
	Deployments int          `json:"deployments"`
	Passes      int          `json:"passes"`
	LineBytes   int          `json:"ndjson_bytes_per_pass"`
	FrameBytes  int          `json:"frame_bytes_per_pass"`
	Decode      decodeStat   `json:"ingest_decode"`
	DecodeBin   decodeStat   `json:"ingest_decode_binary"`
	Fleet       []fleetRun   `json:"fleet"`
	BareStep    bareStepStat `json:"detector_step"`
}

// decodeStat measures the NDJSON wire decode alone. It is reported
// separately from the fleet replay because decode runs on listener
// goroutines in a real deployment and scales with them independently;
// folding it into the submit loop would hide consumer backlog behind
// producer-side decode stalls and skew the throughput number.
type decodeStat struct {
	Lines     int     `json:"lines"`
	NsPerLine float64 `json:"ns_per_line"`
	LinesSec  float64 `json:"lines_per_sec"`
}

// fleetRun is one shard-count configuration's replay result.
type fleetRun struct {
	Shards         int     `json:"shards"`
	Readings       int     `json:"readings"`
	ElapsedSec     float64 `json:"elapsed_sec"`
	ReadingsPerSec float64 `json:"readings_per_sec"`
	Windows        uint64  `json:"windows"`
	WindowP50us    float64 `json:"window_step_p50_us"`
	WindowP99us    float64 `json:"window_step_p99_us"`
}

// bareStepStat measures Detector.Step alone — no queues, no decode — the
// component the zero-alloc work targets.
type bareStepStat struct {
	AllocsPerOp float64 `json:"allocs_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
}

func run(args []string, out, errOut io.Writer) error {
	var o options
	fs := flag.NewFlagSet("sgbench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.IntVar(&o.days, "days", 2, "generated trace length in days")
	fs.IntVar(&o.deployments, "deployments", 16, "deployment keys the replay spreads readings over")
	fs.IntVar(&o.passes, "passes", 60, "replay passes over the trace per fleet run (each pass shifts event time forward)")
	fs.StringVar(&o.shards, "shards", "1,4,16", "comma-separated shard counts to benchmark")
	fs.Int64Var(&o.seed, "seed", 1, "trace and bootstrap seed")
	fs.StringVar(&o.out, "out", "BENCH_hotpath.json", "report path (- for stdout)")
	fs.StringVar(&o.record, "record", "", "append a summary entry to this trajectory file (see bench/trajectory.json)")
	fs.StringVar(&o.commit, "commit", "", "commit id stamped on the -record entry (default: git rev-parse HEAD)")
	fs.StringVar(&o.convert, "convert", "", "summarize an existing report into a -record entry instead of benchmarking")
	fs.StringVar(&o.profileDir, "profile-dir", "", "capture CPU/heap/goroutine profiles of the largest-shard replay into this ring directory")
	fs.IntVar(&o.maxprocs, "maxprocs", 0, "override GOMAXPROCS for the run (recorded as the report's cpus; 0 = runtime default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.convert != "" {
		if o.record == "" {
			return fmt.Errorf("-convert needs -record")
		}
		rep, err := loadReport(o.convert)
		if err != nil {
			return err
		}
		return emitSummaries(rep, o)
	}
	if o.days <= 0 || o.deployments <= 0 || o.passes <= 0 {
		return fmt.Errorf("-days, -deployments, and -passes must be positive")
	}
	if o.maxprocs < 0 {
		return fmt.Errorf("-maxprocs must be non-negative")
	}
	if o.maxprocs > 0 {
		runtime.GOMAXPROCS(o.maxprocs)
	}
	shardCounts, err := parseShards(o.shards)
	if err != nil {
		return err
	}
	var prof *profiles.Capturer
	if o.profileDir != "" {
		prof, err = profiles.New(profiles.Config{Dir: o.profileDir})
		if err != nil {
			return err
		}
	}

	cfg := gdi.DefaultGenerateConfig()
	cfg.Days = o.days
	cfg.Seed = o.seed
	tr, err := gdi.Generate(cfg)
	if err != nil {
		return err
	}
	if len(tr.Readings) == 0 {
		return fmt.Errorf("generated trace is empty")
	}

	lines, lineBytes, err := encodeTrace(tr, o.deployments)
	if err != nil {
		return err
	}

	rep := report{
		GOOS:   runtime.GOOS,
		GOARCH: runtime.GOARCH,
		// The effective parallelism of the run: NumCPU normally, the
		// -maxprocs override when set (how a multi-core trajectory entry is
		// recorded from a constrained box).
		CPUs:        runtime.GOMAXPROCS(0),
		TraceDays:   o.days,
		Deployments: o.deployments,
		Passes:      o.passes,
		LineBytes:   lineBytes,
	}
	log := obs.NewLogger(errOut, slog.LevelInfo, "sgbench")
	decoded := make([]ingest.Reading, len(lines))
	rep.Decode, err = measureDecode(lines, decoded)
	if err != nil {
		return err
	}
	log.Info("ingest decode",
		"ns_per_line", rep.Decode.NsPerLine, "lines_per_sec", rep.Decode.LinesSec)

	// The same readings through the binary codec: one columnar frame per 500
	// readings (the shipper's default batch), decoded whole. Reported next to
	// the NDJSON stat so the report carries both codecs on the same trace.
	frames, frameBytes, err := encodeTraceFrames(decoded)
	if err != nil {
		return err
	}
	rep.FrameBytes = frameBytes
	rep.DecodeBin, err = measureDecodeBinary(frames, len(decoded))
	if err != nil {
		return err
	}
	log.Info("ingest decode (binary)",
		"ns_per_line", rep.DecodeBin.NsPerLine, "lines_per_sec", rep.DecodeBin.LinesSec,
		"bytes_per_pass", frameBytes)

	span := tr.Readings[len(tr.Readings)-1].Time + time.Hour
	for _, shards := range shardCounts {
		var fr fleetRun
		if prof != nil && shards == shardCounts[len(shardCounts)-1] {
			// Profile the largest configuration: that's the one whose flame
			// graph answers "where does the ingest hot path spend its time".
			prof.CaptureAround(fmt.Sprintf("sgbench-shards-%d", shards), func() {
				fr, err = replayFleet(decoded, shards, o.passes, span, o.seed)
			})
		} else {
			fr, err = replayFleet(decoded, shards, o.passes, span, o.seed)
		}
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		log.Info("fleet replay",
			"shards", shards, "readings_per_sec", fr.ReadingsPerSec,
			"window_step_p50_us", fr.WindowP50us, "window_step_p99_us", fr.WindowP99us)
		rep.Fleet = append(rep.Fleet, fr)
	}

	rep.BareStep, err = measureBareStep(tr, o.seed)
	if err != nil {
		return err
	}
	log.Info("detector step",
		"ns_per_op", rep.BareStep.NsPerOp, "allocs_per_op", rep.BareStep.AllocsPerOp)

	if err := writeReport(rep, o.out, out); err != nil {
		return err
	}
	return emitSummaries(rep, o)
}

// emitSummaries handles the -record output for a report, whether freshly
// benched or loaded via -convert.
func emitSummaries(rep report, o options) error {
	if o.record == "" {
		return nil
	}
	e, err := trajectoryEntryFrom(rep, resolveCommit(o.commit), time.Now())
	if err != nil {
		return err
	}
	return appendTrajectory(o.record, e)
}

// encodeTrace renders the trace once as NDJSON lines, deployment keys
// stamped round-robin so every shard of a multi-shard pool stays busy. The
// replay decodes these lines each pass — the same wire path the listener
// feeds the pool from.
func encodeTrace(tr gdi.Trace, deployments int) ([][]byte, int, error) {
	lines := make([][]byte, len(tr.Readings))
	total := 0
	for i, r := range tr.Readings {
		line, err := ingest.EncodeLine(ingest.Reading{
			Deployment: "dep-" + strconv.Itoa(i%deployments),
			Reading:    r,
		})
		if err != nil {
			return nil, 0, err
		}
		lines[i] = line
		total += len(line) + 1
	}
	return lines, total, nil
}

// encodeTraceFrames renders the decoded trace as binary frames of 500
// readings each — the shipper's default batch size, so the measured decode
// matches what a -wire=binary producer actually puts on the wire.
func encodeTraceFrames(decoded []ingest.Reading) ([][]byte, int, error) {
	const batch = 500
	var frames [][]byte
	total := 0
	var enc ingest.FrameEncoder
	for i := 0; i < len(decoded); i += batch {
		end := min(i+batch, len(decoded))
		enc.Reset()
		for _, r := range decoded[i:end] {
			enc.Add(r)
		}
		frame, err := enc.Frame()
		if err != nil {
			return nil, 0, err
		}
		frames = append(frames, append([]byte(nil), frame...))
		total += len(frame)
	}
	return frames, total, nil
}

// measureDecodeBinary times the binary frame decode over the whole trace,
// mirroring measureDecode so the two stats are directly comparable
// (lines == readings).
func measureDecodeBinary(frames [][]byte, lines int) (decodeStat, error) {
	const repeats = 5
	start := time.Now()
	for rep := 0; rep < repeats; rep++ {
		for _, f := range frames {
			if _, _, err := ingest.DecodeFrame(f); err != nil {
				return decodeStat{}, err
			}
		}
	}
	elapsed := time.Since(start)
	n := repeats * lines
	return decodeStat{
		Lines:     lines,
		NsPerLine: float64(elapsed.Nanoseconds()) / float64(n),
		LinesSec:  float64(n) / elapsed.Seconds(),
	}, nil
}

// measureDecode times the NDJSON decode over every line, filling decoded as
// a side effect (the fleet replay reuses the decoded readings). Several
// repeats amortise timer noise on short traces.
func measureDecode(lines [][]byte, decoded []ingest.Reading) (decodeStat, error) {
	const repeats = 5
	start := time.Now()
	for rep := 0; rep < repeats; rep++ {
		for i, line := range lines {
			r, err := ingest.DecodeLine(line)
			if err != nil {
				return decodeStat{}, err
			}
			decoded[i] = r
		}
	}
	elapsed := time.Since(start)
	n := repeats * len(lines)
	return decodeStat{
		Lines:     len(lines),
		NsPerLine: float64(elapsed.Nanoseconds()) / float64(n),
		LinesSec:  float64(n) / elapsed.Seconds(),
	}, nil
}

// replayFleet benchmarks one shard count in two runs over a fresh pool
// each. The throughput run is uninstrumented — the same workload shape as
// the fleet ingest benchmark, so its readings/sec is directly comparable to
// BenchmarkIngestThroughput. The latency run (a quarter of the passes)
// installs a detector metrics registry to capture the per-window step
// histogram; stage
// instrumentation costs real time per window, which is why it stays out of
// the throughput run.
func replayFleet(decoded []ingest.Reading, shards, passes int, span time.Duration, seed int64) (fleetRun, error) {
	fr := fleetRun{Shards: shards}

	pool, err := fleet.New(fleet.Config{Shards: shards, Seed: seed})
	if err != nil {
		return fleetRun{}, err
	}
	start := time.Now()
	fr.Readings, err = submitPasses(pool, decoded, passes, span)
	if err != nil {
		return fleetRun{}, err
	}
	pool.Drain()
	elapsed := time.Since(start)
	fr.ElapsedSec = elapsed.Seconds()
	fr.ReadingsPerSec = float64(fr.Readings) / elapsed.Seconds()

	reg := obs.NewRegistry()
	pool, err = fleet.New(fleet.Config{
		Shards: shards,
		Seed:   seed,
		NewDetector: func(seeds []vecmat.Vector) (*core.Detector, error) {
			ccfg := core.DefaultConfig(seeds)
			ccfg.Window = time.Hour
			ccfg.Metrics = reg
			return core.NewDetector(ccfg)
		},
	})
	if err != nil {
		return fleetRun{}, err
	}
	if _, err := submitPasses(pool, decoded, max(passes/4, 1), span); err != nil {
		return fleetRun{}, err
	}
	pool.Drain()
	snap := reg.Histogram("sensorguard_step_seconds", "", obs.LatencyBuckets()).Snapshot()
	fr.Windows = snap.Count
	fr.WindowP50us = quantile(snap, 0.50) * 1e6
	fr.WindowP99us = quantile(snap, 0.99) * 1e6
	return fr, nil
}

// submitPasses replays the decoded trace passes times, each pass shifted
// forward by span so event time always advances and windows keep closing.
func submitPasses(pool *fleet.Pool, decoded []ingest.Reading, passes int, span time.Duration) (int, error) {
	submitted := 0
	for pass := 0; pass < passes; pass++ {
		shift := time.Duration(pass) * span
		for _, r := range decoded {
			r.Reading.Time += shift
			if err := pool.Submit(r); err != nil {
				return submitted, err
			}
			submitted++
		}
	}
	return submitted, nil
}

// quantile estimates the q-quantile of a bucketed histogram by linear
// interpolation inside the bucket holding the target rank (the
// histogram_quantile estimator). Samples in the +Inf bucket clamp to the
// highest finite bound.
func quantile(s obs.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var seen float64
	for i, c := range s.Counts {
		seen += float64(c)
		if seen < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - (seen - float64(c))) / float64(c)
		return lo + frac*(hi-lo)
	}
	return s.Bounds[len(s.Bounds)-1]
}

// measureBareStep builds one detector the way the paper's evaluation does
// (k-means over the first day) and measures Step alone on pre-built windows:
// steady-state allocations per call and mean latency. This is the number the
// zero-alloc regression test pins at 0.
func measureBareStep(tr gdi.Trace, seed int64) (bareStepStat, error) {
	var points []vecmat.Vector
	for _, r := range tr.Readings {
		if r.Time < 24*time.Hour {
			points = append(points, r.Values)
		}
	}
	seeds, err := cluster.KMeans(points, 6, rand.New(rand.NewSource(seed)), 100)
	if err != nil {
		return bareStepStat{}, err
	}
	ccfg := core.DefaultConfig(seeds)
	ccfg.Window = time.Hour
	det, err := core.NewDetector(ccfg)
	if err != nil {
		return bareStepStat{}, err
	}
	wins, err := network.WindowAll(tr.Readings, time.Hour)
	if err != nil {
		return bareStepStat{}, err
	}
	next := 0
	step := func() error {
		w := wins[next%len(wins)]
		w.Index = next
		next++
		_, err := det.Step(w)
		return err
	}
	// Warm-up: one full replay lets scratch buffers, tracks, and model
	// states reach steady state before anything is counted.
	for range wins {
		if err := step(); err != nil {
			return bareStepStat{}, err
		}
	}
	var stat bareStepStat
	var stepErr error
	stat.AllocsPerOp = testing.AllocsPerRun(400, func() {
		if err := step(); err != nil && stepErr == nil {
			stepErr = err
		}
	})
	if stepErr != nil {
		return bareStepStat{}, stepErr
	}
	const timedOps = 2000
	start := time.Now()
	for i := 0; i < timedOps; i++ {
		if err := step(); err != nil {
			return bareStepStat{}, err
		}
	}
	stat.NsPerOp = float64(time.Since(start).Nanoseconds()) / timedOps
	return stat, nil
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad shard count %q", p)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-shards is empty")
	}
	sort.Ints(out)
	return out, nil
}

func writeReport(rep report, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
