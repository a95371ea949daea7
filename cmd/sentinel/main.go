// Command sentinel runs the error/attack detector over a sensor trace and
// prints the diagnosis: the network-level attack analysis, per-sensor error
// diagnoses, the recovered correct Markov model of the environment, and the
// estimated HMM emission matrices.
//
// Usage:
//
//	sentinel [flags] trace.csv
//	gdigen -days 14 -fault stuck | sentinel -
//	gdigen -days 14 -fault stuck | sentinel -metrics-addr :9090 -hold 1m -
//	sentinel -listen :8080 -tcp :9000                      # streaming server
//	gdigen -days 14 -fault stuck -stream | sentinel -listen :8080 -
//
// The trace must be in the gdigen CSV schema
// (time_seconds,sensor,temperature,humidity).
//
// With -metrics-addr the run is observable while it executes: /metrics
// serves the pipeline counters and per-stage latency histograms in
// Prometheus text format, /metrics.json and /debug/vars the same as JSON,
// /healthz a liveness probe, and /debug/pprof the standard profiles. With
// -events every window's decision record is also written as one NDJSON
// object — the schema -audit-log and /debug/decisions use (see
// docs/OBSERVABILITY.md).
//
// With -listen sentinel becomes a streaming server: live NDJSON or
// binary-frame readings arrive over HTTP POST /ingest and/or a TCP socket
// (-tcp), are sharded by deployment key across -shards detector workers,
// and live diagnoses are served from GET /report/{deployment}. See
// docs/SERVING.md for wire formats, watermark semantics, and the
// backpressure policy.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sensorguard"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sentinel:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, out, errOut io.Writer) error {
	fs := flag.NewFlagSet("sentinel", flag.ContinueOnError)
	states := fs.Int("states", 6, "number of initial model states (k-means over the first day)")
	seed := fs.Int64("seed", 1, "random seed for the initial clustering")
	window := fs.Duration("window", time.Hour, "observation window duration w")
	matrices := fs.Bool("matrices", true, "print the B^CO and B^CE matrices")
	dot := fs.Bool("dot", false, "print the correct Markov model in Graphviz dot form")
	asJSON := fs.Bool("json", false, "emit the report as JSON instead of text")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /healthz, /debug/vars, and /debug/pprof on this address while processing")
	eventsPath := fs.String("events", "", "stream one NDJSON decision record per window to this file (\"-\" = stderr)")
	hold := fs.Duration("hold", 0, "keep serving -metrics-addr this long after the report (0 = exit immediately)")
	listen := fs.String("listen", "", "serve mode: accept live NDJSON or binary-frame readings over HTTP on this address (POST /ingest, GET /report/{deployment}, /metrics)")
	tcpAddr := fs.String("tcp", "", "serve mode: also accept NDJSON or binary-frame readings on this TCP address")
	shards := fs.Int("shards", 4, "serve mode: detector worker shards")
	queueLen := fs.Int("queue", 1024, "serve mode: per-shard queue length")
	overflow := fs.String("overflow", "block", "serve mode: full-queue policy, block (backpressure) or drop (shed + count)")
	lateness := fs.Duration("lateness", 0, "serve mode: watermark lateness bound for out-of-order readings (0 = one window)")
	bootstrap := fs.Duration("bootstrap", 24*time.Hour, "serve mode: leading event time buffered per deployment to seed model states")
	ckptDir := fs.String("checkpoint-dir", "", "serve mode: journal accepted readings and checkpoint detector state under this directory (see docs/RESILIENCE.md)")
	ckptInterval := fs.Duration("checkpoint-interval", 0, "serve mode: wall-clock checkpoint cadence (default 1m when -checkpoint-dir is set and -checkpoint-every is 0)")
	ckptEvery := fs.Int("checkpoint-every", 0, "serve mode: checkpoint after this many applied readings per shard (0 = interval only)")
	doRecover := fs.Bool("recover", false, "serve mode: restore state from -checkpoint-dir (newest valid checkpoint + journal replay) before serving; without it a -checkpoint-dir that already holds state is refused")
	traces := fs.Int("traces", 64, "serve mode: retain this many recent traces on /debug/traces (0 disables tracing)")
	traceSample := fs.Int("trace-sample", 16, "serve mode: sample one listener-rooted trace per this many ingest batches")
	decisions := fs.Int("decisions", 256, "serve mode: retain this many decision records per deployment on /debug/decisions/{deployment} (0 disables)")
	auditLog := fs.String("audit-log", "", "serve mode: append every decision record as NDJSON to this file (\"-\" = stderr)")
	tsdbRetention := fs.Duration("tsdb-retention", 15*time.Minute, "serve mode: retain historical metrics this long on /metrics/range (0 disables the time-series store)")
	tsdbResolution := fs.Duration("tsdb-resolution", time.Second, "serve mode: historical metric sampling interval")
	profileDir := fs.String("profile-dir", "", "serve mode: capture CPU/heap/goroutine profiles into this directory, served on /debug/profiles (empty disables)")
	profileInterval := fs.Duration("profile-interval", 0, "serve mode: periodic profile capture cadence (0 = capture only when an SLO alert fires)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *listen != "" {
		if fs.NArg() > 1 {
			return fmt.Errorf("usage: sentinel -listen addr [flags] [ndjson-file | -]")
		}
		if *ckptDir == "" && (*doRecover || *ckptInterval != 0 || *ckptEvery != 0) {
			return fmt.Errorf("-recover, -checkpoint-interval, and -checkpoint-every need -checkpoint-dir")
		}
		if *profileDir == "" && *profileInterval != 0 {
			return fmt.Errorf("-profile-interval needs -profile-dir")
		}
		// Zero means "default" or "off" for these; a negative value would
		// silently mean the same, so it is refused by name.
		for _, f := range []struct {
			name string
			neg  bool
			v    any
		}{
			{"traces", *traces < 0, *traces},
			{"trace-sample", *traceSample < 0, *traceSample},
			{"decisions", *decisions < 0, *decisions},
			{"tsdb-retention", *tsdbRetention < 0, *tsdbRetention},
			{"tsdb-resolution", *tsdbResolution < 0, *tsdbResolution},
			{"profile-interval", *profileInterval < 0, *profileInterval},
		} {
			if f.neg {
				return fmt.Errorf("-%s must not be negative, got %v", f.name, f.v)
			}
		}
		return runServe(serveOptions{
			listen:       *listen,
			tcp:          *tcpAddr,
			shards:       *shards,
			queueLen:     *queueLen,
			overflow:     *overflow,
			lateness:     *lateness,
			bootstrap:    *bootstrap,
			window:       *window,
			states:       *states,
			seed:         *seed,
			asJSON:       *asJSON,
			source:       fs.Arg(0),
			ckptDir:      *ckptDir,
			ckptInterval: *ckptInterval,
			ckptEvery:    *ckptEvery,
			recover:      *doRecover,
			traces:       *traces,
			traceSample:  *traceSample,
			decisions:    *decisions,
			auditLog:     *auditLog,

			tsdbRetention:   *tsdbRetention,
			tsdbResolution:  *tsdbResolution,
			profileDir:      *profileDir,
			profileInterval: *profileInterval,
		}, stdin, out, errOut)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sentinel [flags] <trace.csv | ->")
	}
	if *hold > 0 && *metricsAddr == "" {
		return fmt.Errorf("-hold needs -metrics-addr")
	}

	var metrics *sensorguard.MetricsRegistry
	var events *sensorguard.DecisionLog
	if *metricsAddr != "" {
		metrics = sensorguard.NewMetricsRegistry()
	}
	if *eventsPath != "" {
		w := errOut
		if *eventsPath != "-" {
			f, err := os.Create(*eventsPath)
			if err != nil {
				return fmt.Errorf("events file: %w", err)
			}
			defer f.Close()
			w = f
		}
		events = sensorguard.NewDecisionLog(w)
	}
	if metrics != nil {
		srv, err := sensorguard.ServeMetrics(*metricsAddr, metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		logger(errOut).Info("serving metrics", "url", "http://"+srv.Addr()+"/metrics")
	}

	var in io.Reader
	if fs.Arg(0) == "-" {
		in = stdin
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	tr, err := sensorguard.ReadTraceCSV(in)
	if err != nil {
		return err
	}
	if len(tr.Readings) == 0 {
		return fmt.Errorf("empty trace")
	}

	// Seed the model states from the first day, as in the paper's setup.
	var firstDay []sensorguard.Reading
	dayEnd := tr.Readings[0].Time + 24*time.Hour
	for _, r := range tr.Readings {
		if r.Time < dayEnd {
			firstDay = append(firstDay, r)
		}
	}
	seeds, err := sensorguard.InitialStatesFromReadings(firstDay, *states, *seed)
	if err != nil {
		return fmt.Errorf("seed states: %w", err)
	}

	cfg := sensorguard.DefaultConfig(seeds)
	cfg.Window = *window
	cfg.Metrics = metrics
	if events != nil {
		cfg.Decisions = events
	}
	det, err := sensorguard.NewDetector(cfg)
	if err != nil {
		return err
	}
	if _, err := det.ProcessTrace(tr.Readings); err != nil {
		return err
	}
	if events != nil {
		if err := events.Err(); err != nil {
			return fmt.Errorf("event stream: %w", err)
		}
	}
	rep, err := det.Report()
	if err != nil {
		return err
	}

	if *asJSON {
		data, err := rep.MarshalIndentJSON()
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(out, string(data)); err != nil {
			return err
		}
	} else {
		printReport(out, det, rep, *matrices, *dot)
	}
	if *hold > 0 {
		logger(errOut).Info("holding metrics endpoint", "hold", hold.String())
		time.Sleep(*hold)
	}
	return nil
}

// logger builds the process-wide structured logger: JSON lines on the
// diagnostic stream, tagged component=sentinel. Reports still go to stdout
// untouched — only operational chatter is structured.
func logger(errOut io.Writer) *slog.Logger {
	return sensorguard.NewLogger(errOut, slog.LevelInfo, "sentinel")
}

func printReport(out io.Writer, det *sensorguard.Detector, rep sensorguard.Report, matrices, dot bool) {
	fmt.Fprintf(out, "windows processed: %d (skipped %d)\n", det.Steps(), det.SkippedWindows())
	fmt.Fprintf(out, "anomaly detected:  %v\n", rep.Detected)
	fmt.Fprintf(out, "overall diagnosis: %v\n", rep.Overall())
	fmt.Fprintf(out, "network analysis:  %v (confidence %.2f)\n", rep.Network.Kind, rep.Network.Confidence)
	for _, v := range rep.Network.RowViolations {
		if v.I != v.J {
			fmt.Fprintf(out, "  deleted-state evidence: states %d,%d share observables (dot %.2f)\n", v.I, v.J, v.Dot)
		}
	}
	for _, v := range rep.Network.ColViolations {
		fmt.Fprintf(out, "  created-state evidence: observables %d,%d share a hidden state (dot %.2f)\n", v.I, v.J, v.Dot)
	}
	if len(rep.Suspects) > 0 {
		fmt.Fprintf(out, "open tracks:       sensors %v\n", rep.Suspects)
	}
	if q := det.Quarantined(); len(q) > 0 {
		fmt.Fprintf(out, "quarantined:       sensors %v\n", q)
	}

	ids := make([]int, 0, len(rep.Sensors))
	for id := range rep.Sensors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		d := rep.Sensors[id]
		fmt.Fprintf(out, "sensor %d: %v (confidence %.2f)", id, d.Kind, d.Confidence)
		if d.Kind == sensorguard.KindStuckAt {
			if attrs, ok := det.StateAttributes()[d.StuckState]; ok {
				fmt.Fprintf(out, " at %v", attrs)
			}
		}
		if d.Kind == sensorguard.KindCalibration && len(d.Ratio.Mean) > 0 {
			fmt.Fprintf(out, " ratio %s", formatVec(d.Ratio.Mean))
		}
		if d.Kind == sensorguard.KindAdditive && len(d.Diff.Mean) > 0 {
			fmt.Fprintf(out, " offset %s", formatVec(negate(d.Diff.Mean)))
		}
		fmt.Fprintln(out)
	}

	fmt.Fprintln(out, "\ncorrect environment model M_C:")
	attrs := det.StateAttributes()
	mc := det.CorrectChain()
	occ := mc.StationaryOccupancy()
	stateIDs := mc.IDs()
	sort.Slice(stateIDs, func(i, j int) bool { return occ[stateIDs[i]] > occ[stateIDs[j]] })
	for _, id := range stateIDs {
		if occ[id] < 0.01 {
			continue
		}
		fmt.Fprintf(out, "  state %v  occupancy %.2f\n", attrs[id], occ[id])
	}
	for _, t := range mc.Transitions(0.05) {
		fmt.Fprintf(out, "  %v -> %v  p=%.2f\n", attrs[t.From], attrs[t.To], t.Prob)
	}

	if matrices {
		co := det.ModelCO()
		fmt.Fprintln(out, "\nB^CO (hidden correct states x observable states):")
		printMatrix(out, co.HiddenIDs, co.SymbolIDs, co.B, attrs)
		for _, id := range det.TrackedSensors() {
			if ce, ok := det.ModelCE(id); ok {
				fmt.Fprintf(out, "\nB^CE sensor %d:\n", id)
				printMatrix(out, ce.HiddenIDs, ce.SymbolIDs, ce.B, attrs)
			}
		}
	}
	if dot {
		fmt.Fprintln(out, "\n"+mc.Dot(labelMap(attrs), 0.05))
	}
}

func printMatrix(out io.Writer, hidden, symbols []int, m interface {
	Rows() int
	Cols() int
	At(int, int) float64
}, attrs map[int]sensorguard.Vector) {
	label := func(id int) string {
		if v, ok := attrs[id]; ok {
			return v.String()
		}
		if id < 0 {
			return "⊥"
		}
		return "s" + strconv.Itoa(id)
	}
	fmt.Fprintf(out, "%12s", "")
	for _, id := range symbols {
		fmt.Fprintf(out, "%12s", label(id))
	}
	fmt.Fprintln(out)
	for i, hid := range hidden {
		fmt.Fprintf(out, "%12s", label(hid))
		for j := range symbols {
			fmt.Fprintf(out, "%12.3f", m.At(i, j))
		}
		fmt.Fprintln(out)
	}
}

func labelMap(attrs map[int]sensorguard.Vector) map[int]string {
	out := make(map[int]string, len(attrs))
	for id, v := range attrs {
		out[id] = v.String()
	}
	return out
}

func formatVec(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

func negate(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}
