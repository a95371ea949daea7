// Command gdigen generates synthetic Great-Duck-Island-style sensor traces
// in CSV form, optionally with faults or attacks injected. The traces feed
// cmd/sentinel or any external consumer of the schema
// (time_seconds,sensor,temperature,humidity).
//
// Usage:
//
//	gdigen [flags] > trace.csv
//
// Examples:
//
//	gdigen -days 31 -sensors 10 -seed 7 > clean.csv
//	gdigen -days 14 -fault stuck -fault-sensor 6 > stuck.csv
//	gdigen -days 21 -attack deletion -malicious 0,1,2 > attacked.csv
//
// With -stream the trace is replayed as NDJSON readings (the ingest wire
// format of docs/SERVING.md) instead of CSV, paced by -rate (a multiplier
// over real time; 0 streams as fast as possible), feeding a live collector:
//
//	gdigen -days 14 -fault stuck -stream -rate 100000 | sentinel -listen :8080 -
//
// With -post the stream is shipped over HTTP to a running sentinel instead
// of stdout, in sequence-numbered batches with exponential-backoff retries,
// so the producer rides out server restarts (see docs/RESILIENCE.md):
//
//	gdigen -days 14 -fault stuck -stream -post http://localhost:8080/ingest
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"sensorguard"
	"sensorguard/internal/ingest"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		// Fatal errors go through the structured logger like every other
		// operational event, so a supervisor tailing the producer sees one
		// JSON stream end to end.
		log := sensorguard.NewLogger(os.Stderr, slog.LevelInfo, "gdigen")
		log.Error("fatal", slog.String("error", err.Error()))
		os.Exit(1)
	}
}

type options struct {
	days        int
	sensors     int
	seed        int64
	lossProb    float64
	malformProb float64
	fault       string
	faultSensor int
	faultStart  time.Duration
	attack      string
	malicious   string
	stream      bool
	rate        float64
	deployment  string
	post        string
	postBatch   int
	postRetry   time.Duration
	wire        string
}

func run(args []string, out, errOut io.Writer) error {
	var o options
	fs := flag.NewFlagSet("gdigen", flag.ContinueOnError)
	fs.IntVar(&o.days, "days", 31, "trace length in days")
	fs.IntVar(&o.sensors, "sensors", 10, "number of motes")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.Float64Var(&o.lossProb, "loss", 0.12, "per-message loss probability")
	fs.Float64Var(&o.malformProb, "malform", 0.002, "per-message malformed-payload probability")
	fs.StringVar(&o.fault, "fault", "", "fault to inject: stuck | calibration | additive | noise | decay")
	fs.IntVar(&o.faultSensor, "fault-sensor", 6, "sensor carrying the fault")
	fs.DurationVar(&o.faultStart, "fault-start", 48*time.Hour, "fault onset")
	fs.StringVar(&o.attack, "attack", "", "attack to mount: creation | deletion | change")
	fs.StringVar(&o.malicious, "malicious", "0,1,2", "comma-separated compromised sensor IDs")
	fs.BoolVar(&o.stream, "stream", false, "replay the trace as NDJSON readings instead of writing CSV")
	fs.Float64Var(&o.rate, "rate", 0, "stream rate multiplier over real time (0 = as fast as possible)")
	fs.StringVar(&o.deployment, "deployment", "gdi", "deployment key stamped on streamed readings")
	fs.StringVar(&o.post, "post", "", "with -stream: POST the NDJSON to this ingest URL (e.g. http://localhost:8080/ingest) instead of stdout, retrying transient failures")
	fs.IntVar(&o.postBatch, "post-batch", 500, "readings per POST request in -post mode")
	fs.DurationVar(&o.postRetry, "post-retry", time.Minute, "-post mode: how long to keep retrying one batch through transient errors before giving up")
	fs.StringVar(&o.wire, "wire", ingest.WireNDJSON, "wire codec for -stream/-post: ndjson | binary (columnar frames, see docs/SERVING.md)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := o.validate(); err != nil {
		return err
	}

	cfg := sensorguard.DefaultTraceConfig()
	cfg.Days = o.days
	cfg.Sensors = o.sensors
	cfg.Seed = o.seed
	cfg.LossProb = o.lossProb
	cfg.MalformProb = o.malformProb

	var opts []sensorguard.DeploymentOption
	if o.fault != "" {
		plan, err := faultPlan(o)
		if err != nil {
			return err
		}
		opts = append(opts, sensorguard.WithFaults(plan))
	}
	if o.attack != "" {
		strat, err := attackStrategy(o)
		if err != nil {
			return err
		}
		opts = append(opts, sensorguard.WithAttack(strat))
	}

	tr, err := sensorguard.GenerateTrace(cfg, opts...)
	if err != nil {
		return err
	}
	if o.stream {
		if o.post != "" {
			return postTrace(tr, o, errOut)
		}
		if o.wire == ingest.WireBinary {
			return streamTraceBinary(out, tr, o)
		}
		return streamTrace(out, tr, o.deployment, o.rate)
	}
	return sensorguard.WriteTraceCSV(out, tr)
}

// validate rejects invalid flag values and combinations up front, before any
// trace is generated, so a misconfigured producer fails fast with every
// problem listed instead of dying mid-stream on the first one it happens to
// hit.
func (o options) validate() error {
	var errs []error
	if o.days <= 0 {
		errs = append(errs, fmt.Errorf("-days must be positive (got %d)", o.days))
	}
	if o.sensors <= 0 {
		errs = append(errs, fmt.Errorf("-sensors must be positive (got %d)", o.sensors))
	}
	if o.lossProb < 0 || o.lossProb >= 1 {
		errs = append(errs, fmt.Errorf("-loss %v outside [0,1)", o.lossProb))
	}
	if o.malformProb < 0 || o.malformProb >= 1 {
		errs = append(errs, fmt.Errorf("-malform %v outside [0,1)", o.malformProb))
	}
	if o.faultSensor < 0 {
		errs = append(errs, fmt.Errorf("-fault-sensor must be non-negative (got %d)", o.faultSensor))
	}
	if o.faultStart < 0 {
		errs = append(errs, fmt.Errorf("-fault-start must be non-negative (got %v)", o.faultStart))
	}
	if o.rate < 0 {
		errs = append(errs, fmt.Errorf("-rate must be non-negative (got %v)", o.rate))
	}
	if o.rate > 0 && !o.stream {
		errs = append(errs, errors.New("-rate needs -stream (CSV output is not paced)"))
	}
	if o.post != "" && !o.stream {
		errs = append(errs, errors.New("-post needs -stream"))
	}
	if o.stream && o.deployment == "" {
		errs = append(errs, errors.New("-deployment must be non-empty with -stream"))
	}
	if o.postBatch <= 0 {
		errs = append(errs, fmt.Errorf("-post-batch must be positive (got %d)", o.postBatch))
	}
	switch o.wire {
	case ingest.WireNDJSON, ingest.WireBinary:
	default:
		errs = append(errs, fmt.Errorf("-wire must be %s or %s (got %q)", ingest.WireNDJSON, ingest.WireBinary, o.wire))
	}
	if o.wire == ingest.WireBinary && !o.stream {
		errs = append(errs, errors.New("-wire=binary needs -stream"))
	}
	if o.postRetry <= 0 {
		errs = append(errs, fmt.Errorf("-post-retry must be positive (got %v)", o.postRetry))
	}
	return errors.Join(errs...)
}

// streamTrace replays a trace as NDJSON readings in trace order. rate is a
// multiplier over real time: 60 plays a minute of trace per wall-clock
// second, 0 disables pacing entirely.
func streamTrace(out io.Writer, tr sensorguard.Trace, deployment string, rate float64) error {
	bw := bufio.NewWriter(out)
	var prev time.Duration
	for i, r := range tr.Readings {
		if rate > 0 && i > 0 && r.Time > prev {
			time.Sleep(time.Duration(float64(r.Time-prev) / rate))
		}
		prev = r.Time
		line, err := sensorguard.EncodeIngestLine(sensorguard.IngestReading{
			Deployment: deployment,
			Reading:    r,
		})
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(line, '\n')); err != nil {
			return err
		}
		// Flush per reading when pacing, so a live consumer sees readings
		// as they "happen" rather than in buffered bursts.
		if rate > 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// streamTraceBinary replays a trace as binary frames on stdout — the same
// batches -post would ship, without the HTTP leg — for piping straight into
// a sentinel source or a file for later replay. When pacing, the staged
// frame is flushed before each sleep so a live consumer sees readings as
// they "happen".
func streamTraceBinary(out io.Writer, tr sensorguard.Trace, o options) error {
	bw := bufio.NewWriter(out)
	var enc ingest.FrameEncoder
	flush := func() error {
		if enc.Len() == 0 {
			return nil
		}
		frame, err := enc.Frame()
		if err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
		enc.Reset()
		return nil
	}
	var prev time.Duration
	for i, r := range tr.Readings {
		if o.rate > 0 && i > 0 && r.Time > prev {
			if err := flush(); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
			time.Sleep(time.Duration(float64(r.Time-prev) / o.rate))
		}
		prev = r.Time
		if err := enc.Add(ingest.Reading{Deployment: o.deployment, Reading: r}); err != nil {
			return err
		}
		if enc.Len() >= o.postBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return bw.Flush()
}

// postTrace ships the trace as NDJSON batches over HTTP to a running
// sentinel via the shared ingest.Shipper (the same shipping path cmd/sgsim
// drives its labeled campaigns through). Each reading carries a wire
// sequence number (its trace index + 1), so the receiver can discard the
// duplicates a retried batch re-sends — together with the shipper's retry
// loop, that makes the producer survive server restarts without losing or
// double-counting readings. This is the driver the crash harness uses.
func postTrace(tr sensorguard.Trace, o options, errOut io.Writer) error {
	ship, err := ingest.NewShipper(ingest.ShipperConfig{
		URL:         o.post,
		BatchSize:   o.postBatch,
		RetryBudget: o.postRetry,
		Logger:      sensorguard.NewLogger(errOut, slog.LevelInfo, "gdigen"),
		Seed:        o.seed + 7,
		Wire:        o.wire,
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	var prev time.Duration
	for i, r := range tr.Readings {
		if o.rate > 0 && i > 0 && r.Time > prev {
			// Pacing: ship what is buffered before sleeping, so the
			// consumer sees readings as they "happen".
			if err := ship.Flush(ctx); err != nil {
				return err
			}
			time.Sleep(time.Duration(float64(r.Time-prev) / o.rate))
		}
		prev = r.Time
		if err := ship.Add(ctx, ingest.Reading{
			Deployment: o.deployment,
			Seq:        uint64(i + 1),
			Reading:    r,
		}); err != nil {
			return err
		}
	}
	return ship.Flush(ctx)
}

// retryEvent is the attribute schema of the ingest_post_retry log event the
// shipper emits through our logger, one JSON object per retry. Status is the
// HTTP status of the failed attempt, or 0 when the failure was
// transport-level (connection refused/reset, timeout) and no response
// arrived.
type retryEvent struct {
	Event     string `json:"event"`
	Attempt   int    `json:"attempt"`
	BackoffMS int64  `json:"backoff_ms"`
	Status    int    `json:"status"`
	TraceID   string `json:"trace_id"`
	Err       string `json:"error"`
}

func faultPlan(o options) (*sensorguard.FaultPlan, error) {
	var injector sensorguard.FaultInjector
	switch o.fault {
	case "stuck":
		injector = sensorguard.StuckAtFault{Value: sensorguard.Vector{15, 1}}
	case "calibration":
		injector = sensorguard.CalibrationFault{Factors: sensorguard.Vector{1 / 1.24, 1 / 1.16}}
	case "additive":
		injector = sensorguard.AdditiveFault{Offsets: sensorguard.Vector{9, 5}}
	case "decay":
		injector = sensorguard.DecayToStuckFault{
			Floor:        sensorguard.Vector{15, 1},
			TimeConstant: 12 * time.Hour,
		}
	case "noise":
		var err error
		injector, err = sensorguard.NewRandomNoiseFault([]float64{6, 15}, o.seed+100)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown fault %q", o.fault)
	}
	return sensorguard.NewFaultPlan(sensorguard.FaultSchedule{
		Sensor:   o.faultSensor,
		Injector: injector,
		Start:    o.faultStart,
	})
}

func attackStrategy(o options) (sensorguard.AttackStrategy, error) {
	ids, err := parseIDs(o.malicious)
	if err != nil {
		return nil, err
	}
	adv, err := sensorguard.NewAdversary(ids, sensorguard.GDIRanges())
	if err != nil {
		return nil, err
	}
	switch o.attack {
	case "creation":
		inner := &sensorguard.DynamicCreationAttack{
			Adversary: adv,
			Target:    sensorguard.Vector{14, 66},
			Start:     4 * 24 * time.Hour,
		}
		return sensorguard.PeriodicAttackWindow(inner, 24*time.Hour, 0, 3*time.Hour+30*time.Minute)
	case "deletion":
		return &sensorguard.DynamicDeletionAttack{
			Adversary:   adv,
			Target:      sensorguard.Vector{31, 56},
			ReplaceWith: sensorguard.Vector{24, 70},
			Radius:      6,
			Start:       3 * 24 * time.Hour,
		}, nil
	case "change":
		return &sensorguard.DynamicChangeAttack{
			Adversary: adv,
			Offset:    sensorguard.Vector{5, -12},
			Start:     2 * 24 * time.Hour,
		}, nil
	default:
		return nil, fmt.Errorf("unknown attack %q", o.attack)
	}
}

func parseIDs(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		id, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad sensor ID %q", p)
		}
		out = append(out, id)
	}
	return out, nil
}
