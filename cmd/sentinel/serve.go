package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"sensorguard"
)

// serveOptions parameterise the -listen serve mode.
type serveOptions struct {
	listen       string // HTTP address (ingest + report + metrics)
	tcp          string // optional TCP ingest address (either wire codec)
	shards       int
	queueLen     int
	overflow     string
	lateness     time.Duration
	bootstrap    time.Duration
	window       time.Duration
	states       int
	seed         int64
	asJSON       bool
	source       string // optional source stream: "-" = stdin, else a file path
	ckptDir      string // durability root; empty = no journal, no checkpoints
	ckptInterval time.Duration
	ckptEvery    int
	recover      bool
	traces       int    // trace ring capacity; 0 disables tracing
	traceSample  int    // sample one listener-rooted trace per N batches
	decisions    int    // decision records retained per deployment; 0 disables
	auditLog     string // NDJSON decision audit log: "-" = stderr, else a path

	tsdbRetention   time.Duration // historical metrics horizon; 0 disables the store
	tsdbResolution  time.Duration // historical metrics sampling interval
	profileDir      string        // profile ring directory; empty disables capture
	profileInterval time.Duration // periodic capture cadence; 0 = alert-triggered only
}

// shutdownGrace bounds how long in-flight HTTP requests may run after a
// shutdown signal before their connections are severed.
const shutdownGrace = 5 * time.Second

// runServe is the streaming server: live readings arrive over HTTP POST
// /ingest, the TCP listener, and/or a source stream (stdin or a
// file); the sharded fleet windows and detects them; /report/{deployment}
// serves live diagnoses and /metrics the shard instruments.
//
// With a source stream the run is a bounded job: when the source hits EOF
// the fleet is drained and every deployment's diagnosis is printed, exactly
// like the offline mode — the CLI pipeline
//
//	gdigen -stream | sentinel -listen :8080 -
//
// is the live equivalent of gdigen | sentinel -. Without a source the
// server runs until SIGINT/SIGTERM, then drains and reports.
func runServe(o serveOptions, stdin io.Reader, out, errOut io.Writer) error {
	policy, err := sensorguard.ParseOverflowPolicy(o.overflow)
	if err != nil {
		return err
	}
	log := logger(errOut)
	metrics := sensorguard.NewMetricsRegistry()
	var tracer *sensorguard.Tracer
	if o.traces > 0 {
		tracer = sensorguard.NewTracer(sensorguard.TracerConfig{
			SampleEvery: o.traceSample,
			MaxTraces:   o.traces,
		})
	}
	var audit io.Writer
	if o.auditLog != "" {
		if o.auditLog == "-" {
			audit = errOut
		} else {
			f, err := os.OpenFile(o.auditLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("audit log: %w", err)
			}
			defer f.Close()
			audit = f
		}
	}
	var db *sensorguard.MetricsTSDB
	if o.tsdbRetention > 0 {
		db = sensorguard.NewMetricsTSDB(sensorguard.MetricsTSDBConfig{
			Registry:   metrics,
			Resolution: o.tsdbResolution,
			Retention:  o.tsdbRetention,
		})
		db.Start()
		defer db.Close()
	}
	var profCap *sensorguard.ProfileCapturer
	if o.profileDir != "" {
		profCap, err = sensorguard.NewProfileCapturer(sensorguard.ProfileConfig{
			Dir:      o.profileDir,
			Interval: o.profileInterval,
			Logger:   log,
		})
		if err != nil {
			return err
		}
		profCap.Start()
		defer profCap.Close()
	}
	pool, err := sensorguard.NewFleet(sensorguard.FleetConfig{
		Shards:         o.shards,
		QueueLen:       o.queueLen,
		Policy:         policy,
		Window:         o.window,
		Lateness:       o.lateness,
		Bootstrap:      o.bootstrap,
		States:         o.states,
		Seed:           o.seed,
		Metrics:        metrics,
		Tracer:         tracer,
		DecisionBuffer: o.decisions,
		AuditLog:       audit,
		Logger:         log,
		Durability: sensorguard.FleetDurability{
			Dir:      o.ckptDir,
			Interval: o.ckptInterval,
			EveryN:   o.ckptEvery,
			Recover:  o.recover,
		},
		TSDB:     db,
		Profiles: profCap,
	})
	if err != nil {
		return err
	}
	if tracer != nil {
		log.Info("tracing ingest batches",
			"sample_every", max(o.traceSample, 1), "max_traces", o.traces, "endpoint", "/debug/traces")
	}
	if o.decisions > 0 {
		log.Info("retaining decision records",
			"per_deployment", o.decisions, "endpoint", "/debug/decisions/{deployment}")
	}
	if o.ckptDir != "" {
		log.Info("journaling readings and checkpointing state", "dir", o.ckptDir, "recover", o.recover)
	}
	if db != nil {
		log.Info("recording historical metrics",
			"retention", db.Retention().String(), "resolution", db.Resolution().String(),
			"endpoint", "/metrics/range")
	}
	if profCap != nil {
		log.Info("capturing profiles",
			"dir", o.profileDir, "interval", o.profileInterval.String(),
			"endpoint", "/debug/profiles")
	}

	srv, err := sensorguard.ServeFleet(o.listen, pool, metrics)
	if err != nil {
		return err
	}
	log.Info("serving ingest",
		"url", "http://"+srv.Addr()+"/ingest",
		"reports", "/report/{deployment}", "metrics", "/metrics", "dashboard", "/debug/dashboard")

	var tcpSrv *sensorguard.IngestTCPServer
	if o.tcp != "" {
		tcpSrv, err = sensorguard.ServeIngestTCP(o.tcp, pool)
		if err != nil {
			srv.Close()
			return err
		}
		log.Info("accepting NDJSON or binary-frame readings", "addr", "tcp://"+tcpSrv.Addr())
	}
	// Shut the listeners down gracefully whichever way the serve loop ends:
	// in-flight ingests and scrapes get shutdownGrace to finish, then their
	// connections are severed and the ports released.
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Warn("http shutdown", "error", err.Error())
		}
		if tcpSrv != nil {
			tcpSrv.Close()
		}
	}()

	if o.source != "" {
		in := stdin
		if o.source != "-" {
			f, err := os.Open(o.source)
			if err != nil {
				return err
			}
			defer f.Close()
			in = f
		}
		// The source stream negotiates its codec like the listeners: the
		// first byte decides between NDJSON and binary frames.
		st, err := sensorguard.ReadIngestWire(in, pool)
		if err != nil {
			return err
		}
		log.Info("source stream done",
			"accepted", st.Accepted, "rejected", st.Rejected,
			"rejected_decode", st.RejectedDecode, "rejected_oversize", st.RejectedOversize,
			"dropped", st.Dropped)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		signal.Stop(sig)
		log.Info("shutting down, draining fleet")
	}

	pool.Drain()
	if err := printFleetReports(pool, o.asJSON, out, log); err != nil {
		return err
	}
	if err := pool.AuditErr(); err != nil {
		return fmt.Errorf("audit log: %w", err)
	}
	return nil
}

// printFleetReports renders every deployment's diagnosis after a drain. In
// JSON mode a single deployment prints the bare report — byte-identical to
// the offline mode's output on the same readings — and multiple deployments
// print an object keyed by deployment.
func printFleetReports(pool *sensorguard.Fleet, asJSON bool, out io.Writer, log *slog.Logger) error {
	deps := pool.Deployments()
	if len(deps) == 0 {
		log.Warn("no readings received")
		return nil
	}
	if asJSON {
		multi := len(deps) > 1
		if multi {
			fmt.Fprintln(out, "{")
		}
		for i, dep := range deps {
			rep, err := pool.Report(dep)
			if err != nil {
				return fmt.Errorf("deployment %s: %w", dep, err)
			}
			data, err := rep.MarshalIndentJSON()
			if err != nil {
				return err
			}
			if multi {
				comma := ","
				if i == len(deps)-1 {
					comma = ""
				}
				fmt.Fprintf(out, "%q: %s%s\n", dep, data, comma)
			} else {
				fmt.Fprintln(out, string(data))
			}
		}
		if multi {
			fmt.Fprintln(out, "}")
		}
		return nil
	}
	for _, dep := range deps {
		st, err := pool.Status(dep)
		if err != nil {
			return fmt.Errorf("deployment %s: %w", dep, err)
		}
		fmt.Fprintf(out, "deployment %s (shard %d):\n", dep, st.Shard)
		if st.Err != "" {
			fmt.Fprintf(out, "  pipeline error: %s\n", st.Err)
			continue
		}
		rep, err := pool.Report(dep)
		if err != nil {
			return fmt.Errorf("deployment %s: %w", dep, err)
		}
		fmt.Fprintf(out, "  windows processed: %d (skipped %d)\n", st.Detector.Steps, st.Detector.SkippedWindows)
		fmt.Fprintf(out, "  anomaly detected:  %v\n", rep.Detected)
		fmt.Fprintf(out, "  overall diagnosis: %v\n", rep.Overall())
		fmt.Fprintf(out, "  network analysis:  %v (confidence %.2f)\n", rep.Network.Kind, rep.Network.Confidence)
		for _, d := range sortedSensorDiagnoses(rep) {
			fmt.Fprintf(out, "  sensor %d: %v (confidence %.2f)\n", d.Sensor, d.Kind, d.Confidence)
		}
		if len(rep.Suspects) > 0 {
			fmt.Fprintf(out, "  open tracks: sensors %v\n", rep.Suspects)
		}
	}
	return nil
}

func sortedSensorDiagnoses(rep sensorguard.Report) []sensorguard.SensorDiagnosis {
	ids := make([]int, 0, len(rep.Sensors))
	for id := range rep.Sensors {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]sensorguard.SensorDiagnosis, 0, len(ids))
	for _, id := range ids {
		out = append(out, rep.Sensors[id])
	}
	return out
}
