// Command experiments regenerates every table and figure of the paper's
// evaluation (§4) plus the ablation studies, printing paper-vs-measured
// summaries. Its output is the source of EXPERIMENTS.md. Results print on
// stdout, which is byte-identical across runs of one seed; the wall-clock
// timings of the Baum-Welch and baseline ablations print on stderr.
//
// Usage:
//
//	experiments [-days N] [-seed S] [-only table7]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sensorguard/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// experiment is one runnable unit with a stable name for -only. Its result
// prints on stdout; a result that also has Timings() prints those
// wall-clock lines separately, so stdout is the same on every run.
type experiment struct {
	name string
	run  func(exp.Config) (any, error)
}

// timed is a result with run-to-run wall-clock numbers.
type timed interface{ Timings() string }

func experiments() []experiment {
	return []experiment{
		{"table1", func(exp.Config) (any, error) { return exp.RenderTable1(exp.Table1()), nil }},
		{"figure6", func(c exp.Config) (any, error) { return exp.Figure6(c) }},
		{"figure7", func(c exp.Config) (any, error) { return exp.Figure7(c) }},
		{"figure8", func(c exp.Config) (any, error) { return exp.Figure8(c) }},
		{"tables2-3", func(c exp.Config) (any, error) { return exp.Tables2And3(c) }},
		{"tables4-5", func(c exp.Config) (any, error) { return exp.Tables4And5(c) }},
		{"table6", func(c exp.Config) (any, error) { return exp.Table6(c) }},
		{"table7", func(c exp.Config) (any, error) { return exp.Table7(c) }},
		{"change", func(c exp.Config) (any, error) { return exp.ChangeAttack(c) }},
		{"mixed", func(c exp.Config) (any, error) { return exp.MixedAttack(c) }},
		{"noise-fault", func(c exp.Config) (any, error) { return exp.NoiseFault(c) }},
		{"figure12", func(c exp.Config) (any, error) { return exp.Figure12(c) }},
		{"ablation-hmm", func(exp.Config) (any, error) { return exp.AblationOnlineVsBaumWelch(5000, 1) }},
		{"ablation-filters", func(c exp.Config) (any, error) { return exp.AblationAlarmFilters(c) }},
		{"ablation-init", func(c exp.Config) (any, error) { return exp.AblationInitialStates(c) }},
		{"ablation-majority", func(c exp.Config) (any, error) { return exp.AblationMajoritySweep(c) }},
		{"ablation-baseline", func(c exp.Config) (any, error) { return exp.AblationBaseline(c) }},
		{"ablation-baseline-attack", func(c exp.Config) (any, error) { return exp.AblationBaselineAttack(c) }},
		{"ablation-noise", func(c exp.Config) (any, error) { return exp.AblationNoiseSweep(c) }},
		{"ablation-window", func(c exp.Config) (any, error) { return exp.AblationWindowSize(c) }},
		{"ablation-latency", func(c exp.Config) (any, error) { return exp.AblationDetectionLatency(c) }},
	}
}

// run executes the selected experiments, printing their results on out and
// their wall-clock timings on timings.
func run(args []string, out, timings io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	days := fs.Int("days", 31, "trace length in days (the paper evaluates one month)")
	seed := fs.Int64("seed", 2006, "random seed")
	only := fs.String("only", "", "run a single experiment by name")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := exp.Config{Days: *days, Seed: *seed, KMeansInit: true}

	ran := 0
	for _, e := range experiments() {
		if *only != "" && e.name != *only {
			continue
		}
		fmt.Fprintf(out, "==== %s %s\n", e.name, strings.Repeat("=", max(0, 60-len(e.name))))
		res, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if _, err := fmt.Fprintln(out, res); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		if t, ok := res.(timed); ok {
			fmt.Fprintf(timings, "%s: %s", e.name, t.Timings())
		}
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment named %q", *only)
	}
	return nil
}
