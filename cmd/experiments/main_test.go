package main

import (
	"bytes"
	"io"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-days", "7", "-only", "table1"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("output missing Table 1:\n%s", out.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-only", "bogus"}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunFigure7Short(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-days", "7", "-only", "figure7"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "key states recovered") {
		t.Errorf("figure7 output incomplete:\n%s", out.String())
	}
}

func TestExperimentListIsStable(t *testing.T) {
	names := map[string]bool{}
	for _, e := range experiments() {
		if names[e.name] {
			t.Errorf("duplicate experiment name %q", e.name)
		}
		names[e.name] = true
	}
	for _, want := range []string{
		"table1", "figure6", "figure7", "figure8", "tables2-3", "tables4-5",
		"table6", "table7", "change", "mixed", "figure12", "noise-fault",
		"ablation-hmm", "ablation-filters", "ablation-init",
		"ablation-majority", "ablation-baseline", "ablation-baseline-attack", "ablation-noise",
		"ablation-latency", "ablation-window",
	} {
		if !names[want] {
			t.Errorf("experiment %q missing", want)
		}
	}
}

// durationRE matches a printed time.Duration or the speedup line.
var durationRE = regexp.MustCompile(`[0-9](ns|µs|ms|s)\b|speedup`)

// TestRunTimingsStayOffStdout pins that wall-clock numbers print only on
// the timings writer, so stdout is reproducible run to run.
func TestRunTimingsStayOffStdout(t *testing.T) {
	for _, name := range []string{"ablation-hmm", "ablation-baseline"} {
		var out, timings bytes.Buffer
		if err := run([]string{"-days", "7", "-only", name}, &out, &timings); err != nil {
			t.Fatalf("run %s: %v", name, err)
		}
		if !strings.Contains(out.String(), "Ablation") {
			t.Errorf("%s: results missing from stdout:\n%s", name, out.String())
		}
		if !strings.HasPrefix(timings.String(), name+": ") {
			t.Errorf("%s: timings = %q, want a line naming the experiment", name, timings.String())
		}
		if m := durationRE.FindString(out.String()); m != "" {
			t.Errorf("%s: stdout carries a timing (%q):\n%s", name, m, out.String())
		}
	}
}
