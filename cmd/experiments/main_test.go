package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
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

// TestPaperTablesGolden regenerates every paper table at -days 31 and
// compares stdout byte for byte with the committed output. A change that
// moves a paper number regenerates the file in the same commit:
//
//	go run ./cmd/experiments -days 31 > cmd/experiments/testdata/days31.golden
func TestPaperTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/days31.golden")
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-days", "31"}, &out, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("-days 31 stdout differs from testdata/days31.golden (-golden +run):\n%s", lineDiff(string(want), out.String()))
	}
}

// lineDiff lists the lines that differ between two texts, position by
// position, as -want/+got pairs.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n-%s\n+%s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
