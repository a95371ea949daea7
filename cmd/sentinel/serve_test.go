package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sensorguard"
)

// traceNDJSON converts a CSV trace file into the NDJSON ingest stream that
// gdigen -stream would emit for it, in trace order.
func traceNDJSON(t *testing.T, path, deployment string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := sensorguard.ReadTraceCSV(f)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range tr.Readings {
		line, err := sensorguard.EncodeIngestLine(sensorguard.IngestReading{
			Deployment: deployment,
			Reading:    r,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestServeEquivalentToOffline is the serving contract: streaming a trace
// in order through the listen mode produces byte-identical JSON to the
// offline batch run on the same trace.
func TestServeEquivalentToOffline(t *testing.T) {
	path := writeTestTrace(t)

	var offline bytes.Buffer
	if err := run([]string{"-json", path}, nil, &offline, io.Discard); err != nil {
		t.Fatalf("offline run: %v", err)
	}

	stream := traceNDJSON(t, path, "gdi")
	var served bytes.Buffer
	if err := run([]string{"-listen", "127.0.0.1:0", "-json", "-"},
		bytes.NewReader(stream), &served, io.Discard); err != nil {
		t.Fatalf("serve run: %v", err)
	}

	if !bytes.Equal(served.Bytes(), offline.Bytes()) {
		t.Errorf("served JSON differs from offline JSON\n--- served\n%s\n--- offline\n%s",
			served.String(), offline.String())
	}
}

// TestServeTextReport drains an NDJSON source file and prints per-deployment
// text summaries.
func TestServeTextReport(t *testing.T) {
	path := writeTestTrace(t)
	src := filepath.Join(t.TempDir(), "stream.ndjson")
	if err := os.WriteFile(src, traceNDJSON(t, path, "west-ridge"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut bytes.Buffer
	if err := run([]string{"-listen", "127.0.0.1:0", "-shards", "2", src},
		nil, &out, &errOut); err != nil {
		t.Fatalf("serve run: %v\nstderr: %s", err, errOut.String())
	}
	for _, want := range []string{
		"deployment west-ridge",
		"overall diagnosis: stuck-at",
		"sensor 6: stuck-at",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serve output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "source stream done") {
		t.Errorf("stderr missing stream stats: %s", errOut.String())
	}
}

func TestServeErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad overflow policy": {"-listen", "127.0.0.1:0", "-overflow", "sometimes", "-"},
		"too many args":       {"-listen", "127.0.0.1:0", "a.ndjson", "b.ndjson"},
		"missing source file": {"-listen", "127.0.0.1:0", "no-such-file.ndjson"},
		"negative lateness":   {"-listen", "127.0.0.1:0", "-lateness", "-1m", "-"},
	} {
		if err := run(args, strings.NewReader(""), io.Discard, io.Discard); err == nil {
			t.Errorf("%s: run succeeded, want error", name)
		}
	}
	// A negative value of a flag whose zero means "default" or "off" is
	// refused with an error naming the flag, not rewritten.
	for _, flag := range []string{"traces", "trace-sample", "decisions", "tsdb-retention", "tsdb-resolution", "profile-interval"} {
		v := "-1"
		if strings.HasPrefix(flag, "tsdb") || flag == "profile-interval" {
			v = "-1s"
		}
		args := []string{"-listen", "127.0.0.1:0", "-" + flag, v, "-"}
		if flag == "profile-interval" {
			args = append([]string{"-profile-dir", t.TempDir()}, args...)
		}
		err := run(args, strings.NewReader(""), io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-"+flag+" ") {
			t.Errorf("-%s %s: run = %v, want an error naming the flag", flag, v, err)
		}
	}
}

// TestServeAuditLogFailureFailsRun checks that a serve run whose audit log
// cannot be written exits with the write error after the drain, instead of
// dropping every decision record silently.
func TestServeAuditLogFailureFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	stream := traceNDJSON(t, writeTestTrace(t), "gdi")
	var out, errOut bytes.Buffer
	err := run([]string{"-listen", "127.0.0.1:0", "-audit-log", "/dev/full", "-"},
		bytes.NewReader(stream), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "audit log") {
		t.Fatalf("run = %v, want the audit-log write error", err)
	}
	if !strings.Contains(out.String(), "overall diagnosis") {
		t.Errorf("report not printed before the error:\n%s", out.String())
	}
	if n := strings.Count(errOut.String(), "audit log write failed"); n != 1 {
		t.Errorf("failure logged %d times, want once:\n%s", n, errOut.String())
	}
}
