package fleet

import (
	"bytes"
	"errors"
	"log/slog"
	"strings"
	"testing"
	"time"

	"sensorguard/internal/obs"
)

type failingWriter struct{ writes int }

func (w *failingWriter) Write([]byte) (int, error) {
	w.writes++
	return 0, errors.New("disk full")
}

// TestAuditLogWriteFailureSurfaces pins that a failing audit log is not
// silent: the first failed write is logged once, later records are dropped
// without retrying the writer, and AuditErr reports the error after the run.
// It also pins the detector_step stage clock at one unit per window, fed by
// the detector.
func TestAuditLogWriteFailureSurfaces(t *testing.T) {
	tr := stuckTrace(t, 3)
	var logBuf bytes.Buffer
	w := &failingWriter{}
	reg := obs.NewRegistry()
	pool, err := New(Config{
		Shards:   1,
		Metrics:  reg,
		AuditLog: w,
		Logger:   obs.NewLogger(&logBuf, slog.LevelInfo, "fleet"),
	})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, pool, "gdi", tr.Readings)
	pool.Drain()

	if err := pool.AuditErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("AuditErr = %v, want the write error", err)
	}
	if w.writes != 1 {
		t.Errorf("writer saw %d writes, want 1 (later records dropped)", w.writes)
	}
	if n := strings.Count(logBuf.String(), "audit log write failed"); n != 1 {
		t.Errorf("logged the failure %d times, want once:\n%s", n, logBuf.String())
	}

	windows := reg.Counter("fleet_shard0_windows_total", "").Value()
	if windows == 0 {
		t.Fatal("no windows stepped")
	}
	snap := pool.stages.Snapshot(time.Now())
	if got := snap.Units[StageStep]; got != windows {
		t.Errorf("detector_step units = %d, want one per window (%d)", got, windows)
	}
	if snap.BusyNS[StageStep] == 0 {
		t.Error("detector_step clock recorded no busy time")
	}
}

// TestAuditLogHealthyWriter is the control: a working audit log records one
// line per window and reports no error.
func TestAuditLogHealthyWriter(t *testing.T) {
	tr := stuckTrace(t, 3)
	var audit bytes.Buffer
	reg := obs.NewRegistry()
	pool, err := New(Config{Shards: 1, Metrics: reg, AuditLog: &audit})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, pool, "gdi", tr.Readings)
	pool.Drain()
	if err := pool.AuditErr(); err != nil {
		t.Fatalf("AuditErr = %v on a working writer", err)
	}
	lines := strings.Count(audit.String(), "\n")
	if want := reg.Counter("fleet_shard0_windows_total", "").Value(); uint64(lines) != want {
		t.Errorf("audit log has %d lines, want one per window (%d)", lines, want)
	}
}
