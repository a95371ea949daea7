package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
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

// TestDebugDecisionsMatchAuditLog pins the packed decision ring end to end:
// the detector lends each record to the deployment's sink, which packs it
// into the ring and encodes it into the audit log in the same call, and
// every record /debug/decisions decodes back must be the audit log's JSON
// for that window, byte for byte.
func TestDebugDecisionsMatchAuditLog(t *testing.T) {
	tr := stuckTrace(t, 3)
	var audit bytes.Buffer
	const capacity = 16
	pool, err := New(Config{Shards: 1, AuditLog: &audit, DecisionBuffer: capacity})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, pool, "gdi", tr.Readings)
	pool.Drain()
	lines := strings.Split(strings.TrimSuffix(audit.String(), "\n"), "\n")
	if len(lines) <= capacity {
		t.Fatalf("audit log has %d lines; the ring of %d never wrapped", len(lines), capacity)
	}

	srv := httptest.NewServer(Handler(pool, nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/decisions/gdi")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Decisions []json.RawMessage `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Decisions) != capacity {
		t.Fatalf("served %d records, want %d", len(doc.Decisions), capacity)
	}
	for i, raw := range doc.Decisions {
		var got bytes.Buffer
		if err := json.Compact(&got, raw); err != nil {
			t.Fatal(err)
		}
		want := lines[len(lines)-capacity+i]
		if got.String() != want {
			t.Errorf("served record %d\n%s\nwant the audit log's\n%s", i, got.String(), want)
		}
	}
}
