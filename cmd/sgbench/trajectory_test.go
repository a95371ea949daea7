package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func sampleReport() report {
	return report{
		GOOS:        "linux",
		GOARCH:      "amd64",
		CPUs:        4,
		TraceDays:   1,
		Deployments: 16,
		Passes:      10,
		Decode:      decodeStat{Lines: 2880, NsPerLine: 512.5, LinesSec: 1.9e6},
		Fleet: []fleetRun{
			{Shards: 1, Readings: 28800, ElapsedSec: 1.0, ReadingsPerSec: 28800, Windows: 240, WindowP50us: 40, WindowP99us: 90},
			{Shards: 4, Readings: 28800, ElapsedSec: 0.5, ReadingsPerSec: 57600, Windows: 240, WindowP50us: 35, WindowP99us: 80},
		},
		BareStep: bareStepStat{AllocsPerOp: 0, NsPerOp: 1800},
	}
}

// TestTrajectoryAppend checks the read-modify-write cycle: a fresh file gets
// schema version 1 and one entry, a second append preserves the first.
func TestTrajectoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	rep := sampleReport()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	e1, err := trajectoryEntryFrom(rep, "abc123", now)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Shards != 4 || e1.ReadingsPerSec != 57600 {
		t.Errorf("entry took %+v, want the best fleet run (shards=4)", e1)
	}
	if e1.DecodeNsPerLine != 512.5 || e1.StepP99us != 80 {
		t.Errorf("entry latencies = %+v", e1)
	}
	if err := appendTrajectory(path, e1); err != nil {
		t.Fatal(err)
	}
	e2 := e1
	e2.Commit = "def456"
	if err := appendTrajectory(path, e2); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tj trajectory
	if err := json.Unmarshal(data, &tj); err != nil {
		t.Fatalf("trajectory is not valid JSON: %v", err)
	}
	if tj.SchemaVersion != trajectorySchemaVersion {
		t.Errorf("schema version = %d, want %d", tj.SchemaVersion, trajectorySchemaVersion)
	}
	if len(tj.Entries) != 2 || tj.Entries[0].Commit != "abc123" || tj.Entries[1].Commit != "def456" {
		t.Errorf("entries = %+v, want the two appended commits in order", tj.Entries)
	}
	if tj.Entries[0].RecordedAt != "2026-08-08T12:00:00Z" {
		t.Errorf("recorded_at = %q, want RFC3339 UTC", tj.Entries[0].RecordedAt)
	}
}

func TestTrajectoryRejectsUnknownSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trajectory.json")
	if err := os.WriteFile(path, []byte(`{"schema_version": 99, "entries": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	e, _ := trajectoryEntryFrom(sampleReport(), "x", time.Now())
	if err := appendTrajectory(path, e); err == nil {
		t.Fatal("appendTrajectory accepted an unknown schema version")
	}
}

func TestTrajectoryEntryFromEmptyReport(t *testing.T) {
	if _, err := trajectoryEntryFrom(report{}, "x", time.Now()); err == nil {
		t.Fatal("trajectoryEntryFrom accepted a report with no fleet runs")
	}
}

// TestRunConvert exercises the -convert path end to end: a saved report is
// summarized into a trajectory entry without re-running any benchmark.
func TestRunConvert(t *testing.T) {
	dir := t.TempDir()
	repPath := filepath.Join(dir, "report.json")
	data, err := json.Marshal(sampleReport())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(repPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	trajPath := filepath.Join(dir, "trajectory.json")

	err = run([]string{
		"-convert", repPath,
		"-record", trajPath,
		"-commit", "cafef00d",
	}, io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("run -convert: %v", err)
	}

	var tj trajectory
	tdata, err := os.ReadFile(trajPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tdata, &tj); err != nil {
		t.Fatal(err)
	}
	if len(tj.Entries) != 1 || tj.Entries[0].Commit != "cafef00d" {
		t.Errorf("trajectory entries = %+v, want one entry at commit cafef00d", tj.Entries)
	}
	if err := run([]string{"-convert", repPath}, io.Discard, io.Discard); err == nil {
		t.Error("run accepted -convert without -record")
	}
}
