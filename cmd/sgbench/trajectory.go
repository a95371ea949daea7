package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// This file is the perf-trajectory side of sgbench: every `make bench-record`
// appends one summarized entry per run to bench/trajectory.json, so the
// repo's committed history carries the throughput curve PR by PR.

// trajectorySchemaVersion stamps the file so later PRs can migrate it.
const trajectorySchemaVersion = 1

// trajectory is the bench/trajectory.json document.
type trajectory struct {
	SchemaVersion int               `json:"schema_version"`
	Entries       []trajectoryEntry `json:"entries"`
}

// trajectoryEntry summarizes one sgbench run: the best fleet configuration's
// throughput plus the decode and step latencies that bound it.
type trajectoryEntry struct {
	RecordedAt      string  `json:"recorded_at"` // RFC3339 UTC
	Commit          string  `json:"commit"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	CPUs            int     `json:"cpus"`
	Shards          int     `json:"shards"` // shard count of the best fleet run
	ReadingsPerSec  float64 `json:"readings_per_sec"`
	DecodeNsPerLine float64 `json:"decode_ns_per_line"`
	// DecodeBinaryNsPerLine is the binary-codec decode cost on the same
	// trace (0 in entries recorded before the binary codec existed).
	DecodeBinaryNsPerLine float64 `json:"decode_binary_ns_per_line"`
	StepP50us             float64 `json:"window_step_p50_us"`
	StepP99us             float64 `json:"window_step_p99_us"`
}

// trajectoryEntryFrom summarizes a report, taking the fleet run with the
// highest throughput (its latency percentiles ride along).
func trajectoryEntryFrom(rep report, commit string, now time.Time) (trajectoryEntry, error) {
	if len(rep.Fleet) == 0 {
		return trajectoryEntry{}, fmt.Errorf("report has no fleet runs")
	}
	best := rep.Fleet[0]
	for _, fr := range rep.Fleet[1:] {
		if fr.ReadingsPerSec > best.ReadingsPerSec {
			best = fr
		}
	}
	return trajectoryEntry{
		RecordedAt:            now.UTC().Format(time.RFC3339),
		Commit:                commit,
		GOOS:                  rep.GOOS,
		GOARCH:                rep.GOARCH,
		CPUs:                  rep.CPUs,
		Shards:                best.Shards,
		ReadingsPerSec:        best.ReadingsPerSec,
		DecodeNsPerLine:       rep.Decode.NsPerLine,
		DecodeBinaryNsPerLine: rep.DecodeBin.NsPerLine,
		StepP50us:             best.WindowP50us,
		StepP99us:             best.WindowP99us,
	}, nil
}

// appendTrajectory reads the trajectory file (tolerating absence), appends e,
// and writes it back.
func appendTrajectory(path string, e trajectoryEntry) error {
	var tj trajectory
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &tj); err != nil {
			return fmt.Errorf("trajectory %s: %w", path, err)
		}
	case os.IsNotExist(err):
	default:
		return err
	}
	if tj.SchemaVersion == 0 {
		tj.SchemaVersion = trajectorySchemaVersion
	}
	if tj.SchemaVersion != trajectorySchemaVersion {
		return fmt.Errorf("trajectory %s: schema version %d, want %d", path, tj.SchemaVersion, trajectorySchemaVersion)
	}
	tj.Entries = append(tj.Entries, e)
	out, err := json.MarshalIndent(tj, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// resolveCommit returns the -commit override, else the repo's HEAD, else
// "unknown" — recording must not fail outside a git checkout.
func resolveCommit(override string) string {
	if override != "" {
		return override
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	if sha := strings.TrimSpace(string(out)); sha != "" {
		return sha
	}
	return "unknown"
}

// loadReport reads a previously written sgbench report (for -convert).
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return report{}, fmt.Errorf("report %s: %w", path, err)
	}
	return rep, nil
}
