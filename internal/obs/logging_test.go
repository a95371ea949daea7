package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"testing"
)

func TestLoggerEmitsJSONWithComponent(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelInfo, "testcomp")
	log.Info("hello", "answer", 42)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["component"] != "testcomp" || rec["answer"] != float64(42) {
		t.Fatalf("unexpected record: %v", rec)
	}
	if rec["level"] != "INFO" {
		t.Fatalf("level = %v", rec["level"])
	}
}

func TestLoggerLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	log := NewLogger(&buf, slog.LevelWarn, "")
	log.Info("dropped")
	if buf.Len() != 0 {
		t.Fatalf("info passed a warn-level logger: %s", buf.String())
	}
	log.Warn("kept")
	if buf.Len() == 0 {
		t.Fatal("warn dropped")
	}
}
