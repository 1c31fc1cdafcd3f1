package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, LogConfig{Format: "json", Level: "info", NoStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "rid", "abc123", "status", 200)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("not JSON: %v (%s)", err, buf.String())
	}
	if rec["rid"] != "abc123" || rec["msg"] != "request" {
		t.Fatalf("record = %v", rec)
	}
	if _, hasTime := rec["time"]; hasTime {
		t.Fatalf("NoStamp record still carries time: %v", rec)
	}

	buf.Reset()
	l, err = NewLogger(&buf, LogConfig{Format: "text", NoStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("request", "rid", "abc123")
	if got := buf.String(); !strings.Contains(got, "rid=abc123") || strings.Contains(got, "time=") {
		t.Fatalf("text record = %q", got)
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	l, err := NewLogger(&buf, LogConfig{Level: "warn", NoStamp: true})
	if err != nil {
		t.Fatal(err)
	}
	l.Info("suppressed")
	l.Warn("visible")
	if got := buf.String(); strings.Contains(got, "suppressed") || !strings.Contains(got, "visible") {
		t.Fatalf("level filter broken: %q", got)
	}
}

func TestNewLoggerRejectsUnknown(t *testing.T) {
	if _, err := NewLogger(&bytes.Buffer{}, LogConfig{Format: "xml"}); err == nil {
		t.Error("unknown format accepted")
	}
	if _, err := NewLogger(&bytes.Buffer{}, LogConfig{Level: "loud"}); err == nil {
		t.Error("unknown level accepted")
	}
}

// TestNewLoggerDeterministic: with NoStamp, identical log calls must
// produce identical bytes run over run — the property golden E2E
// tests and serve's -log-stamp=false diffs rely on.
func TestNewLoggerDeterministic(t *testing.T) {
	render := func() string {
		var buf bytes.Buffer
		l, err := NewLogger(&buf, LogConfig{Format: "json", NoStamp: true})
		if err != nil {
			t.Fatal(err)
		}
		l.Info("request", "method", "GET", "path", "/v1/find", "status", 200, "rid", "fixed")
		l.Warn("shard down", "shard", 1)
		return buf.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("log output not deterministic:\n%q\n%q", first, got)
		}
	}
}
