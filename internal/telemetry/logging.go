package telemetry

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// LogConfig selects how a process renders its structured logs — the
// -log-format / -log-level / -log-stamp flag surface of the binaries.
type LogConfig struct {
	// Format is "text" (default, human-readable key=value) or "json"
	// (one JSON object per line, for log pipelines).
	Format string
	// Level is "debug", "info" (default), "warn" or "error".
	Level string
	// NoStamp drops the time attribute from every record, making log
	// output byte-deterministic for golden tests and diffable runs.
	NoStamp bool
}

// NewLogger builds a slog.Logger writing structured records to w
// according to cfg. Unknown formats or levels are errors, so a typo'd
// flag fails at startup instead of silently logging at the wrong
// level.
func NewLogger(w io.Writer, cfg LogConfig) (*slog.Logger, error) {
	var level slog.Level
	switch strings.ToLower(cfg.Level) {
	case "", "info":
		level = slog.LevelInfo
	case "debug":
		level = slog.LevelDebug
	case "warn", "warning":
		level = slog.LevelWarn
	case "error":
		level = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", cfg.Level)
	}
	opts := &slog.HandlerOptions{Level: level}
	if cfg.NoStamp {
		opts.ReplaceAttr = func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		}
	}
	switch strings.ToLower(cfg.Format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", cfg.Format)
	}
}
