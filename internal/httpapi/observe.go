package httpapi

import (
	"context"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"expertfind/internal/telemetry"
)

// processStart anchors the uptime gauge and /version's uptime field.
var processStart = time.Now()

// Serving-path metrics. Routes are labeled by mux pattern (bounded
// cardinality), never by raw URL path.
var (
	mRequests = telemetry.Default().CounterVec(
		"expertfind_http_requests_total",
		"HTTP requests served, by route pattern and status code.",
		"route", "code")
	mDuration = telemetry.Default().HistogramVec(
		"expertfind_http_request_duration_seconds",
		"Wall time handling one HTTP request, by route pattern.",
		nil, "route")
	mInFlight = telemetry.Default().Gauge(
		"expertfind_http_in_flight_requests",
		"Requests not yet answered.")
	mShed = telemetry.Default().Counter(
		"expertfind_http_requests_shed_total",
		"/v1 requests shed with 503 because the concurrency cap was saturated.")
	mPanics = telemetry.Default().Counter(
		"expertfind_http_panics_total",
		"Handler panics recovered into JSON 500s.")
	mTimeouts = telemetry.Default().Counter(
		"expertfind_http_request_timeouts_total",
		"Requests cut off with 503 by the per-request deadline.")
)

func init() {
	telemetry.Default().GaugeFunc(
		"expertfind_uptime_seconds",
		"Seconds since the process started serving.",
		func() float64 { return time.Since(processStart).Seconds() })
}

type requestIDKey struct{}

// ServeHTTP implements http.Handler. It assigns every request an ID —
// the inbound X-Request-ID when present (sanitized), else a generated
// one — reflects it as a response header and hands the request to
// dispatchMux, its one observer. Downstream, the ID labels log lines,
// error bodies and the request's trace.
func (b *base) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := sanitizeRequestID(r.Header.Get("X-Request-ID"))
	if id == "" {
		id = telemetry.NewID()
	}
	w.Header().Set("X-Request-ID", id)
	dispatchMux(b.mux, b.opts.Logger, w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, id)))
}

// requestID returns the request's ID, or "" outside the middleware
// chain (direct handler tests).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// sanitizeRequestID keeps inbound IDs loggable: printable ASCII less
// the quote, at most 64 bytes; anything else is discarded so a hostile
// header cannot inject into logs or JSON.
func sanitizeRequestID(id string) string {
	if len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		if id[i] <= ' ' || id[i] > '~' || id[i] == '"' {
			return ""
		}
	}
	return id
}

// versionInfo is the /version payload.
type versionInfo struct {
	GoVersion     string    `json:"go_version"`
	Module        string    `json:"module,omitempty"`
	Version       string    `json:"version,omitempty"`
	VCSRevision   string    `json:"vcs_revision,omitempty"`
	VCSTime       string    `json:"vcs_time,omitempty"`
	Start         time.Time `json:"start"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// serveVersion serves build and runtime identity: who is running
// (module, version, VCS revision when built from a repository), on
// what Go, for how long.
func serveVersion(w http.ResponseWriter, _ *http.Request) {
	info := versionInfo{
		GoVersion:     runtime.Version(),
		Start:         processStart.UTC(),
		UptimeSeconds: time.Since(processStart).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		info.Module = bi.Main.Path
		info.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				info.VCSRevision = s.Value
			case "vcs.time":
				info.VCSTime = s.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// routeLabel bounds the route label to known mux patterns.
func routeLabel(pattern string) string {
	if pattern == "" {
		return "unmatched"
	}
	// pprof sub-routes share one label; profile names don't belong in
	// label cardinality.
	if strings.HasPrefix(pattern, "GET /debug/pprof/") {
		return "GET /debug/pprof/*"
	}
	return pattern
}
