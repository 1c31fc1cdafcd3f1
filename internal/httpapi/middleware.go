package httpapi

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"
	"time"

	"expertfind/internal/rescache"
	"expertfind/internal/slo"
	"expertfind/internal/telemetry"
)

// Options hardens the serving path. The zero value is the historical
// behavior: no timeout, no concurrency cap, no request logging (panic
// recovery is always on).
type Options struct {
	// RequestTimeout bounds each request's handling time; past it the
	// client gets 503 + Retry-After. Zero disables the deadline.
	RequestTimeout time.Duration
	// MaxConcurrent caps in-flight /v1 requests; excess load is shed
	// with 503 + Retry-After instead of queueing without bound. Zero
	// means unlimited.
	MaxConcurrent int
	// Logger receives one structured record per request plus recovered
	// panics; nil disables request logging (panics are still
	// recovered). Build one with telemetry.NewLogger.
	Logger *slog.Logger
	// Tracer records per-request query traces for /debug/traces; nil
	// selects telemetry.DefaultTracer().
	Tracer *telemetry.Tracer
	// SLO, when non-nil, observes every /v1 request's status and wall
	// time into the burn-rate tracker (see internal/slo).
	SLO *slo.Tracker
	// Debug mounts net/http/pprof under /debug/pprof/ and expvar under
	// /debug/vars. Off by default: profiling endpoints expose process
	// internals and belong behind an operator's deliberate flag.
	Debug bool
	// Shard, when non-nil, mounts the scatter-gather shard endpoints
	// (/v1/shard/meta, /v1/shard/stats, /v1/shard/find,
	// /v1/shard/trace) and identifies this process's position in the
	// topology. The regular /v1 routes stay mounted — a shard answers
	// them over its document slice, which is useful for debugging but
	// not globally ranked.
	Shard *ShardOptions
	// Cache, when non-nil, is the ranked-result cache the handler
	// manages across corpus installs: every SetSystem attaches a fresh
	// generation (purging the previous corpus's entries) so a swapped
	// corpus can never serve stale rankings. /v1/find reflects each
	// query's disposition in the Cache-Status response header.
	Cache *rescache.Cache
}

// writeUnavailable sends the uniform 503 payload with the Retry-After
// hint that tells well-behaved clients when to come back: one second,
// the shortest wait the header can express.
func writeUnavailable(w http.ResponseWriter, r *http.Request, msg string) {
	w.Header().Set("Retry-After", "1")
	writeError(w, r, http.StatusServiceUnavailable, msg)
}

// statusWriter captures the response status and size for logging.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(p []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	n, err := sw.ResponseWriter.Write(p)
	sw.bytes += n
	return n, err
}

// withLogging emits one structured record per request: method, path,
// matched route, status, size, duration, request id (which is also the
// trace id for /v1 requests), and the degraded marker when the
// response carried one. 5xx responses log at error level, 4xx at warn.
func withLogging(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		holder := &routeHolder{}
		r = r.WithContext(context.WithValue(r.Context(), routeCtxKey{}, holder))
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		level := slog.LevelInfo
		switch {
		case status >= 500:
			level = slog.LevelError
		case status >= 400:
			level = slog.LevelWarn
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", holder.get()),
			slog.Int("status", status),
			slog.Int("bytes", sw.bytes),
			slog.String("duration", time.Since(t0).Round(time.Microsecond).String()),
			slog.String("rid", requestID(r.Context())),
		}
		if d := sw.Header().Get(DegradedHeader); d != "" {
			attrs = append(attrs, slog.String("degraded", d))
		}
		l.Log(r.Context(), level, "request", attrs...)
	})
}

// withRecovery converts handler panics into JSON 500s instead of
// killing the connection (or, under withTimeout's goroutine, the
// whole process).
func withRecovery(l *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				mPanics.Inc()
				if l != nil {
					l.Error("panic recovered",
						"method", r.Method,
						"path", r.URL.Path,
						"rid", requestID(r.Context()),
						"panic", fmt.Sprint(p),
						"stack", string(debug.Stack()))
				}
				writeError(w, r, http.StatusInternalServerError, "internal server error")
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutWriter buffers a handler's response so that, when the
// deadline fires first, the handler's late writes never interleave
// with the 503 already sent to the client.
type timeoutWriter struct {
	mu     sync.Mutex
	header http.Header
	buf    bytes.Buffer
	status int
}

func (tw *timeoutWriter) Header() http.Header {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.header
}

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.status == 0 {
		tw.status = code
	}
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.status == 0 {
		tw.status = http.StatusOK
	}
	return tw.buf.Write(p)
}

// flush copies the buffered response onto the real writer.
func (tw *timeoutWriter) flush(w http.ResponseWriter) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	dst := w.Header()
	for k, v := range tw.header {
		dst[k] = v
	}
	status := tw.status
	if status == 0 {
		status = http.StatusOK
	}
	w.WriteHeader(status)
	_, _ = w.Write(tw.buf.Bytes())
}

// withTimeout enforces a per-request deadline. The handler runs in a
// goroutine against a buffered writer; if the deadline fires first
// the client gets 503 + Retry-After while the stray goroutine drains
// harmlessly into the buffer (its context is canceled, so
// cooperative handlers can stop early).
func withTimeout(timeout time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), timeout)
		defer cancel()
		tw := &timeoutWriter{header: make(http.Header)}
		done := make(chan struct{})
		go func() {
			defer close(done)
			next.ServeHTTP(tw, r.WithContext(ctx))
		}()
		select {
		case <-done:
			tw.flush(w)
		case <-ctx.Done():
			mTimeouts.Inc()
			writeUnavailable(w, r, "request timed out")
		}
	})
}
