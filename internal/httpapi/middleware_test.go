package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/scatter"
	"expertfind/internal/slo"
	"expertfind/internal/telemetry"
)

// errBody decodes the uniform {"error": "..."} payload.
func errBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response content type %q", ct)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding error body: %v", err)
	}
	if body.Error == "" {
		t.Error("error body has empty message")
	}
	return body.Error
}

// TestLoadShedding is the acceptance scenario: with the concurrency
// cap saturated, /v1/find sheds with 503 + Retry-After while the
// liveness probe stays 200 and the readiness probe reports overload.
func TestLoadShedding(t *testing.T) {
	system := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.1})
	h := NewWithOptions(system, Options{MaxConcurrent: 2})
	ts := httptest.NewServer(h)
	defer ts.Close()

	// Occupy every slot, simulating two requests stuck in handlers.
	h.sem <- struct{}{}
	h.sem <- struct{}{}

	resp, err := http.Get(ts.URL + "/v1/find?q=copper")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /v1/find status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if msg := errBody(t, resp); !strings.Contains(msg, "overloaded") {
		t.Errorf("shed message = %q", msg)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status under load = %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/readyz status under load = %d, want 503", resp.StatusCode)
	}

	// Free a slot: traffic flows again.
	<-h.sem
	resp, err = http.Get(ts.URL + "/v1/find?q=copper")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/find after drain = %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after drain = %d, want 200", resp.StatusCode)
	}
	<-h.sem
}

// idleCoordinator returns a coordinator handler over one shard that
// answers 404 to everything: enough for the routes that never fan out.
func idleCoordinator(t *testing.T, opts Options) *CoordinatorHandler {
	t.Helper()
	shard := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(shard.Close)
	co, err := scatter.New(scatter.Options{Shards: []string{shard.URL}})
	if err != nil {
		t.Fatal(err)
	}
	return NewCoordinator(co, opts)
}

// TestShedIsTraced: the one /v1 guard sheds the same way whatever it
// guards — 503 + Retry-After, and a trace under the request's id kept
// for reason "shed" with the status recorded, so /debug/slow shows the
// request an overloaded process turned away. (A coordinator used to
// shed before starting a trace.)
func TestShedIsTraced(t *testing.T) {
	for name, build := range map[string]func(Options) (http.Handler, chan struct{}){
		"corpus": func(o Options) (http.Handler, chan struct{}) {
			h := NewWithOptions(nil, o)
			return h, h.sem
		},
		"coordinator": func(o Options) (http.Handler, chan struct{}) {
			h := idleCoordinator(t, o)
			return h, h.sem
		},
	} {
		tracer := telemetry.NewTracer(8)
		h, sem := build(Options{MaxConcurrent: 1, Tracer: tracer})
		ts := httptest.NewServer(h)
		sem <- struct{}{} // one request stuck in its handler

		rid := "rid-shed-" + name
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/find?q=copper", nil)
		req.Header.Set("X-Request-ID", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
			t.Errorf("%s: saturated /v1/find = %d, Retry-After %q; want 503, \"1\"", name, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
		if msg := errBody(t, resp); !strings.Contains(msg, "overloaded") {
			t.Errorf("%s: shed message = %q", name, msg)
		}

		resp, err = http.Get(ts.URL + "/debug/slow")
		if err != nil {
			t.Fatal(err)
		}
		slow, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		found := false
		for _, line := range strings.Split(string(slow), "\n") {
			if strings.Contains(line, "rid="+rid+" ") {
				found = strings.Contains(line, "status=503") && strings.Contains(line, "keep=shed")
			}
		}
		if !found {
			t.Errorf("%s: /debug/slow has no status=503 keep=shed line for %s:\n%s", name, rid, slow)
		}
		assertTracedQuery(t, tracer, rid, "copper")
		<-sem
		ts.Close()
	}
}

// TestNotReadyIsTracedWithQuery: a /v1 request refused before the
// corpus is installed still leaves a trace carrying its q, read from
// the guard's one parse of the query string.
func TestNotReadyIsTracedWithQuery(t *testing.T) {
	tracer := telemetry.NewTracer(8)
	ts := httptest.NewServer(NewWithOptions(nil, Options{Tracer: tracer}))
	defer ts.Close()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/find?q=copper+wire&top=2", nil)
	req.Header.Set("X-Request-ID", "rid-not-ready")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /v1/find = %d, want 503", resp.StatusCode)
	}
	assertTracedQuery(t, tracer, "rid-not-ready", "copper wire")
}

// assertTracedQuery fails unless tracer retains a trace under rid whose
// q attribute is want.
func assertTracedQuery(t *testing.T, tracer *telemetry.Tracer, rid, want string) {
	t.Helper()
	traces := tracer.Lookup(rid)
	if len(traces) == 0 {
		t.Fatalf("no trace retained for %s", rid)
	}
	if got := traces[0].Attrs["q"]; got != want {
		t.Errorf("%s: trace q = %q, want %q (attrs %v)", rid, got, want, traces[0].Attrs)
	}
}

// TestReadinessGating covers the serve startup sequence: the listener
// is up before the corpus, so /v1 and /readyz answer 503 until
// SetSystem installs it, while /healthz is green the whole time.
func TestReadinessGating(t *testing.T) {
	h := NewWithOptions(nil, Options{})
	ts := httptest.NewServer(h)
	defer ts.Close()

	for _, path := range []string{"/readyz", "/v1/stats", "/v1/find?q=x"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s before SetSystem = %d, want 503", path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s before SetSystem: missing Retry-After", path)
		}
		if msg := errBody(t, resp); !strings.Contains(msg, "not ready") {
			t.Errorf("%s message = %q", path, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz before SetSystem = %d, want 200", resp.StatusCode)
	}

	h.SetSystem(expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.1}))
	for _, path := range []string{"/readyz", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after SetSystem = %d, want 200", path, resp.StatusCode)
		}
	}
}

// guardedRoute mounts f at pattern behind h's /v1 guard, over a
// loaded value that is always ready.
func guardedRoute(h *Handler, pattern string, f http.HandlerFunc) {
	h.mux.HandleFunc(pattern, guard(&h.base, func() *struct{} { return &struct{}{} },
		func(_ *struct{}, w http.ResponseWriter, r *http.Request) { f(w, r) }))
}

// TestPanicRecovery: a panic becomes a JSON 500 that the access log,
// the route metrics and (on a /v1 route) the trace all record, whether
// the route runs inline or on the deadline's goroutine.
func TestPanicRecovery(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Second} {
		for _, path := range []string{"/v1/test-panic", "/test-panic"} {
			var logs bytes.Buffer
			tracer := telemetry.NewTracer(8)
			h := NewWithOptions(nil, Options{
				RequestTimeout: timeout,
				Tracer:         tracer,
				Logger:         slog.New(slog.NewJSONHandler(&logs, nil)),
			})
			kaboom := func(http.ResponseWriter, *http.Request) { panic("kaboom") }
			guardedRoute(h, "GET /v1/test-panic", kaboom)
			h.mux.HandleFunc("GET /test-panic", kaboom)
			route := "GET " + path
			before := mRequests.With(route, "500").Value()

			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.Header.Set("X-Request-ID", "rid-panic")
			h.ServeHTTP(rec, req)
			name := fmt.Sprintf("%s timeout %s", path, timeout)
			if rec.Code != http.StatusInternalServerError {
				t.Errorf("%s: status = %d, want 500", name, rec.Code)
			}
			var body struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
				t.Errorf("%s: body = %q (err %v)", name, rec.Body.String(), err)
			}
			if !strings.Contains(logs.String(), "kaboom") {
				t.Errorf("%s: panic not logged: %q", name, logs.String())
			}
			if rec := accessRecord(t, &logs); rec["status"] != float64(500) {
				t.Errorf("%s: access record %v, want status 500", name, rec)
			}
			if got := mRequests.With(route, "500").Value() - before; got != 1 {
				t.Errorf("%s: %s code=500 counted %v times, want 1", name, route, got)
			}
			traces := tracer.Lookup("rid-panic")
			if guarded := strings.HasPrefix(path, "/v1/"); guarded && (len(traces) == 0 || traces[0].Attrs["status"] != "500") {
				t.Errorf("%s: traces %v, want one with status 500", name, traces)
			} else if !guarded && len(traces) != 0 {
				t.Errorf("%s: unguarded route traced: %v", name, traces)
			}
		}
	}
}

// accessRecord returns the last "request" record of a JSON log.
func accessRecord(t *testing.T, logs *bytes.Buffer) map[string]any {
	t.Helper()
	var last map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line is not JSON: %v (%s)", err, line)
		}
		if rec["msg"] == "request" {
			last = rec
		}
	}
	if last == nil {
		t.Fatalf("no access record in %s", logs.String())
	}
	return last
}

// TestRequestTimeout: a guarded route that outlives RequestTimeout is
// answered 503 + Retry-After, and a fast one passes through with its
// status, headers and body intact.
func TestRequestTimeout(t *testing.T) {
	h := NewWithOptions(nil, Options{RequestTimeout: 30 * time.Millisecond})
	guardedRoute(h, "GET /v1/test-slow", func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
			w.Write([]byte("too late"))
		case <-r.Context().Done():
		}
	})
	guardedRoute(h, "GET /v1/test-fast", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fast", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("done"))
	})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/test-slow", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "timed out") {
		t.Errorf("body = %q", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/test-fast", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "done" || rec.Header().Get("X-Fast") != "yes" {
		t.Errorf("passthrough: code %d, body %q, header %q", rec.Code, rec.Body.String(), rec.Header().Get("X-Fast"))
	}
}

// TestTimeoutObservedOnce: a /v1 request cut off by RequestTimeout is
// a 503 everywhere it is observed — the client, its kept trace, the
// route counter, the SLO tracker and the access record.
func TestTimeoutObservedOnce(t *testing.T) {
	var logs bytes.Buffer
	tracer := telemetry.NewTracer(8)
	tracker := slo.New(slo.Config{})
	h := NewWithOptions(nil, Options{
		RequestTimeout: 50 * time.Millisecond,
		Tracer:         tracer,
		SLO:            tracker,
		Logger:         slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	guardedRoute(h, "GET /v1/test-timeout", func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		// Late work races the trace's Finish and the 503 already sent.
		telemetry.TraceFrom(r.Context()).StartSpan("late").End()
		w.Write([]byte("too late"))
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	before := mRequests.With("GET /v1/test-timeout", "503").Value()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/test-timeout", nil)
	req.Header.Set("X-Request-ID", "rid-timeout")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", resp.StatusCode)
	}
	if msg := errBody(t, resp); msg != "request timed out" {
		t.Errorf("message = %q, want \"request timed out\"", msg)
	}
	traces := tracer.Lookup("rid-timeout")
	if len(traces) == 0 {
		t.Fatal("no trace retained for rid-timeout")
	}
	if tr := traces[0]; tr.Attrs["status"] != "503" || tr.Attrs["keep"] == "" {
		t.Errorf("trace attrs %v, want status 503 and a keep reason", tr.Attrs)
	}
	if got := mRequests.With("GET /v1/test-timeout", "503").Value() - before; got != 1 {
		t.Errorf("code=503 counted %v times, want 1", got)
	}
	if avail, _ := tracker.BurnRates(); avail == 0 {
		t.Error("SLO tracker counted the timeout as available")
	}
	if rec := accessRecord(t, &logs); rec["status"] != float64(503) || rec["route"] != "GET /v1/test-timeout" {
		t.Errorf("access record %v, want status 503 on GET /v1/test-timeout", rec)
	}
}

// TestClientCancelIsNotATimeout: a client that cancels a guarded
// request before RequestTimeout (a hang-up, or a hedge's losing
// attempt on a shard) is recorded as 499: not a timeout, not an
// availability error, not a kept error trace.
func TestClientCancelIsNotATimeout(t *testing.T) {
	tracer := telemetry.NewTracer(8)
	tracker := slo.New(slo.Config{})
	h := NewWithOptions(nil, Options{RequestTimeout: 10 * time.Second, Tracer: tracer, SLO: tracker})
	entered := make(chan struct{})
	guardedRoute(h, "GET /v1/test-gone", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-r.Context().Done()
	})
	ts := httptest.NewServer(h)
	defer ts.Close()
	route := "GET /v1/test-gone"
	answered := func() float64 { return mRequests.With(route, "499").Value() + mRequests.With(route, "503").Value() }
	before, timeouts, observed := mRequests.With(route, "499").Value(), mTimeouts.Value(), answered()

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/test-gone", nil)
	req.Header.Set("X-Request-ID", "rid-gone")
	go func() {
		<-entered
		cancel()
	}()
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("canceled request answered %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for answered() == observed && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := mRequests.With(route, "499").Value() - before; got != 1 {
		t.Errorf("code=499 counted %v times, want 1", got)
	}
	if got := mTimeouts.Value() - timeouts; got != 0 {
		t.Errorf("timeouts counted %v, want 0", got)
	}
	if avail, _ := tracker.BurnRates(); avail != 0 {
		t.Errorf("availability burn %v, want 0", avail)
	}
	if kept := tracer.Kept(0); len(kept) != 0 {
		t.Errorf("kept traces %v, want none", kept)
	}
	if traces := tracer.Lookup("rid-gone"); len(traces) != 1 || traces[0].Attrs["status"] != "499" {
		t.Errorf("traces %v, want one with status 499", traces)
	}
}

// TestTimedOutRouteHoldsSlot: with MaxConcurrent 1, a route cut off by
// its deadline keeps the one slot until it returns, so the next /v1
// request is shed rather than run beside it.
func TestTimedOutRouteHoldsSlot(t *testing.T) {
	h := NewWithOptions(nil, Options{MaxConcurrent: 1, RequestTimeout: 20 * time.Millisecond})
	unblock := make(chan struct{})
	guardedRoute(h, "GET /v1/test-stuck", func(w http.ResponseWriter, r *http.Request) {
		<-unblock
		telemetry.TraceFrom(r.Context()).StartSpan("late").End()
	})
	guardedRoute(h, "GET /v1/test-ok", func(w http.ResponseWriter, r *http.Request) {})
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}

	if rec := serve("/v1/test-stuck"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "timed out") {
		t.Fatalf("stuck route: %d %q, want a 503 timeout", rec.Code, rec.Body.String())
	}
	if rec := serve("/v1/test-ok"); rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "overloaded") {
		t.Errorf("while the timed-out route runs: %d %q, want a 503 shed", rec.Code, rec.Body.String())
	}
	close(unblock)
	deadline := time.Now().Add(2 * time.Second)
	for len(h.sem) != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if rec := serve("/v1/test-ok"); rec.Code != http.StatusOK {
		t.Errorf("after the timed-out route returned: %d %q, want 200", rec.Code, rec.Body.String())
	}
}

// TestDeadlineIsForQueriesOnly: a profile that takes longer than
// RequestTimeout still answers, because the deadline guards /v1 alone.
func TestDeadlineIsForQueriesOnly(t *testing.T) {
	ts := httptest.NewServer(NewWithOptions(nil, Options{Debug: true, RequestTimeout: 500 * time.Millisecond}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/profile?seconds=1 = %d, want 200", resp.StatusCode)
	}
}

// TestOpsRoutesSkipSLO: the unguarded ops routes under /v1 do not feed
// the SLO tracker; a guarded route does. A 1ns latency objective makes
// every observed request burn latency budget.
func TestOpsRoutesSkipSLO(t *testing.T) {
	tracker := slo.New(slo.Config{Latency: time.Nanosecond})
	h := NewWithOptions(nil, Options{SLO: tracker, Shard: &ShardOptions{ID: 0, Count: 1}})
	guardedRoute(h, "GET /v1/test-guarded", func(w http.ResponseWriter, r *http.Request) {})
	serve := func(path string, want int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != want {
			t.Fatalf("%s = %d, want %d", path, rec.Code, want)
		}
	}
	serve("/v1/shard/trace?rid=abc", http.StatusOK)
	serve("/v1/ingest/status", http.StatusNotFound)
	if _, lat := tracker.BurnRates(); lat != 0 {
		t.Errorf("ops routes reached the SLO tracker: latency burn %v", lat)
	}
	serve("/v1/test-guarded", http.StatusOK)
	if _, lat := tracker.BurnRates(); lat == 0 {
		t.Error("a guarded route did not reach the SLO tracker")
	}
}

// TestRequestLogging asserts the structured access log: one record
// per request carrying method, path, the matched route pattern,
// status, and the request id the client can correlate on.
func TestRequestLogging(t *testing.T) {
	var logs bytes.Buffer
	system := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.1})
	h := NewWithOptions(system, Options{Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	ts := httptest.NewServer(h)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "log-probe-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	var rec map[string]any
	if err := json.Unmarshal(logs.Bytes(), &rec); err != nil {
		t.Fatalf("access log is not JSON: %v (%s)", err, logs.String())
	}
	for key, want := range map[string]any{
		"msg":    "request",
		"method": "GET",
		"path":   "/healthz",
		"route":  "GET /healthz",
		"status": float64(200),
		"rid":    "log-probe-9",
	} {
		if rec[key] != want {
			t.Errorf("access log %s = %v, want %v (record %v)", key, rec[key], want, rec)
		}
	}
}

// TestJSONFallbacks verifies the mux's plain-text 404/405 responses
// are rewritten into the uniform JSON error shape.
func TestJSONFallbacks(t *testing.T) {
	ts := server(t)

	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp.StatusCode)
	}
	errBody(t, resp)

	resp, err = http.Post(ts.URL+"/v1/find?q=x", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); !strings.Contains(allow, "GET") {
		t.Errorf("Allow = %q", allow)
	}
	errBody(t, resp)
}

// TestUniformParamErrors is the table-driven check that every bad
// request parameter yields 400 with the {"error": "..."} body.
func TestUniformParamErrors(t *testing.T) {
	ts := server(t)
	cases := []struct {
		name, path, wantIn string
	}{
		{"missing q", "/v1/find", "missing required parameter"},
		{"bad alpha", "/v1/find?q=x&alpha=banana", "alpha"},
		{"alpha out of range", "/v1/find?q=x&alpha=7", "alpha"},
		{"alpha not a number", "/v1/find?q=x&alpha=NaN", "alpha"},
		{"bad distance", "/v1/find?q=x&distance=far", "distance"},
		{"distance out of range", "/v1/find?q=x&distance=9", "distance"},
		{"bad window", "/v1/find?q=x&window=wide", "window"},
		{"unknown network", "/v1/find?q=x&networks=myspace", "network"},
		{"bad friends", "/v1/find?q=x&friends=maybe", "friends"},
		{"negative top", "/v1/find?q=x&top=-1", "top"},
		{"bestnetwork bad alpha", "/v1/bestnetwork?q=x&alpha=no", "alpha"},
		{"explain bad top", "/v1/explain?q=x&expert=y&top=zz", "top"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Get(ts.URL + tc.path)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400", resp.StatusCode)
			}
			if msg := errBody(t, resp); !strings.Contains(msg, tc.wantIn) {
				t.Errorf("error %q does not mention %q", msg, tc.wantIn)
			}
		})
	}
}
