package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/scatter"
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
	h := NewWithOptions(system, Options{MaxConcurrent: 2, RetryAfter: 2 * time.Second})
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
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
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
		h, sem := build(Options{MaxConcurrent: 1, Tracer: telemetry.NewTracer(8)})
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
		<-sem
		ts.Close()
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

func TestPanicRecoveryMiddleware(t *testing.T) {
	var logs bytes.Buffer
	inner := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	rec := httptest.NewRecorder()
	withRecovery(slog.New(slog.NewTextHandler(&logs, nil)), inner).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/find", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("body = %q (err %v)", rec.Body.String(), err)
	}
	if !strings.Contains(logs.String(), "kaboom") {
		t.Errorf("panic not logged: %q", logs.String())
	}
}

func TestRequestTimeout(t *testing.T) {
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(5 * time.Second):
			w.Write([]byte("too late"))
		case <-r.Context().Done():
		}
	})
	opts := Options{RequestTimeout: 30 * time.Millisecond, RetryAfter: 3 * time.Second}
	rec := httptest.NewRecorder()
	withTimeout(opts, slow).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/find", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("status = %d, want 503", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "timed out") {
		t.Errorf("body = %q", rec.Body.String())
	}

	// A fast handler passes through with headers and body intact.
	fast := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Fast", "yes")
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("done"))
	})
	rec = httptest.NewRecorder()
	withTimeout(opts, fast).ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot || rec.Body.String() != "done" || rec.Header().Get("X-Fast") != "yes" {
		t.Errorf("passthrough: code %d, body %q, header %q", rec.Code, rec.Body.String(), rec.Header().Get("X-Fast"))
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
