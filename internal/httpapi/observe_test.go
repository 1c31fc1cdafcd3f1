package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"expertfind/internal/telemetry"
)

// TestMetricsReflectServedFind drives a /v1/find through the full
// middleware chain and asserts the scrape afterwards carries the
// request counter, the per-stage pipeline timings and the traversal
// cache counters that query must have produced.
func TestMetricsReflectServedFind(t *testing.T) {
	s := server(t)
	resp, err := http.Get(s.URL + "/v1/find?q=" + url.QueryEscape("why is copper a good conductor?"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("find status = %d", resp.StatusCode)
	}

	resp, err = http.Get(s.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	for _, want := range []string{
		`expertfind_http_requests_total{route="GET /v1/find",code="200"}`,
		`expertfind_http_request_duration_seconds_bucket{route="GET /v1/find",le="+Inf"}`,
		"expertfind_http_in_flight_requests 1", // the /metrics request itself
		`expertfind_pipeline_stage_duration_seconds_bucket{stage="analyze"`,
		`expertfind_pipeline_stage_duration_seconds_bucket{stage="traverse"`,
		`expertfind_pipeline_stage_duration_seconds_bucket{stage="index_match"`,
		`expertfind_pipeline_stage_duration_seconds_bucket{stage="aggregate_rank"`,
		"expertfind_queries_total",
		"expertfind_traversal_cache_hits_total",
		"expertfind_traversal_cache_misses_total",
		"expertfind_index_queries_total",
		"expertfind_index_postings_scored_total",
		"expertfind_graph_traversals_total",
		"expertfind_uptime_seconds",
		"# TYPE expertfind_http_requests_total counter",
		"# TYPE expertfind_pipeline_stage_duration_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugTracesShowPipelineSpans serves a /v1/find tagged with a
// known request ID and asserts /debug/traces returns that query's
// trace with one span per pipeline stage.
func TestDebugTracesShowPipelineSpans(t *testing.T) {
	s := server(t)
	req, err := http.NewRequest(http.MethodGet,
		s.URL+"/v1/find?q="+url.QueryEscape("famous football teams"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "trace-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("find status = %d", resp.StatusCode)
	}

	resp, err = http.Get(s.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces []telemetry.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	var found *telemetry.TraceSnapshot
	for i := range traces {
		if traces[i].ID == "trace-probe-1" {
			found = &traces[i]
			break
		}
	}
	if found == nil {
		t.Fatalf("trace trace-probe-1 not in /debug/traces (%d traces)", len(traces))
	}
	if found.Name != "GET /v1/find" {
		t.Errorf("trace name = %q", found.Name)
	}
	if found.Attrs["q"] != "famous football teams" {
		t.Errorf("trace attrs = %v", found.Attrs)
	}
	stages := make(map[string]bool)
	for _, sp := range found.Spans {
		stages[sp.Name] = true
		if sp.DurationUS < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
	}
	for _, want := range []string{"analyze", "traverse", "index_match", "aggregate_rank"} {
		if !stages[want] {
			t.Errorf("trace missing span %q (have %v)", want, stages)
		}
	}
}

// TestExplainTraceShowsStageSpans: /v1/explain runs its matching under
// the request's trace, so /debug/traces/{rid} shows where it spent its
// time.
func TestExplainTraceShowsStageSpans(t *testing.T) {
	s := server(t)
	q := url.QueryEscape("why is copper a good conductor?")
	var found struct {
		Experts []struct{ Name string } `json:"experts"`
	}
	get(t, "/v1/find?top=1&q="+q, http.StatusOK, &found)
	if len(found.Experts) == 0 {
		t.Fatal("no experts to explain")
	}
	req, err := http.NewRequest(http.MethodGet, s.URL+"/v1/explain?expert="+url.QueryEscape(found.Experts[0].Name)+"&q="+q, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "explain-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status = %d", resp.StatusCode)
	}
	var traces []telemetry.TraceSnapshot
	get(t, "/debug/traces/explain-probe-1", http.StatusOK, &traces)
	stages := make(map[string]bool)
	for _, sp := range traces[0].Spans {
		stages[sp.Name] = true
	}
	for _, want := range []string{"traverse", "index_match"} {
		if !stages[want] {
			t.Errorf("explain trace missing span %q (have %v)", want, stages)
		}
	}
}

func TestDebugTracesLimit(t *testing.T) {
	s := server(t)
	resp, err := http.Get(s.URL + "/debug/traces?n=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid n: status = %d", resp.StatusCode)
	}
}

func TestRequestIDEchoed(t *testing.T) {
	s := server(t)
	req, err := http.NewRequest(http.MethodGet, s.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "client-chosen-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-chosen-42" {
		t.Errorf("X-Request-ID = %q, want client-chosen-42", got)
	}
}

func TestRequestIDGenerated(t *testing.T) {
	s := server(t)
	resp, err := http.Get(s.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated X-Request-ID = %q, want 16 hex chars", got)
	}
}

func TestRequestIDSanitized(t *testing.T) {
	s := server(t)
	req, err := http.NewRequest(http.MethodGet, s.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", `evil"injection`)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got := resp.Header.Get("X-Request-ID")
	if got == `evil"injection` || len(got) != 16 {
		t.Errorf("hostile inbound ID not replaced: %q", got)
	}
}

func TestErrorBodyCarriesRequestID(t *testing.T) {
	s := server(t)
	req, err := http.NewRequest(http.MethodGet, s.URL+"/v1/find", nil) // missing q → 400
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "err-corr-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["request_id"] != "err-corr-7" {
		t.Errorf("error body = %v, want request_id err-corr-7", body)
	}
	if body["error"] == "" {
		t.Errorf("error body missing message: %v", body)
	}
}

func TestVersion(t *testing.T) {
	s := server(t)
	resp, err := http.Get(s.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var v versionInfo
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(v.GoVersion, "go") {
		t.Errorf("go_version = %q", v.GoVersion)
	}
	if v.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", v.UptimeSeconds)
	}
	if v.Start.IsZero() {
		t.Error("start is zero")
	}
}

// TestDebugEndpointsGated asserts pprof and expvar are absent by
// default and present under Options.Debug, on a coordinator as well.
func TestDebugEndpointsGated(t *testing.T) {
	probe := func(h http.Handler, path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	plain := NewWithOptions(nil, Options{})
	if got := probe(plain, "/debug/vars"); got != http.StatusNotFound {
		t.Errorf("/debug/vars without Debug: status = %d, want 404", got)
	}
	dbg := NewWithOptions(nil, Options{Debug: true})
	if got := probe(dbg, "/debug/vars"); got != http.StatusOK {
		t.Errorf("/debug/vars with Debug: status = %d, want 200", got)
	}
	if got := probe(dbg, "/debug/pprof/cmdline"); got != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline with Debug: status = %d, want 200", got)
	}
	if got := probe(idleCoordinator(t, Options{}), "/debug/pprof/"); got != http.StatusNotFound {
		t.Errorf("coordinator /debug/pprof/ without Debug: status = %d, want 404", got)
	}
	if got := probe(idleCoordinator(t, Options{Debug: true}), "/debug/pprof/"); got != http.StatusOK {
		t.Errorf("coordinator /debug/pprof/ with Debug: status = %d, want 200", got)
	}
}

func TestRouteLabel(t *testing.T) {
	for pattern, want := range map[string]string{
		"":                        "unmatched",
		"GET /v1/find":            "GET /v1/find",
		"GET /debug/pprof/":       "GET /debug/pprof/*",
		"GET /debug/pprof/symbol": "GET /debug/pprof/*",
		"GET /metrics":            "GET /metrics",
	} {
		if got := routeLabel(pattern); got != want {
			t.Errorf("routeLabel(%q) = %q, want %q", pattern, got, want)
		}
	}
}

func TestSanitizeRequestID(t *testing.T) {
	for in, want := range map[string]string{
		"ok-id_123":             "ok-id_123",
		"":                      "",
		"has space":             "",
		"quote\"y":              "",
		"newline\n":             "",
		strings.Repeat("x", 65): "",
		strings.Repeat("x", 64): strings.Repeat("x", 64),
		"tab\tseparated":        "",
		"unicode-é":             "",
		"punct-ok;{}~!":         "punct-ok;{}~!",
	} {
		if got := sanitizeRequestID(in); got != want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", in, got, want)
		}
	}
}
