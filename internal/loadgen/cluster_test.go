package loadgen

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/httpapi"
)

// phaseRequests sizes each chaos load phase: more than the
// coordinator's 128-trace recent ring, so the recovered phase rotates
// the pinned degraded timeline out of it and only tail-based retention
// can keep it addressable.
const phaseRequests = 150

// TestScatterClusterChaos runs the real-process chaos scenario: build
// the one serve binary, boot a 2-shard topology behind a `serve
// -shards` coordinator, SIGKILL one shard mid-life, verify queries
// degrade to partial results instead of failing, restart the shard,
// and verify full recovery. Healthy and recovered coordinator bytes
// must equal a single process over the same corpus, closed-loop load
// must see no 4xx, 5xx or transport error in any phase, a pinned
// degraded query's cross-process timeline must assemble and survive
// ring rotation, the SLO surface must be live, and the shards' 1 ns
// latency objective must produce exactly one pprof capture per shard.
// Under -race the children are race-instrumented too.
func TestScatterClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and corpus slices")
	}
	dir := t.TempDir()
	serveBin, err := BuildServe(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline is the same serving stack in one process over the
	// corpus the shard processes generate slices of. One scoring
	// goroutine per process keeps the tiny corpus cheap; scoring
	// parallelism never changes result bytes.
	sys := expertfind.NewSystem(expertfind.Config{Seed: 1, Scale: 0.05, IndexShards: 1})
	baseline := httptest.NewServer(httpapi.New(sys))
	defer baseline.Close()
	pprofDir := filepath.Join(dir, "pprof")
	cl, err := StartScatter(ScatterConfig{
		ServeBin:    serveBin,
		Shards:      2,
		CorpusSeed:  1,
		Scale:       0.05,
		IndexShards: 1,
		// Every request breaches a 1 ns objective, so each shard must
		// capture exactly one (rate-limited) pprof pair.
		ShardSLOLatency: time.Nanosecond,
		ShardPprofDir:   pprofDir,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	coord := cl.CoordinatorURL()

	get := func(url string, header http.Header) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range header {
			req.Header[k] = v
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", url, err)
		}
		return resp, string(body)
	}
	paths := probePaths(sys)
	sameAsBaseline := func(label string) {
		t.Helper()
		for _, p := range paths {
			_, want := get(baseline.URL+p, nil)
			resp, got := get(coord+p, nil)
			if resp.StatusCode != http.StatusOK || resp.Header.Get(httpapi.DegradedHeader) != "" {
				t.Errorf("%s: GET %s: %d degraded=%q, want 200 whole", label, p, resp.StatusCode, resp.Header.Get(httpapi.DegradedHeader))
			} else if got != want {
				t.Errorf("%s: GET %s diverged:\n single:      %s\n coordinator: %s", label, p, want, got)
			}
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	defer client.CloseIdleConnections()
	runner := NewRunner(Config{
		Workload: NewWorkload(WorkloadConfig{Seed: 11}, SystemSource(sys)),
		Target:   NewHTTPTarget(client, coord, url.Values{"top": {"5"}}),
		Timeout:  5 * time.Second,
	})
	load := func(name string) {
		t.Helper()
		res := runner.Run(Phase{Name: name, Requests: phaseRequests, Concurrency: 8})[0]
		if err := scatterPhaseGate(&res); err != nil {
			t.Error(err)
		}
	}

	sameAsBaseline("healthy")
	if v, ok, err := cl.Metric("expertfind_scatter_shards_down"); err != nil || !ok || v != 0 {
		t.Errorf("shards_down = %v, %v, %v; want 0, true, nil", v, ok, err)
	}
	load("healthy")

	if err := cl.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCoordinator("degraded", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	load("degraded")
	resp, body := get(coord+paths[0], nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded find: %d %s", resp.StatusCode, body)
	}
	if h := resp.Header.Get(httpapi.DegradedHeader); h != "shards=1/2" {
		t.Errorf("degraded header = %q, want shards=1/2", h)
	}
	if !strings.Contains(body, `"degraded":{"shards_down":1,"shards_total":2}`) {
		t.Errorf("degraded body missing marker: %s", body)
	}
	if v, ok, err := cl.Metric("expertfind_scatter_degraded_queries_total"); err != nil || !ok || v < 1 {
		t.Errorf("degraded_queries_total = %v, %v, %v; want >= 1", v, ok, err)
	}

	// Pin a degraded query to a known request id: the coordinator must
	// serve its timeline stitched from its own gather and merge spans
	// and the surviving shard's.
	const rid = "loadgen-chaos-trace-1"
	resp, body = get(coord+paths[0], http.Header{"X-Request-Id": {rid}})
	if resp.StatusCode != http.StatusOK || resp.Header.Get(httpapi.DegradedHeader) == "" {
		t.Errorf("pinned query: %d degraded=%q, want 200 degraded: %s", resp.StatusCode, resp.Header.Get(httpapi.DegradedHeader), body)
	}
	if err := waitAssembled(coord, rid, 1, 10*time.Second); err != nil {
		t.Errorf("degraded: %v", err)
	}
	if n, ok, err := cl.Metric("expertfind_slo_requests_total"); err != nil || !ok || n < 1 {
		t.Errorf("expertfind_slo_requests_total = %v, %v, %v; want >= 1", n, ok, err)
	}
	for _, name := range []string{"expertfind_slo_objective", "expertfind_slo_burn_rate"} {
		if _, ok, err := cl.Metric(name); err != nil || !ok {
			t.Errorf("%s missing from the coordinator's /metrics (ok=%v, err=%v)", name, ok, err)
		}
	}

	if err := cl.RestartShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitCoordinator("ready", 15*time.Second); err != nil {
		t.Fatal(err)
	}
	// The shard's breaker may still be open for one cooldown after the
	// restart; poll until a find comes back whole again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, body = get(coord+paths[0], nil)
		if resp.StatusCode == http.StatusOK && resp.Header.Get(httpapi.DegradedHeader) == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("find never recovered: %d %q %s", resp.StatusCode, resp.Header.Get(httpapi.DegradedHeader), body)
		}
		time.Sleep(100 * time.Millisecond)
	}
	load("recovered")
	sameAsBaseline("recovered")
	if err := waitAssembled(coord, rid, 1, 5*time.Second); err != nil {
		t.Errorf("retained after the recovered phase: %v", err)
	}
	// The restarted shard is a fresh process that re-breached during the
	// recovered phase, so it is held to the same count.
	for i := 0; i < 2; i++ {
		if n, ok, err := cl.ShardMetric(i, "expertfind_slo_pprof_captures_total"); err != nil || !ok || n != 1 {
			t.Errorf("shard %d: pprof captures = %v (ok=%v, err=%v), want exactly 1", i, n, ok, err)
		}
		if err := waitProfileFiles(filepath.Join(pprofDir, fmt.Sprintf("shard%d", i)), 3*time.Second); err != nil {
			t.Errorf("shard %d: %v", i, err)
		}
	}

	// Double kill is an error, as is closing twice a no-op.
	if err := cl.KillShard(1); err != nil {
		t.Fatal(err)
	}
	if err := cl.KillShard(1); err == nil {
		t.Error("second kill of the same shard succeeded")
	}
	cl.Close()
	cl.Close()
}

// probePaths are the differential probe queries: corpus evaluation
// needs plus parameter variants, covering top truncation, blend and
// window overrides, and distance-capped traversal.
func probePaths(sys *expertfind.System) []string {
	queries := sys.Queries()
	esc := url.QueryEscape
	return []string{
		fmt.Sprintf("/v1/find?q=%s&top=5", esc(queries[0].Text)),
		fmt.Sprintf("/v1/find?q=%s", esc(queries[1].Text)),
		fmt.Sprintf("/v1/find?q=%s&alpha=0.3&window=50", esc(queries[2].Text)),
		fmt.Sprintf("/v1/find?q=%s&distance=1&top=3", esc(queries[3].Text)),
		"/v1/find?q=" + esc("database systems and query optimization"),
	}
}

// scatterPhaseGate inspects one load phase's error taxonomy: any
// 4xx/5xx/transport failure fails it (degraded responses are 200s, so
// a healthy-or-degraded cluster produces none), shed and timeout are
// tolerated (busy CI machines), and at least one request must have
// succeeded.
func scatterPhaseGate(p *PhaseResult) error {
	var errs []error
	for _, class := range []Class{Class4xx, Class5xx, ClassTransport} {
		if n := p.Errors[string(class)]; n > 0 {
			errs = append(errs, fmt.Errorf("phase %s saw %d %s errors", p.Name, n, class))
		}
	}
	if p.Requests == p.ErrorCount() {
		errs = append(errs, fmt.Errorf("phase %s completed no successful requests (errors=%v)", p.Name, p.Errors))
	}
	return errors.Join(errs...)
}

// assembledView is the slice of scatter.AssembledTrace the chaos test
// inspects.
type assembledView struct {
	ID             string `json:"id"`
	ShardProcesses int    `json:"shard_processes"`
	Spans          []struct {
		Process string `json:"process"`
		Name    string `json:"name"`
	} `json:"spans"`
}

// waitAssembled polls the coordinator's /debug/traces/{rid} until it
// serves one stitched timeline that assemblyMissing accepts.
func waitAssembled(coordURL, rid string, minShards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last string
	for {
		resp, err := http.Get(coordURL + "/debug/traces/" + rid)
		if err != nil {
			last = err.Error()
		} else {
			var v assembledView
			err := json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			switch {
			case resp.StatusCode != http.StatusOK:
				last = fmt.Sprintf("HTTP %d", resp.StatusCode)
			case err != nil:
				last = fmt.Sprintf("bad timeline JSON: %v", err)
			default:
				if last = assemblyMissing(v, rid, minShards); last == "" {
					return nil
				}
			}
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("no assembled timeline for %s after %v: %s", rid, timeout, last)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// assemblyMissing reports what an assembled timeline still lacks, or
// "" when it has the coordinator's gather and merge spans plus spans
// from at least minShards shard processes.
func assemblyMissing(v assembledView, rid string, minShards int) string {
	if v.ID != rid {
		return fmt.Sprintf("timeline id = %q, want %q", v.ID, rid)
	}
	if v.ShardProcesses < minShards {
		return fmt.Sprintf("spans from %d shard processes, want >= %d", v.ShardProcesses, minShards)
	}
	coordSpans := map[string]bool{}
	shardSpans := 0
	for _, sp := range v.Spans {
		if sp.Process == "coordinator" {
			coordSpans[sp.Name] = true
		} else if strings.HasPrefix(sp.Process, "shard") {
			shardSpans++
		}
	}
	for _, want := range []string{"gather stats", "gather find", "merge"} {
		if !coordSpans[want] {
			return fmt.Sprintf("missing coordinator %q span", want)
		}
	}
	if shardSpans == 0 {
		return "no shard-process spans"
	}
	return ""
}

// waitProfileFiles polls dir until it holds at least one pprof file —
// the CPU half of a capture lands a few hundred ms after the breach.
func waitProfileFiles(dir string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		entries, err := os.ReadDir(dir)
		if err == nil && len(entries) > 0 {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("no pprof capture files in %s after %v (err=%v)", dir, timeout, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func TestScatterPhaseGate(t *testing.T) {
	cases := []struct {
		name     string
		requests uint64
		errors   map[string]uint64
		fails    bool
	}{
		{"clean", 150, nil, false},
		{"shed and timeout tolerated", 150, map[string]uint64{"shed": 3, "timeout": 2}, false},
		{"4xx", 150, map[string]uint64{"4xx": 1}, true},
		{"5xx", 150, map[string]uint64{"5xx": 1}, true},
		{"transport", 150, map[string]uint64{"transport": 1}, true},
		{"nothing succeeded", 10, map[string]uint64{"shed": 10}, true},
		{"nothing ran", 0, nil, true},
	}
	for _, c := range cases {
		p := &PhaseResult{Name: c.name, Requests: c.requests, Errors: c.errors}
		if err := scatterPhaseGate(p); (err != nil) != c.fails {
			t.Errorf("%s: %v, want failure %v", c.name, err, c.fails)
		}
	}
}

func TestAssemblyMissing(t *testing.T) {
	type span = struct {
		Process string `json:"process"`
		Name    string `json:"name"`
	}
	full := []span{
		{"coordinator", "gather stats"}, {"coordinator", "gather find"}, {"coordinator", "merge"},
		{"shard0", "find"}, {"shard2", "find"},
	}
	without := func(name string) []span {
		var out []span
		for _, sp := range full {
			if sp.Name != name {
				out = append(out, sp)
			}
		}
		return out
	}
	cases := []struct {
		name string
		view assembledView
		want string // substring of the complaint; "" = satisfied
	}{
		{"complete", assembledView{ID: "rid", ShardProcesses: 2, Spans: full}, ""},
		{"wrong id", assembledView{ID: "other", ShardProcesses: 2, Spans: full}, "timeline id"},
		{"too few shard processes", assembledView{ID: "rid", ShardProcesses: 1, Spans: full}, "shard processes"},
		{"no gather stats", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("gather stats")}, `"gather stats"`},
		{"no gather find", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("gather find")}, `"gather find"`},
		{"no merge", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("merge")}, `"merge"`},
		{"no shard spans", assembledView{ID: "rid", ShardProcesses: 2, Spans: without("find")}, "no shard-process spans"},
	}
	for _, c := range cases {
		got := assemblyMissing(c.view, "rid", 2)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: %q, want %q", c.name, got, c.want)
		}
	}
}
