package main

// The scatter scenario: a real multi-process scatter-gather deployment
// driven end to end. Everything here is wall-clock and real processes —
// the point is to exercise genuine SIGKILL, connection refusal, breaker
// trips, and recovery, and to gate the coordinator's merged bytes
// against a single-process baseline before and after the chaos.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"expertfind"
	"expertfind/internal/httpapi"
	"expertfind/internal/loadgen"
)

// runScatter executes the scatter-gather chaos scenario and returns
// the process exit code. The flow: build the real binaries, boot a
// single-process baseline in-process and an N-shard cluster out of
// process, then gate three phases — healthy (byte-identical to the
// baseline), degraded (one shard SIGKILLed: still 200s, degraded
// header, degraded-query counter climbing), and recovered (shard
// restarted: byte-identical again).
func runScatter(o *options) int {
	if o.scatterShards < 2 {
		log.Fatalf("-scatter-shards %d: need at least 2 so a kill leaves survivors", o.scatterShards)
	}
	t0 := time.Now()
	dir, err := os.MkdirTemp("", "expertfind-scatter-")
	if err != nil {
		log.Fatalf("tempdir: %v", err)
	}
	defer os.RemoveAll(dir)
	serveBin, err := loadgen.BuildServe(dir)
	if err != nil {
		log.Fatalf("%v", err)
	}
	log.Printf("serve built in %v (race=%v)", time.Since(t0).Round(time.Millisecond), loadgen.RaceEnabled)

	// The baseline is the same serving stack in one process over the
	// same corpus config the shard processes will generate slices of.
	sys := buildSystem(o)
	baseURL, stopBaseline := selfHostBaseline(sys)
	defer stopBaseline()

	var logf func(string, ...any)
	if o.scatterVerbose {
		logf = log.Printf
	}
	// Shards run with a 1ns latency objective: every request breaches
	// it, so the run doubles as the induced-SLO-breach scenario — each
	// shard must capture exactly one (rate-limited) pprof snapshot.
	pprofDir := filepath.Join(dir, "pprof")
	cl, err := loadgen.StartScatter(loadgen.ScatterConfig{
		ServeBin:        serveBin,
		Shards:          o.scatterShards,
		CorpusSeed:      o.corpusSeed,
		Scale:           o.scale,
		IndexShards:     o.indexShards,
		ShardSLOLatency: time.Nanosecond,
		ShardPprofDir:   pprofDir,
		Logf:            logf,
	})
	if err != nil {
		log.Fatalf("start cluster: %v", err)
	}
	defer cl.Close()
	log.Printf("cluster ready in %v: %d shards behind %s", time.Since(t0).Round(time.Millisecond), o.scatterShards, cl.CoordinatorURL())

	code := 0
	paths := scatterPaths(sys, o.top)
	code |= scatterDiffGate("healthy", baseURL, cl.CoordinatorURL(), paths)

	workload := loadgen.NewWorkload(loadgen.WorkloadConfig{Seed: o.seed}, loadgen.SystemSource(sys))
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	defer client.CloseIdleConnections()
	runner := loadgen.NewRunner(loadgen.Config{
		Workload: workload,
		Target:   loadgen.NewHTTPTarget(client, cl.CoordinatorURL(), url.Values{"top": {strconv.Itoa(o.top)}}),
		Timeout:  o.reqTimeout,
	})
	phase := func(name string) loadgen.Phase {
		return loadgen.Phase{Name: name, Requests: o.scatterReq, Concurrency: o.concurrency}
	}

	results := runner.Run(phase("scatter-steady"))
	code |= scatterPhaseGate(&results[0])

	// Chaos: SIGKILL one shard — no drain, no goodbye — and keep
	// driving load. Every query must still answer 200, now flagged
	// degraded, while the coordinator's breaker stops paying the
	// per-query connection-refused tax.
	const victim = 1
	if err := cl.KillShard(victim); err != nil {
		log.Fatalf("kill shard %d: %v", victim, err)
	}
	if err := cl.WaitCoordinator("degraded", 30*time.Second); err != nil {
		log.Printf("SCATTER GATE: coordinator never reported degraded: %v", err)
		code = 1
	}
	results = append(results, runner.Run(phase("scatter-degraded"))...)
	code |= scatterPhaseGate(&results[1])
	code |= scatterDegradedGate(cl, paths[0], o.scatterShards)

	// Observability gates, part 1: pin a degraded query to a known
	// request id and demand the coordinator serve its assembled
	// cross-process timeline — coordinator gather/merge spans plus
	// spans from every surviving shard process.
	const traceRID = "loadtest-scatter-trace-1"
	code |= scatterTraceQuery(cl.CoordinatorURL()+paths[0], traceRID)
	code |= scatterAssemblyGate("degraded", cl.CoordinatorURL(), traceRID, o.scatterShards-1, 10*time.Second)
	code |= scatterSLOGate(cl)

	// Recovery: a replacement shard on the original port. Once its
	// slice is built and the breaker's cooldown lapses, responses must
	// drop the degraded flag and match the baseline byte for byte.
	if err := cl.RestartShard(victim); err != nil {
		log.Fatalf("restart shard %d: %v", victim, err)
	}
	if err := cl.WaitCoordinator("ready", 60*time.Second); err != nil {
		log.Printf("SCATTER GATE: coordinator never recovered: %v", err)
		code = 1
	}
	if err := waitNonDegraded(cl.CoordinatorURL()+paths[0], 15*time.Second); err != nil {
		log.Printf("SCATTER GATE: %v", err)
		code = 1
	}
	results = append(results, runner.Run(phase("scatter-recovered"))...)
	code |= scatterPhaseGate(&results[2])
	code |= scatterDiffGate("recovered", baseURL, cl.CoordinatorURL(), paths)

	// Observability gates, part 2: the recovered phase just pushed
	// o.scatterReq fast-OK queries through the coordinator's recent
	// ring — more than its capacity — yet the pinned degraded timeline
	// must still be retrievable (tail-based retention), and each
	// surviving shard's induced latency breach must have produced
	// exactly one rate-limited pprof capture.
	code |= scatterAssemblyGate("retained", cl.CoordinatorURL(), traceRID, o.scatterShards-1, 5*time.Second)
	code |= scatterCaptureGate(cl, pprofDir, o.scatterShards)

	writeReport(o, "scatter", sys.Stats(), results)
	if code == 0 {
		log.Printf("scatter gates passed: merged bytes match single process, chaos degraded %d shard without failing queries, "+
			"assembled timeline retained through ring rotation, SLO breach captured one profile per shard", 1)
	}
	return code
}

// selfHostBaseline serves sys on a loopback port through the full
// middleware stack — the same path the shard processes use — so the
// differential gate compares like with like.
func selfHostBaseline(sys *expertfind.System) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("baseline listen: %v", err)
	}
	srv := &http.Server{Handler: httpapi.New(sys)}
	go srv.Serve(ln)
	return "http://" + ln.Addr().String(), func() { srv.Close() }
}

// scatterPaths are the differential probe queries: corpus evaluation
// needs plus parameter variants, covering top truncation, blend and
// window overrides, and distance-capped traversal.
func scatterPaths(sys *expertfind.System, top int) []string {
	queries := sys.Queries()
	esc := func(s string) string { return url.QueryEscape(s) }
	return []string{
		fmt.Sprintf("/v1/find?q=%s&top=%d", esc(queries[0].Text), top),
		fmt.Sprintf("/v1/find?q=%s", esc(queries[1].Text)),
		fmt.Sprintf("/v1/find?q=%s&alpha=0.3&window=50", esc(queries[2].Text)),
		fmt.Sprintf("/v1/find?q=%s&distance=1&top=3", esc(queries[3].Text)),
		"/v1/find?q=" + esc("database systems and query optimization"),
	}
}

// scatterDiffGate fails unless the coordinator answers every probe
// path 200 without the degraded header and byte-identical to the
// single-process baseline.
func scatterDiffGate(label, baseURL, coordURL string, paths []string) int {
	code := 0
	for _, p := range paths {
		wantStatus, want := scatterGET(baseURL + p)
		gotStatus, got := scatterGET(coordURL + p)
		switch {
		case wantStatus != http.StatusOK || gotStatus != http.StatusOK:
			log.Printf("SCATTER GATE (%s): GET %s: baseline %d, coordinator %d", label, p, wantStatus, gotStatus)
			code = 1
		case want != got:
			log.Printf("SCATTER GATE (%s): GET %s diverged:\n single:      %s\n coordinator: %s", label, p, want, got)
			code = 1
		}
	}
	if code == 0 {
		log.Printf("differential gate (%s): %d paths byte-identical to single process", label, len(paths))
	}
	return code
}

// scatterDegradedGate verifies the degraded contract after a kill:
// queries answer 200 with the X-Expertfind-Degraded header, and the
// coordinator's degraded-query counter is climbing.
func scatterDegradedGate(cl *loadgen.ScatterCluster, path string, shards int) int {
	code := 0
	resp, body := scatterRawGET(cl.CoordinatorURL() + path)
	if resp == nil || resp.StatusCode != http.StatusOK {
		log.Printf("SCATTER GATE (degraded): GET %s did not answer 200: %v %s", path, resp, body)
		code = 1
	} else if h := resp.Header.Get(httpapi.DegradedHeader); h != fmt.Sprintf("shards=1/%d", shards) {
		log.Printf("SCATTER GATE (degraded): header = %q, want shards=1/%d", h, shards)
		code = 1
	}
	n, ok, err := cl.Metric("expertfind_scatter_degraded_queries_total")
	if err != nil || !ok || n < 1 {
		log.Printf("SCATTER GATE (degraded): degraded_queries_total = %v (ok=%v, err=%v), want >= 1", n, ok, err)
		code = 1
	} else {
		log.Printf("degraded gate: %d shard down, %.0f degraded queries answered 200 with partial results", 1, n)
	}
	return code
}

// scatterPhaseGate inspects one load phase's error taxonomy: any
// 4xx/5xx/transport failure fails the run (degraded responses are
// 200s, so a healthy-or-degraded cluster produces none), shed and
// timeout are tolerated (busy CI machines), and at least one request
// must have succeeded.
func scatterPhaseGate(p *loadgen.PhaseResult) int {
	code := 0
	for _, class := range []loadgen.Class{loadgen.Class4xx, loadgen.Class5xx, loadgen.ClassTransport} {
		if n := p.Errors[string(class)]; n > 0 {
			log.Printf("SCATTER GATE: phase %s saw %d %s errors", p.Name, n, class)
			code = 1
		}
	}
	if ok := p.Requests - p.ErrorCount(); ok == 0 {
		log.Printf("SCATTER GATE: phase %s completed no successful requests (errors=%v)", p.Name, p.Errors)
		code = 1
	}
	return code
}

// scatterTraceQuery issues one degraded query pinned to a known
// request id, so the trace-assembly gates have a deterministic handle
// into /debug/traces/{rid}.
func scatterTraceQuery(url, rid string) int {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		log.Printf("SCATTER GATE (trace): %v", err)
		return 1
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Printf("SCATTER GATE (trace): pinned query: %v", err)
		return 1
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(httpapi.DegradedHeader) == "" {
		log.Printf("SCATTER GATE (trace): pinned query status=%d degraded=%q, want 200 with degraded header",
			resp.StatusCode, resp.Header.Get(httpapi.DegradedHeader))
		return 1
	}
	return 0
}

// assembledView is the slice of scatter.AssembledTrace the gates
// inspect.
type assembledView struct {
	ID             string `json:"id"`
	ShardProcesses int    `json:"shard_processes"`
	Spans          []struct {
		Process string `json:"process"`
		Name    string `json:"name"`
	} `json:"spans"`
}

// scatterAssemblyGate polls the coordinator's /debug/traces/{rid}
// until it serves one stitched timeline with spans from at least
// minShards shard processes plus the coordinator's own gather and
// merge spans.
func scatterAssemblyGate(label, coordURL, rid string, minShards int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	var last string
	for {
		status, body := scatterGET(coordURL + "/debug/traces/" + rid)
		if status != http.StatusOK {
			last = fmt.Sprintf("HTTP %d: %s", status, body)
		} else {
			var v assembledView
			if err := json.Unmarshal([]byte(body), &v); err != nil {
				last = fmt.Sprintf("bad timeline JSON: %v", err)
			} else if miss := assemblyMissing(v, rid, minShards); miss != "" {
				last = miss
			} else {
				log.Printf("trace gate (%s): /debug/traces/%s stitched %d spans across coordinator + %d shard processes",
					label, rid, len(v.Spans), v.ShardProcesses)
				return 0
			}
		}
		if !time.Now().Before(deadline) {
			log.Printf("SCATTER GATE (trace %s): no assembled timeline for %s after %v: %s", label, rid, timeout, last)
			return 1
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// assemblyMissing reports what an assembled timeline still lacks, or
// "" when it satisfies the gate.
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

// scatterSLOGate asserts the SLO burn-rate surface is live on the
// coordinator's /metrics after the load phases.
func scatterSLOGate(cl *loadgen.ScatterCluster) int {
	code := 0
	n, ok, err := cl.Metric("expertfind_slo_requests_total")
	if err != nil || !ok || n < 1 {
		log.Printf("SCATTER GATE (slo): expertfind_slo_requests_total = %v (ok=%v, err=%v), want >= 1", n, ok, err)
		code = 1
	}
	for _, name := range []string{"expertfind_slo_objective", "expertfind_slo_burn_rate"} {
		if _, ok, err := cl.Metric(name); err != nil || !ok {
			log.Printf("SCATTER GATE (slo): %s missing from /metrics (ok=%v, err=%v)", name, ok, err)
			code = 1
		}
	}
	if code == 0 {
		log.Printf("slo gate: %0.f requests tracked, burn-rate and objective gauges exported", n)
	}
	return code
}

// scatterCaptureGate asserts the induced latency breach (the shards'
// 1ns objective) produced exactly one rate-limited pprof capture per
// shard process, with profile files on disk. The restarted victim is
// a fresh process that re-breaches during the recovered phase, so it
// is held to the same count.
func scatterCaptureGate(cl *loadgen.ScatterCluster, dir string, shards int) int {
	code := 0
	for i := 0; i < shards; i++ {
		n, ok, err := cl.ShardMetric(i, "expertfind_slo_pprof_captures_total")
		if err != nil || !ok || n != 1 {
			log.Printf("SCATTER GATE (pprof): shard %d captures = %v (ok=%v, err=%v), want exactly 1", i, n, ok, err)
			code = 1
		}
		if err := waitProfileFiles(filepath.Join(dir, fmt.Sprintf("shard%d", i)), 3*time.Second); err != nil {
			log.Printf("SCATTER GATE (pprof): shard %d: %v", i, err)
			code = 1
		}
	}
	if code == 0 {
		log.Printf("pprof gate: induced latency breach captured exactly one profile pair per shard process")
	}
	return code
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

// waitNonDegraded polls until a find answers without the degraded
// header — the restarted shard's breaker may hold it out of rotation
// for one cooldown after /readyz already reports ready.
func waitNonDegraded(url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var lastHdr string
	for time.Now().Before(deadline) {
		resp, _ := scatterRawGET(url)
		if resp != nil {
			lastHdr = resp.Header.Get(httpapi.DegradedHeader)
			if resp.StatusCode == http.StatusOK && lastHdr == "" {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("responses still degraded (%q) after %v", lastHdr, timeout)
}

func scatterGET(url string) (int, string) {
	resp, body := scatterRawGET(url)
	if resp == nil {
		return 0, body
	}
	return resp.StatusCode, body
}

func scatterRawGET(url string) (*http.Response, string) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err.Error()
	}
	defer resp.Body.Close()
	var sb strings.Builder
	io.Copy(&sb, resp.Body)
	return resp, sb.String()
}
