package httpapi

// End-to-end scatter-gather tests: real shard systems behind real
// (httptest) shard servers, a real coordinator in front. The central
// gate is differential — an all-healthy coordinator must answer
// /v1/find byte-identically to a single process over the same corpus,
// for every topology size.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/resilience"
	"expertfind/internal/scatter"
	"expertfind/internal/telemetry"
)

// scatterTopo is one running scatter-gather deployment: shard servers
// over disjoint slices of cfg's corpus and a coordinator front.
type scatterTopo struct {
	shardSrvs    []*httptest.Server
	shardTracers []*telemetry.Tracer
	shardRIDs    []atomic.Value // last X-Request-ID seen on /v1/shard/*
	findBytes    []atomic.Int64 // size of the last /v1/shard/find reply
	frontTracer  *telemetry.Tracer
	front        *httptest.Server
	indexed      []int
}

// newScatterTopo boots count shard servers, shard i opening base as
// slice i of count (in its own subdirectory of base.SegmentDir, when
// the shards are store-backed), and a coordinator over them.
func newScatterTopo(t *testing.T, base expertfind.Options, count int) *scatterTopo {
	t.Helper()
	topo := &scatterTopo{
		shardSrvs:    make([]*httptest.Server, count),
		shardTracers: make([]*telemetry.Tracer, count),
		shardRIDs:    make([]atomic.Value, count),
		findBytes:    make([]atomic.Int64, count),
		indexed:      make([]int, count),
	}
	bases := make([]string, count)
	for i := 0; i < count; i++ {
		o := base
		o.ShardID, o.ShardCount = i, count
		if o.SegmentDir != "" {
			o.SegmentDir = filepath.Join(o.SegmentDir, fmt.Sprintf("%d-of-%d", i, count))
		}
		sys, err := expertfind.Open(o)
		if err != nil {
			t.Fatal(err)
		}
		if store := sys.SegmentStore(); store != nil {
			t.Cleanup(func() { store.Close() })
		}
		topo.indexed[i] = sys.Stats().Indexed
		topo.shardTracers[i] = telemetry.NewTracer(8)
		h := NewWithOptions(sys, Options{
			Shard:  &ShardOptions{ID: i, Count: count},
			Tracer: topo.shardTracers[i],
		})
		i := i
		topo.shardSrvs[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/v1/shard/") {
				topo.shardRIDs[i].Store(r.Header.Get("X-Request-ID"))
			}
			if r.URL.Path == "/v1/shard/find" {
				sw := &statusWriter{ResponseWriter: w}
				h.ServeHTTP(sw, r)
				topo.findBytes[i].Store(int64(sw.bytes))
				return
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(topo.shardSrvs[i].Close)
		bases[i] = topo.shardSrvs[i].URL
	}
	co, err := scatter.New(scatter.Options{
		Shards:  bases,
		Retry:   resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Multiplier: 2},
		Breaker: resilience.BreakerPolicy{Threshold: 1000, Cooldown: time.Millisecond},
		Hedge:   scatter.HedgePolicy{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	topo.frontTracer = telemetry.NewTracer(8)
	topo.front = httptest.NewServer(NewCoordinator(co, Options{Tracer: topo.frontTracer}))
	t.Cleanup(topo.front.Close)
	return topo
}

func rawGET(t *testing.T, base, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestScatterDifferential is the PR's central gate: all-healthy
// coordinator responses must be byte-identical to a single process
// serving the same corpus, across seeds and topology sizes —
// including parameterized queries.
func TestScatterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds many corpus slices")
	}
	for _, seed := range []int64{1, 2} {
		cfg := expertfind.Config{Seed: seed, Candidates: 12, Scale: 0.05, IndexShards: 1}
		single := expertfind.NewSystem(cfg)
		singleSrv := httptest.NewServer(New(single))
		t.Cleanup(singleSrv.Close)

		queries := single.Queries()
		paths := []string{
			fmt.Sprintf("/v1/find?q=%s", escape(queries[0].Text)),
			fmt.Sprintf("/v1/find?q=%s&top=5", escape(queries[1].Text)),
			fmt.Sprintf("/v1/find?q=%s&alpha=0.3&window=50", escape(queries[2].Text)),
			fmt.Sprintf("/v1/find?q=%s&distance=1&top=3", escape(queries[0].Text)),
			"/v1/find?q=" + escape("database systems and query optimization"),
			// topk reaches every shard as the prune depth and bounds the
			// coordinator's merge.
			fmt.Sprintf("/v1/find?q=%s&topk=1", escape(queries[0].Text)),
			fmt.Sprintf("/v1/find?q=%s&topk=5&top=3", escape(queries[1].Text)),
			fmt.Sprintf("/v1/find?q=%s&topk=200", escape(queries[2].Text)),
		}
		baselines := make([][]byte, len(paths))
		for i, p := range paths {
			resp, body := rawGET(t, singleSrv.URL, p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("seed %d: single-process GET %s: %d %s", seed, p, resp.StatusCode, body)
			}
			baselines[i] = body
		}

		// The shards slice the generated corpus in memory, or the same
		// corpus streamed from disk into per-shard segment stores.
		streamed := expertfind.Options{
			Config:     expertfind.Config{IndexShards: 1},
			CorpusPath: writeStreamCorpus(t, dataset.Config{Seed: seed, NumCandidates: 12, Scale: 0.05}),
			SegmentDir: t.TempDir(),
		}
		for _, count := range []int{1, 2, 3, 5} {
			for i, base := range []expertfind.Options{{Config: cfg}, streamed} {
				label := fmt.Sprintf("seed %d count %d %s", seed, count, [2]string{"generated", "streamed"}[i])
				topo := newScatterTopo(t, base, count)
				slice := 0
				for _, n := range topo.indexed {
					slice += n
				}
				if want := single.Stats().Indexed; slice != want {
					t.Fatalf("%s: slices hold %d docs, single process %d", label, slice, want)
				}
				for i, p := range paths {
					resp, body := rawGET(t, topo.front.URL, p, nil)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: GET %s: %d %s", label, p, resp.StatusCode, body)
					}
					if resp.Header.Get(DegradedHeader) != "" {
						t.Errorf("%s: healthy topology sent degraded header", label)
					}
					if !bytes.Equal(body, baselines[i]) {
						t.Errorf("%s: GET %s diverged from single process:\n coordinator: %s\n single:      %s",
							label, p, body, baselines[i])
					}
				}
			}
		}
	}
}

// writeStreamCorpus generates cfg's corpus as a stream file.
func writeStreamCorpus(t *testing.T, cfg dataset.Config) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.stream.json.gz")
	if _, err := corpusio.WriteStreamFile(path, dataset.StreamConfig{Config: cfg}, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func escape(s string) string { return strings.ReplaceAll(s, " ", "+") }

// TestScatterServing covers the operational contract on one 3-shard
// topology, in order: trace/request-id propagation, then degraded
// mode as shards die, then total failure.
func TestScatterServing(t *testing.T) {
	if testing.Short() {
		t.Skip("builds corpus slices")
	}
	cfg := expertfind.Config{Seed: 1, Candidates: 12, Scale: 0.05, IndexShards: 1}
	topo := newScatterTopo(t, expertfind.Options{Config: cfg}, 3)
	need := "/v1/find?q=" + escape("social network analysis")

	t.Run("request id spans processes", func(t *testing.T) {
		const rid = "rid-scatter-e2e-1"
		resp, body := rawGET(t, topo.front.URL, need, map[string]string{"X-Request-ID": rid})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET: %d %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Request-ID"); got != rid {
			t.Errorf("coordinator echoed rid %q", got)
		}
		for i := range topo.shardRIDs {
			if got, _ := topo.shardRIDs[i].Load().(string); got != rid {
				t.Errorf("shard %d saw rid %q, want %q", i, got, rid)
			}
		}
		// The coordinator trace carries one child span per shard call.
		traces := topo.frontTracer.Recent(1)
		if len(traces) != 1 || traces[0].ID != rid {
			t.Fatalf("front traces = %+v", traces)
		}
		spans := make(map[string]bool)
		for _, sp := range traces[0].Spans {
			spans[sp.Name] = true
		}
		for i := 0; i < 3; i++ {
			for _, phase := range []string{"stats", "find"} {
				if name := fmt.Sprintf("shard%d %s", i, phase); !spans[name] {
					t.Errorf("front trace missing span %q (have %v)", name, traces[0].Spans)
				}
			}
		}
		// Each shard recorded traces under the same id — one per shard
		// call (meta/stats/find) — and the find trace carries the local
		// pipeline spans: one request id stitches the whole fan-out.
		for i, str := range topo.shardTracers {
			found, withSpans := false, false
			for _, ts := range str.Recent(0) {
				if ts.ID != rid {
					continue
				}
				found = true
				got := make(map[string]bool)
				for _, sp := range ts.Spans {
					got[sp.Name] = true
				}
				if got["analyze"] && got["index_match"] {
					withSpans = true
				}
			}
			if !found {
				t.Errorf("shard %d recorded no trace for rid %q", i, rid)
			} else if !withSpans {
				t.Errorf("shard %d has no trace with pipeline spans for rid %q", i, rid)
			}
		}
	})

	// A shard ships its top MatchBound matches, not every reachable one:
	// under a window of 3 each reply carries at most 3 (the coordinator's
	// shard spans count them) and is a fraction of the unwindowed reply.
	t.Run("a shard ships no more than the window reads", func(t *testing.T) {
		shardMatches := func(path string) (matches []int, bytes []int64) {
			resp, body := rawGET(t, topo.front.URL, path, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
			}
			for _, sp := range topo.frontTracer.Recent(1)[0].Spans {
				if strings.HasSuffix(sp.Name, " find") && strings.HasPrefix(sp.Name, "shard") {
					n, err := strconv.Atoi(sp.Attrs["matches"])
					if err != nil {
						t.Fatalf("span %q: matches attr %q", sp.Name, sp.Attrs["matches"])
					}
					matches = append(matches, n)
				}
			}
			for i := range topo.findBytes {
				bytes = append(bytes, topo.findBytes[i].Load())
			}
			return matches, bytes
		}
		all, allBytes := shardMatches(need + "&window=0")
		bounded, boundedBytes := shardMatches(need + "&window=3")
		if len(all) != 3 || len(bounded) != 3 {
			t.Fatalf("shard find spans: %v unwindowed, %v windowed; want one per shard", all, bounded)
		}
		for i := range all {
			if all[i] <= 3 {
				t.Fatalf("shard %d holds %d matches for the need; the fixture cannot show a bound of 3", i, all[i])
			}
			if bounded[i] != 3 {
				t.Errorf("shard %d shipped %d matches under window=3 (it holds %d), want 3", i, bounded[i], all[i])
			}
			if boundedBytes[i] <= 0 || boundedBytes[i]*2 > allBytes[i] {
				t.Errorf("shard %d replied %d bytes under window=3, %d unwindowed; want under half", i, boundedBytes[i], allBytes[i])
			}
		}
	})

	t.Run("ready while healthy", func(t *testing.T) {
		resp, body := rawGET(t, topo.front.URL, "/readyz", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"ready"`)) {
			t.Fatalf("/readyz: %d %s", resp.StatusCode, body)
		}
	})

	t.Run("one shard down degrades", func(t *testing.T) {
		topo.shardSrvs[1].Close()
		resp, body := rawGET(t, topo.front.URL, need, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("degraded GET: %d %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(DegradedHeader); got != "shards=1/3" {
			t.Errorf("degraded header = %q, want shards=1/3", got)
		}
		if !bytes.Contains(body, []byte(`"degraded":{"shards_down":1,"shards_total":3}`)) {
			t.Errorf("degraded body missing marker: %s", body)
		}
		if !bytes.Contains(body, []byte(`"experts":[{`)) {
			t.Errorf("degraded body has no surviving results: %s", body)
		}

		resp, body = rawGET(t, topo.front.URL, "/readyz", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"degraded"`)) {
			t.Errorf("/readyz under partial topology: %d %s", resp.StatusCode, body)
		}
		if got := resp.Header.Get(DegradedHeader); got != "shards=1/3" {
			t.Errorf("/readyz degraded header = %q", got)
		}

		resp, body = rawGET(t, topo.front.URL, "/v1/shards", nil)
		if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"unready":[1]`)) {
			t.Errorf("/v1/shards: %d %s", resp.StatusCode, body)
		}
	})

	t.Run("all shards down fails", func(t *testing.T) {
		topo.shardSrvs[0].Close()
		topo.shardSrvs[2].Close()
		resp, body := rawGET(t, topo.front.URL, need, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("all-down GET: %d %s", resp.StatusCode, body)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
		resp, _ = rawGET(t, topo.front.URL, "/readyz", nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("/readyz all-down: %d", resp.StatusCode)
		}
	})
}
