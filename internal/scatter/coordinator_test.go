package scatter

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/core"
	"expertfind/internal/resilience"
)

// fakeShard is a scripted shard process: fixed metadata, scripted
// stats and find replies, and per-phase failure toggles, so the
// coordinator's fan-out behavior is testable without building a
// corpus.
type fakeShard struct {
	id    int
	count int
	cands []Candidate
	group string // defaults to GroupFingerprint(cands)

	stats Stats
	find  func(req FindRequest) FindResponse

	failMeta  atomic.Bool
	failStats atomic.Bool
	failFind  atomic.Bool
	failReady atomic.Bool

	newConns atomic.Int64 // connections accepted (ConnState == StateNew)

	srv *httptest.Server
}

func (f *fakeShard) start(t *testing.T) {
	t.Helper()
	if f.group == "" {
		f.group = GroupFingerprint(f.cands)
	}
	mux := http.NewServeMux()
	down := func(w http.ResponseWriter, flag *atomic.Bool) bool {
		if flag.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return true
		}
		return false
	}
	mux.HandleFunc("GET /v1/shard/meta", func(w http.ResponseWriter, r *http.Request) {
		if down(w, &f.failMeta) {
			return
		}
		json.NewEncoder(w).Encode(Meta{
			ShardID: f.id, ShardCount: f.count, NumDocs: f.stats.Docs,
			Group: f.group, Candidates: f.cands,
		})
	})
	mux.HandleFunc("GET /v1/shard/stats", func(w http.ResponseWriter, r *http.Request) {
		if down(w, &f.failStats) {
			return
		}
		json.NewEncoder(w).Encode(f.stats)
	})
	mux.HandleFunc("POST /v1/shard/find", func(w http.ResponseWriter, r *http.Request) {
		if down(w, &f.failFind) {
			return
		}
		var req FindRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := FindResponse{Group: f.group}
		if f.find != nil {
			resp = f.find(req)
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if down(w, &f.failReady) {
			return
		}
		w.Write([]byte(`{"status":"ready"}`))
	})
	f.srv = httptest.NewUnstartedServer(mux)
	f.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			f.newConns.Add(1)
		}
	}
	f.srv.Start()
	t.Cleanup(f.srv.Close)
}

var testCands = []Candidate{{ID: 1, Name: "ada"}, {ID: 2, Name: "bob"}, {ID: 3, Name: "cyd"}}

// newFakeTopology starts n scripted shards sharing one candidate pool
// and returns them with a coordinator configured for test-speed
// retries and no hedging.
func newFakeTopology(t *testing.T, n int, finds []func(FindRequest) FindResponse) ([]*fakeShard, *Coordinator) {
	t.Helper()
	shards := make([]*fakeShard, n)
	bases := make([]string, n)
	for i := range shards {
		shards[i] = &fakeShard{
			id: i, count: n, cands: testCands,
			stats: Stats{Docs: 10 * (i + 1), Terms: map[string]int{"go": i + 1}},
		}
		if finds != nil {
			shards[i].find = finds[i]
		}
		shards[i].start(t)
		bases[i] = shards[i].srv.URL
	}
	co, err := New(Options{
		Shards:       bases,
		ShardTimeout: 2 * time.Second,
		Retry:        resilience.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, Multiplier: 2},
		Breaker:      resilience.BreakerPolicy{Threshold: 100, Cooldown: time.Millisecond},
		Hedge:        HedgePolicy{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return shards, co
}

func TestBootstrapRejectsWrongPosition(t *testing.T) {
	shards, co := newFakeTopology(t, 2, nil)
	shards[1].id = 0 // lies about its position
	if err := co.Bootstrap(context.Background()); err == nil {
		t.Fatal("misplaced shard accepted")
	}
}

func TestBootstrapRejectsPoolMismatch(t *testing.T) {
	shards := make([]*fakeShard, 2)
	bases := make([]string, 2)
	for i := range shards {
		cands := testCands
		if i == 1 {
			cands = []Candidate{{ID: 9, Name: "eve"}}
		}
		shards[i] = &fakeShard{id: i, count: 2, cands: cands, stats: Stats{Docs: 1}}
		shards[i].start(t)
		bases[i] = shards[i].srv.URL
	}
	co, err := New(Options{Shards: bases, Hedge: HedgePolicy{Disable: true},
		Retry: resilience.RetryPolicy{MaxAttempts: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Bootstrap(context.Background()); err == nil {
		t.Fatal("diverging candidate pools accepted")
	}
}

func TestBootstrapToleratesDownShard(t *testing.T) {
	shards, co := newFakeTopology(t, 3, nil)
	shards[2].failMeta.Store(true)
	if err := co.Bootstrap(context.Background()); err != nil {
		t.Fatalf("bootstrap with 1/3 down: %v", err)
	}
}

// scriptedFind returns a find function serving fixed matches.
func scriptedFind(group string, matches ...Match) func(FindRequest) FindResponse {
	return func(FindRequest) FindResponse { return FindResponse{Group: group, Matches: matches} }
}

func TestFindMergesRanksAndNames(t *testing.T) {
	g := GroupFingerprint(testCands)
	_, co := newFakeTopology(t, 2, []func(FindRequest) FindResponse{
		scriptedFind(g,
			Match{Doc: 2, Score: 4, Cands: [][2]int32{{1, 0}}},
			Match{Doc: 4, Score: 2, Cands: [][2]int32{{1, 1}, {2, 0}}}),
		scriptedFind(g,
			Match{Doc: 3, Score: 3, Cands: [][2]int32{{3, 2}}}),
	})
	res, err := co.Find(context.Background(), "go", nil, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded || res.ShardsDown != 0 || res.ShardsTotal != 2 {
		t.Fatalf("healthy topology reported %+v", res)
	}
	// ada: 4·w0 + 2·w1 = 5.5, bob: 2·w0 = 2, cyd: 3·w2 = 1.5
	want := []Expert{
		{Name: "ada", Score: 4*1.0 + 2*0.75, SupportingResources: 2},
		{Name: "bob", Score: 2, SupportingResources: 1},
		{Name: "cyd", Score: 3 * 0.5, SupportingResources: 1},
	}
	if len(res.Experts) != len(want) {
		t.Fatalf("experts = %+v", res.Experts)
	}
	for i, w := range want {
		if res.Experts[i] != w {
			t.Errorf("expert[%d] = %+v, want %+v", i, res.Experts[i], w)
		}
	}
}

func TestFindForwardsSummedStats(t *testing.T) {
	g := GroupFingerprint(testCands)
	var got atomic.Pointer[FindRequest]
	capture := func(req FindRequest) FindResponse {
		got.Store(&req)
		return FindResponse{Group: g}
	}
	_, co := newFakeTopology(t, 2, []func(FindRequest) FindResponse{capture, capture})
	if _, err := co.Find(context.Background(), "go", map[string][]string{"alpha": {"0.3"}}, core.Params{}); err != nil {
		t.Fatal(err)
	}
	req := got.Load()
	if req == nil {
		t.Fatal("shards never saw the find request")
	}
	// Topology stats: shard0 {Docs:10, go:1}, shard1 {Docs:20, go:2}.
	if req.Stats.Docs != 30 || req.Stats.Terms["go"] != 3 {
		t.Errorf("global stats = %+v, want summed Docs=30 go=3", req.Stats)
	}
	if v := req.ParamValues().Get("alpha"); v != "0.3" {
		t.Errorf("forwarded alpha = %q", v)
	}
	if req.Need != "go" {
		t.Errorf("forwarded need = %q", req.Need)
	}
}

// TestFindShardFailureOrderings drops every subset of a 3-shard
// topology — in each phase — and checks the degraded contract: any
// proper subset down yields a 200-style partial result flagged
// degraded, the full set down yields ErrNoShards.
func TestFindShardFailureOrderings(t *testing.T) {
	g := GroupFingerprint(testCands)
	subsets := [][]int{{0}, {1}, {2}, {0, 1}, {0, 2}, {1, 2}, {0, 1, 2}}
	for _, phase := range []string{"stats", "find"} {
		for _, downSet := range subsets {
			finds := make([]func(FindRequest) FindResponse, 3)
			for i := range finds {
				finds[i] = scriptedFind(g, Match{Doc: int32(i + 1), Score: float64(3 - i), Cands: [][2]int32{{1, 0}}})
			}
			shards, co := newFakeTopology(t, 3, finds)
			for _, i := range downSet {
				if phase == "stats" {
					shards[i].failStats.Store(true)
				} else {
					shards[i].failFind.Store(true)
				}
			}
			res, err := co.Find(context.Background(), "go", nil, core.Params{})
			if len(downSet) == 3 {
				if !errors.Is(err, ErrNoShards) {
					t.Errorf("phase %s, all down: err = %v, want ErrNoShards", phase, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("phase %s, down %v: %v", phase, downSet, err)
				continue
			}
			if !res.Degraded || res.ShardsDown != len(downSet) || res.ShardsTotal != 3 {
				t.Errorf("phase %s, down %v: result %+v", phase, downSet, res)
				continue
			}
			// Surviving shards' matches all hit candidate 1 with weight 1;
			// its support count equals the number of surviving shards.
			if len(res.Experts) != 1 || res.Experts[0].SupportingResources != 3-len(downSet) {
				t.Errorf("phase %s, down %v: experts %+v", phase, downSet, res.Experts)
			}
		}
	}
}

func TestFindRejectsDuplicateDocsAcrossShards(t *testing.T) {
	g := GroupFingerprint(testCands)
	_, co := newFakeTopology(t, 2, []func(FindRequest) FindResponse{
		scriptedFind(g, Match{Doc: 5, Score: 4, Cands: [][2]int32{{1, 0}}}),
		scriptedFind(g, Match{Doc: 5, Score: 2, Cands: [][2]int32{{2, 0}}}),
	})
	_, err := co.Find(context.Background(), "go", nil, core.Params{})
	var mal *MalformedError
	if !errors.As(err, &mal) {
		t.Fatalf("err = %v, want MalformedError (doc owned by two shards)", err)
	}
}

func TestFindRejectsForeignGroupReply(t *testing.T) {
	g := GroupFingerprint(testCands)
	_, co := newFakeTopology(t, 2, []func(FindRequest) FindResponse{
		scriptedFind(g, Match{Doc: 1, Score: 1, Cands: [][2]int32{{1, 0}}}),
		scriptedFind("deadbeefdeadbeef", Match{Doc: 2, Score: 1, Cands: [][2]int32{{1, 0}}}),
	})
	_, err := co.Find(context.Background(), "go", nil, core.Params{})
	var mal *MalformedError
	if !errors.As(err, &mal) || mal.Shard != 1 {
		t.Fatalf("err = %v, want MalformedError from shard 1", err)
	}
}

func TestFindRejectsUnknownCandidate(t *testing.T) {
	g := GroupFingerprint(testCands)
	_, co := newFakeTopology(t, 1, []func(FindRequest) FindResponse{
		scriptedFind(g, Match{Doc: 1, Score: 1, Cands: [][2]int32{{42, 0}}}),
	})
	_, err := co.Find(context.Background(), "go", nil, core.Params{})
	var mal *MalformedError
	if !errors.As(err, &mal) {
		t.Fatalf("err = %v, want MalformedError (vote outside pool)", err)
	}
}

func TestProbeAndHealth(t *testing.T) {
	shards, co := newFakeTopology(t, 3, nil)
	if up, total := co.Probe(context.Background()); up != 3 || total != 3 {
		t.Fatalf("healthy probe = %d/%d", up, total)
	}
	shards[1].failReady.Store(true)
	if up, _ := co.Probe(context.Background()); up != 2 {
		t.Fatalf("probe with shard 1 down: up = %d", up)
	}
	if ids := co.UnreadyShards(); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("unready = %v", ids)
	}
	up, total, boot := co.Health()
	if up != 2 || total != 3 || boot {
		t.Fatalf("health = %d/%d boot=%v (bootstrap not yet run)", up, total, boot)
	}
	if err := co.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, _, boot := co.Health(); !boot {
		t.Fatal("bootstrap did not stick")
	}
}

// TestProbeClosesBreaker pins the out-of-band recovery path: after an
// outage trips a shard's breaker, a successful readiness probe closes
// it immediately, so the first query after recovery is whole instead
// of degraded for a residual cooldown.
func TestProbeClosesBreaker(t *testing.T) {
	g := GroupFingerprint(testCands)
	shards := make([]*fakeShard, 2)
	bases := make([]string, 2)
	for i := range shards {
		shards[i] = &fakeShard{
			id: i, count: 2, cands: testCands,
			stats: Stats{Docs: 10, Terms: map[string]int{"go": 1}},
			find:  scriptedFind(g, Match{Doc: int32(i), Score: 1, Cands: [][2]int32{{1, 0}}}),
		}
		shards[i].start(t)
		bases[i] = shards[i].srv.URL
	}
	co, err := New(Options{
		Shards:       bases,
		ShardTimeout: 2 * time.Second,
		Retry:        resilience.RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		// The long cooldown is the point: nothing but the probe can
		// close the breaker within this test's lifetime.
		Breaker: resilience.BreakerPolicy{Threshold: 1, Cooldown: time.Hour},
		Hedge:   HedgePolicy{Disable: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Bootstrap(context.Background()); err != nil {
		t.Fatal(err)
	}

	shards[1].failStats.Store(true)
	res, err := co.Find(context.Background(), "go", nil, core.Params{})
	if err != nil || !res.Degraded {
		t.Fatalf("outage find = %+v, %v; want degraded", res, err)
	}

	// Healed, but the breaker is open for another hour: still degraded.
	shards[1].failStats.Store(false)
	res, err = co.Find(context.Background(), "go", nil, core.Params{})
	if err != nil || !res.Degraded {
		t.Fatalf("pre-probe find = %+v, %v; want degraded (breaker open)", res, err)
	}

	if up, _ := co.Probe(context.Background()); up != 2 {
		t.Fatalf("probe after heal: up = %d, want 2", up)
	}
	res, err = co.Find(context.Background(), "go", nil, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("find still degraded after a successful readiness probe")
	}
}

// TestFindReusesShardConnections pins the coordinator's owned
// transport: at the fan-out one process admits, calls to a shard reuse
// pooled connections instead of dialling anew. (http.DefaultTransport
// keeps 2 idle connections per host, so at concurrency 32 most calls
// opened a connection and closed it on return.)
func TestFindReusesShardConnections(t *testing.T) {
	shards, co := newFakeTopology(t, 2, nil)
	ctx, stop := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() { co.Run(ctx); close(ran) }()

	const workers, perWorker = 32, 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := co.Find(ctx, "go", nil, core.Params{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// A pool needs one connection per in-flight call; a loaded machine
	// adds the dials a call started and then did not wait for (51 seen),
	// the probe loop and bootstrap a few more. With 2 idle connections
	// per host the same run dials 440-610 times.
	for _, sh := range shards {
		if n := sh.newConns.Load(); n > 4*workers {
			t.Errorf("shard %d accepted %d connections for %d finds at concurrency %d", sh.id, n, workers*perWorker, workers)
		}
	}
	stop()
	<-ran
}
