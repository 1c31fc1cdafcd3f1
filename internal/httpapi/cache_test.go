package httpapi

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/rescache"
)

// TestCacheStatusHeader wires the serving stack with a result cache
// and checks the Cache-Status disposition header plus the corpus-swap
// invalidation path.
func TestCacheStatusHeader(t *testing.T) {
	server(t) // build the shared system
	cache := rescache.New(rescache.Options{Capacity: 64})
	h := NewWithOptions(sys, Options{Cache: cache})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer sys.SetResultCache(nil)

	fetch := func(q string) (string, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/find?q=" + q + "&top=3")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET q=%s: status %d: %s", q, resp.StatusCode, body)
		}
		return resp.Header.Get("Cache-Status"), string(body)
	}

	st1, body1 := fetch("swimming")
	st2, body2 := fetch("swimming")
	if st1 != "miss" || st2 != "hit" {
		t.Fatalf("statuses %q, %q; want miss then hit", st1, st2)
	}
	if body1 != body2 {
		t.Fatal("cached response body differs from cold one")
	}
	if cache.Len() == 0 {
		t.Fatal("cache empty after a miss")
	}

	// Reinstalling a corpus advances the generation: the old entries
	// are purged and the same query misses again.
	gen := cache.Generation()
	h.SetSystem(sys)
	if cache.Generation() != gen+1 {
		t.Fatalf("generation %d after SetSystem, want %d", cache.Generation(), gen+1)
	}
	if st, _ := fetch("swimming"); st != "miss" {
		t.Fatalf("post-swap status %q, want miss", st)
	}

	// Removing the corpus invalidates outright; the probe answers 503
	// with no cache header and no resident entries.
	h.SetSystem(nil)
	if cache.Len() != 0 {
		t.Fatalf("cache holds %d entries after corpus removal", cache.Len())
	}
	resp, err := http.Get(ts.URL + "/v1/find?q=swimming")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with no corpus, want 503", resp.StatusCode)
	}
	if h := resp.Header.Get("Cache-Status"); h != "" {
		t.Fatalf("Cache-Status %q on 503, want unset", h)
	}

	// Reinstalling after the removal recovers caching: a new
	// generation, and the same query (fetch fails on any non-200)
	// answers miss then hit again.
	gen = cache.Generation()
	h.SetSystem(sys)
	if cache.Generation() <= gen {
		t.Fatalf("generation %d after reinstall, want > %d", cache.Generation(), gen)
	}
	st1, _ = fetch("swimming")
	st2, _ = fetch("swimming")
	if st1 != "miss" || st2 != "hit" {
		t.Fatalf("post-reinstall statuses %q, %q; want miss then hit", st1, st2)
	}
}

// TestNoCacheNoHeader guards the default path: without a cache,
// responses carry no Cache-Status header at all.
func TestNoCacheNoHeader(t *testing.T) {
	resp, err := http.Get(server(t).URL + "/v1/find?q=swimming")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	if h := resp.Header.Get("Cache-Status"); h != "" {
		t.Fatalf("Cache-Status %q without a cache, want unset", h)
	}
}

// cachedFindURL is the request the reply tests repeat on every path.
const cachedFindURL = "/v1/find?q=why+is+copper+a+good+conductor%3F&top=7"

// serveFind sends one cachedFindURL request through h and returns its
// Cache-Status and body. It may run off the test's goroutine, so a
// failure is an Errorf: the caller's comparison then fails too.
func serveFind(t *testing.T, h http.Handler) (string, []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, cachedFindURL, nil))
	if rec.Code != http.StatusOK {
		t.Errorf("status %d: %s", rec.Code, rec.Body)
	}
	return rec.Header().Get("Cache-Status"), rec.Body.Bytes()
}

// TestFindReplyAlikeOnEveryPath: a cacheless handler, a miss, a hit and
// a follower coalesced onto an in-flight leader send the same bytes.
func TestFindReplyAlikeOnEveryPath(t *testing.T) {
	server(t) // build the shared system
	defer sys.SetResultCache(nil)
	sys.SetResultCache(nil)
	st, cold := serveFind(t, NewWithOptions(sys, Options{}))
	if st != "" {
		t.Fatalf("cacheless Cache-Status %q", st)
	}

	cache := rescache.New(rescache.Options{Capacity: 8})
	h := NewWithOptions(sys, Options{Cache: cache})
	for _, want := range []string{"miss", "hit"} {
		if st, body := serveFind(t, h); st != want || !bytes.Equal(body, cold) {
			t.Fatalf("Cache-Status %q (want %q), body\n%s\ncacheless\n%s", st, want, body, cold)
		}
	}

	// A leader holds the key in flight while the handler's request
	// coalesces onto it.
	view := cache.Attach()
	sys.SetResultCache(view)
	need := "why is copper a good conductor?"
	p, err := expertfind.ResolveParams()
	if err != nil {
		t.Fatal(err)
	}
	f := sys.CoreFinder()
	key := core.CacheKey{Need: core.NormalizeNeed(need), Group: f.Pool().Group(), Params: p.Fingerprint()}
	started, release := make(chan struct{}), make(chan struct{})
	go view.GetRanking(key, func() []core.ExpertScore {
		close(started)
		<-release
		return f.FindAnalyzed(f.Pipeline().AnalyzeNeed(need), p)
	})
	<-started
	type reply struct {
		st   string
		body []byte
	}
	done := make(chan reply, 1)
	go func() {
		st, body := serveFind(t, h)
		done <- reply{st, body}
	}()
	time.Sleep(50 * time.Millisecond) // let the request block on the leader
	close(release)
	if got := <-done; got.st != "coalesced" || !bytes.Equal(got.body, cold) {
		t.Fatalf("Cache-Status %q (want coalesced), body\n%s\ncacheless\n%s", got.st, got.body, cold)
	}
}

// TestConcurrentFirstHits: many requests take the first hit on one
// entry at once, so they race to render its score text; under -race
// every body must be the cacheless one.
func TestConcurrentFirstHits(t *testing.T) {
	server(t) // build the shared system
	defer sys.SetResultCache(nil)
	sys.SetResultCache(nil)
	_, cold := serveFind(t, NewWithOptions(sys, Options{}))

	// Fill the entry past the handler: the copying path renders no
	// score text, so the handler's first hit is the first to.
	cache := rescache.New(rescache.Options{Capacity: 8})
	h := NewWithOptions(sys, Options{Cache: cache})
	p, _ := expertfind.ResolveParams()
	if _, status := sys.CoreFinder().Find(context.Background(), "why is copper a good conductor?", p); status != core.CacheMiss {
		t.Fatalf("filling the entry: %q", status)
	}
	const n = 16
	start := make(chan struct{})
	bodies := make([][]byte, n)
	statuses := make([]string, n)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			statuses[i], bodies[i] = serveFind(t, h)
		}()
	}
	close(start)
	wg.Wait()
	for i, body := range bodies {
		if statuses[i] != "hit" || !bytes.Equal(body, cold) {
			t.Fatalf("request %d: Cache-Status %q, body\n%s\ncacheless\n%s", i, statuses[i], body, cold)
		}
	}
}

// TestSwapDuringFinds: /v1/find runs while SetSystem alternates between
// two Systems over different candidate pools, behind a result cache.
// Under -race, every body must be one of the two Systems' cold bodies
// for its need: a find is ranked, cached and named by the one System it
// loaded. Generated handles are positional (candidate-01, …), so the
// pools differ in size: seed 2's 14 candidates hold two that seed 1's
// 12 lack, and a ranking named from the other pool would be a 500.
func TestSwapDuringFinds(t *testing.T) {
	swapOnce.Do(func() {
		swapSys[0] = expertfind.NewSystem(expertfind.Config{Seed: 1, Candidates: 12, Scale: 0.05})
		swapSys[1] = expertfind.NewSystem(expertfind.Config{Seed: 2, Candidates: 14, Scale: 0.05})
	})
	needs := []string{"why is copper a good conductor?", "best marathon training plan", "php string length function"}
	find := func(h http.Handler, need string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/find?q="+url.QueryEscape(need), nil))
		return rec.Code, rec.Body.Bytes()
	}
	cold := make(map[string][2][]byte)
	for i, s := range swapSys {
		s.SetResultCache(nil)
		h := NewWithOptions(s, Options{})
		for _, need := range needs {
			code, body := find(h, need)
			if code != http.StatusOK {
				t.Fatalf("cold find %q on system %d: %d %s", need, i, code, body)
			}
			bodies := cold[need]
			bodies[i] = body
			cold[need] = bodies
		}
	}
	if bytes.Equal(cold[needs[0]][0], cold[needs[0]][1]) {
		t.Fatal("the two Systems rank alike: the test cannot tell them apart")
	}

	h := NewWithOptions(swapSys[0], Options{Cache: rescache.New(rescache.Options{Capacity: 64})})
	defer swapSys[0].SetResultCache(nil)
	defer swapSys[1].SetResultCache(nil)
	// The swapper starts on the System the handler does not serve, so
	// every SetSystem it makes is a real swap. The workers keep finding
	// until each has made perWorker finds and minSwaps swaps have run:
	// on a loaded machine cache-hit finds can all finish inside one of
	// the swapper's sleeps.
	const workers, perWorker, minSwaps = 4, 60, 4
	var swaps atomic.Int64
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for n := 1; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			h.SetSystem(swapSys[n%2])
			swaps.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	deadline := time.Now().Add(time.Minute)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker || swaps.Load() < minSwaps; i++ {
				if time.Now().After(deadline) {
					t.Errorf("worker %d: %d finds and %d swaps after a minute, want %d and %d", w, i, swaps.Load(), perWorker, minSwaps)
					return
				}
				need := needs[(w+i)%len(needs)]
				code, body := find(h, need)
				if c := cold[need]; code != http.StatusOK || !bytes.Equal(body, c[0]) && !bytes.Equal(body, c[1]) {
					t.Errorf("find %q during swaps: %d\n%s\nis neither cold body\n%s\n%s", need, code, body, c[0], c[1])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-stopped
	if n := swaps.Load(); n < minSwaps {
		t.Errorf("only %d swaps ran beside the finds", n)
	}
}

var (
	swapOnce sync.Once
	swapSys  [2]*expertfind.System
)
