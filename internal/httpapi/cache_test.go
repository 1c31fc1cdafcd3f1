package httpapi

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

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
