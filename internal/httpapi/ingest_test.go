package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"expertfind"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
)

// TestIngestScopedInvalidationE2E drives the scoped-invalidation
// contract end to end through the HTTP surface: a live delta touching
// one query's evidence must turn exactly that query's cached entry
// into a Cache-Status miss that recomputes byte-identically to a cold
// rebuild, while untouched queries keep serving hits — asserted on
// response headers and bodies, not internal counters. The ingest
// status endpoint is checked along the way (404 before an ingester is
// attached, live counters after a round).
//
// A dedicated system is built here: the delta mutates the corpus, so
// the package's shared fixture must stay out of it.
func TestIngestScopedInvalidationE2E(t *testing.T) {
	sysLive := expertfind.NewSystem(expertfind.Config{Seed: 5, Scale: 0.05})
	remote := dataset.Generate(dataset.Config{Seed: 5, Scale: 0.05})

	cache := rescache.New(rescache.Options{Capacity: 256})
	h := NewWithOptions(sysLive, Options{Cache: cache})
	ts := httptest.NewServer(h)
	defer ts.Close()
	defer sysLive.SetResultCache(nil)

	fetch := func(srv *httptest.Server, q string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/v1/find?top=5&q=" + url.QueryEscape(q))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Cache-Status"), string(body)
	}

	// No ingester attached yet: the status endpoint must distinguish
	// "ingest disabled" from "no rounds yet".
	resp, err := http.Get(ts.URL + "/v1/ingest/status")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ingest status without ingester: %d, want 404", resp.StatusCode)
	}

	ing, err := sysLive.NewIngester(ingest.Config{
		API:   faults.Wrap(remote.Graph, faults.Config{}),
		Cache: cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	h.SetIngester(ing)

	var status ingest.Status
	get := func() ingest.Status {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/ingest/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status: %d", resp.StatusCode)
		}
		var st ingest.Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	if status = get(); status.Rounds != 0 {
		t.Fatalf("fresh ingester reports %d rounds", status.Rounds)
	}

	// Warm every evaluation query through the HTTP cache: miss, then
	// hit with an identical body.
	queries := sysLive.Queries()
	warm := make(map[string]string, len(queries))
	for _, q := range queries {
		code, st, body := fetch(ts, q.Text)
		if code != http.StatusOK || st != "miss" {
			t.Fatalf("warm %q: status %d disposition %q, want 200 miss", q.Text, code, st)
		}
		code, st, again := fetch(ts, q.Text)
		if code != http.StatusOK || st != "hit" || again != body {
			t.Fatalf("warm re-ask %q: status %d disposition %q, body equal=%v", q.Text, code, st, again == body)
		}
		warm[q.Text] = body
	}

	// A df-preserving delta on the evidence of the first query: its
	// top matched resources get one of their own words repeated, so
	// the postings move but no document frequency does — the
	// invalidation must stay scoped to groups reaching those docs.
	target := queries[0].Text
	params, err := expertfind.ResolveParams()
	if err != nil {
		t.Fatal(err)
	}
	finder := sysLive.CoreFinder()
	need := finder.Pipeline().AnalyzeNeed(target)
	touched := 0
	for _, sd := range finder.Matches(need, params) {
		if touched == 3 {
			break
		}
		id := socialgraph.ResourceID(sd.Doc)
		r := remote.Graph.Resource(id)
		oldA, ok := finder.Pipeline().Analyze(r.Text, r.URLs)
		if !ok {
			continue
		}
		longest := ""
		for _, w := range strings.Fields(r.Text) {
			if len(w) > len(longest) {
				longest = w
			}
		}
		newText := r.Text + " " + longest
		newA, ok := finder.Pipeline().Analyze(newText, r.URLs)
		if !ok || reflect.DeepEqual(oldA.Terms, newA.Terms) {
			continue
		}
		remote.Graph.SetResourceText(id, newText, r.URLs...)
		touched++
	}
	if touched == 0 {
		t.Fatalf("no evidence resource of %q eligible for a df-preserving edit", target)
	}
	rep, err := ing.RunOnce(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullPurge {
		t.Fatalf("update-only delta forced a full purge: %+v", rep)
	}
	if status = get(); status.Rounds != 1 || status.Updates != touched {
		t.Fatalf("status after one round: %+v, want 1 round with %d updates", status, touched)
	}

	// Post-delta dispositions: the touched query misses and recomputes;
	// untouched groups keep serving their warm bodies as hits.
	postDelta := make(map[string]string, len(queries))
	hits := 0
	for _, q := range queries {
		code, st, body := fetch(ts, q.Text)
		if code != http.StatusOK {
			t.Fatalf("post-delta %q: status %d", q.Text, code)
		}
		postDelta[q.Text] = body
		switch st {
		case "hit":
			hits++
			if body != warm[q.Text] {
				t.Fatalf("post-delta hit for %q changed body", q.Text)
			}
		case "miss":
		default:
			t.Fatalf("post-delta %q: disposition %q", q.Text, st)
		}
		if q.Text == target && st != "miss" {
			t.Fatalf("delta touched the evidence of %q but its entry survived (%q)", target, st)
		}
	}
	if hits == 0 {
		t.Fatal("delta dropped every cached query: invalidation was not scoped")
	}
	// The recomputed entry is resident again and byte-stable.
	if _, st, body := fetch(ts, target); st != "hit" || body != postDelta[target] {
		t.Fatalf("re-ask of recomputed %q: disposition %q, body equal=%v", target, st, body == postDelta[target])
	}

	// Cold truth: snapshot the delta-absorbed corpus, rebuild a fresh
	// uncached system from it, and require every post-delta body —
	// surviving hit or recomputed miss alike — byte-identical to the
	// cold server's.
	snap := filepath.Join(t.TempDir(), "corpus.json.gz")
	if err := sysLive.SaveCorpus(snap); err != nil {
		t.Fatal(err)
	}
	sysCold, err := expertfind.Open(expertfind.Options{CorpusPath: snap})
	if err != nil {
		t.Fatal(err)
	}
	tsCold := httptest.NewServer(New(sysCold))
	defer tsCold.Close()
	for _, q := range queries {
		code, st, body := fetch(tsCold, q.Text)
		if code != http.StatusOK || st != "" {
			t.Fatalf("cold %q: status %d disposition %q, want 200 and no Cache-Status", q.Text, code, st)
		}
		if body != postDelta[q.Text] {
			t.Fatalf("post-delta body for %q diverged from the cold rebuild", q.Text)
		}
	}
}
