package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"

	"expertfind"
	"expertfind/internal/analysis"
	"expertfind/internal/dataset"
	"expertfind/internal/faults"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
)

// TestIngestScopedInvalidationE2E drives the scoped-invalidation
// contract end to end through the HTTP surface, over three live
// deltas: each, touching one query's evidence, must turn that query's
// cached entry into a Cache-Status miss that recomputes
// byte-identically to a cold rebuild, never escalate to a full purge,
// and leave untouched queries serving hits — asserted on response
// headers and bodies, not internal counters. The ingest
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

	// Three rounds, each a df-preserving delta on the evidence of a
	// different query: its top matched resources get one of their own
	// words that the query asks for repeated, so the postings move but
	// no document frequency does — the invalidation must reach that
	// query and stay scoped, after every delta.
	params, err := expertfind.ResolveParams()
	if err != nil {
		t.Fatal(err)
	}
	finder := sysLive.CoreFinder()
	bodies := warm // each query's last served body
	for round := 1; round <= 3; round++ {
		target := queries[round-1].Text
		need := finder.Pipeline().AnalyzeNeed(target)
		touched := 0
		for _, sd := range finder.Matches(need, params) {
			if touched == 3 {
				break
			}
			id := socialgraph.ResourceID(sd.Doc)
			r := remote.Graph.Resource(id)
			if newText := repeatNeedWord(finder.Pipeline(), need, r.Text, r.URLs); newText != "" {
				remote.Graph.SetResourceText(id, newText, r.URLs...)
				touched++
			}
		}
		if touched == 0 {
			t.Fatalf("round %d: no evidence resource of %q eligible for a df-preserving edit", round, target)
		}
		rep, err := ing.RunOnce(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.FullPurge || rep.Updates != touched {
			t.Fatalf("round %d: update-only delta of %d edits: %+v, want %d updates and no full purge", round, touched, rep, touched)
		}
		if status = get(); status.Rounds != round {
			t.Fatalf("status after round %d: %+v", round, status)
		}

		// Post-delta dispositions: the touched query misses and
		// recomputes; untouched groups keep serving their last bodies
		// as hits.
		postDelta := make(map[string]string, len(queries))
		hits := 0
		for _, q := range queries {
			code, st, body := fetch(ts, q.Text)
			if code != http.StatusOK {
				t.Fatalf("round %d: post-delta %q: status %d", round, q.Text, code)
			}
			postDelta[q.Text] = body
			switch st {
			case "hit":
				hits++
				if body != bodies[q.Text] {
					t.Fatalf("round %d: post-delta hit for %q changed body", round, q.Text)
				}
			case "miss":
			default:
				t.Fatalf("round %d: post-delta %q: disposition %q", round, q.Text, st)
			}
			if q.Text == target && st != "miss" {
				t.Fatalf("round %d: delta touched the evidence of %q but its entry survived (%q)", round, target, st)
			}
		}
		if hits == 0 {
			t.Fatalf("round %d: delta dropped every cached query: invalidation was not scoped", round)
		}
		// The recomputed entry is resident again and byte-stable.
		if _, st, body := fetch(ts, target); st != "hit" || body != postDelta[target] {
			t.Fatalf("round %d: re-ask of recomputed %q: disposition %q, body equal=%v", round, target, st, body == postDelta[target])
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
		for _, q := range queries {
			code, st, body := fetch(tsCold, q.Text)
			if code != http.StatusOK || st != "" {
				t.Fatalf("round %d: cold %q: status %d disposition %q, want 200 and no Cache-Status", round, q.Text, code, st)
			}
			if body != postDelta[q.Text] {
				t.Fatalf("round %d: post-delta body for %q diverged from the cold rebuild", round, q.Text)
			}
		}
		tsCold.Close()
		bodies = postDelta
	}
}

// repeatNeedWord returns text with one more copy of a word it already
// holds whose stemmed term the need asks for — that term's frequency
// moves, no term is gained or lost — or "" when no word qualifies.
func repeatNeedWord(pipe *analysis.Pipeline, need analysis.Analyzed, text string, urls []string) string {
	oldA, ok := pipe.Analyze(text, urls)
	if !ok {
		return ""
	}
	for _, w := range strings.Fields(text) {
		newText := text + " " + w
		newA, ok := pipe.Analyze(newText, urls)
		if !ok || len(newA.Terms) != len(oldA.Terms) {
			continue
		}
		for t := range need.Terms {
			if newA.Terms[t] > oldA.Terms[t] {
				return newText
			}
		}
	}
	return ""
}
