package httpapi

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"testing"

	"expertfind"
	"expertfind/internal/index"
	"expertfind/internal/scatter"
)

var update = flag.Bool("update", false, "rewrite golden files with observed output")

// goldenScript is the scripted query set: a deterministic walk across
// the read API. Only success responses participate — error bodies
// carry a per-request random request_id.
func goldenScript() []string {
	find := func(q string) string {
		return "/v1/find?" + url.Values{"q": {q}, "top": {"3"}}.Encode()
	}
	return []string{
		"/v1/stats",
		"/v1/domains",
		"/v1/queries",
		"/v1/experts?domain=sport",
		"/v1/experts?domain=computer-engineering",
		find("Which PHP function can I use in order to obtain the length of a string?"),
		find("Can you list some restaurants in Milan?"),
		find("What should I consider when training for a marathon?"),
		"/v1/bestnetwork?" + url.Values{"q": {"Which camera lens is best for night photography?"}, "top": {"3"}}.Encode(),
	}
}

// TestE2EGolden serves a small seeded corpus through the full HTTP
// stack, replays the scripted query set, and byte-compares the
// concatenated responses against the checked-in golden file. Run with
// -update after an intentional output change:
//
//	go test ./internal/httpapi -run TestE2EGolden -update
func TestE2EGolden(t *testing.T) {
	// IndexShards pinned to 1: the default tracks GOMAXPROCS, and the
	// golden transcript must not depend on the machine.
	sys := expertfind.NewSystem(expertfind.Config{
		Seed: 7, Candidates: 12, Scale: 0.05, IndexShards: 1,
	})
	srv := httptest.NewServer(New(sys))
	defer srv.Close()

	var got bytes.Buffer
	for _, path := range goldenScript() {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		fmt.Fprintf(&got, "== GET %s\n%s", path, body)
	}

	checkGolden(t, "e2e.golden", got.Bytes())
}

// TestShardWireGolden pins the coordinator↔shard wire. Shard 0 of 2
// over TestE2EGolden's corpus answers /v1/shard/meta, /v1/shard/stats
// for two needs, and /v1/shard/find under the summed statistics of both
// slices. The transcript holds each find's request body too, so the
// coordinator's encoding of the global statistics is pinned beside the
// shard's replies. Run with -update after an intentional wire change:
//
//	go test ./internal/httpapi -run TestShardWireGolden -update
func TestShardWireGolden(t *testing.T) {
	cfg := expertfind.Config{Seed: 7, Candidates: 12, Scale: 0.05, IndexShards: 1}
	srvs := make([]*httptest.Server, 2)
	for i := range srvs {
		sys, err := expertfind.Open(expertfind.Options{Config: cfg, ShardID: i, ShardCount: len(srvs)})
		if err != nil {
			t.Fatal(err)
		}
		srvs[i] = httptest.NewServer(NewWithOptions(sys, Options{Shard: &ShardOptions{ID: i, Count: len(srvs)}}))
		defer srvs[i].Close()
	}
	do := func(method, url string, body []byte) []byte {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(url)
		} else {
			resp, err = http.Post(url, "application/json", bytes.NewReader(body))
		}
		if err != nil {
			t.Fatalf("%s %s: %v", method, url, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: read: %v", method, url, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, out)
		}
		return out
	}

	var got bytes.Buffer
	fmt.Fprintf(&got, "== GET /v1/shard/meta\n%s", do(http.MethodGet, srvs[0].URL+"/v1/shard/meta", nil))
	for _, need := range []string{
		"What should I consider when training for a marathon?",
		"Which PHP function can I use in order to obtain the length of a string?",
	} {
		path := "/v1/shard/stats?" + url.Values{"q": {need}}.Encode()
		parts := make([]index.GlobalStats, len(srvs))
		for i, srv := range srvs {
			body := do(http.MethodGet, srv.URL+path, nil)
			if i == 0 {
				fmt.Fprintf(&got, "== GET %s\n%s", path, body)
			}
			if err := json.Unmarshal(body, &parts[i]); err != nil {
				t.Fatalf("shard %d stats: %v", i, err)
			}
		}
		req, err := json.Marshal(scatter.FindRequest{
			Need:   need,
			Params: map[string][]string{"top": {"3"}},
			Stats:  index.SumStats(parts...),
		})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== POST /v1/shard/find\n%s\n%s", req, do(http.MethodPost, srvs[0].URL+"/v1/shard/find", req))
	}
	checkGolden(t, "shard.golden", got.Bytes())
}

// checkGolden byte-compares got with testdata/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("API output diverged from %s (rerun with -update if intentional)\ngot  %d bytes\nwant %d bytes\nfirst divergence at byte %d",
			golden, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
