package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"expertfind"
	"expertfind/internal/index"
	"expertfind/internal/scatter"
	"expertfind/internal/telemetry"
)

var (
	fuzzShardOnce sync.Once
	fuzzShard     *Handler
)

// FuzzShardEndpoints sends arbitrary query strings and bodies to the
// routes a coordinator and a client reach a shard through —
// GET /v1/shard/stats, POST /v1/shard/find and GET /v1/find — on shard
// 0 of 2 over TestShardWireGolden's corpus. Every answer is a 200 whose
// body decodes as the route's reply, or a JSON 4xx: never a 5xx, and
// never an empty 200. route picks the endpoint; the body is sent to
// every route. The seeds are the golden transcripts' requests.
func FuzzShardEndpoints(f *testing.F) {
	golden, err := os.Open(filepath.Join("testdata", "shard.golden"))
	if err != nil {
		f.Fatal(err)
	}
	lines := bufio.NewScanner(golden)
	lines.Buffer(nil, 1<<20)
	for lines.Scan() {
		switch line := lines.Text(); {
		case strings.HasPrefix(line, "== GET /v1/shard/stats?"):
			f.Add(uint8(0), strings.TrimPrefix(line, "== GET /v1/shard/stats?"), []byte(nil))
		case line == "== POST /v1/shard/find" && lines.Scan():
			f.Add(uint8(1), "", lines.Bytes())
		}
	}
	golden.Close()
	for _, path := range goldenScript() {
		if q, ok := strings.CutPrefix(path, "/v1/find?"); ok {
			f.Add(uint8(2), q, []byte(nil))
			f.Add(uint8(2), q+"&alpha=NaN&window=-3&topk=1&distance=9&networks=twitter,,x&friends=1", []byte(nil))
		}
	}
	f.Add(uint8(1), "q=x", []byte(`{"need":"php","params":{"alpha":["2"]},"stats":{"docs":-1}}`))
	f.Add(uint8(1), "", []byte(`{"need":"php","stats":{"docs":3,"terms":{"php":9}}}`))

	fuzzShardOnce.Do(func() {
		sys, err := expertfind.Open(expertfind.Options{
			Config:  expertfind.Config{Seed: 7, Candidates: 12, Scale: 0.05, IndexShards: 1},
			ShardID: 0, ShardCount: 2,
		})
		if err != nil {
			f.Fatal(err)
		}
		fuzzShard = NewWithOptions(sys, Options{Shard: &ShardOptions{ID: 0, Count: 2}, Tracer: telemetry.NewTracer(8)})
	})
	f.Fuzz(func(t *testing.T, route uint8, query string, body []byte) {
		method, path, reply := http.MethodGet, "/v1/shard/stats", any(&index.GlobalStats{})
		switch route % 3 {
		case 1:
			method, path, reply = http.MethodPost, "/v1/shard/find", &scatter.FindResponse{}
		case 2:
			path, reply = "/v1/find", &findResponse{}
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		fuzzShard.ServeHTTP(rec, req)
		label := method + " " + path + "?" + query
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: %d with Content-Type %q", label, rec.Code, ct)
		}
		switch {
		case rec.Code == http.StatusOK:
			if rec.Body.Len() == 0 {
				t.Fatalf("%s: an empty 200", label)
			}
			if err := json.Unmarshal(rec.Body.Bytes(), reply); err != nil {
				t.Fatalf("%s: 200 whose body does not decode: %v\n%s", label, err, rec.Body)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var e map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
				t.Fatalf("%s: %d without a JSON error: %q", label, rec.Code, rec.Body)
			}
		default:
			t.Fatalf("%s: status %d: %s", label, rec.Code, rec.Body)
		}
	})
}
