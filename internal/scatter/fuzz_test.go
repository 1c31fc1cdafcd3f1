package scatter

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"expertfind/internal/core"
)

// FuzzCoordinatorReply feeds arbitrary stats and find bodies from shard
// 1 of a two-shard fake topology whose shard 0 answers as the pinned
// shard wire (testdata/shard.golden) does. The find is a ranking with
// finite, non-negative, non-increasing scores and names in the pool, or
// a typed error: a MalformedError, or no shard reachable.
func FuzzCoordinatorReply(f *testing.F) {
	golden, err := os.ReadFile("../httpapi/testdata/shard.golden")
	if err != nil {
		f.Fatal(err)
	}
	// The golden file is a request line, then the reply (a find's
	// request body before it); replies[route] lists a route's replies.
	replies := map[string][]string{}
	lines := bytes.Split(golden, []byte("\n"))
	for i, line := range lines {
		switch {
		case bytes.HasPrefix(line, []byte("== GET /v1/shard/meta")):
			replies["meta"] = append(replies["meta"], string(lines[i+1]))
		case bytes.HasPrefix(line, []byte("== GET /v1/shard/stats")):
			replies["stats"] = append(replies["stats"], string(lines[i+1]))
		case bytes.HasPrefix(line, []byte("== POST /v1/shard/find")):
			replies["find"] = append(replies["find"], string(lines[i+2]))
		}
	}
	var meta Meta
	if err := json.Unmarshal([]byte(replies["meta"][0]), &meta); err != nil {
		f.Fatal(err)
	}
	for i := range replies["stats"] {
		f.Add(replies["stats"][i], replies["find"][i])
	}
	// ROADMAP item 21's overflow: two finite matches for one candidate.
	f.Add(replies["stats"][0], `{"group":"`+meta.Group+`","matches":[{"doc":1,"score":1e308,"cands":[[1,0]]},{"doc":2,"score":1e308,"cands":[[1,0]]}]}`)

	shards := make([]*fakeShard, 2)
	bases := make([]string, 2)
	for i := range shards {
		shards[i] = &fakeShard{id: i, count: 2, cands: meta.Candidates, rawStats: replies["stats"][0], rawFind: replies["find"][0]}
		shards[i].start(f)
		bases[i] = shards[i].srv.URL
	}
	co, err := New(Options{Shards: bases, NoHedge: true})
	if err != nil {
		f.Fatal(err)
	}
	names := map[string]bool{}
	for _, c := range meta.Candidates {
		names[c.Name] = true
	}

	f.Fuzz(func(t *testing.T, stats, find string) {
		sh := shards[1]
		sh.rawMu.Lock()
		sh.rawStats, sh.rawFind = stats, find
		sh.rawMu.Unlock()
		res, err := co.Find(context.Background(), "marathon", nil, core.Params{})
		if err != nil {
			var mal *MalformedError
			if !errors.As(err, &mal) && !errors.Is(err, ErrNoShards) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		experts := named(res)
		for i, e := range experts {
			if math.IsNaN(e.Score) || math.IsInf(e.Score, 0) || e.Score < 0 || !names[e.Name] {
				t.Fatalf("expert %d: %+v", i, e)
			}
			if i > 0 && e.Score > experts[i-1].Score {
				t.Fatalf("experts out of order at %d: %+v", i, experts)
			}
		}
	})
}
