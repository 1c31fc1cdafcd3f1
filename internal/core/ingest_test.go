// System-level delta-vs-rebuild differential: after live ingest
// rounds (adds, edits, deletes applied through internal/ingest), the
// finder over the delta-absorbed graph and index must rank exactly
// like a cold finder built from scratch over the remote corpus state,
// across the full parameter grid — and cached rankings that survive a
// scoped invalidation must be byte-identical to what a cold miss
// recomputes. External test package: internal/ingest imports core, so
// the differential has to live on the far side of the cycle.
package core_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/ingest"
	"expertfind/internal/rescache"
	"expertfind/internal/socialgraph"
)

// ingestSystem is one half of a twin-replica pair: the graph, the
// pipeline it was analyzed with, and a finder over its in-memory
// store.
type ingestSystem struct {
	ds     *dataset.Dataset
	pipe   *analysis.Pipeline
	finder *core.Finder
}

func buildIngestSystem(cfg dataset.Config, shards int) *ingestSystem {
	sys, err := experiments.Build(experiments.BuildOptions{Config: cfg, Store: index.StoreOptions{Workers: shards}})
	if err != nil {
		panic(err)
	}
	return &ingestSystem{ds: sys.DS, pipe: sys.Finder.Pipeline(), finder: sys.Finder}
}

// coldFinder rebuilds remote's current state from scratch: the truth
// a delta-applied system must rank bit-identically to.
func coldFinder(t *testing.T, remote *dataset.Dataset, shards int) *core.Finder {
	t.Helper()
	cold, err := experiments.Build(experiments.BuildOptions{
		Dataset: remote, Store: index.StoreOptions{Workers: shards},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cold.Finder
}

// ingestConfig wires an ingester between the installed system and its
// remote twin.
func ingestConfig(installed *ingestSystem, remote *dataset.Dataset, cache ingest.ScopedCache) ingest.Config {
	return ingest.Config{
		API:     faults.Wrap(remote.Graph, faults.Config{}),
		Graph:   installed.ds.Graph,
		Index:   installed.finder.Index().(*index.Store),
		Pipe:    installed.pipe,
		Finders: []*core.Finder{installed.finder},
		Cache:   cache,
	}
}

// TestIngestDifferentialGrid runs live ingest rounds against twin
// corpora and checks, for every index shard count (the worker count of
// the in-memory store, its memtable cut into that many ranges), alpha,
// and top-k bound, that the delta-absorbed finder ranks identically to
// a cold rebuild of the remote state.
func TestIngestDifferentialGrid(t *testing.T) {
	cfg := dataset.Config{Seed: 5, Scale: 0.05}
	for _, shards := range []int{1, 2, 3, 7} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			installed := buildIngestSystem(cfg, shards)
			remote := dataset.Generate(cfg)
			ing := ingest.New(ingestConfig(installed, remote, nil))
			churn := ingest.NewChurn(remote.Graph, ingest.ChurnConfig{
				Seed: 11, Adds: 4, Updates: 10, Removes: 3,
			})
			for round := 0; round < 2; round++ {
				churn.Round()
				if _, err := ing.RunOnce(context.Background()); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}

			// Cold rebuild of the final remote state, same worker count.
			cold := coldFinder(t, remote, shards)

			for _, alpha := range []float64{0, 0.6, 1} {
				for _, k := range []int{1, 10, 0} { // 0 = exhaustive
					p := core.Params{
						Alpha: alpha, AlphaSet: true, TopK: k,
						Traversal: socialgraph.TraversalOptions{MaxDistance: 2},
					}
					for _, q := range remote.Queries[:6] {
						live, _ := installed.finder.Find(context.Background(), q.Text, p)
						want, _ := cold.Find(context.Background(), q.Text, p)
						if !reflect.DeepEqual(live, want) {
							t.Fatalf("alpha=%v k=%d query %d: delta-absorbed ranking diverged from cold rebuild\nlive: %v\ncold: %v",
								alpha, k, q.ID, live, want)
						}
					}
				}
			}
		})
	}
}

// TestIngestCacheHitsMatchColdMisses attaches a result cache, runs an
// update-only ingest round (collection statistics fixed, so scoped
// invalidation preserves untouched entries), and checks every cached
// disposition after the delta: entries that survive must serve values
// byte-identical to a cold post-delta recompute, and entries that were
// dropped must recompute to exactly those values too.
func TestIngestCacheHitsMatchColdMisses(t *testing.T) {
	cfg := dataset.Config{Seed: 5, Scale: 0.05}
	const shards = 3
	installed := buildIngestSystem(cfg, shards)
	remote := dataset.Generate(cfg)

	cache := rescache.New(rescache.Options{})
	view := cache.Attach()
	installed.finder.SetResultCache(view)
	ing := ingest.New(ingestConfig(installed, remote, cache))

	p := core.Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	ctx := context.Background()
	warm := make(map[int][]core.ExpertScore)
	for _, q := range remote.Queries {
		res, status := installed.finder.Find(ctx, q.Text, p)
		if status != core.CacheMiss {
			t.Fatalf("query %d: first lookup %q, want miss", q.ID, status)
		}
		warm[q.ID] = res
	}

	// A hand-crafted update-only, df-preserving delta: duplicate an
	// existing word of 12 indexed resources. Term frequencies move (the
	// postings change) but no term gains or loses a document, and no
	// text can flip the language filter — so N and every df stay fixed
	// and the invalidation must stay scoped.
	touched := 0
	for i := 0; i < remote.Graph.NumResources() && touched < 12; i++ {
		id := socialgraph.ResourceID(i)
		if remote.Graph.ResourceDeleted(id) {
			continue
		}
		r := remote.Graph.Resource(id)
		oldA, ok := installed.pipe.Analyze(r.Text, r.URLs)
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
		newA, ok := installed.pipe.Analyze(newText, r.URLs)
		if !ok || reflect.DeepEqual(oldA.Terms, newA.Terms) {
			continue
		}
		remote.Graph.SetResourceText(id, newText, r.URLs...)
		touched++
	}
	if touched < 12 {
		t.Fatalf("only %d eligible resources for the df-preserving delta", touched)
	}
	rep, err := ing.RunOnce(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullPurge {
		t.Fatalf("update-only round forced a full purge: %+v", rep)
	}

	// Cold post-delta truth, built from the remote state.
	cold := coldFinder(t, remote, shards)

	hits, misses := 0, 0
	for _, q := range remote.Queries {
		want, _ := cold.Find(context.Background(), q.Text, p)
		res, status := installed.finder.Find(ctx, q.Text, p)
		switch status {
		case core.CacheHit:
			hits++
			// A surviving entry must already equal the post-delta truth
			// (its inputs were untouched, so the pre-delta value is the
			// post-delta value).
			if !reflect.DeepEqual(res, warm[q.ID]) {
				t.Fatalf("query %d: surviving hit changed value", q.ID)
			}
		case core.CacheMiss:
			misses++
		default:
			t.Fatalf("query %d: unexpected disposition %q", q.ID, status)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("query %d (%s): post-delta value diverged from cold rebuild", q.ID, status)
		}
		// And the value just stored must now hit, byte-identical.
		again, status := installed.finder.Find(ctx, q.Text, p)
		if status != core.CacheHit || !reflect.DeepEqual(again, want) {
			t.Fatalf("query %d: re-lookup %q or value diverged", q.ID, status)
		}
	}
	if misses == 0 {
		t.Error("delta invalidated nothing: the scoped-invalidation path was not exercised")
	}
	if hits == 0 {
		t.Error("delta dropped every entry: no scoped survival was exercised")
	}
	t.Logf("post-delta dispositions: %d hits survived, %d misses recomputed (dropped %d)",
		hits, misses, rep.CacheDropped)
}
