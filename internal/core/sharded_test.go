package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// shardedClone re-analyzes f's documents into an n-shard index and
// returns a Finder over it; graph, pipeline and candidate pool are
// shared.
func shardedClone(t testing.TB, f *Finder, n int) *Finder {
	t.Helper()
	g, pipe := f.Graph(), f.Pipeline()
	sh := index.NewSharded(n)
	for i := 0; i < g.NumResources(); i++ {
		r := g.Resource(socialgraph.ResourceID(i))
		if a, ok := pipe.Analyze(r.Text, r.URLs); ok && f.Index().Has(r.ID) {
			sh.Add(r.ID, a)
		}
	}
	return NewFinder(g, sh, pipe, nil)
}

func assertExpertsBitIdentical(t *testing.T, label string, want, got []ExpertScore) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d experts, want %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i].User != got[i].User || want[i].Resources != got[i].Resources ||
			math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: rank %d = %+v, want %+v", label, i, got[i], want[i])
		}
	}
}

// figure1Params are the query configurations the equivalence and
// determinism tests sweep: both Eq. (1) extremes, the paper default,
// and a profile-only traversal.
func figure1Params() []Params {
	return []Params{
		{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		{Alpha: 1, Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		{AlphaSet: true, Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		{Traversal: socialgraph.TraversalOptions{MaxDistance: 0}},
	}
}

// TestShardedFinderEquivalence checks the end-to-end contract: a
// Finder over a sharded index ranks experts bit-identically to one
// over the monolithic index, for any shard count and query config.
func TestShardedFinderEquivalence(t *testing.T) {
	flat, _ := buildFigure1(t)
	const query = "who is the best at freestyle swimming?"
	for _, n := range []int{1, 2, 5} {
		sharded := shardedClone(t, flat, n)
		for pi, p := range figure1Params() {
			want := flat.Find(query, p)
			if pi == 0 && len(want) == 0 {
				t.Fatal("no experts found for the figure 1 query")
			}
			got := sharded.Find(query, p)
			assertExpertsBitIdentical(t, fmt.Sprintf("shards=%d params=%d", n, pi), want, got)
		}
	}
}

// TestFindDeterministicAcrossRuns guards against map-iteration-order
// nondeterminism anywhere in the query path: the same query must
// produce byte-identical rankings on every run, on both index kinds.
func TestFindDeterministicAcrossRuns(t *testing.T) {
	flat, _ := buildFigure1(t)
	sharded := shardedClone(t, flat, 3)
	const query = "who is the best at freestyle swimming?"
	for pi, p := range figure1Params() {
		wantFlat := flat.Find(query, p)
		wantSharded := sharded.Find(query, p)
		assertExpertsBitIdentical(t, fmt.Sprintf("params=%d flat vs sharded", pi), wantFlat, wantSharded)
		for run := 0; run < 50; run++ {
			assertExpertsBitIdentical(t, fmt.Sprintf("params=%d flat run %d", pi, run), wantFlat, flat.Find(query, p))
			assertExpertsBitIdentical(t, fmt.Sprintf("params=%d sharded run %d", pi, run), wantSharded, sharded.Find(query, p))
		}
	}
}

// TestFindContextStress hammers one sharded Finder from many
// goroutines with varying traversal configs, exercising the
// traversal cache and the shard worker pool concurrently (run
// under -race). Every result must match its sequential reference.
func TestFindContextStress(t *testing.T) {
	flat, _ := buildFigure1(t)
	f := shardedClone(t, flat, 3)

	queries := []string{
		"who is the best at freestyle swimming?",
		"freestyle swimming training",
		"gold medal racing",
		"knitting and gardening",
	}
	params := figure1Params()
	want := make([][]ExpertScore, 0, len(queries)*len(params))
	for _, q := range queries {
		for _, p := range params {
			want = append(want, f.Find(q, p))
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for iter := 0; iter < 25; iter++ {
				qi := (g + iter) % len(queries)
				pi := (g * 3) % len(params)
				got := f.FindContext(ctx, queries[qi], params[pi])
				ref := want[qi*len(params)+pi]
				if len(got) != len(ref) {
					t.Errorf("goroutine %d iter %d: %d experts, want %d", g, iter, len(got), len(ref))
					return
				}
				for i := range ref {
					if got[i].User != ref[i].User || math.Float64bits(got[i].Score) != math.Float64bits(ref[i].Score) {
						t.Errorf("goroutine %d iter %d rank %d: %+v, want %+v", g, iter, i, got[i], ref[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
