package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Figure 1 has fewer matches than any window, so no bound ever binds
// on it. The crowd below is the fixture where one does: forty
// candidates posting about a handful of sports in a small vocabulary,
// so one need matches well over a thousand reachable resources and the
// scores spread (and tie) the way a real corpus's do.

const crowdNeed = "who knows freestyle swimming training at the pool?"

var crowdNeeds = []string{crowdNeed, "marathon running race", "cycling gear for a mountain climb"}

// buildCrowd generates the crowd's graph and analyses every resource.
// One user in three follows the next, so distance-2 resources exist.
func buildCrowd(t testing.TB) (*socialgraph.Graph, *analysis.Pipeline, []index.Doc) {
	t.Helper()
	r := rand.New(rand.NewSource(41))
	pick := func(words ...string) string { return words[r.Intn(len(words))] }
	g := socialgraph.New()
	var users []socialgraph.UserID
	for i := 0; i < 40; i++ {
		u := g.AddUser(fmt.Sprintf("user%02d", i), true)
		users = append(users, u)
		g.SetProfile(u, socialgraph.Twitter, "just another person who likes "+
			pick("swimming", "running", "cycling", "gardening")+" and long quiet weekends outside")
	}
	for i, u := range users {
		if i%3 == 0 {
			g.Follows(u, users[(i+1)%len(users)], socialgraph.Twitter)
		}
		for j := 0; j < 45; j++ {
			text := fmt.Sprintf("finished a %s %s %s %s session with friends at the %s today, %s",
				pick("great", "hard", "short", "long"),
				pick("freestyle", "marathon", "mountain", "evening"),
				pick("swimming", "running", "cycling", "swimming"),
				pick("training", "race", "climb", "practice"),
				pick("pool", "track", "club", "park"),
				strings.Repeat(pick("really good ", "feeling tired ", "freestyle again "), 1+r.Intn(3)))
			g.Owns(u, g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, u, text))
		}
	}
	pipe := analysis.New(analysis.Options{})
	var docs []index.Doc
	for i := 0; i < g.NumResources(); i++ {
		res := g.Resource(socialgraph.ResourceID(i))
		if a, ok := pipe.Analyze(res.Text, res.URLs); ok {
			docs = append(docs, index.Doc{ID: res.ID, A: a})
		}
	}
	return g, pipe, docs
}

// crowdFinders indexes the crowd three ways — one Index, a 3-way
// Sharded, and a segment Store holding two sealed segments, a
// tombstone in the first and a live memtable — all without the one
// document the store deleted, so the three must rank as one.
func crowdFinders(t testing.TB) map[string]*Finder {
	t.Helper()
	g, pipe, docs := buildCrowd(t)
	gone := docs[len(docs)/4]

	mono, sharded := index.New(), index.NewSharded(3)
	for _, d := range docs {
		if d.ID != gone.ID {
			mono.Add(d.ID, d.A)
			sharded.Add(d.ID, d.A)
		}
	}
	store, err := index.NewStore(t.TempDir(), index.StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for _, part := range [][]index.Doc{docs[:len(docs)/2], docs[len(docs)/2 : len(docs)-60]} {
		if err := store.AddBatch(part); err != nil {
			t.Fatal(err)
		}
		if err := store.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	store.ApplyDelta(index.Delta{Removes: []index.Doc{gone}})
	if err := store.AddBatch(docs[len(docs)-60:]); err != nil {
		t.Fatal(err)
	}
	if st := store.Status(); len(st.Segments) != 2 || st.Tombstones != 1 || st.MemtableDocs != 60 {
		t.Fatalf("store fixture is %+v, want 2 segments, 1 tombstone, 60 memtable docs", st)
	}
	return map[string]*Finder{
		"monolithic": NewFinder(g, mono, pipe, nil),
		"sharded":    NewFinder(g, sharded, pipe, nil),
		"store":      NewFinder(g, store, pipe, nil),
	}
}

// TestMatchBound pins the rule: the window narrows TopK only when it is
// an absolute count.
func TestMatchBound(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want int
	}{
		{Params{}, DefaultWindowSize},
		{Params{TopK: -3}, DefaultWindowSize},
		{Params{TopK: 10}, 10},
		{Params{TopK: 500}, DefaultWindowSize},
		{Params{WindowSize: 5, TopK: 500}, 5},
		{Params{WindowSize: 250, TopK: 10}, 10},
		{Params{WindowSize: 250}, 250},
		{Params{WindowSize: -1}, 0},
		{Params{WindowSize: -1, TopK: 500}, 500},
		{Params{WindowFrac: 0.5}, 0},
		{Params{WindowFrac: 0.5, WindowSize: 5, TopK: 500}, 500},
	} {
		if got := c.p.MatchBound(); got != c.want {
			t.Errorf("%+v: MatchBound = %d, want %d", c.p, got, c.want)
		}
	}
}

// TestFindWindowBoundDifferential is the ranking-identity proof of the
// window bound where it binds: on every index kind, under every window
// × top-k shape, Find equals the Eq. (3) aggregation of the list
// Matches returns without the window's help, Explain still accounts
// for every expert's whole score, and a shard ships no more than the
// bound.
func TestFindWindowBoundDifferential(t *testing.T) {
	finders := crowdFinders(t)
	trav := socialgraph.TraversalOptions{MaxDistance: 2}
	var shapes []Params
	for _, w := range []int{1, 5, 100, 250, -1} {
		for _, k := range []int{0, 10, 500} {
			shapes = append(shapes, Params{WindowSize: w, TopK: k, Traversal: trav})
		}
	}
	shapes = append(shapes, Params{WindowFrac: 0.25, Traversal: trav}, Params{WindowFrac: 0.25, TopK: 500, Traversal: trav})

	ref := finders["monolithic"]
	for _, need := range crowdNeeds {
		a := ref.Pipeline().AnalyzeNeed(need)
		if n := len(ref.Matches(a, Params{Traversal: trav})); n <= 250 {
			t.Fatalf("need %q matches %d resources; the fixture must exceed every window (> 250)", need, n)
		}
		for _, p := range shapes {
			want := ref.RankFromMatches(ref.Matches(a, p), p)
			if len(want) == 0 {
				t.Fatalf("need %q %+v: no experts", need, p)
			}
			for name, f := range finders {
				label := fmt.Sprintf("%s need=%q w=%d f=%g k=%d", name, need, p.WindowSize, p.WindowFrac, p.TopK)
				assertExpertsBitIdentical(t, label+" own matches", want, f.RankFromMatches(f.Matches(a, p), p))
				got := f.Find(need, p)
				assertExpertsBitIdentical(t, label, want, got)

				for _, e := range got[:min(3, len(got))] {
					sum, n := 0.0, 0
					for _, ev := range f.Explain(a, e.User, p, 0) {
						sum += ev.Contribution
						n++
					}
					if n != e.Resources || math.Abs(sum-e.Score) > 1e-9*e.Score {
						t.Fatalf("%s: user %d explains %d resources summing %v, ranked with %d and %v",
							label, e.User, n, sum, e.Resources, e.Score)
					}
				}

				shipped := f.ShardMatches(context.Background(), need, p, nil)
				if b := p.MatchBound(); b > 0 && len(shipped) > b {
					t.Fatalf("%s: ShardMatches shipped %d matches past the bound %d", label, len(shipped), b)
				}
				assertExpertsBitIdentical(t, label+" RankMerged", want, RankMerged(shipped, p))
			}
		}
	}
}

// countingSearcher records what the finder asked of the index and what
// came back.
type countingSearcher struct {
	index.Searcher
	k, returned int
}

func (c *countingSearcher) ScoreStatsTopK(need analysis.Analyzed, alpha float64, st index.CollectionStats, k int, accept func(index.DocID) bool) []index.ScoredDoc {
	out := c.Searcher.ScoreStatsTopK(need, alpha, st, k, accept)
	c.k, c.returned = k, len(out)
	return out
}

// TestDefaultFindReadsOnlyItsWindow pins the bound in place: a find
// with default parameters over a need with a thousand matches asks the
// index for, and gets, the window's hundred, and says so on its
// index_match span. Without the bound the ranking would be the same and
// nothing else would notice.
func TestDefaultFindReadsOnlyItsWindow(t *testing.T) {
	g, pipe, docs := buildCrowd(t)
	ix := index.New()
	for _, d := range docs {
		ix.Add(d.ID, d.A)
	}
	rec := &countingSearcher{Searcher: ix}
	f := NewFinder(g, rec, pipe, nil)
	a := pipe.AnalyzeNeed(crowdNeed)
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}} // the window left at its default
	if n := len(f.Matches(a, p)); n < 1000 || rec.k != 0 || rec.returned != n {
		t.Fatalf("Matches returned %d (index asked for k=%d, returned %d); want every one of >= 1000 matches", n, rec.k, rec.returned)
	}

	tracer := telemetry.NewTracer(4)
	ctx, tr := tracer.Start(context.Background(), "find", "t0")
	if len(f.FindContext(ctx, crowdNeed, p)) == 0 {
		t.Fatal("no experts")
	}
	tr.Finish()
	if rec.k != DefaultWindowSize || rec.returned != DefaultWindowSize {
		t.Fatalf("default find asked the index for k=%d and read %d matches, want %d and %d",
			rec.k, rec.returned, DefaultWindowSize, DefaultWindowSize)
	}
	var seen bool
	for _, sp := range tracer.Recent(1)[0].Spans {
		if sp.Name == "index_match" {
			seen = true
			want := strconv.Itoa(DefaultWindowSize)
			if sp.Attrs["bound"] != want || sp.Attrs["matches"] != want {
				t.Errorf("index_match attrs %v, want bound and matches %s", sp.Attrs, want)
			}
		}
	}
	if !seen {
		t.Error("no index_match span on the trace")
	}

	f.ShardMatches(context.Background(), crowdNeed, p, nil)
	if rec.k != DefaultWindowSize {
		t.Errorf("ShardMatches asked the index for k=%d, want %d", rec.k, DefaultWindowSize)
	}
	f.Explain(a, f.Candidates()[0], p, 0)
	if rec.k != DefaultWindowSize {
		t.Errorf("Explain asked the index for k=%d, want %d", rec.k, DefaultWindowSize)
	}
}

// TestReachAcceptEqualsMap holds the bitset filter to the map it was
// built from, over every resource id and one past either end, for
// several traversals, before and after an invalidation that follows a
// graph mutation — and while concurrent finds share the cache (-race).
func TestReachAcceptEqualsMap(t *testing.T) {
	f := crowdFinders(t)["sharded"]
	g := f.Graph()
	travs := []socialgraph.TraversalOptions{
		{MaxDistance: 0},
		{MaxDistance: 1},
		{MaxDistance: 2},
		{MaxDistance: 2, Networks: []socialgraph.Network{socialgraph.Facebook}}, // reaches nothing
	}
	check := func(stage string) {
		t.Helper()
		for _, opts := range travs {
			r := f.reachability(opts)
			if again := f.reachability(opts); again != r {
				t.Fatalf("%s %+v: a second lookup returned another entry", stage, opts)
			}
			n := 0
			for d := socialgraph.ResourceID(-1); int(d) <= g.NumResources(); d++ {
				_, want := r.rcm[d]
				if got := r.accept(d); got != want {
					t.Fatalf("%s %+v: accept(%d) = %v, the map says %v", stage, opts, d, got, want)
				}
				if want {
					n++
				}
			}
			if n != len(r.rcm) {
				t.Fatalf("%s %+v: %d ids accepted, the map holds %d", stage, opts, n, len(r.rcm))
			}
		}
		if r := f.reachability(travs[2]); len(r.rcm) < 1000 {
			t.Fatalf("%s: distance 2 reaches %d resources; the fixture should reach > 1000", stage, len(r.rcm))
		}
	}
	check("cold")

	// Grow the graph past the last word of the old bitset.
	before := f.reachability(travs[1])
	u := f.Candidates()[0]
	var added socialgraph.ResourceID
	for i := 0; i < 70; i++ {
		added = g.AddResource(socialgraph.Twitter, socialgraph.KindTweet, u, "one more freestyle swimming training note")
		g.Owns(u, added)
	}
	if before.accept(added) {
		t.Fatal("the cached filter accepts a resource added after it was built")
	}
	f.InvalidateTraversal()
	if after := f.reachability(travs[1]); after == before || !after.accept(added) {
		t.Fatalf("after InvalidateTraversal the entry is reused (%v) or misses the added resource", after == before)
	}
	check("after invalidation")

	p := Params{Traversal: travs[2]}
	want := f.Find(crowdNeed, p)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w == 0 && i%5 == 0 {
					f.InvalidateTraversal()
				}
				got := f.Find(crowdNeed, p)
				if len(got) != len(want) || got[0] != want[0] {
					t.Errorf("worker %d find %d: top expert %+v of %d, want %+v of %d", w, i, got[0], len(got), want[0], len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkFindWindowBound is the find path's own benchmark: the
// default window (so the bound is in force) over the crowd on a 3-way
// sharded in-memory index, analysis included.
func BenchmarkFindWindowBound(b *testing.B) {
	f := crowdFinders(b)["sharded"]
	p := Params{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}}
	f.Find(crowdNeed, p) // build the traversal entry outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(f.Find(crowdNeed, p)) == 0 {
			b.Fatal("no experts")
		}
	}
}
