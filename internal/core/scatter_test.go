package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"expertfind/internal/index"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
)

// shardFinders splits full's corpus into n slice finders, each
// indexing only the documents index.ShardRoute assigns to it while
// sharing the full graph and analysis pipeline — the exact shape of a
// shard-mode serve process.
func shardFinders(t testing.TB, full *Finder, n int) []*Finder {
	t.Helper()
	g, pipe := full.Graph(), full.Pipeline()
	ixs := make([]*index.Index, n)
	for i := range ixs {
		ixs[i] = index.New()
	}
	for i := 0; i < g.NumResources(); i++ {
		r := g.Resource(socialgraph.ResourceID(i))
		if !full.Index().Has(r.ID) {
			continue
		}
		if a, ok := pipe.Analyze(r.Text, r.URLs); ok {
			ixs[index.ShardRoute(r.ID, n)].Add(r.ID, a)
		}
	}
	out := make([]*Finder, n)
	for i, ix := range ixs {
		out[i] = NewFinder(g, ix, pipe, nil)
	}
	return out
}

// mergeShardMatches concatenates per-shard match lists and sorts them
// under the coordinator's merge order (descending score, ascending
// doc) — equivalent to the k-way merge over already-sorted lists.
func mergeShardMatches(lists [][]ShardMatch) []ShardMatch {
	var all []ShardMatch
	for _, l := range lists {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	return all
}

// TestScatterShardDifferential is the in-package half of the scatter
// determinism contract: for every shard count, summed NeedStats equal
// the single-process collection view, merged ShardMatches equal the
// single-process match list, and RankMerged over them equals Find.
func TestScatterShardDifferential(t *testing.T) {
	full, _ := buildFigure1(t)
	needs := []string{
		"who is the best at freestyle swimming?",
		"swimming training",
	}
	params := []Params{
		{Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		{Alpha: 0.3, AlphaSet: true, WindowSize: 50, Traversal: socialgraph.TraversalOptions{MaxDistance: 2}},
		{WindowFrac: 0.5, Traversal: socialgraph.TraversalOptions{MaxDistance: 1}},
	}
	for _, n := range []int{1, 2, 3, 5} {
		shards := shardFinders(t, full, n)

		total := 0
		for _, sf := range shards {
			total += sf.Index().NumDocs()
		}
		if want := full.Index().NumDocs(); total != want {
			t.Fatalf("n=%d: shard slices hold %d docs, full index %d", n, total, want)
		}

		for _, need := range needs {
			// Phase 1: gather and sum local stats.
			global := index.GlobalStats{TermDF: make(map[string]int)}
			for _, sf := range shards {
				st := sf.NeedStats(need)
				global.Docs += st.Docs
				for term, df := range st.TermDF {
					global.TermDF[term] += df
				}
				for e, df := range st.EntityDF {
					if global.EntityDF == nil {
						global.EntityDF = make(map[kb.EntityID]int, len(st.EntityDF))
					}
					global.EntityDF[e] += df
				}
			}
			if global.Docs != full.Index().NumDocs() {
				t.Fatalf("n=%d need=%q: summed Docs %d != %d", n, need, global.Docs, full.Index().NumDocs())
			}
			a := full.Pipeline().AnalyzeNeed(need)
			for term := range a.Terms {
				if got, want := global.DocFreq(term), full.Index().DocFreq(term); got != want {
					t.Errorf("n=%d need=%q term=%q: summed df %d != %d", n, need, term, got, want)
				}
			}

			for pi, p := range params {
				// Phase 2: score each slice under the global view,
				// merge under the coordinator's total order.
				lists := make([][]ShardMatch, n)
				for i, sf := range shards {
					lists[i] = sf.ShardMatches(context.Background(), need, p, global)
					if !sort.SliceIsSorted(lists[i], func(a, b int) bool {
						if lists[i][a].Score != lists[i][b].Score {
							return lists[i][a].Score > lists[i][b].Score
						}
						return lists[i][a].Doc < lists[i][b].Doc
					}) {
						t.Errorf("n=%d need=%q p=%d shard=%d: ShardMatches not in merge order", n, need, pi, i)
					}
				}
				merged := mergeShardMatches(lists)

				want := full.Matches(a, p)
				if len(merged) != len(want) {
					t.Fatalf("n=%d need=%q p=%d: merged %d matches, single-process %d", n, need, pi, len(merged), len(want))
				}
				for i := range want {
					if merged[i].Doc != want[i].Doc || merged[i].Score != want[i].Score {
						t.Fatalf("n=%d need=%q p=%d: match %d = (%d, %v), want (%d, %v)",
							n, need, pi, i, merged[i].Doc, merged[i].Score, want[i].Doc, want[i].Score)
					}
				}

				got := RankMerged(merged, p)
				if wantRank := full.Find(need, p); !reflect.DeepEqual(got, wantRank) {
					t.Fatalf("n=%d need=%q p=%d: RankMerged diverges from Find:\n got %v\nwant %v", n, need, pi, got, wantRank)
				}
			}
		}
	}
}

// TestScatterNeedStatsOmitsAbsentDims pins the wire-size contract:
// dimensions with zero local frequency are omitted, not reported as 0.
func TestScatterNeedStatsOmitsAbsentDims(t *testing.T) {
	full, _ := buildFigure1(t)
	st := full.NeedStats("freestyle xylophone zymurgy")
	if st.Docs != full.Index().NumDocs() {
		t.Fatalf("Docs = %d, want %d", st.Docs, full.Index().NumDocs())
	}
	if _, ok := st.TermDF["freestyl"]; !ok {
		t.Errorf("expected df entry for a matching stem, got %v", st.TermDF)
	}
	for term, df := range st.TermDF {
		if df <= 0 {
			t.Errorf("term %q reported with df %d; absent dims must be omitted", term, df)
		}
	}
	for e, df := range st.EntityDF {
		if df <= 0 {
			t.Errorf("entity %v reported with df %d; absent dims must be omitted", e, df)
		}
	}
}

// TestRankMergedEdgeCases: empty input, window truncation, and the
// zero-score filter.
func TestRankMergedEdgeCases(t *testing.T) {
	if got := RankMerged(nil, Params{}); len(got) != 0 {
		t.Fatalf("RankMerged(nil) = %v, want empty", got)
	}

	m := []ShardMatch{
		{Doc: 1, Score: 2, Cands: []socialgraph.CandidateDistance{{Candidate: 7, Distance: 0}}},
		{Doc: 2, Score: 1, Cands: []socialgraph.CandidateDistance{{Candidate: 8, Distance: 1}}},
	}
	// Window of 1 must drop doc 2's contribution entirely.
	got := RankMerged(m, Params{WindowSize: 1})
	if len(got) != 1 || got[0].User != 7 {
		t.Fatalf("windowed RankMerged = %v, want only user 7", got)
	}

	// A candidate whose only evidence is weighted to zero is filtered.
	z := []ShardMatch{
		{Doc: 1, Score: 5, Cands: []socialgraph.CandidateDistance{{Candidate: 9, Distance: 2}}},
	}
	got = RankMerged(z, Params{DistanceWeights: [3]float64{1, 1, 0}, WindowSize: -1})
	if len(got) != 0 {
		t.Fatalf("zero-weight RankMerged = %v, want empty", got)
	}
}
