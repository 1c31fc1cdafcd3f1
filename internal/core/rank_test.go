package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

// oracleRank is the Eq. (3) aggregator as it was before its tally was
// pooled: a fresh map per rank and a reflective sort. rank must
// reproduce it bit for bit.
func oracleRank(nMatches int, match func(i int) (float64, []socialgraph.CandidateDistance), p Params) []ExpertScore {
	n := p.window(nMatches)
	if n > nMatches {
		n = nMatches
	}
	w := p.weights()

	type tally struct {
		score float64
		n     int
	}
	experts := make(map[socialgraph.UserID]tally)
	for i := 0; i < n; i++ {
		score, cands := match(i)
		for _, cd := range cands {
			t := experts[cd.Candidate]
			t.score += score * w[cd.Distance]
			t.n++
			experts[cd.Candidate] = t
		}
	}

	out := make([]ExpertScore, 0, len(experts))
	for u, t := range experts {
		if t.score > 0 {
			out = append(out, ExpertScore{User: u, Score: t.score, Resources: t.n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].User < out[j].User
	})
	return out
}

// randomShardMatches draws a relevant-resource list of n matches in
// descending score order. Twelve candidates share every resource, so
// each recurs across many of them at several distances. One score in
// five is zero, and scores repeat, so experts tie.
func randomShardMatches(r *rand.Rand, n int) []ShardMatch {
	out := make([]ShardMatch, n)
	score := 4.0
	for i := range out {
		if r.Intn(3) > 0 {
			score *= 0.97
		}
		s := score
		if r.Intn(5) == 0 {
			s = 0
		}
		cands := make([]socialgraph.CandidateDistance, r.Intn(4))
		for j := range cands {
			cands[j] = socialgraph.CandidateDistance{Candidate: socialgraph.UserID(r.Intn(12)), Distance: r.Intn(3)}
		}
		out[i] = ShardMatch{Doc: index.DocID(i), Score: s, Cands: cands}
	}
	return out
}

// rankParams are windows shorter than, equal to and longer than an
// n-match list, a relative and a disabled one, each under the default
// distance weights and under weights that zero distance 1.
func rankParams(n int) []Params {
	var out []Params
	for _, win := range []Params{{}, {WindowSize: 1}, {WindowSize: 5}, {WindowSize: max(n, 1)}, {WindowSize: n + 10}, {WindowSize: -1}, {WindowFrac: 0.3}} {
		out = append(out, win)
		win.DistanceWeights = [3]float64{1, 0, 0.5}
		out = append(out, win)
	}
	return out
}

// TestRankMatchesOracle holds the pooled aggregator to the map-and-sort
// one on random match lists, through both of its callers: RankMerged
// over shipped shard matches, and rankMatches over scored documents
// and a reachability lookup.
func TestRankMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, n := range []int{0, 1, 7, 60, 150} {
		for rep := 0; rep < 4; rep++ {
			matches := randomShardMatches(r, n)
			scored := make([]index.ScoredDoc, n)
			rcm := map[socialgraph.ResourceID][]socialgraph.CandidateDistance{}
			for i, m := range matches {
				scored[i] = index.ScoredDoc{Doc: m.Doc, Score: m.Score}
				rcm[m.Doc] = m.Cands
			}
			for pi, p := range rankParams(n) {
				label := fmt.Sprintf("n%d rep%d params%d %+v", n, rep, pi, p)
				want := oracleRank(n, func(i int) (float64, []socialgraph.CandidateDistance) {
					return matches[i].Score, matches[i].Cands
				}, p)
				assertExpertsBitIdentical(t, label+" RankMerged", want, RankMerged(matches, p))
				assertExpertsBitIdentical(t, label+" rankMatches", want, rankMatches(scored, func(r socialgraph.ResourceID) []socialgraph.CandidateDistance { return rcm[r] }, p))
			}
		}
	}
}

// TestPooledTallyIsolation interleaves ranks of different lists and
// windows from many goroutines, every result held to the oracle: an
// expert surviving in a pooled tally from one rank would surface in the
// next as a foreign expert, an inflated score or a wrong support count.
func TestPooledTallyIsolation(t *testing.T) {
	type query struct {
		matches []ShardMatch
		p       Params
		want    []ExpertScore
	}
	r := rand.New(rand.NewSource(59))
	var queries []query
	for _, n := range []int{0, 3, 40, 120} {
		matches := randomShardMatches(r, n)
		for _, p := range rankParams(n) {
			queries = append(queries, query{matches, p, oracleRank(n, func(i int) (float64, []socialgraph.CandidateDistance) {
				return matches[i].Score, matches[i].Cands
			}, p)})
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, qi := range rand.New(rand.NewSource(int64(g))).Perm(len(queries)) {
				q := queries[qi]
				if got := RankMerged(q.matches, q.p); !slices.Equal(got, q.want) {
					t.Errorf("goroutine %d query %d (%+v): got %v want %v", g, qi, q.p, got, q.want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// drainTallies empties the tally free list and returns what it held.
func drainTallies() []*tally {
	var out []*tally
	for {
		select {
		case tl := <-tallyFree:
			out = append(out, tl)
		default:
			return out
		}
	}
}

// TestTallyReleaseBound: a tally a rank released is empty on the free
// list, every slot of its table zero (that of an expert the positive
// filter dropped too), and one whose table grew past maxPooledExperts
// is dropped rather than pinned in the pool.
func TestTallyReleaseBound(t *testing.T) {
	many := make([]socialgraph.UserID, maxPooledExperts+1)
	for u := range many {
		many[u] = socialgraph.UserID(u)
	}
	for _, tc := range []struct {
		name   string
		users  []socialgraph.UserID
		pooled bool
	}{
		{"three experts", []socialgraph.UserID{2, 0, 1}, true},
		{"table at the bound", []socialgraph.UserID{maxPooledExperts - 1}, true},
		{"experts past the bound", many, false},
		{"table past the bound", []socialgraph.UserID{5, maxPooledExperts}, false},
	} {
		cands := make([]socialgraph.CandidateDistance, len(tc.users))
		for i, u := range tc.users {
			cands[i] = socialgraph.CandidateDistance{Candidate: u, Distance: i % 3}
		}
		drainTallies()
		matches := []ShardMatch{
			{Doc: 1, Score: 2, Cands: cands},
			{Doc: 2, Score: 0, Cands: []socialgraph.CandidateDistance{{Candidate: 7}}},
		}
		if got := RankMerged(matches, Params{}); len(got) != len(tc.users) {
			t.Fatalf("%s: ranked %d experts, want %d", tc.name, len(got), len(tc.users))
		}
		kept := drainTallies()
		if !tc.pooled {
			if len(kept) != 0 {
				t.Errorf("%s: a tally with %d experts and a %d-slot table was pooled, bound %d",
					tc.name, len(kept[0].experts), len(kept[0].slot), maxPooledExperts)
			}
			continue
		}
		if len(kept) != 1 {
			t.Fatalf("%s: %d tallies pooled, want 1", tc.name, len(kept))
		}
		if len(kept[0].experts) != 0 {
			t.Errorf("%s: released tally still holds %d experts", tc.name, len(kept[0].experts))
		}
		for u, j := range kept[0].slot {
			if j != 0 {
				t.Errorf("%s: released tally's slot %d holds %d", tc.name, u, j)
			}
		}
	}
}

// TestRankFarCandidate: a candidate id far past the pooling bound
// grows the table for one rank, and the ranks before, with and after
// it still equal the oracle's.
func TestRankFarCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	far := socialgraph.UserID(maxPooledExperts * 40)
	for rep := 0; rep < 3; rep++ {
		plain := randomShardMatches(r, 50)
		withFar := randomShardMatches(r, 50)
		for i := range withFar {
			if i%7 == 3 {
				withFar[i].Cands = append(withFar[i].Cands, socialgraph.CandidateDistance{Candidate: far, Distance: i % 3})
			}
		}
		for _, matches := range [][]ShardMatch{plain, withFar, plain} {
			for pi, p := range rankParams(len(matches)) {
				want := oracleRank(len(matches), func(i int) (float64, []socialgraph.CandidateDistance) {
					return matches[i].Score, matches[i].Cands
				}, p)
				assertExpertsBitIdentical(t, fmt.Sprintf("rep%d params%d", rep, pi), want, RankMerged(matches, p))
			}
		}
	}
}

// TestRankAllocs: a warm rank allocates only the slice it returns.
func TestRankAllocs(t *testing.T) {
	matches := randomShardMatches(rand.New(rand.NewSource(67)), 100)
	RankMerged(matches, Params{}) // warm a tally
	if got := testing.AllocsPerRun(100, func() { RankMerged(matches, Params{}) }); got != 1 {
		t.Errorf("a warm RankMerged made %.1f allocations, want 1", got)
	}
}

// BenchmarkRank is the Eq. (3) tally over the paper's window: 100
// matches, each reaching up to three of a 40-candidate pool.
func BenchmarkRank(b *testing.B) {
	r := rand.New(rand.NewSource(71))
	matches := make([]ShardMatch, 100)
	score := 4.0
	for i := range matches {
		score *= 0.98
		cands := make([]socialgraph.CandidateDistance, 1+r.Intn(3))
		for j := range cands {
			cands[j] = socialgraph.CandidateDistance{Candidate: socialgraph.UserID(r.Intn(40)), Distance: r.Intn(3)}
		}
		matches[i] = ShardMatch{Doc: index.DocID(i), Score: score, Cands: cands}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(RankMerged(matches, Params{})) == 0 {
			b.Fatal("no experts")
		}
	}
}
