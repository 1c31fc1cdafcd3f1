package scatter

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"expertfind/internal/core"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
)

func m(doc int32, score float64) core.ShardMatch {
	return core.ShardMatch{Doc: index.DocID(doc), Score: score}
}

func docs(ms []core.ShardMatch) []int32 {
	out := make([]int32, len(ms))
	for i, mm := range ms {
		out[i] = int32(mm.Doc)
	}
	return out
}

func TestMergeInterleaves(t *testing.T) {
	lists := []mergeList{
		{shard: 0, matches: []core.ShardMatch{m(4, 9), m(1, 5), m(9, 5), m(3, 1)}},
		{shard: 1, matches: []core.ShardMatch{m(7, 8), m(2, 5), m(8, 2)}},
		{shard: 2, matches: []core.ShardMatch{m(5, 10)}},
	}
	got, err := Merge(lists)
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{5, 4, 7, 1, 2, 9, 8, 3}
	if g := docs(got); len(g) != len(want) {
		t.Fatalf("merged %v, want %v", g, want)
	} else {
		for i := range want {
			if g[i] != want[i] {
				t.Fatalf("merged %v, want %v", g, want)
			}
		}
	}
}

func TestMergeEmptyLists(t *testing.T) {
	got, err := Merge([]mergeList{
		{shard: 0},
		{shard: 1, matches: []core.ShardMatch{m(2, 3), m(1, 1)}},
		{shard: 2, matches: nil},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Doc != 2 || got[1].Doc != 1 {
		t.Fatalf("merged %v", docs(got))
	}

	got, err = Merge([]mergeList{{shard: 0}, {shard: 1}})
	if err != nil || len(got) != 0 {
		t.Fatalf("all-empty merge = %v, %v", docs(got), err)
	}
	got, err = Merge(nil)
	if err != nil || len(got) != 0 {
		t.Fatalf("no-list merge = %v, %v", docs(got), err)
	}
}

func TestMergeRejectsDuplicateDocs(t *testing.T) {
	_, err := Merge([]mergeList{
		{shard: 0, matches: []core.ShardMatch{m(4, 9), m(1, 5)}},
		{shard: 2, matches: []core.ShardMatch{m(7, 8), m(1, 3)}},
	})
	var mal *MalformedError
	if !errors.As(err, &mal) {
		t.Fatalf("err = %v, want MalformedError", err)
	}
	if mal.Shard != 2 {
		t.Errorf("blamed shard %d, want 2 (the later reporter)", mal.Shard)
	}
}

func TestMergeRejectsDuplicateWithinOneShard(t *testing.T) {
	// An intra-list duplicate is also an ordering violation: equal
	// (score, doc) pairs cannot be strictly ordered.
	_, err := Merge([]mergeList{
		{shard: 1, matches: []core.ShardMatch{m(4, 9), m(4, 9)}},
	})
	var mal *MalformedError
	if !errors.As(err, &mal) || mal.Shard != 1 {
		t.Fatalf("err = %v, want MalformedError from shard 1", err)
	}
}

func TestMergeRejectsUnsortedList(t *testing.T) {
	for name, list := range map[string][]core.ShardMatch{
		"score ascending": {m(1, 2), m(2, 5)},
		"doc descending":  {m(5, 3), m(2, 3)},
	} {
		_, err := Merge([]mergeList{{shard: 0, matches: list}})
		var mal *MalformedError
		if !errors.As(err, &mal) {
			t.Errorf("%s: err = %v, want MalformedError", name, err)
		}
	}
}

// TestMergeEqualsSortedConcat cross-checks the k-way merge against
// sorting the concatenation, over random disjoint sorted lists.
func TestMergeEqualsSortedConcat(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5)
		var all []core.ShardMatch
		lists := make([]mergeList, n)
		for d := int32(0); d < 40; d++ {
			if rng.Intn(3) == 0 {
				continue
			}
			mm := m(d, float64(rng.Intn(8))) // few distinct scores → many ties
			sh := int(d) % n
			lists[sh].matches = append(lists[sh].matches, mm)
			all = append(all, mm)
		}
		for i := range lists {
			lists[i].shard = i
			sort.Slice(lists[i].matches, func(a, b int) bool {
				return mergeLess(lists[i].matches[a], lists[i].matches[b])
			})
		}
		got, err := Merge(lists)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sort.Slice(all, func(a, b int) bool { return mergeLess(all[a], all[b]) })
		if len(got) != len(all) {
			t.Fatalf("trial %d: %d merged, want %d", trial, len(got), len(all))
		}
		for i := range all {
			if got[i].Doc != all[i].Doc || got[i].Score != all[i].Score {
				t.Fatalf("trial %d: position %d: got %v, want %v", trial, i, got[i], all[i])
			}
		}
	}
}

func TestConvertResponseValidates(t *testing.T) {
	topo, err := core.NewPool([]core.Candidate{{ID: 10, Name: "ten"}})
	if err != nil {
		t.Fatal(err)
	}
	g := topo.Group()
	resp := FindResponse{Group: g, Matches: []Match{{Doc: 3, Score: 2, Cands: [][2]int32{{10, 1}}}}}
	ml, err := convertResponse(1, topo, resp)
	if err != nil {
		t.Fatal(err)
	}
	want := socialgraph.CandidateDistance{Candidate: 10, Distance: 1}
	if len(ml.matches) != 1 || ml.matches[0].Cands[0] != want {
		t.Fatalf("converted %+v", ml.matches)
	}

	if _, err := convertResponse(1, topo, FindResponse{Group: "bbbb", Matches: resp.Matches}); err == nil {
		t.Error("group mismatch accepted")
	}
	bad := FindResponse{Group: g, Matches: []Match{{Doc: 3, Score: 2, Cands: [][2]int32{{10, 7}}}}}
	if _, err := convertResponse(1, topo, bad); err == nil {
		t.Error("out-of-range distance accepted")
	}
	// Eq. (1) gives a finite non-negative score.
	for _, score := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		odd := FindResponse{Group: g, Matches: []Match{{Doc: 3, Score: score, Cands: [][2]int32{{10, 1}}}}}
		if _, err := convertResponse(1, topo, odd); err == nil {
			t.Errorf("score %v accepted", score)
		}
	}
	// The Eq. (3) tally is indexed by candidate id: an id outside the
	// pool, a negative or a huge one above all, never reaches it.
	for _, u := range []int32{11, -1, 1 << 30} {
		stray := FindResponse{Group: g, Matches: []Match{{Doc: 3, Score: 2, Cands: [][2]int32{{10, 1}, {u, 0}}}}}
		if _, err := convertResponse(1, topo, stray); err == nil {
			t.Errorf("candidate %d outside the pool accepted", u)
		}
	}
}
