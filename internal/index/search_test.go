package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// oracleTopK is the naive reference every scoring path is held to:
// decode every planned list in full, accumulate in plan order, sort by
// scoredLess, filter by accept, truncate to k. It shares the plan (the
// weights are the contract) and nothing else with scorePlanTopK — no
// accumulator, no bounds, no block walk, no merge.
func oracleTopK(ix *Index, st CollectionStats, need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	plan := planQuery(need, alpha, st)
	scores := map[DocID]float64{}
	for _, pl := range plan {
		l := ix.lists[pl.key]
		if l == nil {
			continue
		}
		for _, p := range l.decodeAll() {
			if pl.key.kind == termKind {
				scores[p.doc] += float64(p.freq) * pl.w
				continue
			}
			we := 0.0 // Eq. 2
			if p.dScore > 0 {
				we = 1 + p.dScore
			}
			scores[p.doc] += float64(p.freq) * pl.w * we
		}
	}
	var out []ScoredDoc
	for d, s := range scores {
		if s > 0 && (accept == nil || accept(d)) {
			out = append(out, ScoredDoc{Doc: d, Score: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return scoredLess(out[i], out[j]) })
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// materializedStats is the collection view of ix as the scatter
// coordinator would gather it.
func materializedStats(ix *Index) GlobalStats {
	g := GlobalStats{Docs: ix.NumDocs(), TermDF: map[string]int{}, EntityDF: map[kb.EntityID]int{}}
	for k, l := range ix.lists {
		if k.kind == termKind {
			g.TermDF[k.term] = l.count
		} else {
			g.EntityDF[k.ent] = l.count
		}
	}
	return g
}

// TestSearchOracleGrid holds the one match path to the naive oracle on
// every index type and partitioning: Index, Sharded (sequential and
// pooled), Store (memtable only, one segment, four segments, four
// segments with tombstones) × α × k × accept × own/explicit stats. The
// explicit view is a strict superset of the scored collection, so a
// path that ignored st and planned against its own statistics fails.
func TestSearchOracleGrid(t *testing.T) {
	docs := randomDocs(17, 500, 0)
	var removes, live []Doc
	for i, d := range docs {
		if i%9 == 4 {
			removes = append(removes, d)
		} else {
			live = append(live, d)
		}
	}
	flat, flatLive := flatFromDocs(docs), flatFromDocs(live)

	type target struct {
		name string
		ix   Searcher
		ref  *Index // the monolith over the same live documents
	}
	targets := []target{{"index", flat, flat}}
	for _, n := range []int{1, 2, 3, 7} {
		pooled := NewSharded(n)
		pooled.AddBatch(docs)
		seq := NewSharded(n)
		seq.workers = 1
		seq.AddBatch(docs)
		targets = append(targets,
			target{fmt.Sprintf("sharded%d", n), pooled, flat},
			target{fmt.Sprintf("sharded%d seq", n), seq, flat})
	}
	for _, layout := range [][]int{nil, {500}, {40, 90, 300, 460}} {
		targets = append(targets, target{fmt.Sprintf("store%v", layout), storeOf(t, docs, layout, StoreOptions{}), flat})
	}
	tombed := storeOf(t, docs, []int{40, 90, 300, 460}, StoreOptions{})
	tombed.ApplyDelta(Delta{Removes: removes})
	if tombed.Status().Tombstones == 0 {
		t.Fatal("tombstone layout carries no tombstones")
	}
	targets = append(targets, target{"store tombstones", tombed, flatLive})

	wider := materializedStats(flatFromDocs(append(randomDocs(18, 200, 10_000), docs...)))
	accepts := map[string]func(DocID) bool{
		"all":    nil,
		"subset": func(d DocID) bool { return d%3 != 0 },
	}
	r := rand.New(rand.NewSource(19))
	for q := 0; q < 4; q++ {
		need := randomNeed(r)
		for _, tg := range targets {
			for _, alpha := range []float64{0, 0.6, 1} {
				for _, k := range []int{0, 1, 10} {
					for an, accept := range accepts {
						label := fmt.Sprintf("%s q%d α%g k%d accept=%s", tg.name, q, alpha, k, an)
						assertScoredBitIdentical(t, label+" own stats",
							oracleTopK(tg.ref, tg.ref, need, alpha, k, accept),
							tg.ix.ScoreStatsTopK(need, alpha, nil, k, accept))
						assertScoredBitIdentical(t, label+" explicit stats",
							oracleTopK(tg.ref, wider, need, alpha, k, accept),
							tg.ix.ScoreStatsTopK(need, alpha, wider, k, accept))
					}
				}
			}
		}
	}
}

// TestNilStatsMeansOwnStatistics: a nil collection view selects the
// index's own statistics on every Searcher, and Score / ScoreTopK are
// that call with defaults filled in.
func TestNilStatsMeansOwnStatistics(t *testing.T) {
	docs := randomDocs(29, 200, 0)
	flat := flatFromDocs(docs)
	sharded := NewSharded(3)
	sharded.AddBatch(docs)
	targets := []struct {
		name string
		ix   Searcher
		own  CollectionStats
	}{
		{"index", flat, flat},
		{"sharded", sharded, sharded},
		{"store", storeOf(t, docs, []int{120}, StoreOptions{}), flat},
	}
	need := randomNeed(rand.New(rand.NewSource(30)))
	accept := func(d DocID) bool { return d%2 == 0 }
	for _, tg := range targets {
		t.Run(tg.name, func(t *testing.T) {
			want := oracleTopK(flat, flat, need, 0.6, 0, nil)
			if len(want) == 0 {
				t.Fatal("need matches nothing")
			}
			assertScoredBitIdentical(t, "nil stats", want, tg.ix.ScoreStatsTopK(need, 0.6, nil, 0, nil))
			assertScoredBitIdentical(t, "own stats passed explicitly", want, tg.ix.ScoreStatsTopK(need, 0.6, tg.own, 0, nil))
			assertScoredBitIdentical(t, "Score", want, tg.ix.Score(need, 0.6))
			assertScoredBitIdentical(t, "ScoreTopK",
				oracleTopK(flat, flat, need, 0.6, 5, accept), tg.ix.ScoreTopK(need, 0.6, 5, accept))
		})
	}
}

// TestGlobalStatsScoring scores a shard slice under materialized
// GlobalStats — the scatter coordinator's view — and requires the
// merged pruned rankings to match the monolithic index, exhaustive
// and top-k, on the sharded and the monolithic index.
func TestGlobalStatsScoring(t *testing.T) {
	docs := randomDocs(71, 300, 0)
	flat := flatFromDocs(docs)
	g := materializedStats(flat)

	sharded := NewSharded(3)
	sharded.AddBatch(docs)
	need := fuzzNeed("swim pool train php copper", 23)
	for _, alpha := range []float64{0, 0.6, 1} {
		want := flat.Score(need, alpha)
		assertScoredBitIdentical(t, "global stats", want, sharded.ScoreStatsTopK(need, alpha, g, 0, nil))
		wantK := want
		if len(wantK) > 7 {
			wantK = wantK[:7]
		}
		assertScoredBitIdentical(t, "global stats topk", wantK, sharded.ScoreStatsTopK(need, alpha, g, 7, nil))
		assertScoredBitIdentical(t, "global stats topk flat", wantK, flat.ScoreStatsTopK(need, alpha, g, 7, nil))
	}
}
