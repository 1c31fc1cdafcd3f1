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
// scoredCmp, filter by accept, truncate to k. It shares the plan (the
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
	sort.Slice(out, func(i, j int) bool { return scoredCmp(out[i], out[j]) < 0 })
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

// oracleTarget is one Searcher under the oracle grid, with the monolith
// over the same live documents the oracle decodes.
type oracleTarget struct {
	name string
	ix   Searcher
	ref  *Index
}

// assertOracleGrid holds every target to the naive oracle over needs ×
// α × k × accept × own/explicit stats. The explicit view is a strict
// superset of the scored collection, so a path that ignored st and
// planned against its own statistics fails.
func assertOracleGrid(t *testing.T, targets []oracleTarget, wider CollectionStats, needs []analysis.Analyzed) {
	t.Helper()
	accepts := map[string]func(DocID) bool{
		"all":    nil,
		"subset": func(d DocID) bool { return d%3 != 0 },
	}
	for q, need := range needs {
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

// TestSearchOracleGrid holds the one match path to the naive oracle on
// every index type and partitioning: Index, a Store with no directory
// whose memtable is cut into 1, 2, 3 and 7 ranges, a Store on disk
// (memtable only, one segment, four segments, four segments with
// tombstones), and the two layouts a cursor walk could get wrong — see
// the subtests.
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

	targets := []oracleTarget{{"index", flat, flat}}
	for _, n := range []int{1, 2, 3, 7} {
		targets = append(targets, oracleTarget{fmt.Sprintf("memtable workers=%d", n), memStore(docs, n), flat})
	}
	for _, layout := range [][]int{nil, {500}, {40, 90, 300, 460}} {
		targets = append(targets, oracleTarget{fmt.Sprintf("store%v", layout), storeOf(t, docs, layout, StoreOptions{}), flat})
	}
	tombed := storeOf(t, docs, []int{40, 90, 300, 460}, StoreOptions{})
	tombed.ApplyDelta(Delta{Removes: removes})
	if tombed.Status().Tombstones == 0 {
		t.Fatal("tombstone layout carries no tombstones")
	}
	targets = append(targets, oracleTarget{"store tombstones", tombed, flatLive})

	wider := materializedStats(flatFromDocs(append(randomDocs(18, 200, 10_000), docs...)))
	r := rand.New(rand.NewSource(19))
	var needs []analysis.Analyzed
	for q := 0; q < 4; q++ {
		needs = append(needs, randomNeed(r))
	}
	assertOracleGrid(t, targets, wider, needs)

	// Documents added out of id order, then an update re-adding a low
	// id: unsorted tails hold doc ids below and between the sealed
	// blocks' ids, so a cursor must merge its sorted tail into the block
	// stream in doc order.
	t.Run("tail ids below and between sealed ids", func(t *testing.T) {
		shuffled := randomDocs(17, 900, 0)
		rand.New(rand.NewSource(20)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		low := shuffled[0] // the lowest id, re-added last under new content
		for _, d := range shuffled {
			if d.ID < low.ID {
				low = d
			}
		}
		updated := Doc{ID: low.ID, A: randomDocs(21, 1, 0)[0].A}
		final := make([]Doc, 0, len(shuffled))
		for _, d := range shuffled {
			if d.ID == low.ID {
				d = updated
			}
			final = append(final, d)
		}
		ref := flatFromDocs(final)

		ix := flatFromDocs(shuffled)
		var between int
		for _, l := range ix.lists {
			if n := l.count - l.sealed(); n > 0 && len(l.blocks) > 0 {
				tail, _ := l.kind.decodeRun(nil, l.tail, 0, n, 0, false)
				for _, p := range tail {
					if p.doc < l.blocks[len(l.blocks)-1].maxDoc {
						between++
					}
				}
			}
		}
		if between == 0 {
			t.Fatal("no tail posting lies below a sealed doc id; the layout is not the one under test")
		}
		ix.Update(low.ID, updated.A)
		targets := []oracleTarget{{"index", ix, ref}}
		for name, o := range map[string]StoreOptions{"mmap": {}, "stream": {forceStream: true}} {
			s := storeOf(t, shuffled, []int{300, 600}, o)
			s.ApplyDelta(Delta{Updates: []DocUpdate{{ID: low.ID, Old: low.A, New: updated.A}}})
			targets = append(targets, oracleTarget{"store " + name, s, ref})
		}
		assertOracleGrid(t, targets, wider, needs)
	})

	// θ rises in the middle of a multi-block list: a rare, heavy term at
	// low ids and again far up sets θ, and one document of the common
	// list (1500) outscores it. With k = 1, once doc 1500 takes the heap
	// the rare list is non-essential and no later common document can
	// reach θ with it: each is pruned before the rare list is probed, on
	// the in-memory list and on a segment's in-place blocks.
	t.Run("admission closes mid-list", func(t *testing.T) {
		var docs []Doc
		for i := 0; i < 3000; i++ {
			terms := map[string]int{"zcommon": 1}
			if i < 12 || (i >= 2200 && i < 2204) {
				terms["aaarare"] = 5
			}
			if i == 1500 {
				terms["zcommon"] = 400 // one block of the common list still admits
			}
			docs = append(docs, Doc{ID: DocID(i), A: analysis.Analyzed{Terms: terms}})
		}
		ref := flatFromDocs(docs)
		targets := []oracleTarget{{"index", ref, ref}}
		for name, o := range map[string]StoreOptions{"mmap": {}, "stream": {forceStream: true}} {
			targets = append(targets, oracleTarget{"store " + name, storeOf(t, docs, []int{3000}, o), ref})
		}
		need := analysis.Analyzed{Terms: map[string]int{"aaarare": 1, "zcommon": 1}}
		pruned := mPrunedDocs.Value()
		assertOracleGrid(t, targets, ref, []analysis.Analyzed{need})
		if mPrunedDocs.Value() == pruned {
			t.Error("no candidate pruned: θ never rose mid-list")
		}
		out, _ := scorePlanTopK(ref, planQuery(need, 1, ref), 10, nil, allDocs, nil)
		if len(out) != 10 || out[0].Doc != 1500 {
			t.Fatalf("top of the ranking is %+v, want the mid-list doc 1500 first", out)
		}
		// The common list stays essential, so every one of its blocks is
		// decoded; the documents above 1500 are pruned instead.
		if _, c := scorePlanTopK(ref, planQuery(need, 1, ref), 1, nil, allDocs, nil); c.pruned != 1499 || c.blocksSkipped != 0 {
			t.Errorf("k1: pruned %d and skipped %d blocks, want 1499 (docs 1501–2999) and 0", c.pruned, c.blocksSkipped)
		}
	})
}

// TestMergeScoredStopsAtK holds the k-bounded merge to the full one:
// for 1–7 random disjoint rankings (some empty) and every k, the result
// is the concatenation sorted by scoredCmp, truncated to k.
func TestMergeScoredStopsAtK(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		lists := make([][]ScoredDoc, 1+r.Intn(7))
		var all []ScoredDoc
		for doc := DocID(0); doc < DocID(r.Intn(40)); doc++ {
			// Coarse scores force ties that only the doc id breaks.
			d := ScoredDoc{Doc: doc, Score: float64(r.Intn(6))}
			i := r.Intn(len(lists))
			lists[i] = append(lists[i], d)
			all = append(all, d)
		}
		nonEmpty := 0
		for _, l := range lists {
			sort.Slice(l, func(i, j int) bool { return scoredCmp(l[i], l[j]) < 0 })
			if len(l) > 0 {
				nonEmpty++
			}
		}
		sort.Slice(all, func(i, j int) bool { return scoredCmp(all[i], all[j]) < 0 })
		for _, k := range []int{0, 1, 3, 10} {
			want := all
			if k > 0 && len(want) > k {
				want = want[:k]
			}
			got := mergeScored(append([][]ScoredDoc(nil), lists...), k)
			assertScoredBitIdentical(t, fmt.Sprintf("trial %d: %d lists k%d", trial, len(lists), k), want, got)
			if nonEmpty > 1 && cap(got) != len(want) {
				t.Fatalf("trial %d k%d: merged %d into a buffer of %d", trial, k, len(got), cap(got))
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
	inMem := memStore(docs, 3)
	targets := []struct {
		name string
		ix   Searcher
		own  CollectionStats
	}{
		{"index", flat, flat},
		{"memtable", inMem, inMem},
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

// TestGlobalStatsScoring scores under materialized GlobalStats — the
// scatter coordinator's view — and requires the merged pruned rankings
// to match the monolithic index, exhaustive and top-k, on a memtable
// cut into three ranges and on the monolithic index.
func TestGlobalStatsScoring(t *testing.T) {
	docs := randomDocs(71, 300, 0)
	flat := flatFromDocs(docs)
	g := materializedStats(flat)

	inMem := memStore(docs, 3)
	need := fuzzNeed("swim pool train php copper", 23)
	for _, alpha := range []float64{0, 0.6, 1} {
		want := flat.Score(need, alpha)
		assertScoredBitIdentical(t, "global stats", want, inMem.ScoreStatsTopK(need, alpha, g, 0, nil))
		wantK := want
		if len(wantK) > 7 {
			wantK = wantK[:7]
		}
		assertScoredBitIdentical(t, "global stats topk", wantK, inMem.ScoreStatsTopK(need, alpha, g, 7, nil))
		assertScoredBitIdentical(t, "global stats topk flat", wantK, flat.ScoreStatsTopK(need, alpha, g, 7, nil))
	}
}
