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
// every index type and partitioning: Index, Sharded (sequential and
// pooled), Store (memtable only, one segment, four segments, four
// segments with tombstones), and the two layouts the doc-sorted
// accumulator walk could get wrong — see the subtests.
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
		pooled := NewSharded(n)
		pooled.AddBatch(docs)
		seq := NewSharded(n)
		seq.workers = 1
		seq.AddBatch(docs)
		targets = append(targets,
			oracleTarget{fmt.Sprintf("sharded%d", n), pooled, flat},
			oracleTarget{fmt.Sprintf("sharded%d seq", n), seq, flat})
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
	// blocks' ids, so a tail posting must find its accumulator anywhere
	// in the doc-sorted slice and what it admits must merge in order.
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
		ix.Update(low.ID, low.A, updated.A)
		targets := []oracleTarget{{"index", ix, ref}}
		for name, o := range map[string]StoreOptions{"mmap": {}, "stream": {forceStream: true}} {
			s := storeOf(t, shuffled, []int{300, 600}, o)
			s.ApplyDelta(Delta{Updates: []DocUpdate{{ID: low.ID, Old: low.A, New: updated.A}}})
			targets = append(targets, oracleTarget{"store " + name, s, ref})
		}
		assertOracleGrid(t, targets, wider, needs)
	})

	// θ closes admission in the middle of a multi-block list: a rare,
	// heavy term sets θ, then the common list is walked with most
	// blocks update-only (skipped, or decoded where a live accumulator
	// sits — at low ids and again far up the list) and one block whose
	// own bound still admits. The skipping runs against the accumulator
	// cursor, on the in-memory list and on a segment's in-place blocks.
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
		skipped := mBlocksSkipped.Value()
		assertOracleGrid(t, targets, ref, []analysis.Analyzed{need})
		if mBlocksSkipped.Value() == skipped {
			t.Error("no block skipped: admission never closed mid-list")
		}
		out, c := scorePlanTopK(ref, planQuery(need, 1, ref), 10, nil)
		if len(out) != 10 || out[0].Doc != 1500 {
			t.Fatalf("top of the ranking is %+v, want the admitted mid-list doc 1500 first", out)
		}
		if want := len(ref.lists[termKey("zcommon")].blocks) - 3; c.blocksSkipped != want {
			t.Errorf("skipped %d blocks, want %d: all but the two holding rare docs and the admitting one", c.blocksSkipped, want)
		}
	})
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
