package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// ---------------------------------------------------------------------
// Differential property harness: the top-k determinism contract.
//
// For every (corpus, need, α, k, accept filter, part count, driver),
// the pruned evaluation must return exactly the exhaustive ranking —
// filtered by accept, truncated to k — bit for bit. The exhaustive
// reference is the naive oracle (oracleTopK).
// ---------------------------------------------------------------------

// exhaustiveTopK is the reference ranking under the index's own
// statistics: the naive oracle, which shares no code with the scorer.
func exhaustiveTopK(ix *Index, need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	return oracleTopK(ix, ix, need, alpha, k, accept)
}

// scatterTopK simulates the scatter-gather path at the index layer:
// one monolithic index per shard process, each scoring its slice under
// global collection statistics to its local top k, merged and
// truncated by the coordinator.
func scatterTopK(shardIxs []*Index, global CollectionStats, need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	lists := make([][]ScoredDoc, len(shardIxs))
	for i, six := range shardIxs {
		lists[i] = six.ScoreStatsTopK(need, alpha, global, k, accept)
	}
	return mergeScored(lists, k)
}

// splitByRoute partitions docs into n monolithic per-shard indexes the
// way the scatter topology does.
func splitByRoute(docs []Doc, n int) []*Index {
	out := make([]*Index, n)
	for i := range out {
		out[i] = New()
	}
	for _, d := range docs {
		out[ShardRoute(d.ID, n)].Add(d)
	}
	return out
}

var topkPartCounts = []int{1, 2, 3, 7}

// topkKs covers the grid of ISSUE 8: tiny k, mid k, k near and past
// the matching-set size, and 0 (= unlimited / exhaustive reference).
var topkKs = []int{1, 5, 10, 50, 0}

// TestTopKDifferential is the headline harness: pruned vs exhaustive
// byte-equality across seeds × k × α × part counts × monolith, store
// with no directory (its memtable cut into that many ranges) and
// scatter-merge drivers, with and without an accept filter.
func TestTopKDifferential(t *testing.T) {
	alphas := []float64{0, 0.6, 1}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			docs := randomDocs(seed, 400, 0)
			flat := flatFromDocs(docs)
			stores := make([]*Store, len(topkPartCounts))
			scatters := make([][]*Index, len(topkPartCounts))
			for i, n := range topkPartCounts {
				stores[i] = memStore(docs, n)
				scatters[i] = splitByRoute(docs, n)
			}
			accepts := []func(DocID) bool{
				nil,
				func(d DocID) bool { return d%3 != 0 },
			}

			r := rand.New(rand.NewSource(seed * 101))
			for q := 0; q < 4; q++ {
				need := randomNeed(r)
				for _, alpha := range alphas {
					for _, k := range topkKs {
						for ai, accept := range accepts {
							want := exhaustiveTopK(flat, need, alpha, k, accept)
							label := fmt.Sprintf("q%d a%g k%d accept%d", q, alpha, k, ai)

							got := flat.ScoreTopK(need, alpha, k, accept)
							assertScoredBitIdentical(t, label+" monolith", want, got)

							for i, n := range topkPartCounts {
								sg := stores[i].ScoreTopK(need, alpha, k, accept)
								assertScoredBitIdentical(t, fmt.Sprintf("%s workers%d", label, n), want, sg)
								sc := scatterTopK(scatters[i], flat, need, alpha, k, accept)
								assertScoredBitIdentical(t, fmt.Sprintf("%s scatter%d", label, n), want, sc)
							}
						}
					}
				}
			}
		})
	}
}

// TestTopKDifferentialLargeCorpus runs the harness over a corpus big
// enough for multi-block sealed lists, so bound pruning actually fires
// (asserted via the evaluation counters).
func TestTopKDifferentialLargeCorpus(t *testing.T) {
	docs := randomDocs(11, 3000, 0)
	flat := flatFromDocs(docs)
	inMem := memStore(docs, 3)

	r := rand.New(rand.NewSource(7))
	var pruned int
	for q := 0; q < 5; q++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			for _, k := range []int{1, 5, 10, 50} {
				want := exhaustiveTopK(flat, need, alpha, k, nil)
				out, c := scorePlanTopK(flat, planQuery(need, alpha, flat), k, nil, allDocs, nil)
				assertScoredBitIdentical(t, fmt.Sprintf("q%d a%g k%d", q, alpha, k), want, out)
				pruned += c.pruned
				assertScoredBitIdentical(t, fmt.Sprintf("q%d a%g k%d store", q, alpha, k),
					want, inMem.ScoreTopK(need, alpha, k, nil))
			}
		}
	}
	if pruned == 0 {
		t.Error("no documents pruned across the large-corpus grid; bounds never fired")
	}
}

// TestTopKBlockSkipping builds the corpus shape skip entries exist
// for: a rare, heavily-weighted term clustered at low doc ids plus a
// ubiquitous low-weight term spanning every block. The rare documents
// fill the heap from the common list's first block; θ is then their
// score, the common list's bound is below it, so the common list turns
// non-essential and only seeks to the remaining rare documents, all in
// that same block: every other sealed block is skipped without
// decoding, while the ranking stays byte-identical.
func TestTopKBlockSkipping(t *testing.T) {
	ix := New()
	const n = 3000
	var docs []Doc
	for i := 0; i < n; i++ {
		terms := map[string]int{"zcommon": 1}
		if i < 20 {
			terms["aaarare"] = 5
		}
		a := analysis.Analyzed{Terms: terms}
		ix.Add(Doc{ID: DocID(i), A: a})
		docs = append(docs, Doc{ID: DocID(i), A: a})
	}
	need := analysis.Analyzed{Terms: map[string]int{"aaarare": 1, "zcommon": 1}}

	want := exhaustiveTopK(ix, need, 1, 10, nil)
	out, c := scorePlanTopK(ix, planQuery(need, 1, ix), 10, nil, allDocs, nil)
	assertScoredBitIdentical(t, "block skipping", want, out)
	if want := len(ix.lists[termKey("zcommon")].blocks) - 1; c.blocksSkipped != want {
		t.Errorf("skipped %d blocks on the crafted corpus, want %d: all but the common list's first (pruned=%d postings=%d)",
			c.blocksSkipped, want, c.pruned, c.postings)
	}

	assertScoredBitIdentical(t, "block skipping store", want, memStore(docs, 3).ScoreTopK(need, 1, 10, nil))
}

// TestRangeWalkTouchesOnlyItsBlocks: a part cut to a doc-id range
// walks only the blocks overlapping it. Doc i sits in block i/128 of
// the common list and the rare, heavy documents in block 11. A walk
// over blocks 10–13 decodes block 10 while its documents fill the heap
// and block 11 where the rare ones enter; once ten of them set θ the
// common list is non-essential, the rest of the rare documents lie in
// block 11 too, and blocks 12 and 13 are never decoded: exactly two
// skipped. A walk that did not seek to lo, or did not stop at hi,
// would count the blocks outside the range as skipped too.
func TestRangeWalkTouchesOnlyItsBlocks(t *testing.T) {
	ix := New()
	for i := 0; i < 3000; i++ {
		terms := map[string]int{"zcommon": 1}
		if i >= 1500 && i < 1520 {
			terms["aaarare"] = 5
		}
		ix.Add(Doc{ID: DocID(i), A: analysis.Analyzed{Terms: terms}})
	}
	need := analysis.Analyzed{Terms: map[string]int{"aaarare": 1, "zcommon": 1}}
	blocks := ix.lists[termKey("zcommon")].blocks
	span := docRange{int64(blocks[9].maxDoc) + 1, int64(blocks[13].maxDoc) + 1}
	out, c := scorePlanTopK(ix, planQuery(need, 1, ix), 10, nil, span, nil)
	want := exhaustiveTopK(ix, need, 1, 10, span.has)
	assertScoredBitIdentical(t, "range walk", want, out)
	if c.blocksSkipped != 2 {
		t.Errorf("range over blocks 10–13 skipped %d blocks, want 2", c.blocksSkipped)
	}
}

// TestCursorOverSegmentLists drives cursors over a sealed segment's
// lists, mmapped and streamed, with random spans and op sequences
// (driveCursor). A segment's list body interleaves the skip entries
// with the blocks, so a stream that ran on past a block's end instead
// of entering the next at its offset would read a skip entry as
// postings.
func TestCursorOverSegmentLists(t *testing.T) {
	var buf bytes.Buffer
	if _, err := flatFromDocs(randomDocs(71, 3000, 0)).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(72))
	for _, stream := range []bool{false, true} {
		sr, err := openBytes(t, buf.Bytes(), stream)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range sr.keys() {
			for trial := 0; trial < 8; trial++ {
				span := allDocs
				if trial&1 != 0 {
					span.lo = r.Int63n(9000)
				}
				if trial&2 != 0 {
					span.hi = max(span.lo, 0) + 1 + r.Int63n(9000)
				}
				ops := make([]byte, 2*r.Intn(300))
				r.Read(ops)
				driveCursor(t, sr, key, span, ops)
			}
		}
		sr.Close()
	}
}

// TestTopKAdversarial covers the boundary cases the grid can miss.
func TestTopKAdversarial(t *testing.T) {
	t.Run("heap boundary ties", func(t *testing.T) {
		// Every document identical: all scores tie, so pruning must
		// never fire on a tie and truncation must resolve by doc id.
		ix := New()
		var docs []Doc
		for i := 0; i < 300; i++ {
			a := analysis.Analyzed{
				Terms:    map[string]int{"tie": 2, "pool": 1},
				Entities: map[kb.EntityID]analysis.EntityStats{5: {Freq: 1, DScore: 0.5}},
			}
			ix.Add(Doc{ID: DocID(i), A: a})
			docs = append(docs, Doc{ID: DocID(i), A: a})
		}
		need := analysis.Analyzed{
			Terms:    map[string]int{"tie": 1},
			Entities: map[kb.EntityID]analysis.EntityStats{5: {Freq: 1, DScore: 1}},
		}
		inMem := memStore(docs, 3)
		for _, k := range []int{1, 5, 299, 300, 301} {
			want := exhaustiveTopK(ix, need, 0.6, k, nil)
			assertScoredBitIdentical(t, fmt.Sprintf("ties k%d", k), want, ix.ScoreTopK(need, 0.6, k, nil))
			assertScoredBitIdentical(t, fmt.Sprintf("ties k%d store", k), want, inMem.ScoreTopK(need, 0.6, k, nil))
		}
	})

	t.Run("k exceeds corpus", func(t *testing.T) {
		docs := randomDocs(21, 60, 0)
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(22))
		need := randomNeed(r)
		want := exhaustiveTopK(flat, need, 0.6, 0, nil)
		assertScoredBitIdentical(t, "k>docs", want, flat.ScoreTopK(need, 0.6, len(docs)+50, nil))
	})

	t.Run("k zero is exhaustive", func(t *testing.T) {
		docs := randomDocs(23, 120, 0)
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(24))
		for q := 0; q < 3; q++ {
			need := randomNeed(r)
			assertScoredBitIdentical(t, "k0", flat.Score(need, 0.6), flat.ScoreTopK(need, 0.6, 0, nil))
		}
	})

	t.Run("unseen terms only", func(t *testing.T) {
		docs := randomDocs(25, 80, 0)
		flat := flatFromDocs(docs)
		need := analysis.Analyzed{Terms: map[string]int{"neverindexedterm": 1, "alsounseen": 2}}
		if got := flat.ScoreTopK(need, 0.6, 5, nil); len(got) != 0 {
			t.Fatalf("unseen-term need matched %d docs", len(got))
		}
	})

	t.Run("accept rejects everything", func(t *testing.T) {
		docs := randomDocs(26, 80, 0)
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(27))
		need := randomNeed(r)
		if got := flat.ScoreTopK(need, 0.6, 5, func(DocID) bool { return false }); len(got) != 0 {
			t.Fatalf("all-rejecting accept matched %d docs", len(got))
		}
	})

	t.Run("seek lands on a block's last doc", func(t *testing.T) {
		// The rare documents are the common list's block maxima, and each
		// outscores the one before, so every one enters the heap. Once the
		// first ten fill it the common list is non-essential, and each
		// later rare document is a seek to the last doc of a block not yet
		// decoded — or, for 2600 and 2900, to a doc inside one.
		var docs []Doc
		for i := 0; i < 3000; i++ {
			terms := map[string]int{"zcommon": 1}
			if i%128 == 127 || i == 2600 || i == 2900 {
				terms["aaarare"] = 1 + i/128
			}
			docs = append(docs, Doc{ID: DocID(i), A: analysis.Analyzed{Terms: terms}})
		}
		flat := flatFromDocs(docs)
		need := analysis.Analyzed{Terms: map[string]int{"aaarare": 1, "zcommon": 1}}
		want := exhaustiveTopK(flat, need, 1, 10, nil)
		assertScoredBitIdentical(t, "monolith", want, flat.ScoreTopK(need, 1, 10, nil))
		assertScoredBitIdentical(t, "segment", want, storeOf(t, docs, []int{3000}, StoreOptions{}).ScoreTopK(need, 1, 10, nil))
	})
}

// TestTopKDeterministicRepetition repeats one pruned configuration 50
// times on every driver; any run differing from the first is a
// determinism break.
func TestTopKDeterministicRepetition(t *testing.T) {
	docs := randomDocs(31, 500, 0)
	flat := flatFromDocs(docs)
	inMem := memStore(docs, 7)
	scatterIxs := splitByRoute(docs, 3)
	r := rand.New(rand.NewSource(32))
	need := randomNeed(r)
	accept := func(d DocID) bool { return d%2 == 0 }

	base := flat.ScoreTopK(need, 0.6, 10, accept)
	assertScoredBitIdentical(t, "reference", exhaustiveTopK(flat, need, 0.6, 10, accept), base)
	for i := 0; i < 50; i++ {
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d monolith", i), base, flat.ScoreTopK(need, 0.6, 10, accept))
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d store", i), base, inMem.ScoreTopK(need, 0.6, 10, accept))
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d scatter", i), base, scatterTopK(scatterIxs, flat, need, 0.6, 10, accept))
	}
}

// TestTopKConcurrent runs pruned queries from many goroutines against
// a shared index (the monolith, and a memtable cut into four ranges),
// for the race detector.
func TestTopKConcurrent(t *testing.T) {
	docs := randomDocs(41, 400, 0)
	flat := flatFromDocs(docs)
	inMem := memStore(docs, 4)
	r := rand.New(rand.NewSource(42))
	need := randomNeed(r)
	want := flat.ScoreTopK(need, 0.6, 10, nil)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				assertScoredBitIdentical(t, "concurrent monolith", want, flat.ScoreTopK(need, 0.6, 10, nil))
				assertScoredBitIdentical(t, "concurrent store", want, inMem.ScoreTopK(need, 0.6, 10, nil))
			}
		}()
	}
	wg.Wait()
}

// tieDocs is a corpus built for ties at θ: every document has one
// of four profiles, so its score is one of four exact levels, and the
// 5, 30, 300 and 400 documents of the levels are dealt over sparse doc
// ids in a seeded shuffle, interleaving each level with the ones above
// and below it. For k = 1, 10 and 100 the k-th score is the first, the
// second and the third level: more than k documents tie there, and for
// k > 1 documents above it sit between them in doc order.
func tieDocs() ([]Doc, analysis.Analyzed) {
	profiles := []analysis.Analyzed{
		{Terms: map[string]int{"tiea": 3, "tieb": 2}, Entities: map[kb.EntityID]analysis.EntityStats{7: {Freq: 2, DScore: 0.5}}},
		{Terms: map[string]int{"tiea": 2, "tieb": 2}},
		{Terms: map[string]int{"tiea": 1, "tieb": 1}},
		{Terms: map[string]int{"tieb": 1}},
	}
	var levels []int
	for level, n := range []int{5, 30, 300, 400} {
		for range n {
			levels = append(levels, level)
		}
	}
	rand.New(rand.NewSource(29)).Shuffle(len(levels), func(i, j int) { levels[i], levels[j] = levels[j], levels[i] })
	docs := make([]Doc, len(levels))
	for i, level := range levels {
		docs[i] = Doc{ID: DocID(3*i + i%2), A: profiles[level]}
	}
	need := analysis.Analyzed{
		Terms:    map[string]int{"tiea": 1, "tieb": 1},
		Entities: map[kb.EntityID]analysis.EntityStats{7: {Freq: 1, DScore: 1}},
	}
	return docs, need
}

// TestCutAtThetaTies holds the top-k heap to the exhaustive sort where
// it is hardest: more than k documents tie exactly at the k-th score θ,
// interleaved in doc order with documents above it. The monolith, a
// memtable cut into 2 and into 3 doc-id ranges, and a store whose one
// segment is cut into three must each return the oracle's ranking
// truncated to k, bit for bit, with and without an accept filter.
func TestCutAtThetaTies(t *testing.T) {
	docs, need := tieDocs()
	flat := flatFromDocs(docs)
	targets := map[string]Searcher{"index": flat}
	for _, n := range []int{2, 3} {
		s := memStore(docs, n)
		if parts := partsOf(s, need, 0.6); len(parts) != n {
			t.Fatalf("the memtable is %d parts, want %d", len(parts), n)
		}
		targets[fmt.Sprintf("memtable%d", n)] = s
	}
	store := storeOf(t, docs, []int{len(docs)}, StoreOptions{})
	store.workers = 3
	if parts := partsOf(store, need, 0.6); len(parts) != 3 || parts[0].span.hi == allDocs.hi {
		t.Fatalf("the store's one segment is not cut into three ranges: %+v", parts)
	}
	targets["store"] = store

	full := oracleTopK(flat, flat, need, 0.6, 0, nil)
	for _, k := range []int{1, 10, 100} {
		theta := full[k-1].Score
		var above, ties []DocID
		for _, sd := range full {
			if sd.Score > theta {
				above = append(above, sd.Doc)
			} else if sd.Score == theta {
				ties = append(ties, sd.Doc)
			}
		}
		if len(ties) <= k || (k > 1 && (len(above) == 0 || slices.Max(above) < slices.Min(ties))) {
			t.Fatalf("k%d: %d ties at θ and %d documents above it, not interleaved: the fixture lost its shape", k, len(ties), len(above))
		}
		for ai, accept := range []func(DocID) bool{nil, func(d DocID) bool { return d%4 != 1 }} {
			want := oracleTopK(flat, flat, need, 0.6, k, accept)
			for name, ix := range targets {
				assertScoredBitIdentical(t, fmt.Sprintf("%s k%d accept%d", name, k, ai), want, ix.ScoreTopK(need, 0.6, k, accept))
			}
		}
	}
}

// floorDocs is a store layout built for the shared θ floor. The need
// is three terms; a filler document holds only the common one, and the
// other documents hold the two rare ones at one of three levels, T1 >
// T10 > T100. The first segment holds 1, 9 and 90 documents at those
// levels, so its k-th score is the query's k-th score for k = 1, 10 and
// 100, and what it publishes is exactly that score. The last segment
// holds the best of the ranking: 1, 3 and 3 documents at the same
// levels under the lowest ids, so each wins its tie with the first
// segment's and must enter its heap at a score equal to the floor. The
// middle segment and the memtable hold fillers only, which the floor
// proves can never rank. The tied documents of the last segment have
// ids below floorTieID, those of the first from floorTieID up.
func floorDocs(t *testing.T) (*Store, []Doc, analysis.Analyzed) {
	levels := []map[string]int{{"fa": 3, "fb": 3}, {"fa": 2, "fb": 2}, {"fa": 1, "fb": 1}}
	filler := map[string]int{"fc": 1}
	doc := func(id int, terms map[string]int) Doc {
		return Doc{ID: DocID(id), A: analysis.Analyzed{Terms: terms}}
	}
	var first, middle, last, mem []Doc
	id := floorTieID
	for level, n := range []int{1, 9, 90} {
		for range n {
			first = append(first, doc(id, levels[level]))
			id++
		}
	}
	id = 1
	for level, n := range []int{1, 3, 3} {
		for range n {
			last = append(last, doc(id, levels[level]))
			id++
		}
	}
	for i := range 400 {
		first = append(first, doc(10_000+i, filler))
		last = append(last, doc(30_000+i, filler))
	}
	for i := range 600 {
		middle = append(middle, doc(20_000+i, filler))
	}
	for i := range 50 {
		mem = append(mem, doc(40_000+i, filler))
	}
	docs := slices.Concat(first, middle, last, mem)
	s := storeOf(t, docs, []int{len(first), len(first) + len(middle), len(first) + len(middle) + len(last)}, StoreOptions{})
	need := analysis.Analyzed{Terms: map[string]int{"fa": 1, "fb": 1, "fc": 1}}
	return s, docs, need
}

const floorTieID = 1000

// TestThetaFloorAcrossParts holds a store whose parts share a θ floor
// to the oracle where the floor decides the most: the first segment
// publishes the query's k-th score, and the last one holds documents
// tying it under lower ids, which must still enter its heap. Every k,
// with and without an accept filter, on one worker and on three, must
// return the oracle's ranking bit for bit. On one worker the parts are
// scored in order, so the floor is deterministic, and the blocks they
// skip must outnumber those the same parts skip each with its own θ
// alone: the fillers the floor rules out are never decoded.
func TestThetaFloorAcrossParts(t *testing.T) {
	store, docs, need := floorDocs(t)
	flat := flatFromDocs(docs)
	store.workers = 1
	if parts := partsOf(store, need, 1); len(parts) != 4 {
		t.Fatalf("the store is %d parts on one worker, want 4", len(parts))
	}
	full := oracleTopK(flat, flat, need, 1, 0, nil)
	for _, k := range []int{1, 10, 100} {
		theta := full[k-1].Score
		won := slices.ContainsFunc(full[:k], func(sd ScoredDoc) bool { return sd.Score == theta && sd.Doc < floorTieID })
		if !won || full[k].Score != theta || full[k].Doc < floorTieID {
			t.Fatalf("k%d: no tie at θ won in the last segment and lost in the first: the fixture lost its shape", k)
		}
	}

	for _, workers := range []int{1, 3} {
		store.workers = workers
		for _, k := range []int{1, 10, 100} {
			for ai, accept := range []func(DocID) bool{nil, func(d DocID) bool { return d%4 != 1 }} {
				assertScoredBitIdentical(t, fmt.Sprintf("workers%d k%d accept%d", workers, k, ai),
					oracleTopK(flat, flat, need, 1, k, accept), store.ScoreTopK(need, 1, k, accept))
			}
		}
	}

	store.workers = 1
	for _, k := range []int{1, 10, 100} {
		before := mBlocksSkipped.Value()
		store.ScoreTopK(need, 1, k, nil)
		shared := int(mBlocksSkipped.Value() - before)
		alone := 0
		plan := planQuery(need, 1, storeStats{store})
		for _, p := range partsOf(store, need, 1) {
			_, c := p.score(plan, k, nil)
			alone += c.blocksSkipped
		}
		if shared <= alone {
			t.Errorf("k%d: the parts skip %d blocks under a shared floor and %d each alone, want more shared", k, shared, alone)
		}
		t.Logf("k%d: blocks skipped %d shared, %d alone", k, shared, alone)
	}
}

// TestPooledAccumulatorIsolation interleaves different needs, α and k
// from many goroutines on a memtable cut into four ranges and a
// four-segment store with tombstones, every result held to the oracle: an entry
// surviving in a pooled buffer from one evaluation would surface as a
// foreign document or a wrong score in the next.
func TestPooledAccumulatorIsolation(t *testing.T) {
	docs := randomDocs(43, 600, 0)
	var removes, live []Doc
	for i, d := range docs {
		if i%7 == 3 {
			removes = append(removes, d)
		} else {
			live = append(live, d)
		}
	}
	flat, flatLive := flatFromDocs(docs), flatFromDocs(live)
	inMem := memStore(docs, 4)
	store := storeOf(t, docs, []int{100, 250, 400, 550}, StoreOptions{})
	store.ApplyDelta(Delta{Removes: removes})

	type query struct {
		need         analysis.Analyzed
		alpha        float64
		k            int
		full, tombed []ScoredDoc
	}
	r := rand.New(rand.NewSource(44))
	var queries []query
	for i := 0; i < 8; i++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			for _, k := range []int{0, 1, 10} {
				queries = append(queries, query{need, alpha, k,
					oracleTopK(flat, flat, need, alpha, k, nil),
					oracleTopK(flatLive, flatLive, need, alpha, k, nil)})
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			order := rand.New(rand.NewSource(int64(g))).Perm(len(queries))
			for _, qi := range order {
				q := queries[qi]
				if got := inMem.ScoreTopK(q.need, q.alpha, q.k, nil); !slices.Equal(got, q.full) {
					t.Errorf("goroutine %d query %d (α%g k%d) memtable: got %v want %v", g, qi, q.alpha, q.k, got, q.full)
				}
				if got := store.ScoreTopK(q.need, q.alpha, q.k, nil); !slices.Equal(got, q.tombed) {
					t.Errorf("goroutine %d query %d (α%g k%d) store: got %v want %v", g, qi, q.alpha, q.k, got, q.tombed)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestHeapOrder drives the k-entry heap as the scorer does, pushing an
// entry only while the heap is short or the entry ranks above its
// worst, then orders it out in place: the result is every entry sorted
// by scoredCmp and truncated to k. Scores come from a set of three, so
// most comparisons fall through to the doc-id tie-break.
func TestHeapOrder(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for _, n := range []int{0, 1, 2, 9, 150} {
		for rep := 0; rep < 20; rep++ {
			all := make([]ScoredDoc, n)
			for i, d := range r.Perm(n) {
				all[i] = ScoredDoc{Doc: DocID(d), Score: float64(1 + r.Intn(3))}
			}
			want := slices.Clone(all)
			slices.SortFunc(want, scoredCmp)
			for _, k := range []int{1, 2, 7, 100, n + 5} {
				a := &topkAcc{k: k}
				for _, e := range all {
					if len(a.hits) < k || ranksAbove(e, a.hits[0]) {
						a.push(e)
					}
				}
				orderHeap(a.hits)
				if w := want[:min(k, n)]; !slices.Equal(a.hits, w) {
					t.Fatalf("n%d rep%d k%d: got %v want %v", n, rep, k, a.hits, w)
				}
			}
		}
	}
}

// TestReleaseKeepsNoOutsizedBuffer: a released accumulator is empty,
// holds nothing of its evaluation — every cursor is the zero cursor,
// keeping no list, stream position or current posting — and gives up
// every buffer that grew past its cap instead of pinning it in the
// pool: each cap at its limit is kept, one over it dropped.
func TestReleaseKeepsNoOutsizedBuffer(t *testing.T) {
	for _, over := range []int{0, 1} {
		a := &topkAcc{
			k:     3,
			lists: make([]cursor, 1, maxPooledLists+over),
			order: make([]*cursor, 1, maxPooledLists+over),
			hits:  make([]ScoredDoc, 5, maxPooledDocs+over),
			arena: make([]blockMeta, 3, maxPooledBlocks+over),
		}
		a.lists[0] = cursor{l: postingList{data: []byte{1}, count: 1}, pos: 1, left: 2, base: 9, cur: termPosting(9, 1), done: true}
		a.order[0] = &a.lists[0]
		a.postings, a.pruned = 7, 2
		lists, order := a.lists, a.order
		a.release()
		kept := over == 0
		if (a.lists != nil) != kept || (a.order != nil) != kept || (a.hits != nil) != kept || (a.arena != nil) != kept {
			t.Errorf("over=%d: kept lists=%v order=%v hits=%v arena=%v, want %v", over,
				a.lists != nil, a.order != nil, a.hits != nil, a.arena != nil, kept)
		}
		if c := lists[0]; !reflect.DeepEqual(c, cursor{}) {
			t.Errorf("over=%d: released cursor still holds evaluation state: %+v", over, c)
		}
		if order[0] != nil {
			t.Errorf("over=%d: released order still points at a cursor", over)
		}
		if len(a.lists) != 0 || len(a.order) != 0 || len(a.hits) != 0 || len(a.arena) != 0 ||
			a.k != 0 || a.topkCounters != (topkCounters{}) {
			t.Errorf("over=%d: released accumulator still holds evaluation state: %+v", over, a)
		}
	}
}

// TestScorerAllocBudget pins the scorer's garbage: with a warm free
// list an evaluation allocates the slice it returns and nothing else —
// nothing per list, per posting or per document — over an in-memory
// index and over a sealed segment's mapping. Streamed, a segment adds
// the one read buffer per planned list it holds. A warm
// Store.ScoreTopK allocates as often for a need naming one list as for
// one naming every list, and a warm find on a store with no directory,
// its memtable cut in two, allocates no more than the same find did on
// the two-shard in-memory container that store replaced: 13 times.
func TestScorerAllocBudget(t *testing.T) {
	docs := randomDocs(61, 2000, 0)
	flat := flatFromDocs(docs)
	need := randomNeed(rand.New(rand.NewSource(62)))
	plan := planQuery(need, 0.6, flat)
	path := filepath.Join(t.TempDir(), "seg-000000.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := flat.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	type source struct {
		src     listSource
		perList float64
	}
	sources := map[string]source{"index": {flat, 0}}
	for name, stream := range map[string]bool{"mmap": false, "stream": true} {
		r, err := OpenSegment(path, stream)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		if _, pread := r.src.(*preadSource); pread == stream {
			perList := 0.0
			if stream {
				perList = 1
			}
			sources["segment "+name] = source{r, perList}
		}
	}
	if len(sources) < 2 {
		t.Log("no mmap on this platform: the segment is only read streamed")
	}
	for name, s := range sources {
		for _, k := range []int{10, 0} {
			if out, _ := scorePlanTopK(s.src, plan, k, nil, allDocs, nil); len(out) == 0 { // also warms the free list
				t.Fatalf("%s k%d: need matches nothing", name, k)
			}
			budget := 1 + s.perList*float64(len(plan))
			if allocs := testing.AllocsPerRun(50, func() { scorePlanTopK(s.src, plan, k, nil, allDocs, nil) }); allocs > budget {
				t.Errorf("%s k%d: %.1f allocations per evaluation over %d planned lists, want at most %g",
					name, k, allocs, len(plan), budget)
			}
		}
	}

	// The first segment holds 70 % of any need's postings, so it is cut
	// in two for the narrow need and the wide one alike.
	store := storeOf(t, docs, []int{1400, 1700}, StoreOptions{})
	store.workers = 2
	narrow := analysis.Analyzed{Terms: map[string]int{"swim": 1}}
	wide := analysis.Analyzed{Terms: map[string]int{}, Entities: map[kb.EntityID]analysis.EntityStats{}}
	for _, term := range testVocab() {
		wide.Terms[term] = 1
	}
	for e := kb.EntityID(0); e < 50; e += 5 {
		wide.Entities[e] = analysis.EntityStats{Freq: 1, DScore: 1}
	}
	allocs := map[string]float64{}
	for name, need := range map[string]analysis.Analyzed{"narrow": narrow, "wide": wide} {
		store.ScoreTopK(need, 0.6, 10, nil)
		allocs[name] = testing.AllocsPerRun(50, func() { store.ScoreTopK(need, 0.6, 10, nil) })
	}
	t.Logf("Store.ScoreTopK allocations: %v", allocs)
	if allocs["wide"] > allocs["narrow"] {
		t.Errorf("Store.ScoreTopK allocates %.1f times for 1 planned list and %.1f for %d: binding allocates per list",
			allocs["narrow"], allocs["wide"], len(wide.Terms)+len(wide.Entities))
	}

	inMem := memStore(docs, 2)
	if parts := partsOf(inMem, need, 0.6); len(parts) != 2 {
		t.Fatalf("the memtable is %d parts, want 2", len(parts))
	}
	for _, k := range []int{10, 0} {
		inMem.ScoreTopK(need, 0.6, k, nil)
		if got := testing.AllocsPerRun(50, func() { inMem.ScoreTopK(need, 0.6, k, nil) }); got > 13 {
			t.Errorf("memtable k%d: %.1f allocations per find, want at most 13", k, got)
		}
	}
}

// TestStorePartsSkipMassZero: a component holding no posting of the
// plan is no part. A rare term held only by one memtable document must
// size the pool off the memtable alone — the three sealed segments
// beside it, of mass 0, are no work items however many workers there
// are — and still return the exact monolithic ranking; a need matching
// nothing has no parts and ranks empty.
func TestStorePartsSkipMassZero(t *testing.T) {
	docs := randomDocs(51, 200, 0)
	rare := Doc{ID: 100_003, A: analysis.Analyzed{Terms: map[string]int{"rareterm": 2}}}
	docs = append(docs, rare)
	flat := flatFromDocs(docs)
	s := storeOf(t, docs, []int{60, 120, 180}, StoreOptions{Workers: 16})

	need := analysis.Analyzed{Terms: map[string]int{"rareterm": 1}}
	parts := partsOf(s, need, 1)
	if len(parts) != 16 {
		t.Fatalf("single-term plan reports %d parts, want the memtable cut into 16", len(parts))
	}
	for _, p := range parts {
		if p.src != listSource(s.mem) {
			t.Fatalf("a part of source %T: a segment of mass 0 is a work item", p.src)
		}
	}
	want := flat.Score(need, 1)
	if len(want) != 1 || want[0].Doc != rare.ID {
		t.Fatalf("reference ranking wrong: %+v", want)
	}
	assertScoredBitIdentical(t, "rare term", want, s.Score(need, 1))
	assertScoredBitIdentical(t, "rare term topk", want, s.ScoreTopK(need, 1, 5, nil))
	s.workers = 1
	assertScoredBitIdentical(t, "rare term serial", want, s.Score(need, 1))

	none := analysis.Analyzed{Terms: map[string]int{"neverindexedterm": 1}}
	if got := s.Score(none, 1); len(got) != 0 {
		t.Fatalf("unseen term matched %d docs", len(got))
	}
	if parts := partsOf(s, none, 1); len(parts) != 0 {
		t.Fatalf("unseen term reports %d parts", len(parts))
	}
}

// BenchmarkScoreTopK measures pruned vs exhaustive scoring over a
// k × corpus-size grid.
func BenchmarkScoreTopK(b *testing.B) {
	for _, nDocs := range []int{1000, 10000} {
		docs := randomDocs(61, nDocs, 0)
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(62))
		need := randomNeed(r)
		for _, k := range []int{0, 10, 100} {
			name := fmt.Sprintf("docs%d/k%d", nDocs, k)
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					flat.ScoreTopK(need, 0.6, k, nil)
				}
			})
		}
		b.Run(fmt.Sprintf("docs%d/exhaustive", nDocs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				flat.Score(need, 0.6)
			}
		})
	}
}
