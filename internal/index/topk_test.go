package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// ---------------------------------------------------------------------
// Differential property harness: the top-k determinism contract.
//
// For every (corpus, need, α, k, accept filter, shard count, driver),
// the pruned evaluation must return exactly the exhaustive ranking —
// filtered by accept, truncated to k — bit for bit. The exhaustive
// reference is the monolithic Score path, which the PR 3 harness
// already proves byte-identical across shard counts.
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
	out := mergeScored(lists)
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// splitByRoute partitions docs into n monolithic per-shard indexes the
// way the scatter topology does.
func splitByRoute(docs []Doc, n int) []*Index {
	out := make([]*Index, n)
	for i := range out {
		out[i] = New()
	}
	for _, d := range docs {
		out[ShardRoute(d.ID, n)].Add(d.ID, d.A)
	}
	return out
}

var topkShardCounts = []int{1, 2, 3, 7}

// topkKs covers the grid of ISSUE 8: tiny k, mid k, k near and past
// the matching-set size, and 0 (= unlimited / exhaustive reference).
var topkKs = []int{1, 5, 10, 50, 0}

// TestTopKDifferential is the headline harness: pruned vs exhaustive
// byte-equality across seeds × k × α × shard counts ×
// monolith/Sharded/scatter-merge drivers, with and without an accept
// filter.
func TestTopKDifferential(t *testing.T) {
	alphas := []float64{0, 0.6, 1}
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			docs := randomDocs(seed, 400, 0)
			flat := flatFromDocs(docs)
			shardeds := make([]*Sharded, len(topkShardCounts))
			seqs := make([]*Sharded, len(topkShardCounts))
			scatters := make([][]*Index, len(topkShardCounts))
			for i, n := range topkShardCounts {
				shardeds[i] = NewSharded(n)
				shardeds[i].AddBatch(docs)
				seqs[i] = NewSharded(n)
				seqs[i].workers = 1
				seqs[i].AddBatch(docs)
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

							for i, n := range topkShardCounts {
								sg := shardeds[i].ScoreTopK(need, alpha, k, accept)
								assertScoredBitIdentical(t, fmt.Sprintf("%s sharded%d", label, n), want, sg)
								sw := seqs[i].ScoreTopK(need, alpha, k, accept)
								assertScoredBitIdentical(t, fmt.Sprintf("%s sharded%d seq", label, n), want, sw)
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
// enough for multi-block sealed lists, so block-level refinement and
// block skipping actually fire (asserted via the evaluation counters).
func TestTopKDifferentialLargeCorpus(t *testing.T) {
	docs := randomDocs(11, 3000, 0)
	flat := flatFromDocs(docs)
	sharded := NewSharded(3)
	sharded.AddBatch(docs)

	r := rand.New(rand.NewSource(7))
	var pruned int
	for q := 0; q < 5; q++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			for _, k := range []int{1, 5, 10, 50} {
				want := exhaustiveTopK(flat, need, alpha, k, nil)
				out, c := scorePlanTopK(flat, planQuery(need, alpha, flat), k, nil)
				assertScoredBitIdentical(t, fmt.Sprintf("q%d a%g k%d", q, alpha, k), want, out)
				pruned += c.pruned
				assertScoredBitIdentical(t, fmt.Sprintf("q%d a%g k%d sharded", q, alpha, k),
					want, sharded.ScoreTopK(need, alpha, k, nil))
			}
		}
	}
	if pruned == 0 {
		t.Error("no documents pruned across the large-corpus grid; bounds never fired")
	}
}

// TestTopKBlockSkipping builds the corpus shape skip entries exist
// for: a rare, heavily-weighted term clustered at low doc ids plus a
// ubiquitous low-weight term spanning every block. Once the rare list
// establishes the threshold, the common list's admission closes and
// every block past the live accumulator cluster must be skipped
// without decoding — while the ranking stays byte-identical.
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
		ix.Add(DocID(i), a)
		docs = append(docs, Doc{ID: DocID(i), A: a})
	}
	need := analysis.Analyzed{Terms: map[string]int{"aaarare": 1, "zcommon": 1}}

	want := exhaustiveTopK(ix, need, 1, 10, nil)
	out, c := scorePlanTopK(ix, planQuery(need, 1, ix), 10, nil)
	assertScoredBitIdentical(t, "block skipping", want, out)
	if c.blocksSkipped == 0 {
		t.Errorf("no blocks skipped on the crafted corpus (pruned=%d postings=%d)", c.pruned, c.postings)
	}

	sharded := NewSharded(3)
	sharded.AddBatch(docs)
	assertScoredBitIdentical(t, "block skipping sharded", want, sharded.ScoreTopK(need, 1, 10, nil))
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
			ix.Add(DocID(i), a)
			docs = append(docs, Doc{ID: DocID(i), A: a})
		}
		need := analysis.Analyzed{
			Terms:    map[string]int{"tie": 1},
			Entities: map[kb.EntityID]analysis.EntityStats{5: {Freq: 1, DScore: 1}},
		}
		sharded := NewSharded(3)
		sharded.AddBatch(docs)
		for _, k := range []int{1, 5, 299, 300, 301} {
			want := exhaustiveTopK(ix, need, 0.6, k, nil)
			assertScoredBitIdentical(t, fmt.Sprintf("ties k%d", k), want, ix.ScoreTopK(need, 0.6, k, nil))
			assertScoredBitIdentical(t, fmt.Sprintf("ties k%d sharded", k), want, sharded.ScoreTopK(need, 0.6, k, nil))
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
}

// TestTopKDeterministicRepetition repeats one pruned configuration 50
// times on every driver; any run differing from the first is a
// determinism break.
func TestTopKDeterministicRepetition(t *testing.T) {
	docs := randomDocs(31, 500, 0)
	flat := flatFromDocs(docs)
	sharded := NewSharded(7)
	sharded.AddBatch(docs)
	scatterIxs := splitByRoute(docs, 3)
	r := rand.New(rand.NewSource(32))
	need := randomNeed(r)
	accept := func(d DocID) bool { return d%2 == 0 }

	base := flat.ScoreTopK(need, 0.6, 10, accept)
	assertScoredBitIdentical(t, "reference", exhaustiveTopK(flat, need, 0.6, 10, accept), base)
	for i := 0; i < 50; i++ {
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d monolith", i), base, flat.ScoreTopK(need, 0.6, 10, accept))
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d sharded", i), base, sharded.ScoreTopK(need, 0.6, 10, accept))
		assertScoredBitIdentical(t, fmt.Sprintf("rep%d scatter", i), base, scatterTopK(scatterIxs, flat, need, 0.6, 10, accept))
	}
}

// TestTopKConcurrent runs pruned queries from many goroutines against
// a shared index (monolithic and sharded), for the race detector.
func TestTopKConcurrent(t *testing.T) {
	docs := randomDocs(41, 400, 0)
	flat := flatFromDocs(docs)
	sharded := NewSharded(4)
	sharded.AddBatch(docs)
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
				assertScoredBitIdentical(t, "concurrent sharded", want, sharded.ScoreTopK(need, 0.6, 10, nil))
			}
		}()
	}
	wg.Wait()
}

// TestTopKClosedAdmissionInvariant pins the proof that lets one flag
// stand in for a set of dropped documents: once settle drops anything,
// no later list can admit. It drives the accumulator list by list over
// the oracle grid's sources — a monolith, the shards of a Sharded, the
// memtable and in-place segments of a tombstoned store — and asserts
// after every dropping settle that admits(maxW·w + rem) is false for
// every list still to walk.
func TestTopKClosedAdmissionInvariant(t *testing.T) {
	docs := randomDocs(17, 3000, 0)
	flat := flatFromDocs(docs)
	sources := map[string]listSource{"index": flat}
	sharded := NewSharded(3)
	sharded.AddBatch(docs)
	for i, sh := range sharded.shards {
		sources[fmt.Sprintf("shard%d", i)] = sh.ix
	}
	store := storeOf(t, docs, []int{400, 900, 1800, 2700}, StoreOptions{})
	store.ApplyDelta(Delta{Removes: docs[100:130]})
	sources["memtable"] = store.mem
	for i, g := range store.segs {
		sources[fmt.Sprintf("segment%d", i)] = g
	}

	r := rand.New(rand.NewSource(19))
	var dropping int
	for q := 0; q < 6; q++ {
		need := randomNeed(r)
		for _, alpha := range []float64{0, 0.6, 1} {
			plan := planQuery(need, alpha, flat)
			for _, k := range []int{1, 10} {
				for name, src := range sources {
					a := &topkAcc{k: k, theta: math.Inf(-1)}
					a.bind(src, plan)
					for i, bl := range a.lists {
						before := a.pruned
						a.walkList(bl.l, bl.w, bl.rem)
						a.settle(bl.rem, a.remAfterNext(i))
						if a.closed != (a.pruned > 0) {
							t.Fatalf("%s q%d α%g k%d list %d: closed=%v with %d dropped", name, q, alpha, k, i, a.closed, a.pruned)
						}
						if a.pruned == before {
							continue
						}
						dropping++
						for j, later := range a.lists[i+1:] {
							if a.admits(later.l.maxW*later.w + later.rem) {
								t.Fatalf("%s q%d α%g k%d: list %d dropped documents but list %d still admits (θ=%g)",
									name, q, alpha, k, i, i+1+j, a.theta)
							}
						}
					}
				}
			}
		}
	}
	if dropping == 0 {
		t.Fatal("no settle dropped anything; the invariant was never exercised")
	}
}

// TestTopKThetaRefreshDifferential holds the guarded θ refresh to the
// unguarded one. It drives two accumulators list by list over the
// TestTopKDifferential corpora and a multi-block one: one settles as
// scorePlanTopK does, the other with a next-list bound no partial can
// fail to exceed, which selects after every list. The live documents
// with their partials and the work counters must be equal after every
// list — a skipped selection changed no decision — and the guard must
// have left θ stale somewhere, or it was never exercised.
func TestTopKThetaRefreshDifferential(t *testing.T) {
	corpora := map[string][]Doc{"large": randomDocs(11, 3000, 0)}
	for _, seed := range []int64{1, 2, 3} {
		corpora[fmt.Sprintf("seed%d", seed)] = randomDocs(seed, 400, 0)
	}
	accepts := []func(DocID) bool{nil, func(d DocID) bool { return d%3 != 0 }}
	var stale, dropping int
	for name, docs := range corpora {
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(int64(len(docs)) * 101))
		for q := 0; q < 4; q++ {
			need := randomNeed(r)
			for _, alpha := range []float64{0, 0.6, 1} {
				plan := planQuery(need, alpha, flat)
				for _, k := range topkKs {
					for ai, accept := range accepts {
						label := fmt.Sprintf("%s q%d a%g k%d accept%d", name, q, alpha, k, ai)
						guarded := &topkAcc{k: k, accept: accept, theta: math.Inf(-1)}
						always := &topkAcc{k: k, accept: accept, theta: math.Inf(-1)}
						guarded.bind(flat, plan)
						always.bind(flat, plan)
						for i, bl := range guarded.lists {
							guarded.walkList(bl.l, bl.w, bl.rem)
							guarded.settle(bl.rem, guarded.remAfterNext(i))
							always.walkList(bl.l, bl.w, bl.rem)
							always.settle(bl.rem, -1)
							if guarded.theta > always.theta {
								t.Fatalf("%s list %d: guarded θ %g above the fresh one %g", label, i, guarded.theta, always.theta)
							}
							if guarded.theta < always.theta {
								stale++
							}
							if guarded.topkCounters != always.topkCounters || guarded.closed != always.closed {
								t.Fatalf("%s list %d: guarded %+v closed=%v, always %+v closed=%v",
									label, i, guarded.topkCounters, guarded.closed, always.topkCounters, always.closed)
							}
							assertScoredBitIdentical(t, fmt.Sprintf("%s list %d live partials", label, i), always.docs, guarded.docs)
						}
						dropping += guarded.pruned
						if len(guarded.lists) > 0 && guarded.theta != always.theta {
							t.Fatalf("%s: final θ %g, fresh %g: the last list must refresh", label, guarded.theta, always.theta)
						}
						if _, c := scorePlanTopK(flat, plan, k, accept); c != guarded.topkCounters {
							t.Fatalf("%s: scorePlanTopK counted %+v, the driven accumulator %+v", label, c, guarded.topkCounters)
						}
					}
				}
			}
		}
	}
	if stale == 0 || dropping == 0 {
		t.Fatalf("guard left θ stale after %d lists and %d documents were dropped; want both > 0", stale, dropping)
	}
}

// TestPooledAccumulatorIsolation interleaves different needs, α and k
// from many goroutines on one pooled Sharded and one four-segment
// store with tombstones, every result held to the oracle: an entry
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
	sharded := NewSharded(4)
	sharded.AddBatch(docs)
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
				if got := sharded.ScoreTopK(q.need, q.alpha, q.k, nil); !slices.Equal(got, q.full) {
					t.Errorf("goroutine %d query %d (α%g k%d) sharded: got %v want %v", g, qi, q.alpha, q.k, got, q.full)
				}
				if got := store.ScoreTopK(q.need, q.alpha, q.k, nil); !slices.Equal(got, q.tombed) {
					t.Errorf("goroutine %d query %d (α%g k%d) store: got %v want %v", g, qi, q.alpha, q.k, got, q.tombed)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestReleaseKeepsNoOutsizedBuffer: a released accumulator is empty,
// holds nothing of its evaluation, and gives up a buffer that grew past
// maxPooledDocs instead of pinning it in the pool.
func TestReleaseKeepsNoOutsizedBuffer(t *testing.T) {
	a := &topkAcc{
		k:      3,
		accept: func(DocID) bool { return true },
		docs:   make([]ScoredDoc, 5, maxPooledDocs+1),
		pend:   make([]ScoredDoc, 5, maxPooledDocs),
		lists:  []boundedList{{l: &postingList{}}},
		closed: true,
	}
	a.release()
	if a.docs != nil || cap(a.pend) != maxPooledDocs {
		t.Errorf("kept cap(docs)=%d cap(pend)=%d, want the outsized docs dropped and pend kept", cap(a.docs), cap(a.pend))
	}
	if len(a.pend) != 0 || len(a.lists) != 0 || a.lists[:1][0].l != nil || a.accept != nil || a.closed || a.k != 0 {
		t.Errorf("released accumulator still holds evaluation state: %+v", a)
	}
}

// TestScorerAllocBudget pins the scorer's garbage: with a warm free
// list an evaluation allocates the slice it returns and nothing else —
// nothing per list, per posting or per document.
func TestScorerAllocBudget(t *testing.T) {
	flat := flatFromDocs(randomDocs(61, 2000, 0))
	need := randomNeed(rand.New(rand.NewSource(62)))
	plan := planQuery(need, 0.6, flat)
	for _, k := range []int{10, 0} {
		if out, _ := scorePlanTopK(flat, plan, k, nil); len(out) == 0 { // also warms the free list
			t.Fatalf("k%d: need matches nothing", k)
		}
		allocs := testing.AllocsPerRun(50, func() { scorePlanTopK(flat, plan, k, nil) })
		if allocs > 1 {
			t.Errorf("k%d: %.1f allocations per evaluation, want at most 1 (the returned slice)", k, allocs)
		}
	}
}

// TestShardedLivePoolSingleTerm is the regression test for the worker
// pool sizing fix: a single rare term matching one shard must size its
// pool off the live work items, not the total shard count, and still
// return the exact sequential ranking.
func TestShardedLivePoolSingleTerm(t *testing.T) {
	s := NewSharded(16)
	flat := New()
	// One document carries a unique term; the rest share the vocab.
	docs := randomDocs(51, 200, 0)
	rare := Doc{ID: 100_003, A: analysis.Analyzed{Terms: map[string]int{"rareterm": 2}}}
	docs = append(docs, rare)
	s.AddBatch(docs)
	for _, d := range docs {
		flat.Add(d.ID, d.A)
	}

	need := analysis.Analyzed{Terms: map[string]int{"rareterm": 1}}
	plan := planQuery(need, 1, s)
	live := s.liveParts(plan, nil)
	if len(live) != 1 {
		t.Fatalf("single-term plan reports %d live shards, want 1", len(live))
	}
	want := flat.Score(need, 1)
	if len(want) != 1 || want[0].Doc != rare.ID {
		t.Fatalf("reference ranking wrong: %+v", want)
	}
	assertScoredBitIdentical(t, "live pool", want, s.Score(need, 1))
	assertScoredBitIdentical(t, "live pool topk", want, s.ScoreTopK(need, 1, 5, nil))
	s.workers = 8
	assertScoredBitIdentical(t, "live pool workers", want, s.Score(need, 1))

	// A need matching nothing must report no live shards and rank empty.
	none := analysis.Analyzed{Terms: map[string]int{"neverindexedterm": 1}}
	if got := s.Score(none, 1); len(got) != 0 {
		t.Fatalf("unseen term matched %d docs", len(got))
	}
	if live := s.liveParts(planQuery(none, 1, s), nil); len(live) != 0 {
		t.Fatalf("unseen term reports %d live shards", len(live))
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
