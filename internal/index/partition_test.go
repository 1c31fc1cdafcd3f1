package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// randomDocs builds a seeded synthetic corpus as (id, analyzed) pairs
// so the same documents can populate a monolithic index and a store.
// idOffset shifts the id range, keeping independently generated sets
// disjoint.
func randomDocs(seed int64, nDocs int, idOffset int) []Doc {
	r := rand.New(rand.NewSource(seed))
	vocab := testVocab()
	docs := make([]Doc, 0, nDocs)
	for i := 0; i < nDocs; i++ {
		terms := map[string]int{}
		for j := 0; j < 1+r.Intn(10); j++ {
			terms[vocab[r.Intn(len(vocab))]]++
		}
		ents := map[kb.EntityID]analysis.EntityStats{}
		for j := 0; j < r.Intn(4); j++ {
			ds := 0.0
			if r.Intn(4) > 0 { // leave some mentions at dScore 0 (we = 0 path)
				ds = r.Float64()
			}
			ents[kb.EntityID(r.Intn(50))] = analysis.EntityStats{Freq: 1 + r.Intn(3), DScore: ds}
		}
		// Sparse, non-contiguous ids exercise the hash routing and the
		// doc-id range cuts.
		docs = append(docs, Doc{
			ID: DocID(idOffset + i*3 + r.Intn(2)),
			A:  analysis.Analyzed{Terms: terms, Entities: ents},
		})
	}
	return docs
}

func testVocab() []string {
	return []string{"swim", "pool", "php", "copper", "milan", "guitar", "game", "match", "train", "code", "wave", "atom"}
}

func flatFromDocs(docs []Doc) *Index {
	ix := New()
	for _, d := range docs {
		ix.Add(d)
	}
	return ix
}

// memStore returns a store with no directory holding docs: one
// memtable, cut into up to workers doc-id ranges per find.
func memStore(docs []Doc, workers int) *Store {
	s, err := NewStore("", StoreOptions{Workers: workers})
	if err != nil {
		panic(err)
	}
	if err := s.AddBatch(docs); err != nil {
		panic(err)
	}
	return s
}

// partsOf returns the parts s scores need on.
func partsOf(s *Store, need analysis.Analyzed, alpha float64) []part {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.partsLocked(planQuery(need, alpha, storeStats{s}), nil)
}

// randomNeed draws a need over (mostly) corpus vocabulary and entity
// ids, mixing in unseen terms/entities and zero-frequency terms so the
// skip paths are exercised.
func randomNeed(r *rand.Rand) analysis.Analyzed {
	vocab := testVocab()
	terms := map[string]int{}
	for j := 0; j < 1+r.Intn(6); j++ {
		terms[vocab[r.Intn(len(vocab))]] = 1 + r.Intn(3)
	}
	if r.Intn(3) == 0 {
		terms["neverindexedterm"] = 1
	}
	if r.Intn(3) == 0 {
		terms[vocab[r.Intn(len(vocab))]] = 0 // qtf <= 0 must be ignored
	}
	ents := map[kb.EntityID]analysis.EntityStats{}
	for j := 0; j < r.Intn(4); j++ {
		ents[kb.EntityID(r.Intn(60))] = analysis.EntityStats{Freq: 1, DScore: r.Float64()}
	}
	return analysis.Analyzed{Terms: terms, Entities: ents}
}

// assertScoredBitIdentical fails unless the rankings agree exactly:
// same length, same docs in the same order, same float64 bits.
func assertScoredBitIdentical(t *testing.T, label string, want, got []ScoredDoc) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d vs %d matches", label, len(want), len(got))
	}
	for i := range want {
		if want[i].Doc != got[i].Doc {
			t.Fatalf("%s: rank %d doc %d vs %d", label, i, want[i].Doc, got[i].Doc)
		}
		if math.Float64bits(want[i].Score) != math.Float64bits(got[i].Score) {
			t.Fatalf("%s: rank %d (doc %d) score bits %x vs %x (%v vs %v)",
				label, i, want[i].Doc,
				math.Float64bits(want[i].Score), math.Float64bits(got[i].Score),
				want[i].Score, got[i].Score)
		}
	}
}

// workerCounts is the worker grid: serial, the two cores of a small
// machine, a count that divides nothing evenly, and more ranges than
// most lists have blocks.
var workerCounts = []int{1, 2, 3, 7, 16}

// TestStoreWorkersScoreEquivalence is the differential property test
// of the partitioning contract on the in-memory path: for randomized
// corpora and needs, a store with no directory, its memtable cut into
// as many doc-id ranges as it has workers, returns exactly the
// monolithic ranking — same docs, same order, same float64 bits — for
// every worker count and alpha edge.
func TestStoreWorkersScoreEquivalence(t *testing.T) {
	alphas := []float64{0, 0.6, 1}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		docs := randomDocs(seed, 300, 0)
		flat := flatFromDocs(docs)
		r := rand.New(rand.NewSource(seed + 100))
		needs := []analysis.Analyzed{
			{},                                   // empty need
			{Terms: map[string]int{"unseen": 2}}, // unseen term only
			{Terms: map[string]int{"swim": 0}},   // zero-frequency term
			{Entities: map[kb.EntityID]analysis.EntityStats{999: {Freq: 1}}}, // unseen entity
		}
		for i := 0; i < 8; i++ {
			needs = append(needs, randomNeed(r))
		}
		for _, n := range workerCounts {
			s := memStore(docs, n)
			if parts := partsOf(s, needs[4], 0.6); len(parts) != n {
				t.Fatalf("seed=%d workers=%d: the memtable is %d parts", seed, n, len(parts))
			}
			for _, alpha := range alphas {
				for qi, need := range needs {
					assertScoredBitIdentical(t,
						fmt.Sprintf("seed=%d workers=%d alpha=%v need=%d", seed, n, alpha, qi),
						flat.Score(need, alpha), s.Score(need, alpha))
				}
			}
		}
	}
}

// TestScoreByteIdenticalAcrossRuns is the regression test for the
// map-iteration-order nondeterminism: the same query repeated 50×
// must return byte-identical ranked output, on the monolith and on a
// memtable cut into seven ranges. Before query planning sorted the
// need's terms/entities, float accumulation order followed Go's
// randomized map iteration and the low bits of tied scores could
// differ between calls.
func TestScoreByteIdenticalAcrossRuns(t *testing.T) {
	docs := randomDocs(42, 400, 0)
	flat := flatFromDocs(docs)
	s := memStore(docs, 7)
	// A wide need matching many docs through several terms and
	// entities, so association order would show up in the low bits.
	need := randomNeed(rand.New(rand.NewSource(7)))
	for _, alpha := range []float64{0, 0.6, 1} {
		base := flat.Score(need, alpha)
		for i := 0; i < 50; i++ {
			assertScoredBitIdentical(t, fmt.Sprintf("flat alpha=%v run=%d", alpha, i), base, flat.Score(need, alpha))
			assertScoredBitIdentical(t, fmt.Sprintf("store alpha=%v run=%d", alpha, i), base, s.Score(need, alpha))
		}
	}
}

// TestScoreWorkersAnyBoundSameRanking checks that the worker bound
// never changes output: serial scoring, the pool default and bounds
// past the document count all give the same ranking.
func TestScoreWorkersAnyBoundSameRanking(t *testing.T) {
	docs := randomDocs(3, 250, 0)
	s := memStore(docs, 0)
	need := randomNeed(rand.New(rand.NewSource(9)))
	poolDefault := s.workers
	s.workers = 1
	base := s.Score(need, 0.6)
	for _, workers := range []int{poolDefault, 2, 8, 64, 400} {
		s.workers = workers
		assertScoredBitIdentical(t, fmt.Sprintf("workers=%d", workers), base, s.Score(need, 0.6))
	}
}

// TestMemtableStatsMatchFlat: a store with no directory reports the
// monolith's collection statistics and its own worker bound.
func TestMemtableStatsMatchFlat(t *testing.T) {
	docs := randomDocs(11, 200, 0)
	flat := flatFromDocs(docs)
	s := memStore(docs, 5)

	if s.Workers() != 5 || s.Dir() != "" {
		t.Errorf("Workers() = %d, Dir() = %q", s.Workers(), s.Dir())
	}
	if flat.NumDocs() != s.NumDocs() {
		t.Fatalf("NumDocs: %d vs %d", flat.NumDocs(), s.NumDocs())
	}
	for _, d := range docs {
		if !s.Has(d.ID) {
			t.Fatalf("missing doc %d", d.ID)
		}
	}
	if s.Has(DocID(1 << 20)) {
		t.Error("Has(unknown) = true")
	}
	for _, term := range append(testVocab(), "unseen") {
		if flat.DocFreq(term) != s.DocFreq(term) {
			t.Errorf("DocFreq(%q): %d vs %d", term, flat.DocFreq(term), s.DocFreq(term))
		}
	}
	for e := 0; e < 60; e++ {
		id := kb.EntityID(e)
		if flat.EntityFreq(id) != s.EntityFreq(id) {
			t.Errorf("EntityFreq(%d): %d vs %d", e, flat.EntityFreq(id), s.EntityFreq(id))
		}
	}
}

// TestStoreWithoutDirNeverSeals: a store with no directory keeps every
// document in its memtable however far past FlushDocs it grows, and
// Seal, Compact and Maintain leave it as it is.
func TestStoreWithoutDirNeverSeals(t *testing.T) {
	docs := randomDocs(13, 120, 0)
	s, err := NewStore("", StoreOptions{FlushDocs: 10, MaxSegments: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, d := range docs[:60] {
		if err := s.AddBatch([]Doc{d}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AddBatch(docs[60:]); err != nil {
		t.Fatal(err)
	}
	for _, op := range []func() error{s.Seal, s.Compact, s.Maintain} {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Status(); st.MemtableDocs != len(docs) || len(st.Segments) != 0 || st.Seals != 0 {
		t.Fatalf("status %+v, want every document in the memtable and nothing sealed", st)
	}
	need := randomNeed(rand.New(rand.NewSource(14)))
	assertScoredBitIdentical(t, "unsealed", flatFromDocs(docs).Score(need, 0.6), s.Score(need, 0.6))
}

// TestStoreAddDuplicatePanics: adding a live id panics through every
// write path, as with Index.Add, and leaves the store unlocked.
func TestStoreAddDuplicatePanics(t *testing.T) {
	doc := analysis.Analyzed{Terms: map[string]int{"x": 1}}
	s := memStore([]Doc{{ID: 7, A: doc}}, 4)
	for name, add := range map[string]func(){
		"AddBatch":   func() { s.AddBatch([]Doc{{ID: 7, A: doc}}) },
		"ApplyDelta": func() { s.ApplyDelta(Delta{Adds: []Doc{{ID: 7, A: doc}}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("duplicate %s did not panic", name)
				}
			}()
			add()
		}()
		if !s.Has(7) {
			t.Fatalf("after duplicate %s: doc 7 gone", name)
		}
	}
}

// TestStoreConcurrentFindsSeeWholeWrites races finds, statistics reads
// and WriteTo snapshots against a single writer's AddBatch, Add and
// ApplyDelta calls on a store with no directory whose memtable is cut
// into three ranges. Every write is one step under the store's write
// lock, so a find sees the state after some write: at least the last
// one finished before the find began, at most the one in flight when
// it ended. Each ranking and snapshot must equal a monolith's over the
// documents of one such state, bit for bit. Run under -race it pins the
// locking discipline.
func TestStoreConcurrentFindsSeeWholeWrites(t *testing.T) {
	base := randomDocs(31, 150, 0)
	s := memStore(base, 3)
	need := randomNeed(rand.New(rand.NewSource(8)))
	if parts := partsOf(s, need, 0.6); len(parts) < 2 {
		t.Fatalf("the memtable is %d parts, want at least 2", len(parts))
	}

	// The writes, and what a monolith over the documents after each
	// ranks and writes: states[i] follows the first i writes.
	type state struct {
		topk, all []ScoredDoc
		bytes     []byte
	}
	snapshot := func(docs []Doc) state {
		ix := flatFromDocs(docs)
		var b bytes.Buffer
		if _, err := ix.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		return state{ix.ScoreTopK(need, 0.6, 10, nil), ix.Score(need, 0.6), b.Bytes()}
	}
	st := newCorpusState(base)
	r := rand.New(rand.NewSource(9))
	fresh := func() Doc {
		id := st.nextID + DocID(r.Intn(3))
		st.nextID = id + 1
		a := randomAnalyzed(r)
		st.live[id] = a
		st.ids = append(st.ids, id)
		return Doc{ID: id, A: a}
	}
	states := []state{snapshot(base)}
	var writes []func()
	for i := 0; i < 30; i++ {
		switch i % 3 {
		case 0:
			var batch []Doc
			for range 12 {
				batch = append(batch, fresh())
			}
			writes = append(writes, func() { s.AddBatch(batch) })
		case 1:
			d := fresh()
			writes = append(writes, func() { s.AddBatch([]Doc{d}) })
		case 2:
			d := st.randomDelta(r)
			writes = append(writes, func() { s.ApplyDelta(d) })
		}
		states = append(states, snapshot(st.docs()))
	}

	var done atomic.Int64 // writes finished
	seen := func(lo, hi int64, match func(state) bool) bool {
		for i := lo; i <= min(hi+1, int64(len(writes))); i++ {
			if match(states[i]) {
				return true
			}
		}
		return false
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				lo := done.Load()
				var match func(state) bool
				switch i % 3 {
				case 0:
					got := s.ScoreTopK(need, 0.6, 10, nil)
					match = func(w state) bool { return slices.Equal(got, w.topk) }
				case 1:
					got := s.Score(need, 0.6)
					match = func(w state) bool { return slices.Equal(got, w.all) }
				case 2:
					var b bytes.Buffer
					if _, err := s.WriteTo(&b); err != nil {
						t.Error(err)
						return
					}
					match = func(w state) bool { return bytes.Equal(b.Bytes(), w.bytes) }
				}
				if hi := done.Load(); !seen(lo, hi, match) {
					t.Errorf("reader %d op %d: result matches no state after %d..%d writes", g, i, lo, hi+1)
					return
				}
				_ = s.NumDocs()
				_ = s.DocFreq("swim")
				_ = s.Has(DocID(i))
			}
		}(g)
	}
	for i, w := range writes {
		w()
		done.Store(int64(i + 1))
		time.Sleep(100 * time.Microsecond)
	}
	close(stop)
	readers.Wait()

	final := states[len(writes)]
	assertScoredBitIdentical(t, "final", final.all, s.Score(need, 0.6))
}

// benchCorpus is the large synthetic corpus shared by the store
// benchmarks: heavy posting lists so per-part work dominates goroutine
// overhead.
var benchCorpus struct {
	once sync.Once
	docs []Doc
	need analysis.Analyzed
}

func benchStoreCorpus() ([]Doc, analysis.Analyzed) {
	benchCorpus.once.Do(func() {
		r := rand.New(rand.NewSource(1))
		const nDocs, vocabSize = 60_000, 120
		vocab := make([]string, vocabSize)
		for i := range vocab {
			vocab[i] = fmt.Sprintf("term%03d", i)
		}
		docs := make([]Doc, nDocs)
		for i := range docs {
			terms := map[string]int{}
			for j := 0; j < 16; j++ {
				terms[vocab[r.Intn(vocabSize)]]++
			}
			ents := map[kb.EntityID]analysis.EntityStats{
				kb.EntityID(r.Intn(200)): {Freq: 1 + r.Intn(2), DScore: r.Float64()},
			}
			docs[i] = Doc{ID: DocID(i), A: analysis.Analyzed{Terms: terms, Entities: ents}}
		}
		need := analysis.Analyzed{Terms: map[string]int{}, Entities: map[kb.EntityID]analysis.EntityStats{}}
		for j := 0; j < 12; j++ {
			need.Terms[vocab[r.Intn(vocabSize)]] = 1
		}
		for j := 0; j < 4; j++ {
			need.Entities[kb.EntityID(r.Intn(200))] = analysis.EntityStats{Freq: 1, DScore: 1}
		}
		benchCorpus.docs, benchCorpus.need = docs, need
	})
	return benchCorpus.docs, benchCorpus.need
}
