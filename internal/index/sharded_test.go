package index

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

// randomDocs builds a seeded synthetic corpus as (id, analyzed) pairs
// so the same documents can populate a monolithic and a sharded index.
// idOffset shifts the id range, keeping independently generated sets
// disjoint for merge tests.
func randomDocs(seed int64, nDocs int, idOffset int) []Doc {
	r := rand.New(rand.NewSource(seed))
	vocab := shardTestVocab()
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
		// Sparse, non-contiguous ids exercise the hash routing.
		docs = append(docs, Doc{
			ID: DocID(idOffset + i*3 + r.Intn(2)),
			A:  analysis.Analyzed{Terms: terms, Entities: ents},
		})
	}
	return docs
}

func shardTestVocab() []string {
	return []string{"swim", "pool", "php", "copper", "milan", "guitar", "game", "match", "train", "code", "wave", "atom"}
}

func flatFromDocs(docs []Doc) *Index {
	ix := New()
	for _, d := range docs {
		ix.Add(d.ID, d.A)
	}
	return ix
}

// randomNeed draws a need over (mostly) corpus vocabulary and entity
// ids, mixing in unseen terms/entities and zero-frequency terms so the
// skip paths are exercised.
func randomNeed(r *rand.Rand) analysis.Analyzed {
	vocab := shardTestVocab()
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

var equivalenceShardCounts = []int{1, 2, 3, 7, 16}

// TestShardedScoreEquivalence is the differential property test of
// the sharding contract: for randomized corpora and needs, a sharded
// index returns exactly the sequential ranking — same docs, same
// order, same float64 bits — for every shard count and alpha edge.
func TestShardedScoreEquivalence(t *testing.T) {
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
		for _, n := range equivalenceShardCounts {
			sh := NewSharded(n)
			sh.AddBatch(docs)
			for _, alpha := range alphas {
				for qi, need := range needs {
					want := flat.Score(need, alpha)
					got := sh.Score(need, alpha)
					assertScoredBitIdentical(t,
						fmt.Sprintf("seed=%d shards=%d alpha=%v need=%d", seed, n, alpha, qi),
						want, got)
				}
			}
		}
	}
}

// TestScoreByteIdenticalAcrossRuns is the regression test for the
// map-iteration-order nondeterminism: the same query repeated 50×
// must return byte-identical ranked output, sequentially and sharded.
// Before query planning sorted the need's terms/entities, float
// accumulation order followed Go's randomized map iteration and the
// low bits of tied scores could differ between calls.
func TestScoreByteIdenticalAcrossRuns(t *testing.T) {
	docs := randomDocs(42, 400, 0)
	flat := flatFromDocs(docs)
	sh := NewSharded(7)
	sh.AddBatch(docs)
	// A wide need matching many docs through several terms and
	// entities, so association order would show up in the low bits.
	need := randomNeed(rand.New(rand.NewSource(7)))
	for _, alpha := range []float64{0, 0.6, 1} {
		base := flat.Score(need, alpha)
		for i := 0; i < 50; i++ {
			assertScoredBitIdentical(t, fmt.Sprintf("flat alpha=%v run=%d", alpha, i), base, flat.Score(need, alpha))
			assertScoredBitIdentical(t, fmt.Sprintf("sharded alpha=%v run=%d", alpha, i), base, sh.Score(need, alpha))
		}
	}
}

// TestScoreWorkersAnyBoundSameRanking checks that the worker bound
// never changes output: sequential scoring, the pool default and
// bounds past the shard count all give the same ranking.
func TestScoreWorkersAnyBoundSameRanking(t *testing.T) {
	docs := randomDocs(3, 250, 0)
	sh := NewSharded(8)
	sh.AddBatch(docs)
	need := randomNeed(rand.New(rand.NewSource(9)))
	poolDefault := sh.workers
	sh.workers = 1
	base := sh.Score(need, 0.6)
	for _, workers := range []int{poolDefault, 2, 8, 64} {
		sh.workers = workers
		assertScoredBitIdentical(t, fmt.Sprintf("workers=%d", workers), base, sh.Score(need, 0.6))
	}
}

func TestShardedStatsMatchFlat(t *testing.T) {
	docs := randomDocs(11, 200, 0)
	flat := flatFromDocs(docs)
	sh := NewSharded(5)
	sh.AddBatch(docs)

	if sh.NumShards() != 5 {
		t.Errorf("NumShards = %d", sh.NumShards())
	}
	if flat.NumDocs() != sh.NumDocs() {
		t.Fatalf("NumDocs: %d vs %d", flat.NumDocs(), sh.NumDocs())
	}
	for _, d := range docs {
		if !sh.Has(d.ID) {
			t.Fatalf("missing doc %d", d.ID)
		}
	}
	if sh.Has(DocID(1 << 20)) {
		t.Error("Has(unknown) = true")
	}
	for _, term := range append(shardTestVocab(), "unseen") {
		if flat.DocFreq(term) != sh.DocFreq(term) {
			t.Errorf("DocFreq(%q): %d vs %d", term, flat.DocFreq(term), sh.DocFreq(term))
		}
	}
	for e := 0; e < 60; e++ {
		id := kb.EntityID(e)
		if flat.EntityFreq(id) != sh.EntityFreq(id) {
			t.Errorf("EntityFreq(%d): %d vs %d", e, flat.EntityFreq(id), sh.EntityFreq(id))
		}
	}
}

func TestShardedAddDuplicatePanics(t *testing.T) {
	sh := NewSharded(4)
	doc := analysis.Analyzed{Terms: map[string]int{"x": 1}}
	sh.Add(7, doc)
	defer func() {
		if recover() == nil {
			t.Error("duplicate sharded Add did not panic")
		}
	}()
	sh.Add(7, doc)
}

// TestShardedConcurrentScoreAddMerge hammers a sharded index with
// concurrent queries, stat reads, Adds, AddBatches and Flatten (the
// merge of every shard into one index). Run under -race it pins the
// locking discipline; results are only sanity-checked (the doc set is
// mutating underneath the queries).
func TestShardedConcurrentScoreAddMerge(t *testing.T) {
	sh := NewSharded(4)
	sh.AddBatch(randomDocs(31, 150, 0))
	need := randomNeed(rand.New(rand.NewSource(8)))

	var readers, writers sync.WaitGroup
	stop := make(chan struct{})
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
				got := sh.Score(need, 0.6)
				for j := 1; j < len(got); j++ {
					if scoredCmp(got[j], got[j-1]) < 0 {
						t.Errorf("ranking out of order at %d", j)
						return
					}
				}
				_ = sh.NumDocs()
				_ = sh.DocFreq("swim")
				_ = sh.Has(DocID(i))
			}
		}(g)
	}

	// Writers: fresh ids, disjoint from the seed corpus and each other.
	writers.Add(1)
	go func() {
		defer writers.Done()
		doc := analysis.Analyzed{Terms: map[string]int{"swim": 2, "pool": 1}}
		for i := 0; i < 200; i++ {
			sh.Add(DocID(10_000+i), doc)
		}
	}()
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 15; i++ {
			sh.AddBatch(randomDocs(int64(40+i), 20, 20_000+1000*i))
			if flat := sh.Flatten(); flat.NumDocs() < 150+20*(i+1) {
				t.Errorf("flattened copy holds %d docs after batch %d", flat.NumDocs(), i)
			}
		}
	}()

	writers.Wait()
	close(stop)
	readers.Wait()

	// After all writers finish the index must be consistent again.
	if sh.NumDocs() == 0 {
		t.Fatal("index empty after concurrent build")
	}
	base := sh.Score(need, 0.6)
	assertScoredBitIdentical(t, "post-mutation determinism", base, sh.Score(need, 0.6))
}

// benchCorpus is the large synthetic corpus shared by the sharded
// scoring benchmarks: heavy posting lists so per-shard work dominates
// goroutine overhead.
var benchCorpus struct {
	once sync.Once
	docs []Doc
	need analysis.Analyzed
}

func benchShardCorpus() ([]Doc, analysis.Analyzed) {
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

// BenchmarkScoreSharded measures Eq. 1 scoring over a 60k-doc corpus
// per shard count. shards=1 is the sequential reference; on a
// multi-core runner shards=GOMAXPROCS must show a clear speedup
// (workers are capped at GOMAXPROCS, so a single-core runner
// degenerates to the sequential path for every shard count).
func BenchmarkScoreSharded(b *testing.B) {
	docs, need := benchShardCorpus()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			sh := NewSharded(n)
			sh.AddBatch(docs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh.Score(need, 0.6)
			}
		})
	}
}

// BenchmarkScoreShardedBuild measures the bulk per-shard corpus build.
func BenchmarkScoreShardedBuild(b *testing.B) {
	docs, _ := benchShardCorpus()
	for _, n := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sh := NewSharded(n)
				sh.AddBatch(docs)
			}
		})
	}
}
