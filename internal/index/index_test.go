package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
)

var pipe = analysis.New(analysis.Options{})

func buildSmall(t testing.TB) *Index {
	t.Helper()
	ix := New()
	docs := []string{
		"michael phelps won the freestyle race at the swimming pool",      // 0: sport
		"my favourite php function returns the length of a string",        // 1: computer
		"copper is a great conductor because of its free electrons",       // 2: science
		"we had dinner at a lovely restaurant in milan near the duomo",    // 3: location
		"the swimming training was exhausting but the pool was beautiful", // 4: sport
		"php arrays and strings are easy, the function library is huge",   // 5: computer
	}
	for i, d := range docs {
		a, ok := pipe.Analyze(d, nil)
		if !ok {
			t.Fatalf("doc %d filtered", i)
		}
		ix.Add(Doc{ID: DocID(i), A: a})
	}
	return ix
}

// entity returns the builtin knowledge base's entity with the given
// label.
func entity(t *testing.T, label string) kb.Entity {
	t.Helper()
	for _, e := range kb.Builtin().Entities() {
		if e.Label == label {
			return e
		}
	}
	t.Fatalf("no entity %q", label)
	return kb.Entity{}
}

func TestScoreRanksTopicalDocsFirst(t *testing.T) {
	ix := buildSmall(t)
	need := pipe.AnalyzeNeed("who is the best freestyle swimmer in the pool?")
	got := ix.Score(need, 0.6)
	if len(got) < 2 {
		t.Fatalf("got %d matches, want >= 2", len(got))
	}
	// Docs 0 and 4 are the swimming docs; they must lead.
	lead := map[DocID]bool{got[0].Doc: true, got[1].Doc: true}
	if !lead[0] || !lead[4] {
		t.Errorf("top docs = %v, want {0,4}", got[:2])
	}
}

func TestScoreTermOnlyVsEntityOnly(t *testing.T) {
	ix := buildSmall(t)
	need := pipe.AnalyzeNeed("tell me about michael phelps")

	termOnly := ix.Score(need, 1.0)
	entityOnly := ix.Score(need, 0.0)

	// Doc 0 mentions phelps both textually and as an entity: it must
	// top both rankings.
	if len(termOnly) == 0 || termOnly[0].Doc != 0 {
		t.Errorf("term-only top = %v, want doc 0", termOnly)
	}
	if len(entityOnly) == 0 || entityOnly[0].Doc != 0 {
		t.Errorf("entity-only top = %v, want doc 0", entityOnly)
	}
}

func TestScoreOrderingAndPositivity(t *testing.T) {
	ix := buildSmall(t)
	need := pipe.AnalyzeNeed("php function string length")
	got := ix.Score(need, 0.6)
	for i, sd := range got {
		if sd.Score <= 0 {
			t.Errorf("doc %d score %v <= 0", sd.Doc, sd.Score)
		}
		if i > 0 && got[i-1].Score < sd.Score {
			t.Errorf("scores not descending at %d", i)
		}
	}
}

func TestScoreNoMatch(t *testing.T) {
	ix := buildSmall(t)
	need := pipe.AnalyzeNeed("zebra xylophone quixotic")
	if got := ix.Score(need, 0.6); len(got) != 0 {
		t.Errorf("got %v for unmatched need", got)
	}
}

func TestIRFMonotoneInRarity(t *testing.T) {
	ix := buildSmall(t)
	// "php" appears in 2 docs, "phelps" in 1: rarer term has higher IRF.
	if ix.DocFreq("phelp") != 1 || ix.DocFreq("php") != 2 {
		t.Fatalf("df(phelp)=%d df(php)=%d", ix.DocFreq("phelp"), ix.DocFreq("php"))
	}
	irfPhelps := irf(ix.NumDocs(), ix.DocFreq("phelp"))
	irfPHP := irf(ix.NumDocs(), ix.DocFreq("php"))
	if irfPhelps <= irfPHP {
		t.Errorf("IRF(phelp)=%v <= IRF(php)=%v", irfPhelps, irfPHP)
	}
	if ix.DocFreq("nonexistentterm") != 0 {
		t.Error("unseen term has a document frequency")
	}
}

func TestEntityStatistics(t *testing.T) {
	ix := buildSmall(t)
	phelps := entity(t, "Michael Phelps")
	if ix.EntityFreq(phelps.ID) != 1 {
		t.Errorf("EntityFreq(phelps) = %d, want 1", ix.EntityFreq(phelps.ID))
	}
	if ix.EntityFreq(kb.EntityID(9999)) != 0 {
		t.Error("unseen entity has a document frequency")
	}
}

func TestEntityWeightBoostsConfidentMentions(t *testing.T) {
	// Two docs with the same entity at different dScores: the more
	// confident one must score higher under entity-only matching.
	ix := New()
	phelps := entity(t, "Michael Phelps")
	lo := analysis.Analyzed{
		Terms:    map[string]int{"x": 1},
		Entities: map[kb.EntityID]analysis.EntityStats{phelps.ID: {Freq: 1, DScore: 0.2}},
	}
	hi := analysis.Analyzed{
		Terms:    map[string]int{"y": 1},
		Entities: map[kb.EntityID]analysis.EntityStats{phelps.ID: {Freq: 1, DScore: 0.9}},
	}
	ix.Add(Doc{ID: 1, A: lo})
	ix.Add(Doc{ID: 2, A: hi})
	need := analysis.Analyzed{Entities: map[kb.EntityID]analysis.EntityStats{phelps.ID: {Freq: 1, DScore: 1}}}
	got := ix.Score(need, 0)
	if len(got) != 2 || got[0].Doc != 2 {
		t.Errorf("ranking = %v, want doc 2 first", got)
	}
	// Ratio must be (1+0.9)/(1+0.2).
	wantRatio := 1.9 / 1.2
	if r := got[0].Score / got[1].Score; math.Abs(r-wantRatio) > 1e-9 {
		t.Errorf("score ratio = %v, want %v", r, wantRatio)
	}
}

func TestAddDuplicatePanics(t *testing.T) {
	ix := New()
	a, _ := pipe.Analyze("some text about things", nil)
	ix.Add(Doc{ID: 1, A: a})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Add did not panic")
		}
	}()
	ix.Add(Doc{ID: 1, A: a})
}

func TestHasAndNumDocs(t *testing.T) {
	ix := buildSmall(t)
	if ix.NumDocs() != 6 {
		t.Errorf("NumDocs = %d", ix.NumDocs())
	}
	if !ix.Has(0) || ix.Has(99) {
		t.Error("Has wrong")
	}
}

// Property: alpha interpolates monotonically — the score of any doc
// under alpha is alpha·term + (1-alpha)·entity components; verify via
// endpoint reconstruction on random alphas.
func TestScoreAlphaInterpolation(t *testing.T) {
	ix := buildSmall(t)
	need := pipe.AnalyzeNeed("michael phelps freestyle swimming in milan")
	termScores := map[DocID]float64{}
	for _, sd := range ix.Score(need, 1) {
		termScores[sd.Doc] = sd.Score
	}
	entScores := map[DocID]float64{}
	for _, sd := range ix.Score(need, 0) {
		entScores[sd.Doc] = sd.Score
	}
	f := func(seed int64) bool {
		alpha := rand.New(rand.NewSource(seed)).Float64()
		for _, sd := range ix.Score(need, alpha) {
			want := alpha*termScores[sd.Doc] + (1-alpha)*entScores[sd.Doc]
			if math.Abs(sd.Score-want) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scoring is invariant to document insertion order.
func TestScoreInsertionOrderInvariance(t *testing.T) {
	texts := []string{
		"michael phelps is the greatest freestyle champion of all time",
		"that php string function has a subtle bug in the code",
		"copper is a conductor because the electrons are free to move",
		"the restaurant in milan where we had dinner was delightful",
	}
	analyzed := make([]analysis.Analyzed, len(texts))
	for i, s := range texts {
		a, ok := pipe.Analyze(s, nil)
		if !ok {
			t.Fatalf("doc %d filtered", i)
		}
		analyzed[i] = a
	}
	need := pipe.AnalyzeNeed("freestyle swimming phelps")

	build := func(order []int) []ScoredDoc {
		ix := New()
		for _, i := range order {
			ix.Add(Doc{ID: DocID(i), A: analyzed[i]})
		}
		return ix.Score(need, 0.6)
	}
	a := build([]int{0, 1, 2, 3})
	b := build([]int{3, 2, 1, 0})
	if len(a) != len(b) {
		t.Fatalf("different match counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Doc != b[i].Doc || math.Abs(a[i].Score-b[i].Score) > 1e-12 {
			t.Errorf("order dependence at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func BenchmarkScore(b *testing.B) {
	ix := New()
	r := rand.New(rand.NewSource(1))
	vocab := []string{"swim", "pool", "php", "copper", "milan", "guitar", "game", "match", "train", "code"}
	for i := 0; i < 5000; i++ {
		terms := map[string]int{}
		for j := 0; j < 8; j++ {
			terms[vocab[r.Intn(len(vocab))]]++
		}
		ix.Add(Doc{ID: DocID(i), A: analysis.Analyzed{Terms: terms}})
	}
	need := analysis.Analyzed{Terms: map[string]int{"swim": 1, "pool": 1, "train": 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Score(need, 0.6)
	}
}

// BenchmarkIndexAdd reports the write path's postings/s on the 60 000
// document bench corpus: a bulk build in id order, one batch as
// Store.AddBatch hands it, which appends every posting in place; and 64
// updates spread over the id range, whose removals and re-adds land
// below the last doc of every large list they touch — update-below as
// a removal and then an add, update-batch as one batch, the write a
// store delta makes, which rewrites each of those lists once.
func BenchmarkIndexAdd(b *testing.B) {
	docs, _ := benchStoreCorpus()
	postings := func(docs []Doc) int {
		n := 0
		for _, d := range docs {
			n += len(d.A.Terms) + len(d.A.Entities)
		}
		return n
	}
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			New().Add(docs...)
		}
		b.ReportMetric(float64(postings(docs)*b.N)/b.Elapsed().Seconds(), "postings/s")
	})
	var batch []Doc
	var ids []DocID
	for i := 0; i < 64; i++ {
		d := docs[i*len(docs)/64]
		batch = append(batch, Doc{ID: d.ID, A: docs[len(docs)-1-i].A})
		ids = append(ids, d.ID)
	}
	for _, c := range []struct {
		name  string
		write func(*Index)
	}{
		{"update-below", func(ix *Index) { ix.Remove(ids...); ix.Add(batch...) }},
		{"update-batch", func(ix *Index) { ix.write(ids, batch) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			ix := New()
			ix.Add(docs...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.write(ix)
			}
			b.ReportMetric(float64(postings(batch)*b.N)/b.Elapsed().Seconds(), "postings/s")
		})
	}
}
