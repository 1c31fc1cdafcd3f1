package analysis

import (
	"reflect"
	"strconv"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/kb"
	"expertfind/internal/langid"
	"expertfind/internal/socialgraph"
	"expertfind/internal/textproc"
	"expertfind/internal/webcontent"
)

func TestAnalyzeEnglishResource(t *testing.T) {
	p := New(Options{})
	a, ok := p.Analyze("Michael Phelps is the best! Great freestyle gold medal", nil)
	if !ok {
		t.Fatal("english resource filtered out")
	}
	if a.Lang != langid.English {
		t.Errorf("lang = %v", a.Lang)
	}
	if a.Terms["freestyl"] == 0 || a.Terms["medal"] == 0 {
		t.Errorf("terms missing: %v", a.Terms)
	}
	phelps, _ := kb.Builtin().EntityByLabel("Michael Phelps")
	st, ok := a.Entities[phelps.ID]
	if !ok || st.Freq < 1 || st.DScore <= 0 {
		t.Errorf("phelps entity stats = %+v (ok=%v)", st, ok)
	}
	if a.Length == 0 {
		t.Error("Length = 0")
	}
}

func TestAnalyzeLanguageFilter(t *testing.T) {
	p := New(Options{})
	italian := "oggi sono andato in piscina a fare allenamento di stile libero con gli amici"
	if _, ok := p.Analyze(italian, nil); ok {
		t.Error("italian resource passed the english-only filter")
	}
	p = New(Options{KeepAllLanguages: true})
	a, ok := p.Analyze(italian, nil)
	if !ok {
		t.Error("KeepAllLanguages still filtered the resource")
	}
	if a.Lang != langid.Italian {
		t.Errorf("lang = %v, want it", a.Lang)
	}
}

func TestAnalyzeURLEnrichment(t *testing.T) {
	web := webcontent.NewWeb()
	web.AddPage("https://news.example.com/copper",
		"Copper conductivity explained",
		"Copper is an excellent electrical conductor because of its free electrons and low resistance.")
	p := New(Options{Web: web})

	// Without the URL, the short post has no conductor mention.
	a, ok := p.Analyze("interesting read about this metal", nil)
	if !ok {
		t.Fatal("filtered")
	}
	if a.Terms["conductor"] != 0 {
		t.Fatal("unexpected conductor term without URL")
	}

	// With the URL, the page content is folded into the resource.
	a, ok = p.Analyze("interesting read about this metal", []string{"https://news.example.com/copper"})
	if !ok {
		t.Fatal("filtered")
	}
	if a.Terms["conductor"] == 0 || a.Terms["copper"] == 0 {
		t.Errorf("url content not folded in: %v", a.Terms)
	}
	cond, _ := kb.Builtin().EntityByLabel("Electrical conductor")
	if _, ok := a.Entities[cond.ID]; !ok {
		t.Errorf("conductor entity not annotated: %v", a.Entities)
	}
}

func TestAnalyzeUnknownURLIgnored(t *testing.T) {
	p := New(Options{Web: webcontent.NewWeb()})
	a, ok := p.Analyze("a perfectly normal english sentence about the weather outside", []string{"https://missing.example.com/x"})
	if !ok {
		t.Fatal("filtered")
	}
	if a.Terms["weather"] == 0 {
		t.Errorf("terms = %v", a.Terms)
	}
}

func TestAnalyzeNeed(t *testing.T) {
	p := New(Options{})
	a := p.AnalyzeNeed("Can you list some famous songs of Michael Jackson?")
	if a.Terms["song"] == 0 && a.Terms["famou"] == 0 {
		t.Errorf("need terms = %v", a.Terms)
	}
	mj, _ := kb.Builtin().EntityByLabel("Michael Jackson")
	if _, ok := a.Entities[mj.ID]; !ok {
		t.Errorf("need entities = %v", a.Entities)
	}
}

func TestAnalyzeNeedBypassesLanguageFilter(t *testing.T) {
	p := New(Options{})
	a := p.AnalyzeNeed("ristoranti milano centro")
	if len(a.Terms) == 0 {
		t.Error("non-english need produced no terms")
	}
}

func TestEntityFrequencyAggregation(t *testing.T) {
	p := New(Options{})
	a, ok := p.Analyze("phelps won again today, michael phelps is simply the greatest swimmer in the pool", nil)
	if !ok {
		t.Fatal("filtered")
	}
	phelps, _ := kb.Builtin().EntityByLabel("Michael Phelps")
	if st := a.Entities[phelps.ID]; st.Freq < 2 {
		t.Errorf("phelps freq = %d, want >= 2 (two mentions)", st.Freq)
	}
}

func TestCustomProcessor(t *testing.T) {
	p := New(Options{Processor: textproc.New(textproc.Options{DisableStemming: true})})
	a, ok := p.Analyze("the swimmers are training hard for the championship season", nil)
	if !ok {
		t.Fatal("filtered")
	}
	if a.Terms["swimmers"] == 0 {
		t.Errorf("unstemmed term missing: %v", a.Terms)
	}
}

// TestBatchKeepsDocumentOrder checks that the fan-out returns what a
// serial loop would, slot for slot.
func TestBatchKeepsDocumentOrder(t *testing.T) {
	p := New(Options{})
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = needSeeds[i%len(needSeeds)] + " swimming pool training number " + strconv.Itoa(i)
	}
	skip := func(i int) bool { return i%7 == 3 }
	got := p.Batch(len(texts), func(i int) (string, []string, bool) {
		return texts[i], nil, !skip(i)
	})
	if len(got) != len(texts) {
		t.Fatalf("Batch returned %d results for %d documents", len(got), len(texts))
	}
	for i, text := range texts {
		var want Result
		if !skip(i) {
			want.A, want.OK = p.Analyze(text, nil)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("document %d: Batch gave %+v, Analyze %+v", i, got[i], want)
		}
	}
	if got := p.Batch(0, nil); len(got) != 0 {
		t.Errorf("empty Batch returned %d results", len(got))
	}
}

// raceEnabled is set by race_test.go under -race.
var raceEnabled bool

// TestAnalyzeNeedAllocCeiling keeps need analysis from growing back:
// the ceiling is the measured count for one pass over needSeeds after
// language identification stopped allocating and tokenization became
// one pass (it was 589 before).
func TestAnalyzeNeedAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries under -race")
	}
	const ceiling = 210
	p := New(Options{})
	got := testing.AllocsPerRun(20, func() {
		for _, need := range needSeeds {
			p.AnalyzeNeed(need)
		}
	})
	if got > ceiling {
		t.Errorf("AnalyzeNeed over needSeeds allocates %v times, ceiling %d", got, ceiling)
	}
}

// ledgerCorpus returns what the performance ledger analyzes: the first
// 3 000 resources of the seed-7 corpus and the 30 evaluation queries.
func ledgerCorpus() (*Pipeline, []socialgraph.Resource, []dataset.Query) {
	ds := dataset.Generate(dataset.Config{Seed: 7, Scale: 0.5})
	docs := make([]socialgraph.Resource, 3000)
	for i := range docs {
		docs[i] = ds.Graph.Resource(socialgraph.ResourceID(i))
	}
	return New(Options{Web: ds.Web}), docs, ds.Queries
}

func BenchmarkAnalyze(b *testing.B) {
	p, docs, _ := ledgerCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := docs[i%len(docs)]
		p.Analyze(d.Text, d.URLs)
	}
}

func BenchmarkAnalyzeNeed(b *testing.B) {
	p, _, queries := ledgerCorpus()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AnalyzeNeed(queries[i%len(queries)].Text)
	}
}
