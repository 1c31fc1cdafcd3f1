package analysis

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"expertfind/internal/dataset"
	"expertfind/internal/kb"
	"expertfind/internal/langid"
	"expertfind/internal/socialgraph"
	"expertfind/internal/textproc"
	"expertfind/internal/webcontent"
)

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

func TestAnalyzeEnglishResource(t *testing.T) {
	p := New(Options{})
	a, ok := p.Analyze("Michael Phelps is the best! Great freestyle gold medal", nil)
	if !ok {
		t.Fatal("english resource filtered out")
	}
	if a.Terms["freestyl"] == 0 || a.Terms["medal"] == 0 {
		t.Errorf("terms missing: %v", a.Terms)
	}
	phelps := entity(t, "Michael Phelps")
	st, ok := a.Entities[phelps.ID]
	if !ok || st.Freq < 1 || st.DScore <= 0 {
		t.Errorf("phelps entity stats = %+v (ok=%v)", st, ok)
	}
}

func TestAnalyzeLanguageFilter(t *testing.T) {
	p := New(Options{})
	italian := "oggi sono andato in piscina a fare allenamento di stile libero con gli amici"
	if lang := langid.Identify(italian); lang != langid.Italian {
		t.Fatalf("lang = %v, want it", lang)
	}
	if _, ok := p.Analyze(italian, nil); ok {
		t.Error("italian resource passed the english-only filter")
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
	cond := entity(t, "Electrical conductor")
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
	mj := entity(t, "Michael Jackson")
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
	phelps := entity(t, "Michael Phelps")
	if st := a.Entities[phelps.ID]; st.Freq < 2 {
		t.Errorf("phelps freq = %d, want >= 2 (two mentions)", st.Freq)
	}
}

// TestPipelineTokenLengthBounds: the pipeline's terms pass textproc's
// token-length filter, a one-rune token and one of more than
// textproc.MaxTokenLen runes dropped.
func TestPipelineTokenLengthBounds(t *testing.T) {
	p := New(Options{})
	atMax, long := strings.Repeat("z", textproc.MaxTokenLen), strings.Repeat("x", textproc.MaxTokenLen+1)
	a, ok := p.Analyze("the swimmers are training hard for the championship season x "+long+" "+atMax, nil)
	if !ok {
		t.Fatal("filtered")
	}
	want := map[string]int{"swimmer": 1, "train": 1, "hard": 1, "championship": 1, "season": 1, atMax: 1}
	if !reflect.DeepEqual(a.Terms, want) {
		t.Errorf("terms = %v, want %v", a.Terms, want)
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

// TestAnalyzeNeedAllocCeiling keeps need analysis from growing back:
// the ceiling is the measured count for one pass over needSeeds after
// the stem-to-domain-set table, the stack-buffer stem and the one-pass
// lowercase (it was 210 before them, and 589 before language
// identification stopped allocating and tokenization became one pass).
func TestAnalyzeNeedAllocCeiling(t *testing.T) {
	const ceiling = 107
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
