// Package analysis implements the resource / expertise-need analysis
// flow of the paper (Fig. 4): Resource Extraction → URL Content
// Extraction → Language Identification → Text Processing → Entity
// Recognition and Disambiguation.
//
// The analysis is symmetric: the same Pipeline processes both social
// resources and expertise needs, producing the term and entity vectors
// that the vector-space matching of §2.4 consumes.
package analysis

import (
	"runtime"
	"sync"
	"sync/atomic"

	"expertfind/internal/annotator"
	"expertfind/internal/kb"
	"expertfind/internal/langid"
	"expertfind/internal/textproc"
	"expertfind/internal/webcontent"
)

// Options configures a Pipeline.
type Options struct {
	// Processor performs sanitization/tokenization/stop-word
	// removal/stemming. Nil selects textproc.Default.
	Processor *textproc.Processor
	// Annotator performs entity recognition and disambiguation. Nil
	// selects a default annotator over kb.Builtin().
	Annotator *annotator.Annotator
	// Web resolves URLs found in resources to extracted page content.
	// Nil disables URL enrichment (an ablation of §2.3's enrichment
	// step).
	Web *webcontent.Web
	// KeepAllLanguages disables the English-only filter. The paper
	// keeps only English resources (230k of 330k collected).
	KeepAllLanguages bool
}

// Pipeline analyzes texts into term/entity vectors.
type Pipeline struct {
	proc    *textproc.Processor
	ann     *annotator.Annotator
	web     *webcontent.Web
	keepAll bool
}

// New returns a Pipeline with the given options.
func New(opts Options) *Pipeline {
	p := &Pipeline{
		proc:    opts.Processor,
		ann:     opts.Annotator,
		web:     opts.Web,
		keepAll: opts.KeepAllLanguages,
	}
	if p.proc == nil {
		p.proc = textproc.Default
	}
	if p.ann == nil {
		p.ann = annotator.New(kb.Builtin(), annotator.Options{})
	}
	return p
}

// EntityStats aggregates the mentions of one entity within one text:
// ef(e,r) and the disambiguation confidence dScore(e,r) (the maximum
// over the mentions, feeding Eq. 2's we weight).
type EntityStats struct {
	Freq   int
	DScore float64
}

// Analyzed is the result of running the pipeline on one text.
type Analyzed struct {
	Lang     langid.Lang
	Terms    map[string]int              // stemmed term frequencies (tf)
	Entities map[kb.EntityID]EntityStats // per-entity ef and dScore
	// Length is the total number of terms (Σ tf), kept for statistics.
	Length int
}

// Analyze runs the full flow on a resource text with its URLs. It
// returns ok = false when the resource is discarded by the language
// filter (non-English text with the filter active).
//
// URL enrichment happens before language identification, as in the
// paper: the extracted page content both contributes expertise clues
// and sharpens the language signal of very short resources.
func (p *Pipeline) Analyze(text string, urls []string) (Analyzed, bool) {
	full := text
	if p.web != nil {
		for _, u := range urls {
			if extracted, ok := p.web.Extract(u); ok {
				full += "\n" + extracted
			}
		}
	}

	lang := langid.Identify(full)
	if !p.keepAll && lang != langid.English {
		return Analyzed{Lang: lang}, false
	}
	return p.vectors(full, lang), true
}

// AnalyzeNeed analyzes an expertise need (a natural-language query).
// Needs have no URLs and bypass the language filter: the caller
// formulated the query deliberately.
func (p *Pipeline) AnalyzeNeed(need string) Analyzed {
	return p.vectors(need, langid.Identify(need))
}

// vectors runs text processing and entity annotation over one
// tokenization of text.
func (p *Pipeline) vectors(text string, lang langid.Lang) Analyzed {
	t := textproc.NewText(text)
	terms, length := p.proc.TermFreqOf(&t)

	entities := make(map[kb.EntityID]EntityStats)
	for _, ann := range p.ann.AnnotateText(&t) {
		st := entities[ann.Entity.ID]
		st.Freq++
		if ann.DScore > st.DScore {
			st.DScore = ann.DScore
		}
		entities[ann.Entity.ID] = st
	}

	return Analyzed{Lang: lang, Terms: terms, Entities: entities, Length: length}
}

// Result is the analysis of one document of a Batch. OK is false when
// the document was skipped or discarded by the language filter.
type Result struct {
	A  Analyzed
	OK bool
}

// Batch analyzes n documents over GOMAXPROCS workers (the pipeline is
// stateless) and returns their results in document order, whatever
// order the workers finished in. get supplies document i's text and
// URLs, or ok = false for a document that must stay out (deleted, or
// another shard's); it is called from the workers.
func (p *Pipeline) Batch(n int, get func(i int) (text string, urls []string, ok bool)) []Result {
	results := make([]Result, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if text, urls, ok := get(i); ok {
					results[i].A, results[i].OK = p.Analyze(text, urls)
				}
			}
		}()
	}
	wg.Wait()
	return results
}
