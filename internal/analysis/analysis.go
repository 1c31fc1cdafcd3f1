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
	// Web resolves URLs found in resources to extracted page content.
	// Nil disables URL enrichment (an ablation of §2.3's enrichment
	// step).
	Web *webcontent.Web
}

// Pipeline analyzes texts into term/entity vectors.
type Pipeline struct {
	ann *annotator.Annotator
	web *webcontent.Web
}

// New returns a Pipeline with the given options.
func New(opts Options) *Pipeline {
	return &Pipeline{
		ann: annotator.New(kb.Builtin()),
		web: opts.Web,
	}
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
	Terms    map[string]int              // stemmed term frequencies (tf)
	Entities map[kb.EntityID]EntityStats // per-entity ef and dScore
}

// Analyze runs the full flow on a resource text with its URLs. It
// returns ok = false when the resource is discarded by the language
// filter: the paper keeps only English resources (230k of 330k
// collected).
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

	if langid.Identify(full) != langid.English {
		return Analyzed{}, false
	}
	return p.vectors(full), true
}

// AnalyzeNeed analyzes an expertise need (a natural-language query).
// Needs have no URLs and bypass the language filter: the caller
// formulated the query deliberately, so their language is never
// identified.
func (p *Pipeline) AnalyzeNeed(need string) Analyzed {
	return p.vectors(need)
}

// vectors runs text processing and entity annotation over one
// tokenization of text.
func (p *Pipeline) vectors(text string) Analyzed {
	t := textproc.NewText(text)
	terms := textproc.Default.TermFreqOf(&t)

	entities := make(map[kb.EntityID]EntityStats)
	for _, ann := range p.ann.AnnotateText(&t) {
		st := entities[ann.Entity.ID]
		st.Freq++
		if ann.DScore > st.DScore {
			st.DScore = ann.DScore
		}
		entities[ann.Entity.ID] = st
	}

	return Analyzed{Terms: terms, Entities: entities}
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
