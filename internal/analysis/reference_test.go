package analysis

import (
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"expertfind/internal/kb"
	"expertfind/internal/langid"
	"expertfind/internal/textproc"
	"expertfind/internal/textproc/textproctest"
)

// reference analyzes texts the straightforward way, independently of
// the pipeline's fast paths: the term counter and the annotator each
// read the raw text on their own through textproctest's Sanitize,
// Tokenize and Stem, and the annotator keeps one stem set per domain
// and tallies its votes in maps keyed by domain. Every Analyzed the
// pipeline produces must equal its output exactly.
type reference struct {
	kb    *kb.KB
	vocab map[kb.Domain]map[string]struct{} // domain -> stems of its vocabulary
}

func newReference(k *kb.KB) *reference {
	r := &reference{kb: k, vocab: make(map[kb.Domain]map[string]struct{})}
	for _, d := range kb.Domains {
		stems := make(map[string]struct{})
		for _, w := range k.Vocab(d) {
			stems[textproctest.Stem(w)] = struct{}{}
		}
		r.vocab[d] = stems
	}
	return r
}

// inVocab reports whether a stem matches the stemmed vocabulary of d.
func (r *reference) inVocab(d kb.Domain, stem string) bool {
	_, ok := r.vocab[d][stem]
	return ok
}

// analyze is Analyze's reference: URL enrichment and the language
// filter, then the reference vectors.
func (r *reference) analyze(p *Pipeline, text string, urls []string) (Analyzed, bool) {
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
	return r.threePass(full), true
}

// threePass is the pipeline's vectors as it was before a text was
// tokenized once: the term counter and the annotator each sanitize and
// tokenize the raw text on their own, and the term filter is spelled
// out step by step.
func (r *reference) threePass(text string) Analyzed {
	a := Analyzed{
		Terms:    make(map[string]int),
		Entities: make(map[kb.EntityID]EntityStats),
	}
	for _, tok := range textproctest.Tokenize(textproctest.Sanitize(text)) {
		if n := utf8.RuneCountInString(tok); n < textproc.MinTokenLen || n > textproc.MaxTokenLen {
			continue
		}
		if textproc.IsStopword(tok) {
			continue
		}
		a.Terms[textproctest.Stem(tok)]++
	}
	for _, an := range r.annotate(text) {
		st := a.Entities[an.id]
		st.Freq++
		if an.dScore > st.DScore {
			st.DScore = an.dScore
		}
		a.Entities[an.id] = st
	}
	return a
}

// The annotator's pruning thresholds.
const (
	refMinLinkProb = 0.15
	refMinDScore   = 0.10
)

type refSpot struct {
	start, end int
	cands      []kb.Candidate
}

type refAnnotation struct {
	id     kb.EntityID
	dScore float64
}

// annotate is the annotator's reference: longest-first spotting with
// each candidate anchor joined into a string, a context profile probed
// domain by domain, and disambiguation votes in a map.
func (r *reference) annotate(text string) []refAnnotation {
	tokens := textproctest.Tokenize(textproctest.Sanitize(text))
	var spots []refSpot
	for i := 0; i < len(tokens); {
		n := min(r.kb.AnchorSpan(tokens[i]), len(tokens)-i)
		for ; n >= 1; n-- {
			cands, lp := r.kb.Candidates(strings.Join(tokens[i:i+n], " "))
			if cands != nil && lp >= refMinLinkProb {
				spots = append(spots, refSpot{start: i, end: i + n, cands: cands})
				break
			}
		}
		i += max(n, 1)
	}
	if len(spots) == 0 {
		return nil
	}

	inSpot := make([]bool, len(tokens))
	for _, sp := range spots {
		for i := sp.start; i < sp.end; i++ {
			inSpot[i] = true
		}
	}
	ctx := make(map[kb.Domain]float64)
	for i, tok := range tokens {
		if inSpot[i] {
			continue
		}
		stem := textproctest.Stem(tok)
		for _, d := range kb.Domains {
			if r.inVocab(d, stem) {
				ctx[d]++
			}
		}
	}

	boost := func(v float64) float64 {
		if v <= 0 {
			return 0
		}
		return v / (v + 2)
	}
	var out []refAnnotation
	for self, sp := range spots {
		votes := make(map[kb.Domain]float64)
		for d, n := range ctx {
			votes[d] += n
		}
		for j, other := range spots {
			if j != self {
				best := other.cands[0]
				votes[r.kb.Entity(best.Entity).Domain] += best.Commonness
			}
		}
		const priorFloor = 0.15
		var total float64
		scores := make([]float64, len(sp.cands))
		for i, c := range sp.cands {
			scores[i] = c.Commonness * (priorFloor + boost(votes[r.kb.Entity(c.Entity).Domain]))
			total += scores[i]
		}
		bestIdx := 0
		for i := 1; i < len(scores); i++ {
			if scores[i] > scores[bestIdx] {
				bestIdx = i
			}
		}
		winner := r.kb.Entity(sp.cands[bestIdx].Entity)
		dScore := scores[bestIdx] / total * (0.5 + 0.5*boost(votes[winner.Domain]))
		if dScore < refMinDScore {
			continue
		}
		out = append(out, refAnnotation{id: winner.ID, dScore: min(dScore, 1)})
	}
	return out
}

// TestAnalyzeMatchesReferenceOnLedgerCorpus: over what the performance
// ledger analyzes — 3 000 resources and the 30 evaluation queries —
// Analyze and AnalyzeNeed equal the reference construction exactly.
func TestAnalyzeMatchesReferenceOnLedgerCorpus(t *testing.T) {
	p, docs, queries := ledgerCorpus()
	ref := newReference(kb.Builtin())
	kept := 0
	for i, d := range docs {
		got, ok := p.Analyze(d.Text, d.URLs)
		want, wok := ref.analyze(p, d.Text, d.URLs)
		if ok != wok || !reflect.DeepEqual(got, want) {
			t.Fatalf("document %d: Analyze = %+v, %v; reference %+v, %v", i, got, ok, want, wok)
		}
		if ok {
			kept++
		}
	}
	if kept == 0 {
		t.Fatal("the language filter discarded every document")
	}
	for _, q := range queries {
		if got, want := p.AnalyzeNeed(q.Text), ref.threePass(q.Text); !reflect.DeepEqual(got, want) {
			t.Fatalf("need %q: AnalyzeNeed = %+v, reference %+v", q.Text, got, want)
		}
	}
}
