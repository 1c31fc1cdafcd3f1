// Package baseline implements reference expert-finding methods to
// compare against the paper's social vector-space approach:
//
//   - Random selection, the baseline the paper reports in every table
//     (§3.1: averaging 10 runs of 20 randomly selected users).
//   - Balog's candidate model (Model 1) and document model (Model 2)
//     from "People Search in the Enterprise" [3], the classic
//     language-modeling expert-retrieval methods the paper's §4 cites
//     as the foundation of resource-based expert finding.
//
// Both language models operate on the same analyzed corpus and
// candidate-resource associations as the main system, so comparisons
// isolate the ranking method.
package baseline

import (
	"math"
	"math/rand"
	"slices"
	"sort"

	"expertfind/internal/analysis"
	"expertfind/internal/socialgraph"
)

// Scored is a ranked candidate with its score (a log-probability for
// the language models).
type Scored struct {
	User  socialgraph.UserID
	Score float64
}

// Association weighs how strongly a resource is associated with a
// candidate, e.g. by graph distance.
type Association struct {
	Candidate socialgraph.UserID
	Weight    float64
}

// DistanceWeights converts the social-graph candidate-distance map of
// the main system into association weights using the paper's wr
// weighting (1.0, 0.75, 0.5 for distances 0, 1, 2).
func DistanceWeights(rcm map[socialgraph.ResourceID][]socialgraph.CandidateDistance) map[socialgraph.ResourceID][]Association {
	wr := [3]float64{1.0, 0.75, 0.5}
	out := make(map[socialgraph.ResourceID][]Association, len(rcm))
	for r, cds := range rcm {
		assoc := make([]Association, len(cds))
		for i, cd := range cds {
			assoc[i] = Association{Candidate: cd.Candidate, Weight: wr[cd.Distance]}
		}
		out[r] = assoc
	}
	return out
}

// LM is the shared language-modeling state: per-document term
// frequencies and the background collection model.
type LM struct {
	docs map[socialgraph.ResourceID]analysis.Analyzed
	// docIDs is the keys of docs in ascending order: the models sum
	// floats over documents, and a fixed order makes their scores (and
	// the committed experiments_output.txt) reproducible bit for bit.
	docIDs   []socialgraph.ResourceID
	docLen   map[socialgraph.ResourceID]int
	collFreq map[string]int
	collLen  int
	assoc    map[socialgraph.ResourceID][]Association
	// Lambda is the Jelinek-Mercer smoothing weight of the collection
	// model; Balog's experiments use 0.5.
	Lambda float64
}

// NewLM builds the language-modeling state over analyzed documents
// and candidate associations.
func NewLM(docs map[socialgraph.ResourceID]analysis.Analyzed, assoc map[socialgraph.ResourceID][]Association) *LM {
	lm := &LM{
		docs:     docs,
		docLen:   make(map[socialgraph.ResourceID]int, len(docs)),
		collFreq: make(map[string]int),
		assoc:    assoc,
		Lambda:   0.5,
	}
	for id, d := range docs {
		n := 0
		for t, tf := range d.Terms {
			lm.collFreq[t] += tf
			n += tf
		}
		lm.docLen[id] = n
		lm.collLen += n
		lm.docIDs = append(lm.docIDs, id)
	}
	slices.Sort(lm.docIDs)
	return lm
}

// queryTerms returns the need's terms in ascending order, fixing the
// order in which the models accumulate per-term factors.
func queryTerms(need analysis.Analyzed) []string {
	terms := make([]string, 0, len(need.Terms))
	for t := range need.Terms {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	return terms
}

// pColl is the background probability of a term.
func (lm *LM) pColl(t string) float64 {
	if lm.collLen == 0 {
		return 0
	}
	return float64(lm.collFreq[t]) / float64(lm.collLen)
}

// pDoc is the maximum-likelihood probability of a term in a document.
func (lm *LM) pDoc(t string, d socialgraph.ResourceID) float64 {
	n := lm.docLen[d]
	if n == 0 {
		return 0
	}
	return float64(lm.docs[d].Terms[t]) / float64(n)
}

// Model1 ranks candidates with Balog's candidate model: a smoothed
// candidate language model is estimated from all associated
// documents, and candidates are scored by the query log-likelihood
//
//	log p(q|ca) = Σ_t qtf(t) · log((1−λ)·p(t|θca) + λ·p(t|C)).
type Model1 struct {
	lm *LM
	// p(t|θca) support: per-candidate term distribution.
	candTerms map[socialgraph.UserID]map[string]float64
	candNorm  map[socialgraph.UserID]float64
}

// NewModel1 estimates the per-candidate models.
func NewModel1(lm *LM) *Model1 {
	m := &Model1{
		lm:        lm,
		candTerms: make(map[socialgraph.UserID]map[string]float64),
		candNorm:  make(map[socialgraph.UserID]float64),
	}
	for _, d := range lm.docIDs {
		doc := lm.docs[d]
		for _, a := range lm.assoc[d] {
			tm := m.candTerms[a.Candidate]
			if tm == nil {
				tm = make(map[string]float64)
				m.candTerms[a.Candidate] = tm
			}
			dl := lm.docLen[d]
			if dl == 0 {
				continue
			}
			for t, tf := range doc.Terms {
				tm[t] += a.Weight * float64(tf) / float64(dl)
			}
			m.candNorm[a.Candidate] += a.Weight
		}
	}
	return m
}

// Rank scores the candidates for a need, best first. Candidates with
// no associated documents are omitted.
func (m *Model1) Rank(need analysis.Analyzed, candidates []socialgraph.UserID) []Scored {
	terms := queryTerms(need)
	var out []Scored
	for _, ca := range candidates {
		tm := m.candTerms[ca]
		norm := m.candNorm[ca]
		if tm == nil || norm == 0 {
			continue
		}
		ll := 0.0
		matched := false
		for _, t := range terms {
			qtf := need.Terms[t]
			pca := tm[t] / norm
			pc := m.lm.pColl(t)
			p := (1-m.lm.Lambda)*pca + m.lm.Lambda*pc
			if p <= 0 {
				// Term unseen in the whole collection: skip, as a
				// zero would annihilate every candidate identically.
				continue
			}
			if pca > 0 {
				matched = true
			}
			ll += float64(qtf) * math.Log(p)
		}
		if matched {
			out = append(out, Scored{User: ca, Score: ll})
		}
	}
	sortScored(out)
	return out
}

// Model2 ranks candidates with Balog's document model:
//
//	p(q|ca) = Σ_d p(q|d) · p(d|ca),
//
// with document query likelihoods smoothed against the collection and
// p(d|ca) proportional to the association weight.
type Model2 struct {
	lm *LM
}

// NewModel2 wraps the language-modeling state.
func NewModel2(lm *LM) *Model2 { return &Model2{lm: lm} }

// Rank scores the candidates for a need, best first.
func (m *Model2) Rank(need analysis.Analyzed, candidates []socialgraph.UserID) []Scored {
	inPool := make(map[socialgraph.UserID]bool, len(candidates))
	for _, ca := range candidates {
		inPool[ca] = true
	}
	scores := make(map[socialgraph.UserID]float64)
	norms := make(map[socialgraph.UserID]float64)
	terms := queryTerms(need)
	for _, d := range m.lm.docIDs {
		// p(q|d) in probability space; documents are short, so the
		// product stays representable.
		pq := 1.0
		matched := false
		for _, t := range terms {
			qtf := need.Terms[t]
			pd := m.lm.pDoc(t, d)
			pc := m.lm.pColl(t)
			p := (1-m.lm.Lambda)*pd + m.lm.Lambda*pc
			if p <= 0 {
				continue
			}
			if pd > 0 {
				matched = true
			}
			pq *= math.Pow(p, float64(qtf))
		}
		if !matched {
			continue
		}
		for _, a := range m.lm.assoc[d] {
			if !inPool[a.Candidate] {
				continue
			}
			scores[a.Candidate] += pq * a.Weight
			norms[a.Candidate] += a.Weight
		}
	}
	var out []Scored
	for ca, s := range scores {
		if norms[ca] > 0 && s > 0 {
			out = append(out, Scored{User: ca, Score: s})
		}
	}
	sortScored(out)
	return out
}

func sortScored(xs []Scored) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Score != xs[j].Score {
			return xs[i].Score > xs[j].Score
		}
		return xs[i].User < xs[j].User
	})
}

// RandomSelect returns k candidates drawn without replacement in
// random order: one run of the paper's random baseline.
func RandomSelect(r *rand.Rand, candidates []socialgraph.UserID, k int) []socialgraph.UserID {
	perm := r.Perm(len(candidates))
	if k > len(perm) {
		k = len(perm)
	}
	out := make([]socialgraph.UserID, k)
	for i := range out {
		out[i] = candidates[perm[i]]
	}
	return out
}
