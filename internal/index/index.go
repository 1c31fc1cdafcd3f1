// Package index implements the in-memory inverted index and the
// vector-space resource-matching model of the paper (§2.4, Eq. 1–2).
//
// Resources are represented both as bags of stemmed terms and as sets
// of disambiguated entities, in the same space as expertise needs.
// The relevance of a resource r for a need q is the weighted linear
// combination
//
//	score(q,r) = α · Σ_t tf(t,r)·irf(t)²
//	           + (1−α) · Σ_e ef(e,r)·eirf(e)²·we(e,r)
//
// where t ranges over the need's terms, e over the need's entities,
// tf/ef are term/entity frequencies in r, irf/eirf are inverse
// resource frequencies over the whole collection, and
// we(e,r) = 1 + dScore(e,r) injects the disambiguation confidence
// (Eq. 2).
package index

import (
	"io"
	"math"
	"sort"

	"expertfind/internal/analysis"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Query-path metrics: how many postings each Score call walks is the
// raw unit of matching work, what the later sharding/caching PRs must
// move. One atomic add per query keeps the hot loops untouched.
var (
	mQueries = telemetry.Default().Counter(
		"expertfind_index_queries_total",
		"Score calls evaluated against the index.")
	mPostings = telemetry.Default().Counter(
		"expertfind_index_postings_scored_total",
		"Term and entity postings accumulated across Score calls.")
	mMatches = telemetry.Default().Counter(
		"expertfind_index_matches_total",
		"Positively scored resources returned across Score calls.")
)

// DocID identifies an indexed resource.
type DocID = socialgraph.ResourceID

// Searcher is the query-side index API shared by the monolithic Index,
// the sharded variant and the segment store: everything the
// expert-finding pipeline needs to weight, match and persist a
// collection. All three score through one path (see search.go); Score
// and ScoreTopK are ScoreStatsTopK with defaults filled in.
type Searcher interface {
	// Score evaluates Eq. (1) for every resource matching the analyzed
	// need and returns the matches with positive score, ordered by
	// descending score (ties broken by ascending DocID). Scores are
	// accumulated in sorted term/entity order, so repeated calls return
	// byte-identical results.
	//
	// alpha balances textual term matching (alpha = 1) against entity
	// matching (alpha = 0); the paper settles on alpha = 0.6 (§3.3.2).
	Score(need analysis.Analyzed, alpha float64) []ScoredDoc
	// ScoreTopK is Score bounded to the k best-ranked documents:
	// exactly Score's ranking truncated to its first k entries, byte
	// for byte, but computed with MaxScore-style pruning that skips
	// documents provably unable to enter the top k. k <= 0 disables
	// the bound. accept, when non-nil, restricts scoring to accepted
	// documents (the finder passes reachability membership), so the
	// reference ranking is Score filtered by accept, then truncated.
	ScoreTopK(need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc
	// ScoreStatsTopK is ScoreTopK with the query planned against an
	// explicit collection view instead of the index's own statistics
	// (a nil st). The scatter serving layer uses it to score one shard
	// slice under global (cross-process) weights: with st equal to the
	// stats of the full collection, per-document scores are
	// bit-identical to scoring the whole collection in one process.
	ScoreStatsTopK(need analysis.Analyzed, alpha float64, st CollectionStats, k int, accept func(DocID) bool) []ScoredDoc
	NumDocs() int
	Has(id DocID) bool
	DocFreq(term string) int
	EntityFreq(e kb.EntityID) int
	IRF(term string) float64
	EIRF(e kb.EntityID) float64
	io.WriterTo
}

var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*Sharded)(nil)
	_ Searcher = (*Store)(nil)
)

type termPosting struct {
	doc DocID
	tf  int32
}

type entityPosting struct {
	doc    DocID
	ef     int32
	dScore float64
}

// Index is an append-only inverted index over analyzed resources.
// Inverse resource frequencies reflect the collection at query time,
// so documents can be added at any moment. Index is not safe for
// concurrent mutation; concurrent Score calls are safe once building
// is done (posting lists seal themselves during Add/Merge, never
// during scoring).
//
// Posting lists are blocked: delta-encoded fixed-size blocks with
// per-block skip entries (max doc id, max weightless score) plus a
// small unsorted tail of recent additions — see blockpostings.go. The
// skip entries feed the ScoreTopK pruner.
type Index struct {
	terms    map[string]*termList
	entities map[kb.EntityID]*entityList
	docs     map[DocID]struct{}
}

// New returns an empty index.
func New() *Index {
	return &Index{
		terms:    make(map[string]*termList),
		entities: make(map[kb.EntityID]*entityList),
		docs:     make(map[DocID]struct{}),
	}
}

func (ix *Index) termList(t string) *termList {
	l := ix.terms[t]
	if l == nil {
		l = &termList{}
		ix.terms[t] = l
	}
	return l
}

func (ix *Index) entityList(e kb.EntityID) *entityList {
	l := ix.entities[e]
	if l == nil {
		l = &entityList{}
		ix.entities[e] = l
	}
	return l
}

// Add indexes an analyzed resource under id. Adding the same id twice
// is a programming error and panics.
func (ix *Index) Add(id DocID, a analysis.Analyzed) {
	if _, dup := ix.docs[id]; dup {
		panic("index: duplicate document")
	}
	ix.docs[id] = struct{}{}
	for t, tf := range a.Terms {
		ix.termList(t).add(termPosting{doc: id, tf: int32(tf)})
	}
	for e, st := range a.Entities {
		ix.entityList(e).add(entityPosting{doc: id, ef: int32(st.Freq), dScore: st.DScore})
	}
}

// Remove deletes a previously indexed resource. a must be the
// analyzed form the document was added under (analysis is
// deterministic, so callers either retain it or re-analyze the
// installed text). Every touched posting list is rebuilt into
// canonical sealed blocks with its maxima recomputed, and lists left
// empty are dropped from the maps entirely — the index is
// indistinguishable from one that never saw the document, so a
// delta-applied index serializes byte-identically to a cold rebuild.
// Removing an unknown document, or one whose postings are missing
// from a list, is a programming error and panics.
func (ix *Index) Remove(id DocID, a analysis.Analyzed) {
	if _, ok := ix.docs[id]; !ok {
		panic("index: removing unknown document")
	}
	delete(ix.docs, id)
	for t := range a.Terms {
		l := ix.terms[t]
		if l == nil {
			panic("index: removing posting from absent term list")
		}
		kept, found := dropTermPosting(l.decodeAll(), id)
		if !found {
			panic("index: term posting missing on remove")
		}
		if len(kept) == 0 {
			delete(ix.terms, t)
			continue
		}
		ix.terms[t] = newTermList(kept)
	}
	for e := range a.Entities {
		l := ix.entities[e]
		if l == nil {
			panic("index: removing posting from absent entity list")
		}
		kept, found := dropEntityPosting(l.decodeAll(), id)
		if !found {
			panic("index: entity posting missing on remove")
		}
		if len(kept) == 0 {
			delete(ix.entities, e)
			continue
		}
		ix.entities[e] = newEntityList(kept)
	}
}

// dropTermPosting filters doc id out of ps in place, reporting whether
// it was present.
func dropTermPosting(ps []termPosting, id DocID) ([]termPosting, bool) {
	kept, found := ps[:0], false
	for _, p := range ps {
		if p.doc == id {
			found = true
			continue
		}
		kept = append(kept, p)
	}
	return kept, found
}

func dropEntityPosting(ps []entityPosting, id DocID) ([]entityPosting, bool) {
	kept, found := ps[:0], false
	for _, p := range ps {
		if p.doc == id {
			found = true
			continue
		}
		kept = append(kept, p)
	}
	return kept, found
}

// Update replaces the indexed form of a document: old must be the
// analyzed form it was added under, new becomes its indexed form.
func (ix *Index) Update(id DocID, old, new analysis.Analyzed) {
	ix.Remove(id, old)
	ix.Add(id, new)
}

// Merge folds another index into this one. The document sets must be
// disjoint (each resource is analyzed exactly once); overlapping
// documents cause a panic like a duplicate Add would. Merging
// supports sharded corpus builds: analyze partitions independently,
// then merge the shards.
func (ix *Index) Merge(other *Index) {
	for d := range other.docs {
		if _, dup := ix.docs[d]; dup {
			panic("index: merging overlapping document sets")
		}
		ix.docs[d] = struct{}{}
	}
	for t, ol := range other.terms {
		l := ix.termList(t)
		ol.forEach(func(p termPosting) { l.add(p) })
	}
	for e, ol := range other.entities {
		l := ix.entityList(e)
		ol.forEach(func(p entityPosting) { l.add(p) })
	}
}

// NumDocs returns the number of indexed resources.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// Has reports whether id is indexed.
func (ix *Index) Has(id DocID) bool {
	_, ok := ix.docs[id]
	return ok
}

// DocFreq returns the number of resources containing the term.
func (ix *Index) DocFreq(term string) int {
	if l := ix.terms[term]; l != nil {
		return l.count
	}
	return 0
}

// EntityFreq returns the number of resources mentioning the entity.
func (ix *Index) EntityFreq(e kb.EntityID) int {
	if l := ix.entities[e]; l != nil {
		return l.count
	}
	return 0
}

// irf is the inverse resource frequency formula, log(1 + N/df),
// shared by every stats provider so sequential and sharded scoring
// compute bit-identical weights.
func irf(numDocs, df int) float64 {
	return math.Log(1 + float64(numDocs)/float64(df))
}

// IRF returns the inverse resource frequency of a term over the
// current collection: log(1 + N/df). Unseen terms contribute nothing
// to matching, so their IRF is reported as 0.
func (ix *Index) IRF(term string) float64 {
	df := ix.DocFreq(term)
	if df == 0 {
		return 0
	}
	return irf(len(ix.docs), df)
}

// EIRF returns the inverse resource frequency of an entity.
func (ix *Index) EIRF(e kb.EntityID) float64 {
	df := ix.EntityFreq(e)
	if df == 0 {
		return 0
	}
	return irf(len(ix.docs), df)
}

// ScoredDoc is a resource with its relevance for a need.
type ScoredDoc struct {
	Doc   DocID
	Score float64
}

// CollectionStats is the collection-level view needed to weight a
// query: document count and per-term/per-entity resource frequencies.
// For a sharded index these are global (summed across shards), so the
// same need yields the same query plan regardless of shard count. The
// scatter-gather serving layer implements it with stats summed across
// shard processes, so a shard holding one slice of the corpus can
// still score with collection-global weights.
type CollectionStats interface {
	NumDocs() int
	DocFreq(term string) int
	EntityFreq(e kb.EntityID) int
}

// GlobalStats is a materialized CollectionStats: document count and
// per-dimension resource frequencies summed over a whole collection.
// The coordinator of the scatter-gather serving layer gathers one per
// query from its shard processes; scoring any shard slice under it
// reproduces the exact plan weights of a single-process index.
type GlobalStats struct {
	Docs     int
	TermDF   map[string]int
	EntityDF map[kb.EntityID]int
}

// NumDocs implements CollectionStats.
func (g GlobalStats) NumDocs() int { return g.Docs }

// DocFreq implements CollectionStats.
func (g GlobalStats) DocFreq(term string) int { return g.TermDF[term] }

// EntityFreq implements CollectionStats.
func (g GlobalStats) EntityFreq(e kb.EntityID) int { return g.EntityDF[e] }

// plannedTerm / plannedEntity carry one query dimension with its
// collection weight fully resolved (α·irf² resp. (1−α)·eirf²).
type plannedTerm struct {
	term string
	w    float64
}

type plannedEntity struct {
	e kb.EntityID
	w float64
}

// queryPlan is the deterministic, weight-resolved form of a need:
// terms in lexicographic order, entities in ascending ID order, with
// zero-weight dimensions dropped. Planning once and walking postings
// in plan order makes every Score evaluation accumulate each
// document's float64 score in the same addition order — byte-identical
// output across runs and across shard counts (each document lives in
// exactly one shard, so its addition chain never changes).
type queryPlan struct {
	terms    []plannedTerm
	entities []plannedEntity
}

func planQuery(need analysis.Analyzed, alpha float64, st CollectionStats) queryPlan {
	var plan queryPlan
	n := st.NumDocs()

	if alpha > 0 {
		terms := make([]string, 0, len(need.Terms))
		for t, qtf := range need.Terms {
			if qtf > 0 {
				terms = append(terms, t)
			}
		}
		sort.Strings(terms)
		for _, t := range terms {
			df := st.DocFreq(t)
			if df == 0 {
				continue
			}
			v := irf(n, df)
			plan.terms = append(plan.terms, plannedTerm{term: t, w: alpha * v * v})
		}
	}

	if alpha < 1 {
		ents := make([]kb.EntityID, 0, len(need.Entities))
		for e := range need.Entities {
			ents = append(ents, e)
		}
		sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] })
		for _, e := range ents {
			df := st.EntityFreq(e)
			if df == 0 {
				continue
			}
			v := irf(n, df)
			plan.entities = append(plan.entities, plannedEntity{e: e, w: (1 - alpha) * v * v})
		}
	}
	return plan
}

// Score implements Searcher.
func (ix *Index) Score(need analysis.Analyzed, alpha float64) []ScoredDoc {
	return ix.ScoreStatsTopK(need, alpha, nil, 0, nil)
}

// ScoreTopK implements Searcher.
func (ix *Index) ScoreTopK(need analysis.Analyzed, alpha float64, k int, accept func(DocID) bool) []ScoredDoc {
	return ix.ScoreStatsTopK(need, alpha, nil, k, accept)
}

// ScoreStatsTopK implements Searcher: the whole index is the one part.
func (ix *Index) ScoreStatsTopK(need analysis.Analyzed, alpha float64, st CollectionStats, k int, accept func(DocID) bool) []ScoredDoc {
	if st == nil {
		st = ix
	}
	return searchParts(planQuery(need, alpha, st), []part{{src: ix, accept: accept}}, k, 1)
}
