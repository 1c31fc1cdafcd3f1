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
	io.WriterTo
}

var (
	_ Searcher = (*Index)(nil)
	_ Searcher = (*Sharded)(nil)
	_ Searcher = (*Store)(nil)
)

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
	lists map[listKey]*postingList
	docs  map[DocID]struct{}
}

// New returns an empty index.
func New() *Index {
	return &Index{
		lists: make(map[listKey]*postingList),
		docs:  make(map[DocID]struct{}),
	}
}

// list implements listSource.
func (ix *Index) list(k listKey) *postingList { return ix.lists[k] }

// addPosting appends p to k's list, creating the list on first use.
func (ix *Index) addPosting(k listKey, p posting) {
	l := ix.lists[k]
	if l == nil {
		l = &postingList{kind: k.kind}
		ix.lists[k] = l
	}
	l.add(p)
}

// eachPosting calls fn with the list key and posting of every
// dimension of a document analyzed as a — the one place an Analyzed's
// two maps become postings.
func eachPosting(id DocID, a analysis.Analyzed, fn func(listKey, posting)) {
	for t, tf := range a.Terms {
		fn(termKey(t), termPosting(id, int32(tf)))
	}
	for e, st := range a.Entities {
		fn(entityKey(e), entityPosting(id, int32(st.Freq), st.DScore))
	}
}

// Add indexes an analyzed resource under id. Adding the same id twice
// is a programming error and panics.
func (ix *Index) Add(id DocID, a analysis.Analyzed) {
	if _, dup := ix.docs[id]; dup {
		panic("index: duplicate document")
	}
	ix.docs[id] = struct{}{}
	eachPosting(id, a, ix.addPosting)
}

// Remove deletes a previously indexed resource. a must be the
// analyzed form the document was added under (analysis is
// deterministic, so callers either retain it or re-analyze the
// installed text). Every touched posting list is rebuilt into
// canonical sealed blocks with its maxima recomputed, and lists left
// empty are dropped from the map entirely — the index is
// indistinguishable from one that never saw the document, so a
// delta-applied index serializes byte-identically to a cold rebuild.
// Removing an unknown document, or one whose postings are missing
// from a list, is a programming error and panics.
func (ix *Index) Remove(id DocID, a analysis.Analyzed) {
	if _, ok := ix.docs[id]; !ok {
		panic("index: removing unknown document")
	}
	delete(ix.docs, id)
	eachPosting(id, a, func(k listKey, _ posting) {
		l := ix.lists[k]
		if l == nil {
			panic("index: removing posting from absent list")
		}
		kept := dropDocs(l.sorted(), func(d DocID) bool { return d == id })
		switch len(kept) {
		case l.count:
			panic("index: posting missing on remove")
		case 0:
			delete(ix.lists, k)
		default:
			ix.lists[k] = newPostingList(k.kind, kept)
		}
	})
}

// dropDocs filters, in place, the postings whose document drop
// reports.
func dropDocs(ps []posting, drop func(DocID) bool) []posting {
	kept := ps[:0]
	for _, p := range ps {
		if !drop(p.doc) {
			kept = append(kept, p)
		}
	}
	return kept
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
	for k, ol := range other.lists {
		for _, p := range ol.decodeAll() {
			ix.addPosting(k, p)
		}
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
func (ix *Index) DocFreq(term string) int { return ix.freq(termKey(term)) }

// EntityFreq returns the number of resources mentioning the entity.
func (ix *Index) EntityFreq(e kb.EntityID) int { return ix.freq(entityKey(e)) }

func (ix *Index) freq(k listKey) int {
	if l := ix.lists[k]; l != nil {
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

// plannedList carries one query dimension with its collection weight
// fully resolved (α·irf² for a term, (1−α)·eirf² for an entity).
type plannedList struct {
	key listKey
	w   float64
}

// queryPlan is the deterministic, weight-resolved form of a need:
// terms in lexicographic order, then entities in ascending ID order,
// with zero-weight dimensions dropped. Planning once and walking
// postings in plan order makes every Score evaluation accumulate each
// document's float64 score in the same addition order — byte-identical
// output across runs and across shard counts (each document lives in
// exactly one shard, so its addition chain never changes).
type queryPlan []plannedList

func planQuery(need analysis.Analyzed, alpha float64, st CollectionStats) queryPlan {
	keys := make([]listKey, 0, len(need.Terms)+len(need.Entities))
	if alpha > 0 {
		for t, qtf := range need.Terms {
			if qtf > 0 {
				keys = append(keys, termKey(t))
			}
		}
	}
	if alpha < 1 {
		for e := range need.Entities {
			keys = append(keys, entityKey(e))
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })

	n := st.NumDocs()
	plan := make(queryPlan, 0, len(keys))
	for _, k := range keys {
		var df int
		share := alpha
		if k.kind == termKind {
			df = st.DocFreq(k.term)
		} else {
			df, share = st.EntityFreq(k.ent), 1-alpha
		}
		if df == 0 {
			continue
		}
		v := irf(n, df)
		plan = append(plan, plannedList{key: k, w: share * v * v})
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
