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
	"maps"
	"math"
	"slices"

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
		"Term and entity postings walked across Score calls. Top-k calls depend on how parts are scheduled when a store scores on more than one worker, since the parts share a theta floor.")
	mMatches = telemetry.Default().Counter(
		"expertfind_index_matches_total",
		"Positively scored resources returned across Score calls.")
)

// DocID identifies an indexed resource.
type DocID = socialgraph.ResourceID

// Searcher is the query-side index API shared by the monolithic Index,
// the reference oracle, and the segment store, the one container the
// system serves from: everything the expert-finding pipeline needs to
// weight, match and persist a collection. Both score through one path
// (see search.go); Score and ScoreTopK are ScoreStatsTopK with defaults
// filled in.
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
	_ Searcher = (*Store)(nil)
)

// Index is an append-only inverted index over analyzed resources.
// Inverse resource frequencies reflect the collection at query time,
// so documents can be added at any moment. Index is not safe for
// concurrent mutation; concurrent Score calls are safe once building
// is done (posting lists seal themselves during Add, never during
// scoring).
//
// Posting lists are blocked: delta-encoded fixed-size blocks with
// per-block skip entries (max doc id, max weightless score) plus a
// small unsorted tail of recent additions — see blockpostings.go. The
// skip entries feed the ScoreTopK pruner.
type Index struct {
	lists map[listKey]*postingList
	// ids is the indexed document set in ascending order, kept sorted by
	// every mutation so that reading it — a membership test, the store
	// cutting its memtable into doc-id ranges, a seal writing it out —
	// never sorts.
	ids []DocID
}

// New returns an empty index.
func New() *Index {
	return &Index{lists: make(map[listKey]*postingList)}
}

// hasID reports whether the ascending ids hold id.
func hasID(ids []DocID, id DocID) bool {
	_, ok := slices.BinarySearch(ids, id)
	return ok
}

// list implements listSource: the list's header, its blocks and bytes
// shared with the index.
func (ix *Index) list(k listKey, l *postingList, arena []blockMeta) []blockMeta {
	if p := ix.lists[k]; p != nil {
		*l = *p
	} else {
		*l = postingList{}
	}
	return arena
}

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
	i, dup := slices.BinarySearch(ix.ids, id)
	if dup {
		panic("index: duplicate document")
	}
	ix.ids = slices.Insert(ix.ids, i, id)
	eachPosting(id, a, ix.addPosting)
}

// Remove deletes previously indexed resources, by id, in one pass over
// the lists: every list holding one of them is rebuilt once into
// canonical sealed blocks with its maxima recomputed, and lists left
// empty are dropped from the map entirely — the index is
// indistinguishable from one that never saw the documents, so a
// delta-applied index serializes byte-identically to a cold rebuild.
// A list is replaced, never changed in place, so a clone's lists stay
// the original's. Removing an unknown document, or one twice, is a
// programming error and panics.
func (ix *Index) Remove(ids ...DocID) {
	gone := slices.Clone(ids)
	slices.Sort(gone)
	kept, j := ix.ids[:0], 0
	for _, d := range ix.ids {
		if j < len(gone) && gone[j] == d {
			j++
			continue
		}
		kept = append(kept, d)
	}
	if j < len(gone) {
		panic("index: removing unknown document")
	}
	ix.ids = kept
	var buf []posting
	for k, l := range ix.lists {
		var holds bool
		if holds, buf = l.holdsAny(gone, buf); !holds {
			continue
		}
		if ps := dropDocs(l.sorted(), func(d DocID) bool { return hasID(gone, d) }); len(ps) == 0 {
			delete(ix.lists, k)
		} else {
			ix.lists[k] = newPostingList(k.kind, ps)
		}
	}
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

// Update replaces the indexed form of a document with a.
func (ix *Index) Update(id DocID, a analysis.Analyzed) {
	ix.Remove(id)
	ix.Add(id, a)
}

// clone returns a copy that shares the lists: Remove on either one
// leaves the other as it was.
func (ix *Index) clone() *Index {
	return &Index{lists: maps.Clone(ix.lists), ids: slices.Clone(ix.ids)}
}

// NumDocs returns the number of indexed resources.
func (ix *Index) NumDocs() int { return len(ix.ids) }

// Has reports whether id is indexed.
func (ix *Index) Has(id DocID) bool { return hasID(ix.ids, id) }

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
// shared by every stats provider so whole and partitioned scoring
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
	return irf(len(ix.ids), df)
}

// EIRF returns the inverse resource frequency of an entity.
func (ix *Index) EIRF(e kb.EntityID) float64 {
	df := ix.EntityFreq(e)
	if df == 0 {
		return 0
	}
	return irf(len(ix.ids), df)
}

// ScoredDoc is a resource with its relevance for a need.
type ScoredDoc struct {
	Doc   DocID
	Score float64
}

// CollectionStats is the collection-level view needed to weight a
// query: document count and per-term/per-entity resource frequencies.
// For a segment store these are global (folded across its memtable and
// segments), so the same need yields the same query plan for any
// layout. The scatter-gather serving layer implements it with stats
// summed across shard processes, so a shard holding one slice of the
// corpus can still score with collection-global weights.
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
// output across runs and across partitionings (each document lives in
// exactly one part, so its addition chain never changes).
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
	slices.SortFunc(keys, keyCmp)

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
	return searchParts(planQuery(need, alpha, st), []part{{src: ix, span: allDocs, accept: accept}}, k, 1)
}
