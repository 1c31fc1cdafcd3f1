// Package core implements the paper's primary contribution: matching
// expertise needs to candidate experts over social-network resources
// (§2.4) and ranking the experts (§2.4.1, Eq. 3).
//
// Given an expertise need q, the Finder
//
//  1. analyzes q with the same pipeline used for resources;
//  2. retrieves the relevant resources RR with the vector-space model
//     of Eq. (1), restricted to the resources reachable from the
//     candidate pool under the configured social-graph traversal;
//  3. truncates RR to the window of the top-n matches (§2.4.1);
//  4. scores each candidate expert as
//     score(q,ex) = Σ_{ri∈RR} score(q,ri) · wr(ri,ex),
//     where wr weighs each resource by its graph distance from the
//     candidate, linearly decreasing within [0.5, 1] (§3.3).
package core

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Query-pipeline metrics. Stage names follow the pipeline order:
// analyze → traverse → index_match → aggregate_rank; the same names
// label the per-query trace spans FindContext records.
var (
	mQueries = telemetry.Default().Counter(
		"expertfind_queries_total",
		"Expert-finding queries answered by Finder.FindAnalyzed.")
	mStageSeconds = telemetry.Default().HistogramVec(
		"expertfind_pipeline_stage_duration_seconds",
		"Wall time per query-pipeline stage.", nil, "stage")
	mCacheHits = telemetry.Default().Counter(
		"expertfind_traversal_cache_hits_total",
		"Reachability-table lookups answered from the per-traversal cache, patched or not.")
	mCacheMisses = telemetry.Default().Counter(
		"expertfind_traversal_cache_misses_total",
		"Reachability-table lookups that built the table: a first use or a catch-up rebuild.")
)

// DefaultWindowSize is the number of relevant resources considered
// for expert ranking, as set in the paper after the window-size
// sensitivity analysis (§3.3.1).
const DefaultWindowSize = 100

// DefaultAlpha balances term matching vs. entity matching, as set in
// the paper after the α sensitivity analysis (§3.3.2).
const DefaultAlpha = 0.6

// DefaultDistanceWeights are the wr weighting terms per resource
// distance: fixed in [0.5, 1] with value linearly decreasing w.r.t.
// distance (§3.3).
var DefaultDistanceWeights = [3]float64{1.0, 0.75, 0.5}

// Params configures one expert-finding query.
type Params struct {
	// Alpha is the Eq. (1) weighting factor: 1 = keyword matching
	// only, 0 = entity matching only. A zero Alpha selects
	// DefaultAlpha unless AlphaSet is true.
	Alpha float64
	// AlphaSet marks Alpha as deliberate even when it is 0 (entity
	// matching only). Without it, a zero Alpha selects DefaultAlpha,
	// keeping the zero Params value useful.
	AlphaSet bool
	// WindowSize truncates the relevant-resource list to the top n
	// matches. Zero selects DefaultWindowSize; negative disables
	// truncation.
	WindowSize int
	// WindowFrac, when positive, sets the window to this fraction of
	// the matching resources (the x-axis of Fig. 6), overriding
	// WindowSize.
	WindowFrac float64
	// Traversal bounds the social-graph exploration (distance,
	// networks, friends).
	Traversal socialgraph.TraversalOptions
	// DistanceWeights override wr per distance; the zero value
	// selects DefaultDistanceWeights.
	DistanceWeights [3]float64
	// TopK, when positive, bounds the relevant-resource list to the k
	// best-ranked reachable matches, letting the index prune documents
	// that provably cannot enter the top k (MaxScore early
	// termination). The k matches kept are byte-identical to the first
	// k of the exhaustive reachable ranking, so the expert ranking
	// equals the unbounded one whenever k covers the effective window.
	// Zero or negative sets no bound of its own: a find is then bounded
	// by its window (MatchBound), and exhaustive only when the window
	// is relative (WindowFrac) or disabled.
	TopK int
}

func (p Params) alpha() float64 {
	if !p.AlphaSet && p.Alpha == 0 {
		return DefaultAlpha
	}
	return p.Alpha
}

func (p Params) weights() [3]float64 {
	if p.DistanceWeights == ([3]float64{}) {
		return DefaultDistanceWeights
	}
	return p.DistanceWeights
}

func (p Params) window(matches int) int {
	if p.WindowFrac > 0 {
		n := int(p.WindowFrac * float64(matches))
		if n < 1 {
			n = 1
		}
		return n
	}
	switch {
	case p.WindowSize < 0:
		return matches
	case p.WindowSize == 0:
		return DefaultWindowSize
	default:
		return p.WindowSize
	}
}

// MatchBound is the number of best-ranked matches a find reads, the k
// it hands the index: TopK narrowed by the window when the window is
// absolute, plain TopK when it is a fraction of the match count or
// disabled; 0 means every match. Eq. (3) sums over the window only, so
// matching past it cannot change a ranking. Exported for the scatter
// coordinator, which cuts its merge of the shards' lists at the same k.
func (p Params) MatchBound() int {
	k := max(p.TopK, 0)
	if p.WindowFrac > 0 || p.WindowSize < 0 {
		return k
	}
	if w := p.window(0); k == 0 || w < k {
		return w
	}
	return k
}

// Fingerprint canonically encodes every Params field that can change
// the ranking, for use in result-cache keys. Parameter sets with the
// same semantics share a fingerprint: implicit defaults resolve to
// their effective values (a zero Alpha to DefaultAlpha, zero weights
// to DefaultDistanceWeights, a zero WindowSize to DefaultWindowSize,
// TopK to the MatchBound it resolves to beside the window), and
// traversal networks are order-insensitive.
func (p Params) Fingerprint() string {
	w := p.weights()
	var win string
	switch {
	case p.WindowFrac > 0:
		win = "f" + strconv.FormatFloat(p.WindowFrac, 'g', -1, 64)
	case p.WindowSize < 0:
		win = "all"
	case p.WindowSize == 0:
		win = strconv.Itoa(DefaultWindowSize)
	default:
		win = strconv.Itoa(p.WindowSize)
	}
	k := "all"
	if b := p.MatchBound(); b > 0 {
		k = strconv.Itoa(b)
	}
	return fmt.Sprintf("a%s|w%s|dw%g,%g,%g|k%s|%s",
		strconv.FormatFloat(p.alpha(), 'g', -1, 64), win,
		w[0], w[1], w[2], k, traversalKey(p.Traversal))
}

// NormalizeNeed canonicalizes a need's text for cache keying: case is
// folded and runs of whitespace collapse to single spaces. Both are
// sound — the analysis pipeline lowercases during tokenization and
// language identification, and tokenization is whitespace-insensitive
// — so needs mapping to the same normalized form always rank
// identically.
func NormalizeNeed(need string) string {
	return strings.Join(strings.Fields(strings.ToLower(need)), " ")
}

// ExpertScore is one ranked expert with its expertise score and the
// number of relevant resources that supported it.
type ExpertScore struct {
	User      socialgraph.UserID
	Score     float64
	Resources int
}

// CacheStatus reports how a Find was answered when a result cache is
// installed: from the cache (hit), by scoring and filling the cache
// (miss), or by waiting on an identical in-flight query (coalesced).
// The empty value means no cache was consulted.
type CacheStatus string

// The cache dispositions. Their string values are what the serving
// layer sends in the Cache-Status response header.
const (
	CacheBypass    CacheStatus = ""
	CacheHit       CacheStatus = "hit"
	CacheMiss      CacheStatus = "miss"
	CacheCoalesced CacheStatus = "coalesced"
)

// CacheKey identifies one Find computation for result caching. Two
// queries with equal keys are guaranteed to rank identically (over
// the same corpus), so a cache may serve one's result for the other.
type CacheKey struct {
	// Need is the normalized need text (NormalizeNeed).
	Need string
	// Group fingerprints the candidate pool CE the finder ranks
	// (Finder.GroupFingerprint): a cache shared between finders over
	// different groups must not cross-serve results.
	Group string
	// Params is the Params.Fingerprint of the query options.
	Params string
}

// ResultCache is the hook a Finder routes Find queries through when
// one is installed with SetResultCache. GetOrCompute must return
// either a previously stored value for key or the result of calling
// compute (exactly once per concurrent burst of equal keys, when the
// implementation coalesces). internal/rescache provides the bounded
// LRU implementation; the interface lives here so core does not
// depend on it.
type ResultCache interface {
	GetOrCompute(key CacheKey, compute func() []ExpertScore) ([]ExpertScore, CacheStatus)
}

// reach is one cached traversal: the resource→candidates table Eq. (3)
// reads, and the table's Reaches as the filter the index scores under,
// bound once per table so a find allocates no closure of its own.
type reach struct {
	table  *socialgraph.ReachTable
	accept func(index.DocID) bool
}

func newReach(t *socialgraph.ReachTable) *reach {
	return &reach{table: t, accept: t.Reaches}
}

// Finder answers expertise needs over a social graph and a resource
// index. It caches the expensive resource→candidate reachability tables
// per traversal configuration and brings each current with the graph
// before it serves (socialgraph.ReachTable.CatchUp); the cache is safe
// for concurrent use.
type Finder struct {
	graph      *socialgraph.Graph
	index      index.Searcher
	pipe       *analysis.Pipeline
	candidates []socialgraph.UserID
	groupFP    string

	cacheMu sync.RWMutex
	cache   ResultCache

	mu         sync.Mutex
	reachCache map[string]*reach
}

// NewFinder assembles a Finder over any index.Searcher (the monolithic
// Index or a segment store). candidates is the expert-candidate pool
// CE; nil selects every candidate user in the graph.
func NewFinder(g *socialgraph.Graph, ix index.Searcher, pipe *analysis.Pipeline, candidates []socialgraph.UserID) *Finder {
	if candidates == nil {
		candidates = g.Candidates()
	}
	return &Finder{
		graph:      g,
		index:      ix,
		pipe:       pipe,
		candidates: candidates,
		groupFP:    groupFingerprint(candidates),
		reachCache: make(map[string]*reach),
	}
}

// groupFingerprint hashes the candidate pool so cache keys distinguish
// finders ranking different groups.
func groupFingerprint(candidates []socialgraph.UserID) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, u := range candidates {
		binary.LittleEndian.PutUint32(buf[:], uint32(u))
		h.Write(buf[:])
	}
	return fmt.Sprintf("n%d-%016x", len(candidates), h.Sum64())
}

// GroupFingerprint identifies the finder's candidate pool for result
// caching; it participates in every CacheKey the finder builds.
func (f *Finder) GroupFingerprint() string { return f.groupFP }

// SetResultCache installs (or, with nil, removes) the Find result
// cache. Once installed, FindContext routes queries through it; the
// cache is expected to be generation-scoped to the corpus behind this
// finder (see internal/rescache.Cache.Attach), because the finder
// itself never invalidates it.
func (f *Finder) SetResultCache(c ResultCache) {
	f.cacheMu.Lock()
	f.cache = c
	f.cacheMu.Unlock()
}

func (f *Finder) resultCache() ResultCache {
	f.cacheMu.RLock()
	defer f.cacheMu.RUnlock()
	return f.cache
}

// Candidates returns the candidate pool CE.
func (f *Finder) Candidates() []socialgraph.UserID {
	out := make([]socialgraph.UserID, len(f.candidates))
	copy(out, f.candidates)
	return out
}

// Graph returns the underlying social graph.
func (f *Finder) Graph() *socialgraph.Graph { return f.graph }

// Index returns the underlying resource index.
func (f *Finder) Index() index.Searcher { return f.index }

// scoreMatches produces the relevant-resource list: Eq. (1) matches
// restricted to the reachable set, bounded to the k best when k is
// positive. Reachability always rides into the index as the accept
// predicate, so unreachable documents are never accumulated and a
// pruned evaluation bounds exactly the list the pipeline consumes. A
// nil st plans against the index's own statistics; a shard process
// passes the global view.
func (f *Finder) scoreMatches(need analysis.Analyzed, p Params, k int, st index.CollectionStats, r *reach) []index.ScoredDoc {
	return f.index.ScoreStatsTopK(need, p.alpha(), st, k, r.accept)
}

// Pipeline returns the analysis pipeline.
func (f *Finder) Pipeline() *analysis.Pipeline { return f.pipe }

// Find ranks the candidate experts for a natural-language expertise
// need. Only experts with positive score are returned, best first.
func (f *Finder) Find(need string, p Params) []ExpertScore {
	return f.FindContext(context.Background(), need, p)
}

// FindContext is Find with a context. When ctx carries a telemetry
// trace (telemetry.Tracer.Start), every pipeline stage is recorded as
// a span on it; stage timings land in the metrics registry either
// way. With a result cache installed (SetResultCache), the query is
// routed through it; use FindCachedContext to also learn the cache
// disposition.
func (f *Finder) FindContext(ctx context.Context, need string, p Params) []ExpertScore {
	out, _ := f.FindCachedContext(ctx, need, p)
	return out
}

// FindCachedContext is FindContext plus the cache disposition: how
// the installed result cache answered (hit, miss, coalesced), or
// CacheBypass when none is installed. Cache keys combine the
// normalized need, the candidate-pool fingerprint and the Params
// fingerprint; the cache implementation scopes them to the corpus
// generation. A coalesced query shares the leading query's scoring
// pass — and therefore its trace spans — recording only a "cache"
// span of its own.
func (f *Finder) FindCachedContext(ctx context.Context, need string, p Params) ([]ExpertScore, CacheStatus) {
	c := f.resultCache()
	if c == nil {
		return f.findCold(ctx, need, p), CacheBypass
	}
	sp := telemetry.TraceFrom(ctx).StartSpan("cache")
	key := CacheKey{Need: NormalizeNeed(need), Group: f.groupFP, Params: p.Fingerprint()}
	out, status := c.GetOrCompute(key, func() []ExpertScore {
		return f.findCold(ctx, need, p)
	})
	sp.SetAttr("status", string(status))
	sp.End()
	return out, status
}

// findCold runs the full uncached pipeline: analysis, then the
// traverse/match/rank stages of FindAnalyzedContext.
func (f *Finder) findCold(ctx context.Context, need string, p Params) []ExpertScore {
	tr := telemetry.TraceFrom(ctx)
	sp, t0 := tr.StartSpan("analyze"), time.Now()
	a := f.pipe.AnalyzeNeed(need)
	mStageSeconds.With("analyze").ObserveSince(t0)
	sp.End()
	return f.FindAnalyzedContext(ctx, a, p)
}

// FindAnalyzed is Find for a pre-analyzed need.
func (f *Finder) FindAnalyzed(need analysis.Analyzed, p Params) []ExpertScore {
	return f.FindAnalyzedContext(context.Background(), need, p)
}

// FindAnalyzedContext is FindAnalyzed with a context, instrumented
// like FindContext (minus the analyze stage, already done by the
// caller).
func (f *Finder) FindAnalyzedContext(ctx context.Context, need analysis.Analyzed, p Params) []ExpertScore {
	mQueries.Inc()
	tr := telemetry.TraceFrom(ctx)

	sp, t0 := tr.StartSpan("traverse"), time.Now()
	r := f.reachability(p.Traversal)
	mStageSeconds.With("traverse").ObserveSince(t0)
	sp.SetAttrInt("reachable_resources", r.table.Len())
	sp.End()

	sp, t0 = tr.StartSpan("index_match"), time.Now()
	bound := p.MatchBound()
	matches := f.scoreMatches(need, p, bound, nil, r)
	mStageSeconds.With("index_match").ObserveSince(t0)
	sp.SetAttrInt("matches", len(matches))
	sp.SetAttrInt("bound", bound)
	sp.End()

	sp, t0 = tr.StartSpan("aggregate_rank"), time.Now()
	out := rankMatches(matches, r.table.Of, p)
	mStageSeconds.With("aggregate_rank").ObserveSince(t0)
	sp.SetAttrInt("experts", len(out))
	sp.End()
	return out
}

// Matches returns the relevant resources for the need — the scored
// matches of Eq. (1) restricted to resources reachable from the
// candidate pool under p.Traversal — ordered by descending relevance,
// before window truncation (but after the TopK bound, when one is
// set). It is the one entry point the window never bounds: the window
// sweeps re-rank a single list under many windows.
func (f *Finder) Matches(need analysis.Analyzed, p Params) []index.ScoredDoc {
	return f.scoreMatches(need, p, p.TopK, nil, f.reachability(p.Traversal))
}

// RankFromMatches applies window truncation and the expert scoring
// function of Eq. (3) to a pre-computed relevant-resource list.
func (f *Finder) RankFromMatches(matches []index.ScoredDoc, p Params) []ExpertScore {
	return rankMatches(matches, f.reachability(p.Traversal).table.Of, p)
}

// rankMatches is the Eq. (3) aggregation over an already-computed
// reachability lookup: of returns the candidates reaching a resource,
// a ReachTable's Of.
func rankMatches(matches []index.ScoredDoc, of func(socialgraph.ResourceID) []socialgraph.CandidateDistance, p Params) []ExpertScore {
	return rank(len(matches), func(i int) (float64, []socialgraph.CandidateDistance) {
		return matches[i].Score, of(matches[i].Doc)
	}, p)
}

// rank is the one Eq. (3) aggregator: window truncation, per-expert
// score accumulation weighted by distance, and the (descending score,
// ascending user) sort. match(i) yields the i-th relevant resource's
// score and the candidates it is reachable from.
//
// Determinism: scores accumulate in match × candidate-list order (both
// deterministic), and the final sort's comparator is a total order
// (UserID is unique), so repeated calls are byte-identical. The
// matching side holds the same contract (see index.queryPlan). The
// tally is pooled scratch, so a rank allocates only the slice it
// returns.
func rank(nMatches int, match func(i int) (float64, []socialgraph.CandidateDistance), p Params) []ExpertScore {
	n := min(p.window(nMatches), nMatches)
	w := p.weights()

	t := newTally()
	for i := 0; i < n; i++ {
		score, cands := match(i)
		for _, cd := range cands {
			j, ok := t.slot[cd.Candidate]
			if !ok {
				j = len(t.experts)
				t.slot[cd.Candidate] = j
				t.experts = append(t.experts, ExpertScore{User: cd.Candidate})
			}
			e := &t.experts[j]
			e.Score += score * w[cd.Distance]
			e.Resources++
		}
	}

	ranked := t.experts[:0]
	for _, e := range t.experts {
		if e.Score > 0 {
			ranked = append(ranked, e)
		}
	}
	slices.SortFunc(ranked, expertCmp)
	out := make([]ExpertScore, len(ranked))
	copy(out, ranked)
	t.release()
	return out
}

// expertCmp is the expert ranking order: descending score, ties broken
// by ascending user.
func expertCmp(a, b ExpertScore) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.User, b.User)
}

// tally is the scratch of one Eq. (3) aggregation: the experts in the
// order the window first reaches them, and each one's slot in it.
type tally struct {
	slot    map[socialgraph.UserID]int
	experts []ExpertScore
}

// maxPooledExperts bounds the experts a released tally may have held
// (about 400 KiB of buffers): clearing a map costs its high-water size,
// so one outsized rank must not tax every later one.
const maxPooledExperts = 1 << 14

// tallyFree is the free list of released tallies. It keeps at most
// eight, as the index's accumulator free list does, so idle tallies pin
// about 3 MiB at most. Not a sync.Pool, for the accumulators' reason: a
// pool empties with the garbage collector's cycles and keeps one slot
// per P, so a caller moved between Ps would regrow its map at times
// nothing in the program chooses.
var tallyFree = make(chan *tally, 8)

// newTally takes a released tally, or a fresh one when every kept one
// is in use.
func newTally() *tally {
	select {
	case t := <-tallyFree:
		return t
	default:
		return &tally{slot: make(map[socialgraph.UserID]int)}
	}
}

// release empties the tally onto the free list. An outsized one, or one
// that finds the list full, is dropped.
func (t *tally) release() {
	if len(t.slot) > maxPooledExperts {
		return
	}
	clear(t.slot)
	t.experts = t.experts[:0]
	select {
	case tallyFree <- t:
	default:
	}
}

// Evidence is the contribution of one relevant resource to one
// expert's score: one addend of Eq. (3).
type Evidence struct {
	Resource socialgraph.ResourceID
	// Relevance is score(q, r), the Eq. (1) resource score.
	Relevance float64
	// Distance is the resource's graph distance from the expert.
	Distance int
	// Contribution is Relevance · wr(distance), the amount added to
	// the expert's score.
	Contribution float64
}

// Explain returns the evidence behind an expert's score for a need:
// the relevant resources (within the window) associated to the
// expert, ordered by descending contribution, truncated to topN
// (topN <= 0 returns everything). The sum of the contributions equals
// the expert's Eq. (3) score.
func (f *Finder) Explain(need analysis.Analyzed, u socialgraph.UserID, p Params, topN int) []Evidence {
	// One cache entry serves the filter and the attribution: a second
	// lookup could straddle a catch-up and attribute evidence from a
	// graph the matches were not filtered by.
	r := f.reachability(p.Traversal)
	matches := f.scoreMatches(need, p, p.MatchBound(), nil, r)
	n := p.window(len(matches))
	if n > len(matches) {
		n = len(matches)
	}
	w := p.weights()

	var out []Evidence
	for _, sd := range matches[:n] {
		for _, cd := range r.table.Of(sd.Doc) {
			if cd.Candidate != u {
				continue
			}
			out = append(out, Evidence{
				Resource:     sd.Doc,
				Relevance:    sd.Score,
				Distance:     cd.Distance,
				Contribution: sd.Score * w[cd.Distance],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Contribution != out[j].Contribution {
			return out[i].Contribution > out[j].Contribution
		}
		return out[i].Resource < out[j].Resource
	})
	if topN > 0 && len(out) > topN {
		out = out[:topN]
	}
	return out
}

// reachability returns the resource→candidates table and its accept
// filter for a traversal configuration, building and caching both on
// first use and bringing the cached table current on every later one.
func (f *Finder) reachability(opts socialgraph.TraversalOptions) *reach {
	key := traversalKey(opts)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.reachCache[key]
	if !ok {
		mCacheMisses.Inc()
		r = newReach(f.graph.Reachability(f.candidates, opts))
		f.reachCache[key] = r
		return r
	}
	r, rebuilt := f.catchUp(key, r)
	if rebuilt {
		mCacheMisses.Inc()
	} else {
		mCacheHits.Inc()
	}
	return r
}

// catchUp brings the cached entry under key current with the graph,
// replacing it when its table moved; the caller holds f.mu.
func (f *Finder) catchUp(key string, r *reach) (_ *reach, rebuilt bool) {
	next, rebuilt := r.table.CatchUp()
	if next != r.table {
		r = newReach(next)
		f.reachCache[key] = r
	}
	return r, rebuilt
}

// ReachTable returns the finder's reachability table for a traversal
// configuration, current with the graph, from the same cache finds
// read.
func (f *Finder) ReachTable(opts socialgraph.TraversalOptions) *socialgraph.ReachTable {
	return f.reachability(opts).table
}

// CatchUp brings every cached reachability table current with the
// graph. A live ingest calls it right after mutating the graph, so the
// first find after a round finds its table current.
func (f *Finder) CatchUp() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for key, r := range f.reachCache {
		f.catchUp(key, r)
	}
}

func traversalKey(opts socialgraph.TraversalOptions) string {
	nets := make([]string, len(opts.Networks))
	for i, n := range opts.Networks {
		nets[i] = string(n)
	}
	sort.Strings(nets)
	return fmt.Sprintf("d%d|f%t|%s", opts.MaxDistance, opts.IncludeFriends, strings.Join(nets, ","))
}
