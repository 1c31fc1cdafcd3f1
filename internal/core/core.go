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
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf8"

	"expertfind/internal/analysis"
	"expertfind/internal/index"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Query-pipeline metrics. Stage names follow the pipeline order:
// analyze → traverse → index_match → aggregate_rank; the same names
// label the per-query trace spans Find records.
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
	var arr [128]byte
	b := append(arr[:0], 'a')
	if a := p.alpha(); a == DefaultAlpha {
		b = append(b, defaultAlphaKey...)
	} else {
		b = strconv.AppendFloat(b, a, 'g', -1, 64)
	}
	b = append(b, "|w"...)
	switch {
	case p.WindowFrac > 0:
		b = strconv.AppendFloat(append(b, 'f'), p.WindowFrac, 'g', -1, 64)
	case p.WindowSize < 0:
		b = append(b, "all"...)
	default:
		b = strconv.AppendInt(b, int64(p.window(0)), 10)
	}
	b = append(b, "|dw"...)
	if ws := p.weights(); ws == defaultWeights {
		b = append(b, defaultWeightsKey...)
	} else {
		b = appendWeightsKey(b, ws)
	}
	b = append(b, "|k"...)
	if k := p.MatchBound(); k > 0 {
		b = strconv.AppendInt(b, int64(k), 10)
	} else {
		b = append(b, "all"...)
	}
	return string(appendTraversalKey(append(b, '|'), p.Traversal))
}

// The key text of the default alpha and distance weights, formatted
// once: most finds resolve to the defaults, and a cached find would
// otherwise format the same four floats on every lookup. defaultWeights
// is DefaultDistanceWeights as the text was formatted from.
var (
	defaultAlphaKey   = strconv.FormatFloat(DefaultAlpha, 'g', -1, 64)
	defaultWeights    = DefaultDistanceWeights
	defaultWeightsKey = string(appendWeightsKey(nil, defaultWeights))
)

// appendWeightsKey appends the distance weights' key text: each in the
// shortest 'g' form, comma-separated.
func appendWeightsKey(b []byte, ws [3]float64) []byte {
	for i, w := range ws {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, w, 'g', -1, 64)
	}
	return b
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
	// (Pool.Group): a cache shared between finders over different
	// groups must not cross-serve results.
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

// RankingCache is a ResultCache that can also hand out its stored
// value itself: GetRanking returns the one Ranking every hit and
// coalesced follower of key shares, where GetOrCompute returns each
// caller a copy. FindRanking uses it when the installed cache has it.
type RankingCache interface {
	ResultCache
	GetRanking(key CacheKey, compute func() []ExpertScore) (*Ranking, CacheStatus)
}

// Ranking is a find's result as a result cache holds it. Scores is
// shared by every caller the cache hands the Ranking to and is never
// written after it is published; ScoreJSON renders their text once,
// for all of them.
type Ranking struct {
	Scores []ExpertScore

	once   sync.Once
	text   []byte // each score's JSON text, after one byte of its length
	textOK bool   // no score is NaN or ±Inf
}

// ScoreJSON returns the JSON text of every score, rendered on the first
// call: each score's text follows one byte that holds its length (the
// longest a float64 takes is 24 bytes), in Scores order. ok is false
// when a score is NaN or ±Inf, which JSON cannot carry.
func (r *Ranking) ScoreJSON() (text []byte, ok bool) {
	r.once.Do(func() {
		// Rendered on the stack and kept at its exact size: the text
		// lives as long as the cache entry.
		var arr [1024]byte
		b := arr[:0]
		for _, e := range r.Scores {
			n := len(b)
			if b, r.textOK = AppendJSONFloat(append(b, 0), e.Score); !r.textOK {
				return
			}
			b[n] = byte(len(b) - n - 1)
		}
		r.text = slices.Clone(b)
	})
	return r.text, r.textOK
}

// AppendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' below 1e-6 or from 1e21 in magnitude with
// a one-digit exponent unpadded. It reports false for NaN and ±Inf.
func AppendJSONFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, true
}

// AppendJSONString appends s quoted as encoding/json quotes a string
// with HTML escaping on: '<', '>' and '&', control bytes, U+2028 and
// U+2029 are escaped, and each byte of invalid UTF-8 becomes the escape
// \ufffd.
func AppendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
	pool       *Pool

	cacheMu sync.RWMutex
	cache   ResultCache

	mu         sync.Mutex
	reachCache map[string]*reach
}

// NewFinder assembles a Finder over any index.Searcher (the monolithic
// Index or a segment store). candidates is the expert-candidate pool
// CE, in any order but with no id twice; nil selects every candidate
// user in the graph.
func NewFinder(g *socialgraph.Graph, ix index.Searcher, pipe *analysis.Pipeline, candidates []socialgraph.UserID) *Finder {
	if candidates == nil {
		candidates = g.Candidates()
	}
	list := make([]Candidate, len(candidates))
	for i, u := range candidates {
		list[i] = Candidate{ID: int32(u), Name: g.User(u).Name}
	}
	slices.SortFunc(list, func(a, b Candidate) int { return cmp.Compare(a.ID, b.ID) })
	pool, err := NewPool(list)
	if err != nil {
		panic("core: NewFinder: " + err.Error())
	}
	return &Finder{
		graph:      g,
		index:      ix,
		pipe:       pipe,
		candidates: candidates,
		pool:       pool,
		reachCache: make(map[string]*reach),
	}
}

// Candidate is one member of a candidate pool: the user's id and
// handle. A shard process lists its pool in this form, and the
// coordinator builds its Pool from that list.
type Candidate struct {
	ID   int32  `json:"id"`
	Name string `json:"name"`
}

// GroupFingerprint hashes a candidate pool, listed in ascending id
// order, into the string that identifies it. Result-cache keys carry it,
// so a cache shared between finders over different pools cannot
// cross-serve results, and every process of one scatter-gather topology
// must report the same one.
func GroupFingerprint(pool []Candidate) string {
	h := fnv.New64a()
	for _, cd := range pool {
		fmt.Fprintf(h, "%d=%s\n", cd.ID, cd.Name)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Pool is a candidate pool as rankings are named from it: the ids in
// ascending order, each one's handle and the handle's JSON text, and
// the pool's GroupFingerprint, all computed once. A Finder holds the
// pool it ranks; a scatter coordinator builds one from a shard's list.
// A Pool is never written after NewPool returns it.
type Pool struct {
	ids    []int32
	names  []string
	quoted []string // names[i] as AppendJSONString writes it
	group  string
}

// NewPool builds the pool of cands, which must list strictly ascending
// ids: a repeated id would have two handles, and an unsorted list would
// fingerprint as another pool than the same members sorted.
func NewPool(cands []Candidate) (*Pool, error) {
	p := &Pool{
		ids:    make([]int32, len(cands)),
		names:  make([]string, len(cands)),
		quoted: make([]string, len(cands)),
		group:  GroupFingerprint(cands),
	}
	for i, c := range cands {
		if i > 0 && c.ID <= p.ids[i-1] {
			return nil, fmt.Errorf("candidate %d (%q) follows candidate %d: ids must be strictly ascending", c.ID, c.Name, p.ids[i-1])
		}
		p.ids[i], p.names[i] = c.ID, c.Name
		p.quoted[i] = string(AppendJSONString(nil, c.Name))
	}
	return p, nil
}

// Group returns the pool's GroupFingerprint.
func (p *Pool) Group() string { return p.group }

// Candidates lists the pool in ascending id order, as a shard sends it.
func (p *Pool) Candidates() []Candidate {
	out := make([]Candidate, len(p.ids))
	for i, id := range p.ids {
		out[i] = Candidate{ID: id, Name: p.names[i]}
	}
	return out
}

// Name returns candidate u's handle, and false when u is not in the pool.
func (p *Pool) Name(u socialgraph.UserID) (string, bool) {
	if i, ok := slices.BinarySearch(p.ids, int32(u)); ok {
		return p.names[i], true
	}
	return "", false
}

// ID returns the id of the candidate whose handle is name, and false
// when no candidate has it. A handle two candidates share names the
// lower id.
func (p *Pool) ID(name string) (socialgraph.UserID, bool) {
	if i := slices.Index(p.names, name); i >= 0 {
		return socialgraph.UserID(p.ids[i]), true
	}
	return 0, false
}

// Quoted returns candidate u's handle as JSON text, and false when u
// is not in the pool.
func (p *Pool) Quoted(u socialgraph.UserID) (string, bool) {
	if i, ok := slices.BinarySearch(p.ids, int32(u)); ok {
		return p.quoted[i], true
	}
	return "", false
}

// Pool returns the finder's candidate pool, built once by NewFinder.
func (f *Finder) Pool() *Pool { return f.pool }

// SetResultCache installs (or, with nil, removes) the Find result
// cache. Once installed, Find routes queries through it; the
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

// Pipeline returns the analysis pipeline.
func (f *Finder) Pipeline() *analysis.Pipeline { return f.pipe }

// Find ranks the candidate experts for a natural-language expertise
// need. Only experts with positive score are returned, best first. When
// ctx carries a telemetry trace (telemetry.Tracer.Start), every pipeline
// stage is recorded as a span on it; stage timings land in the metrics
// registry either way. With a result cache installed (SetResultCache),
// the query is routed through it, and the status says how the cache
// answered (hit, miss, coalesced), or CacheBypass when none is
// installed. Cache keys combine the normalized need, the candidate-pool
// fingerprint and the Params fingerprint; the cache implementation
// scopes them to the corpus generation. A coalesced query shares the
// leading query's scoring pass — and therefore its trace spans —
// recording only a "cache" span of its own.
func (f *Finder) Find(ctx context.Context, need string, p Params) ([]ExpertScore, CacheStatus) {
	c := f.resultCache()
	if c == nil {
		return f.findCold(ctx, need, p), CacheBypass
	}
	sp := telemetry.TraceFrom(ctx).StartSpan("cache")
	out, status := c.GetOrCompute(f.cacheKey(need, p), func() []ExpertScore {
		return f.findCold(ctx, need, p)
	})
	sp.SetAttr("status", string(status))
	sp.End()
	return out, status
}

// FindRanking is Find for a caller that only reads the ranking: when
// the installed cache is a RankingCache, every hit and coalesced
// follower gets the cached Ranking itself, not a copy, so they must not
// write it. Otherwise the ranking Find returns is wrapped in a Ranking
// of its own.
func (f *Finder) FindRanking(ctx context.Context, need string, p Params) (*Ranking, CacheStatus) {
	c, ok := f.resultCache().(RankingCache)
	if !ok {
		out, status := f.Find(ctx, need, p)
		return &Ranking{Scores: out}, status
	}
	sp := telemetry.TraceFrom(ctx).StartSpan("cache")
	r, status := c.GetRanking(f.cacheKey(need, p), func() []ExpertScore {
		return f.findCold(ctx, need, p)
	})
	sp.SetAttr("status", string(status))
	sp.End()
	return r, status
}

// cacheKey is the result-cache key of a find.
func (f *Finder) cacheKey(need string, p Params) CacheKey {
	return CacheKey{Need: NormalizeNeed(need), Group: f.pool.Group(), Params: p.Fingerprint()}
}

// findCold runs the full uncached pipeline: analysis, then the
// traverse/match/rank stages of findAnalyzed.
func (f *Finder) findCold(ctx context.Context, need string, p Params) []ExpertScore {
	tr := telemetry.TraceFrom(ctx)
	sp, t0 := tr.StartSpan("analyze"), time.Now()
	a := f.pipe.AnalyzeNeed(need)
	mStageSeconds.With("analyze").ObserveSince(t0)
	sp.End()
	return f.findAnalyzed(ctx, a, p)
}

// FindAnalyzed is Find for a pre-analyzed need, with no result cache.
func (f *Finder) FindAnalyzed(need analysis.Analyzed, p Params) []ExpertScore {
	return f.findAnalyzed(context.Background(), need, p)
}

// findAnalyzed is FindAnalyzed with a context, instrumented like Find
// (minus the analyze stage, already done by the caller).
func (f *Finder) findAnalyzed(ctx context.Context, need analysis.Analyzed, p Params) []ExpertScore {
	mQueries.Inc()
	matches, r := f.match(ctx, need, p, nil)

	sp, t0 := telemetry.TraceFrom(ctx).StartSpan("aggregate_rank"), time.Now()
	out := rankMatches(matches, r.table.Of, p)
	mStageSeconds.With("aggregate_rank").ObserveSince(t0)
	sp.SetAttrInt("experts", len(out))
	sp.End()
	return out
}

// match runs the traverse and index_match stages every ranking path
// shares: the reachability entry for p.Traversal, then the Eq. (1)
// matches restricted to it, bounded to the p.MatchBound() best.
// Reachability rides into the index as the accept predicate, so
// unreachable documents are never accumulated and a pruned evaluation
// bounds exactly the list the caller consumes. The entry is returned
// so the caller attributes the matches with the same table they were
// filtered by. A nil st plans against the index's own statistics; a
// shard process passes the global view.
func (f *Finder) match(ctx context.Context, need analysis.Analyzed, p Params, st index.CollectionStats) ([]index.ScoredDoc, *reach) {
	tr := telemetry.TraceFrom(ctx)
	sp, t0 := tr.StartSpan("traverse"), time.Now()
	r := f.reachability(p.Traversal)
	mStageSeconds.With("traverse").ObserveSince(t0)
	sp.SetAttrInt("reachable_resources", r.table.Len())
	sp.End()

	sp, t0 = tr.StartSpan("index_match"), time.Now()
	bound := p.MatchBound()
	matches := f.index.ScoreStatsTopK(need, p.alpha(), st, bound, r.accept)
	mStageSeconds.With("index_match").ObserveSince(t0)
	sp.SetAttrInt("matches", len(matches))
	sp.SetAttrInt("bound", bound)
	sp.End()
	return matches, r
}

// Matches returns the relevant resources for the need — the scored
// matches of Eq. (1) restricted to resources reachable from the
// candidate pool under p.Traversal — ordered by descending relevance,
// before window truncation (but after the TopK bound, when one is
// set). It is the one entry point the window never bounds: the window
// sweeps re-rank a single list under many windows.
func (f *Finder) Matches(need analysis.Analyzed, p Params) []index.ScoredDoc {
	return f.index.ScoreStatsTopK(need, p.alpha(), nil, p.TopK, f.reachability(p.Traversal).accept)
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
			u := int(cd.Candidate)
			if u >= len(t.slot) {
				t.slot = append(t.slot, make([]int32, u+1-len(t.slot))...)
			}
			j := t.slot[u]
			if j == 0 {
				t.experts = append(t.experts, ExpertScore{User: cd.Candidate})
				j = int32(len(t.experts))
				t.slot[u] = j
			}
			e := &t.experts[j-1]
			e.Score += score * w[cd.Distance]
			e.Resources++
		}
	}
	// Reset the table while experts still names every slot set: the
	// filter below compacts it.
	for _, e := range t.experts {
		t.slot[e.User] = 0
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
// order the window first reaches them, and a table indexed by UserID
// holding 1 + each one's index in experts (0: not reached). The table
// is as long as the largest candidate id reached + 1; a generated
// corpus creates its candidates first, so that is the pool's size.
type tally struct {
	slot    []int32
	experts []ExpertScore
}

// maxPooledExperts bounds the table a released tally may keep, and with
// it the experts it held, one per distinct id (about 450 KiB of buffers
// together): one outsized rank, or one candidate with a high id, must
// not pin its high-water mark in the pool.
const maxPooledExperts = 1 << 14

// tallyFree is the free list of released tallies. It keeps at most
// eight, as the index's accumulator free list does, so idle tallies pin
// about 3.5 MiB at most. Not a sync.Pool, for the accumulators' reason:
// a pool empties with the garbage collector's cycles and keeps one slot
// per P, so a caller moved between Ps would regrow its buffers at times
// nothing in the program chooses.
var tallyFree = make(chan *tally, 8)

// newTally takes a released tally, or a fresh one when every kept one
// is in use.
func newTally() *tally {
	select {
	case t := <-tallyFree:
		return t
	default:
		return new(tally)
	}
}

// release empties the tally onto the free list; rank has already
// zeroed the table's slots. An outsized one, or one that finds the
// list full, is dropped.
func (t *tally) release() {
	if len(t.slot) > maxPooledExperts {
		return
	}
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
// the expert's Eq. (3) score. A telemetry trace on ctx records the
// traverse and index_match stages (see Find).
func (f *Finder) Explain(ctx context.Context, need analysis.Analyzed, u socialgraph.UserID, p Params, topN int) []Evidence {
	// One cache entry serves the filter and the attribution: a second
	// lookup could straddle a catch-up and attribute evidence from a
	// graph the matches were not filtered by.
	matches, r := f.match(ctx, need, p, nil)
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
	var arr [64]byte
	key := appendTraversalKey(arr[:0], opts)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, ok := f.reachCache[string(key)]
	if !ok {
		mCacheMisses.Inc()
		r = newReach(f.graph.Reachability(f.candidates, opts))
		f.reachCache[string(key)] = r
		return r
	}
	next, rebuilt := catchUp(r)
	if next != r {
		f.reachCache[string(key)] = next
	}
	if rebuilt {
		mCacheMisses.Inc()
	} else {
		mCacheHits.Inc()
	}
	return next
}

// catchUp returns the cached entry r current with the graph: r itself,
// or a replacement when its table moved.
func catchUp(r *reach) (_ *reach, rebuilt bool) {
	next, rebuilt := r.table.CatchUp()
	if next != r.table {
		r = newReach(next)
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
		if next, _ := catchUp(r); next != r {
			f.reachCache[key] = next
		}
	}
}

// appendTraversalKey appends the reachability cache key of opts to b:
// its distance, its friends flag and its networks in ascending order,
// so the order networks are listed in does not matter.
func appendTraversalKey(b []byte, opts socialgraph.TraversalOptions) []byte {
	var arr [8]socialgraph.Network
	nets := append(arr[:0], opts.Networks...)
	slices.Sort(nets)
	b = strconv.AppendInt(append(b, 'd'), int64(opts.MaxDistance), 10)
	b = strconv.AppendBool(append(b, "|f"...), opts.IncludeFriends)
	b = append(b, '|')
	for i, n := range nets {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, n...)
	}
	return b
}
