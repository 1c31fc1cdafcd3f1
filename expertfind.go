// Package expertfind finds the right crowd: it ranks the members of a
// social group by their expertise with respect to a natural-language
// expertise need, using the behavioral traces they leave on social
// networks — profiles, posts, tweets, likes, group memberships and
// follow relationships.
//
// It is a complete implementation of Bozzon, Brambilla, Ceri,
// Silvestri and Vesci, "Choosing the Right Crowd: Expert Finding in
// Social Networks", EDBT 2013: resources related to each candidate
// are collected from the social graph up to distance 2, analyzed
// through an IR pipeline (URL content extraction, language
// identification, text processing, entity recognition and
// disambiguation), matched against the need with a vector-space model
// combining term and entity evidence, and aggregated into per-expert
// scores weighted by graph distance.
//
// The simplest entry point builds a System over a synthetic,
// seeded corpus that mirrors the paper's evaluation dataset:
//
//	sys := expertfind.NewSystem(expertfind.Config{Seed: 1})
//	experts, err := sys.Find("why is copper a good conductor?")
//
// Queries can be restricted per platform, distance, window size or
// matching weights through functional options, and the paper's second
// question — which is the best social platform to contact the experts
// on? — is answered by BestNetwork.
package expertfind

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"expertfind/internal/core"
	"expertfind/internal/corpusio"
	"expertfind/internal/dataset"
	"expertfind/internal/experiments"
	"expertfind/internal/index"
	"expertfind/internal/ingest"
	"expertfind/internal/kb"
	"expertfind/internal/socialgraph"
)

// Network identifies a social platform.
type Network string

// The supported social networks.
const (
	Facebook Network = Network(socialgraph.Facebook)
	Twitter  Network = Network(socialgraph.Twitter)
	LinkedIn Network = Network(socialgraph.LinkedIn)
)

// Networks lists the supported platforms.
func Networks() []Network { return []Network{Facebook, Twitter, LinkedIn} }

// Domains lists the expertise domains of the built-in knowledge base
// and evaluation dataset.
func Domains() []string {
	out := make([]string, len(kb.Domains))
	for i, d := range kb.Domains {
		out[i] = string(d)
	}
	return out
}

// Config parameterizes the synthetic corpus behind a System.
type Config struct {
	// Seed drives generation; equal seeds build identical systems.
	// Zero selects seed 1.
	Seed int64
	// Candidates is the expert-candidate pool size (default 40).
	Candidates int
	// Scale multiplies resource volumes (default 1.0 ≈ 20k resources).
	Scale float64
	// IndexShards is the most parts one find is scored on in parallel:
	// the resource index cuts its memtable and its heaviest segments into
	// up to that many doc-id ranges per query. 0 selects GOMAXPROCS, 1
	// scores serially. Rankings are identical for any value.
	IndexShards int
}

// Expert is one ranked expert candidate.
type Expert struct {
	// Name is the candidate's handle.
	Name string
	// Score is the expertise score of Eq. 3; higher is better.
	Score float64
	// SupportingResources is the number of relevant resources that
	// contributed to the score.
	SupportingResources int
}

// Query is one expertise need of the evaluation set.
type Query struct {
	ID     int
	Text   string
	Domain string
}

// Stats summarizes the corpus behind a System.
type Stats struct {
	Candidates  int
	Resources   int // generated resources, all languages
	Indexed     int // English resources surviving the filter
	Users       int // all users, externals included
	WebPages    int // synthetic linked pages
	IndexShards int // most parts one find is scored on in parallel
}

// System is a ready-to-query expert finding system over a generated
// social corpus. Create one with NewSystem; it is safe for concurrent
// queries.
type System struct {
	inner *experiments.System
	names map[string]socialgraph.UserID
}

// Options selects what Open builds along three independent axes: the
// corpus source, the slice of it that is indexed, and the container
// that holds the index. The zero value is NewSystem(Config{}).
type Options struct {
	// Source: CorpusPath, a corpus file written by SaveCorpus, `datagen
	// -save` or `datagen -stream`; without it, the synthetic corpus of
	// Config is generated. Config.IndexShards applies to every source.
	Config     Config
	CorpusPath string

	// Slice: ShardCount > 0 builds shard ShardID of a scatter-gather
	// topology. The system carries the full social graph but analyzes
	// and indexes only the documents the stable splitmix64 route
	// (index.ShardRoute) assigns to it; served by `serve -shard-id
	// -shard-count` it answers the coordinator's shard-scoped
	// endpoints, not meaningful standalone Find queries.
	ShardID, ShardCount int

	// Container: memory, or with SegmentDir the disk-backed segment
	// store rooted there, configured by Stream. An empty store is
	// populated, sealing segments to disk as the memtable fills, and
	// its build record says whether the build finished. A store that
	// already holds documents — e.g. one built by `datagen -stream
	// -segment-dir` — is served directly, skipping analysis, once its
	// documents and build record agree with the corpus and slice it is
	// opened as; a partial store, or one built from another corpus, is
	// refused (experiments.PrebuiltError).
	SegmentDir string
	Stream     StreamOptions
}

// StreamOptions configures the segment store of Options.SegmentDir and
// NewSystemFromStream.
type StreamOptions struct {
	// FlushDocs is the memtable size that triggers sealing a segment
	// to disk during a cold build (0 selects the store default).
	FlushDocs int
	// MaxSegments bounds the sealed-segment count before maintenance
	// compacts (0 selects the store default).
	MaxSegments int
	// KeepTexts retains a corpus file's bulk chunk texts in memory; by
	// default they are dropped chunk by chunk once indexed, so a
	// million-user corpus builds and serves in a bounded-memory envelope.
	KeepTexts bool
}

// Open builds a System: it loads or generates the corpus, runs the
// chosen slice through the full analysis pipeline and indexes it into
// the chosen container. Rankings are bit-identical for every source
// and container of the same corpus. Building a full-scale system takes
// a few seconds; reuse it across queries.
func Open(o Options) (*System, error) {
	inner, err := experiments.Build(experiments.BuildOptions{
		Config: dataset.Config{
			Seed:          o.Config.Seed,
			NumCandidates: o.Config.Candidates,
			Scale:         o.Config.Scale,
		},
		CorpusPath: o.CorpusPath,
		ShardID:    o.ShardID,
		ShardCount: o.ShardCount,
		SegmentDir: o.SegmentDir,
		Store: index.StoreOptions{
			FlushDocs:   o.Stream.FlushDocs,
			MaxSegments: o.Stream.MaxSegments,
			Workers:     o.Config.IndexShards,
		},
		KeepTexts: o.Stream.KeepTexts,
	})
	if err != nil {
		return nil, err
	}
	s := &System{inner: inner, names: make(map[string]socialgraph.UserID)}
	for _, u := range inner.DS.Candidates {
		s.names[inner.DS.Graph.User(u).Name] = u
	}
	return s, nil
}

// NewSystem is Open for the generated corpus of cfg, whole and in
// memory — the one combination that cannot fail.
func NewSystem(cfg Config) *System {
	s, err := Open(Options{Config: cfg})
	if err != nil {
		panic(err)
	}
	return s
}

// NewSystemFromStream is Open for a corpus file served from the
// segment store rooted at segmentDir.
func NewSystemFromStream(corpusPath, segmentDir string, opts StreamOptions) (*System, error) {
	return Open(Options{CorpusPath: corpusPath, SegmentDir: segmentDir, Stream: opts})
}

// SegmentStore returns the system's disk-backed segment store, or nil
// when the system serves from memory (a store with no directory). The
// serving layer uses it to run background maintenance and expose store
// status.
func (s *System) SegmentStore() *index.Store {
	if st := s.store(); st.Dir() != "" {
		return st
	}
	return nil
}

// store returns the index container every System serves from.
func (s *System) store() *index.Store {
	return s.inner.Finder.Index().(*index.Store)
}

// SaveCorpus writes the system's corpus (graph, pages, queries,
// ground truth) to path as a corpus file with no chunks; a ".gz"
// suffix selects compression. Reload it with Options.CorpusPath.
func (s *System) SaveCorpus(path string) error {
	return corpusio.SaveFile(s.inner.DS, path)
}

// findConfig collects the functional options of Find.
type findConfig struct {
	params core.Params
	err    error
}

// FindOption customizes a Find call.
type FindOption func(*findConfig)

// WithAlpha sets the Eq. 1 balance between keyword matching (1.0) and
// entity matching (0.0). The default is the paper's 0.6.
func WithAlpha(alpha float64) FindOption {
	return func(c *findConfig) {
		if !(alpha >= 0 && alpha <= 1) { // NaN too
			c.err = fmt.Errorf("expertfind: alpha %v outside [0,1]", alpha)
			return
		}
		c.params.Alpha = alpha
		c.params.AlphaSet = true
	}
}

// WithWindow sets the number of top-matching resources considered for
// ranking (default 100); n <= 0 disables truncation. The window also
// bounds the matching itself: the index is asked for the window's n
// best resources and prunes the rest on proof, where a disabled window
// scores every reachable match.
func WithWindow(n int) FindOption {
	return func(c *findConfig) {
		if n <= 0 {
			n = -1
		}
		c.params.WindowSize = n
	}
}

// WithTopK bounds resource matching to the k best-ranked reachable
// resources, enabling the index's MaxScore early-termination pruning.
// The k resources kept are byte-identical to the first k of the
// exhaustive ranking, so results match the unbounded query whenever k
// covers the effective window (see WithWindow). k <= 0 (the default)
// sets no bound of its own: matching is then bounded by the window,
// and exhaustive only when the window is disabled.
func WithTopK(k int) FindOption {
	return func(c *findConfig) {
		if k < 0 {
			k = 0
		}
		c.params.TopK = k
	}
}

// WithMaxDistance bounds the social-graph exploration: 0 profiles
// only, 1 direct resources, 2 (default) indirect resources too.
func WithMaxDistance(d int) FindOption {
	return func(c *findConfig) {
		if d < 0 || d > 2 {
			c.err = fmt.Errorf("expertfind: distance %d outside [0,2]", d)
			return
		}
		c.params.Traversal.MaxDistance = d
	}
}

// WithNetworks restricts evidence to the given platforms.
func WithNetworks(nets ...Network) FindOption {
	return func(c *findConfig) {
		var out []socialgraph.Network
		for _, n := range nets {
			switch n {
			case Facebook, Twitter, LinkedIn:
				out = append(out, socialgraph.Network(n))
			default:
				c.err = fmt.Errorf("expertfind: unknown network %q", n)
				return
			}
		}
		c.params.Traversal.Networks = out
	}
}

// WithFriends includes the resources of friend users (bidirectional
// relationships) in the exploration. The paper found this brings no
// significant benefit (§3.3.3).
func WithFriends() FindOption {
	return func(c *findConfig) { c.params.Traversal.IncludeFriends = true }
}

// WithDistanceWeights overrides the per-distance resource weights wr
// (defaults 1.0, 0.75, 0.5). Each must be finite and non-negative.
func WithDistanceWeights(d0, d1, d2 float64) FindOption {
	return func(c *findConfig) {
		for d, w := range [3]float64{d0, d1, d2} {
			if !(w >= 0 && w <= math.MaxFloat64) { // NaN and +Inf too
				c.err = fmt.Errorf("expertfind: distance %d weight %v not finite and non-negative", d, w)
				return
			}
		}
		c.params.DistanceWeights = [3]float64{d0, d1, d2}
	}
}

// Find ranks the candidate experts for an expertise need, best first.
// Only candidates with positive expertise score are returned.
func (s *System) Find(need string, opts ...FindOption) ([]Expert, error) {
	return s.FindContext(context.Background(), need, opts...)
}

// FindContext is Find with a context. When ctx carries a telemetry
// trace (internal/telemetry), the query's pipeline stages are
// recorded as spans on it — the serving layer uses this to expose
// per-request traces at /debug/traces.
func (s *System) FindContext(ctx context.Context, need string, opts ...FindOption) ([]Expert, error) {
	out, _, err := s.FindCachedContext(ctx, need, opts...)
	return out, err
}

// FindCachedContext is FindContext plus the result-cache disposition:
// "hit", "miss" or "coalesced" when a cache is installed
// (SetResultCache), "" when the query bypassed caching. The serving
// layer reflects the disposition as the Cache-Status response header.
func (s *System) FindCachedContext(ctx context.Context, need string, opts ...FindOption) ([]Expert, string, error) {
	p, err := ResolveParams(opts...)
	if err != nil {
		return nil, "", err
	}
	scores, status := s.inner.Finder.FindCachedContext(ctx, need, p)
	return s.expertsOf(scores), string(status), nil
}

// FindRanking is FindCachedContext for a serving layer that renders
// the ranking itself: it returns the ranked scores unnamed, and a
// result-cache hit or coalesced follower shares the cached Ranking
// (core.Finder.FindRanking), which the caller must not write. Its
// experts are members of CoreFinder().Pool(), which names them.
func (s *System) FindRanking(ctx context.Context, need string, opts ...FindOption) (*core.Ranking, string, error) {
	p, err := ResolveParams(opts...)
	if err != nil {
		return nil, "", err
	}
	r, status := s.inner.Finder.FindRanking(ctx, need, p)
	return r, string(status), nil
}

// expertsOf names ranked scores from the finder's pool, which holds
// every expert a ranking can name.
func (s *System) expertsOf(scores []core.ExpertScore) []Expert {
	pool := s.inner.Finder.Pool()
	out := make([]Expert, len(scores))
	for i, es := range scores {
		name, _ := pool.Name(es.User)
		out[i] = Expert{Name: name, Score: es.Score, SupportingResources: es.Resources}
	}
	return out
}

// SetResultCache installs (or, with nil, removes) a ranked-result
// cache on the system's finder — normally a generation-pinned
// internal/rescache view; the serving layer attaches one per corpus
// install so swapped-out corpora can never serve stale rankings, and
// an ingest delta drops only the rankings it touches, so an entry
// needs no expiry. The parameter is the internal hook interface:
// module-external users configure caching through cmd/serve's
// -cache-size flag instead of calling this directly.
func (s *System) SetResultCache(c core.ResultCache) {
	s.inner.Finder.SetResultCache(c)
}

// NewIngester wires a continuous-ingest driver (internal/ingest) onto
// this system: cfg needs only the remote surface (API) plus optional
// cache/retry/observability hooks — the installed graph, live index,
// analysis pipeline and this system's finder are filled in here. The
// ingester's RunOnce fetches what the remote's change feeds name (the
// whole remote corpus when they cannot answer; a system whose graph is
// still as its corpus file or generator made it resumes a remote
// loaded from the same source, so even its first round is scoped),
// diffs it against the installed one and applies the delta live;
// rankings after any round are bit-identical to a cold rebuild of the
// remote state: the deltas land in the index's memtable, in memory or
// beside sealed segments.
// Scatter shard-slice systems must not be ingested into: a delta
// carries the whole corpus, not the slice (cmd/serve refuses the flag
// combination).
func (s *System) NewIngester(cfg ingest.Config) (*ingest.Ingester, error) {
	cfg.Graph = s.inner.DS.Graph
	cfg.Index = s.store()
	cfg.Pipe = s.inner.Finder.Pipeline()
	cfg.Finders = append(cfg.Finders, s.inner.Finder)
	return ingest.New(cfg), nil
}

// ResolveParams converts Find options into the resolved internal
// query parameters. The scatter-gather serving layer uses it so the
// coordinator truncates and aggregates merged shard results under
// exactly the window/weight semantics the shards scored with.
func ResolveParams(opts ...FindOption) (core.Params, error) {
	cfg := findConfig{params: core.Params{
		Traversal: socialgraph.TraversalOptions{MaxDistance: 2},
	}}
	for _, o := range opts {
		o(&cfg)
		if cfg.err != nil {
			return core.Params{}, cfg.err
		}
	}
	return cfg.params, nil
}

// CoreFinder exposes the underlying expert finder for the shard-
// scoped serving endpoints (stats gathering and globally-weighted
// slice scoring); module-external users query through Find instead.
func (s *System) CoreFinder() *core.Finder { return s.inner.Finder }

// CandidateInfo pairs a candidate's stable user id with their handle.
type CandidateInfo = core.Candidate

// CandidateInfos lists the candidate pool with ids and handles,
// sorted by id.
func (s *System) CandidateInfos() []CandidateInfo { return s.inner.Finder.Pool().Candidates() }

// EvidenceItem is one resource supporting an expert's selection.
type EvidenceItem struct {
	// Network and Kind locate the resource ("twitter"/"tweet",
	// "facebook"/"group-post", ...).
	Network string
	Kind    string
	// Distance is the social-graph distance between expert and
	// resource (0 profile, 1 direct, 2 indirect).
	Distance int
	// Contribution is how much this resource added to the expert's
	// score.
	Contribution float64
	// Snippet is the resource text, truncated for display.
	Snippet string
}

// Explanation justifies one expert's ranking for a need.
type Explanation struct {
	Expert string
	// Score is the total contribution of the listed evidence; with an
	// untruncated explanation it equals the expert's ranking score.
	Score    float64
	Evidence []EvidenceItem
}

// maxSnippetLen bounds explanation snippets.
const maxSnippetLen = 120

// ErrUnknownCandidate is wrapped by the errors of the lookups that name
// a candidate the corpus does not hold.
var ErrUnknownCandidate = errors.New("expertfind: unknown candidate")

// Explain returns the top supporting resources behind an expert's
// score for a need — the transparency a question router needs before
// bothering a contact ("you're asked because you tweeted X"). Invalid
// options are reported before an unknown expert, whose error wraps
// ErrUnknownCandidate.
func (s *System) Explain(need, expertName string, topN int, opts ...FindOption) (Explanation, error) {
	return s.ExplainContext(context.Background(), need, expertName, topN, opts...)
}

// ExplainContext is Explain with a context (see FindContext).
func (s *System) ExplainContext(ctx context.Context, need, expertName string, topN int, opts ...FindOption) (Explanation, error) {
	p, err := ResolveParams(opts...)
	if err != nil {
		return Explanation{}, err
	}
	u, ok := s.names[expertName]
	if !ok {
		return Explanation{}, fmt.Errorf("%w %q", ErrUnknownCandidate, expertName)
	}
	analyzed := s.inner.Finder.Pipeline().AnalyzeNeed(need)
	evidence := s.inner.Finder.Explain(ctx, analyzed, u, p, topN)

	out := Explanation{Expert: expertName}
	for _, ev := range evidence {
		r := s.inner.DS.Graph.Resource(ev.Resource)
		snippet := r.Text
		if len(snippet) > maxSnippetLen {
			snippet = snippet[:maxSnippetLen] + "..."
		}
		out.Score += ev.Contribution
		out.Evidence = append(out.Evidence, EvidenceItem{
			Network:      string(r.Network),
			Kind:         r.Kind.String(),
			Distance:     ev.Distance,
			Contribution: ev.Contribution,
			Snippet:      snippet,
		})
	}
	return out, nil
}

// BestNetwork answers the paper's second question — which is the best
// social platform to contact the experts on? — by ranking the experts
// on each network separately and choosing the platform with the
// strongest top-3 expertise mass. The per-network rankings are also
// returned.
func (s *System) BestNetwork(need string, opts ...FindOption) (Network, map[Network][]Expert, error) {
	return s.BestNetworkContext(context.Background(), need, opts...)
}

// BestNetworkContext is BestNetwork with a context (see FindContext).
func (s *System) BestNetworkContext(ctx context.Context, need string, opts ...FindOption) (Network, map[Network][]Expert, error) {
	rankings := make(map[Network][]Expert, 3)
	best, bestScore := Network(""), -1.0
	for _, net := range Networks() {
		experts, err := s.FindContext(ctx, need, append(append([]FindOption{}, opts...), WithNetworks(net))...)
		if err != nil {
			return "", nil, err
		}
		rankings[net] = experts
		score := 0.0
		for i, e := range experts {
			if i >= 3 {
				break
			}
			score += e.Score
		}
		if score > bestScore {
			best, bestScore = net, score
		}
	}
	return best, rankings, nil
}

// Queries returns the 30 evaluation expertise needs.
func (s *System) Queries() []Query {
	out := make([]Query, 0, len(s.inner.DS.Queries))
	for _, q := range s.inner.DS.Queries {
		out = append(out, Query{ID: q.ID, Text: q.Text, Domain: string(q.Domain)})
	}
	return out
}

// Candidates returns the candidate handles, sorted.
func (s *System) Candidates() []string {
	out := make([]string, 0, len(s.names))
	for name := range s.names {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// IsExpert reports whether the ground truth marks the named candidate
// as an expert of the domain.
func (s *System) IsExpert(name, domain string) (bool, error) {
	u, ok := s.names[name]
	if !ok {
		return false, fmt.Errorf("%w %q", ErrUnknownCandidate, name)
	}
	dom, err := parseDomain(domain)
	if err != nil {
		return false, err
	}
	return s.inner.DS.IsExpert(u, dom), nil
}

// Experts returns the ground-truth experts of a domain.
func (s *System) Experts(domain string) ([]string, error) {
	dom, err := parseDomain(domain)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, u := range s.inner.DS.Experts(dom) {
		out = append(out, s.inner.DS.Graph.User(u).Name)
	}
	return out, nil
}

// Stats returns corpus statistics.
func (s *System) Stats() Stats {
	ds := s.inner.DS
	return Stats{
		Candidates:  len(ds.Candidates),
		Resources:   ds.Graph.NumResources(),
		Indexed:     s.inner.Kept,
		Users:       ds.Graph.NumUsers(),
		WebPages:    ds.Web.Len(),
		IndexShards: s.store().Workers(),
	}
}

func parseDomain(domain string) (kb.Domain, error) {
	for _, d := range kb.Domains {
		if string(d) == domain {
			return d, nil
		}
	}
	return "", fmt.Errorf("expertfind: unknown domain %q (known: %v)", domain, Domains())
}
