package ingest

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"time"

	"expertfind/internal/analysis"
	"expertfind/internal/core"
	"expertfind/internal/faults"
	"expertfind/internal/index"
	"expertfind/internal/kb"
	"expertfind/internal/resilience"
	"expertfind/internal/socialgraph"
	"expertfind/internal/telemetry"
)

// Config assembles an Ingester around an installed serving stack.
type Config struct {
	// API is the remote platform surface to re-visit.
	API faults.API
	// Graph is the installed corpus: a same-ID replica of the remote
	// graph behind API.
	Graph *socialgraph.Graph
	// Index is the live index over Graph's analyzable resources;
	// deltas are applied to it atomically: removes, updates and adds
	// land in the mutable memtable as one step, and reach disk at the
	// next seal when the store has a directory. Its Has tells a round
	// which of the resources it removes or updates are indexed, without
	// analysing their installed texts again.
	Index *index.Store
	// Pipe is the analysis pipeline the index was built with.
	Pipe *analysis.Pipeline
	// Finders are the query frontends serving over Graph and Index.
	// Each one's cached reachability tables are brought current after a
	// delta, and its group fingerprint participates in scoped cache
	// invalidation.
	Finders []*core.Finder
	// Cache, when set, receives scoped invalidations: only the entries
	// an applied delta can change are dropped (see invalidate).
	Cache ScopedCache
	// Retry is the per-call fetch retry policy; zero selects
	// resilience.DefaultRetry.
	Retry resilience.RetryPolicy
	// Clock supplies retry backoff sleeps; nil means real time.
	Clock *resilience.Clock
	// Logger receives per-round summaries; nil disables logging.
	Logger *slog.Logger
	// Tracer, when set, records one trace per round with
	// fetch/diff/apply/invalidate spans.
	Tracer *telemetry.Tracer
}

// ScopedCache is the invalidation surface the ingester drives:
// internal/rescache.Cache implements it.
type ScopedCache interface {
	InvalidateMatching(pred func(core.CacheKey) bool) int
}

// Status is a cumulative snapshot of an ingester's work, served by
// the /v1/ingest/status endpoint.
type Status struct {
	// Rounds counts completed rounds, empty deltas included.
	Rounds int `json:"rounds"`
	// Aborts counts rounds abandoned whole (incomplete fetch or
	// inconsistent catalog); an aborted round changes nothing.
	Aborts int `json:"aborts"`
	// Adds, Updates and Removes count resources applied across all
	// completed rounds.
	Adds    int `json:"adds"`
	Updates int `json:"updates"`
	Removes int `json:"removes"`
	// CacheDropped counts result-cache entries dropped by scoped
	// invalidations; FullPurges counts rounds that had to drop every
	// entry because the delta changed collection statistics.
	CacheDropped int `json:"cache_dropped"`
	FullPurges   int `json:"full_purges"`
	// LastError is the most recent abort reason, empty after a
	// successful round.
	LastError string `json:"last_error,omitempty"`
	// Last describes the most recent completed round.
	Last RoundReport `json:"last_round"`
}

// RoundReport describes one completed ingest round.
type RoundReport struct {
	// Full reports a full round: the whole remote catalog fetched and
	// diffed, rather than only what the change feeds named.
	Full bool `json:"full"`
	// FullReason says why a full round was full; it is empty for a
	// scoped round.
	FullReason FullReason `json:"full_reason,omitempty"`
	// Catalog counts the records fetched this round: the whole remote
	// catalog on a full round.
	Catalog      int           `json:"catalog"`
	Adds         int           `json:"adds"`
	Updates      int           `json:"updates"`
	Removes      int           `json:"removes"`
	CacheDropped int           `json:"cache_dropped"`
	FullPurge    bool          `json:"full_purge"`
	Duration     time.Duration `json:"duration_ns"`
}

// FullReason is why a round fetched the whole remote catalog.
type FullReason string

// The reasons a round is full, in the order changes checks them.
const (
	// NoCursor: the ingester holds no cursor for a feed. It is the
	// first round of an ingester whose graph is not a pristine copy of
	// a source (socialgraph.Graph.Origin).
	NoCursor FullReason = "no_cursor"
	// ForeignFeed: a feed names another source than the one its cursor
	// was issued by, so the cursor means nothing there.
	ForeignFeed FullReason = "foreign_feed"
	// Expired: a feed cannot answer its cursor, which is older than the
	// feed's window.
	Expired FullReason = "expired"
	// Periodic: the round comes fullEvery rounds after the last full
	// round, or after the resume, which counts as one.
	Periodic FullReason = "periodic"
)

// fullEvery makes every fullEvery-th round a full one even when the
// change feeds could answer: the orphan cleanup of a periodic full
// sync, which repairs whatever a feed failed to report. A resume
// counts as the full round the cadence starts from.
const fullEvery = 16

// cursor is a position in one network's change feed, and the feed that
// issued it; the zero value is no cursor.
type cursor struct {
	feed string
	next uint64
}

// Ingester re-visits the remote platforms and keeps the installed
// graph, index and caches in sync with what they serve. RunOnce is
// safe to call from one goroutine at a time; queries may run
// concurrently throughout.
type Ingester struct {
	cfg     Config
	retryer *resilience.Retryer
	// cursors holds each network's change-feed cursor as of the last
	// completed round, or of the resume; sinceFull counts the rounds
	// completed since the last full round or the resume. RunOnce alone
	// reads and writes both.
	cursors   map[socialgraph.Network]cursor
	sinceFull int

	mu     sync.Mutex
	status Status
}

// New assembles an ingester. API, Graph, Index and Pipe are required.
// A Graph that is still a pristine copy of its origin resumes that
// source's change feeds at cursor 1 (see socialgraph.Graph.Origin),
// so its first round is scoped; any other starts with no cursor.
func New(cfg Config) *Ingester {
	if cfg.API == nil || cfg.Graph == nil || cfg.Index == nil || cfg.Pipe == nil {
		panic("ingest: Config requires API, Graph, Index and Pipe")
	}
	if !cfg.Retry.Enabled() {
		cfg.Retry = resilience.DefaultRetry
	}
	ing := &Ingester{
		cfg:     cfg,
		retryer: &resilience.Retryer{Policy: cfg.Retry, Clock: cfg.Clock},
		cursors: make(map[socialgraph.Network]cursor, len(socialgraph.Networks)),
	}
	if origin, pristine := cfg.Graph.Origin(); pristine {
		for _, net := range socialgraph.Networks {
			ing.cursors[net] = cursor{feed: origin, next: 1}
		}
	}
	return ing
}

// Status returns a snapshot of the cumulative counters.
func (ing *Ingester) Status() Status {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.status
}

// RunOnce performs one ingest round: ask each network's change feed
// what changed since the last completed round, fetch and diff either
// what the feeds name or — when no cursor it holds can answer, and on
// every fullEvery-th round — the whole remote catalog, apply the delta
// to graph and index, and invalidate exactly the cache state the delta
// can change. A round that cannot complete its fetch aborts whole,
// changes nothing and keeps the feed cursors, so the next round sees
// its changes again. The returned report describes what was applied.
func (ing *Ingester) RunOnce(ctx context.Context) (RoundReport, error) {
	start := time.Now()
	var tr *telemetry.Trace
	if ing.cfg.Tracer != nil {
		_, tr = ing.cfg.Tracer.Start(ctx, "ingest-round", "")
		defer tr.Finish()
	}

	delta, rep, views, err := ing.read(tr)
	if err != nil {
		return ing.abort(tr, err)
	}
	mCatalog.Set(float64(rep.Catalog))
	rep.Adds, rep.Updates, rep.Removes = len(delta.Adds), len(delta.Updates), len(delta.Removes)
	if !delta.Empty() {
		sp := tr.StartSpan("ingest_apply")
		plan, err := ing.planApply(delta)
		if err != nil {
			sp.End()
			return ing.abort(tr, err)
		}
		ing.apply(delta, plan)
		sp.SetAttrInt("analysed_texts", plan.analysed)
		sp.SetAttrInt("removed_by_id", plan.removed)
		sp.End()

		sp = tr.StartSpan("ingest_invalidate")
		rep.CacheDropped, rep.FullPurge = ing.invalidate(plan)
		sp.End()
	}
	rep.Duration = time.Since(start)
	for _, v := range views {
		ing.cursors[v.Network] = cursor{feed: v.Feed, next: v.Next}
	}
	if rep.Full {
		ing.sinceFull = 0
	} else {
		ing.sinceFull++
	}

	mRounds.Inc()
	mAdds.Add(float64(rep.Adds))
	mUpdates.Add(float64(rep.Updates))
	mRemoves.Add(float64(rep.Removes))
	if rep.FullPurge {
		mFullPurges.Inc()
	}
	mRoundSeconds.Observe(rep.Duration.Seconds())

	ing.mu.Lock()
	ing.status.Rounds++
	ing.status.Adds += rep.Adds
	ing.status.Updates += rep.Updates
	ing.status.Removes += rep.Removes
	ing.status.CacheDropped += rep.CacheDropped
	if rep.FullPurge {
		ing.status.FullPurges++
	}
	ing.status.LastError = ""
	ing.status.Last = rep
	ing.mu.Unlock()

	tr.SetAttr("adds", strconv.Itoa(rep.Adds))
	tr.SetAttr("updates", strconv.Itoa(rep.Updates))
	tr.SetAttr("removes", strconv.Itoa(rep.Removes))
	if ing.cfg.Logger != nil {
		ing.cfg.Logger.Info("ingest round",
			"full", rep.Full, "full_reason", string(rep.FullReason), "catalog", rep.Catalog,
			"adds", rep.Adds, "updates", rep.Updates, "removes", rep.Removes,
			"cache_dropped", rep.CacheDropped, "full_purge", rep.FullPurge,
			"duration", rep.Duration)
	}
	return rep, nil
}

// read is a round's read half: ask the change feeds, fetch, and diff.
// It returns the delta, a report with Full, FullReason and Catalog
// set, and the feed views whose cursors commit when the round
// completes; it changes nothing but the trace.
func (ing *Ingester) read(tr *telemetry.Trace) (Delta, RoundReport, []*faults.ChangeView, error) {
	sp := tr.StartSpan("ingest_fetch")
	views, reason, err := ing.changes()
	full := reason != ""
	var cat Catalog
	var changed []socialgraph.ResourceID
	switch {
	case err != nil:
	case full:
		known := make([]socialgraph.ContainerID, ing.cfg.Graph.NumContainers())
		for i := range known {
			known[i] = socialgraph.ContainerID(i)
		}
		cat, err = FetchCatalog(ing.cfg.API, ing.retryer, known)
	default:
		cat, changed, err = fetchChanged(ing.cfg.API, ing.retryer, views)
	}
	sp.End()
	if err != nil {
		return Delta{}, RoundReport{}, nil, err
	}
	if full {
		tr.SetAttr("fetch", "full")
		tr.SetAttr("full_reason", string(reason))
	} else {
		tr.SetAttr("fetch", "scoped")
	}

	sp = tr.StartSpan("ingest_diff")
	var delta Delta
	if full {
		delta, err = Diff(ing.cfg.Graph, cat)
	} else {
		delta, err = DiffScoped(ing.cfg.Graph, cat, changed)
	}
	sp.End()
	return delta, RoundReport{Full: full, FullReason: reason, Catalog: len(cat)}, views, err
}

// changes asks every network's change feed what changed since its
// cursor, before the round fetches anything: a change the fetch then
// observes is reported again next round, never lost. A non-empty
// reason says the round must fetch the whole catalog instead: a
// network has no cursor, a feed names another source than its
// cursor's, a feed cannot answer its cursor, or the round is a
// periodic full one, checked in that order. A failed feed call fails
// the round.
func (ing *Ingester) changes() (views []*faults.ChangeView, reason FullReason, err error) {
	var noCursor, foreign, expired bool
	for _, net := range socialgraph.Networks {
		c := ing.cursors[net]
		v, err := retried(ing.retryer, func() (*faults.ChangeView, error) {
			return ing.cfg.API.ChangedSince(net, c.next)
		})
		if err != nil {
			return nil, "", fmt.Errorf("ingest: change feed on %s: %w", net, err)
		}
		noCursor = noCursor || c.next == 0
		foreign = foreign || v.Feed != c.feed
		expired = expired || v.Expired
		views = append(views, v)
	}
	switch {
	case noCursor:
		reason = NoCursor
	case foreign:
		reason = ForeignFeed
	case expired:
		reason = Expired
	case ing.sinceFull >= fullEvery-1:
		reason = Periodic
	}
	return views, reason, nil
}

func (ing *Ingester) abort(tr *telemetry.Trace, err error) (RoundReport, error) {
	mAborts.Inc()
	tr.Keep("ingest-abort")
	tr.SetAttr("error", err.Error())
	ing.mu.Lock()
	ing.status.Aborts++
	ing.status.LastError = err.Error()
	ing.mu.Unlock()
	if ing.cfg.Logger != nil {
		ing.cfg.Logger.Warn("ingest round aborted", "error", err)
	}
	return RoundReport{}, err
}

// dim encodes one index dimension — a stemmed term or a knowledge-base
// entity — as a string key for invalidation set arithmetic.
func termDim(t string) string        { return "t:" + t }
func entityDim(e kb.EntityID) string { return "e:" + strconv.Itoa(int(e)) }
func analyzedDims(a analysis.Analyzed) []string {
	out := make([]string, 0, len(a.Terms)+len(a.Entities))
	for t := range a.Terms {
		out = append(out, termDim(t))
	}
	for e := range a.Entities {
		out = append(out, entityDim(e))
	}
	return out
}

// applyPlan is everything planApply precomputes from the pre-mutation
// graph: the index delta, the add validation, and the invalidation
// inputs.
type applyPlan struct {
	idx index.Delta
	// fillers are tombstone placeholders for remote IDs that were
	// created and deleted between rounds: the installed graph appends
	// and immediately removes a resource so positional IDs stay
	// aligned with the remote's.
	fillers map[socialgraph.ResourceID]socialgraph.Resource
	// nChanged reports whether the indexed document count changes:
	// every IRF weight moves with N, so no cached result survives.
	nChanged bool
	// affectedDims are the dimensions whose posting lists change;
	// dfChangedDims is the subset whose document frequency changes
	// (their query weights move for every cached need that uses them).
	affectedDims  map[string]bool
	dfChangedDims map[string]bool
	// touchedDocs are the updated documents whose postings change —
	// the docs whose reachability decides which groups are affected.
	touchedDocs []socialgraph.ResourceID
	// analysed counts the texts the round analysed; removed counts the
	// indexed documents the index delta removes by id, the updated ones
	// included.
	analysed, removed int
}

// planApply validates the delta against the installed graph and
// precomputes the index delta and invalidation inputs, reading the
// pre-mutation state. It performs no mutation, so an invalid delta
// aborts the round with the graph untouched. The adds are validated
// before anything is analysed; then one Pipeline.Batch analyses every
// text the round needs on all cores: the updated resources' new texts
// and the adds'. A removal is an id, so no removed or replaced text is
// analysed again, except an indexed update's old text when a cache
// needs its posting diff.
func (ing *Ingester) planApply(d Delta) (*applyPlan, error) {
	g, pipe := ing.cfg.Graph, ing.cfg.Pipe
	plan := &applyPlan{
		fillers:       make(map[socialgraph.ResourceID]socialgraph.Resource),
		affectedDims:  make(map[string]bool),
		dfChangedDims: make(map[string]bool),
	}

	numUsers, numContainers := g.NumUsers(), g.NumContainers()
	expect := socialgraph.ResourceID(g.NumResources())
	for _, r := range d.Adds {
		if r.ID < expect {
			return nil, fmt.Errorf("ingest: add %d out of order (expected ≥ %d)", r.ID, expect)
		}
		for expect < r.ID {
			// A remote ID we never saw alive: created and deleted
			// between rounds. Reserve the slot with a filler tombstone
			// so subsequent IDs stay aligned.
			plan.fillers[expect] = socialgraph.Resource{
				Network: r.Network, Kind: socialgraph.KindPost,
				Creator: r.Creator, Container: socialgraph.NoContainer,
			}
			expect++
		}
		if int(r.Creator) < 0 || int(r.Creator) >= numUsers {
			return nil, fmt.Errorf("ingest: add %d has unknown creator %d", r.ID, r.Creator)
		}
		switch {
		case r.Kind == socialgraph.KindContainerDesc:
			return nil, fmt.Errorf("ingest: add %d is a container description (container creation is outside the delta protocol)", r.ID)
		case r.Kind == socialgraph.KindProfile:
			if r.Container != socialgraph.NoContainer {
				return nil, fmt.Errorf("ingest: profile add %d inside container %d", r.ID, r.Container)
			}
			if _, ok := g.Profile(r.Creator, r.Network); ok {
				return nil, fmt.Errorf("ingest: profile add %d for user %d on %s, which already has one", r.ID, r.Creator, r.Network)
			}
		case r.Container != socialgraph.NoContainer:
			if int(r.Container) < 0 || int(r.Container) >= numContainers {
				return nil, fmt.Errorf("ingest: add %d references unknown container %d", r.ID, r.Container)
			}
			if net := g.Container(r.Container).Network; net != r.Network {
				return nil, fmt.Errorf("ingest: add %d on %s inside %s container %d", r.ID, r.Network, net, r.Container)
			}
		}
		expect++
	}

	// diff: a cache's exact scoped invalidation needs the posting diff.
	ix, diff := ing.cfg.Index, ing.cfg.Cache != nil
	for _, id := range d.Removes {
		if ix.Has(id) {
			plan.idx.Removes = append(plan.idx.Removes, index.Doc{ID: id})
		}
	}
	indexed := make([]bool, len(d.Updates))
	texts := make([]socialgraph.Resource, 0, 2*len(d.Updates)+len(d.Adds))
	texts = append(append(texts, d.Updates...), d.Adds...)
	for i, r := range d.Updates {
		if indexed[i] = ix.Has(r.ID); indexed[i] && diff {
			texts = append(texts, g.Resource(r.ID))
		}
	}
	res := pipe.Batch(len(texts), func(i int) (string, []string, bool) {
		return texts[i].Text, texts[i].URLs, true
	})
	plan.analysed = len(texts)
	mAnalysed.Add(float64(len(texts)))
	olds := res[len(d.Updates)+len(d.Adds):]

	dfNet := make(map[string]int)
	for i, r := range d.Updates {
		var old analysis.Result
		if indexed[i] && diff {
			old, olds = olds[0], olds[1:]
		}
		switch cur := res[i]; {
		case indexed[i] && cur.OK:
			plan.idx.Updates = append(plan.idx.Updates, index.DocUpdate{ID: r.ID, New: cur.A})
			if !diff {
				break
			}
			if dims := postingDiff(old.A, cur.A, dfNet); len(dims) > 0 {
				for _, dim := range dims {
					plan.affectedDims[dim] = true
				}
				plan.touchedDocs = append(plan.touchedDocs, r.ID)
			}
		case indexed[i]:
			plan.idx.Removes = append(plan.idx.Removes, index.Doc{ID: r.ID})
		case cur.OK:
			plan.idx.Adds = append(plan.idx.Adds, index.Doc{ID: r.ID, A: cur.A})
		}
	}
	res = res[len(d.Updates):]
	for i, r := range d.Adds {
		if res[i].OK {
			plan.idx.Adds = append(plan.idx.Adds, index.Doc{ID: r.ID, A: res[i].A})
		}
	}
	plan.removed = len(plan.idx.Removes) + len(plan.idx.Updates)

	plan.nChanged = len(plan.idx.Adds) > 0 || len(plan.idx.Removes) > 0
	for dim, net := range dfNet {
		if net != 0 {
			plan.dfChangedDims[dim] = true
		}
	}
	return plan, nil
}

// postingDiff returns the dimensions whose posting for this document
// differs between old and new, and accumulates each dimension's net
// document-frequency movement into dfNet (+1 gained, −1 lost; a tf or
// dScore change alone moves the posting but not the df).
func postingDiff(old, new analysis.Analyzed, dfNet map[string]int) []string {
	var dims []string
	for t, tf := range old.Terms {
		ntf, ok := new.Terms[t]
		if !ok {
			dfNet[termDim(t)]--
			dims = append(dims, termDim(t))
		} else if ntf != tf {
			dims = append(dims, termDim(t))
		}
	}
	for t := range new.Terms {
		if _, ok := old.Terms[t]; !ok {
			dfNet[termDim(t)]++
			dims = append(dims, termDim(t))
		}
	}
	for e, st := range old.Entities {
		nst, ok := new.Entities[e]
		if !ok {
			dfNet[entityDim(e)]--
			dims = append(dims, entityDim(e))
		} else if nst != st {
			dims = append(dims, entityDim(e))
		}
	}
	for e := range new.Entities {
		if _, ok := old.Entities[e]; !ok {
			dfNet[entityDim(e)]++
			dims = append(dims, entityDim(e))
		}
	}
	return dims
}

// apply mutates the installed graph, then flips the index atomically,
// then brings the finders' cached reachability tables current: a round
// changes records, never edges, so each table is patched from the
// graph's change journal, not rebuilt. A query overlapping an
// update-only round always observes either the complete pre-delta or
// the complete post-delta ranking (updates leave reachability alone
// and ApplyDelta is atomic). A query overlapping an add/remove round
// may additionally observe the post-delta corpus before the new
// resources are attributed to candidates — never torn per-document
// state.
func (ing *Ingester) apply(d Delta, plan *applyPlan) {
	g := ing.cfg.Graph
	for _, id := range d.Removes {
		g.RemoveResource(id)
	}
	for _, r := range d.Updates {
		g.SetResourceText(r.ID, r.Text, r.URLs...)
	}
	next := socialgraph.ResourceID(g.NumResources())
	for _, r := range d.Adds {
		for next < r.ID {
			f := plan.fillers[next]
			got := g.AddResource(f.Network, f.Kind, f.Creator, "")
			g.RemoveResource(got)
			next++
		}
		var got socialgraph.ResourceID
		switch {
		case r.Kind == socialgraph.KindProfile:
			got = g.SetProfile(r.Creator, r.Network, r.Text, r.URLs...)
		case r.Container != socialgraph.NoContainer:
			got = g.AddContainedResource(r.Kind, r.Container, r.Creator, r.Text, r.URLs...)
		default:
			got = g.AddResource(r.Network, r.Kind, r.Creator, r.Text, r.URLs...)
		}
		if got != r.ID {
			panic(fmt.Sprintf("ingest: add landed on id %d, want %d (planApply must pre-validate alignment)", got, r.ID))
		}
		next++
	}
	ing.cfg.Index.ApplyDelta(plan.idx)
	for _, f := range ing.cfg.Finders {
		f.CatchUp()
	}
}

// widestTraversal over-approximates every traversal a finder can be
// queried with: any resource unreachable under it is unreachable
// under any TraversalOptions.
var widestTraversal = socialgraph.TraversalOptions{MaxDistance: 2, IncludeFriends: true}

// invalidate drops exactly the cached results the applied delta can
// change, and reports (entries dropped, whether the whole cache was
// purged).
//
// Soundness, from the scoring model (Eq. 1–3): a cached ranking for
// need q over group G is a function of (N, df of q's dims, the
// posting lists of q's dims, G's reachability table). Therefore:
//
//   - if N changed, every IRF weight moved: purge everything;
//   - else if q's dims miss every changed posting list, nothing the
//     ranking reads moved (update-only deltas leave reachability
//     intact): keep;
//   - else if q's dims hit a dimension whose df moved, q's query
//     weights moved: drop regardless of group;
//   - else the damage is confined to the updated documents' scores,
//     which only surface for groups that can reach one of them: drop
//     iff G reaches a touched document under the widest traversal
//     (an over-approximation of every queryable traversal, read from
//     the finder's own cached table, which apply has brought current),
//     or G is not one of the configured finders' groups (unprovable:
//     drop).
func (ing *Ingester) invalidate(plan *applyPlan) (dropped int, fullPurge bool) {
	cache := ing.cfg.Cache
	if cache == nil {
		return 0, false
	}
	if plan.nChanged {
		return cache.InvalidateMatching(func(core.CacheKey) bool { return true }), true
	}
	if len(plan.affectedDims) == 0 {
		return 0, false
	}

	groupTouched := make(map[string]bool, len(ing.cfg.Finders))
	for _, f := range ing.cfg.Finders {
		reach := f.ReachTable(widestTraversal)
		touched := false
		for _, id := range plan.touchedDocs {
			if reach.Reaches(id) {
				touched = true
				break
			}
		}
		groupTouched[f.Pool().Group()] = touched
	}

	needDims := make(map[string][]string)
	dimsOf := func(need string) []string {
		if dims, ok := needDims[need]; ok {
			return dims
		}
		dims := analyzedDims(ing.cfg.Pipe.AnalyzeNeed(need))
		needDims[need] = dims
		return dims
	}
	hits := func(dims []string, set map[string]bool) bool {
		for _, d := range dims {
			if set[d] {
				return true
			}
		}
		return false
	}
	return cache.InvalidateMatching(func(k core.CacheKey) bool {
		dims := dimsOf(k.Need)
		if !hits(dims, plan.affectedDims) {
			return false
		}
		if hits(dims, plan.dfChangedDims) {
			return true
		}
		touched, known := groupTouched[k.Group]
		return !known || touched
	}), false
}
