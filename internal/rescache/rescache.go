// Package rescache is the query-result cache of the serving path: a
// bounded, sharded LRU cache over ranked Find results with
// singleflight request coalescing, generation-based invalidation and
// scoped invalidation for ingest deltas.
//
// The paper's workload is read-dominated — the same expertise needs
// recur against a corpus that only changes on swap or ingest — so the
// hot serving path fronts core.Finder with this cache: repeated
// queries are answered from memory, and N concurrent identical
// queries cost exactly one scoring pass (the followers coalesce onto
// the leader's computation).
//
// Correctness rests on four properties:
//
//   - Keys are sound. A cache key combines the normalized need text,
//     the candidate-pool fingerprint, the Params fingerprint (every
//     knob that can change the ranking; see core.Params.Fingerprint)
//     and the corpus generation. Two queries with equal keys are
//     guaranteed byte-identical rankings, so a hit is
//     indistinguishable from a cold score — proven by the
//     differential tests in this package.
//
//   - Generations fence corpus swaps. Attach binds a view of the
//     cache to one corpus: it advances the generation counter, purges
//     the previous generation's entries, and pins the view to the new
//     generation. A view left over from a replaced corpus can still
//     read nothing (its generation's entries are purged) and can
//     never store (stores from non-current generations are dropped),
//     so a stale corpus cannot serve or poison rankings.
//
//   - Deltas are scoped. An ingest delta drops only the entries whose
//     key it touches (InvalidateMatching), and fences the leaders
//     computing while it ran. A ranking changes only through a corpus
//     install or removal or a delta, so an entry never expires: it
//     stays until one of those drops it or the LRU bound evicts it.
//
//   - Eviction is bounded and observable. Capacity is divided across
//     shards, each evicting least-recently-used entries past its
//     budget. Hits, misses, coalesced waits, evictions and
//     invalidations all land in the telemetry registry.
package rescache

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"expertfind/internal/core"
	"expertfind/internal/telemetry"
)

// Cache metrics. The entries gauge tracks deltas, so several caches
// in one process sum to the true total.
var (
	mHits = telemetry.Default().Counter(
		"expertfind_rescache_hits_total",
		"Find queries answered from the result cache.")
	mMisses = telemetry.Default().Counter(
		"expertfind_rescache_misses_total",
		"Find queries that ran a scoring pass and filled the result cache.")
	mCoalesced = telemetry.Default().Counter(
		"expertfind_rescache_coalesced_total",
		"Find queries that waited on an identical in-flight query instead of scoring.")
	mEvictions = telemetry.Default().Counter(
		"expertfind_rescache_evictions_total",
		"Result-cache entries evicted by the LRU capacity bound.")
	mInvalidations = telemetry.Default().Counter(
		"expertfind_rescache_invalidations_total",
		"Result-cache entries purged by a generation change (corpus build or swap).")
	mGenerations = telemetry.Default().Counter(
		"expertfind_rescache_generations_total",
		"Corpus generation advances observed by the result cache.")
	mScopedInvalidations = telemetry.Default().Counter(
		"expertfind_rescache_scoped_invalidations_total",
		"Scoped invalidation passes run against the result cache (ingest deltas).")
	mScopedDropped = telemetry.Default().Counter(
		"expertfind_rescache_scoped_dropped_total",
		"Result-cache entries dropped by scoped (predicate) invalidation.")
	mEntries = telemetry.Default().Gauge(
		"expertfind_rescache_entries",
		"Result-cache entries currently resident.")
)

// Options configures a Cache. The zero value selects the defaults
// noted per field.
type Options struct {
	// Capacity bounds the total entry count across all shards
	// (default 1024). The bound is enforced per shard (capacity is
	// split evenly), so worst-case occupancy never exceeds it.
	Capacity int
	// Shards is the lock-striping factor, rounded up to a power of
	// two (default 8). More shards reduce contention between
	// concurrent distinct queries.
	Shards int
}

// Cache is the sharded result cache. Construct with New; all methods
// are safe for concurrent use. A Cache is not used directly as a
// finder hook — Attach binds a generation-pinned View first.
type Cache struct {
	gen atomic.Uint64
	// epoch advances on every scoped invalidation. Leaders snapshot it
	// before computing and drop their store if it moved: a computation
	// that overlapped a delta may hold a pre-delta ranking, and unlike a
	// generation change the key namespace stays the same, so the store
	// itself must be fenced.
	epoch  atomic.Uint64
	shards []*shard
}

type shard struct {
	mu       sync.Mutex
	cap      int
	lru      *list.List // front = most recently used; holds *entry
	byKey    map[genKey]*list.Element
	inflight map[genKey]*call
}

// genKey is a cache key scoped to the generation it was computed under.
type genKey struct {
	gen uint64
	core.CacheKey
}

type entry struct {
	key genKey
	val *core.Ranking
}

// call is one in-flight computation; followers block on done and read
// val afterwards. val stays nil when the leader's compute panicked.
type call struct {
	done chan struct{}
	val  *core.Ranking
}

// New returns an empty cache. See Options for the defaults.
func New(opts Options) *Cache {
	if opts.Capacity <= 0 {
		opts.Capacity = 1024
	}
	nshards := 1
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	for nshards < opts.Shards {
		nshards <<= 1
	}
	if nshards > opts.Capacity {
		// Never let striping inflate per-shard capacity above the
		// requested total for tiny caches.
		nshards = 1
	}
	perShard := (opts.Capacity + nshards - 1) / nshards
	c := &Cache{shards: make([]*shard, nshards)}
	for i := range c.shards {
		c.shards[i] = &shard{
			cap:      perShard,
			lru:      list.New(),
			byKey:    make(map[genKey]*list.Element),
			inflight: make(map[genKey]*call),
		}
	}
	return c
}

// View is a generation-pinned handle on a Cache, implementing
// core.RankingCache. Obtain one from Attach when installing a corpus;
// a View outliving its generation (because a newer corpus attached)
// keeps answering compute results but neither reads nor writes cache
// state, so it can never leak rankings across corpora.
type View struct {
	c   *Cache
	gen uint64
}

// Attach advances the cache to a new corpus generation: the previous
// generation's entries are purged and a View pinned to the new
// generation is returned, ready to install with
// core.Finder.SetResultCache. Call it exactly once per corpus build
// or swap.
func (c *Cache) Attach() *View {
	gen := c.gen.Add(1)
	mGenerations.Inc()
	c.purge()
	return &View{c: c, gen: gen}
}

// Invalidate advances the generation and purges all entries without
// attaching a corpus — the serving layer calls it when a corpus is
// removed (swap to not-ready), so any surviving views go inert.
func (c *Cache) Invalidate() {
	c.gen.Add(1)
	mGenerations.Inc()
	c.purge()
}

// InvalidateMatching drops the resident entries whose structured key
// matches pred and returns how many were dropped, without advancing
// the corpus generation: untouched entries keep serving hits across an
// ingest delta — the scoped alternative to the all-or-nothing purge of
// Attach/Invalidate. In-flight computations that began before the call
// have their stores dropped (they may hold pre-delta rankings), so a
// delta can never poison the cache through a slow leader. pred runs
// under shard locks and must not call back into the cache.
func (c *Cache) InvalidateMatching(pred func(core.CacheKey) bool) int {
	c.epoch.Add(1)
	mScopedInvalidations.Inc()
	dropped := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		var next *list.Element
		for el := sh.lru.Front(); el != nil; el = next {
			next = el.Next()
			if pred(el.Value.(*entry).key.CacheKey) {
				sh.removeLocked(el)
				dropped++
			}
		}
		sh.mu.Unlock()
	}
	if dropped > 0 {
		mScopedDropped.Add(float64(dropped))
	}
	return dropped
}

// Generation returns the current corpus generation.
func (c *Cache) Generation() uint64 { return c.gen.Load() }

// Len returns the resident entry count across all shards.
func (c *Cache) Len() int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// purge drops every resident entry, counting them as invalidations.
func (c *Cache) purge() {
	for _, sh := range c.shards {
		sh.mu.Lock()
		n := sh.lru.Len()
		sh.lru.Init()
		clear(sh.byKey)
		sh.mu.Unlock()
		if n > 0 {
			mInvalidations.Add(float64(n))
			mEntries.Add(-float64(n))
		}
	}
}

// GetOrCompute implements core.ResultCache for the view's generation:
// GetRanking, and a copy of the ranking the caller may write.
func (v *View) GetOrCompute(key core.CacheKey, compute func() []core.ExpertScore) ([]core.ExpertScore, core.CacheStatus) {
	r, status := v.GetRanking(key, compute)
	return slices.Clone(r.Scores), status
}

// GetRanking implements core.RankingCache for the view's generation.
// The Ranking it returns is the entry's own, shared by the leader that
// computed it, its coalesced followers and every later hit: no caller
// may write it.
func (v *View) GetRanking(key core.CacheKey, compute func() []core.ExpertScore) (*core.Ranking, core.CacheStatus) {
	return v.c.getOrCompute(v.gen, key, compute)
}

func (c *Cache) shard(k genKey) *shard {
	if len(c.shards) == 1 {
		return c.shards[0]
	}
	// FNV-1a over the generation and the key's strings, so that one
	// request stream spreads over the shards alike in every process.
	h := uint32(2166136261) ^ uint32(k.gen)
	for _, s := range [3]string{k.Group, k.Params, k.Need} {
		for i := 0; i < len(s); i++ {
			h = (h ^ uint32(s[i])) * 16777619
		}
	}
	return c.shards[int(h)&(len(c.shards)-1)]
}

func (c *Cache) getOrCompute(gen uint64, key core.CacheKey, compute func() []core.ExpertScore) (*core.Ranking, core.CacheStatus) {
	k := genKey{gen, key}
	sh := c.shard(k)

	sh.mu.Lock()
	for {
		if el, ok := sh.byKey[k]; ok {
			sh.lru.MoveToFront(el)
			val := el.Value.(*entry).val
			sh.mu.Unlock()
			mHits.Inc()
			return val, core.CacheHit
		}
		cl, ok := sh.inflight[k]
		if !ok {
			break
		}
		sh.mu.Unlock()
		<-cl.done
		if cl.val != nil {
			mCoalesced.Inc()
			return cl.val, core.CacheCoalesced
		}
		// The leader panicked before it had a ranking: look again, and
		// lead the computation if no other follower took it over first.
		sh.mu.Lock()
	}
	cl := &call{done: make(chan struct{})}
	sh.inflight[k] = cl
	sh.mu.Unlock()
	epoch := c.epoch.Load()

	// The leader computes outside the shard lock, then publishes. The
	// deferred cleanup also runs if compute panics: the panic goes on
	// up the leader's stack (in the serving path, to its 500), and its
	// followers, finding no ranking, look the key up again.
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, k)
		sh.mu.Unlock()
		close(cl.done)
	}()
	cl.val = &core.Ranking{Scores: compute()}

	// Stores from a superseded generation are dropped: the entries
	// would be unreachable (lookups use the current generation) yet
	// would occupy capacity until evicted. The epoch re-check runs
	// under the shard lock so it orders against InvalidateMatching's
	// walk of the same shard: the entry is either present for the walk
	// to judge, or dropped here because the epoch already moved.
	if gen == c.gen.Load() {
		sh.mu.Lock()
		if _, ok := sh.byKey[k]; !ok && epoch == c.epoch.Load() {
			sh.byKey[k] = sh.lru.PushFront(&entry{key: k, val: cl.val})
			mEntries.Inc()
			for sh.lru.Len() > sh.cap {
				sh.removeLocked(sh.lru.Back())
				mEvictions.Inc()
			}
		}
		sh.mu.Unlock()
	}
	mMisses.Inc()
	return cl.val, core.CacheMiss
}

// removeLocked unlinks an entry; the caller holds the shard lock and
// accounts the reason (eviction, scoped invalidation) itself.
func (sh *shard) removeLocked(el *list.Element) {
	e := sh.lru.Remove(el).(*entry)
	delete(sh.byKey, e.key)
	mEntries.Dec()
}
