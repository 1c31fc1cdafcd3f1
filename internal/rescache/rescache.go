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
	"hash/fnv"
	"strconv"
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
	byKey    map[string]*list.Element
	inflight map[string]*call
}

type entry struct {
	key  string
	ckey core.CacheKey // structured form, for scoped invalidation predicates
	val  []core.ExpertScore
}

// call is one in-flight computation; followers block on done and read
// val afterwards.
type call struct {
	done chan struct{}
	val  []core.ExpertScore
	// waiters counts the followers blocked on done, under the shard lock.
	waiters int
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
			byKey:    make(map[string]*list.Element),
			inflight: make(map[string]*call),
		}
	}
	return c
}

// View is a generation-pinned handle on a Cache, implementing
// core.ResultCache. Obtain one from Attach when installing a corpus;
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
			if pred(el.Value.(*entry).ckey) {
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

// GetOrCompute implements core.ResultCache for the view's generation.
func (v *View) GetOrCompute(key core.CacheKey, compute func() []core.ExpertScore) ([]core.ExpertScore, core.CacheStatus) {
	return v.c.getOrCompute(v.gen, key, compute)
}

// keyString flattens (generation, key) into the map key, separated by
// 0x1f (unit separator). The generation, group and params components
// are system-generated and never contain 0x1f; the need — the only
// caller-controlled component — goes last, so a need embedding the
// separator can only extend its own component, never collide with a
// key built from different group or params values.
func keyString(gen uint64, key core.CacheKey) string {
	return strconv.FormatUint(gen, 10) + "\x1f" + key.Group + "\x1f" + key.Params + "\x1f" + key.Need
}

func (c *Cache) shard(k string) *shard {
	h := fnv.New32a()
	h.Write([]byte(k))
	return c.shards[int(h.Sum32())&(len(c.shards)-1)]
}

func (c *Cache) getOrCompute(gen uint64, key core.CacheKey, compute func() []core.ExpertScore) ([]core.ExpertScore, core.CacheStatus) {
	k := keyString(gen, key)
	sh := c.shard(k)

	sh.mu.Lock()
	if el, ok := sh.byKey[k]; ok {
		sh.lru.MoveToFront(el)
		val := el.Value.(*entry).val
		sh.mu.Unlock()
		mHits.Inc()
		return cloneScores(val), core.CacheHit
	}
	if cl, ok := sh.inflight[k]; ok {
		cl.waiters++
		sh.mu.Unlock()
		<-cl.done
		mCoalesced.Inc()
		return cloneScores(cl.val), core.CacheCoalesced
	}
	cl := &call{done: make(chan struct{})}
	sh.inflight[k] = cl
	sh.mu.Unlock()
	epoch := c.epoch.Load()

	// The leader computes outside the shard lock, then publishes. The
	// deferred cleanup also runs if compute panics: followers then
	// observe a nil result while the panic propagates on the leader
	// (and, in the serving path, becomes its 500).
	defer func() {
		sh.mu.Lock()
		delete(sh.inflight, k)
		// The leader's caller owns the slice it is about to receive and
		// may write to it; followers read a copy made before it can.
		if cl.waiters > 0 {
			cl.val = cloneScores(cl.val)
		}
		sh.mu.Unlock()
		close(cl.done)
	}()
	cl.val = compute()

	// Stores from a superseded generation are dropped: the entries
	// would be unreachable (lookups use the current generation) yet
	// would occupy capacity until evicted. The epoch re-check runs
	// under the shard lock so it orders against InvalidateMatching's
	// walk of the same shard: the entry is either present for the walk
	// to judge, or dropped here because the epoch already moved.
	if gen == c.gen.Load() {
		sh.mu.Lock()
		if _, ok := sh.byKey[k]; !ok && epoch == c.epoch.Load() {
			sh.byKey[k] = sh.lru.PushFront(&entry{key: k, ckey: key, val: cloneScores(cl.val)})
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

// cloneScores copies a ranking so callers can truncate or reslice
// their result without aliasing the cached value (ExpertScore is a
// value type; a shallow copy fully detaches).
func cloneScores(s []core.ExpertScore) []core.ExpertScore {
	if s == nil {
		return nil
	}
	out := make([]core.ExpertScore, len(s))
	copy(out, s)
	return out
}
