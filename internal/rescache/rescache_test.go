package rescache_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expertfind"
	"expertfind/internal/core"
	"expertfind/internal/rescache"
)

// scores builds a distinguishable ranking for a key.
func scores(n int) []core.ExpertScore {
	out := make([]core.ExpertScore, 1)
	out[0] = core.ExpertScore{User: 1, Score: float64(n), Resources: n}
	return out
}

// get runs one lookup, counting computes.
func get(t *testing.T, v *rescache.View, need string, n *int) core.CacheStatus {
	t.Helper()
	_, st := v.GetOrCompute(core.CacheKey{Need: need, Group: "g", Params: "p"}, func() []core.ExpertScore {
		*n++
		return scores(len(need))
	})
	return st
}

func TestLRUEvictionOrder(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 3, Shards: 1})
	v := c.Attach()
	computes := 0

	for _, need := range []string{"a", "b", "c"} {
		if st := get(t, v, need, &computes); st != core.CacheMiss {
			t.Fatalf("first %q: status %q, want miss", need, st)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	// Touch "a" so "b" becomes least recently used, then overflow.
	if st := get(t, v, "a", &computes); st != core.CacheHit {
		t.Fatalf("touch a: status %q, want hit", st)
	}
	if st := get(t, v, "d", &computes); st != core.CacheMiss {
		t.Fatalf("insert d: status %q, want miss", st)
	}
	if c.Len() != 3 {
		t.Fatalf("Len after eviction = %d, want 3", c.Len())
	}
	// "b" was evicted; "a", "c", "d" survive.
	if st := get(t, v, "b", &computes); st != core.CacheMiss {
		t.Fatalf("b after eviction: status %q, want miss", st)
	}
	for _, need := range []string{"a", "d"} {
		if st := get(t, v, need, &computes); st != core.CacheHit {
			t.Fatalf("%q after eviction: status %q, want hit", need, st)
		}
	}
	// a,b,c,d cold + b recomputed.
	if computes != 5 {
		t.Fatalf("computes = %d, want 5", computes)
	}
}

func TestGenerationInvalidation(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 8})
	v1 := c.Attach()
	computes := 0

	get(t, v1, "q", &computes)
	if st := get(t, v1, "q", &computes); st != core.CacheHit {
		t.Fatalf("gen1 reread: status %q, want hit", st)
	}

	v2 := c.Attach()
	if c.Len() != 0 {
		t.Fatalf("Len after re-attach = %d, want 0 (purged)", c.Len())
	}
	if st := get(t, v2, "q", &computes); st != core.CacheMiss {
		t.Fatalf("gen2 first read: status %q, want miss", st)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}

	// The stale view still answers (compute result) but can neither
	// read the new generation's entries nor store its own.
	for i := 0; i < 2; i++ {
		if st := get(t, v1, "q", &computes); st != core.CacheMiss {
			t.Fatalf("stale view read %d: status %q, want miss", i, st)
		}
	}
	if c.Len() != 1 {
		t.Fatalf("Len after stale stores = %d, want 1 (stale store dropped)", c.Len())
	}
	if st := get(t, v2, "q", &computes); st != core.CacheHit {
		t.Fatalf("gen2 reread: status %q, want hit", st)
	}

	c.Invalidate()
	if c.Len() != 0 {
		t.Fatalf("Len after Invalidate = %d, want 0", c.Len())
	}
	if st := get(t, v2, "q", &computes); st != core.CacheMiss {
		t.Fatalf("view after Invalidate: status %q, want miss (inert)", st)
	}
	if c.Generation() != 3 {
		t.Fatalf("Generation = %d, want 3", c.Generation())
	}
}

// TestSingleflight gates the leader's compute so all followers must
// coalesce: exactly one scoring pass for ten concurrent identical
// queries.
func TestSingleflight(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 8})
	v := c.Attach()
	key := core.CacheKey{Need: "q", Group: "g", Params: "p"}

	var (
		computes atomic.Int32
		started  = make(chan struct{})
		release  = make(chan struct{})
		entered  atomic.Int32
	)
	compute := func() []core.ExpertScore {
		computes.Add(1)
		close(started)
		<-release
		return scores(7)
	}

	statuses := make(chan core.CacheStatus, 10)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, st := v.GetOrCompute(key, compute)
		statuses <- st
	}()
	<-started // the leader is inside compute and holds the inflight slot

	for i := 0; i < 9; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			entered.Add(1)
			val, st := v.GetOrCompute(key, compute)
			if len(val) != 1 || val[0].Resources != 7 {
				t.Errorf("follower value %v, want leader's", val)
			}
			statuses <- st
		}()
	}
	// Wait until every follower is at most a few instructions from the
	// in-flight check, then give them time to block on it before the
	// leader is allowed to finish.
	for entered.Load() != 9 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	close(statuses)

	counts := map[core.CacheStatus]int{}
	for st := range statuses {
		counts[st]++
	}
	if computes.Load() != 1 {
		t.Fatalf("computes = %d, want 1", computes.Load())
	}
	if counts[core.CacheMiss] != 1 || counts[core.CacheCoalesced] != 9 {
		t.Fatalf("statuses = %v, want 1 miss + 9 coalesced", counts)
	}
}

// TestConcurrentStress exercises hits, misses, coalescing, eviction
// and generation churn under the race detector. Every returned value
// must match its key's compute, whichever path produced it.
func TestConcurrentStress(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 16, Shards: 4})
	var view atomic.Pointer[rescache.View]
	view.Store(c.Attach())

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := (w*31 + i*7) % 24
				key := core.CacheKey{Need: fmt.Sprintf("need-%d", n), Group: "g", Params: "p"}
				val, _ := view.Load().GetOrCompute(key, func() []core.ExpertScore {
					return scores(n)
				})
				if len(val) != 1 || val[0].Resources != n {
					t.Errorf("key %d: got %v", n, val)
					return
				}
				// Mutating the returned slice must not corrupt the cache.
				val[0].Score = -1
				if w == 0 && i%100 == 99 {
					view.Store(c.Attach())
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("Len = %d exceeds capacity 16", c.Len())
	}
}

// TestColdCachedDifferential is the bit-identical-ranking proof: for
// every (seed, shard count, params variant, need), the cold ranking,
// the cache-filling miss, and the subsequent hit must serialize to
// identical bytes — and so must the same query across shard counts,
// preserving the sharded-scoring guarantee through the cache layer.
func TestColdCachedDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full systems")
	}
	needs := []string{
		"why is copper a good conductor?",
		"who is the best at freestyle swimming?",
		"can you list some famous songs of michael jackson?",
	}
	variants := []struct {
		name string
		opts []expertfind.FindOption
	}{
		{"defaults", nil},
		{"alpha0.3-window5", []expertfind.FindOption{expertfind.WithAlpha(0.3), expertfind.WithWindow(5)}},
		{"profiles-only", []expertfind.FindOption{expertfind.WithMaxDistance(0)}},
		{"weights", []expertfind.FindOption{expertfind.WithDistanceWeights(1, 0.5, 0.25)}},
	}
	for _, seed := range []int64{3, 11} {
		// ref[variant/need] is the shards=1 cold ranking; every other
		// configuration and cache path must reproduce it exactly.
		ref := map[string][]byte{}
		for _, shards := range []int{1, 3} {
			sys := expertfind.NewSystem(expertfind.Config{Seed: seed, Scale: 0.05, IndexShards: shards})
			cache := rescache.New(rescache.Options{Capacity: 64})

			for _, v := range variants {
				for _, need := range needs {
					id := fmt.Sprintf("%s/%s", v.name, need)
					sys.SetResultCache(nil)
					cold, err := sys.FindContext(context.Background(), need, v.opts...)
					if err != nil {
						t.Fatalf("seed %d shards %d %s: cold: %v", seed, shards, id, err)
					}
					coldJSON := mustJSON(t, cold)

					sys.SetResultCache(cache.Attach())
					miss, st, err := sys.FindRanking(context.Background(), need, v.opts...)
					if err != nil || st != "miss" {
						t.Fatalf("seed %d shards %d %s: fill: status %q err %v", seed, shards, id, st, err)
					}
					hit, st, err := sys.FindRanking(context.Background(), need, v.opts...)
					if err != nil || st != "hit" {
						t.Fatalf("seed %d shards %d %s: reread: status %q err %v", seed, shards, id, st, err)
					}
					if !bytes.Equal(coldJSON, mustJSON(t, named(sys, miss))) {
						t.Errorf("seed %d shards %d %s: miss differs from cold", seed, shards, id)
					}
					if !bytes.Equal(coldJSON, mustJSON(t, named(sys, hit))) {
						t.Errorf("seed %d shards %d %s: hit differs from cold", seed, shards, id)
					}
					if prev, ok := ref[id]; ok {
						if !bytes.Equal(prev, coldJSON) {
							t.Errorf("seed %d %s: shards %d ranking differs from shards 1", seed, id, shards)
						}
					} else {
						ref[id] = coldJSON
					}
				}
			}
		}
	}
}

// named names a ranking's experts from the system's candidate pool, as
// FindContext does.
func named(sys *expertfind.System, r *core.Ranking) []expertfind.Expert {
	pool := sys.CoreFinder().Pool()
	out := make([]expertfind.Expert, len(r.Scores))
	for i, es := range r.Scores {
		name, _ := pool.Name(es.User)
		out[i] = expertfind.Expert{Name: name, Score: es.Score, SupportingResources: es.Resources}
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// TestTinyCapacityCollapsesShards guards the per-shard capacity math:
// a cache smaller than its shard count must still bound occupancy at
// the requested capacity.
func TestTinyCapacityCollapsesShards(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 2, Shards: 8})
	v := c.Attach()
	computes := 0
	for _, need := range []string{"a", "b", "c", "d", "e"} {
		get(t, v, need, &computes)
	}
	if c.Len() > 2 {
		t.Fatalf("Len = %d, want <= 2", c.Len())
	}
}

// TestInvalidateMatchingScoped checks the scoped-invalidation
// contract: exactly the entries matching the predicate are dropped,
// untouched entries keep serving hits without recomputation, and the
// corpus generation does not move (surviving views stay attached).
func TestInvalidateMatchingScoped(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 16, Shards: 4})
	v := c.Attach()
	computes := 0
	needs := []string{"alpha query", "beta query", "gamma query", "delta query"}
	for _, need := range needs {
		get(t, v, need, &computes)
	}
	gen := c.Generation()

	dropped := c.InvalidateMatching(func(k core.CacheKey) bool {
		return k.Need == "beta query" || k.Need == "delta query"
	})
	if dropped != 2 {
		t.Fatalf("dropped %d entries, want 2", dropped)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after scoped drop, want 2", c.Len())
	}
	if c.Generation() != gen {
		t.Fatalf("generation moved %d -> %d; scoped invalidation must not advance it", gen, c.Generation())
	}

	computes = 0
	if st := get(t, v, "alpha query", &computes); st != core.CacheHit {
		t.Fatalf("untouched entry: %q, want hit", st)
	}
	if st := get(t, v, "gamma query", &computes); st != core.CacheHit {
		t.Fatalf("untouched entry: %q, want hit", st)
	}
	if computes != 0 {
		t.Fatalf("untouched entries recomputed %d times", computes)
	}
	if st := get(t, v, "beta query", &computes); st != core.CacheMiss {
		t.Fatalf("dropped entry: %q, want miss", st)
	}
	if computes != 1 {
		t.Fatalf("dropped entry computed %d times, want 1", computes)
	}
	// The recomputed entry is resident again.
	if st := get(t, v, "beta query", &computes); st != core.CacheHit {
		t.Fatalf("recomputed entry: %q, want hit", st)
	}
}

// TestInvalidateMatchingFencesInFlightStores checks the epoch fence: a
// leader that began computing before a scoped invalidation must not
// publish its (potentially pre-delta) result, even when the predicate
// matched nothing resident — the entry it would store was computed
// from state the invalidation declared stale.
func TestInvalidateMatchingFencesInFlightStores(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 16, Shards: 1})
	v := c.Attach()
	key := core.CacheKey{Need: "fenced", Group: "g", Params: "p"}

	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan core.CacheStatus, 1)
	go func() {
		_, st := v.GetOrCompute(key, func() []core.ExpertScore {
			close(started)
			<-release
			return scores(1)
		})
		done <- st
	}()
	<-started
	if n := c.InvalidateMatching(func(core.CacheKey) bool { return false }); n != 0 {
		t.Fatalf("nothing was resident, yet %d entries dropped", n)
	}
	close(release)
	if st := <-done; st != core.CacheMiss {
		t.Fatalf("leader finished as %q, want miss", st)
	}

	// The leader's store must have been dropped: the next lookup is a
	// fresh miss, and its store (post-invalidation) sticks.
	computes := 0
	if st := get(t, v, "fenced", &computes); st != core.CacheMiss {
		t.Fatalf("post-fence lookup: %q, want miss (stale store must not publish)", st)
	}
	if st := get(t, v, "fenced", &computes); st != core.CacheHit {
		t.Fatalf("post-fence second lookup: %q, want hit", st)
	}
}

// TestFollowerOfPanickedLeaderComputes: a follower coalesced onto a
// leader whose compute panics is never handed an empty ranking. It
// takes the computation over and gets its own ranking (or would get
// its own panic), and the entry it stores serves the next lookup.
func TestFollowerOfPanickedLeaderComputes(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 8, Shards: 1})
	v := c.Attach()
	key := core.CacheKey{Need: "q", Group: "g", Params: "p"}

	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan any, 1)
	go func() {
		defer func() { leaderDone <- recover() }()
		v.GetOrCompute(key, func() []core.ExpertScore {
			close(started)
			<-release
			panic("segment read failed")
		})
	}()
	<-started

	type result struct {
		val []core.ExpertScore
		st  core.CacheStatus
	}
	var computes atomic.Int32
	follower := make(chan result, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		val, st := v.GetOrCompute(key, func() []core.ExpertScore {
			computes.Add(1)
			return scores(7)
		})
		follower <- result{val, st}
	}()
	<-entered
	time.Sleep(50 * time.Millisecond) // let the follower block on the leader
	close(release)
	if p := <-leaderDone; p != "segment read failed" {
		t.Fatalf("leader recovered %v, want its own panic", p)
	}
	got := <-follower
	if len(got.val) != 1 || got.val[0].Resources != 7 {
		t.Fatalf("follower of a panicked leader got %v (%q), want its own ranking", got.val, got.st)
	}
	if got.st != core.CacheMiss || computes.Load() != 1 {
		t.Fatalf("follower status %q after %d computes, want a miss that computed once", got.st, computes.Load())
	}
	if val, st := v.GetOrCompute(key, nil); st != core.CacheHit || len(val) != 1 || val[0].Resources != 7 {
		t.Fatalf("next lookup %q %v, want a hit on the follower's ranking", st, val)
	}
}

// TestRankingShared: every caller of GetRanking for one entry (its
// leader, a coalesced follower and a hit) gets the same Ranking, while
// GetOrCompute hands each caller a copy it may write.
func TestRankingShared(t *testing.T) {
	c := rescache.New(rescache.Options{Capacity: 8})
	v := c.Attach()
	key := core.CacheKey{Need: "q", Group: "g", Params: "p"}

	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan *core.Ranking, 1)
	go func() {
		r, _ := v.GetRanking(key, func() []core.ExpertScore {
			close(started)
			<-release
			return scores(3)
		})
		leader <- r
	}()
	<-started
	follower := make(chan *core.Ranking, 1)
	go func() {
		r, st := v.GetRanking(key, nil)
		if st != core.CacheCoalesced {
			t.Errorf("follower status %q, want coalesced", st)
		}
		follower <- r
	}()
	time.Sleep(50 * time.Millisecond)
	close(release)
	r := <-leader
	if f := <-follower; f != r {
		t.Fatal("the coalesced follower got a Ranking other than its leader's")
	}
	if hit, st := v.GetRanking(key, nil); st != core.CacheHit || hit != r {
		t.Fatalf("hit %q got a Ranking other than the leader's", st)
	}

	cp, st := v.GetOrCompute(key, nil)
	if st != core.CacheHit || len(cp) != 1 {
		t.Fatalf("GetOrCompute %q %v", st, cp)
	}
	cp[0].Score = -1
	if r.Scores[0].Score != 3 {
		t.Fatal("writing GetOrCompute's result wrote the cached ranking")
	}
}
